//! Engine-reuse acceptance tests for the v1 [`Semisorter`] API.
//!
//! Pins the three contract points of the pooled engine:
//! 1. **Equivalence** — engine calls produce output identical to the
//!    one-shot `try_*` API, across ~100 consecutive calls over varied
//!    sizes and key distributions (the exact distribution is
//!    deterministic for a fixed seed at any thread count).
//! 2. **Stabilization** — `scratch_grows` drops to zero once the pool has
//!    seen its high-water-mark input; smaller inputs never grow it.
//! 3. **Resilience** — reuse holds on every repeated call, and the
//!    retention budget and `trim()` leave the engine fully functional.

use semisort::prelude::*;
use semisort::{Json, PaperConfig};

/// Distribution `d` of size `n`: cycles through uniform-random keys,
/// a few hot keys, all-equal, all-distinct, and a skewed mix.
fn workload(n: u64, d: u64) -> Vec<(u64, u64)> {
    (0..n)
        .map(|i| {
            let k = match d % 5 {
                0 => parlay::hash64(i) % (n / 2 + 1), // ~uniform with dups
                1 => i % 7,                           // 7 heavy keys
                2 => 42,                              // one giant group
                3 => i,                               // all distinct
                _ => {
                    if i % 3 == 0 {
                        i % 5 // heavy slice
                    } else {
                        1_000_000 + i // light slice
                    }
                }
            };
            (parlay::hash64(k), i)
        })
        .collect()
}

fn assert_valid(out: &[(u64, u64)], input: &[(u64, u64)]) {
    assert!(semisort::verify::is_semisorted_by(out, |r| r.0));
    assert!(semisort::verify::is_permutation_of(out, input));
}

// ───────────────────── 1. equivalence over 100 calls ─────────────────────

/// 100 consecutive engine calls over varied sizes and distributions,
/// each compared byte-for-byte against the one-shot API under one
/// thread (fixed seed ⇒ the distribution is deterministic, so "identical
/// semantics" is literal equality).
#[test]
fn hundred_calls_match_one_shot_api() {
    let cfg = SemisortConfig::builder().seed(7).build().unwrap();
    let mut engine = Semisorter::new(cfg).unwrap();
    parlay::with_threads(1, || {
        for call in 0..100u64 {
            let n = 500 + (call * 977) % 20_000;
            let recs = workload(n, call);
            let pooled = engine.sort_pairs(&recs).unwrap();
            let (one_shot, _) = try_semisort_with_stats(&recs, &cfg).unwrap();
            assert_eq!(pooled, one_shot, "call {call} (n={n})");
            assert_valid(&pooled, &recs);
        }
    });
}

/// The by-key surface agrees with its one-shot wrappers too (same
/// transient-engine code path, but pinned from the outside).
#[test]
fn by_key_surface_matches_one_shot_api() {
    let cfg = SemisortConfig::builder().seed(3).build().unwrap();
    let mut engine = Semisorter::new(cfg).unwrap();
    parlay::with_threads(1, || {
        for call in 0..10u64 {
            let items: Vec<u32> = (0..8_000u32)
                .map(|i| (i.wrapping_mul(2654435761)) % (200 + call as u32 * 100))
                .collect();
            let pooled = engine.sort_by_key(&items, |&x| x).unwrap();
            let one_shot = try_semisort_by_key(&items, |&x| x, &cfg).unwrap();
            assert_eq!(pooled, one_shot, "sort_by_key call {call}");
            let pooled_perm = engine.permutation(&items, |&x| x).unwrap();
            let one_shot_perm = try_semisort_permutation(&items, |&x| x, &cfg).unwrap();
            assert_eq!(pooled_perm, one_shot_perm, "permutation call {call}");
            let pooled_stable = engine.stable_by_key(&items, |&x| x).unwrap();
            let one_shot_stable = try_semisort_stable_by_key(&items, |&x| x, &cfg).unwrap();
            assert_eq!(pooled_stable, one_shot_stable, "stable call {call}");
        }
    });
}

// ───────────────────── 2. scratch_grows stabilization ────────────────────

/// After one call at the high-water-mark size, every later call — at
/// that size or below, any distribution — reports `scratch_grows == 0`
/// and a stable `scratch_bytes_held`.
#[test]
fn grows_stabilize_after_high_water_mark() {
    let mut engine = Semisorter::new(SemisortConfig::default()).unwrap();
    let big = workload(60_000, 0);
    engine.sort_pairs(&big).unwrap();
    assert!(
        engine.last_stats().scratch_grows >= 1,
        "cold pool must grow"
    );
    let held = engine.scratch_bytes_held();
    assert!(held > 0);
    for call in 0..20u64 {
        // Above seq_threshold (so the parallel path uses the pool), never
        // above the 60k high-water mark.
        let n = 9_000 + (call * 2_711) % 50_000;
        let recs = workload(n, call);
        let out = engine.sort_pairs(&recs).unwrap();
        assert_valid(&out, &recs);
        assert_eq!(
            engine.last_stats().scratch_grows,
            0,
            "call {call} (n={n}) grew a warm pool"
        );
        assert!(engine.last_stats().scratch_reuse_hits >= 1, "call {call}");
        assert_eq!(engine.scratch_bytes_held(), held, "call {call}");
    }
    // A much larger input (4×: beyond any rounding of the 60k buffers)
    // raises the mark exactly once more.
    let bigger = workload(240_000, 1);
    engine.sort_pairs(&bigger).unwrap();
    assert!(engine.last_stats().scratch_grows >= 1);
    engine.sort_pairs(&bigger).unwrap();
    assert_eq!(engine.last_stats().scratch_grows, 0);
}

/// The fused `count_by_key` path keeps its scratch pooled too: a second
/// identical call grows nothing and holds the same bytes, for every
/// distribution.
#[test]
fn count_by_key_reuses_scratch() {
    for d in 0..5u64 {
        let mut engine = Semisorter::new(SemisortConfig::default()).unwrap();
        let recs = workload(40_000, d);
        let first = engine.count_by_key(&recs, |r| r.0).unwrap();
        assert!(engine.last_stats().scratch_grows >= 1, "cold pool grows");
        let held = engine.scratch_bytes_held();
        let second = engine.count_by_key(&recs, |r| r.0).unwrap();
        assert_eq!(first, second, "deterministic output (d={d})");
        let st = engine.last_stats();
        assert_eq!(st.scratch_grows, 0, "d={d}");
        assert_eq!(st.scratch_reuse_hits, 1, "d={d}");
        assert_eq!(engine.scratch_bytes_held(), held, "d={d}");
        assert_eq!(st.n, recs.len());
        assert_eq!(st.heavy_records + st.light_records, recs.len());
        assert_eq!(st.retries, 0, "no retry ladder on the fused path");
        let names: Vec<&str> = st.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["sample_sort", "construct_buckets", "scatter", "local_sort"]
        );
    }
}

/// The stats JSON carries the pool counters (schema `semisort-stats-v2`).
#[test]
fn scratch_counters_reach_stats_json() {
    let mut engine = Semisorter::new(SemisortConfig::default()).unwrap();
    let recs = workload(10_000, 0);
    engine.sort_pairs(&recs).unwrap();
    engine.sort_pairs(&recs).unwrap();
    let json = engine.last_stats().to_json().to_string();
    let parsed = Json::parse(&json).expect("stats JSON parses");
    let counters = parsed.get("counters").expect("counters object");
    assert_eq!(counters.get("scratch_grows").unwrap().as_u64(), Some(0));
    assert!(
        counters
            .get("scratch_reuse_hits")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
    assert!(
        counters
            .get("scratch_bytes_held")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
}

// ───────────────────────── 3. repeated-call reuse ─────────────────────────

/// Reuse counters hold steady over repeated identical calls.
#[test]
fn reuse_holds_for_both_scatter_strategies() {
    let mut engine = Semisorter::new(SemisortConfig::default()).unwrap();
    let recs = workload(40_000, 4);
    engine.sort_pairs(&recs).unwrap();
    let held = engine.scratch_bytes_held();
    assert!(held > 0);
    for _ in 0..3 {
        let out = engine.sort_pairs(&recs).unwrap();
        assert_valid(&out, &recs);
        assert_eq!(engine.last_stats().scratch_grows, 0);
        assert!(engine.last_stats().scratch_reuse_hits >= 1);
        assert_eq!(engine.scratch_bytes_held(), held);
    }
}

// ───────────────────── retention knobs and builder ────────────────────────

/// `max_scratch_bytes` trims the pool after every call; `trim()` does it
/// on demand; both leave the engine fully functional.
#[test]
fn retention_budget_and_trim() {
    let cfg = SemisortConfig::builder()
        .max_scratch_bytes(4096)
        .build()
        .unwrap();
    let mut bounded = Semisorter::new(cfg).unwrap();
    let recs = workload(30_000, 0);
    let out = bounded.sort_pairs(&recs).unwrap();
    assert_valid(&out, &recs);
    assert_eq!(bounded.scratch_bytes_held(), 0, "budget trims on exit");
    assert_eq!(bounded.last_stats().scratch_bytes_held, 0);

    let mut unbounded = Semisorter::new(SemisortConfig::default()).unwrap();
    unbounded.sort_pairs(&recs).unwrap();
    assert!(unbounded.scratch_bytes_held() > 0);
    unbounded.trim();
    assert_eq!(unbounded.scratch_bytes_held(), 0);
    let out = unbounded.sort_pairs(&recs).unwrap();
    assert_valid(&out, &recs);
}

/// The builder reports invalid configurations as `Err` (not a panic),
/// `Semisorter::new` re-checks whatever config it is handed, and a
/// `PaperConfig` checks its scatter knobs the same way.
#[test]
fn builder_and_engine_reject_invalid_configs() {
    let err = SemisortConfig::builder().sample_shift(17).build();
    assert!(matches!(err, Err(SemisortError::InvalidConfig { .. })));
    let err = SemisortConfig::builder().heavy_threshold(1).build();
    assert!(matches!(err, Err(SemisortError::InvalidConfig { .. })));

    let bad = SemisortConfig {
        light_bucket_log2: 30, // above the cap of 24
        ..SemisortConfig::default()
    };
    match Semisorter::new(bad) {
        Err(SemisortError::InvalidConfig { reason }) => {
            assert!(reason.contains("light_bucket_log2"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    for bad in [
        PaperConfig {
            max_retries: 40,
            ..PaperConfig::default()
        },
        PaperConfig {
            alpha: 0.5,
            ..PaperConfig::default()
        },
        PaperConfig {
            prefetch_distance: 100, // above the cap of 64
            ..PaperConfig::default()
        },
    ] {
        assert!(matches!(
            bad.try_validate(),
            Err(SemisortError::InvalidConfig { .. })
        ));
    }
}
