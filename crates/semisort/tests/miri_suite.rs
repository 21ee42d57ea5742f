//! Miri verification suite for the `unsafe` core.
//!
//! Run with `cargo +nightly miri test -p semisort --test miri_suite`. Under
//! Miri the in-tree `rayon` shim collapses every parallel operation to
//! deterministic sequential execution (see `rayon::spawn_budget`), so each
//! test here is a single-threaded replay of the exact pointer arithmetic,
//! initialization discipline, and alias patterns of the production paths —
//! which is what Miri checks: uninitialized reads, Stacked/Tree Borrows
//! violations, out-of-bounds accesses, and leaks that differential tests
//! cannot see.
//!
//! Coverage map:
//! - the paper run's slot arena: the zeroed allocation and its injected
//!   failure;
//! - both Phase 3s: the paper's CAS + linear/random probing into the
//!   arena, and the engine's exact counting-sort distribution with its
//!   region sort, including the engine's pooled scratch across calls and
//!   its writes into a fresh or a warm `Vec`'s spare capacity;
//! - the pack phase (interval compaction + `spare_capacity_mut` writes +
//!   `set_len`);
//! - the fault-injection escalation ladder (forced overflow → retry,
//!   alloc failure → degrade/error, retries exhausted, arena budget).
//!
//! Sizes are gated on `cfg(miri)`: Miri interprets every basic block, so
//! the suite runs the same code shape at ~1/16 the record count. The
//! `seq_threshold` is pinned low and `heavy_threshold` (δ) reduced so the
//! small inputs still take the full five-phase machinery — heavy buckets,
//! light buckets, scatter, local sort, pack — instead of the sort fallback.

use semisort::prelude::*;
use semisort::scatter::{arena_bytes, try_allocate_arena, ArenaLayout};
use semisort::verify::{is_permutation_of, is_semisorted_by};
use semisort::{paper, FaultClass, FaultPlan, OverflowPolicy, PaperConfig, ProbeStrategy};

/// Records per test input: small enough for Miri's interpreter, large
/// enough to exercise heavy and light buckets and probe clusters.
const N: usize = if cfg!(miri) { 2_000 } else { 32_000 };

/// A config whose sequential cutoff and heavy threshold sit far below
/// [`N`], so the suite runs the real five-phase pipeline (with both bucket
/// classes populated), not the fallback sort. It configures a paper run,
/// whose slot arena holds most of the crate's `unsafe`; its `base` is the
/// matching engine config.
fn small_cfg() -> PaperConfig {
    PaperConfig::new(
        SemisortConfig::builder()
            .seq_threshold(64)
            .heavy_threshold(2)
            .seed(0x13_5eed)
            .build()
            .unwrap(),
    )
}

/// `small_cfg` with `fault` armed.
fn faulted(fault: FaultPlan) -> PaperConfig {
    let mut cfg = small_cfg();
    cfg.base.fault = fault;
    cfg
}

/// A mixed workload: every third record carries one of 8 hot keys (heavy
/// buckets under δ = 2), the rest are distinct (light buckets). Hot
/// positions step by 3, coprime to the stride-16 sampler, so the sample
/// sees the hot keys at their true 1/3 frequency.
fn mixed_records(n: usize) -> Vec<(u64, u64)> {
    (0..n as u64)
        .map(|i| {
            let k = if i % 3 == 0 { i % 24 } else { 1_000_000 + i };
            (parlay::hash64(k), i)
        })
        .collect()
}

fn check(out: &[(u64, u64)], input: &[(u64, u64)]) {
    assert!(is_semisorted_by(out, |r| r.0), "not semisorted");
    assert!(is_permutation_of(out, input), "not a permutation");
}

// ---------------------------------------------------------------------------
// The paper run's slot arena and the engine's scratch pool.
// ---------------------------------------------------------------------------

#[test]
fn arena_alloc_is_zeroed_and_reports_injected_failure() {
    // All-zero bytes must be a valid vacant slot (`alloc_zeroed` is the
    // arena's only initialization), and an injected failure must report
    // the bytes without allocating.
    let layout = ArenaLayout::from_sizes(vec![64, 1, 256], 1);
    assert_eq!((layout.heavy_slots, layout.total_slots), (64, 321));
    let arena = try_allocate_arena::<u64>(&layout, false).unwrap();
    assert!(arena.slots.iter().all(|s| !s.occupied()));
    arena.slots[320].set(9, 9);
    assert!(arena.slots[320].occupied());
    assert_eq!(
        try_allocate_arena::<u32>(&layout, true).err(),
        Some(arena_bytes::<u32>(&layout))
    );
    drop(arena); // Vec<Slot> frees exactly the allocation it was built from
}

#[test]
fn scratch_pool_trim_and_budget() {
    let mut pool = ScratchPool::new();
    assert_eq!(pool.bytes_held(), 0);
    pool.trim(); // trim of an empty pool is a no-op
    pool.enforce_budget(1);
    assert_eq!(pool.bytes_held(), 0);
}

// ---------------------------------------------------------------------------
// The five-phase pipeline: both Phase 3s, both probe strategies, the pack
// phase, and the pooled engine across calls.
// ---------------------------------------------------------------------------

#[test]
fn cas_scatter_linear_probe_end_to_end() {
    let recs = mixed_records(N);
    let (out, stats) = paper::try_semisort_with_stats(&recs, &small_cfg()).unwrap();
    check(&out, &recs);
    assert!(stats.heavy_records > 0, "hot keys must classify heavy");
    assert!(stats.light_records > 0, "distinct keys must stay light");
}

#[test]
fn cas_scatter_random_probe_end_to_end() {
    let recs = mixed_records(N);
    let cfg = PaperConfig {
        probe_strategy: ProbeStrategy::Random,
        ..small_cfg()
    };
    let (out, _) = paper::try_semisort_with_stats(&recs, &cfg).unwrap();
    check(&out, &recs);
}

#[test]
fn counting_distribution_end_to_end() {
    // The exact path: the counting sort's disjoint-range writes through
    // its shared output pointer, then the per-region sort of split
    // `&mut` slices.
    let recs = mixed_records(N);
    let (out, stats) = semisort::try_semisort_with_stats(&recs, &small_cfg().base).unwrap();
    check(&out, &recs);
    assert!(stats.heavy_records > 0 && stats.light_records > 0);
    assert_eq!(stats.total_slots, N, "no arena on this path");
}

#[test]
fn distribution_writes_fresh_and_warm_vecs_once() {
    // The distribution writes straight into a `Vec`'s spare capacity and
    // sets its length after the replay: a fresh `Vec` is never read
    // uninitialized, and a warm one's stale records are all overwritten.
    // Sizes: empty, one counting-sort block, and several blocks.
    use parlay::counting_sort::CountingScratch;
    use parlay::slices::GRAIN;
    let cfg = small_cfg().base;
    let mut scratch = CountingScratch::default();
    let mut warm = vec![(u64::MAX, u64::MAX); 2 * GRAIN];
    for n in [0, N.min(GRAIN), GRAIN + GRAIN / 2] {
        let recs = mixed_records(n);
        let mut sample: Vec<u64> = recs.iter().step_by(16).map(|r| r.0).collect();
        sample.sort_unstable();
        let plan = semisort::buckets::build_plan(&sample, n, &cfg);
        let mut fresh = Vec::new();
        let starts = plan
            .distribute_into(&recs, &mut fresh, &mut scratch)
            .to_vec();
        assert!(is_permutation_of(&fresh, &recs), "n = {n}");
        for (b, w) in starts.windows(2).enumerate() {
            assert!(fresh[w[0]..w[1]]
                .iter()
                .all(|r| plan.bucket_of(r.0) as usize == b));
        }
        let cap = warm.capacity();
        plan.distribute_into(&recs, &mut warm, &mut scratch);
        assert_eq!(warm, fresh, "n = {n}: a warm Vec lands the same way");
        assert_eq!(warm.capacity(), cap, "n = {n}: no regrowth");
    }
}

#[test]
fn engine_reuses_counting_scratch_across_calls() {
    // Call 2 distributes through the count matrices and bucket ids call 1
    // left in the pool; a shrinking third call uses a strict prefix.
    let mut engine = Semisorter::new(small_cfg().base).unwrap();
    for n in [N, N, N / 2] {
        let recs = mixed_records(n);
        let out = engine.sort_pairs(&recs).unwrap();
        check(&out, &recs);
    }
    assert!(engine.scratch_bytes_held() > 0);
    engine.trim();
    assert_eq!(engine.scratch_bytes_held(), 0);
    // And the pool must still serve calls after an explicit trim.
    let recs = mixed_records(N / 2);
    let out = engine.sort_pairs(&recs).unwrap();
    check(&out, &recs);
}

#[test]
fn empty_sentinel_key_takes_fallback_path() {
    let mut recs = mixed_records(N);
    recs[N / 3].0 = 0; // the scatter's EMPTY slot-vacancy sentinel
    let (out, _) = paper::try_semisort_with_stats(&recs, &small_cfg()).unwrap();
    check(&out, &recs);
}

// ---------------------------------------------------------------------------
// Fault-injection escalation: every rung of the ladder, under Miri.
// ---------------------------------------------------------------------------

#[test]
fn forced_overflow_retries_then_succeeds() {
    let recs = mixed_records(N);
    let cfg = faulted(FaultPlan {
        force_overflow_attempts: 1,
        force_overflow_class: FaultClass::Any,
        ..FaultPlan::NONE
    });
    let (out, stats) = paper::try_semisort_with_stats(&recs, &cfg).unwrap();
    check(&out, &recs);
    assert_eq!(stats.retries, 1, "one forced retry");
    assert!(!stats.degraded);
}

#[test]
fn retries_exhausted_degrades_to_fallback() {
    let recs = mixed_records(N);
    let cfg = PaperConfig {
        max_retries: 1,
        ..faulted(FaultPlan {
            force_overflow_attempts: 8,
            ..FaultPlan::NONE
        })
    };
    let (out, stats) = paper::try_semisort_with_stats(&recs, &cfg).unwrap();
    check(&out, &recs);
    assert!(stats.degraded);
    assert_eq!(stats.degrade_reason, Some(DegradeReason::RetriesExhausted));
}

#[test]
fn alloc_failure_surfaces_as_error_when_asked() {
    let recs = mixed_records(N);
    let cfg = PaperConfig {
        overflow_policy: OverflowPolicy::Error,
        ..faulted(FaultPlan {
            fail_alloc_attempts: u32::MAX,
            ..FaultPlan::NONE
        })
    };
    let err = paper::try_semisort_with_stats(&recs, &cfg).unwrap_err();
    assert!(
        matches!(err, SemisortError::ArenaAllocFailed { .. }),
        "{err}"
    );
}

// ---------------------------------------------------------------------------
// Scheduler collapse: the work-stealing pool's cfg(miri) path.
// ---------------------------------------------------------------------------

#[test]
fn pool_collapses_to_sequential_join_under_miri() {
    // Under Miri the rayon shim spawns no worker threads: `install` pins
    // the reported pool size through a thread-local and `join` runs
    // a-then-b inline on the calling thread. This drives a full semisort
    // *plus* nested joins through that collapsed path with
    // `current_num_threads() == 4`, so the chunk arithmetic matches a real
    // 4-thread run while Miri replays the pointer patterns sequentially.
    let n = if cfg!(miri) { 1_200 } else { 24_000 };
    let recs = mixed_records(n);
    let (out, nested) = parlay::with_threads(4, || {
        rayon::join(
            || {
                paper::try_semisort_with_stats(&recs, &small_cfg())
                    .unwrap()
                    .0
            },
            || rayon::join(rayon::current_num_threads, || 7u64),
        )
    });
    check(&out, &recs);
    assert_eq!(nested, (4, 7));
}

#[test]
fn arena_budget_exceeded_degrades() {
    let recs = mixed_records(N);
    let cfg = PaperConfig {
        max_arena_bytes: 64,
        ..small_cfg()
    };
    let (out, stats) = paper::try_semisort_with_stats(&recs, &cfg).unwrap();
    check(&out, &recs);
    assert!(stats.degraded);
    assert_eq!(stats.degrade_reason, Some(DegradeReason::BudgetExceeded));
}
