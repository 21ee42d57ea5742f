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
//! Coverage map (ISSUE 5 tentpole):
//! - the `RawBuf` monotonic arena: alloc / lease / grow / trim, the
//!   dirty-prefix re-zero boundary, and the Drop/free recursion regression
//!   from PR 4 (`free` resets field-by-field so `Drop` cannot re-enter it);
//! - both scatter strategies (CAS + linear/random probing into the arena,
//!   and the exact counting-sort distribution with its region sort);
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

use semisort::pool::RawBuf;
use semisort::prelude::*;
use semisort::scatter::Slot;
use semisort::verify::{is_permutation_of, is_semisorted_by};
use semisort::{FaultClass, FaultPlan};

/// Records per test input: small enough for Miri's interpreter, large
/// enough to exercise heavy and light buckets and probe clusters.
const N: usize = if cfg!(miri) { 2_000 } else { 32_000 };

/// A config whose sequential cutoff and heavy threshold sit far below
/// [`N`], so the suite runs the real five-phase pipeline (with both bucket
/// classes populated), not the fallback sort. It pins the arena path
/// (`RandomCas`), which holds most of the crate's `unsafe`.
fn small_cfg() -> SemisortConfig {
    SemisortConfig::builder()
        .seq_threshold(64)
        .heavy_threshold(2)
        .seed(0x13_5eed)
        .scatter(ScatterConfig {
            strategy: ScatterStrategy::RandomCas,
            ..ScatterConfig::default()
        })
        .build()
        .unwrap()
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
// RawBuf: the monotonic arena under the slot leases.
// ---------------------------------------------------------------------------

#[test]
fn rawbuf_lease_is_zeroed_then_reused_dirty() {
    let mut buf = RawBuf::new();
    let mut c = ScratchCounters::default();
    {
        let slots = buf.lease_slots::<u64>(257, false, &mut c).unwrap();
        assert!(slots.iter().all(|s| !s.occupied()));
        // Dirty every slot, including the last one: the re-zero sweep must
        // cover the full leased extent, not `len - 1` of it.
        for (i, s) in slots.iter().enumerate() {
            s.set(i as u64 + 1, i as u64);
        }
    }
    let held = buf.bytes();
    {
        // Same-size reuse: the dirty prefix must be swept back to vacant.
        let slots = buf.lease_slots::<u64>(257, false, &mut c).unwrap();
        assert!(
            slots.iter().all(|s| !s.occupied()),
            "stale keys must be swept"
        );
        slots[256].set(9, 9);
    }
    {
        // Smaller reuse after dirtying the tail: the final slot of the new
        // lease sits inside the old dirty extent and must read as vacant.
        let slots = buf.lease_slots::<u64>(100, false, &mut c).unwrap();
        assert!(slots.iter().all(|s| !s.occupied()));
    }
    assert_eq!(buf.bytes(), held, "monotonic: smaller leases never shrink");
    assert_eq!((c.grows, c.reuse_hits), (1, 2));
}

#[test]
fn rawbuf_free_lease_free_drop_no_recursion() {
    // PR 4 regression: `free` must reset fields directly; a whole-struct
    // overwrite would drop the overwritten value and re-enter free. Under
    // Miri a double free or invalid dealloc is a hard diagnostic.
    let mut buf = RawBuf::new();
    let mut c = ScratchCounters::default();
    buf.lease_slots::<u64>(64, false, &mut c).unwrap();
    buf.free();
    assert_eq!(buf.bytes(), 0);
    buf.free(); // idempotent on an empty buffer
    buf.lease_slots::<u32>(8, false, &mut c).unwrap();
    drop(buf); // Drop::drop calls free exactly once on the live allocation
}

#[test]
fn rawbuf_zero_len_and_injected_failure() {
    let mut buf = RawBuf::new();
    let mut c = ScratchCounters::default();
    let empty = buf.lease_slots::<u64>(0, false, &mut c).unwrap();
    assert!(empty.is_empty());
    assert_eq!(buf.bytes(), 0, "zero-length lease allocates nothing");
    let want = 16 * std::mem::size_of::<Slot<u64>>();
    assert_eq!(buf.lease_slots::<u64>(16, true, &mut c).err(), Some(want));
    assert_eq!(buf.bytes(), 0, "injected failure leaves the buffer alone");
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
// The five-phase pipeline: both scatter strategies, both probe strategies,
// the pack phase, and the pooled engine (dirty arena reuse across calls).
// ---------------------------------------------------------------------------

#[test]
fn cas_scatter_linear_probe_end_to_end() {
    let recs = mixed_records(N);
    let (out, stats) = semisort::try_semisort_with_stats(&recs, &small_cfg()).unwrap();
    check(&out, &recs);
    assert!(stats.heavy_records > 0, "hot keys must classify heavy");
    assert!(stats.light_records > 0, "distinct keys must stay light");
}

#[test]
fn cas_scatter_random_probe_end_to_end() {
    let recs = mixed_records(N);
    let cfg = small_cfg()
        .to_builder()
        .probe_strategy(ProbeStrategy::Random)
        .build()
        .unwrap();
    let (out, _) = semisort::try_semisort_with_stats(&recs, &cfg).unwrap();
    check(&out, &recs);
}

#[test]
fn counting_distribution_end_to_end() {
    // The exact path: the counting sort's disjoint-range writes through
    // its shared output pointer, then the per-region sort of split
    // `&mut` slices.
    let recs = mixed_records(N);
    let cfg = small_cfg()
        .to_builder()
        .scatter(ScatterConfig {
            strategy: ScatterStrategy::Counting,
            ..ScatterConfig::default()
        })
        .build()
        .unwrap();
    let (out, stats) = semisort::try_semisort_with_stats(&recs, &cfg).unwrap();
    check(&out, &recs);
    assert!(stats.heavy_records > 0 && stats.light_records > 0);
    assert_eq!(stats.total_slots, N, "no arena on this path");
}

#[test]
fn engine_reuses_dirty_arena_across_calls() {
    // Call 2 leases the arena call 1 dirtied: the dirty-prefix re-zero is
    // on the exact path where an off-by-one would hand the scatter a stale
    // (non-EMPTY) slot. A shrinking third call leases a strict prefix.
    let mut engine = Semisorter::new(small_cfg()).unwrap();
    for n in [N, N, N / 2] {
        let recs = mixed_records(n);
        let out = engine.sort_pairs(&recs).unwrap();
        check(&out, &recs);
    }
    assert!(engine.scratch_bytes_held() > 0);
    engine.trim();
    assert_eq!(engine.scratch_bytes_held(), 0);
    // And the pool must still serve leases after an explicit trim.
    let recs = mixed_records(N / 2);
    let out = engine.sort_pairs(&recs).unwrap();
    check(&out, &recs);
}

#[test]
fn empty_sentinel_key_takes_fallback_path() {
    let mut recs = mixed_records(N);
    recs[N / 3].0 = 0; // the scatter's EMPTY slot-vacancy sentinel
    let (out, _) = semisort::try_semisort_with_stats(&recs, &small_cfg()).unwrap();
    check(&out, &recs);
}

// ---------------------------------------------------------------------------
// Fault-injection escalation: every rung of the ladder, under Miri.
// ---------------------------------------------------------------------------

#[test]
fn forced_overflow_retries_then_succeeds() {
    let recs = mixed_records(N);
    let cfg = small_cfg()
        .to_builder()
        .fault(FaultPlan {
            force_overflow_attempts: 1,
            force_overflow_class: FaultClass::Any,
            ..FaultPlan::NONE
        })
        .build()
        .unwrap();
    let (out, stats) = semisort::try_semisort_with_stats(&recs, &cfg).unwrap();
    check(&out, &recs);
    assert_eq!(stats.retries, 1, "one forced retry");
    assert!(!stats.degraded);
}

#[test]
fn retries_exhausted_degrades_to_fallback() {
    let recs = mixed_records(N);
    let cfg = small_cfg()
        .to_builder()
        .max_retries(1)
        .fault(FaultPlan {
            force_overflow_attempts: 8,
            ..FaultPlan::NONE
        })
        .build()
        .unwrap();
    let (out, stats) = semisort::try_semisort_with_stats(&recs, &cfg).unwrap();
    check(&out, &recs);
    assert!(stats.degraded);
    assert_eq!(stats.degrade_reason, Some(DegradeReason::RetriesExhausted));
}

#[test]
fn alloc_failure_surfaces_as_error_when_asked() {
    let recs = mixed_records(N);
    let cfg = small_cfg()
        .to_builder()
        .overflow_policy(OverflowPolicy::Error)
        .fault(FaultPlan {
            fail_alloc_attempts: u32::MAX,
            ..FaultPlan::NONE
        })
        .build()
        .unwrap();
    let err = try_semisort_with_stats(&recs, &cfg).unwrap_err();
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
            || semisort::try_semisort_pairs(&recs, &small_cfg()).unwrap(),
            || rayon::join(rayon::current_num_threads, || 7u64),
        )
    });
    check(&out, &recs);
    assert_eq!(nested, (4, 7));
}

#[test]
fn arena_budget_exceeded_degrades() {
    let recs = mixed_records(N);
    let cfg = small_cfg()
        .to_builder()
        .max_arena_bytes(64)
        .build()
        .unwrap();
    let (out, stats) = semisort::try_semisort_with_stats(&recs, &cfg).unwrap();
    check(&out, &recs);
    assert!(stats.degraded);
    assert_eq!(stats.degrade_reason, Some(DegradeReason::BudgetExceeded));
}
