//! Regression tests for engine poisoning: a panic that unwinds out of a
//! `Semisorter` call mid-scatter must not leave the engine unusable or
//! its scratch pool in a corrupt state.
//!
//! The safety story being verified: `ScratchPool` leases are
//! borrow-scoped (RAII inside the call), so an unwind drops them on the
//! way out — nothing dangles, no lease survives the panic. The engine
//! object itself stays structurally sound: later calls that don't hit the
//! fault succeed, `trim()` still releases retained scratch, and the
//! retention budget is still enforced. (The *service* layer additionally
//! rebuilds the whole engine after a contained panic — that path is
//! exercised in `crates/semisortd/tests/service.rs`; this test pins down
//! the weaker in-place guarantee the rebuild relies on.)
//!
//! The fault fires inside the engine's distribution, the only Phase 3 an
//! engine runs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use semisort::{FaultPlan, SemisortConfig, Semisorter};

/// An engine config whose every parallel run panics.
fn poisoning_cfg() -> SemisortConfig {
    SemisortConfig {
        seq_threshold: 64,
        fault: FaultPlan {
            // Every parallel run panics mid-scatter; inputs at or below
            // seq_threshold never reach the scatter phase and stay usable.
            panic_attempts: 1,
            ..FaultPlan::NONE
        },
        ..SemisortConfig::default()
    }
}

fn records(n: usize) -> Vec<(u64, u64)> {
    // `sort_pairs` takes pre-hashed keys. The engine reserves no key, so
    // this input runs the plan up to the scatter phase the fault targets.
    (0..n as u64).map(|i| (i % 13 + 1, i)).collect()
}

#[test]
fn panic_mid_scatter_unwinds_without_dangling_leases() {
    let cfg = poisoning_cfg();
    let mut engine = Semisorter::new(cfg).unwrap();
    let big = records(4096);

    let unwound = catch_unwind(AssertUnwindSafe(|| engine.sort_pairs(&big))).is_err();
    assert!(unwound, "the forced fault must actually panic");

    // Every lease the panicked call took was borrow-scoped, so the
    // pool is whole: a sequential-path call on the same engine just
    // works.
    let small = records(64);
    let out = engine
        .sort_pairs(&small)
        .expect("engine survives the unwind");
    assert_eq!(out.len(), small.len());

    // And repeatedly: panic again, recover again.
    let unwound = catch_unwind(AssertUnwindSafe(|| engine.sort_pairs(&big))).is_err();
    assert!(unwound);
    assert!(engine.sort_pairs(&small).is_ok());
}

#[test]
fn trim_after_recovery_releases_scratch() {
    let cfg = poisoning_cfg();
    let mut engine = Semisorter::new(cfg).unwrap();
    let big = records(4096);

    assert!(catch_unwind(AssertUnwindSafe(|| engine.sort_pairs(&big))).is_err());

    // Warm the pool with a successful call, then trim: everything the
    // pool held (including anything grown before the earlier panic)
    // is released, and the engine still works from a cold pool.
    engine.sort_pairs(&records(64)).expect("post-panic call");
    engine.trim();
    assert_eq!(engine.scratch_bytes_held(), 0, "trim drops all scratch");
    assert_eq!(engine.last_stats().scratch_bytes_held, 0);
    assert!(
        engine.sort_pairs(&records(64)).is_ok(),
        "cold pool re-grows"
    );
}

#[test]
fn scratch_budget_still_enforced_after_panic() {
    let mut cfg = poisoning_cfg();
    cfg.max_scratch_bytes = 1 << 16;
    let mut engine = Semisorter::new(cfg).unwrap();

    assert!(catch_unwind(AssertUnwindSafe(|| engine.sort_pairs(&records(4096)))).is_err());

    // A successful call's exit path enforces the retention budget
    // exactly as it would on an engine that never panicked.
    engine.sort_pairs(&records(64)).expect("post-panic call");
    assert!(
        engine.scratch_bytes_held() <= 1 << 16,
        "held {} bytes exceeds the retention budget",
        engine.scratch_bytes_held()
    );
}

#[test]
fn fresh_engine_after_panic_matches_service_rebuild_semantics() {
    // What semisortd's shard does after containing a panic: drop the
    // poisoned engine, build a new one from the same base config (fault
    // cleared), and serve the next request at full size.
    let cfg = poisoning_cfg();
    let mut engine = Semisorter::new(cfg).unwrap();
    let big = records(4096);
    assert!(catch_unwind(AssertUnwindSafe(|| engine.sort_pairs(&big))).is_err());

    let base = SemisortConfig {
        fault: FaultPlan::NONE,
        ..cfg
    };
    let mut rebuilt = Semisorter::new(base).unwrap();
    let out = rebuilt
        .sort_pairs(&big)
        .expect("rebuilt engine serves full-size work");
    assert_eq!(out.len(), big.len());
    let mut want = big.clone();
    let mut got = out;
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(want, got, "rebuilt engine output is a permutation");
}
