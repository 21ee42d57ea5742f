//! Exhaustive race models of the scatter's slot-claim protocol and the
//! crate's other shared flags.
//!
//! The paper's Algorithm 1 (steps 6–7) rests on a concurrency claim that
//! differential tests can only sample: under **CAS + linear probing**
//! (`scatter::place_linear`) no two threads ever claim the same slot, and
//! every record lands in exactly one slot. (The default exact
//! distribution has no claim protocol: each counting-sort block writes
//! its own precomputed, disjoint ranges.)
//!
//! These tests re-state each protocol over `loom` atomics (the in-tree
//! shim, `crates/loom`) and run it under **every** interleaving of 2
//! threads contending for the same slots — ≥ 2 contended slots each, per
//! the verification plan in DESIGN.md §11. The protocol bodies mirror the
//! production loops line-for-line (same probe order, same CAS) so a
//! protocol-level regression in `scatter.rs` has to break the model too.
//!
//! An injection test replaces the atomic claim with the classic torn
//! load-then-store and asserts the explorer *catches* it: a harness that
//! cannot see the duplicate claim would vacuously pass the green model.
//!
//! Not run under Miri: the explorer spawns thousands of real scheduled
//! threads, which Miri executes orders of magnitude too slowly; Miri
//! covers the sequential memory-model obligations in `miri_suite.rs`.

#![cfg(not(miri))]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;
use loom::thread;

/// The scatter's slot-vacancy sentinel (`scatter::EMPTY`).
const EMPTY: u64 = 0;

/// Model mirror of `scatter::place_linear`: CAS at `start`, then linear
/// probing with wraparound; fails only if the bucket is completely full.
/// `claims[i]` counts successful claims of slot `i` (std atomics:
/// instrumentation, not protocol — no schedule points).
fn model_place_linear(
    bucket: &[AtomicU64],
    claims: &[AtomicUsize],
    start: usize,
    mask: usize,
    key: u64,
) -> bool {
    let mut i = start;
    for _probes in 0..bucket.len() {
        if bucket[i].load(Ordering::Relaxed) == EMPTY
            && bucket[i]
                .compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            claims[i].fetch_add(1, StdOrdering::Relaxed);
            return true;
        }
        i = (i + 1) & mask;
    }
    false
}

/// After every model thread joined: each slot claimed at most once, every
/// record's key present exactly once — "no two threads ever claim one
/// slot, every record lands exactly once".
fn assert_exactly_once(bucket: &[AtomicU64], claims: &[AtomicUsize], keys: &[u64]) {
    for (i, c) in claims.iter().enumerate() {
        assert!(
            c.load(StdOrdering::Relaxed) <= 1,
            "slot {i} claimed {} times",
            c.load(StdOrdering::Relaxed)
        );
    }
    let mut landed: Vec<u64> = bucket
        .iter()
        .map(AtomicU64::unsync_load)
        .filter(|&k| k != EMPTY)
        .collect();
    landed.sort_unstable();
    let mut expect = keys.to_vec();
    expect.sort_unstable();
    assert_eq!(landed, expect, "every record must land exactly once");
}

#[test]
fn cas_linear_probe_claims_are_exclusive() {
    // 2 threads × 2 records into a 4-slot bucket, every thread probing
    // from slot 0: slots 0 and 1 are contended by both threads in every
    // schedule, and the bucket ends exactly full (the boundary where a
    // duplicate claim would also evict a record).
    loom::model(|| {
        let bucket: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(EMPTY)).collect());
        let claims: Arc<Vec<AtomicUsize>> = Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = [[1u64, 2], [3, 4]]
            .into_iter()
            .map(|keys| {
                let bucket = bucket.clone();
                let claims = claims.clone();
                thread::spawn(move || {
                    for key in keys {
                        assert!(
                            model_place_linear(&bucket, &claims, 0, 3, key),
                            "4 records cannot overflow 4 slots"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_exactly_once(&bucket, &claims, &[1, 2, 3, 4]);
    });
}

#[test]
fn broken_load_then_store_protocol_is_caught() {
    // Duplicate-claim injection: replace the CAS with the torn
    // load-then-store "claim" and the explorer MUST find the schedule
    // where both threads read EMPTY from slot 0 and both store into it —
    // one record overwrites the other. If this test ever stops failing
    // inside the model, the harness has lost its power to see races and
    // the green model above proves nothing.
    let result = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let bucket: Arc<Vec<AtomicU64>> =
                Arc::new((0..2).map(|_| AtomicU64::new(EMPTY)).collect());
            let claims: Arc<Vec<AtomicUsize>> =
                Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());
            let handles: Vec<_> = [1u64, 2]
                .into_iter()
                .map(|key| {
                    let bucket = bucket.clone();
                    let claims = claims.clone();
                    thread::spawn(move || {
                        let mut i = 0usize;
                        loop {
                            if bucket[i].load(Ordering::Relaxed) == EMPTY {
                                // BROKEN: the vacancy check and the claim
                                // are not one atomic step.
                                bucket[i].store(key, Ordering::Relaxed);
                                claims[i].fetch_add(1, StdOrdering::Relaxed);
                                return;
                            }
                            i = (i + 1) & 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_exactly_once(&bucket, &claims, &[1, 2]);
        });
    }));
    assert!(
        result.is_err(),
        "the explorer failed to catch an injected duplicate claim"
    );
}

/// Model mirror of `obs::OverflowCapture::report`: a first-report-wins
/// AcqRel latch whose unique winner then writes the payload words with
/// Relaxed stores (read back only after the join, like `take`).
#[test]
fn overflow_latch_first_report_wins() {
    use loom::sync::atomic::AtomicBool;
    loom::model(|| {
        let set = Arc::new(AtomicBool::new(false));
        let payload = Arc::new(AtomicU64::new(0));
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = [7u64, 9]
            .into_iter()
            .map(|bucket| {
                let set = set.clone();
                let payload = payload.clone();
                let wins = wins.clone();
                thread::spawn(move || {
                    if set
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        payload.store(bucket, Ordering::Relaxed);
                        wins.fetch_add(1, StdOrdering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            wins.load(StdOrdering::Relaxed),
            1,
            "exactly one reporter must win the latch"
        );
        assert!(set.unsync_load(), "the latch must end set");
        let captured = payload.unsync_load();
        assert!(
            captured == 7 || captured == 9,
            "the payload must be the winner's report, got {captured}"
        );
    });
}

/// Model mirror of `cancel::CancelToken`: the canceller Release-stores a
/// payload (here an atomic standing in for "everything done before
/// cancel") and then trips the flag; any worker whose Acquire `check`
/// observes the flag must also observe that payload.
#[test]
fn cancel_token_flag_publishes() {
    use loom::sync::atomic::AtomicBool;
    loom::model(|| {
        let cancelled = Arc::new(AtomicBool::new(false));
        let payload = Arc::new(AtomicU64::new(0));
        let canceller = {
            let cancelled = cancelled.clone();
            let payload = payload.clone();
            thread::spawn(move || {
                payload.store(42, Ordering::Relaxed);
                cancelled.store(true, Ordering::Release);
            })
        };
        let worker = {
            let cancelled = cancelled.clone();
            let payload = payload.clone();
            thread::spawn(move || {
                if cancelled.load(Ordering::Acquire) {
                    assert_eq!(
                        payload.load(Ordering::Relaxed),
                        42,
                        "an observed cancel must publish what preceded it"
                    );
                }
            })
        };
        canceller.join().unwrap();
        worker.join().unwrap();
        assert!(cancelled.unsync_load());
    });
}
