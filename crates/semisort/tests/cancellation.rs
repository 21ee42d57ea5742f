//! Cancellation and deadline semantics: the all-or-nothing guarantee.
//!
//! A cancelled (or deadline-expired) run must return `Cancelled` /
//! `DeadlineExceeded` and leave the output exactly as it was — never a
//! partially-written result. The token is polled at phase boundaries
//! only; the last poll is after `local_sort`, so once a run commits to
//! writing the output nothing can interrupt it. These tests pin that
//! contract for the one-shot entry point and the engine, on the sort and
//! the fused by-key paths.

use std::time::Duration;

use semisort::driver::try_semisort_with_stats_cancellable;
use semisort::{CancelToken, SemisortConfig, SemisortError, Semisorter};

fn records(n: usize) -> Vec<(u64, u64)> {
    // Pre-hashed keys, many records each; the engine reserves no key, so
    // every input above `seq_threshold` takes the full parallel path.
    (0..n as u64).map(|i| (i % 97 + 1, i)).collect()
}

fn cfg() -> SemisortConfig {
    SemisortConfig {
        seq_threshold: 64,
        ..SemisortConfig::default()
    }
}

#[test]
fn pre_cancelled_token_returns_cancelled_across_all_modes() {
    let token = CancelToken::new();
    token.cancel();
    let err = try_semisort_with_stats_cancellable(&records(4096), &cfg(), &token)
        .expect_err("cancelled before entry must not run");
    assert!(matches!(err, SemisortError::Cancelled), "got {err:?}");
    // The engine and its by-key path see the same token.
    let mut engine = Semisorter::new(cfg()).unwrap();
    engine.cancel_token().cancel();
    assert!(matches!(
        engine.sort_by_key(&records(4096), |r| r.0),
        Err(SemisortError::Cancelled)
    ));
}

#[test]
fn expired_deadline_returns_deadline_exceeded_across_all_modes() {
    let token = CancelToken::new();
    token.set_deadline_in(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(1));
    let err = try_semisort_with_stats_cancellable(&records(4096), &cfg(), &token)
        .expect_err("expired deadline must not run");
    assert!(
        matches!(err, SemisortError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
    let mut engine = Semisorter::new(cfg()).unwrap();
    engine.cancel_token().set_deadline_in(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(1));
    assert!(matches!(
        engine.sort_by_key(&records(4096), |r| r.0),
        Err(SemisortError::DeadlineExceeded { .. })
    ));
}

#[test]
fn future_deadline_does_not_disturb_a_normal_run() {
    let token = CancelToken::new();
    token.set_deadline_in(Duration::from_secs(3600));
    let input = records(4096);
    let (out, stats) = try_semisort_with_stats_cancellable(&input, &cfg(), &token)
        .expect("a generous deadline never fires");
    assert_eq!(out.len(), input.len());
    assert_eq!(stats.n, input.len());
    let mut want = input.clone();
    let mut got = out;
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(want, got, "output is a permutation of the input");
}

#[test]
fn explicit_cancel_wins_over_expired_deadline() {
    let token = CancelToken::new();
    token.set_deadline_in(Duration::ZERO);
    token.cancel();
    std::thread::sleep(Duration::from_millis(1));
    let err =
        try_semisort_with_stats_cancellable(&records(4096), &cfg(), &token).expect_err("must fail");
    assert!(
        matches!(err, SemisortError::Cancelled),
        "cancel is the more specific signal: {err:?}"
    );
}

#[test]
fn cancelled_engine_call_leaves_output_all_or_nothing() {
    // Cancel from another thread while calls stream through an engine:
    // every call either fails with Cancelled/DeadlineExceeded (and its
    // output is discarded by the engine API) or succeeds with a complete,
    // correct permutation. There is no observable in-between.
    let mut engine = Semisorter::new(cfg()).unwrap();
    let input = records(8192);
    let token = engine.cancel_token().clone();

    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(200));
            token.cancel();
        })
    };
    let result = engine.sort_pairs(&input);
    canceller.join().unwrap();
    match result {
        Ok(out) => {
            // Raced past every poll before the cancel landed: must be
            // a complete, valid semisort.
            assert_eq!(out.len(), input.len());
            let mut want = input.clone();
            let mut got = out;
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(want, got, "committed output is a full permutation");
        }
        Err(SemisortError::Cancelled) => {}
        Err(other) => panic!("unexpected error under cancellation: {other:?}"),
    }

    // The token is sticky until reset; the engine reports Cancelled
    // without touching new work.
    if token.is_cancelled() {
        assert!(matches!(
            engine.sort_pairs(&input),
            Err(SemisortError::Cancelled)
        ));
        token.reset();
    }
    // After reset the same engine serves normally again.
    assert!(engine.sort_pairs(&records(256)).is_ok());
}

#[test]
fn deadline_mid_run_never_yields_partial_output() {
    // A deadline tight enough to fire at some phase boundary mid-run (but
    // not before entry). Whatever boundary it fires at, the result is
    // all-or-nothing: an error with no output, or a complete permutation.
    for deadline_us in [50u64, 200, 1000] {
        let mut engine = Semisorter::new(cfg()).unwrap();
        let input = records(16384);
        let token = engine.cancel_token().clone();
        token.reset();
        token.set_deadline_in(Duration::from_micros(deadline_us));
        match engine.sort_pairs(&input) {
            Ok(out) => {
                assert_eq!(out.len(), input.len(), "complete output only");
                let mut want = input.clone();
                let mut got = out;
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(want, got);
            }
            Err(SemisortError::DeadlineExceeded {
                deadline_us,
                now_us,
            }) => {
                assert!(now_us >= deadline_us, "reported times are coherent");
            }
            Err(other) => panic!("unexpected error under deadline: {other:?}"),
        }
    }
}

#[test]
fn cancellable_entry_point_is_equivalent_when_token_is_inert() {
    let cfg = cfg();
    let input = records(4096);
    let token = CancelToken::new();
    let (a, _) = try_semisort_with_stats_cancellable(&input, &cfg, &token).unwrap();
    let (b, _) = semisort::try_semisort_with_stats(&input, &cfg).unwrap();
    assert_eq!(a, b, "an inert token changes nothing (same seed, same run)");
}

#[test]
fn count_by_key_honours_the_token_and_stays_reusable() {
    // The fused by-key path polls the same engine token (after hashing,
    // sampling, planning and distribution); a tripped token returns Err
    // with no partial histogram, and after a reset the engine serves again.
    let mut engine = Semisorter::new(cfg()).unwrap();
    let input = records(16384);
    let token = engine.cancel_token().clone();

    token.cancel();
    assert!(matches!(
        engine.count_by_key(&input, |r| r.0),
        Err(SemisortError::Cancelled)
    ));
    token.reset();

    token.set_deadline_in(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(1));
    assert!(matches!(
        engine.count_by_key(&input, |r| r.0),
        Err(SemisortError::DeadlineExceeded { .. })
    ));
    token.reset();

    let mut counts = engine.count_by_key(&input, |r| r.0).unwrap();
    counts.sort_unstable();
    assert_eq!(counts.len(), 97);
    assert_eq!(counts.iter().map(|c| c.1).sum::<usize>(), input.len());
}
