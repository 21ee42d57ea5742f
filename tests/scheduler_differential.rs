//! Differential tests of the work-stealing scheduler: semisort results must
//! not depend on how many pool threads execute them.
//!
//! For every thread count in {1, 2, 8} × the 4 workload shapes × both
//! Phase 3s (the engine's exact distribution, `counting`, and the paper's
//! CAS scatter through `semisort::paper`, `random-cas`), the output must
//! be **byte-identical after canonicalization** to the sequential
//! baseline. Canonicalization = a full `(key, value)` sort: semisort only
//! promises key-grouping, and the one schedule-visible freedom the CAS
//! scatter (deliberately — see `driver.rs::valid_at_any_thread_count`)
//! retains is the *intra*-group record order decided by CAS races.
//! Everything else must be invariant: the canonical bytes, the key
//! sequence (group order is seed-determined, not schedule-determined), and
//! the group structure. The exact distribution has no races and is
//! stable, so its raw output bytes must match across thread counts and
//! engines too
//! (`counting_sort_pairs_is_byte_identical_across_threads_and_engines`).
//!
//! Two stress tests cover the scheduler's degrade paths: a `join` binary
//! recursion much deeper than the pool (65k tasks on 2 threads must be pure
//! deque traffic) and a *linear* nest that overflows the fixed-capacity
//! deque (pushes start failing and `join` must fall back to inline
//! sequential execution).

use std::collections::HashMap;

use semisort::verify::{is_semisorted_by, runs_by};
use semisort::{paper, try_semisort_pairs, PaperConfig, SemisortConfig, Semisorter};
use workloads::{generate, Distribution};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const N: usize = 100_000;

fn workload(name: &str, n: usize) -> Vec<(u64, u64)> {
    match name {
        "uniform" => generate(Distribution::Uniform { n: n as u64 }, n, 7),
        "power-law" => generate(Distribution::Zipfian { m: 1_000_000 }, n, 7),
        "all-equal" => generate(Distribution::Uniform { n: 1 }, n, 7),
        // hash64 is a bijection, so these keys are pairwise distinct.
        "all-distinct" => (0..n as u64).map(|i| (parlay::hash64(i), i)).collect(),
        _ => unreachable!(),
    }
}

/// Full-sort canonical form: equal up to the intra-group permutations the
/// algorithm is allowed to vary by schedule. `(u64, u64)` has no padding,
/// so `==` on the sorted vec is byte equality of the canonical encoding.
fn canonical(mut out: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    out.sort_unstable();
    out
}

/// Group sizes per key, independent of group order and intra-group order.
fn group_sizes(out: &[(u64, u64)]) -> HashMap<u64, usize> {
    runs_by(out, |r| r.0)
        .into_iter()
        .map(|(k, _start, len)| (k, len))
        .collect()
}

/// Semisort `records` through the Phase 3 named `strategy`.
fn semisort(records: &[(u64, u64)], strategy: &str) -> Vec<(u64, u64)> {
    match strategy {
        "counting" => try_semisort_pairs(records, &SemisortConfig::default()).unwrap(),
        _ => {
            paper::try_semisort_with_stats(records, &PaperConfig::default())
                .unwrap()
                .0
        }
    }
}

fn check(dist: &str, strategy: &str) {
    let records = workload(dist, N);
    let baseline_canonical = canonical(baselines::seq_hash_semisort(&records));
    let mut key_sequences: Vec<(usize, Vec<u64>)> = Vec::new();
    for threads in THREAD_COUNTS {
        let out = parlay::with_threads(threads, || semisort(&records, strategy));
        assert!(
            is_semisorted_by(&out, |r| r.0),
            "{dist}/{strategy}/threads={threads}: output not semisorted"
        );
        assert_eq!(
            group_sizes(&out),
            group_sizes(&baseline_canonical),
            "{dist}/{strategy}/threads={threads}: group structure differs from baseline"
        );
        assert_eq!(
            canonical(out.clone()),
            baseline_canonical,
            "{dist}/{strategy}/threads={threads}: canonical bytes differ from sequential baseline"
        );
        key_sequences.push((threads, out.into_iter().map(|r| r.0).collect()));
    }
    // The key sequence (group layout) is decided by the seed, not the
    // schedule: every thread count must produce the same one.
    let (t0, reference) = &key_sequences[0];
    for (t, seq) in &key_sequences[1..] {
        assert_eq!(
            seq, reference,
            "{dist}/{strategy}: key sequence at threads={t} differs from threads={t0}"
        );
    }
}

#[test]
fn uniform_random_cas_thread_invariant() {
    check("uniform", "random-cas");
}

#[test]
fn uniform_counting_thread_invariant() {
    check("uniform", "counting");
}

#[test]
fn power_law_random_cas_thread_invariant() {
    check("power-law", "random-cas");
}

#[test]
fn power_law_counting_thread_invariant() {
    check("power-law", "counting");
}

#[test]
fn all_equal_random_cas_thread_invariant() {
    check("all-equal", "random-cas");
}

#[test]
fn all_equal_counting_thread_invariant() {
    check("all-equal", "counting");
}

#[test]
fn all_distinct_random_cas_thread_invariant() {
    check("all-distinct", "random-cas");
}

#[test]
fn all_distinct_counting_thread_invariant() {
    check("all-distinct", "counting");
}

#[test]
fn counting_sort_pairs_is_byte_identical_across_threads_and_engines() {
    // The exact distribution's output is a function of (input, seed) alone: the same
    // bytes at 1, 2 and 8 threads, from a fresh engine and from a warm
    // one whose pool already holds another input's scratch. Heavy regions
    // keep input order too, which no other backend promised.
    let cfg = SemisortConfig::builder().seed(11).build().unwrap();
    for dist in ["uniform", "power-law", "all-equal"] {
        let records = workload(dist, N);
        let reference = parlay::with_threads(1, || {
            Semisorter::new(cfg).unwrap().sort_pairs(&records).unwrap()
        });
        for threads in THREAD_COUNTS {
            let (fresh, warm) = parlay::with_threads(threads, || {
                let fresh = Semisorter::new(cfg).unwrap().sort_pairs(&records).unwrap();
                let mut engine = Semisorter::new(cfg).unwrap();
                engine.sort_pairs(&workload("all-distinct", N / 2)).unwrap();
                engine.sort_pairs(&records).unwrap();
                (fresh, engine.sort_pairs(&records).unwrap())
            });
            assert!(
                fresh == reference,
                "{dist}: fresh engine at threads={threads}"
            );
            assert!(
                warm == reference,
                "{dist}: warm engine at threads={threads}"
            );
        }
    }
}

#[test]
fn tracing_does_not_change_output() {
    // Scheduler tracing is pure observation: the same seeded run must
    // produce the same bytes with event capture on and off. At threads=1
    // the algorithm is fully deterministic, so this is exact byte
    // equality, not just canonical equality; at threads=2 the canonical
    // form and key sequence must still match.
    let records = workload("power-law", N);
    let cfg = SemisortConfig::default();

    let quiet = parlay::with_threads(1, || try_semisort_pairs(&records, &cfg).unwrap());
    rayon::trace::set_events_enabled(true);
    let traced = parlay::with_threads(1, || try_semisort_pairs(&records, &cfg).unwrap());
    let traced_par = parlay::with_threads(2, || try_semisort_pairs(&records, &cfg).unwrap());
    rayon::trace::set_events_enabled(false);

    assert_eq!(traced, quiet, "tracing changed single-thread output bytes");
    assert_eq!(canonical(traced_par.clone()), canonical(quiet.clone()));
    assert_eq!(
        traced_par.iter().map(|r| r.0).collect::<Vec<_>>(),
        quiet.iter().map(|r| r.0).collect::<Vec<_>>(),
        "tracing at threads=2 changed the key sequence"
    );
}

#[test]
fn join_nest_deeper_than_pool_size() {
    // 2^16 leaf tasks on a 2-thread pool: lazy splitting must absorb the
    // whole recursion as deque pushes/pops (the spawn-per-join shim this
    // scheduler replaced would have needed a budget to survive this).
    fn rec(d: u32) -> u64 {
        if d == 0 {
            return 1;
        }
        let (a, b) = rayon::join(|| rec(d - 1), || rec(d - 1));
        a + b
    }
    let total = parlay::with_threads(2, || rec(16));
    assert_eq!(total, 1 << 16);
}

#[test]
fn linear_join_nest_overflows_deque_gracefully() {
    // Each frame's `b` job stays queued while its `a` arm forks deeper, so
    // 1500 frames exceed the deque's 1024-slot ring: past that, `push`
    // rejects the job and `join` must degrade to inline execution rather
    // than abort, reallocate, or lose a task.
    fn nest(d: u32) -> u64 {
        if d == 0 {
            return 0;
        }
        let (a, b) = rayon::join(|| nest(d - 1), || 1u64);
        a + b
    }
    let depth = 1_500u32;
    let total = parlay::with_threads(2, || nest(depth));
    assert_eq!(total, u64::from(depth));
}

#[test]
fn semisort_inside_nested_joins() {
    // The scheduler must cope with a real workload launched from inside an
    // already-deep join spine on a small pool (worker deques partly full).
    let records = workload("uniform", 20_000);
    let baseline_canonical = canonical(baselines::seq_hash_semisort(&records));
    fn descend<F: FnOnce() -> Vec<(u64, u64)> + Send>(d: u32, f: F) -> Vec<(u64, u64)> {
        if d == 0 {
            return f();
        }
        let (out, _) = rayon::join(move || descend(d - 1, f), || std::hint::black_box(17u64));
        out
    }
    let out = parlay::with_threads(2, || {
        descend(64, || {
            try_semisort_pairs(&records, &SemisortConfig::default()).unwrap()
        })
    });
    assert_eq!(canonical(out), baseline_canonical);
}
