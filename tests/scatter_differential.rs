//! Differential tests of the two scatter strategies.
//!
//! For every workload shape (uniform, power-law, all-equal, all-distinct)
//! and sizes 10³ / 10⁵ / 10⁶, both `ScatterStrategy::Counting` and
//! `::RandomCas` must produce a valid semisort whose
//! canonical bytes (records sorted by key then payload — the unique
//! representative of the output's multiset) are identical to the trivially
//! correct sequential baseline ([`baselines::seq_hash_semisort`]), with
//! identical per-key group sizes.
//!
//! A thread matrix (1 / 2 / 8 workers) then pins two stronger properties:
//! the canonical bytes stay baseline-identical at every thread count, and
//! each strategy's output *key sequence* is thread-count invariant (bucket
//! regions are deterministic; light regions are sorted by key).

use std::collections::HashMap;

use semisort::verify::{is_semisorted_by, runs_by};
use semisort::{try_semisort_pairs, ScatterConfig, ScatterStrategy, SemisortConfig};
use workloads::{generate, Distribution};

const SIZES: [usize; 3] = [1_000, 100_000, 1_000_000];
const DISTS: [&str; 4] = ["uniform", "power-law", "all-equal", "all-distinct"];
const STRATEGIES: [ScatterStrategy; 2] = [ScatterStrategy::Counting, ScatterStrategy::RandomCas];

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

fn cfg_for(strategy: ScatterStrategy) -> SemisortConfig {
    SemisortConfig {
        scatter: ScatterConfig {
            strategy,
            ..ScatterConfig::default()
        },
        ..Default::default()
    }
}

/// The unique canonical representative of a record multiset: sorted by key
/// then payload. Two outputs are multiset-equal iff their canonical forms
/// are byte-identical — `assert_eq!` on these IS the byte comparison.
fn canonical(out: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut c = out.to_vec();
    c.sort_unstable();
    c
}

/// Group sizes per key, independent of group order and intra-group order.
fn group_sizes(out: &[(u64, u64)]) -> HashMap<u64, usize> {
    runs_by(out, |r| r.0)
        .into_iter()
        .map(|(k, _start, len)| (k, len))
        .collect()
}

fn check_against_baseline(out: &[(u64, u64)], baseline: &[(u64, u64)], ctx: &str) {
    assert!(is_semisorted_by(out, |r| r.0), "{ctx}: not semisorted");
    assert_eq!(
        canonical(out),
        canonical(baseline),
        "{ctx}: canonical bytes differ from seq_hash"
    );
    assert_eq!(
        group_sizes(out),
        group_sizes(baseline),
        "{ctx}: group structure differs from seq_hash"
    );
}

fn check_strategy(dist: &str, strategy: ScatterStrategy) {
    let cfg = cfg_for(strategy);
    for n in SIZES {
        let records = workload(dist, n);
        let out = try_semisort_pairs(&records, &cfg).unwrap();
        let baseline = baselines::seq_hash_semisort(&records);
        check_against_baseline(&out, &baseline, &format!("{dist}/{strategy:?}/n={n}"));
    }
}

#[test]
fn uniform_random_cas() {
    check_strategy("uniform", ScatterStrategy::RandomCas);
}

#[test]
fn uniform_counting() {
    check_strategy("uniform", ScatterStrategy::Counting);
}

#[test]
fn power_law_random_cas() {
    check_strategy("power-law", ScatterStrategy::RandomCas);
}

#[test]
fn power_law_counting() {
    check_strategy("power-law", ScatterStrategy::Counting);
}

#[test]
fn all_equal_random_cas() {
    check_strategy("all-equal", ScatterStrategy::RandomCas);
}

#[test]
fn all_equal_counting() {
    check_strategy("all-equal", ScatterStrategy::Counting);
}

#[test]
fn all_distinct_random_cas() {
    check_strategy("all-distinct", ScatterStrategy::RandomCas);
}

#[test]
fn all_distinct_counting() {
    check_strategy("all-distinct", ScatterStrategy::Counting);
}

/// The full strategy × distribution × thread-count matrix: canonical bytes
/// match the sequential baseline at 1, 2, and 8 workers, and each
/// strategy's key sequence is identical at every thread count (the output
/// *layout* is deterministic even though payload order within a group is
/// scheduling-dependent).
#[test]
fn thread_matrix_matches_baseline() {
    const N: usize = 60_000;
    for dist in DISTS {
        let records = workload(dist, N);
        let baseline = baselines::seq_hash_semisort(&records);
        for strategy in STRATEGIES {
            let cfg = cfg_for(strategy);
            let mut key_seq: Option<Vec<u64>> = None;
            for threads in [1usize, 2, 8] {
                let out =
                    parlay::with_threads(threads, || try_semisort_pairs(&records, &cfg).unwrap());
                check_against_baseline(
                    &out,
                    &baseline,
                    &format!("{dist}/{strategy:?}/threads={threads}"),
                );
                let keys: Vec<u64> = out.iter().map(|r| r.0).collect();
                match &key_seq {
                    None => key_seq = Some(keys),
                    Some(want) => assert_eq!(
                        want, &keys,
                        "{dist}/{strategy:?}: key sequence varies with thread count"
                    ),
                }
            }
        }
    }
}

/// Beyond both matching the baseline: the two strategies' outputs are
/// multiset-equal with identical group structure under a
/// non-default seed.
#[test]
fn strategies_agree_with_each_other() {
    for dist in DISTS {
        for n in [1_000usize, 100_000] {
            let records = workload(dist, n);
            let outs: Vec<Vec<(u64, u64)>> = STRATEGIES
                .iter()
                .map(|&strategy| {
                    let cfg = SemisortConfig {
                        scatter: ScatterConfig {
                            strategy,
                            ..ScatterConfig::default()
                        },
                        ..SemisortConfig::default().with_seed(0xd1ff)
                    };
                    try_semisort_pairs(&records, &cfg).unwrap()
                })
                .collect();
            for pair in outs.windows(2) {
                assert_eq!(canonical(&pair[0]), canonical(&pair[1]), "{dist}/n={n}");
                assert_eq!(group_sizes(&pair[0]), group_sizes(&pair[1]), "{dist}/n={n}");
            }
        }
    }
}
