//! Differential suite for the fused by-key reductions.
//!
//! `count_by_key` and `reduce_by_key` are checked against a sequential
//! `HashMap` reference across key distributions, thread counts, input
//! sizes on both sides of the sequential cutoff, and the engine settings
//! the fused path ignores. A key type whose `Hash` maps
//! many keys to one hash drives the exact collision regroup through heavy
//! regions, light regions and the sequential path. A fold that records
//! input indices pins the input-order contract.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use semisort::prelude::*;
use workloads::{generate, Distribution};

const SEED: u64 = 0xd1ff;

fn cfg() -> SemisortConfig {
    SemisortConfig::default()
}

fn sizes() -> [usize; 5] {
    let t = cfg().seq_threshold;
    [0, 1, t, t + 1, 100_000]
}

fn distributions(n: usize) -> [(&'static str, Distribution); 4] {
    let n = n.max(1) as u64;
    [
        ("uniform", Distribution::Uniform { n: n / 10 + 1 }),
        ("zipfian", Distribution::Zipfian { m: n / 5 + 1 }),
        (
            "exponential",
            Distribution::Exponential {
                lambda: n as f64 / 1000.0 + 1.0,
            },
        ),
        ("all-equal", Distribution::Uniform { n: 1 }),
    ]
}

/// Per key: (count, wrapping sum of payloads).
fn reference<K: Hash + Eq + Clone>(items: &[(K, u64)]) -> HashMap<K, (usize, u64)> {
    let mut m: HashMap<K, (usize, u64)> = HashMap::new();
    for (k, v) in items {
        let e = m.entry(k.clone()).or_default();
        e.0 += 1;
        e.1 = e.1.wrapping_add(*v);
    }
    m
}

/// Collect `(key, value)` output into a map, failing on a repeated key.
fn to_map<K: Hash + Eq + std::fmt::Debug, V>(out: Vec<(K, V)>) -> HashMap<K, V> {
    let len = out.len();
    let m: HashMap<K, V> = out.into_iter().collect();
    assert_eq!(m.len(), len, "a key came back in more than one group");
    m
}

/// Run both reductions on `items` with `cfg` and check them against the
/// reference; returns both outputs for cross-run comparisons.
#[allow(clippy::type_complexity)]
fn check<K>(
    items: &[(K, u64)],
    cfg: SemisortConfig,
    label: &str,
) -> (Vec<(K, usize)>, Vec<(K, (usize, u64))>)
where
    K: Hash + Eq + Clone + Send + Sync + std::fmt::Debug,
{
    let want = reference(items);
    let mut engine = Semisorter::new(cfg).unwrap();
    let counts = engine.count_by_key(items, |r| r.0.clone()).unwrap();
    let sums = engine
        .reduce_by_key(
            items,
            |r| r.0.clone(),
            (0usize, 0u64),
            |(c, s), r| (c + 1, s.wrapping_add(r.1)),
        )
        .unwrap();
    let got_counts = to_map(counts.clone());
    let got_sums = to_map(sums.clone());
    assert_eq!(got_counts.len(), want.len(), "{label}: distinct keys");
    for (k, &(c, s)) in &want {
        assert_eq!(got_counts.get(k), Some(&c), "{label}: count of {k:?}");
        assert_eq!(got_sums.get(k), Some(&(c, s)), "{label}: fold of {k:?}");
    }
    (counts, sums)
}

#[test]
fn matches_hashmap_reference() {
    for n in sizes() {
        for (name, dist) in distributions(n) {
            let items = generate(dist, n, SEED);
            let mut first = None;
            for threads in [1, 2, 8] {
                let label = format!("{name} n={n} threads={threads}");
                let out = parlay::with_threads(threads, || check(&items, cfg(), &label));
                // Same input, config and seed: the same output, in the
                // same order, at every thread count.
                match &first {
                    None => first = Some(out),
                    Some(f) => assert_eq!(&out, f, "{label}: output differs across threads"),
                }
            }
        }
    }
}

#[test]
fn ignored_settings_do_not_change_output() {
    // The regions are folded, not sorted by `local_sort_algo`, and the
    // fused path collects no distribution counters.
    let n = 100_000;
    for (name, dist) in distributions(n) {
        let items = generate(dist, n, SEED);
        let outputs: Vec<_> = [
            cfg(),
            SemisortConfig {
                local_sort_algo: LocalSortAlgo::Counting,
                ..cfg()
            },
            cfg().with_telemetry(TelemetryLevel::Deep),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, cfg)| {
            let label = format!("{name} config {i}");
            parlay::with_threads(2, || check(&items, cfg, &label))
        })
        .collect();
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "{name}: an ignored setting changed the output"
        );
    }
}

/// A key whose hash sees only `self.0 % 3`: distinct keys share one of
/// three 64-bit hashes, so every hash run mixes many keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Colliding(u32);

impl Hash for Colliding {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.0 % 3).hash(state);
    }
}

fn colliding_items(n: usize, distinct: u32) -> Vec<(Colliding, u64)> {
    (0..n as u64)
        .map(|i| {
            let k = (parlay::hash64(i ^ SEED) % u64::from(distinct)) as u32;
            (Colliding(k), i)
        })
        .collect()
}

#[test]
fn colliding_keys_regroup_exactly() {
    // Three hashes over 10⁵ records: each one is heavy under the default
    // config. With heavy keys disabled and unmerged light buckets, the same
    // runs land in light regions instead. Small n takes the sequential
    // path.
    let light_only = SemisortConfig {
        heavy_threshold: usize::MAX,
        merge_light_buckets: false,
        ..cfg()
    };
    for (n, cfg, path) in [
        (100_000, cfg(), "heavy"),
        (100_000, light_only, "light"),
        (cfg().seq_threshold, cfg(), "sequential"),
    ] {
        for distinct in [2u32, 50, 300] {
            let items = colliding_items(n, distinct);
            for threads in [1, 2] {
                let label = format!("{path} distinct={distinct} threads={threads}");
                parlay::with_threads(threads, || check(&items, cfg, &label));
            }
        }
        let mut engine = Semisorter::new(cfg).unwrap();
        engine
            .count_by_key(&colliding_items(n, 3), |r| r.0)
            .unwrap();
        let st = engine.last_stats();
        match path {
            "heavy" => assert_eq!(st.heavy_records, n, "{path}: every run heavy"),
            _ => assert_eq!(st.light_records, n, "{path}: every run light"),
        }
    }
}

#[test]
fn groups_fold_in_input_order() {
    let n = 100_000;
    let light_only = SemisortConfig {
        heavy_threshold: usize::MAX,
        merge_light_buckets: false,
        ..cfg()
    };
    let append = |mut seen: Vec<u64>, r: &(u64, u64)| {
        seen.push(r.1);
        seen
    };
    for (name, dist) in distributions(n) {
        let items = generate(dist, n, SEED);
        for threads in [2, 8] {
            let groups = parlay::with_threads(threads, || {
                Semisorter::new(cfg())
                    .unwrap()
                    .reduce_by_key(&items, |r| r.0, Vec::new(), append)
                    .unwrap()
            });
            assert_eq!(groups.iter().map(|g| g.1.len()).sum::<usize>(), n);
            for (k, seen) in &groups {
                assert!(
                    seen.windows(2).all(|w| w[0] < w[1]),
                    "{name} threads={threads}: key {k:#x} folded out of input order"
                );
            }
        }
    }
    for cfg in [cfg(), light_only] {
        let items = colliding_items(n, 300);
        let groups = Semisorter::new(cfg)
            .unwrap()
            .reduce_by_key(
                &items,
                |r| r.0,
                Vec::new(),
                |mut seen, r| {
                    seen.push(r.1);
                    seen
                },
            )
            .unwrap();
        assert_eq!(groups.len(), 300);
        for (k, seen) in &groups {
            assert!(seen.iter().all(|&i| items[i as usize].0 == *k));
            assert!(
                seen.windows(2).all(|w| w[0] < w[1]),
                "colliding key {k:?} folded out of input order"
            );
        }
    }
}
