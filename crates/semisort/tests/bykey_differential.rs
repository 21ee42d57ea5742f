//! Differential suite for the by-key methods.
//!
//! All seven by-key methods — `count_by_key`, `reduce_by_key`,
//! `sort_by_key`, `stable_by_key`, `permutation`, `in_place` and
//! `group_by` — are checked against a sequential `HashMap` reference
//! across key distributions, thread counts, input sizes on both sides of
//! the sequential cutoff, engine settings that must not change the
//! output, and seeds, which key the hash and so may reorder the groups but
//! never change them. A key type whose `Hash` maps many keys to one hash drives the
//! exact collision regroup through heavy regions, light regions and the
//! sequential path. Every input's payload is its input index, which pins
//! the input-order contract: each group of every arrangement, and each
//! group a reduction folds, comes out in input order.

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

/// Check that `out` arranges `items` (payload = input index) into exactly
/// the reference's groups, each contiguous and in input order, cut by
/// `starts`.
fn check_arrangement<K>(
    items: &[(K, u64)],
    out: &[(K, u64)],
    starts: &[usize],
    want: &HashMap<K, (usize, u64)>,
    label: &str,
) where
    K: Hash + Eq + Clone + std::fmt::Debug,
{
    assert_eq!(out.len(), items.len(), "{label}: length");
    assert_eq!(starts.first(), Some(&0), "{label}: first start");
    assert_eq!(starts.last(), Some(&out.len()), "{label}: last start");
    assert_eq!(starts.len() - 1, want.len(), "{label}: one group per key");
    let mut seen = vec![false; items.len()];
    for w in starts.windows(2) {
        let group = &out[w[0]..w[1]];
        assert!(!group.is_empty(), "{label}: empty group");
        let k = &group[0].0;
        assert_eq!(
            want.get(k).map(|g| g.0),
            Some(group.len()),
            "{label}: size of {k:?}"
        );
        for (j, r) in group.iter().enumerate() {
            assert_eq!(&r.0, k, "{label}: group of {k:?} holds {:?}", r.0);
            assert_eq!(
                items[r.1 as usize].0, r.0,
                "{label}: record moved off its key"
            );
            assert!(
                !std::mem::replace(&mut seen[r.1 as usize], true),
                "{label}: record twice"
            );
            assert!(
                j == 0 || group[j - 1].1 < r.1,
                "{label}: {k:?} out of input order"
            );
        }
    }
}

/// Everything the seven methods returned for one input, compared across
/// thread counts and settings.
#[derive(Debug, PartialEq)]
struct Outputs<K> {
    counts: Vec<(K, usize)>,
    sums: Vec<(K, (usize, u64))>,
    sorted: Vec<(K, u64)>,
    starts: Vec<usize>,
}

/// Run all seven by-key methods on `items` with `cfg` and check them
/// against the reference and each other.
fn check<K>(items: &[(K, u64)], cfg: SemisortConfig, label: &str) -> Outputs<K>
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

    let groups = engine.group_by(items, |r| r.0.clone()).unwrap();
    check_arrangement(items, &groups.items, &groups.starts, &want, label);
    let sorted = engine.sort_by_key(items, |r| r.0.clone()).unwrap();
    assert_eq!(sorted, groups.items, "{label}: sort_by_key vs group_by");
    let stable = engine.stable_by_key(items, |r| r.0.clone()).unwrap();
    assert_eq!(stable, sorted, "{label}: stable_by_key vs sort_by_key");
    let perm = engine.permutation(items, |r| r.0.clone()).unwrap();
    let gathered: Vec<(K, u64)> = perm.iter().map(|&i| items[i].clone()).collect();
    assert_eq!(gathered, sorted, "{label}: permutation vs sort_by_key");
    let mut moved = items.to_vec();
    engine.in_place(&mut moved, |r| r.0.clone()).unwrap();
    assert_eq!(moved, sorted, "{label}: in_place vs sort_by_key");

    Outputs {
        counts,
        sums,
        sorted,
        starts: groups.starts,
    }
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
    // Telemetry observes a run; it may not change what it returns.
    let n = 100_000;
    for (name, dist) in distributions(n) {
        let items = generate(dist, n, SEED);
        let outputs: Vec<_> = [cfg(), cfg().with_telemetry(TelemetryLevel::Deep)]
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
            let mut first = None;
            for threads in [1, 2, 8] {
                let label = format!("{path} distinct={distinct} threads={threads}");
                let out = parlay::with_threads(threads, || check(&items, cfg, &label));
                match &first {
                    None => first = Some(out),
                    Some(f) => assert_eq!(&out, f, "{label}: output differs across threads"),
                }
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

/// The groups of an arrangement as sorted lists of input indices, sorted.
fn index_groups<K>(out: &Outputs<K>) -> Vec<Vec<u64>> {
    let mut groups: Vec<Vec<u64>> = out
        .starts
        .windows(2)
        .map(|w| {
            let mut g: Vec<u64> = out.sorted[w[0]..w[1]].iter().map(|r| r.1).collect();
            g.sort_unstable();
            g
        })
        .collect();
    groups.sort_unstable();
    groups
}

/// Run [`check`] on `items` under `cfg` at 1, 2 and 8 threads, asserting
/// byte-identical outputs, and return them.
fn check_threads<K>(items: &[(K, u64)], cfg: SemisortConfig, label: &str) -> Outputs<K>
where
    K: Hash + Eq + Clone + Send + Sync + std::fmt::Debug,
{
    let mut first = None;
    for threads in [1, 2, 8] {
        let label = format!("{label} threads={threads}");
        let out = parlay::with_threads(threads, || check(items, cfg, &label));
        match &first {
            None => first = Some(out),
            Some(f) => assert_eq!(&out, f, "{label}: output differs across threads"),
        }
    }
    first.expect("three thread counts ran")
}

/// Under two seeds, the same groups as multisets.
fn assert_same_groups<K>(a: Outputs<K>, b: Outputs<K>, label: &str)
where
    K: Hash + Eq + std::fmt::Debug,
{
    assert_eq!(index_groups(&a), index_groups(&b), "{label}: groups");
    assert_eq!(to_map(a.counts), to_map(b.counts), "{label}: counts");
    assert_eq!(to_map(a.sums), to_map(b.sums), "{label}: folds");
}

#[test]
fn seeds_reorder_groups_but_never_change_them() {
    // The seed keys the hash, so it may move the groups around; it may not
    // change what any group holds. For one seed the output is the same
    // bytes at every thread count.
    let seeds = [cfg(), cfg().with_seed(0xb0b5)];
    let n = 100_000;
    for (name, dist) in distributions(n) {
        let items = generate(dist, n, SEED);
        let [a, b] = seeds.map(|cfg| check_threads(&items, cfg, &format!("{name} {}", cfg.seed)));
        if name == "uniform" {
            assert_ne!(
                a.sorted, b.sorted,
                "{name}: the seed should reach the key hash"
            );
        }
        assert_same_groups(a, b, name);
    }
    let items = colliding_items(n, 50);
    let [a, b] = seeds.map(|cfg| check_threads(&items, cfg, &format!("colliding {}", cfg.seed)));
    assert_same_groups(a, b, "colliding");

    // The one-shots hash with the caller's seed too.
    let items = generate(Distribution::Uniform { n: 5_000 }, 20_000, SEED);
    for cfg in seeds {
        let one_shot = try_group_by(&items, |r| r.0, &cfg).unwrap();
        let pooled = Semisorter::new(cfg)
            .unwrap()
            .group_by(&items, |r| r.0)
            .unwrap();
        assert_eq!(one_shot.items, pooled.items, "seed {:#x}", cfg.seed);
    }
}
