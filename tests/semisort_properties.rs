//! Property-based tests of the semisort's core invariants.
//!
//! For *every* input, any configuration: the output is a permutation of the
//! input and equal keys are contiguous. These are the two properties
//! Algorithm 1's correctness argument establishes (§3).

use proptest::prelude::*;
use semisort::verify::{is_permutation_of, is_semisorted_by};
use semisort::{
    paper, try_semisort_pairs, try_semisort_with_stats, LocalSortAlgo, PaperConfig, ProbeStrategy,
    SemisortConfig, SemisortStats,
};

/// A config that exercises the parallel machinery even on small inputs.
fn small_cfg() -> SemisortConfig {
    SemisortConfig {
        seq_threshold: 32,
        ..Default::default()
    }
}

/// Semisort `recs` through the paper's CAS scatter (`cas`) on all of `cfg`,
/// or through the engine's exact distribution on `cfg.base`.
fn run(recs: &[(u64, u64)], cas: bool, cfg: &PaperConfig) -> (Vec<(u64, u64)>, SemisortStats) {
    if cas {
        paper::try_semisort_with_stats(recs, cfg).unwrap()
    } else {
        try_semisort_with_stats(recs, &cfg.base).unwrap()
    }
}

fn arb_records(max_len: usize, key_space: u64) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..key_space, any::<u64>()), 0..max_len)
        .prop_map(|v| v.into_iter().map(|(k, p)| (parlay::hash64(k), p)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn semisorted_and_permutation_small_keyspace(recs in arb_records(2000, 10)) {
        let out = try_semisort_pairs(&recs, &small_cfg()).unwrap();
        prop_assert!(is_semisorted_by(&out, |r| r.0));
        prop_assert!(is_permutation_of(&out, &recs));
    }

    #[test]
    fn semisorted_and_permutation_large_keyspace(recs in arb_records(2000, 1_000_000)) {
        let out = try_semisort_pairs(&recs, &small_cfg()).unwrap();
        prop_assert!(is_semisorted_by(&out, |r| r.0));
        prop_assert!(is_permutation_of(&out, &recs));
    }

    #[test]
    fn raw_unhashed_keys_still_work(recs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..1500)) {
        // The driver requires *uniform* keys only for its probabilistic size
        // bounds; correctness must hold for adversarial (non-uniform) keys
        // too, via retries if need be.
        let out = try_semisort_pairs(&recs, &small_cfg()).unwrap();
        prop_assert!(is_semisorted_by(&out, |r| r.0));
        prop_assert!(is_permutation_of(&out, &recs));
    }

    #[test]
    fn every_probe_strategy_and_local_sort(
        recs in arb_records(1500, 50),
        probe_linear in any::<bool>(),
        algo_idx in 0usize..3,
    ) {
        // Both knobs belong to the paper run: the CAS scatter probes, and
        // its local sort is configurable (the engine's is `sort_unstable`).
        let cfg = PaperConfig {
            probe_strategy: if probe_linear { ProbeStrategy::Linear } else { ProbeStrategy::Random },
            local_sort_algo: [LocalSortAlgo::StdUnstable, LocalSortAlgo::StdStable, LocalSortAlgo::Counting][algo_idx],
            ..PaperConfig::new(small_cfg())
        };
        let (out, _) = paper::try_semisort_with_stats(&recs, &cfg).unwrap();
        prop_assert!(is_semisorted_by(&out, |r| r.0));
        prop_assert!(is_permutation_of(&out, &recs));
    }

    #[test]
    fn config_sweep_keeps_invariants(
        recs in arb_records(1200, 30),
        shift in 1u32..8,
        delta in 2usize..40,
        merge in any::<bool>(),
    ) {
        let cfg = SemisortConfig {
            seq_threshold: 32,
            sample_shift: shift,
            heavy_threshold: delta,
            merge_light_buckets: merge,
            light_bucket_log2: 10,
            ..Default::default()
        };
        let out = try_semisort_pairs(&recs, &cfg).unwrap();
        prop_assert!(is_semisorted_by(&out, |r| r.0));
        prop_assert!(is_permutation_of(&out, &recs));
    }

    #[test]
    fn scatter_strategies_keep_invariants(
        recs in arb_records(1500, 40),
        strat_idx in 0usize..2,
        shift in 2u32..7,
        delta in 4usize..65,
        prefetch_distance in 0usize..65,
    ) {
        // Random configs across the paper's parameter neighbourhood
        // (p = 1/4 … 1/64, δ = 4 … 64), both Phase 3s, and the CAS
        // scatter's prefetch distance (0 … 64).
        let cfg = PaperConfig {
            prefetch_distance,
            ..PaperConfig::new(SemisortConfig {
                sample_shift: shift,
                heavy_threshold: delta,
                ..small_cfg()
            })
        };
        let (out, stats) = run(&recs, strat_idx == 1, &cfg);
        prop_assert!(is_semisorted_by(&out, |r| r.0));
        prop_assert!(is_permutation_of(&out, &recs));
        // Stats invariants: the heavy/light split partitions the input, and
        // whenever the bucket machinery ran, it allocated at least one slot
        // per record (a successful scatter is injective into the arena).
        prop_assert_eq!(stats.heavy_records + stats.light_records, recs.len());
        if stats.total_slots > 0 {
            prop_assert!(stats.total_slots >= recs.len());
        }
    }

    #[test]
    fn sentinel_keys_are_handled(mut recs in arb_records(800, 20), pos in any::<prop::sample::Index>()) {
        // Force the extreme keys into the input: 0 is the paper run's slot
        // sentinel (it takes the fallback there), u64::MAX an ordinary key.
        if !recs.is_empty() {
            let len = recs.len();
            let i = pos.index(len);
            recs[i].0 = 0; // scatter EMPTY
            recs[(i + 1) % len].0 = u64::MAX;
        }
        for cas in [false, true] {
            let (out, _) = run(&recs, cas, &PaperConfig::new(small_cfg()));
            prop_assert!(is_semisorted_by(&out, |r| r.0));
            prop_assert!(is_permutation_of(&out, &recs));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn semisort_by_key_generic_strings(words in prop::collection::vec("[a-c]{1,3}", 0..800)) {
        let out = semisort::try_semisort_by_key(&words, |w| w.clone(), &small_cfg()).unwrap();
        prop_assert!(is_semisorted_by(&out, |w| w.clone()));
        prop_assert!(is_permutation_of(&out, &words));
    }

    #[test]
    fn group_by_groups_cover_input(keys in prop::collection::vec(0u32..50, 0..1000)) {
        let groups = semisort::try_group_by(&keys, |&k| k, &small_cfg()).unwrap();
        let mut total = 0usize;
        let mut seen = std::collections::HashSet::new();
        for g in groups.iter() {
            prop_assert!(!g.is_empty());
            prop_assert!(g.iter().all(|&k| k == g[0]));
            prop_assert!(seen.insert(g[0]), "key {} appears in two groups", g[0]);
            total += g.len();
        }
        prop_assert_eq!(total, keys.len());
    }
}
