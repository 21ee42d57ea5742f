//! Long-running soak tests — `#[ignore]`d by default; run with
//! `cargo test --release -- --ignored` when you want hours of confidence
//! instead of seconds.

use semisort::verify::{is_permutation_of, is_semisorted_by};
use semisort::{try_semisort_pairs, SemisortConfig};
use workloads::{generate, paper_distributions, Arrangement};

#[test]
#[ignore = "soak: hundreds of full runs; invoke explicitly"]
fn soak_many_seeds_every_distribution() {
    for pd in paper_distributions() {
        for seed in 0..12u64 {
            let records = generate(pd.dist, 200_000, seed);
            let cfg = SemisortConfig::default().with_seed(seed * 7 + 1);
            let out = try_semisort_pairs(&records, &cfg).unwrap();
            assert!(
                is_semisorted_by(&out, |r| r.0),
                "{} seed {seed}",
                pd.dist.label()
            );
            assert!(is_permutation_of(&out, &records));
        }
    }
}

#[test]
#[ignore = "soak: large single run near memory limits"]
fn soak_large_single_run() {
    let n = 20_000_000;
    let records = generate(workloads::Distribution::Zipfian { m: n as u64 }, n, 1);
    let out = try_semisort_pairs(&records, &SemisortConfig::default()).unwrap();
    assert_eq!(out.len(), n);
    assert!(is_semisorted_by(&out, |r| r.0));
}

#[test]
#[ignore = "soak: full distribution × arrangement × config grid"]
fn soak_configuration_grid() {
    use semisort::{paper, LocalSortAlgo, PaperConfig, ProbeStrategy};
    let dists = paper_distributions();
    for pd in dists.iter().step_by(3) {
        let base = generate(pd.dist, 100_000, 3);
        for arr in Arrangement::all() {
            let mut input = base.clone();
            arr.apply(&mut input, 9);
            for probe in [ProbeStrategy::Linear, ProbeStrategy::Random] {
                for algo in [
                    LocalSortAlgo::StdUnstable,
                    LocalSortAlgo::StdStable,
                    LocalSortAlgo::Counting,
                ] {
                    let cfg = PaperConfig {
                        probe_strategy: probe,
                        local_sort_algo: algo,
                        ..Default::default()
                    };
                    let (out, _) = paper::try_semisort_with_stats(&input, &cfg).unwrap();
                    assert!(
                        is_semisorted_by(&out, |r| r.0),
                        "{} {arr:?} {probe:?} {algo:?}",
                        pd.dist.label()
                    );
                    assert!(is_permutation_of(&out, &input));
                }
            }
        }
    }
}
