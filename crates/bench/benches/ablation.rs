//! Criterion ablations of the §4 design choices (see also the `ablation`
//! harness binary, which prints a paper-style sweep table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use semisort::{
    try_semisort_pairs, LocalSortAlgo, ProbeStrategy, ScatterConfig, ScatterStrategy,
    SemisortConfig,
};
use workloads::{generate, Distribution};

const N: usize = 500_000;

fn bench_ablation(c: &mut Criterion) {
    let records = generate(Distribution::Zipfian { m: 1_000_000 }, N, 1);
    // The paper's algorithm: every variant below is ablated against it.
    let base = SemisortConfig {
        scatter: ScatterConfig {
            strategy: ScatterStrategy::RandomCas,
            ..ScatterConfig::default()
        },
        ..SemisortConfig::default()
    };
    let mut g = c.benchmark_group("ablation_zipf_500k");
    g.throughput(Throughput::Elements(N as u64));

    let variants: Vec<(&str, SemisortConfig)> = vec![
        ("default", base),
        (
            "no_merge",
            SemisortConfig {
                merge_light_buckets: false,
                ..base
            },
        ),
        (
            "random_probe",
            SemisortConfig {
                probe_strategy: ProbeStrategy::Random,
                ..base
            },
        ),
        (
            "delta_4",
            SemisortConfig {
                heavy_threshold: 4,
                ..base
            },
        ),
        (
            "delta_64",
            SemisortConfig {
                heavy_threshold: 64,
                ..base
            },
        ),
        (
            "p_1_4",
            SemisortConfig {
                sample_shift: 2,
                ..base
            },
        ),
        (
            "p_1_64",
            SemisortConfig {
                sample_shift: 6,
                ..base
            },
        ),
        (
            "local_counting",
            SemisortConfig {
                local_sort_algo: LocalSortAlgo::Counting,
                ..base
            },
        ),
        (
            "counting_distribution",
            SemisortConfig {
                scatter: ScatterConfig {
                    strategy: ScatterStrategy::Counting,
                    ..base.scatter
                },
                ..base
            },
        ),
        (
            "prefetch_off",
            SemisortConfig {
                scatter: ScatterConfig {
                    prefetch_distance: 0,
                    ..base.scatter
                },
                ..base
            },
        ),
    ];
    for (name, cfg) in variants {
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| try_semisort_pairs(&records, cfg).unwrap())
        });
    }
    g.finish();
}

/// RandomCas vs Counting on the three shapes that stress the
/// scatter differently: all-light uniform, power-law (Zipfian), and
/// all-equal.
fn bench_scatter_strategies(c: &mut Criterion) {
    let inputs = [
        ("uniform", Distribution::Uniform { n: N as u64 }),
        ("zipf", Distribution::Zipfian { m: 1_000_000 }),
        ("all_equal", Distribution::Uniform { n: 1 }),
    ];
    let mut g = c.benchmark_group("scatter_strategy_500k");
    g.throughput(Throughput::Elements(N as u64));
    for (dist_name, dist) in inputs {
        let records = generate(dist, N, 1);
        for strategy in [ScatterStrategy::RandomCas, ScatterStrategy::Counting] {
            let cfg = SemisortConfig {
                scatter: ScatterConfig {
                    strategy,
                    ..ScatterConfig::default()
                },
                ..SemisortConfig::default()
            };
            g.bench_with_input(
                BenchmarkId::new(dist_name, strategy.as_str()),
                &cfg,
                |b, cfg| b.iter(|| try_semisort_pairs(&records, cfg).unwrap()),
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_ablation, bench_scatter_strategies
}
criterion_main!(benches);
