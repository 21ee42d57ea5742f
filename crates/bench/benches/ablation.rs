//! Criterion ablations of the §4 design choices (see also the `ablation`
//! harness binary, which prints a paper-style sweep table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use semisort::{
    paper, try_semisort_pairs, LocalSortAlgo, PaperConfig, ProbeStrategy, SemisortConfig,
};
use workloads::{generate, Distribution};

const N: usize = 500_000;

/// The paper run of `base` with its shared settings changed by `f`.
fn with_base(base: PaperConfig, f: impl FnOnce(&mut SemisortConfig)) -> PaperConfig {
    let mut cfg = base;
    f(&mut cfg.base);
    cfg
}

fn bench_ablation(c: &mut Criterion) {
    let records = generate(Distribution::Zipfian { m: 1_000_000 }, N, 1);
    // The paper's algorithm: every variant below is ablated against it.
    let base = PaperConfig::default();
    let mut g = c.benchmark_group("ablation_zipf_500k");
    g.throughput(Throughput::Elements(N as u64));

    let variants: Vec<(&str, PaperConfig)> = vec![
        ("default", base),
        (
            "no_merge",
            with_base(base, |b| b.merge_light_buckets = false),
        ),
        (
            "random_probe",
            PaperConfig {
                probe_strategy: ProbeStrategy::Random,
                ..base
            },
        ),
        ("delta_4", with_base(base, |b| b.heavy_threshold = 4)),
        ("delta_64", with_base(base, |b| b.heavy_threshold = 64)),
        ("p_1_4", with_base(base, |b| b.sample_shift = 2)),
        ("p_1_64", with_base(base, |b| b.sample_shift = 6)),
        (
            "local_counting",
            PaperConfig {
                local_sort_algo: LocalSortAlgo::Counting,
                ..base
            },
        ),
        (
            "prefetch_off",
            PaperConfig {
                prefetch_distance: 0,
                ..base
            },
        ),
    ];
    for (name, cfg) in variants {
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| paper::try_semisort_with_stats(&records, cfg).unwrap())
        });
    }
    g.bench_with_input(
        BenchmarkId::from_parameter("counting_distribution"),
        &base.base,
        |b, cfg| b.iter(|| try_semisort_pairs(&records, cfg).unwrap()),
    );
    g.finish();
}

/// The paper's CAS scatter vs the engine's exact distribution on the three
/// shapes that stress the scatter differently: all-light uniform,
/// power-law (Zipfian), and all-equal.
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
        g.bench_function(BenchmarkId::new(dist_name, "random-cas"), |b| {
            b.iter(|| paper::try_semisort_with_stats(&records, &PaperConfig::default()).unwrap())
        });
        g.bench_function(BenchmarkId::new(dist_name, "counting"), |b| {
            b.iter(|| try_semisort_pairs(&records, &SemisortConfig::default()).unwrap())
        });
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
