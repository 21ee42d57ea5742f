//! **Ablations**: the §4 design choices, measured one knob at a time.
//!
//! - light-bucket merging on/off (paper: merging is worth ≤10%);
//! - linear probing vs fresh-random-slot probing in the scatter (paper:
//!   linear probing chosen for cache performance);
//! - the paper's CAS scatter vs the engine's exact counting-sort
//!   distribution (no arena, no probing, no pack);
//! - the heavy threshold δ;
//! - the sampling rate p = 1/2^shift;
//! - the local sort algorithm (paper: the STL hybrid sort was chosen for
//!   consistency; alternatives performed similarly);
//! - `--reuse`: the [`Semisorter`] engine's pooled scratch vs the one-shot
//!   API — same records, `--reps` consecutive calls each, reporting
//!   per-call wall time and *newly allocated* heap bytes (the engine's
//!   steady-state calls must grow no scratch, verified via
//!   `scratch_grows`).

use bench::alloc_track::{measure_total, TrackingAllocator};
use bench::fmt::{s3, x2, Table};
use bench::timing::time_best_of;
use bench::Args;
use parlay::with_threads;
use semisort::{
    paper, try_semisort_with_stats, LocalSortAlgo, PaperConfig, ProbeStrategy, SemisortConfig,
    SemisortStats, Semisorter,
};
use workloads::{generate, representative_distributions, Distribution};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// One ablation arm: a paper run, or the engine's exact distribution.
#[derive(Clone, Copy)]
enum Arm {
    Paper(PaperConfig),
    Exact(SemisortConfig),
}

impl Arm {
    fn run(self, records: &[(u64, u64)]) -> SemisortStats {
        match self {
            Arm::Paper(cfg) => paper::try_semisort_with_stats(records, &cfg).unwrap().1,
            Arm::Exact(cfg) => try_semisort_with_stats(records, &cfg).unwrap().1,
        }
    }
}

/// The paper run of `cfg` with its shared settings changed by `f`.
fn with_base(cfg: PaperConfig, f: impl FnOnce(&mut SemisortConfig)) -> Arm {
    let mut cfg = cfg;
    f(&mut cfg.base);
    Arm::Paper(cfg)
}

/// The `--reuse` arm: warm engine vs one-shot API, `reps` consecutive
/// calls on the same records. Panics if a steady-state engine call grows
/// its pool — that is the regression this arm exists to catch.
fn reuse_arm(args: &Args) {
    let n = args.n;
    let reps = args.reps.max(2); // need ≥1 steady-state call
    let threads = args.max_threads();
    let cfg = SemisortConfig::default()
        .with_seed(args.seed)
        .with_telemetry(args.telemetry);
    let records = generate(
        Distribution::Zipfian {
            m: (n as u64 / 10).max(1),
        },
        n,
        args.seed,
    );

    println!("Engine reuse: n = {n}, {threads} threads, {reps} consecutive calls\n");
    let mut table = Table::new([
        "call",
        "engine (s)",
        "alloc (MB)",
        "one-shot (s)",
        "alloc (MB)",
    ]);

    let mut engine = Semisorter::new(cfg).expect("valid config");
    let mut wall_engine_steady = 0.0f64;
    let mut wall_oneshot_steady = 0.0f64;
    for call in 0..reps {
        let t = std::time::Instant::now();
        let (out, eng_alloc) = with_threads(threads, || {
            measure_total(|| engine.sort_pairs(&records).unwrap())
        });
        let eng_s = t.elapsed().as_secs_f64();
        assert!(semisort::verify::is_semisorted_by(&out, |r| r.0));
        if call > 0 {
            wall_engine_steady += eng_s;
            assert_eq!(
                engine.last_stats().scratch_grows,
                0,
                "steady-state engine call {call} grew its scratch pool"
            );
        }
        let t = std::time::Instant::now();
        let (_, one_alloc) = with_threads(threads, || {
            measure_total(|| try_semisort_with_stats(&records, &cfg).unwrap())
        });
        let one_s = t.elapsed().as_secs_f64();
        if call > 0 {
            wall_oneshot_steady += one_s;
        }
        let mb = |b: usize| format!("{:.1}", b as f64 / 1e6);
        table.row([
            call.to_string(),
            format!("{eng_s:.3}"),
            mb(eng_alloc),
            format!("{one_s:.3}"),
            mb(one_alloc),
        ]);
    }
    table.print();
    let steady = (reps - 1) as f64;
    println!(
        "\nsteady state (calls 1..{reps}): engine {:.3}s/call, one-shot {:.3}s/call \
         ({:.2}x); engine steady-state scratch_grows = 0 (verified)",
        wall_engine_steady / steady,
        wall_oneshot_steady / steady,
        wall_oneshot_steady / wall_engine_steady.max(1e-12),
    );
    // The trajectory line records the warm engine's final call: its
    // scratch counters are the reuse evidence this arm archives.
    let engine_stats = engine.last_stats().clone();
    let eff = with_threads(threads, bench::trajectory::effective_threads);
    bench::trajectory::emit(
        args,
        "ablation-reuse",
        threads,
        eff,
        wall_engine_steady / steady,
        &engine_stats,
    );
}

fn main() {
    let Some(args) = Args::parse() else { return };
    if args.reuse {
        reuse_arm(&args);
        return;
    }
    let (exp_dist, uni_dist) = representative_distributions(args.n);
    let threads = args.max_threads();

    println!(
        "Ablations: n = {}, {} threads, best of {}\n",
        args.n, threads, args.reps
    );

    for dist in [exp_dist, uni_dist] {
        println!("{}:", dist.label());
        let records = generate(dist, args.n, args.seed);
        // The paper's algorithm: every knob below is ablated against it.
        let base_cfg = PaperConfig::new(
            SemisortConfig::default()
                .with_seed(args.seed)
                .with_telemetry(args.telemetry),
        );
        let ((base_stats, base), eff) = with_threads(threads, || {
            let timed = time_best_of(args.reps, || Arm::Paper(base_cfg).run(&records));
            (timed, bench::trajectory::effective_threads())
        });
        let base_s = base.as_secs_f64();
        bench::trajectory::emit(&args, "ablation", threads, eff, base_s, &base_stats);

        let mut table = Table::new(["variant", "time (s)", "vs default", "slots/n"]);
        let mut run = |name: &str, arm: Arm| {
            let (stats, t) =
                with_threads(threads, || time_best_of(args.reps, || arm.run(&records)));
            table.row([
                name.to_string(),
                s3(t),
                x2(t.as_secs_f64() / base_s),
                format!("{:.2}", stats.space_blowup()),
            ]);
        };

        run("default (paper constants)", Arm::Paper(base_cfg));
        run(
            "no light-bucket merging",
            with_base(base_cfg, |b| b.merge_light_buckets = false),
        );
        run(
            "random-slot probing",
            Arm::Paper(PaperConfig {
                probe_strategy: ProbeStrategy::Random,
                ..base_cfg
            }),
        );
        run("counting distribution", Arm::Exact(base_cfg.base));
        run(
            "prefetch off",
            Arm::Paper(PaperConfig {
                prefetch_distance: 0,
                ..base_cfg
            }),
        );
        for delta in [4usize, 8, 32, 64] {
            run(
                &format!("δ = {delta}"),
                with_base(base_cfg, |b| b.heavy_threshold = delta),
            );
        }
        for shift in [2u32, 3, 5, 6] {
            run(
                &format!("p = 1/{}", 1 << shift),
                with_base(base_cfg, |b| b.sample_shift = shift),
            );
        }
        run(
            "local sort: stable",
            Arm::Paper(PaperConfig {
                local_sort_algo: LocalSortAlgo::StdStable,
                ..base_cfg
            }),
        );
        run(
            "local sort: naming+counting",
            Arm::Paper(PaperConfig {
                local_sort_algo: LocalSortAlgo::Counting,
                ..base_cfg
            }),
        );
        table.print();
        println!();
    }

    // Head-to-head scatter comparison on the three shapes that stress it
    // differently: all-light (uniform), skewed (Zipfian power law), and
    // single-bucket (all keys equal). The paper's CAS scatter also runs
    // with prefetching disabled, and every run appends a trajectory record
    // so the strategy (± prefetch) ablation lands in `BENCH_semisort.json`.
    println!("Scatter strategy (random-cas vs counting), scatter span isolated:");
    let scatter_dists = [
        Distribution::Uniform { n: args.n as u64 },
        Distribution::Zipfian { m: 1_000_000 },
        Distribution::Uniform { n: 1 }, // all keys equal
    ];
    let mut table = Table::new([
        "input",
        "strategy",
        "total (s)",
        "scatter (s)",
        "slots/n",
        "scratch (B)",
    ]);
    for dist in scatter_dists {
        let records = generate(dist, args.n, args.seed);
        let cas = PaperConfig::new(
            SemisortConfig::default()
                .with_seed(args.seed)
                .with_telemetry(args.telemetry),
        );
        for (name, arm) in [
            ("random-cas", Arm::Paper(cas)),
            (
                "random-cas (no prefetch)",
                Arm::Paper(PaperConfig {
                    prefetch_distance: 0,
                    ..cas
                }),
            ),
            ("counting", Arm::Exact(cas.base)),
        ] {
            let ((stats, t), eff) = with_threads(threads, || {
                let timed = time_best_of(args.reps, || arm.run(&records));
                (timed, bench::trajectory::effective_threads())
            });
            bench::trajectory::emit(
                &args,
                "ablation-scatter",
                threads,
                eff,
                t.as_secs_f64(),
                &stats,
            );
            table.row([
                dist.label(),
                name.to_string(),
                s3(t),
                format!("{:.3}", stats.span_time("scatter").as_secs_f64()),
                format!("{:.2}", stats.space_blowup()),
                stats.scratch_bytes_held.to_string(),
            ]);
        }
    }
    table.print();
    println!();
    println!(
        "paper shape: merging saves ≤10%; linear probing beats random \
         probing; the defaults (p = 1/16, δ = 16) sit at the flat bottom of \
         their sweeps; local-sort variants are within noise of each other"
    );
}
