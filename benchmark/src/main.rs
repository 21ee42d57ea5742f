//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload count-zipf --trace 1
//! ```
//!
//! Prints every metric as `workload metric value unit`, then one JSON
//! summary line. Exits 1 when any output failed its check, 2 on bad
//! arguments or an unsuitable machine.

use std::path::PathBuf;
use std::process;

use bench::alloc_track::TrackingAllocator;
use semisort_benchmark::report::{self, Metric, Outcome};
use semisort_benchmark::stats::{median, quartiles, relative_iqr};
use semisort_benchmark::{compare, run, RunOpts, THREADS, WORKLOADS};

// Counts heap bytes for `mem_peak_bytes` and `pool.alloc_bytes_per_call`.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const USAGE: &str = "\
usage: semisort-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                          [--trace-dir DIR] [--quick] [--repeat K]
       semisort-benchmark --compare PARENT_RUNS CHANGE_RUNS";

/// Measurement seconds per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick` divides every input size by this…
const QUICK_SCALE: usize = 50;
/// …and measures for this long.
const QUICK_SECONDS: f64 = 0.5;

struct Args {
    workloads: Vec<&'static str>,
    opts: RunOpts,
    repeat: usize,
    compare: Option<(String, String)>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        opts: RunOpts {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            scale: 1,
            trace_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/traces")),
        },
        repeat: 1,
        compare: None,
    };
    let mut seconds = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                args.workloads = match WORKLOADS.iter().find(|&&n| n == w) {
                    Some(&n) => vec![n],
                    None if w == "all" => WORKLOADS.to_vec(),
                    None => return Err(format!("unknown workload `{w}`")),
                };
            }
            "--seed" => args.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-dir" => args.opts.trace_dir = PathBuf::from(value()?),
            "--quick" => {
                args.opts.scale = QUICK_SCALE;
                args.opts.seconds = QUICK_SECONDS;
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(s) = seconds {
        args.opts.seconds = s;
    }
    Ok(args)
}

/// Apply the parent-versus-change rule to two files of summary lines.
fn compare_files(parent: &str, change: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = compare::bounds(&read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../BENCHMARK.json"
    ))?)?;
    let (lines, regressed) = compare::compare(&bounds, &read(parent)?, &read(change)?)?;
    lines.iter().for_each(|l| println!("{l}"));
    Ok(regressed)
}

/// Print one workload's runs and return the metrics its summary carries:
/// the run's own, or with `--repeat`, the median of each across the runs.
fn print_runs(runs: &[Outcome]) -> Vec<Metric> {
    let first = &runs[0];
    if runs.len() == 1 {
        first.lines().iter().for_each(|l| println!("{l}"));
        return first.metrics.clone();
    }
    for r in runs {
        r.lines()
            .iter()
            .filter(|l| l.contains(" error "))
            .for_each(|l| println!("{l}"));
    }
    let mut medians = Vec::new();
    for m in first.metrics.iter().chain(&first.notes) {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(&m.name)).collect();
        let (q1, q3) = quartiles(&values);
        println!(
            "{} {} {} {} iqr {} spread {}",
            first.workload,
            m.name,
            median(&values),
            m.unit,
            q3 - q1,
            relative_iqr(&values)
        );
        if first.metrics.contains(m) {
            medians.push(Metric {
                value: median(&values),
                ..m.clone()
            });
        }
    }
    medians
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        process::exit(2);
    });
    if let Some((parent, change)) = &args.compare {
        match compare_files(parent, change) {
            Ok(regressed) => process::exit(i32::from(regressed)),
            Err(e) => {
                eprintln!("{e}");
                process::exit(2);
            }
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < THREADS {
        eprintln!("refusing to run: {nproc} CPU available, the workloads need {THREADS}");
        process::exit(2);
    }
    // The service's shards run on the global pool: size it before any
    // parallel call creates it.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    println!("env nproc {nproc} count");
    println!("env threads {THREADS} count");

    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for &w in &args.workloads {
        let runs: Vec<Outcome> = (0..args.repeat)
            .map(|_| run(w, &args.opts))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| {
                eprintln!("{w}: {e}");
                process::exit(1);
            });
        attempted += runs.iter().map(|r| r.attempted).sum::<u64>();
        failed += runs.iter().map(|r| r.failed).sum::<u64>();
        for m in print_runs(&runs) {
            let name = if args.workloads.len() == 1 {
                m.name
            } else {
                format!("{w}.{}", m.name)
            };
            metrics.push(Metric { name, ..m });
        }
    }
    println!("{}", report::summary(attempted, failed, &metrics));
    process::exit(i32::from(failed > 0));
}
