//! **Figure 1 (a–c)**: running time and the proportion of heavy records
//! for each distribution class versus its parameter, at maximum threads.
//!
//! Expected shape (paper, n = 10⁸, 40h): times between 0.46 s (all-heavy
//! cases, no local sort needed) and 0.56 s (keys near the heavy/light
//! threshold, which inflates light buckets) — a ≤20% spread. The heavy
//! percentage falls monotonically with the parameter for exponential and
//! uniform, and slowly for Zipfian.

use bench::fmt::{pct1, s3, Table};
use bench::timing::time_best_of;
use bench::Args;
use parlay::with_threads;
use semisort::try_semisort_with_stats;
use workloads::{generate, paper_distributions, Distribution};

fn main() {
    let Some(args) = Args::parse() else { return };
    let cfg = bench::paper_config(args.seed);
    let threads = args.max_threads();

    println!(
        "Figure 1: time + %heavy vs distribution parameter, n = {}, {} threads\n",
        args.n, threads
    );

    type DistClass = fn(&Distribution) -> bool;
    let classes: [(&str, DistClass); 3] = [
        ("(a) exponential", is_exp),
        ("(b) uniform", is_uni),
        ("(c) zipfian", is_zipf),
    ];
    for (class, pick) in classes {
        println!("{class}:");
        let mut table = Table::new(["distribution", "time (s)", "% heavy records"]);
        for pd in paper_distributions().iter().filter(|p| pick(&p.dist)) {
            let records = generate(pd.dist, args.n, args.seed);
            let (stats, dt) = with_threads(threads, || {
                time_best_of(args.reps, || {
                    try_semisort_with_stats(&records, &cfg).unwrap().1
                })
            });
            table.row([
                pd.dist.label(),
                s3(dt),
                format!(
                    "{} (paper@1e8: {})",
                    pct1(stats.heavy_fraction_pct()),
                    pct1(pd.paper_heavy_pct)
                ),
            ]);
        }
        table.print();
        println!();
    }
    println!(
        "paper shape: flat times (0.46–0.56 s at n=1e8), minima where >99% of \
         records are heavy, maxima where most keys sit near the heavy/light threshold"
    );
}

fn is_exp(d: &Distribution) -> bool {
    matches!(d, Distribution::Exponential { .. })
}
fn is_uni(d: &Distribution) -> bool {
    matches!(d, Distribution::Uniform { .. })
}
fn is_zipf(d: &Distribution) -> bool {
    matches!(d, Distribution::Zipfian { .. })
}
