//! **§1 / §3.2**: top-down semisort versus the bottom-up alternative
//! (naming + Rajasekaran–Reif integer sort).
//!
//! Expected shape (the paper's argument): "just the initial preprocessing
//! using a hash table requires about as much work as the whole sequential
//! algorithm" — i.e. the RR pipeline's *naming phase alone* should cost on
//! the order of the entire semisort, making the full pipeline clearly
//! slower. The semisort avoids it by working directly on hash values
//! top-down.

use baselines::rr_semisort::rr_semisort;
use bench::fmt::{s3, x2, Table};
use bench::timing::time_best_of;
use bench::Args;
use parlay::with_threads;
use semisort::try_semisort_pairs;
use workloads::{generate, paper_distributions, representative_distributions};

fn main() {
    let Some(args) = Args::parse() else { return };
    let cfg = bench::paper_config(args.seed);
    let threads = args.max_threads();

    println!(
        "§3.2: top-down semisort vs naming + RR integer sort, n = {}, {} threads\n",
        args.n, threads
    );

    let (exp_dist, uni_dist) = representative_distributions(args.n);
    let mut dists = vec![exp_dist, uni_dist];
    dists.push(paper_distributions()[14].dist); // zipf(1M): mixed regime

    let mut table = Table::new([
        "distribution",
        "semisort (s)",
        "RR naming (s)",
        "RR sort (s)",
        "RR total (s)",
        "RR/semisort",
        "naming/semisort",
    ]);
    for dist in dists {
        let records = generate(dist, args.n, args.seed);
        let (_, t_semi) = with_threads(threads, || {
            time_best_of(args.reps, || {
                try_semisort_pairs(&records, &cfg).unwrap().len()
            })
        });
        let (timing, _) = with_threads(threads, || {
            time_best_of(args.reps, || rr_semisort(&records).1)
        });
        let total = timing.naming + timing.sort;
        table.row([
            dist.label(),
            s3(t_semi),
            s3(timing.naming),
            s3(timing.sort),
            s3(total),
            x2(total.as_secs_f64() / t_semi.as_secs_f64()),
            x2(timing.naming.as_secs_f64() / t_semi.as_secs_f64()),
        ]);
    }
    table.print();
    println!(
        "\npaper claim: the naming preprocessing alone costs about as much as \
         the whole semisort, so the RR route cannot be competitive"
    );
}
