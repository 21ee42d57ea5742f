//! **Figure 2 (a, b)**: running time versus thread count for parallel
//! semisort and radix sort, on the two representative distributions.
//!
//! Expected shape (paper, n = 10⁸): both scale near-linearly to 40 cores,
//! but semisort's curve sits ≈2× below radix sort's at full parallelism
//! (radix makes more passes over memory and saturates bandwidth first);
//! semisort reaches speedup 31.7–34.6, radix about half that.

use bench::fmt::{s3, x2, Table};
use bench::timing::time_best_of;
use bench::Args;
use parlay::radix_sort::radix_sort_pairs;
use parlay::with_threads;
use semisort::try_semisort_pairs;
use workloads::{generate, representative_distributions};

fn main() {
    let Some(args) = Args::parse() else { return };
    let cfg = bench::paper_config(args.seed);
    let (exp_dist, uni_dist) = representative_distributions(args.n);

    println!(
        "Figure 2: time vs thread count, n = {}, best of {}\n",
        args.n, args.reps
    );

    for (label, dist) in [("(a)", exp_dist), ("(b)", uni_dist)] {
        println!("{label} {}:", dist.label());
        let records = generate(dist, args.n, args.seed);
        let mut table = Table::new([
            "threads",
            "semisort (s)",
            "semisort spd",
            "radix (s)",
            "radix spd",
            "radix/semisort",
        ]);
        let mut semi_t1 = 0.0;
        let mut radix_t1 = 0.0;
        for &t in &args.threads {
            let (_, semi) = with_threads(t, || {
                time_best_of(args.reps, || {
                    try_semisort_pairs(&records, &cfg).unwrap().len()
                })
            });
            let (_, radix) = with_threads(t, || {
                time_best_of(args.reps, || {
                    let mut v = records.clone();
                    radix_sort_pairs(&mut v);
                    v.len()
                })
            });
            if t == args.threads[0] {
                semi_t1 = semi.as_secs_f64();
                radix_t1 = radix.as_secs_f64();
            }
            table.row([
                t.to_string(),
                s3(semi),
                x2(semi_t1 / semi.as_secs_f64()),
                s3(radix),
                x2(radix_t1 / radix.as_secs_f64()),
                x2(radix.as_secs_f64() / semi.as_secs_f64()),
            ]);
        }
        table.print();
        println!();
    }
    println!(
        "paper shape: both near-linear in threads; semisort ≈2x faster than \
         radix at 40h (radix is memory-bandwidth bound from repeated passes)"
    );
}
