//! **§5.4 (text)**: the parallel semisort on one thread versus the
//! sequential semisort implementations.
//!
//! Expected shape (paper): the semisort is ≈20% faster than the chained
//! hash-table semisort on one thread ("estimating sizes and writing
//! directly to an array" beats linked lists), and the other sequential
//! variants (open addressing with per-key chains, two-phase
//! count-then-place) are "even less efficient".

use baselines::{seq_hash_semisort, seq_open_semisort, seq_sort_semisort, seq_two_phase_semisort};
use bench::fmt::{s3, x2, Table};
use bench::timing::time_best_of;
use bench::Args;
use parlay::with_threads;
use semisort::paper;
use workloads::{generate, representative_distributions};

fn main() {
    let Some(args) = Args::parse() else { return };
    let cfg = bench::paper_config(args.seed);
    let (exp_dist, uni_dist) = representative_distributions(args.n);

    println!(
        "§5.4: single-thread semisort vs sequential baselines, n = {}, best of {}\n",
        args.n, args.reps
    );

    for dist in [exp_dist, uni_dist] {
        println!("{}:", dist.label());
        let records = generate(dist, args.n, args.seed);
        let mut table = Table::new(["algorithm", "time (s)", "vs semisort"]);

        let (_, t_semi) = with_threads(1, || {
            time_best_of(args.reps, || {
                paper::try_semisort_with_stats(&records, &cfg)
                    .unwrap()
                    .0
                    .len()
            })
        });
        let entries: Vec<(&str, std::time::Duration)> = vec![
            ("parallel semisort (1 thread)", t_semi),
            ("seq chained hash table", {
                with_threads(1, || {
                    time_best_of(args.reps, || seq_hash_semisort(&records).len())
                })
                .1
            }),
            ("seq open addressing + vecs", {
                with_threads(1, || {
                    time_best_of(args.reps, || seq_open_semisort(&records).len())
                })
                .1
            }),
            ("seq two-phase count+place", {
                with_threads(1, || {
                    time_best_of(args.reps, || seq_two_phase_semisort(&records).len())
                })
                .1
            }),
            ("seq full sort (pdqsort)", {
                with_threads(1, || {
                    time_best_of(args.reps, || seq_sort_semisort(&records).len())
                })
                .1
            }),
        ];
        for (name, t) in entries {
            table.row([
                name.to_string(),
                s3(t),
                x2(t.as_secs_f64() / t_semi.as_secs_f64()),
            ]);
        }
        table.print();
        println!();
    }
    println!(
        "paper shape: semisort ≈1.2x faster than the chained hash table on \
         one thread; the other sequential variants are slower still"
    );
}
