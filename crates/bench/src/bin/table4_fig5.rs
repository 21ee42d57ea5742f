//! **Table 4 and Figure 5**: scalability with input size, and the
//! comparison against the scatter + pack lower bound.
//!
//! Expected shape (paper, n = 10⁷..10⁹): speedup grows with input size
//! (23→35 exponential, 25→38 uniform); throughput (records/s) *increases*
//! with n (linear work, better amortization); and the full semisort runs
//! only 1.5–2× slower than a bare scatter + pack, with the gap closing as
//! n grows.

use baselines::scatter_pack::scatter_and_pack;
use bench::fmt::{s3, x2, Table};
use bench::timing::time_best_of;
use bench::Args;
use parlay::with_threads;
use semisort::try_semisort_pairs;
use workloads::{generate, representative_distributions};

fn main() {
    let Some(args) = Args::parse() else { return };
    let cfg = bench::paper_config(args.seed);
    let par_threads = args.max_threads();

    println!(
        "Table 4 / Figure 5: size sweep, threads seq vs {}, best of {}\n",
        par_threads, args.reps
    );

    let mut table = Table::new(vec![
        "n".to_string(),
        "exp seq (s)".to_string(),
        "exp par (s)".to_string(),
        "exp spd".to_string(),
        "exp Mrec/s".to_string(),
        "uni seq (s)".to_string(),
        "uni par (s)".to_string(),
        "uni spd".to_string(),
        "uni Mrec/s".to_string(),
        "scatter (s)".to_string(),
        "pack (s)".to_string(),
        "s+p (s)".to_string(),
        "semi/s+p".to_string(),
    ]);

    for &n in &args.sizes {
        let (exp_dist, uni_dist) = representative_distributions(n);
        let exp_recs = generate(exp_dist, n, args.seed);
        let uni_recs = generate(uni_dist, n, args.seed);

        let (_, exp_seq) = with_threads(1, || {
            time_best_of(args.reps, || {
                try_semisort_pairs(&exp_recs, &cfg).unwrap().len()
            })
        });
        let (_, exp_par) = with_threads(par_threads, || {
            time_best_of(args.reps, || {
                try_semisort_pairs(&exp_recs, &cfg).unwrap().len()
            })
        });
        let (_, uni_seq) = with_threads(1, || {
            time_best_of(args.reps, || {
                try_semisort_pairs(&uni_recs, &cfg).unwrap().len()
            })
        });
        let (_, uni_par) = with_threads(par_threads, || {
            time_best_of(args.reps, || {
                try_semisort_pairs(&uni_recs, &cfg).unwrap().len()
            })
        });
        // Scatter + pack on the uniform input (the paper's baseline column).
        let (timing, _) = with_threads(par_threads, || {
            time_best_of(args.reps, || scatter_and_pack(&uni_recs, args.seed).1)
        });

        let mrec = |t: std::time::Duration| x2(n as f64 / t.as_secs_f64() / 1e6);
        table.row(vec![
            n.to_string(),
            s3(exp_seq),
            s3(exp_par),
            x2(exp_seq.as_secs_f64() / exp_par.as_secs_f64()),
            mrec(exp_par),
            s3(uni_seq),
            s3(uni_par),
            x2(uni_seq.as_secs_f64() / uni_par.as_secs_f64()),
            mrec(uni_par),
            s3(timing.scatter),
            s3(timing.pack),
            s3(timing.total()),
            x2(uni_par.as_secs_f64() / timing.total().as_secs_f64()),
        ]);
    }
    table.print();
    println!(
        "\npaper shape: throughput rises with n; semisort is 1.5-2x a bare \
         scatter+pack and the ratio improves as n grows"
    );
}
