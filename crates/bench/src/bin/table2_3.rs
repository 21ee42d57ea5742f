//! **Tables 2–3 and Figure 3**: per-phase breakdown of the running time,
//! sequential versus maximum threads, on the two representative
//! distributions.
//!
//! Expected shape (paper, n = 10⁸): the scatter dominates (≈50–71%
//! sequential, ≈46–52% at 40h); bucket construction is ≈1%; the local sort
//! is near zero on the exponential input (mostly heavy keys) but ≈36%
//! sequential on the uniform input; the local sort shows the best speedup
//! (30–52×, cache-resident buckets), packing the worst (12–19×,
//! bandwidth-bound).

use std::time::Duration;

use bench::fmt::{pct1, x2, Table};
use bench::timing::time_best_of;
use bench::Args;
use parlay::with_threads;
use semisort::paper::try_semisort_with_stats;
use semisort::SemisortStats;
use workloads::{generate, representative_distributions};

fn main() {
    let Some(args) = Args::parse() else { return };
    let mut cfg = bench::paper_config(args.seed);
    cfg.base.telemetry = args.telemetry;
    let (exp_dist, uni_dist) = representative_distributions(args.n);
    let par_threads = args.max_threads();

    println!(
        "Tables 2-3 / Figure 3: phase breakdown, n = {}, seq vs {} threads\n",
        args.n, par_threads
    );

    for (label, dist) in [
        ("Table 2 (exponential λ = n/1000)", exp_dist),
        ("Table 3 (uniform N = n)", uni_dist),
    ] {
        println!("{label} — {}:", dist.label());
        let records = generate(dist, args.n, args.seed);
        let (seq_stats, _) = with_threads(1, || {
            time_best_of(args.reps, || {
                try_semisort_with_stats(&records, &cfg).unwrap().1
            })
        });
        let ((par_stats, par_t), par_eff) = with_threads(par_threads, || {
            let timed = time_best_of(args.reps, || {
                try_semisort_with_stats(&records, &cfg).unwrap().1
            });
            (timed, bench::trajectory::effective_threads())
        });
        print_breakdown(&seq_stats, &par_stats, par_threads);
        bench::trajectory::emit(
            &args,
            "table2_3",
            par_threads,
            par_eff,
            par_t.as_secs_f64(),
            &par_stats,
        );
        println!();
    }
    println!(
        "paper shape: scatter dominates both configurations; local sort \
         matters only when most keys are light (uniform); construct-buckets \
         is ≈1% everywhere"
    );
}

fn print_breakdown(seq: &SemisortStats, par: &SemisortStats, par_threads: usize) {
    let mut table = Table::new(vec![
        "phase".to_string(),
        "seq time (s)".to_string(),
        "seq %".to_string(),
        format!("t={par_threads} time (s)"),
        format!("t={par_threads} %"),
        "speedup".to_string(),
    ]);
    let seq_total = seq.total().as_secs_f64().max(f64::EPSILON);
    let par_total = par.total().as_secs_f64().max(f64::EPSILON);
    for ((name, s), (_, p)) in seq.phases().iter().zip(par.phases().iter()) {
        table.row([
            name.to_string(),
            fmt_s(*s),
            pct1(100.0 * s.as_secs_f64() / seq_total),
            fmt_s(*p),
            pct1(100.0 * p.as_secs_f64() / par_total),
            x2(s.as_secs_f64() / p.as_secs_f64().max(f64::EPSILON)),
        ]);
    }
    table.row([
        "total".to_string(),
        fmt_s(seq.total()),
        "100.0".to_string(),
        fmt_s(par.total()),
        "100.0".to_string(),
        x2(seq_total / par_total),
    ]);
    table.print();
    println!(
        "  sample |S|={}  heavy keys={}  light buckets={}  %heavy records={}  slots/n={:.2}",
        par.sample_size,
        par.heavy_keys,
        par.light_buckets,
        pct1(par.heavy_fraction_pct()),
        par.space_blowup()
    );
}

fn fmt_s(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}
