//! **Theorem 3.1**: empirical verification of the `O(n)` work / `O(log n)`
//! depth bounds by exact operation counting (no timers).
//!
//! Expected shape: `work/n` flat across a 64× range of n on every
//! distribution; `max probe run / log₂n` and `max light bucket / log₂²n`
//! bounded by small constants; `slots/n` bounded (Lemma 3.5).

use bench::fmt::{x2, Table};
use bench::Args;
use semisort::analysis::analyze;
use workloads::{generate, representative_distributions, Distribution};

fn main() {
    let Some(args) = Args::parse() else { return };
    let cfg = bench::paper_config(args.seed);

    println!("Theorem 3.1: operation counts (no timing) across input sizes\n");

    type DistFor = fn(usize) -> Distribution;
    let dists: Vec<(&str, DistFor)> = vec![
        ("uniform(n) — all light", |n| {
            representative_distributions(n).1
        }),
        ("exp(n/1000) — ~70% heavy", |n| {
            representative_distributions(n).0
        }),
        ("zipf(n) — mixed", |n| Distribution::Zipfian {
            m: n as u64,
        }),
    ];

    for (label, dist_of) in dists {
        println!("{label}:");
        let mut table = Table::new([
            "n",
            "work/n",
            "avg probes",
            "max probe run",
            "/log2(n)",
            "max light bucket",
            "/log2^2(n)",
            "slots/n",
        ]);
        for &n in &args.sizes {
            let records = generate(dist_of(n), n, args.seed);
            let c = analyze(&records, &cfg);
            table.row([
                n.to_string(),
                x2(c.work_per_record()),
                x2(c.scatter_probes as f64 / n as f64),
                c.max_probe_run.to_string(),
                x2(c.probe_depth_ratio()),
                c.max_light_bucket.to_string(),
                x2(c.bucket_depth_ratio()),
                x2(c.total_slots as f64 / n as f64),
            ]);
        }
        table.print();
        println!();
    }
    println!(
        "Theorem 3.1 signature: work/n flat in n (linear work); probe runs \
         O(log n); light buckets O(log²n); slots O(n) (Lemma 3.5)"
    );
}
