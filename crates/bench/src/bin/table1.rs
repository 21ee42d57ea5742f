//! **Table 1**: running times and speedup of parallel semisort and radix
//! sort on the 17 distributions, across thread counts.
//!
//! Paper setup: n = 10⁸ on 40 cores (80 hyperthreads). Run with
//! `--n 100m --threads 1,2,4,8,16,32,40,80` to reproduce at paper scale;
//! defaults are laptop-sized.
//!
//! Expected shape (paper): semisort ≈13–18 s sequential, 0.46–0.56 s on
//! 40h (speedups 27–35); radix sort ≈0.88–0.96 s on 40h — semisort wins by
//! ≈1.7–1.9×, and its time varies ≤20% across all distributions.

use bench::fmt::{pct1, s3, x2, Table};
use bench::timing::time_best_of;
use bench::Args;
use parlay::radix_sort::radix_sort_pairs;
use parlay::with_threads;
use semisort::try_semisort_with_stats;
use workloads::{generate, paper_distributions};

fn main() {
    let Some(args) = Args::parse() else { return };
    let cfg = bench::paper_config(args.seed);

    println!(
        "Table 1: semisort vs radix sort, n = {}, threads {:?}, best of {}\n",
        args.n, args.threads, args.reps
    );

    let mut header: Vec<String> = vec!["distribution".into(), "%heavy".into()];
    for &t in &args.threads {
        header.push(format!("semi t={t}"));
    }
    for &t in &args.threads {
        if t > 1 {
            header.push(format!("spd t={t}"));
        }
    }
    header.push("radix seq".into());
    header.push(format!("radix t={}", args.max_threads()));
    header.push("semi/radix".into());
    let mut table = Table::new(header);

    for pd in paper_distributions() {
        let records = generate(pd.dist, args.n, args.seed);
        let mut semi_times = Vec::new();
        let mut heavy_pct = 0.0;
        for &t in &args.threads {
            let (stats, dt) = with_threads(t, || {
                time_best_of(args.reps, || {
                    try_semisort_with_stats(&records, &cfg).unwrap().1
                })
            });
            heavy_pct = stats.heavy_fraction_pct();
            semi_times.push(dt);
        }
        let (_, radix_seq) = with_threads(1, || {
            time_best_of(args.reps, || {
                let mut v = records.clone();
                radix_sort_pairs(&mut v);
                v.len()
            })
        });
        let (_, radix_par) = with_threads(args.max_threads(), || {
            time_best_of(args.reps, || {
                let mut v = records.clone();
                radix_sort_pairs(&mut v);
                v.len()
            })
        });

        let mut row: Vec<String> = vec![pd.dist.label(), pct1(heavy_pct)];
        for dt in &semi_times {
            row.push(s3(*dt));
        }
        let t1 = semi_times[0].as_secs_f64();
        for (i, dt) in semi_times.iter().enumerate() {
            if args.threads[i] > 1 {
                row.push(x2(t1 / dt.as_secs_f64()));
            }
        }
        row.push(s3(radix_seq));
        row.push(s3(radix_par));
        let semi_best = semi_times.last().unwrap().as_secs_f64();
        row.push(x2(radix_par.as_secs_f64() / semi_best));
        table.row(row);
    }

    table.print();
    println!(
        "\npaper (40h, n=1e8): semisort 0.46–0.56 s across all 17 distributions \
         (≤20% spread), radix 0.88–0.96 s; semisort/radix advantage ≈1.7–1.9x"
    );
}
