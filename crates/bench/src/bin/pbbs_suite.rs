//! Throughput table for every substrate primitive — the PBBS-style "suite"
//! view. Useful as a one-shot sanity check that the substrate performs
//! sensibly before trusting the per-figure experiments.

use bench::fmt::{x2, Table};
use bench::timing::time_best_of;
use bench::Args;
use parlay::with_threads;
use rayon::slice::ParallelSliceMut;
use workloads::{generate, Distribution};

fn main() {
    let Some(args) = Args::parse() else { return };
    let n = args.n;
    let threads = args.max_threads();
    println!(
        "Substrate throughput, n = {n}, {} thread(s), best of {}\n",
        threads, args.reps
    );

    let keys: Vec<u64> = generate(Distribution::Uniform { n: n as u64 }, n, args.seed)
        .into_iter()
        .map(|r| r.0)
        .collect();
    let pairs: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    let counts: Vec<usize> = keys.iter().map(|&k| (k % 256) as usize).collect();

    let mut table = Table::new(["primitive", "time (s)", "Melem/s"]);
    let mut bench = |name: &str, f: &(dyn Fn() -> usize + Sync)| {
        let (_, dt) = with_threads(threads, || time_best_of(args.reps, f));
        table.row([
            name.to_string(),
            format!("{:.4}", dt.as_secs_f64()),
            x2(n as f64 / dt.as_secs_f64() / 1e6),
        ]);
    };

    bench("scan (prefix sum)", &|| {
        let mut v = counts.clone();
        parlay::scan_add_exclusive(&mut v)
    });
    bench("reduce (sum)", &|| parlay::reduce::sum_u64(&keys) as usize);
    bench("pack (keep half)", &|| {
        parlay::pack(&keys, |_, &k| k % 2 == 0).len()
    });
    bench("histogram (m=256)", &|| {
        parlay::histogram::histogram(&counts, 256).len()
    });
    bench("counting sort (m=256)", &|| {
        let mut v = counts.clone();
        parlay::counting_sort::counting_sort(&mut v, 256, |&k| k).len()
    });
    bench("radix sort (64-bit pairs)", &|| {
        let mut v = pairs.clone();
        parlay::radix_sort::radix_sort_pairs(&mut v);
        v.len()
    });
    bench("sample sort (pairs)", &|| {
        let mut v = pairs.clone();
        parlay::sample_sort::sample_sort_pairs(&mut v);
        v.len()
    });
    bench("merge sort (pairs)", &|| {
        let mut v = pairs.clone();
        parlay::merge::merge_sort_by(&mut v, |a, b| a.0 < b.0);
        v.len()
    });
    bench("RR integer sort (20-bit)", &|| {
        let mut v: Vec<(u64, u64)> = pairs.iter().map(|&(k, p)| (k & 0xF_FFFF, p)).collect();
        parlay::rr_sort::rr_sort_by_key(&mut v, 20, |r| r.0);
        v.len()
    });
    bench("std par_sort (pairs)", &|| {
        let mut v = pairs.clone();
        v.par_sort_unstable_by_key(|r| r.0);
        v.len()
    });
    bench("random shuffle", &|| {
        let mut v = keys.clone();
        parlay::shuffle::random_shuffle(&mut v, 7);
        v.len()
    });
    bench("hash table insert+lookup", &|| {
        let t = parlay::hash_table::PhaseConcurrentMap::<u32>::new(n / 16);
        for &k in keys.iter().step_by(16) {
            t.insert(k | 1, 1);
        }
        keys.iter()
            .step_by(16)
            .filter(|&&k| t.contains(k | 1))
            .count()
    });
    bench("semisort (end to end)", &|| {
        semisort::paper::try_semisort_with_stats(&pairs, &bench::paper_config(args.seed))
            .unwrap()
            .0
            .len()
    });

    table.print();

    // The stats-carrying run for --stats-json and the trajectory file
    // (the closure-driven rows above only keep wall times).
    let mut cfg = bench::paper_config(args.seed);
    cfg.base.telemetry = args.telemetry;
    let ((stats, dt), eff) = with_threads(threads, || {
        let timed = time_best_of(args.reps, || {
            semisort::paper::try_semisort_with_stats(&pairs, &cfg)
                .unwrap()
                .1
        });
        (timed, bench::trajectory::effective_threads())
    });
    bench::trajectory::emit(&args, "pbbs_suite", threads, eff, dt.as_secs_f64(), &stats);
}
