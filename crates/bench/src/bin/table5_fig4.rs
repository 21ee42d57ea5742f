//! **Table 5 and Figure 4**: semisort versus the optimized sorting
//! baselines (STL sort, sample sort, radix sort) across input sizes, on
//! both representative distributions.
//!
//! Expected shape (paper, n = 10⁷..10⁹): the comparison sorts win at small
//! n (≤2·10⁷ uniform, ≤5·10⁷ exponential) thanks to cache friendliness;
//! past ~10⁸ the semisort's linear work takes over and its records/s keeps
//! rising while the O(n log n) sorts decline. Radix sort is slowest almost
//! everywhere (64-bit keys need too many rounds).

use baselines::comparison::{par_sort_semisort, seq_sort_semisort};
use bench::fmt::{s3, x2, Table};
use bench::timing::time_best_of;
use bench::Args;
use parlay::radix_sort::radix_sort_pairs;
use parlay::sample_sort::sample_sort_pairs;
use parlay::with_threads;
use semisort::paper;
use workloads::{generate, representative_distributions, Distribution};

fn main() {
    let Some(args) = Args::parse() else { return };
    let cfg = bench::paper_config(args.seed);
    let par_threads = args.max_threads();

    println!(
        "Table 5 / Figure 4: sort baselines vs semisort, seq and t={}, best of {}\n",
        par_threads, args.reps
    );

    for pick in [Pick::Exponential, Pick::Uniform] {
        println!("{}:", pick.title());
        let mut table = Table::new(vec![
            "n".to_string(),
            "STL seq".to_string(),
            "STL par".to_string(),
            "sample seq".to_string(),
            "sample par".to_string(),
            "radix seq".to_string(),
            "radix par".to_string(),
            "semi seq".to_string(),
            "semi par".to_string(),
            "semi Mrec/s".to_string(),
            "best other Mrec/s".to_string(),
        ]);
        for &n in &args.sizes {
            let dist = pick.dist(n);
            let records = generate(dist, n, args.seed);

            let run_seq =
                |f: &(dyn Fn() -> usize + Sync)| with_threads(1, || time_best_of(args.reps, f)).1;
            let run_par = |f: &(dyn Fn() -> usize + Sync)| {
                with_threads(par_threads, || time_best_of(args.reps, f)).1
            };

            let stl = |recs: &[(u64, u64)]| seq_sort_semisort(recs).len();
            let stl_par = |recs: &[(u64, u64)]| par_sort_semisort(recs).len();
            let sample = |recs: &[(u64, u64)]| {
                let mut v = recs.to_vec();
                sample_sort_pairs(&mut v);
                v.len()
            };
            let radix = |recs: &[(u64, u64)]| {
                let mut v = recs.to_vec();
                radix_sort_pairs(&mut v);
                v.len()
            };
            let semi =
                |recs: &[(u64, u64)]| paper::try_semisort_with_stats(recs, &cfg).unwrap().0.len();

            let t_stl_seq = run_seq(&|| stl(&records));
            let t_stl_par = run_par(&|| stl_par(&records));
            let t_smp_seq = run_seq(&|| sample(&records));
            let t_smp_par = run_par(&|| sample(&records));
            let t_rdx_seq = run_seq(&|| radix(&records));
            let t_rdx_par = run_par(&|| radix(&records));
            let t_semi_seq = run_seq(&|| semi(&records));
            let t_semi_par = run_par(&|| semi(&records));

            let best_other = [t_stl_par, t_smp_par, t_rdx_par]
                .iter()
                .copied()
                .min()
                .unwrap();
            let mrec = |t: std::time::Duration| x2(n as f64 / t.as_secs_f64() / 1e6);
            table.row(vec![
                n.to_string(),
                s3(t_stl_seq),
                s3(t_stl_par),
                s3(t_smp_seq),
                s3(t_smp_par),
                s3(t_rdx_seq),
                s3(t_rdx_par),
                s3(t_semi_seq),
                s3(t_semi_par),
                mrec(t_semi_par),
                mrec(best_other),
            ]);
        }
        table.print();
        println!();
    }
    println!(
        "paper shape: comparison sorts lead at small n; semisort overtakes \
         as n grows (linear vs n log n work); radix trails everywhere"
    );
}

enum Pick {
    Exponential,
    Uniform,
}

impl Pick {
    fn title(&self) -> &'static str {
        match self {
            Pick::Exponential => "exponential distribution (λ = n/1000)",
            Pick::Uniform => "uniform distribution (N = n)",
        }
    }
    fn dist(&self, n: usize) -> Distribution {
        let (e, u) = representative_distributions(n);
        match self {
            Pick::Exponential => e,
            Pick::Uniform => u,
        }
    }
}
