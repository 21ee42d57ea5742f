//! **Lemma 3.5 (space)**: peak heap usage per algorithm, measured with a
//! tracking global allocator.
//!
//! Expected shape: semisort's peak extra memory is a small constant
//! multiple of the input (slot arena ≈ `α·Σf(s)` ≈ 4–5 × 16 B/record +
//! output), and stays a constant factor across distributions and sizes —
//! the empirical form of "O(n) expected space". The comparison sorts use
//! ≈2× input (scratch + output); the sequential chained hash table ≈3×
//! (directory + next-links + output).

use baselines::{seq_hash_semisort, seq_two_phase_semisort};
use bench::alloc_track::{measure_peak, TrackingAllocator};
use bench::fmt::{x2, Table};
use bench::Args;
use semisort::try_semisort_pairs;
use workloads::{generate, representative_distributions, Distribution};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn main() {
    let Some(args) = Args::parse() else { return };
    let cfg = bench::paper_config(args.seed);

    println!(
        "Peak additional heap per algorithm (input is {} × 16 B records)\n",
        args.n
    );

    let (exp_dist, uni_dist) = representative_distributions(args.n);
    for dist in [
        exp_dist,
        uni_dist,
        Distribution::Zipfian { m: args.n as u64 },
    ] {
        println!("{}:", dist.label());
        let records = generate(dist, args.n, args.seed);
        let input_bytes = records.len() * 16;

        let mut table = Table::new(["algorithm", "peak extra (MiB)", "× input"]);
        let mut row = |name: &str, peak: usize| {
            table.row([
                name.to_string(),
                format!("{:.1}", peak as f64 / (1 << 20) as f64),
                x2(peak as f64 / input_bytes as f64),
            ]);
        };

        let (_, peak) = measure_peak(|| try_semisort_pairs(&records, &cfg).unwrap().len());
        row("parallel semisort", peak);
        let (_, peak) = measure_peak(|| seq_hash_semisort(&records).len());
        row("seq chained hash", peak);
        let (_, peak) = measure_peak(|| seq_two_phase_semisort(&records).len());
        row("seq two-phase", peak);
        let (_, peak) = measure_peak(|| {
            let mut v = records.clone();
            parlay::radix_sort::radix_sort_pairs(&mut v);
            v.len()
        });
        row("radix sort", peak);
        let (_, peak) = measure_peak(|| {
            let mut v = records.clone();
            parlay::sample_sort::sample_sort_pairs(&mut v);
            v.len()
        });
        row("sample sort", peak);
        let (_, peak) = measure_peak(|| baselines::par_sort_semisort(&records).len());
        row("std par_sort", peak);
        table.print();
        println!();
    }
    println!(
        "Lemma 3.5 shape: semisort's arena + output is a bounded constant \
         multiple of the input at every distribution"
    );
}
