//! Exact cost accounting for Theorem 3.1.
//!
//! The paper proves the algorithm does `O(n)` expected work and `O(log n)`
//! depth w.h.p. (Theorem 3.1). Wall-clock time on any one machine cannot
//! verify an asymptotic claim; this module can: it replays Algorithm 1 with
//! *operation counters* instead of timers —
//!
//! - **work** — every probe of the scatter, every slot visited by the pack,
//!   every comparison-equivalent of the sample sort and local sorts;
//! - **depth proxies** — the longest probe sequence any single record needs
//!   (the scatter runs rounds of one probe per record, so `max_probe_run`
//!   bounds its round count, §3 Step 6b), and the largest light bucket
//!   (local sorts run in parallel across buckets, so the largest one is the
//!   critical path of Phase 4).
//!
//! The `theorem31` harness binary sweeps n and prints `work/n` (should be
//! flat), `max_probe_run / log₂n` and `max_light_bucket / log₂²n` (should
//! be bounded) — the empirical signature of Theorem 3.1.

use parlay::random::Rng;

use crate::buckets::{build_plan, BucketPlan};
use crate::config::PaperConfig;
use crate::paper::arena_layout;
use crate::sample::strided_sample_by;

/// Operation counts from one instrumented replay of Algorithm 1.
#[derive(Clone, Debug, Default)]
pub struct CostModel {
    /// Input size.
    pub n: usize,
    /// Sample size |S|.
    pub sample_size: usize,
    /// Work of Phase 1: one visit per record (sampling scan) plus the radix
    /// sort's per-pass visits of the sample.
    pub sample_work: usize,
    /// Work of Phase 2: distinct-key scan + per-prefix accounting.
    pub bucket_work: usize,
    /// Total CAS probes across all records (Phase 3 work).
    pub scatter_probes: usize,
    /// The longest probe sequence any single record needed — one probe per
    /// scatter round, so this bounds the scatter's depth in rounds.
    pub max_probe_run: usize,
    /// Slots visited by compaction (Phases 4–5 work).
    pub pack_work: usize,
    /// Σ over light buckets of `c·log₂c` — comparison-sort work of Phase 4.
    pub local_sort_work: usize,
    /// Records in the fullest light bucket (Phase 4's critical path).
    pub max_light_bucket: usize,
    /// Number of records in the fullest bucket of any kind.
    pub max_bucket: usize,
    /// Slots allocated (Lemma 3.5 space).
    pub total_slots: usize,
}

impl CostModel {
    /// Total counted work.
    pub fn total_work(&self) -> usize {
        self.sample_work
            + self.bucket_work
            + self.scatter_probes
            + self.pack_work
            + self.local_sort_work
    }

    /// Work per input record — Theorem 3.1 says this is O(1) in expectation.
    pub fn work_per_record(&self) -> f64 {
        self.total_work() as f64 / self.n.max(1) as f64
    }

    /// `max_probe_run / log₂ n` — Theorem 3.1's depth term says this stays
    /// bounded by a constant w.h.p.
    pub fn probe_depth_ratio(&self) -> f64 {
        self.max_probe_run as f64 / (self.n.max(2) as f64).log2()
    }

    /// `max_light_bucket / log₂²n` — §3 Step 7 says light buckets hold
    /// `O(log²n)` records w.h.p. (scaled by the implementation's `1/p`).
    pub fn bucket_depth_ratio(&self) -> f64 {
        let l = (self.n.max(2) as f64).log2();
        self.max_light_bucket as f64 / (l * l)
    }
}

/// Replay Algorithm 1 on `records` with operation counting (sequential and
/// deterministic; no timing, no concurrency), with the paper's CAS scatter
/// and slot arena as `cfg` sizes them.
pub fn analyze(records: &[(u64, u64)], cfg: &PaperConfig) -> CostModel {
    let n = records.len();
    let mut cost = CostModel {
        n,
        ..Default::default()
    };
    if n == 0 {
        return cost;
    }
    let rng = Rng::new(cfg.base.seed);

    // Phase 1: sample (one visit per record) + radix sort of the sample
    // (8 passes of 2 visits each over |S| for 64-bit keys).
    let mut sample = strided_sample_by(n, cfg.base.sample_shift, rng.fork(1), |i| records[i].0);
    sample.sort_unstable();
    cost.sample_size = sample.len();
    cost.sample_work = n + 16 * sample.len();

    // Phase 2: distinct scan over the sample + prefix accounting.
    let plan: BucketPlan = build_plan(&sample, n, &cfg.base);
    let layout = arena_layout(&plan, n, cfg);
    cost.bucket_work = sample.len() + (1usize << (64 - plan.prefix_shift));
    cost.total_slots = layout.total_slots;

    // Phase 3: simulate the scatter probe-for-probe.
    let mut occupied = vec![false; layout.total_slots];
    let mut bucket_records = vec![0usize; plan.num_buckets()];
    let scatter_rng = rng.fork(2);
    for (i, &(key, _)) in records.iter().enumerate() {
        let b = plan.bucket_of(key) as usize;
        bucket_records[b] += 1;
        let base = layout.bucket_offset[b];
        let size = layout.bucket_size[b];
        let mask = size - 1;
        let mut s = (scatter_rng.at(i as u64) as usize) & mask;
        let mut probes = 1usize;
        while occupied[base + s] {
            s = (s + 1) & mask;
            probes += 1;
            assert!(probes <= size, "bucket overflow in analysis replay");
        }
        occupied[base + s] = true;
        cost.scatter_probes += probes;
        cost.max_probe_run = cost.max_probe_run.max(probes);
    }

    // Phases 4–5: compaction visits every slot once; local sorts cost
    // c·log₂c per light bucket.
    cost.pack_work = layout.total_slots;
    for (b, &c) in bucket_records.iter().enumerate().take(plan.num_buckets()) {
        cost.max_bucket = cost.max_bucket.max(c);
        if b >= plan.num_heavy() {
            cost.max_light_bucket = cost.max_light_bucket.max(c);
            if c > 1 {
                cost.local_sort_work += c * (c as f64).log2().ceil() as usize;
            }
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlay::hash64;

    fn uniform(n: usize) -> Vec<(u64, u64)> {
        (0..n as u64).map(|i| (hash64(i), i)).collect()
    }

    fn zipf_like(n: usize) -> Vec<(u64, u64)> {
        (0..n as u64)
            .map(|i| {
                (
                    hash64(((hash64(i) % (n as u64 * n as u64)) as f64).sqrt() as u64),
                    i,
                )
            })
            .collect()
    }

    #[test]
    fn empty_input() {
        let c = analyze(&[], &PaperConfig::default());
        assert_eq!(c.total_work(), 0);
    }

    #[test]
    fn work_is_linear_uniform() {
        let cfg = PaperConfig::default();
        let small = analyze(&uniform(50_000), &cfg);
        let large = analyze(&uniform(400_000), &cfg);
        // O(n) work: per-record work must not grow with n (allow noise).
        assert!(
            large.work_per_record() < small.work_per_record() * 1.5,
            "work/record grew: {:.2} → {:.2}",
            small.work_per_record(),
            large.work_per_record()
        );
        assert!(
            large.work_per_record() < 40.0,
            "absolute work/record too high"
        );
    }

    #[test]
    fn probe_runs_are_logarithmic() {
        let cfg = PaperConfig::default();
        for n in [50_000usize, 200_000, 800_000] {
            let c = analyze(&uniform(n), &cfg);
            assert!(
                c.probe_depth_ratio() < 4.0,
                "n={n}: max probe run {} vs log₂n {:.1}",
                c.max_probe_run,
                (n as f64).log2()
            );
        }
    }

    #[test]
    fn light_buckets_are_polylog() {
        let cfg = PaperConfig::default();
        for n in [50_000usize, 400_000] {
            let c = analyze(&uniform(n), &cfg);
            assert!(
                c.bucket_depth_ratio() < 30.0,
                "n={n}: max light bucket {} vs log²n",
                c.max_light_bucket
            );
        }
    }

    #[test]
    fn expected_probes_near_one() {
        // With α·f(s) slack, the load factor stays low enough that the
        // average probe count is close to 1 (§4: expected O(1) insertion).
        let c = analyze(&uniform(300_000), &PaperConfig::default());
        let avg = c.scatter_probes as f64 / c.n as f64;
        assert!(avg < 2.0, "average probes {avg:.3} should be ≈1");
    }

    #[test]
    fn skewed_inputs_keep_linear_work() {
        let cfg = PaperConfig::default();
        let c = analyze(&zipf_like(300_000), &cfg);
        assert!(c.work_per_record() < 40.0);
        assert!(c.probe_depth_ratio() < 6.0);
    }

    #[test]
    fn space_matches_driver_lemma_3_5() {
        let cfg = PaperConfig::default();
        let c = analyze(&uniform(200_000), &cfg);
        assert!(c.total_slots < 10 * c.n);
    }
}
