//! Phase 2: heavy/light classification.
//!
//! From the *sorted* sample this module derives the bucket structure every
//! distribution routes records through:
//!
//! - **Heavy keys** — hashed keys appearing at least δ times in the sample
//!   ("If the count for a key is greater than δ = 16, we insert the key
//!   into a hash table" — §4 Phase 2). Each heavy key gets its own bucket,
//!   and the phase-concurrent hash table `T` maps the key to its bucket id
//!   so a distribution can route heavy records in O(1).
//! - **Light keys** — everything else. The 64-bit hash range is split into
//!   `2^16` equal prefix classes; adjacent classes are merged until each
//!   bucket holds at least δ sample records (the ≤10% optimization of §4).
//!
//! Heavy buckets come first, then light. The plan records each bucket's
//! sample count; the engine's exact distribution needs nothing more, and
//! the paper's CAS scatter sizes its slot arena from those counts
//! ([`crate::paper::arena_layout`]).

use parlay::counting_sort::{counting_sort_into_with, CountingScratch};
use parlay::hash_table::PhaseConcurrentMap;
use rayon::prelude::*;

use crate::config::SemisortConfig;

/// The bucket structure of one semisort run, produced from the sorted
/// sample.
pub struct BucketPlan {
    /// Heavy-key table `T`: hashed key → heavy bucket id (dense, `0..num_heavy`).
    pub heavy_table: PhaseConcurrentMap<u32>,
    /// Number of heavy keys (== number of heavy buckets).
    pub num_heavy: usize,
    /// Number of sample records classified heavy (for the heavy-% stat).
    pub heavy_sample_records: usize,
    /// Per bucket (heavy buckets then light buckets): how many sample
    /// records it received — what the paper's estimator sizes it from.
    pub sample_counts: Vec<usize>,
    /// Hash-prefix → light bucket id (*global* id, i.e. already offset by
    /// `num_heavy`); length `2^light_bucket_log2`.
    pub prefix_to_bucket: Vec<u32>,
    /// Number of light buckets after merging.
    pub num_light: usize,
    /// Right-shift turning a hashed key into its prefix class.
    pub prefix_shift: u32,
}

impl BucketPlan {
    /// Total number of buckets (heavy + light).
    pub fn num_buckets(&self) -> usize {
        self.num_heavy + self.num_light
    }

    /// The global bucket id for a record with hashed key `key`:
    /// its heavy bucket if the key is heavy, else its prefix's light bucket.
    ///
    /// Only valid after the table's insert phase finished (it has).
    #[inline(always)]
    pub fn bucket_of(&self, key: u64) -> u32 {
        // All-light inputs (e.g. the representative uniform distribution)
        // skip the table probe entirely — a predictable branch.
        if self.num_heavy > 0 {
            if let Some(b) = self.heavy_table.lookup(key) {
                return b;
            }
        }
        self.prefix_to_bucket[(key >> self.prefix_shift) as usize]
    }

    /// Like [`Self::bucket_of`] but also reports heaviness (for stats).
    #[inline(always)]
    pub fn bucket_of_tagged(&self, key: u64) -> (u32, bool) {
        if self.num_heavy > 0 {
            if let Some(b) = self.heavy_table.lookup(key) {
                return (b, true);
            }
        }
        (
            self.prefix_to_bucket[(key >> self.prefix_shift) as usize],
            false,
        )
    }

    /// The exact distribution: move every record of `src` into its bucket's
    /// region of `dst` with one stable counting sort keyed by
    /// [`Self::bucket_of`], and return the region bounds (bucket `b` holds
    /// `dst[starts[b]..starts[b + 1]]`, heavy buckets first; the slice
    /// lives in `scratch` until its next use).
    ///
    /// The counts are exact, so unlike the paper's slot arena nothing can
    /// overflow and nothing needs packing. The sort is stable, so `dst`
    /// is a function of `src` and the plan alone, at any thread count.
    /// Both the driver and the by-key aggregation distribute through here.
    ///
    /// # Panics
    ///
    /// If `src.len() != dst.len()`.
    pub fn distribute_into<'s, V: Copy + Send + Sync>(
        &self,
        src: &[(u64, V)],
        dst: &mut [(u64, V)],
        scratch: &'s mut CountingScratch,
    ) -> &'s [usize] {
        counting_sort_into_with(
            src,
            dst,
            self.num_buckets(),
            |r| self.bucket_of(r.0) as usize,
            scratch,
        )
    }
}

/// Build the [`BucketPlan`] from the sorted sample (Steps 4, 5, 6a, 7a).
///
/// `n` is the input size (it sets the light-bucket count);
/// `sorted_sample` is the Phase 1 output.
pub fn build_plan(sorted_sample: &[u64], n: usize, cfg: &SemisortConfig) -> BucketPlan {
    let s_len = sorted_sample.len();
    // Θ(n/log²n) light buckets (§3, Step 7a), capped at the paper's 2^16
    // (their tuned constant for n = 10⁸, where n/log²n ≈ 2^17). At smaller
    // n the scaled count keeps per-bucket sample density — and therefore
    // the f(s) overhead ratio — at the level the paper tuned for.
    let prefix_bits = effective_prefix_bits(n, cfg.light_bucket_log2);
    let prefix_shift = 64 - prefix_bits;
    let num_prefixes = 1usize << prefix_bits;

    // Distinct-key boundaries: "compute the offsets corresponding to the
    // start of each key in the sorted array … with a simple comparison with
    // the preceding key", gathered with a parallel filter (§4 Phase 2).
    let starts = parlay::pack_index(s_len, |i| {
        i == 0 || sorted_sample[i] != sorted_sample[i - 1]
    });
    let num_distinct = starts.len();

    // Heavy keys: distinct keys whose run length reaches δ.
    let heavy: Vec<(u64, usize)> = {
        let run_len = |j: usize| {
            let end = if j + 1 < num_distinct {
                starts[j + 1]
            } else {
                s_len
            };
            end - starts[j]
        };
        let idx = parlay::pack_index(num_distinct, |j| run_len(j) >= cfg.heavy_threshold);
        idx.into_iter()
            .map(|j| (sorted_sample[starts[j]], run_len(j)))
            .collect()
    };
    let num_heavy = heavy.len();
    let heavy_sample_records: usize = heavy.iter().map(|h| h.1).sum();

    // Heavy table and per-bucket sample counts.
    let heavy_table = PhaseConcurrentMap::with_seed(num_heavy.max(1), cfg.seed ^ TABLE_SEED);
    heavy
        .par_iter()
        .enumerate()
        .with_min_len(512)
        .for_each(|(b, &(key, _))| {
            let inserted = heavy_table.insert(key, b as u32);
            debug_assert!(inserted, "heavy keys are distinct by construction");
        });
    let mut sample_counts: Vec<usize> = Vec::with_capacity(num_heavy + 64);
    sample_counts.extend(heavy.iter().map(|&(_, count)| count));

    // Light sample count per prefix class. The sample is sorted, so each
    // prefix class is a contiguous run: count it by binary search, then
    // subtract the (few) heavy runs inside it.
    let mut light_count: Vec<usize> = (0..num_prefixes)
        .into_par_iter()
        .with_min_len(1024)
        .map(|pfx| {
            let lo = lower_bound_prefix(sorted_sample, pfx as u64, prefix_shift);
            let hi = lower_bound_prefix(sorted_sample, pfx as u64 + 1, prefix_shift);
            hi - lo
        })
        .collect();
    for &(key, count) in &heavy {
        light_count[(key >> prefix_shift) as usize] -= count;
    }

    // Merge adjacent prefixes into light buckets of ≥ δ samples.
    let mut prefix_to_bucket = vec![0u32; num_prefixes];
    let mut num_light = 0usize;
    {
        let mut acc = 0usize;
        let mut bucket_start_pfx = 0usize;
        for pfx in 0..num_prefixes {
            prefix_to_bucket[pfx] = (num_heavy + num_light) as u32;
            acc += light_count[pfx];
            let done = if cfg.merge_light_buckets {
                acc >= cfg.heavy_threshold
            } else {
                true
            };
            if done {
                sample_counts.push(acc);
                num_light += 1;
                acc = 0;
                bucket_start_pfx = pfx + 1;
            }
        }
        if acc > 0 || bucket_start_pfx < num_prefixes {
            // Trailing prefixes that never reached δ form a final bucket.
            sample_counts.push(acc);
            num_light += 1;
        }
    }

    BucketPlan {
        heavy_table,
        num_heavy,
        heavy_sample_records,
        sample_counts,
        prefix_to_bucket,
        num_light,
        prefix_shift,
    }
}

/// Number of prefix bits for the light-bucket partition: `log₂(n/log₂²n)`
/// rounded down, clamped to `[6, cap]`. With the paper's cap of 16 and
/// n = 10⁸ this saturates at 16 (their configuration); smaller inputs get
/// proportionally fewer, larger buckets, preserving the Θ(n/log²n) count
/// and the per-bucket sample density the estimator was tuned for.
pub fn effective_prefix_bits(n: usize, cap: u32) -> u32 {
    let nf = n.max(64) as f64;
    let log2n = nf.log2();
    let buckets = (nf / (log2n * log2n)).max(2.0);
    let lo = cap.min(6); // degenerate caps (< 6) win over the floor
    (buckets.log2().floor() as u32).clamp(lo, cap)
}

/// First index in the sorted sample whose prefix class is ≥ `pfx`.
fn lower_bound_prefix(sorted: &[u64], pfx: u64, shift: u32) -> usize {
    let (mut lo, mut hi) = (0, sorted.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if (sorted[mid] >> shift) < pfx {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Domain-separation constant so the heavy table's probe hash differs from
/// every other seeded hash in a run.
const TABLE_SEED: u64 = 0x7ab1_e5ee_d000_0001;

#[cfg(test)]
mod tests {
    use super::*;
    use parlay::hash64;

    fn sorted_sample_of(keys: &[u64]) -> Vec<u64> {
        let mut s = keys.to_vec();
        s.sort_unstable();
        s
    }

    fn cfg() -> SemisortConfig {
        SemisortConfig::default()
    }

    #[test]
    fn all_light_when_no_repeats() {
        let sample = sorted_sample_of(&(0..1000u64).map(hash64).collect::<Vec<_>>());
        let plan = build_plan(&sample, 16_000, &cfg());
        assert_eq!(plan.num_heavy, 0);
        assert_eq!(plan.heavy_sample_records, 0);
        assert!(plan.num_light > 0);
        assert_eq!(layout(&plan, 16_000).heavy_slots, 0);
    }

    #[test]
    fn one_heavy_key_detected() {
        let mut keys: Vec<u64> = (0..500u64).map(hash64).collect();
        keys.extend(std::iter::repeat_n(hash64(0xDEAD), 100));
        let sample = sorted_sample_of(&keys);
        let plan = build_plan(&sample, 9600, &cfg());
        assert_eq!(plan.num_heavy, 1);
        assert_eq!(plan.heavy_sample_records, 100);
        assert_eq!(plan.heavy_table.lookup(hash64(0xDEAD)), Some(0));
        assert_eq!(plan.heavy_table.lookup(hash64(1)), None);
    }

    #[test]
    fn threshold_is_at_least_delta() {
        // 15 repeats: light. 16 repeats: heavy.
        for (reps, expect_heavy) in [(15usize, 0usize), (16, 1)] {
            let mut keys: Vec<u64> = (0..200u64).map(hash64).collect();
            // The repeated key must be outside 0..200 or it gets +1 count.
            keys.extend(std::iter::repeat_n(hash64(9_999), reps));
            let sample = sorted_sample_of(&keys);
            let plan = build_plan(&sample, 6400, &cfg());
            assert_eq!(plan.num_heavy, expect_heavy, "reps={reps}");
        }
    }

    /// The paper's slot arena for `plan` at its default constants.
    fn layout(plan: &BucketPlan, n: usize) -> crate::scatter::ArenaLayout {
        crate::paper::arena_layout(plan, n, &crate::config::PaperConfig::default())
    }

    #[test]
    fn offsets_tile_total_slots() {
        let keys: Vec<u64> = (0..5000u64).map(|i| hash64(i % 300)).collect();
        let sample = sorted_sample_of(&keys);
        let plan = build_plan(&sample, 80_000, &cfg());
        assert_eq!(plan.sample_counts.len(), plan.num_buckets());
        assert_eq!(plan.sample_counts.iter().sum::<usize>(), sample.len());
        let layout = layout(&plan, 80_000);
        let mut expect = 0usize;
        for b in 0..plan.num_buckets() {
            assert_eq!(layout.bucket_offset[b], expect);
            assert!(layout.bucket_size[b].is_power_of_two());
            expect += layout.bucket_size[b];
        }
        assert_eq!(expect, layout.total_slots);
    }

    #[test]
    fn bucket_of_routes_heavy_and_light() {
        let mut keys: Vec<u64> = (0..500u64).map(hash64).collect();
        keys.extend(std::iter::repeat_n(hash64(7), 50));
        let sample = sorted_sample_of(&keys);
        let plan = build_plan(&sample, 8800, &cfg());
        let (b_heavy, is_heavy) = plan.bucket_of_tagged(hash64(7));
        assert!(is_heavy);
        assert!((b_heavy as usize) < plan.num_heavy);
        // An unsampled key routes to its prefix's light bucket.
        let novel = hash64(0xABCDEF);
        let (b_light, is_heavy) = plan.bucket_of_tagged(novel);
        assert!(!is_heavy);
        assert!((b_light as usize) >= plan.num_heavy);
        assert!((b_light as usize) < plan.num_buckets());
        assert_eq!(
            b_light,
            plan.prefix_to_bucket[(novel >> plan.prefix_shift) as usize]
        );
    }

    #[test]
    fn merged_buckets_monotone_over_prefixes() {
        let keys: Vec<u64> = (0..3000u64).map(hash64).collect();
        let sample = sorted_sample_of(&keys);
        let plan = build_plan(&sample, 48_000, &cfg());
        // prefix→bucket must be non-decreasing and cover exactly the light range.
        let mut prev = plan.num_heavy as u32;
        for &b in &plan.prefix_to_bucket {
            assert!(b >= prev || b == prev, "non-monotone prefix map");
            assert!(b >= plan.num_heavy as u32);
            assert!((b as usize) < plan.num_buckets());
            prev = prev.max(b);
        }
    }

    #[test]
    fn no_merging_gives_one_bucket_per_prefix() {
        let mut c = cfg();
        c.merge_light_buckets = false;
        c.light_bucket_log2 = 8; // keep the test small
        let keys: Vec<u64> = (0..2000u64).map(hash64).collect();
        let sample = sorted_sample_of(&keys);
        let plan = build_plan(&sample, 32_000, &c);
        let prefixes = 1usize << effective_prefix_bits(32_000, 8);
        assert_eq!(plan.num_light, prefixes);
        for (pfx, &b) in plan.prefix_to_bucket.iter().enumerate() {
            assert_eq!(b as usize, plan.num_heavy + pfx);
        }
    }

    #[test]
    fn empty_sample_still_produces_light_buckets() {
        // Tiny inputs can sample nothing; every record must still route.
        let plan = build_plan(&[], 10, &cfg());
        assert_eq!(plan.num_heavy, 0);
        assert!(plan.num_light >= 1);
        assert!(layout(&plan, 10).total_slots > 0);
        let b = plan.bucket_of(hash64(3));
        assert!((b as usize) < plan.num_buckets());
    }

    #[test]
    fn capacity_covers_sample_scaleup() {
        // A heavy key with s sample hits gets at least s/p slots.
        let mut keys = vec![hash64(1); 64];
        keys.extend((0..100u64).map(hash64));
        let sample = sorted_sample_of(&keys);
        let c = cfg();
        let plan = build_plan(&sample, 2624, &c);
        assert_eq!(plan.num_heavy, 1);
        assert!(layout(&plan, 2624).bucket_size[0] >= 64 * c.sample_stride());
    }

    /// The plan the driver would build for `records` (strided sample,
    /// sorted).
    fn plan_for(records: &[(u64, u64)]) -> BucketPlan {
        let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
        let mut sample =
            crate::sample::strided_sample(&keys, cfg().sample_shift, parlay::random::Rng::new(1));
        sample.sort_unstable();
        build_plan(&sample, records.len(), &cfg())
    }

    /// Distribute `records` into a fresh buffer; the region bounds come
    /// back owned.
    fn distribute(plan: &BucketPlan, records: &[(u64, u64)]) -> (Vec<(u64, u64)>, Vec<usize>) {
        let mut out = vec![(0, 0); records.len()];
        let mut scratch = CountingScratch::default();
        let starts = plan
            .distribute_into(records, &mut out, &mut scratch)
            .to_vec();
        (out, starts)
    }

    #[test]
    fn permutes_into_exact_regions() {
        let records: Vec<(u64, u64)> = (0..40_000u64).map(|i| (hash64(i % 3000), i)).collect();
        let plan = plan_for(&records);
        let (out, starts) = distribute(&plan, &records);
        assert!(crate::verify::is_permutation_of(&out, &records));
        assert_eq!(starts.len(), plan.num_buckets() + 1);
        for b in 0..plan.num_buckets() {
            for &(key, i) in &out[starts[b]..starts[b + 1]] {
                assert_eq!(
                    plan.bucket_of(key) as usize,
                    b,
                    "record {i} in wrong region"
                );
            }
            // Stable: within a region, records keep their input order.
            let region = &out[starts[b]..starts[b + 1]];
            assert!(region.windows(2).all(|w| w[0].1 < w[1].1));
        }
    }

    #[test]
    fn all_equal_keys_need_no_movement() {
        let records: Vec<(u64, u64)> = (0..20_000u64).map(|i| (hash64(7), i)).collect();
        let plan = plan_for(&records);
        assert_eq!(plan.num_heavy, 1);
        let (out, starts) = distribute(&plan, &records);
        assert_eq!(out, records, "one region, stable order: the identity");
        assert_eq!(starts[1], records.len(), "the heavy region holds all");
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let plan = build_plan(&[], 0, &cfg());
        let (out, starts) = distribute(&plan, &[]);
        assert!(out.is_empty());
        assert!(starts.iter().all(|&s| s == 0));
    }

    #[test]
    fn scratch_is_reused_across_runs() {
        let records: Vec<(u64, u64)> = (0..30_000u64).map(|i| (hash64(i % 500), i)).collect();
        let plan = plan_for(&records);
        let mut scratch = CountingScratch::default();
        let mut out = vec![(0, 0); records.len()];
        plan.distribute_into(&records, &mut out, &mut scratch);
        let held = scratch.bytes();
        assert!(held > 0, "a cold scratch must allocate");
        let first = out.clone();
        plan.distribute_into(&records, &mut out, &mut scratch);
        assert_eq!(scratch.bytes(), held, "steady state: no regrowth");
        assert_eq!(out, first, "stable: the same input lands the same way");
    }

    #[test]
    fn scratch_is_far_below_arena() {
        let records: Vec<(u64, u64)> = (0..200_000u64).map(|i| (hash64(i), i)).collect();
        let plan = plan_for(&records);
        let mut scratch = CountingScratch::default();
        let mut out = vec![(0, 0); records.len()];
        parlay::with_threads(2, || plan.distribute_into(&records, &mut out, &mut scratch));
        let arena = crate::scatter::arena_bytes::<u64>(&layout(&plan, records.len()));
        let held = scratch.bytes();
        assert!(
            held * 4 <= arena,
            "counting scratch {held} not ≥4× below arena {arena}"
        );
    }
}
