//! Phase 2: heavy/light classification.
//!
//! From the *sorted* sample this module derives the bucket structure every
//! distribution routes records through:
//!
//! - **Heavy keys** — hashed keys appearing at least δ times in the sample
//!   ("If the count for a key is greater than δ = 16, we insert the key
//!   into a hash table" — §4 Phase 2). Each heavy key gets its own bucket;
//!   in place of `T`, heavy bucket `b` is the `b`-th key of the sorted
//!   list of heavy keys, so no key is reserved as a vacancy sentinel.
//! - **Light keys** — everything else. The 64-bit hash range is split into
//!   `2^16` equal prefix classes; adjacent classes are merged until each
//!   bucket holds at least δ sample records (the ≤10% optimization of §4).
//!
//! Heavy buckets come first, then light. A record is routed by its key's
//! prefix class first: one route entry per prefix gives the prefix's
//! light bucket outright, unless the sample put a heavy key in that
//! prefix. Such a prefix's entry points into a small side table; when the
//! prefix holds exactly one heavy key, one compare against it decides the
//! bucket, and only a prefix holding two or more heavy keys binary-searches
//! its slice of that list (two or three keys on hashed input). So an input
//! with few heavy keys pays one `u32` load per record, not a probe.
//!
//! The plan records each bucket's sample count; the engine's exact
//! distribution needs nothing more, and the paper's CAS scatter sizes its
//! slot arena from those counts ([`crate::paper::arena_layout`]).

use parlay::counting_sort::{counting_sort_into_vec_with, CountingScratch};
use rayon::prelude::*;

use crate::config::SemisortConfig;

/// Route-entry bit marking a prefix that holds heavy keys: the rest of the
/// entry indexes [`BucketPlan`]'s side table instead of naming a bucket.
const HEAVY_PREFIX: u32 = 1 << 31;

/// [`HeavyPrefix::heavy`] of a prefix holding two or more heavy keys.
const SEVERAL: u32 = u32::MAX;

/// A prefix class the sample put at least one heavy key in.
#[derive(Clone, Copy)]
struct HeavyPrefix {
    /// The prefix's only heavy key, or for [`SEVERAL`] the range `lo..hi`
    /// of its heavy buckets as `lo | hi << 32` (heavy ids are below 2^31).
    key: u64,
    /// That key's heavy bucket, or [`SEVERAL`].
    heavy: u32,
    /// The prefix's light bucket (global id).
    light: u32,
}

/// The bucket structure of one semisort run, produced from the sorted
/// sample.
pub struct BucketPlan {
    /// The heavy keys, sorted: heavy bucket `b` holds key `heavy_keys[b]`.
    pub heavy_keys: Vec<u64>,
    /// Per bucket (heavy buckets then light buckets): how many sample
    /// records it received — what the paper's estimator sizes it from.
    pub sample_counts: Vec<usize>,
    /// Number of light buckets after merging.
    pub num_light: usize,
    /// Right-shift turning a hashed key into its prefix class.
    pub prefix_shift: u32,
    /// Per prefix class (length `2^prefix bits`): its light bucket's
    /// global id, or `HEAVY_PREFIX | i` for entry `i` of `heavy_prefixes`.
    route: Vec<u32>,
    /// The prefixes holding heavy keys, in prefix order.
    heavy_prefixes: Vec<HeavyPrefix>,
}

impl BucketPlan {
    /// Number of heavy keys, which is the number of heavy buckets.
    pub fn num_heavy(&self) -> usize {
        self.heavy_keys.len()
    }

    /// Total number of buckets (heavy + light).
    pub fn num_buckets(&self) -> usize {
        self.num_heavy() + self.num_light
    }

    /// The global bucket id for a record with hashed key `key`: its heavy
    /// bucket if the key is heavy, else its prefix's light bucket. Heavy
    /// buckets are the ids below [`Self::num_heavy`].
    #[inline(always)]
    pub fn bucket_of(&self, key: u64) -> u32 {
        let prefix = (key >> self.prefix_shift) as usize;
        let entry = self.route[prefix];
        if entry & HEAVY_PREFIX == 0 {
            return entry;
        }
        let side = (entry & !HEAVY_PREFIX) as usize;
        let hp = self.heavy_prefixes[side];
        if hp.heavy != SEVERAL {
            return if key == hp.key { hp.heavy } else { hp.light };
        }
        let (lo, hi) = (hp.key as u32 as usize, (hp.key >> 32) as usize);
        match self.heavy_keys[lo..hi].binary_search(&key) {
            Ok(i) => (lo + i) as u32,
            Err(_) => hp.light,
        }
    }

    /// The exact distribution: move every record of `src` into its bucket's
    /// region of `dst` with one stable counting sort keyed by
    /// [`Self::bucket_of`], and return the region bounds (bucket `b` holds
    /// `dst[starts[b]..starts[b + 1]]`, heavy buckets first; the slice
    /// lives in `scratch` until its next use).
    ///
    /// `dst` is cleared and refilled to `src.len()` records: each is
    /// written once, straight into its spare capacity
    /// ([`counting_sort_into_vec_with`]), so a warm `dst` keeps its
    /// allocation and a fresh one is first touched by the parallel
    /// replay. The counts are exact, so unlike the paper's slot arena
    /// nothing can overflow and nothing needs packing. The sort is stable,
    /// so `dst` is a function of `src` and the plan alone, at any thread
    /// count. Both the driver and the by-key aggregation distribute
    /// through here.
    pub fn distribute_into<'s, V: Copy + Send + Sync>(
        &self,
        src: &[(u64, V)],
        dst: &mut Vec<(u64, V)>,
        scratch: &'s mut CountingScratch,
    ) -> &'s [usize] {
        counting_sort_into_vec_with(
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
///
/// # Panics
///
/// If the plan would hold `2^31` buckets or more.
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
    let run_len = |j: usize| {
        let end = if j + 1 < num_distinct {
            starts[j + 1]
        } else {
            s_len
        };
        end - starts[j]
    };

    // Heavy keys: distinct keys whose run length reaches δ. Heavy bucket
    // `b` is the key of run `heavy[b]`; the sample is sorted, so the heavy
    // keys come in key (and so prefix) order.
    let heavy = parlay::pack_index(num_distinct, |j| run_len(j) >= cfg.heavy_threshold);
    let heavy_keys: Vec<u64> = heavy.iter().map(|&j| sorted_sample[starts[j]]).collect();
    let num_heavy = heavy.len();
    let mut sample_counts: Vec<usize> = Vec::with_capacity(num_heavy + 64);
    sample_counts.extend(heavy.iter().map(|&j| run_len(j)));

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
    for (&key, &count) in heavy_keys.iter().zip(&sample_counts) {
        let pfx = (key >> prefix_shift) as usize;
        light_count[pfx] -= count;
    }

    // Merge adjacent prefixes into light buckets of ≥ δ samples.
    let mut route = vec![0u32; num_prefixes];
    let mut num_light = 0usize;
    {
        let mut acc = 0usize;
        let mut bucket_start_pfx = 0usize;
        for pfx in 0..num_prefixes {
            route[pfx] = (num_heavy + num_light) as u32;
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
    assert!(
        ((num_heavy + num_light) as u64) < HEAVY_PREFIX as u64,
        "bucket ids must leave the route's heavy-prefix bit free"
    );

    // Point each prefix holding heavy keys at its side-table entry.
    let mut heavy_prefixes: Vec<HeavyPrefix> = Vec::with_capacity(num_heavy);
    let mut first = 0; // the heavy bucket that opened the last entry
    for (b, &key) in heavy_keys.iter().enumerate() {
        let pfx = (key >> prefix_shift) as usize;
        let entry = route[pfx];
        if entry & HEAVY_PREFIX == 0 {
            first = b;
            route[pfx] = HEAVY_PREFIX | heavy_prefixes.len() as u32;
            heavy_prefixes.push(HeavyPrefix {
                key,
                heavy: b as u32,
                light: entry,
            });
        } else if let Some(hp) = heavy_prefixes.last_mut() {
            // Heavy keys come in prefix order: this prefix's entry is the
            // last, and its heavy buckets are `first..=b`.
            hp.key = first as u64 | (b as u64 + 1) << 32;
            hp.heavy = SEVERAL;
        }
    }

    BucketPlan {
        heavy_keys,
        sample_counts,
        num_light,
        prefix_shift,
        route,
        heavy_prefixes,
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

    /// The light bucket (global id) of prefix class `pfx`: where its keys
    /// go unless they are heavy.
    fn light_bucket(plan: &BucketPlan, pfx: usize) -> u32 {
        let entry = plan.route[pfx];
        if entry & HEAVY_PREFIX == 0 {
            entry
        } else {
            let side = (entry & !HEAVY_PREFIX) as usize;
            plan.heavy_prefixes[side].light
        }
    }

    #[test]
    fn all_light_when_no_repeats() {
        let sample = sorted_sample_of(&(0..1000u64).map(hash64).collect::<Vec<_>>());
        let plan = build_plan(&sample, 16_000, &cfg());
        assert_eq!(plan.num_heavy(), 0);
        assert!(plan.heavy_keys.is_empty());
        assert!(plan.num_light > 0);
        assert_eq!(layout(&plan, 16_000).heavy_slots, 0);
    }

    #[test]
    fn one_heavy_key_detected() {
        let mut keys: Vec<u64> = (0..500u64).map(hash64).collect();
        keys.extend(std::iter::repeat_n(hash64(0xDEAD), 100));
        let sample = sorted_sample_of(&keys);
        let plan = build_plan(&sample, 9600, &cfg());
        assert_eq!(plan.num_heavy(), 1);
        assert_eq!(plan.heavy_keys, [hash64(0xDEAD)]);
        assert_eq!(plan.sample_counts[0], 100);
        assert_eq!(plan.bucket_of(hash64(0xDEAD)), 0);
        assert!(plan.bucket_of(hash64(1)) >= 1);
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
            assert_eq!(plan.num_heavy(), expect_heavy, "reps={reps}");
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
        let b_heavy = plan.bucket_of(hash64(7));
        assert!((b_heavy as usize) < plan.num_heavy());
        // An unsampled key routes to its prefix's light bucket.
        let novel = hash64(0xABCDEF);
        let b_light = plan.bucket_of(novel);
        assert!((b_light as usize) >= plan.num_heavy());
        assert!((b_light as usize) < plan.num_buckets());
        assert_eq!(
            b_light,
            light_bucket(&plan, (novel >> plan.prefix_shift) as usize)
        );
    }

    #[test]
    fn merged_buckets_monotone_over_prefixes() {
        let keys: Vec<u64> = (0..3000u64).map(hash64).collect();
        let sample = sorted_sample_of(&keys);
        let plan = build_plan(&sample, 48_000, &cfg());
        // prefix→bucket must be non-decreasing and cover exactly the light range.
        let mut prev = plan.num_heavy() as u32;
        for pfx in 0..plan.route.len() {
            let b = light_bucket(&plan, pfx);
            assert!(b >= prev, "non-monotone prefix map");
            assert!((b as usize) < plan.num_buckets());
            prev = b;
        }
        assert_eq!(
            prev as usize,
            plan.num_buckets() - 1,
            "every light bucket used"
        );
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
        assert_eq!(plan.route.len(), prefixes);
        for pfx in 0..prefixes {
            assert_eq!(light_bucket(&plan, pfx) as usize, plan.num_heavy() + pfx);
        }
    }

    /// The reference routing rule: heavy key `heavy_keys[b]` goes to heavy
    /// bucket `b`, any other key to its prefix's light bucket.
    fn reference_bucket(plan: &BucketPlan, key: u64) -> u32 {
        match plan.heavy_keys.binary_search(&key) {
            Ok(b) => b as u32,
            Err(_) => light_bucket(plan, (key >> plan.prefix_shift) as usize),
        }
    }

    /// Assert `bucket_of` agrees with [`reference_bucket`] on `keys`.
    fn assert_routes_as_reference(plan: &BucketPlan, keys: &[u64], shape: &str) {
        for &k in keys {
            assert_eq!(
                plan.bucket_of(k),
                reference_bucket(plan, k),
                "{shape}: key {k:#x}"
            );
        }
    }

    /// A key in prefix class `pfx` of `plan` (low bits from `salt`).
    fn key_in_prefix(plan: &BucketPlan, pfx: u64, salt: u64) -> u64 {
        let low_mask = (1u64 << plan.prefix_shift) - 1;
        (pfx << plan.prefix_shift) | (hash64(salt) & low_mask)
    }

    #[test]
    fn routing_matches_the_reference_rule_on_every_shape() {
        let c = cfg();
        let delta = c.heavy_threshold;
        let n = 1 << 20;
        let shift = 64 - effective_prefix_bits(n, c.light_bucket_log2);
        let in_prefix = |pfx: u64, salt: u64| {
            let low_mask = (1u64 << shift) - 1;
            (pfx << shift) | (hash64(salt) & low_mask)
        };
        let light: Vec<u64> = (0..4000u64).map(|i| hash64(i + 1_000_000)).collect();
        let unsampled: Vec<u64> = (0..4000u64).map(|i| hash64(i + 9_000_000)).collect();

        // All light.
        let sample = sorted_sample_of(&light);
        let plan = build_plan(&sample, n, &c);
        assert_eq!(plan.num_heavy(), 0);
        assert_routes_as_reference(&plan, &light, "all-light");
        assert_routes_as_reference(&plan, &unsampled, "all-light, unsampled");

        // One heavy key in each of 64 prefixes, light keys around them,
        // including light keys sharing a prefix with exactly one heavy key.
        let singles: Vec<u64> = (0..64u64).map(|p| in_prefix(p * 3, p)).collect();
        let neighbours: Vec<u64> = (0..64u64).map(|p| in_prefix(p * 3, p + 500)).collect();
        let mut keys = light.clone();
        keys.extend(neighbours.iter().copied());
        for &k in &singles {
            keys.extend(std::iter::repeat_n(k, delta));
        }
        let plan = build_plan(&sorted_sample_of(&keys), n, &c);
        assert_eq!(plan.num_heavy(), singles.len());
        assert_eq!(plan.heavy_prefixes.len(), singles.len());
        assert!(plan.heavy_prefixes.iter().all(|hp| hp.heavy != SEVERAL));
        for shape in [&singles, &neighbours, &light, &unsampled] {
            assert_routes_as_reference(&plan, shape, "one heavy key per prefix");
        }
        for (&h, &l) in singles.iter().zip(&neighbours) {
            assert!((plan.bucket_of(h) as usize) < plan.num_heavy());
            assert!(
                (plan.bucket_of(l) as usize) >= plan.num_heavy(),
                "light neighbour"
            );
        }

        // Two and more heavy keys in one prefix, beside a single.
        let several: Vec<u64> = (0..5u64).map(|s| in_prefix(7, s + 40)).collect();
        let single = in_prefix(9, 1);
        let mut keys = light.clone();
        for &k in several.iter().chain([&single]) {
            keys.extend(std::iter::repeat_n(k, delta + 3));
        }
        let plan = build_plan(&sorted_sample_of(&keys), n, &c);
        assert_eq!(plan.num_heavy(), several.len() + 1);
        assert_eq!(plan.heavy_prefixes.len(), 2);
        assert_eq!(plan.heavy_prefixes[0].heavy, SEVERAL);
        let shared: Vec<u64> = (0..200u64).map(|s| in_prefix(7, s + 1000)).collect();
        for shape in [&several, &shared, &vec![single], &light, &unsampled] {
            assert_routes_as_reference(&plan, shape, "several heavy keys in one prefix");
        }
        let mut heavy_buckets: Vec<u32> = several.iter().map(|&k| plan.bucket_of(k)).collect();
        heavy_buckets.sort_unstable();
        heavy_buckets.dedup();
        assert_eq!(
            heavy_buckets.len(),
            several.len(),
            "one bucket per heavy key"
        );

        // Hostile pre-hashed keys: one prefix holding 1200 heavy keys.
        let crowd: Vec<u64> = (0..1200u64).map(|s| in_prefix(11, s + 2000)).collect();
        let mut keys = light.clone();
        for &k in &crowd {
            keys.extend(std::iter::repeat_n(k, delta));
        }
        let plan = build_plan(&sorted_sample_of(&keys), n, &c);
        assert!(plan.num_heavy() >= 1000, "{} heavy keys", plan.num_heavy());
        assert_eq!(plan.heavy_prefixes.len(), 1);
        assert_eq!(plan.heavy_prefixes[0].heavy, SEVERAL);
        let crowd_light: Vec<u64> = (0..2000u64).map(|s| in_prefix(11, s + 9000)).collect();
        for shape in [&crowd, &crowd_light, &light, &unsampled] {
            assert_routes_as_reference(&plan, shape, "one crowded prefix");
        }

        // The extreme keys 0 and u64::MAX, in the first and last prefix
        // classes: each alone in its prefix, then each beside other heavy
        // keys of its prefix.
        let last = u64::MAX >> shift;
        let near_extremes: Vec<u64> = (0..300u64)
            .flat_map(|s| [in_prefix(0, s + 5000), in_prefix(last, s + 5000)])
            .chain([1, u64::MAX - 1])
            .collect();
        let mates = [in_prefix(0, 77), in_prefix(0, 78), in_prefix(last, 79)];
        for (heavy_set, several) in [
            (vec![0, u64::MAX], false),
            ([0, u64::MAX].into_iter().chain(mates).collect(), true),
        ] {
            let mut keys = light.clone();
            for &k in &heavy_set {
                keys.extend(std::iter::repeat_n(k, delta));
            }
            let plan = build_plan(&sorted_sample_of(&keys), n, &c);
            assert_eq!(plan.num_heavy(), heavy_set.len());
            assert_eq!(plan.heavy_prefixes.len(), 2);
            assert!(plan
                .heavy_prefixes
                .iter()
                .all(|hp| (hp.heavy == SEVERAL) == several));
            assert_eq!(plan.bucket_of(0), 0, "key 0 is the first heavy key");
            assert_eq!(plan.bucket_of(u64::MAX) as usize, plan.num_heavy() - 1);
            let shape = format!("extreme keys, several per prefix: {several}");
            for keys in [&heavy_set, &near_extremes, &light, &unsampled] {
                assert_routes_as_reference(&plan, keys, &shape);
            }
        }
    }

    #[test]
    fn routing_matches_the_reference_rule_on_the_pairs_heavy_shape() {
        // Exponential keys of mean n/10⁴ over a 1/16 sample: about 1.5k
        // heavy keys holding most records, scattered over the prefixes.
        let n = 1usize << 22;
        let rng = parlay::random::Rng::new(5);
        let mut keys: Vec<u64> = (0..(n / 16) as u64)
            .map(|i| hash64((-(1.0 - rng.at_f64(i)).ln() * (n as f64 / 1e4)) as u64))
            .collect();
        keys.sort_unstable();
        let plan = build_plan(&keys, n, &cfg());
        assert!(
            (1000..2500).contains(&plan.num_heavy()),
            "pairs-heavy shape: {} heavy keys",
            plan.num_heavy()
        );
        assert!(plan.heavy_prefixes.iter().any(|hp| hp.heavy == SEVERAL));
        assert!(plan.heavy_prefixes.iter().any(|hp| hp.heavy != SEVERAL));
        let mut probe = keys.clone();
        probe.dedup();
        probe.extend((0..20_000u64).map(|i| hash64(i + (1 << 40))));
        probe.extend((0..plan.route.len() as u64).map(|p| key_in_prefix(&plan, p, p)));
        assert_routes_as_reference(&plan, &probe, "pairs-heavy");
    }

    #[test]
    fn empty_sample_still_produces_light_buckets() {
        // Tiny inputs can sample nothing; every record must still route.
        let plan = build_plan(&[], 10, &cfg());
        assert_eq!(plan.num_heavy(), 0);
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
        assert_eq!(plan.num_heavy(), 1);
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
        let mut out = Vec::new();
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
        assert_eq!(plan.num_heavy(), 1);
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
