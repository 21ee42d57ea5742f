//! The paper's Phase 5: pack the slot arena into the contiguous output
//! (run by [`crate::paper`]; the engine's exact distribution has no pack).
//!
//! "The algorithm that we use to pack the portion of the array for the
//! heavy key buckets consists of 3 steps: first, the array is divided into
//! 1000 intervals and each interval is packed individually and sequentially
//! by just scanning the interval; second, we apply a sequential prefix sum
//! on the counts for the intervals to compute the boundaries; finally, we
//! write the records into their appropriate indices in A′ in parallel. The
//! portion of the array for the light key buckets is already packed from
//! Phase 4 so we simply copy the records into A′ in parallel." (§4.)
//!
//! Correctness note: interval boundaries may straddle heavy buckets, but
//! compaction preserves slot order and each heavy bucket is a contiguous
//! slot range holding a single key — so every heavy key's records stay
//! contiguous in the packed output.

use parlay::shared::SendPtr;
use rayon::prelude::*;

use crate::buckets::BucketPlan;
use crate::scatter::{ArenaLayout, Slot};

/// Number of heavy-region intervals (the paper's constant).
const INTERVALS: usize = 1000;

/// Assemble the semisorted output from the slot array laid out as
/// `layout`: packed heavy region first, then the light buckets' sorted
/// fronts.
pub fn pack_output<V: Copy + Send + Sync>(
    plan: &BucketPlan,
    layout: &ArenaLayout,
    slots: &[Slot<V>],
    light_counts: &[usize],
) -> Vec<(u64, V)> {
    debug_assert_eq!(light_counts.len(), plan.num_light);
    let heavy_slots = layout.heavy_slots;
    let heavy_region = &slots[..heavy_slots];

    // Step 1: pack each interval in place, sequentially per interval.
    let intervals = INTERVALS.min(heavy_slots.max(1));
    let mut interval_counts: Vec<usize> = (0..intervals)
        .into_par_iter()
        .map(|t| {
            let lo = (heavy_slots * t) / intervals;
            let hi = (heavy_slots * (t + 1)) / intervals;
            let mut w = lo;
            for i in lo..hi {
                if heavy_region[i].occupied() {
                    if i != w {
                        // SAFETY: this task owns slots [lo, hi), scatter
                        // has joined, and slot i is occupied (initialized).
                        let (k, v) = (heavy_region[i].key(), unsafe { heavy_region[i].value() });
                        heavy_region[w].set(k, v);
                    }
                    w += 1;
                }
            }
            w - lo
        })
        .collect();

    // Step 2: interval boundaries in the output.
    let heavy_total = parlay::scan_add_exclusive(&mut interval_counts);
    let interval_offsets = interval_counts; // renamed post-scan

    // Light bucket boundaries follow the heavy region.
    let mut light_offsets = light_counts.to_vec();
    let light_total = parlay::scan_add_exclusive(&mut light_offsets);
    let n_out = heavy_total + light_total;

    // Step 3: parallel copies into the output.
    let mut out = Vec::with_capacity(n_out);
    let out_ptr = SendPtr(out.spare_capacity_mut().as_mut_ptr());

    // Heavy intervals.
    (0..intervals).into_par_iter().for_each(|t| {
        let lo = (heavy_slots * t) / intervals;
        let hi = (heavy_slots * (t + 1)) / intervals;
        let count = if t + 1 < intervals {
            interval_offsets[t + 1] - interval_offsets[t]
        } else {
            heavy_total - interval_offsets[t]
        };
        debug_assert!(count <= hi - lo);
        let ptr = out_ptr;
        for i in 0..count {
            let s = &heavy_region[lo + i];
            // SAFETY: disjoint output ranges per interval (offsets from the
            // scan); slots [lo, lo+count) were compacted/occupied above.
            unsafe { (*ptr.0.add(interval_offsets[t] + i)).write((s.key(), s.value())) };
        }
    });

    // Light buckets.
    (0..plan.num_light).into_par_iter().for_each(|li| {
        let b = plan.num_heavy + li;
        let base = layout.bucket_offset[b];
        let dst = heavy_total + light_offsets[li];
        let ptr = out_ptr;
        for i in 0..light_counts[li] {
            let s = &slots[base + i];
            // SAFETY: disjoint output ranges per bucket; the first
            // `light_counts[li]` slots hold Phase 4's sorted records.
            unsafe { (*ptr.0.add(dst + i)).write((s.key(), s.value())) };
        }
    });

    // SAFETY: heavy intervals wrote [0, heavy_total) and light buckets wrote
    // [heavy_total, n_out), jointly initializing every slot.
    unsafe { out.set_len(n_out) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buckets::build_plan;
    use crate::config::PaperConfig;
    use crate::local_sort::local_sort_light_buckets;
    use crate::paper::arena_layout;
    use crate::sample::strided_sample;
    use crate::scatter::{allocate_arena, scatter, ScatterArena};
    use crate::verify::is_semisorted_by;
    use parlay::hash64;
    use parlay::random::Rng;

    /// Phases 1–4 of a paper run on `records`: the plan, its layout, the
    /// scattered arena and the light buckets' record counts.
    fn through_phase4(
        records: &[(u64, u64)],
    ) -> (BucketPlan, ArenaLayout, ScatterArena<u64>, Vec<usize>) {
        let cfg = PaperConfig::default();
        let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
        let mut sample = strided_sample(&keys, cfg.base.sample_shift, Rng::new(3));
        sample.sort_unstable();
        let plan = build_plan(&sample, records.len(), &cfg.base);
        let layout = arena_layout(&plan, records.len(), &cfg);
        let arena = allocate_arena::<u64>(&layout);
        let sink = crate::obs::ObsSink::disabled();
        let out = scatter(
            records,
            &plan,
            &layout,
            &arena.slots,
            cfg.probe_strategy,
            cfg.prefetch_distance,
            Rng::new(4),
            &sink,
            None,
        );
        assert!(!out.overflowed);
        let counts = local_sort_light_buckets(
            &plan,
            &layout,
            &arena.slots,
            cfg.base.local_sort_algo,
            &sink,
        );
        (plan, layout, arena, counts)
    }

    fn full_pipeline(records: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let (plan, layout, arena, counts) = through_phase4(records);
        pack_output(&plan, &layout, &arena.slots, &counts)
    }

    #[test]
    fn output_is_a_permutation() {
        let records: Vec<(u64, u64)> = (0..60_000u64).map(|i| (hash64(i % 3000), i)).collect();
        let out = full_pipeline(&records);
        assert_eq!(out.len(), records.len());
        let mut got = out.clone();
        got.sort_unstable();
        let mut want = records.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn output_is_semisorted_mixed_heavy_light() {
        // Heavy keys (few, huge) + light keys (many, small).
        let records: Vec<(u64, u64)> = (0..80_000u64)
            .map(|i| {
                let k = if i % 2 == 0 { i % 4 } else { 10_000 + i };
                (hash64(k), i)
            })
            .collect();
        let out = full_pipeline(&records);
        assert!(is_semisorted_by(&out, |r| r.0));
    }

    #[test]
    fn all_heavy_input() {
        let records: Vec<(u64, u64)> = (0..50_000u64).map(|i| (hash64(i % 3), i)).collect();
        let out = full_pipeline(&records);
        assert_eq!(out.len(), records.len());
        assert!(is_semisorted_by(&out, |r| r.0));
    }

    #[test]
    fn pack_ignores_slots_beyond_light_bucket_counts() {
        // Regression: pack must read exactly `light_counts[li]` slots per
        // light bucket — records past the count fence (e.g. stale slots a
        // local-sort bug would leave behind) must never reach the output.
        let records: Vec<(u64, u64)> = (0..40_000u64).map(|i| (hash64(i), i)).collect();
        let (plan, layout, arena, counts) = through_phase4(&records);

        // Poison the last slot of every light bucket with slack. (Heavy
        // buckets are excluded: the heavy pack legitimately scans occupancy.)
        const POISON: u64 = u64::MAX;
        let mut poisoned = 0usize;
        for (li, &cnt) in counts.iter().enumerate() {
            let b = plan.num_heavy + li;
            let base = layout.bucket_offset[b];
            let size = layout.bucket_size[b];
            if cnt < size {
                arena.slots[base + size - 1].set(POISON, POISON);
                poisoned += 1;
            }
        }
        assert!(poisoned > 0, "need at least one bucket with slack");

        let got = pack_output(&plan, &layout, &arena.slots, &counts);
        assert!(
            got.iter().all(|&(k, _)| k != POISON),
            "a poisoned slot beyond the count fence leaked into the output"
        );
        let mut sorted = got;
        sorted.sort_unstable();
        let mut want = records;
        want.sort_unstable();
        assert_eq!(sorted, want, "output must still be an exact permutation");
    }

    #[test]
    fn all_light_input() {
        let records: Vec<(u64, u64)> = (0..50_000u64).map(|i| (hash64(i), i)).collect();
        let out = full_pipeline(&records);
        assert_eq!(out.len(), records.len());
        assert!(is_semisorted_by(&out, |r| r.0));
    }
}
