//! Phase 4: locally sort each light bucket — the exact regions of the
//! engine's distribution ([`sort_light_regions`]), or the slot ranges of
//! the paper's CAS scatter ([`local_sort_light_buckets`]).
//!
//! "After all the records are inserted into the buckets, a pack followed by
//! a local sort is executed on each bucket. … the local sort in each array
//! is sequential since sorting a single array is fast, and usually there
//! are many more arrays than processors, so this step has good parallelism."
//! (§4 Phase 4.) Light buckets have expected size `O(log² n)` and fit in
//! cache, which is why this phase shows the highest speedups in Tables 2–3.
//!
//! Heavy buckets are untouched here: all their records share one key, so
//! the distribution (or the paper's compaction, Phase 5) alone semisorts
//! them.

use rayon::prelude::*;

use crate::buckets::BucketPlan;
use crate::config::LocalSortAlgo;
use crate::obs::ObsSink;
use crate::scatter::{ArenaLayout, Slot};

/// Compact each light bucket's occupied slots to the bucket front, sort
/// them by key with `algo`, and return the per-light-bucket record counts.
/// `slots` is the scattered slot array laid out as `layout` (see
/// [`crate::scatter::scatter`]).
///
/// At `Deep` telemetry, each light bucket's occupancy (its record count —
/// already computed here for free) is recorded into `sink`'s occupancy
/// histogram; heavy buckets hold a single key each, so their "occupancy"
/// is just that key's multiplicity, visible in the heavy-records stat.
pub fn local_sort_light_buckets<V: Copy + Send + Sync>(
    plan: &BucketPlan,
    layout: &ArenaLayout,
    slots: &[Slot<V>],
    algo: LocalSortAlgo,
    sink: &ObsSink,
) -> Vec<usize> {
    (plan.num_heavy..plan.num_buckets())
        .into_par_iter()
        .map(|b| {
            let base = layout.bucket_offset[b];
            let size = layout.bucket_size[b];
            let bucket = &slots[base..base + size];

            // Pack: gather occupied records.
            let mut records: Vec<(u64, V)> = bucket
                .iter()
                .filter(|s| s.occupied())
                // SAFETY: scatter has joined; this task is the unique
                // owner of this bucket's slots, and the filter admits
                // only occupied (initialized) ones.
                .map(|s| (s.key(), unsafe { s.value() }))
                .collect();

            sink.record_occupancy(records.len() as u64);
            sort_records(&mut records, algo);

            // Write the sorted run back to the bucket front; the tail stays
            // stale but is never read (the count fences it).
            for (i, &(k, v)) in records.iter().enumerate() {
                bucket[i].set(k, v);
            }
            records.len()
        })
        .collect()
}

/// Sort every light-bucket region of `out` by key, in parallel (heavy
/// regions hold a single key and need no sort). `starts` are the region
/// bounds from [`BucketPlan::distribute_into`]. This is the engine's
/// Phase 4, which has no slots to compact and no pack.
pub fn sort_light_regions<V: Copy + Send + Sync>(
    out: &mut [(u64, V)],
    plan: &BucketPlan,
    starts: &[usize],
    algo: LocalSortAlgo,
) {
    debug_assert_eq!(starts.len(), plan.num_buckets() + 1);
    let mut rest = &mut out[starts[plan.num_heavy]..];
    let mut regions = Vec::with_capacity(plan.num_light);
    for w in starts[plan.num_heavy..].windows(2) {
        let (region, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
        regions.push(region);
        rest = tail;
    }
    regions
        .into_par_iter()
        .for_each(|region| sort_records(region, algo));
}

/// Sort a small record run by key with the configured algorithm.
pub fn sort_records<V: Copy>(records: &mut [(u64, V)], algo: LocalSortAlgo) {
    match algo {
        LocalSortAlgo::StdUnstable => records.sort_unstable_by_key(|r| r.0),
        LocalSortAlgo::StdStable => records.sort_by_key(|r| r.0),
        LocalSortAlgo::Counting => counting_group(records),
    }
}

/// The theoretical Step 7c: solve the naming problem with a small local
/// hash table (labels in first-seen order), then one stable counting-sort
/// pass over the labels. Groups equal keys contiguously — a semisort of the
/// bucket, which is all correctness needs. Distinct keys end up in
/// first-seen order rather than hash order.
fn counting_group<V: Copy>(records: &mut [(u64, V)]) {
    let n = records.len();
    if n <= 1 {
        return;
    }
    // Naming: open-addressed local table key → dense label. Occupancy is an
    // explicit flag (not a sentinel key), so every u64 — including 0 and
    // u64::MAX — is a legal key for direct `sort_records` callers.
    let cap = (2 * n).next_power_of_two();
    let mask = cap - 1;
    let mut table_used = vec![false; cap];
    let mut table_keys = vec![0u64; cap];
    let mut table_labels = vec![0u32; cap];
    let mut labels = Vec::with_capacity(n);
    let mut next = 0u32;
    for &(k, _) in records.iter() {
        let mut i = (parlay::hash64(k) as usize) & mask;
        loop {
            if table_used[i] {
                if table_keys[i] == k {
                    labels.push(table_labels[i]);
                    break;
                }
                i = (i + 1) & mask;
            } else {
                table_used[i] = true;
                table_keys[i] = k;
                table_labels[i] = next;
                labels.push(next);
                next += 1;
                break;
            }
        }
    }
    // Stable counting sort by label.
    let m = next as usize;
    let mut counts = vec![0usize; m + 1];
    for &l in &labels {
        let l = l as usize;
        counts[l + 1] += 1;
    }
    for i in 1..=m {
        counts[i] += counts[i - 1];
    }
    let src = records.to_vec();
    for (rec, l) in src.into_iter().zip(labels) {
        let l = l as usize;
        records[counts[l]] = rec;
        counts[l] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buckets::build_plan;
    use crate::config::{PaperConfig, SemisortConfig};
    use crate::paper::arena_layout;
    use crate::sample::strided_sample;
    use crate::scatter::{allocate_arena, scatter, ScatterArena};
    use parlay::hash64;
    use parlay::random::Rng;

    fn run_through_phase4(
        records: &[(u64, u64)],
        algo: LocalSortAlgo,
    ) -> (BucketPlan, ArenaLayout, ScatterArena<u64>, Vec<usize>) {
        let cfg = PaperConfig::default();
        let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
        let mut sample = strided_sample(&keys, cfg.base.sample_shift, Rng::new(1));
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
            Rng::new(2),
            &sink,
            None,
        );
        assert!(!out.overflowed);
        let counts = local_sort_light_buckets(&plan, &layout, &arena.slots, algo, &sink);
        (plan, layout, arena, counts)
    }

    #[test]
    fn sorted_regions_semisort() {
        let records: Vec<(u64, u64)> = (0..50_000u64)
            .map(|i| {
                let k = if i % 2 == 0 { i % 10 } else { 1_000_000 + i };
                (hash64(k), i)
            })
            .collect();
        let cfg = SemisortConfig::default();
        let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
        let mut sample = strided_sample(&keys, cfg.sample_shift, Rng::new(1));
        sample.sort_unstable();
        let plan = build_plan(&sample, records.len(), &cfg);
        assert!(plan.num_heavy > 0);
        let mut out = records.clone();
        let mut scratch = parlay::counting_sort::CountingScratch::default();
        let starts = plan.distribute_into(&records, &mut out, &mut scratch);
        sort_light_regions(&mut out, &plan, starts, LocalSortAlgo::StdUnstable);
        assert!(crate::verify::is_semisorted_by(&out, |r| r.0));
        assert!(crate::verify::is_permutation_of(&out, &records));
    }

    #[test]
    fn counts_cover_all_light_records() {
        let records: Vec<(u64, u64)> = (0..40_000u64).map(|i| (hash64(i), i)).collect();
        let (plan, _, _, counts) = run_through_phase4(&records, LocalSortAlgo::StdUnstable);
        assert_eq!(counts.len(), plan.num_light);
        // All-distinct keys: every record is light.
        assert_eq!(counts.iter().sum::<usize>(), records.len());
    }

    #[test]
    fn bucket_fronts_are_sorted_runs() {
        let records: Vec<(u64, u64)> = (0..30_000u64).map(|i| (hash64(i % 2000), i)).collect();
        let (plan, layout, arena, counts) =
            run_through_phase4(&records, LocalSortAlgo::StdUnstable);
        for (li, &c) in counts.iter().enumerate() {
            let b = plan.num_heavy + li;
            let base = layout.bucket_offset[b];
            let keys: Vec<u64> = (0..c).map(|i| arena.slots[base + i].key()).collect();
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "bucket {li} unsorted"
            );
            assert!(keys.iter().all(|&k| k != crate::scatter::EMPTY));
        }
    }

    #[test]
    fn counting_algo_groups_equal_keys() {
        let records: Vec<(u64, u64)> = (0..30_000u64).map(|i| (hash64(i % 2000), i)).collect();
        let (plan, layout, arena, counts) = run_through_phase4(&records, LocalSortAlgo::Counting);
        for (li, &c) in counts.iter().enumerate() {
            let b = plan.num_heavy + li;
            let base = layout.bucket_offset[b];
            let keys: Vec<u64> = (0..c).map(|i| arena.slots[base + i].key()).collect();
            // Grouped: each key appears as one contiguous run.
            let mut seen = std::collections::HashSet::new();
            let mut prev = None;
            for k in keys {
                if prev != Some(k) {
                    assert!(seen.insert(k), "key {k} split into two runs");
                    prev = Some(k);
                }
            }
        }
    }

    #[test]
    fn sort_records_all_algos_group() {
        let mut base: Vec<(u64, u64)> = (0..1000u64).map(|i| (i % 7, i)).collect();
        for algo in [
            LocalSortAlgo::StdUnstable,
            LocalSortAlgo::StdStable,
            LocalSortAlgo::Counting,
        ] {
            let mut r = base.clone();
            sort_records(&mut r, algo);
            assert_eq!(r.len(), base.len());
            // Grouped check.
            let mut seen = std::collections::HashSet::new();
            let mut prev = None;
            for &(k, _) in &r {
                if prev != Some(k) {
                    assert!(seen.insert(k), "{algo:?} split key {k}");
                    prev = Some(k);
                }
            }
        }
        base.clear();
    }

    #[test]
    fn counting_group_is_stable_within_groups() {
        let mut r: Vec<(u64, u64)> = vec![(5, 0), (3, 1), (5, 2), (3, 3), (5, 4)];
        counting_group(&mut r);
        // First-seen order of labels: 5 then 3; payloads in input order.
        assert_eq!(r, vec![(5, 0), (5, 2), (5, 4), (3, 1), (3, 3)]);
    }

    #[test]
    fn counting_group_handles_sentinel_like_keys() {
        // Regression: u64::MAX used to collide with the naming table's
        // vacancy sentinel, merging its group with label 0's key.
        let mut r: Vec<(u64, u64)> = vec![
            (u64::MAX, 0),
            (5, 1),
            (u64::MAX, 2),
            (0, 3),
            (5, 4),
            (u64::MAX, 5),
            (0, 6),
        ];
        counting_group(&mut r);
        let keys: Vec<u64> = r.iter().map(|p| p.0).collect();
        assert_eq!(keys, vec![u64::MAX, u64::MAX, u64::MAX, 5, 5, 0, 0]);
        let mut payloads: Vec<u64> = r.iter().map(|p| p.1).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn counting_group_empty_and_single() {
        let mut e: Vec<(u64, u64)> = vec![];
        counting_group(&mut e);
        let mut s = vec![(9u64, 1u64)];
        counting_group(&mut s);
        assert_eq!(s, vec![(9, 1)]);
    }
}
