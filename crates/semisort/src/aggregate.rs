//! Fused by-key aggregation: the engine behind
//! [`Semisorter::reduce_by_key`](crate::engine::Semisorter::reduce_by_key)
//! and [`Semisorter::count_by_key`](crate::engine::Semisorter::count_by_key).
//!
//! A fold needs each group's records visited together; it does not need
//! them cloned, written out contiguously or packed. So this path runs the
//! driver's first two phases and replaces the rest with one exact pass:
//!
//! 1. hash every key into pooled `(hash, index)` pairs;
//! 2. Phase 1 (strided sample, sorted) and Phase 2 (the bucket plan), as
//!    in the driver;
//! 3. distribute the pairs into **exact** bucket regions with
//!    [`BucketPlan::distribute_into`](crate::buckets::BucketPlan::distribute_into),
//!    the driver's default Phase 3 — exact counts mean no slot arena, no
//!    CAS, no overflow, no Las Vegas retry and no pack;
//! 4. fold all regions in parallel. A heavy region holds a single hash and
//!    is folded as it stands; a light region (`O(log² n)` records) is first
//!    sorted by `(hash, index)` — a stable sort by hash, since indices are
//!    unique — and folded run by run.
//!
//! Every record's key is compared with its run's first key, so a 64-bit
//! hash collision (two keys, one hash) is regrouped exactly rather than
//! merged. Because the distribution is stable and a light region's sort
//! orders equal hashes by input index, **each group is folded in input
//! order**, and the output (groups in bucket order, then hash order) is
//! the same at every thread count.
//!
//! Inputs at or below `seq_threshold`, and inputs containing a hash equal
//! to the heavy table's vacancy sentinel (`u64::MAX`), skip the plan: one
//! sort of all pairs, then the same fold.

use std::hash::Hash;

use parlay::random::Rng;
use rayon::prelude::*;

use crate::api::hash_keys_into;
use crate::buckets::build_plan;
use crate::cancel::CancelToken;
use crate::config::SemisortConfig;
use crate::driver::{injected_panic, mix_seed, record_plan, sample_phase, scheduler_baseline};
use crate::error::SemisortError;
use crate::obs::PhaseSpan;
use crate::pool::ScratchPool;
use crate::stats::SemisortStats;

/// Fold tasks per worker: enough slack for stealing to even out a plan
/// whose regions are skewed (all heavy regions come first).
const TASKS_PER_WORKER: usize = 8;

/// Fold `folder.items` into one `(key, accumulator)` per distinct key,
/// using — and growing — `pool`'s `hashed`, `placed`, `sample` and
/// `counting` buffers. `cfg` must already be validated.
///
/// The token is polled after hashing, sampling, planning and
/// distribution; the result is all-or-nothing.
pub(crate) fn reduce_pooled<T, K, A, F, G>(
    folder: &Folder<'_, T, F, A, G>,
    cfg: &SemisortConfig,
    pool: &mut ScratchPool,
    cancel: &CancelToken,
) -> Result<(Vec<(K, A)>, SemisortStats), SemisortError>
where
    T: Sync,
    K: Hash + Eq + Send,
    A: Clone + Send + Sync,
    F: Fn(&T) -> K + Sync,
    G: Fn(A, &T) -> A + Sync,
{
    cancel.check()?;
    let n = folder.items.len();
    let held_before = pool.bytes_held();
    let sched_before = scheduler_baseline(cfg);
    let mut stats = SemisortStats {
        n,
        config: *cfg,
        ..Default::default()
    };
    let ScratchPool {
        hashed,
        placed,
        sample,
        counting,
        ..
    } = pool;
    hash_keys_into(folder.items, folder.key, hashed);
    cancel.check()?;

    let groups =
        if n <= cfg.seq_threshold || hashed.par_iter().any(|r| r.0 == parlay::hash_table::EMPTY) {
            stats.light_records = n;
            hashed.sort_unstable();
            let mut groups = Vec::new();
            folder.runs(hashed, &mut groups);
            groups
        } else {
            let run_cfg = SemisortConfig {
                seed: mix_seed(cfg.seed, 0),
                ..*cfg
            };
            sample_phase(
                hashed,
                &run_cfg,
                &Rng::new(run_cfg.seed),
                false,
                sample,
                &mut stats,
            );
            cancel.check()?;

            let span = PhaseSpan::start("construct_buckets");
            let plan = build_plan(sample, n, &run_cfg);
            stats.t_construct_buckets = span.finish_into(&mut stats.spans);
            record_plan(&mut stats, &plan);
            // One slot per record: the regions are exact.
            stats.total_slots = n;
            cancel.check()?;

            let span = PhaseSpan::start("scatter");
            if cfg.fault.panics(0) {
                injected_panic(cfg, 0);
            }
            placed.truncate(n);
            placed.resize(n, (0, 0));
            let starts = plan.distribute_into(hashed, placed, counting);
            stats.t_scatter = span.finish_into(&mut stats.spans);
            stats.heavy_records = starts[plan.num_heavy];
            stats.light_records = n - stats.heavy_records;
            cancel.check()?;

            let span = PhaseSpan::start("local_sort");
            let groups = fold_regions(placed, starts, plan.num_heavy, folder);
            stats.t_local_sort = span.finish_into(&mut stats.spans);
            groups
        };

    if pool.bytes_held() > held_before {
        stats.scratch_grows = 1;
    } else {
        stats.scratch_reuse_hits = 1;
    }
    if let Some(before) = &sched_before {
        stats.scheduler = rayon::scheduler_stats().map(|after| after.delta(before));
    }
    Ok((groups, stats))
}

/// Fold every region of `placed`, sorting each light region first, in
/// parallel tasks of whole regions. `starts[b]..starts[b + 1]` is bucket `b`'s
/// region; buckets below `num_heavy` are heavy.
fn fold_regions<T, K, A, F, G>(
    placed: &mut [(u64, u64)],
    starts: &[usize],
    num_heavy: usize,
    folder: &Folder<'_, T, F, A, G>,
) -> Vec<(K, A)>
where
    T: Sync,
    K: Eq + Send,
    A: Clone + Send + Sync,
    F: Fn(&T) -> K + Sync,
    G: Fn(A, &T) -> A + Sync,
{
    // Close a task once it holds about n / (TASKS_PER_WORKER · workers)
    // records, so the heavy regions at the front spread over the workers.
    let num_buckets = starts.len() - 1;
    let workers = rayon::current_num_threads().max(1);
    let target = placed.len().div_ceil(TASKS_PER_WORKER * workers);
    let mut cuts = vec![0];
    for b in 1..num_buckets {
        if starts[b] - starts[cuts[cuts.len() - 1]] >= target {
            cuts.push(b);
        }
    }
    cuts.push(num_buckets);

    let mut rest = placed;
    let mut tasks = Vec::with_capacity(cuts.len() - 1);
    for w in cuts.windows(2) {
        let (task, tail) = rest.split_at_mut(starts[w[1]] - starts[w[0]]);
        tasks.push((w[0]..w[1], task));
        rest = tail;
    }
    let parts: Vec<Vec<(K, A)>> = tasks
        .into_par_iter()
        .map(|(buckets, task)| {
            let base = starts[buckets.start];
            let mut groups = Vec::new();
            for b in buckets {
                let region = &mut task[starts[b] - base..starts[b + 1] - base];
                if b >= num_heavy {
                    region.sort_unstable();
                }
                folder.runs(region, &mut groups);
            }
            groups
        })
        .collect();
    // Append the other tasks' groups to the first task's, in bucket order.
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut parts = parts.into_iter();
    let mut groups = parts.next().unwrap_or_default();
    groups.reserve_exact(total - groups.len());
    for mut part in parts {
        groups.append(&mut part);
    }
    groups
}

/// What a by-key reduction folds: the items, the key, the initial
/// accumulator and the fold step.
pub(crate) struct Folder<'a, T, F, A, G> {
    pub(crate) items: &'a [T],
    pub(crate) key: &'a F,
    pub(crate) init: &'a A,
    pub(crate) fold: &'a G,
}

impl<T, K, F, A, G> Folder<'_, T, F, A, G>
where
    K: Eq,
    A: Clone,
    F: Fn(&T) -> K,
    G: Fn(A, &T) -> A,
{
    /// Fold every run of equal hashes in `placed` (sorted so that equal
    /// hashes are adjacent, each run in input order), appending one
    /// `(key, accumulator)` per distinct key to `out`.
    fn runs(&self, placed: &[(u64, u64)], out: &mut Vec<(K, A)>) {
        for run in placed.chunk_by(|a, b| a.0 == b.0) {
            self.run(run, out);
        }
    }

    /// Fold one run of equal hashes; regroups exactly when the run turns
    /// out to hold more than one key.
    fn run(&self, run: &[(u64, u64)], out: &mut Vec<(K, A)>) {
        let first = &self.items[run[0].1 as usize];
        let k0 = (self.key)(first);
        let mut acc = (self.fold)(self.init.clone(), first);
        for (j, &(_, i)) in run.iter().enumerate().skip(1) {
            let item = &self.items[i as usize];
            if (self.key)(item) != k0 {
                self.regroup(&run[j..], (k0, acc), out);
                return;
            }
            acc = (self.fold)(acc, item);
        }
        out.push((k0, acc));
    }

    /// Cold path: a 64-bit hash collision. Fold the rest of the run into
    /// one group per key, each still in input order. The most recently
    /// folded group sits last, where the search starts.
    #[cold]
    fn regroup(&self, rest: &[(u64, u64)], head: (K, A), out: &mut Vec<(K, A)>) {
        let mut groups = vec![head];
        for &(_, i) in rest {
            let item = &self.items[i as usize];
            let k = (self.key)(item);
            let (k, acc) = match groups.iter().rposition(|g| g.0 == k) {
                Some(g) => groups.swap_remove(g),
                None => (k, self.init.clone()),
            };
            groups.push((k, (self.fold)(acc, item)));
        }
        out.append(&mut groups);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold `placed` over `(key, input index)` items, collecting each
    /// group's input indices in fold order.
    fn fold_indices(
        items: &[(&'static str, usize)],
        placed: &[(u64, u64)],
    ) -> Vec<(&'static str, Vec<usize>)> {
        let push = |mut acc: Vec<usize>, t: &(&'static str, usize)| {
            acc.push(t.1);
            acc
        };
        let folder = Folder {
            items,
            key: &|t: &(&'static str, usize)| t.0,
            init: &Vec::new(),
            fold: &push,
        };
        let mut out = Vec::new();
        folder.runs(placed, &mut out);
        out
    }

    #[test]
    fn colliding_run_regroups_in_input_order() {
        // One hash shared by keys a and b, interleaved.
        let items = [("a", 0), ("b", 1), ("a", 2), ("b", 3), ("a", 4)];
        let placed: Vec<(u64, u64)> = (0..5).map(|i| (7, i)).collect();
        let mut got = fold_indices(&items, &placed);
        got.sort_unstable();
        assert_eq!(got, [("a", vec![0, 2, 4]), ("b", vec![1, 3])]);
    }

    #[test]
    fn clean_runs_fold_one_group_each() {
        let items = [("a", 0), ("a", 1), ("b", 2), ("b", 3), ("b", 4)];
        let placed: Vec<(u64, u64)> = vec![(10, 0), (10, 1), (20, 2), (20, 3), (20, 4)];
        let got = fold_indices(&items, &placed);
        assert_eq!(got, [("a", vec![0, 1]), ("b", vec![2, 3, 4])]);
    }
}
