//! The by-key core: every by-key method of
//! [`Semisorter`](crate::engine::Semisorter) — `sort_by_key`,
//! `stable_by_key`, `group_by`, `permutation`, `in_place`,
//! `reduce_by_key` and `count_by_key` — runs through `by_key_pooled`:
//!
//! 1. hash every key into pooled `(hash, index)` pairs;
//! 2. sample, plan and distribute the pairs into **exact** bucket regions
//!    with the driver's own Phases 1–3 (`driver::plan_and_distribute`,
//!    through [`BucketPlan::distribute_into`]) — exact counts mean no
//!    slot arena, no CAS, no overflow, no Las Vegas retry and no pack;
//! 3. walk tasks of whole regions in parallel. A heavy region holds a
//!    single hash and is used as it stands; a light region (`O(log² n)`
//!    pairs) is first sorted stably by hash, so equal hashes sit together
//!    in input order. The method then adds one step per region, inside
//!    the same task: fold the region's runs (`Folder`), or gather its
//!    items into the task's part of the output and check its runs on the
//!    gathered slice (`gather`).
//!
//! Every run of equal hashes is key-checked, and a run that turns out to
//! hold several keys (a 64-bit hash collision) is regrouped exactly by
//! `regroup`. Because the distribution is stable and a light region's
//! sort keeps input order within a hash, **every group comes out in input
//! order**, and the output (groups in bucket order, then hash order) is
//! the same at every thread count.
//!
//! Inputs at or below `seq_threshold`, and inputs containing a hash equal
//! to the engine's reserved key (`u64::MAX`), skip the plan: one sort of
//! all pairs, then the same step as a single task.
//!
//! [`BucketPlan::distribute_into`]: crate::buckets::BucketPlan::distribute_into

use std::hash::Hash;

use rayon::prelude::*;

use crate::api::{hash_keys_into, Groups};
use crate::cancel::CancelToken;
use crate::config::SemisortConfig;
use crate::driver::{has_reserved_key, plan_and_distribute, scheduler_baseline};
use crate::error::SemisortError;
use crate::obs::PhaseSpan;
use crate::pool::ScratchPool;
use crate::stats::SemisortStats;

/// Tasks per worker: enough slack for stealing to even out a plan whose
/// regions are skewed (all heavy regions come first).
const TASKS_PER_WORKER: usize = 8;

/// Hash `items`' keys, distribute the pairs and hand every region, in
/// bucket order, to `region` together with its task's part (made by
/// `task` from the task's record count). Returns the parts in task order
/// and the run's stats. Uses — and grows — `pool`'s `hashed`, `placed`,
/// `sample` and `counting` buffers; `cfg` must already be validated.
///
/// The token is polled after hashing, sampling, planning and
/// distribution; the result is all-or-nothing.
pub(crate) fn by_key_pooled<T, K, F, S, I, R>(
    items: &[T],
    key: &F,
    cfg: &SemisortConfig,
    pool: &mut ScratchPool,
    cancel: &CancelToken,
    task: I,
    region: R,
) -> Result<(Vec<S>, SemisortStats), SemisortError>
where
    T: Sync,
    K: Hash,
    F: Fn(&T) -> K + Sync,
    S: Send,
    I: Fn(usize) -> S + Sync,
    R: Fn(&mut S, &mut [(u64, u64)]) + Sync,
{
    cancel.check()?;
    let n = items.len();
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
    hash_keys_into(items, key, hashed);
    cancel.check()?;

    let parts = if n <= cfg.seq_threshold || has_reserved_key(hashed) {
        stats.light_records = n;
        // Indices are unique, so the tuple sort keeps input order per hash.
        hashed.sort_unstable();
        let mut part = task(n);
        region(&mut part, hashed);
        vec![part]
    } else {
        let (plan, starts) =
            plan_and_distribute(hashed, cfg, sample, counting, placed, &mut stats, cancel)?;
        cancel.check()?;
        let span = PhaseSpan::start("local_sort");
        let parts = walk(placed, starts, plan.num_heavy, &task, &region);
        stats.t_local_sort = span.finish_into(&mut stats.spans);
        parts
    };

    if pool.bytes_held() > held_before {
        stats.scratch_grows = 1;
    } else {
        stats.scratch_reuse_hits = 1;
    }
    if let Some(before) = &sched_before {
        stats.scheduler = rayon::scheduler_stats().map(|after| after.delta(before));
    }
    Ok((parts, stats))
}

/// Walk every region of `placed` in parallel tasks of whole regions,
/// sorting each light region stably by hash before `region` sees it.
/// `starts[b]..starts[b + 1]` is bucket `b`'s region; buckets below
/// `num_heavy` are heavy.
fn walk<S, I, R>(
    placed: &mut [(u64, u64)],
    starts: &[usize],
    num_heavy: usize,
    task: &I,
    region: &R,
) -> Vec<S>
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    R: Fn(&mut S, &mut [(u64, u64)]) + Sync,
{
    // Close a task once it holds about n / (TASKS_PER_WORKER · workers)
    // records, so the heavy regions at the front spread over the workers.
    let num_buckets = starts.len() - 1;
    let workers = rayon::current_num_threads().max(1);
    let target = placed.len().div_ceil(TASKS_PER_WORKER * workers);
    let mut tasks = Vec::new();
    let (mut rest, mut first) = (placed, 0);
    for b in 1..=num_buckets {
        if b == num_buckets || starts[b] - starts[first] >= target {
            let (pairs, tail) = rest.split_at_mut(starts[b] - starts[first]);
            tasks.push((first..b, pairs));
            (rest, first) = (tail, b);
        }
    }
    tasks
        .into_par_iter()
        .map(|(buckets, pairs)| {
            let base = starts[buckets.start];
            let mut part = task(pairs.len());
            for b in buckets {
                let pairs = &mut pairs[starts[b] - base..starts[b + 1] - base];
                if b >= num_heavy {
                    pairs.sort_by_key(|p| p.0);
                }
                region(&mut part, pairs);
            }
            part
        })
        .collect()
}

/// Concatenate the tasks' parts in task order, keeping the first part's
/// allocation and shifting each part's group starts by the records before
/// it; with `cut`, close the starts with the record count.
pub(crate) fn concat<X>(parts: Vec<Groups<X>>, cut: bool) -> Groups<X> {
    let total: usize = parts.iter().map(|p| p.items.len()).sum();
    let mut parts = parts.into_iter();
    let mut all = parts.next().unwrap_or_else(|| Groups::with_capacity(0));
    all.items.reserve_exact(total - all.items.len());
    for mut part in parts {
        let base = all.items.len();
        all.starts.extend(part.starts.iter().map(|s| s + base));
        all.items.append(&mut part.items);
    }
    if cut {
        all.starts.push(total);
    }
    all
}

/// Gather one region: append `fetch(index)` for each of its pairs to
/// `part.items`, then check every run of equal hashes on the appended
/// slice, regrouping a run that holds more than one key. With `cut`,
/// `part.starts` receives the start of every group.
pub(crate) fn gather<X, K: Eq>(
    part: &mut Groups<X>,
    pairs: &[(u64, u64)],
    fetch: impl Fn(usize) -> X,
    key: impl Fn(&X) -> K,
    cut: bool,
) {
    let mut start = part.items.len();
    part.items
        .extend(pairs.iter().map(|&(_, i)| fetch(i as usize)));
    for run in pairs.chunk_by(|a, b| a.0 == b.0) {
        let xs = &mut part.items[start..start + run.len()];
        let collided = xs.len() > 1 && {
            let k0 = key(&xs[0]);
            xs[1..].iter().any(|x| key(x) != k0)
        };
        if collided {
            let bounds = regroup(xs, &key);
            if cut {
                part.starts
                    .extend(bounds[..bounds.len() - 1].iter().map(|b| start + b));
            }
        } else if cut {
            part.starts.push(start);
        }
        start += run.len();
    }
}

/// Cold path: regroup a run whose items share one 64-bit hash but not one
/// key. Reorders `run` so each key's items are contiguous, keeping their
/// order within a key (so a run in input order stays in input order), and
/// returns the group bounds: group `g` is `run[bounds[g]..bounds[g + 1]]`.
#[cold]
pub(crate) fn regroup<X, K: Eq>(run: &mut [X], key: impl Fn(&X) -> K) -> Vec<usize> {
    let mut keys: Vec<K> = Vec::new();
    let mut bounds = vec![0];
    // A stable sort by a dense label per distinct key.
    run.sort_by_cached_key(|x| {
        let k = key(x);
        match keys.iter().position(|g| *g == k) {
            Some(label) => {
                bounds[label + 1] += 1;
                label
            }
            None => {
                keys.push(k);
                bounds.push(1);
                keys.len() - 1
            }
        }
    });
    for g in 1..bounds.len() {
        bounds[g] += bounds[g - 1];
    }
    bounds
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
    /// Fold every run of equal hashes in `pairs` (sorted so that equal
    /// hashes are adjacent, each run in input order), appending one
    /// `(key, accumulator)` per distinct key to `out`.
    pub(crate) fn runs(&self, pairs: &mut [(u64, u64)], out: &mut Vec<(K, A)>) {
        for run in pairs.chunk_by_mut(|a, b| a.0 == b.0) {
            self.run(run, out);
        }
    }

    /// The item a pair indexes.
    fn item(&self, pair: &(u64, u64)) -> &T {
        &self.items[pair.1 as usize]
    }

    /// Fold one run of equal hashes, checking each key against the first.
    fn run(&self, run: &mut [(u64, u64)], out: &mut Vec<(K, A)>) {
        let first = self.item(&run[0]);
        let k0 = (self.key)(first);
        let mut acc = (self.fold)(self.init.clone(), first);
        for j in 1..run.len() {
            let item = self.item(&run[j]);
            if (self.key)(item) != k0 {
                self.collided(&mut run[j..], (k0, acc), out);
                return;
            }
            acc = (self.fold)(acc, item);
        }
        out.push((k0, acc));
    }

    /// Cold path: a 64-bit hash collision. Regroup the rest of the run and
    /// fold each group in input order, continuing `head` for its own key.
    #[cold]
    fn collided(&self, rest: &mut [(u64, u64)], head: (K, A), out: &mut Vec<(K, A)>) {
        let (k0, mut acc0) = head;
        let mut others = Vec::new();
        let bounds = regroup(rest, |p| (self.key)(self.item(p)));
        for w in bounds.windows(2) {
            let group = &rest[w[0]..w[1]];
            let fold = |acc| group.iter().fold(acc, |a, p| (self.fold)(a, self.item(p)));
            let k = (self.key)(self.item(&group[0]));
            if k == k0 {
                acc0 = fold(acc0);
            } else {
                others.push((k, fold(self.init.clone())));
            }
        }
        out.push((k0, acc0));
        out.append(&mut others);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold `pairs` over `(key, input index)` items, collecting each
    /// group's input indices in fold order.
    fn fold_indices(
        items: &[(&'static str, usize)],
        pairs: &mut [(u64, u64)],
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
        folder.runs(pairs, &mut out);
        out
    }

    #[test]
    fn colliding_run_regroups_in_input_order() {
        // One hash shared by keys a and b, interleaved.
        let items = [("a", 0), ("b", 1), ("a", 2), ("b", 3), ("a", 4)];
        let mut pairs: Vec<(u64, u64)> = (0..5).map(|i| (7, i)).collect();
        let mut got = fold_indices(&items, &mut pairs);
        got.sort_unstable();
        assert_eq!(got, [("a", vec![0, 2, 4]), ("b", vec![1, 3])]);
    }

    #[test]
    fn clean_runs_fold_one_group_each() {
        let items = [("a", 0), ("a", 1), ("b", 2), ("b", 3), ("b", 4)];
        let mut pairs: Vec<(u64, u64)> = vec![(10, 0), (10, 1), (20, 2), (20, 3), (20, 4)];
        let got = fold_indices(&items, &mut pairs);
        assert_eq!(got, [("a", vec![0, 1]), ("b", vec![2, 3, 4])]);
    }
}
