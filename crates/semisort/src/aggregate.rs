//! The region walk every engine run ends with (`walk`), and the by-key
//! methods' per-region steps.
//!
//! The driver's `run` distributes a run's records into exact bucket
//! regions, then hands them to `walk`, which cuts them into parallel
//! tasks of whole regions. A heavy region holds a single key and is used
//! as it stands; a light region (`O(log² n)` records) is first sorted by
//! the run's sort. Then the run's step sees each region, inside the same
//! task. `sort_pairs` has no step: it sorts its light regions with
//! `sort_unstable` and never visits a heavy one. Every by-key method of
//! [`Semisorter`](crate::engine::Semisorter) — `sort_by_key`,
//! `stable_by_key`, `group_by`, `permutation`, `in_place`,
//! `reduce_by_key` and `count_by_key` — walks pooled `(hash, index)` pairs
//! (`Keyed`) with a stable sort by hash (`by_key_walk`), and either
//! folds the region's runs (`Folder`) or gathers its items into the task's
//! part of the output and checks its runs on the gathered slice
//! (`gather`).
//!
//! Every run of equal hashes is key-checked, and a run that turns out to
//! hold several keys (a 64-bit hash collision) is regrouped exactly by
//! `regroup`. Because the distribution is stable and a light region's
//! sort keeps input order within a hash, **every group comes out in input
//! order**, and the output (groups in bucket order, then hash order) is
//! the same at every thread count.

use std::hash::Hash;

use rayon::prelude::*;

use crate::api::Groups;
use crate::driver::{Input, Lent};
use crate::hash::{hash_keys_into, KeyHash};

/// Tasks per worker: enough slack for stealing to even out a plan whose
/// regions are skewed (all heavy regions come first). The scheduler runs a
/// parallel loop as at most `4 · workers` blocks (`run_blocks` in
/// `crates/rayon`), so more tasks than that would only run several to a
/// block.
const TASKS_PER_WORKER: usize = 4;

/// What [`walk`] does with the regions of a run.
pub(crate) struct Walk<V, I, R> {
    /// Whether the heavy regions are visited too; when not, the tasks cover
    /// the light regions alone.
    pub(crate) heavy: bool,
    /// Sort one light region so that equal keys sit together.
    pub(crate) sort: fn(&mut [(u64, V)]),
    /// Make a task's part from the task's record count.
    pub(crate) task: I,
    /// Visit one region, after its sort, with its task's part.
    pub(crate) region: R,
}

/// A by-key walk: every region is visited, and each light one is sorted
/// stably by hash, so equal hashes keep their input order.
pub(crate) fn by_key_walk<I, R>(task: I, region: R) -> Walk<u64, I, R> {
    Walk {
        heavy: true,
        sort: |pairs| pairs.sort_by_key(|p| p.0),
        task,
        region,
    }
}

/// The by-key methods' input: the items' keys, hashed with the run's seeded
/// key hash into the pool's `(hash, index)` pairs and distributed into its
/// `placed` buffer.
pub(crate) struct Keyed<'a, T, F> {
    pub(crate) items: &'a [T],
    pub(crate) key: &'a F,
    pub(crate) hash: KeyHash,
}

impl<T, K, F> Input<u64> for Keyed<'_, T, F>
where
    T: Sync,
    K: Hash,
    F: Fn(&T) -> K + Sync,
{
    fn stage<'a>(
        &'a mut self,
        hashed: &'a mut Vec<(u64, u64)>,
        placed: &'a mut Vec<(u64, u64)>,
    ) -> Lent<'a, u64> {
        hash_keys_into(self.hash, self.items, self.key, hashed);
        (hashed, placed)
    }
}

/// Walk the regions of `out` in parallel tasks of whole regions, sorting
/// each light region with `step.sort` before `step.region` sees it.
/// `starts[b]..starts[b + 1]` is bucket `b`'s region; buckets below
/// `num_heavy` are heavy, and are skipped unless `step.heavy`. Returns the
/// tasks' parts in bucket order.
pub(crate) fn walk<V, S, I, R>(
    out: &mut [(u64, V)],
    starts: &[usize],
    num_heavy: usize,
    step: &Walk<V, I, R>,
) -> Vec<S>
where
    V: Send,
    S: Send,
    I: Fn(usize) -> S + Sync,
    R: Fn(&mut S, &mut [(u64, V)]) + Sync,
{
    let first = if step.heavy { 0 } else { num_heavy };
    let num_buckets = starts.len() - 1;
    let mut rest = &mut out[starts[first]..];
    // Close a task once it holds about 1 / (TASKS_PER_WORKER · workers) of
    // the walked records, so the heavy regions at the front (or a few light
    // regions behind many heavy ones) spread over the workers.
    let workers = rayon::current_num_threads().max(1);
    let target = rest.len().div_ceil(TASKS_PER_WORKER * workers);
    let mut tasks = Vec::new();
    let mut lo = first;
    for b in first + 1..=num_buckets {
        if b == num_buckets || starts[b] - starts[lo] >= target {
            let (records, tail) = rest.split_at_mut(starts[b] - starts[lo]);
            tasks.push((lo..b, records));
            (rest, lo) = (tail, b);
        }
    }
    tasks
        .into_par_iter()
        .map(|(buckets, records)| {
            let base = starts[buckets.start];
            let mut part = (step.task)(records.len());
            for b in buckets {
                let region = &mut records[starts[b] - base..starts[b + 1] - base];
                if b >= num_heavy {
                    (step.sort)(region);
                }
                (step.region)(&mut part, region);
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
        let index = pair.1 as usize;
        &self.items[index]
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
    fn sorted_regions_semisort() {
        use crate::buckets::build_plan;
        use crate::config::SemisortConfig;
        use crate::sample::strided_sample;
        use crate::verify::{is_permutation_of, is_semisorted_by};
        use parlay::hash64;
        use parlay::random::Rng;

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
        assert!(plan.num_heavy() > 0);
        let mut out = Vec::new();
        let mut scratch = parlay::counting_sort::CountingScratch::default();
        let starts = plan.distribute_into(&records, &mut out, &mut scratch);
        let light = records.len() - starts[plan.num_heavy()];

        // `sort_pairs`' walk: its tasks cover the light records alone.
        let light_sort = Walk {
            heavy: false,
            sort: |r: &mut [(u64, u64)]| r.sort_unstable_by_key(|p| p.0),
            task: |records| records,
            region: |_: &mut usize, _: &mut [(u64, u64)]| {},
        };
        let seen: usize = walk(&mut out, starts, plan.num_heavy(), &light_sort)
            .iter()
            .sum();
        assert_eq!(seen, light);
        assert!(is_semisorted_by(&out, |r| r.0));
        assert!(is_permutation_of(&out, &records));

        // A by-key walk visits every region, and its regions are sorted.
        let count = |seen: &mut usize, r: &mut [(u64, u64)]| {
            assert!(r.windows(2).all(|w| w[0].0 <= w[1].0));
            *seen += r.len();
        };
        let seen: Vec<usize> = walk(
            &mut out,
            starts,
            plan.num_heavy(),
            &by_key_walk(|_| 0, count),
        );
        assert_eq!(seen.iter().sum::<usize>(), records.len());
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
