//! High-level entry points: semisort anything hashable, group, reduce.
//!
//! The driver works on pre-hashed `(u64, V)` records (the paper's setting).
//! This module adds the layer a downstream user actually wants:
//! [`try_semisort_by_key`] for arbitrary `Hash + Eq` keys (with an exact
//! collision check, making the result exact rather than
//! with-high-probability), [`try_group_by`] returning the groups as slices,
//! and [`try_reduce_by_key`] / [`try_count_by_key`] — the groupBy/shuffle
//! operations the paper's introduction motivates. All of them run the
//! engine's one run over hashed keys ([`crate::aggregate`]); the two
//! reductions fold straight off its regions without materializing the
//! semisorted array.
//!
//! The surface is Result-first: every entry point is a `try_*`
//! function returning `Result<_, `[`SemisortError`]`>` — which is never
//! `Err` on a valid configuration (the exact distribution cannot
//! overflow). Since the [`Semisorter`] engine became the primary surface,
//! every `try_*` function here is a thin one-shot wrapper: it builds a
//! transient engine for the call and drops it (and its scratch) on
//! return, so one-shot and engine calls are behaviorally identical.

use std::hash::{BuildHasher, Hash};

use crate::config::SemisortConfig;
use crate::engine::Semisorter;
use crate::error::SemisortError;
use crate::hash::DEFAULT_KEY_HASH;

/// Semisort pre-hashed `(key, payload)` pairs — the record shape of the
/// paper's evaluation, with any `Copy` payload. For the per-phase stats
/// too, call [`crate::driver::try_semisort_with_stats`].
pub fn try_semisort_pairs<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    cfg: &SemisortConfig,
) -> Result<Vec<(u64, V)>, SemisortError> {
    Semisorter::new(*cfg)?.sort_pairs(records)
}

/// Hash an arbitrary key into the engine's 64-bit key space, as the by-key
/// methods of an engine built from [`SemisortConfig::default`] do.
///
/// This is the engine's seeded key hash under the default config's seed:
/// one multiply per 8-byte word of the key, then one [`parlay::hash64`].
/// Distinct one-word keys (`u64`, `u32`, `usize`, …) never share a hash.
/// An engine with another seed hashes its keys differently, so this value
/// matches only engines and one-shots built with the default seed.
#[inline]
pub fn hash_key<K: Hash>(key: &K) -> u64 {
    DEFAULT_KEY_HASH.hash_one(key)
}

/// Semisort `items` by an arbitrary `Hash + Eq` key.
///
/// Returns the reordered items: equal keys contiguous, distinct keys in no
/// particular order, and each group in input order. Unlike the raw
/// hashed-record path, the result is *exactly* correct even under 64-bit
/// hash collisions: every run of equal hashes is key-checked, and a
/// colliding run (probability `≈ n²/2^64`) is regrouped locally.
///
/// ```
/// use semisort::{try_semisort_by_key, SemisortConfig};
/// let logs = vec![("db", 1), ("web", 2), ("db", 3), ("web", 4)];
/// let out = try_semisort_by_key(&logs, |l| l.0, &SemisortConfig::default()).unwrap();
/// assert!(semisort::verify::is_semisorted_by(&out, |l| l.0));
/// ```
pub fn try_semisort_by_key<T, K, F>(
    items: &[T],
    key: F,
    cfg: &SemisortConfig,
) -> Result<Vec<T>, SemisortError>
where
    T: Clone + Send + Sync,
    K: Hash + Eq,
    F: Fn(&T) -> K + Send + Sync,
{
    Semisorter::new(*cfg)?.sort_by_key(items, key)
}

/// Stable semisort: records within each group keep their input order.
///
/// The same call as [`try_semisort_by_key`], which already keeps input
/// order: the distribution is a stable counting sort and each light
/// region is sorted stably by hash. The name remains for callers that
/// want the guarantee spelled out.
///
/// ```
/// use semisort::{try_semisort_stable_by_key, SemisortConfig};
/// let v = vec![(2, 'a'), (1, 'b'), (2, 'c'), (1, 'd')];
/// let out = try_semisort_stable_by_key(&v, |p| p.0, &SemisortConfig::default()).unwrap();
/// // Within each group, input order survives: 'a' before 'c', 'b' before 'd'.
/// let pos = |ch: char| out.iter().position(|p| p.1 == ch).unwrap();
/// assert!(pos('a') < pos('c'));
/// assert!(pos('b') < pos('d'));
/// assert!(semisort::verify::is_semisorted_by(&out, |p| p.0));
/// ```
pub fn try_semisort_stable_by_key<T, K, F>(
    items: &[T],
    key: F,
    cfg: &SemisortConfig,
) -> Result<Vec<T>, SemisortError>
where
    T: Clone + Send + Sync,
    K: Hash + Eq,
    F: Fn(&T) -> K + Send + Sync,
{
    Semisorter::new(*cfg)?.stable_by_key(items, key)
}

/// The permutation a semisort would apply: `perm[j] = i` means output
/// position `j` takes input item `i`.
///
/// Useful when items are large or not `Clone`: compute the permutation from
/// the (cheaply copied) keys, then move the items yourself — or let
/// [`try_semisort_in_place`] do it.
pub fn try_semisort_permutation<T, K, F>(
    items: &[T],
    key: F,
    cfg: &SemisortConfig,
) -> Result<Vec<usize>, SemisortError>
where
    T: Sync,
    K: Hash + Eq,
    F: Fn(&T) -> K + Send + Sync,
{
    Semisorter::new(*cfg)?.permutation(items, key)
}

/// Semisort `items` in place, without cloning: computes the permutation,
/// then applies it by cycle rotation (`O(n)` moves, one bit per item of
/// scratch). On `Err` the items are untouched (the failure happens before
/// any permutation is applied). Routes through the engine's permutation
/// path; the cycle-following scratch is a bitset, one bit per item.
///
/// ```
/// use semisort::{try_semisort_in_place, SemisortConfig};
/// let mut v = vec![3u8, 1, 3, 2, 1];
/// try_semisort_in_place(&mut v, |&x| x, &SemisortConfig::default()).unwrap();
/// assert!(semisort::verify::is_semisorted_by(&v, |&x| x));
/// ```
pub fn try_semisort_in_place<T, K, F>(
    items: &mut [T],
    key: F,
    cfg: &SemisortConfig,
) -> Result<(), SemisortError>
where
    T: Sync,
    K: Hash + Eq,
    F: Fn(&T) -> K + Send + Sync,
{
    Semisorter::new(*cfg)?.in_place(items, key)
}

/// Rearrange `items` so that `items_new[j] = items_old[perm[j]]`, moving
/// each element exactly once (cycle-following, with a visited bitset of
/// one bit per item).
pub fn apply_permutation_in_place<T>(items: &mut [T], perm: &[usize]) {
    assert_eq!(items.len(), perm.len());
    let n = items.len();
    let mut visited = vec![0u64; n.div_ceil(64)];
    for start in 0..n {
        if (visited[start >> 6] >> (start & 63)) & 1 == 1 || perm[start] == start {
            continue;
        }
        // Rotate the cycle containing `start`: position j receives the item
        // currently at perm[j]; walking the cycle with swaps realizes this
        // with one move per element.
        let mut j = start;
        loop {
            let src = perm[j];
            visited[j >> 6] |= 1 << (j & 63);
            if src == start {
                break;
            }
            items.swap(j, src);
            j = src;
        }
    }
}

/// The groups of a semisorted sequence: the reordered items plus the start
/// offset of every group (with an `n` sentinel at the end).
#[derive(Clone, Debug)]
pub struct Groups<T> {
    /// The semisorted items.
    pub items: Vec<T>,
    /// `starts[g]..starts[g+1]` is group `g`; `starts.len() == num_groups + 1`.
    pub starts: Vec<usize>,
}

impl<T> Groups<T> {
    /// No items and no starts yet, with room for `len` items.
    pub(crate) fn with_capacity(len: usize) -> Self {
        Groups {
            items: Vec::with_capacity(len),
            starts: Vec::new(),
        }
    }

    /// Number of groups (distinct keys).
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// True if there are no groups.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The items of group `g`.
    pub fn group(&self, g: usize) -> &[T] {
        &self.items[self.starts[g]..self.starts[g + 1]]
    }

    /// Iterate over the groups as slices.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.len()).map(move |g| self.group(g))
    }

    /// Map every group to a value, groups processed in parallel.
    ///
    /// The light buckets' cache-friendliness carries over: groups are
    /// contiguous slices, so per-group work stays local.
    pub fn par_map<R, F>(&self, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Send + Sync,
    {
        use rayon::prelude::*;
        (0..self.len())
            .into_par_iter()
            .map(|g| f(self.group(g)))
            .collect()
    }

    /// The size of every group (a histogram in group order).
    pub fn sizes(&self) -> Vec<usize> {
        self.starts.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The largest group's size (0 if there are no groups).
    pub fn max_group_size(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }
}

/// Group `items` by key: the semisorted items plus every group's start,
/// recorded as the semisort checks its runs (no second pass over the
/// keys). Each group is in input order.
///
/// This is the `groupBy` / MapReduce-shuffle operation of the paper's
/// introduction, built directly on the semisort.
///
/// ```
/// use semisort::{try_group_by, SemisortConfig};
/// let words = ["a", "b", "a", "c", "b", "a"];
/// let groups = try_group_by(&words, |w| *w, &SemisortConfig::default()).unwrap();
/// assert_eq!(groups.len(), 3);
/// let mut sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
/// sizes.sort_unstable();
/// assert_eq!(sizes, vec![1, 2, 3]);
/// ```
pub fn try_group_by<T, K, F>(
    items: &[T],
    key: F,
    cfg: &SemisortConfig,
) -> Result<Groups<T>, SemisortError>
where
    T: Clone + Send + Sync,
    K: Hash + Eq,
    F: Fn(&T) -> K + Send + Sync,
{
    Semisorter::new(*cfg)?.group_by(items, key)
}

/// Fold every group: returns one `(key, accumulator)` per distinct key,
/// with `fold` applied over the group's items starting from `init`. Each
/// group is folded **in input order**; groups are folded in parallel and
/// come back in no particular (but deterministic) order. Items are only
/// read, so `T` need not be `Clone`.
///
/// This folds straight off the engine's bucket regions, not a semisort
/// followed by a scan (see [`Semisorter::reduce_by_key`]).
///
/// ```
/// use semisort::{try_reduce_by_key, SemisortConfig};
/// // Not Clone: the reduction only reads the items.
/// struct Sale {
///     shop: &'static str,
///     cents: u64,
/// }
/// let sales = vec![
///     Sale { shop: "north", cents: 250 },
///     Sale { shop: "south", cents: 100 },
///     Sale { shop: "north", cents: 50 },
/// ];
/// let mut totals =
///     try_reduce_by_key(&sales, |s| s.shop, 0u64, |a, s| a + s.cents, &SemisortConfig::default())
///         .unwrap();
/// totals.sort_unstable();
/// assert_eq!(totals, vec![("north", 300), ("south", 100)]);
/// ```
pub fn try_reduce_by_key<T, K, A, F, G>(
    items: &[T],
    key: F,
    init: A,
    fold: G,
    cfg: &SemisortConfig,
) -> Result<Vec<(K, A)>, SemisortError>
where
    T: Sync,
    K: Hash + Eq + Send,
    A: Clone + Send + Sync,
    F: Fn(&T) -> K + Send + Sync,
    G: Fn(A, &T) -> A + Send + Sync,
{
    Semisorter::new(*cfg)?.reduce_by_key(items, key, init, fold)
}

/// Histogram: the number of items per distinct key (a
/// [`try_reduce_by_key`] that counts).
///
/// ```
/// use semisort::{try_count_by_key, SemisortConfig};
/// let mut counts =
///     try_count_by_key(&[1, 2, 1, 1], |&x| x, &SemisortConfig::default()).unwrap();
/// counts.sort_unstable();
/// assert_eq!(counts, vec![(1, 3), (2, 1)]);
/// ```
pub fn try_count_by_key<T, K, F>(
    items: &[T],
    key: F,
    cfg: &SemisortConfig,
) -> Result<Vec<(K, usize)>, SemisortError>
where
    T: Sync,
    K: Hash + Eq + Send,
    F: Fn(&T) -> K + Send + Sync,
{
    Semisorter::new(*cfg)?.count_by_key(items, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_permutation_of, is_semisorted_by};

    fn cfg() -> SemisortConfig {
        // Small threshold so tests exercise the parallel path.
        SemisortConfig {
            seq_threshold: 64,
            ..Default::default()
        }
    }

    #[test]
    fn semisort_by_string_key() {
        let items: Vec<String> = (0..20_000).map(|i| format!("key-{}", i % 123)).collect();
        let out = try_semisort_by_key(&items, |s| s.clone(), &cfg()).unwrap();
        assert!(is_semisorted_by(&out, |s| s.clone()));
        assert!(is_permutation_of(&out, &items));
    }

    #[test]
    fn semisort_by_struct_field() {
        #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
        struct Order {
            customer: u32,
            amount: u64,
        }
        let items: Vec<Order> = (0..30_000u64)
            .map(|i| Order {
                customer: (i % 500) as u32,
                amount: i,
            })
            .collect();
        let out = try_semisort_by_key(&items, |o| o.customer, &cfg()).unwrap();
        assert!(is_semisorted_by(&out, |o| o.customer));
        assert!(is_permutation_of(&out, &items));
    }

    #[test]
    fn group_by_covers_input_exactly() {
        let items: Vec<u32> = (0..25_000).map(|i| i % 321).collect();
        let g = try_group_by(&items, |&x| x, &cfg()).unwrap();
        assert_eq!(g.len(), 321);
        assert_eq!(g.starts[0], 0);
        assert_eq!(*g.starts.last().unwrap(), items.len());
        let mut total = 0;
        for grp in g.iter() {
            assert!(!grp.is_empty());
            assert!(grp.iter().all(|&x| x == grp[0]), "mixed group");
            total += grp.len();
        }
        assert_eq!(total, items.len());
    }

    #[test]
    fn group_sizes_are_exact() {
        // 25_000 items over 321 keys: sizes 78 or 79.
        let items: Vec<u32> = (0..25_000).map(|i| i % 321).collect();
        let g = try_group_by(&items, |&x| x, &cfg()).unwrap();
        for grp in g.iter() {
            let k = grp[0];
            let expect = (0..25_000).filter(|i| i % 321 == k).count();
            assert_eq!(grp.len(), expect);
        }
    }

    #[test]
    fn reduce_by_key_sums() {
        let items: Vec<(u32, u64)> = (0..10_000u64).map(|i| ((i % 10) as u32, i)).collect();
        let mut sums = try_reduce_by_key(&items, |t| t.0, 0u64, |a, t| a + t.1, &cfg()).unwrap();
        sums.sort_unstable_by_key(|s| s.0);
        assert_eq!(sums.len(), 10);
        for (k, s) in sums {
            let want: u64 = (0..10_000u64).filter(|i| i % 10 == k as u64).sum();
            assert_eq!(s, want, "sum for key {k}");
        }
    }

    #[test]
    fn count_by_key_is_a_histogram() {
        let items: Vec<u8> = (0..9_999).map(|i| (i % 7) as u8).collect();
        let mut counts = try_count_by_key(&items, |&x| x, &cfg()).unwrap();
        counts.sort_unstable_by_key(|c| c.0);
        let total: usize = counts.iter().map(|c| c.1).sum();
        assert_eq!(total, 9_999);
        assert_eq!(counts.len(), 7);
        assert!(counts
            .iter()
            .all(|&(k, c)| { c == (0..9_999).filter(|i| i % 7 == k as usize).count() }));
    }

    #[test]
    fn collision_repair_regroups_exactly() {
        // A key's *hash* can't be forced to collide here, so regroup a
        // fabricated run of one hash directly: (key, input index) items.
        let mut run = vec![("a", 0), ("b", 1), ("a", 2), ("b", 3)];
        let bounds = crate::aggregate::regroup(&mut run, |x| x.0);
        assert_eq!(run, vec![("a", 0), ("a", 2), ("b", 1), ("b", 3)]);
        assert_eq!(bounds, vec![0, 2, 4]);
    }

    #[test]
    fn collision_repair_keeps_clean_runs_untouched() {
        let mut run = vec![1u32, 1, 2, 2, 2];
        let before = run.clone();
        let bounds = crate::aggregate::regroup(&mut run, |&x| x);
        assert_eq!(run, before);
        assert_eq!(bounds, vec![0, 2, 5]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        let g = try_group_by(&items, |&x| x, &cfg()).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.max_group_size(), 0);
        let out = try_semisort_by_key(&items, |&x| x, &cfg()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn stable_semisort_preserves_group_order() {
        let items: Vec<(u32, u32)> = (0..25_000).map(|i| (i % 97, i)).collect();
        let out = try_semisort_stable_by_key(&items, |p| p.0, &cfg()).unwrap();
        assert!(is_semisorted_by(&out, |p| p.0));
        assert!(is_permutation_of(&out, &items));
        // Payloads strictly increase within every group.
        for w in out.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {:?} {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn stable_semisort_empty_and_single_group() {
        let empty: Vec<u32> = vec![];
        assert!(try_semisort_stable_by_key(&empty, |&x| x, &cfg())
            .unwrap()
            .is_empty());
        let same: Vec<(u8, u32)> = (0..10_000).map(|i| (7u8, i)).collect();
        let out = try_semisort_stable_by_key(&same, |p| p.0, &cfg()).unwrap();
        assert_eq!(out, same, "single group must come back in input order");
    }

    #[test]
    fn permutation_matches_semisort() {
        let items: Vec<u32> = (0..20_000).map(|i| (i * 37) % 450).collect();
        let perm = try_semisort_permutation(&items, |&x| x, &cfg()).unwrap();
        // perm is a permutation of 0..n.
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &p)| p == i));
        // Applying it yields a semisorted arrangement.
        let arranged: Vec<u32> = perm.iter().map(|&i| items[i]).collect();
        assert!(is_semisorted_by(&arranged, |&x| x));
    }

    #[test]
    fn in_place_semisort_non_clone_items() {
        // A type without Clone: the in-place path must still work.
        #[derive(Debug, PartialEq)]
        struct Token(u32);
        let mut items: Vec<Token> = (0..15_000).map(|i| Token(i % 123)).collect();
        try_semisort_in_place(&mut items, |t| t.0, &cfg()).unwrap();
        assert!(is_semisorted_by(&items, |t| t.0));
        let mut ids: Vec<u32> = items.iter().map(|t| t.0).collect();
        ids.sort_unstable();
        let mut want: Vec<u32> = (0..15_000).map(|i| i % 123).collect();
        want.sort_unstable();
        assert_eq!(ids, want);
    }

    #[test]
    fn apply_permutation_identity_and_cycles() {
        let mut v = vec![10, 20, 30, 40];
        apply_permutation_in_place(&mut v, &[0, 1, 2, 3]);
        assert_eq!(v, vec![10, 20, 30, 40]);
        // perm[j] = source index: out = [v[2], v[0], v[3], v[1]]
        let mut v = vec![10, 20, 30, 40];
        apply_permutation_in_place(&mut v, &[2, 0, 3, 1]);
        assert_eq!(v, vec![30, 10, 40, 20]);
        // Reversal.
        let mut v = vec![1, 2, 3, 4, 5];
        apply_permutation_in_place(&mut v, &[4, 3, 2, 1, 0]);
        assert_eq!(v, vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn par_map_and_sizes() {
        let items: Vec<u32> = (0..12_000).map(|i| i % 40).collect();
        let g = try_group_by(&items, |&x| x, &cfg()).unwrap();
        let sums = g.par_map(|grp| grp.iter().map(|&x| x as u64).sum::<u64>());
        assert_eq!(sums.len(), 40);
        for (i, &s) in sums.iter().enumerate() {
            let k = g.group(i)[0] as u64;
            assert_eq!(s, k * g.group(i).len() as u64);
        }
        assert_eq!(g.sizes().iter().sum::<usize>(), items.len());
        assert_eq!(g.max_group_size(), 300);
    }
}
