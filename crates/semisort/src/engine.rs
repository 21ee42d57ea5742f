//! The reusable semisort engine: [`Semisorter`].
//!
//! The free functions in [`crate::api`] are *one-shot*: each call allocates
//! its hashed-record buffer, sample buffer and the distribution's count
//! matrices, uses them once, and frees them. For a caller that
//! semisorts in a loop — a shuffle stage, a `GROUP BY` executor, a graph
//! algorithm iterating over edge buckets — that allocation traffic is pure
//! overhead: the buffers wanted on call *k+1* are exactly the ones call *k*
//! just released.
//!
//! [`Semisorter`] owns a [`ScratchPool`] and keeps it warm across calls.
//! Buffers grow monotonically to the high-water mark of the inputs seen, so
//! a steady-state workload reaches `scratch_grows == 0` after its first
//! call at the largest `n` (observable via
//! [`SemisortStats::scratch_grows`] /
//! [`SemisortStats::scratch_reuse_hits`]). Retention is bounded by
//! [`SemisortConfig::max_scratch_bytes`] and can be released eagerly with
//! [`Semisorter::trim`].
//!
//! Every method, and every engine one-shot, is one pooled run (see
//! [`crate::driver`]): the same screens, sample → plan → distribute, one
//! parallel walk over the bucket regions, then one scratch-accounting
//! rule, one retention check and the scheduler delta. The methods differ
//! only in what the walk does: `sort_pairs` sorts its light regions with
//! `sort_unstable` into a fresh output; the by-key methods hash their keys
//! into the pool, sort each light region stably by hash, and gather or
//! fold every region (see [`crate::aggregate`]).
//!
//! Every method returns `Result<_, SemisortError>`. The engine's exact
//! distribution cannot overflow, so a method fails only when its
//! [`CancelToken`] trips or on an invalid configuration — and
//! [`Semisorter::new`] already rejects those.
//!
//! ```
//! use semisort::prelude::*;
//!
//! let mut engine = Semisorter::new(SemisortConfig::default()).unwrap();
//! for round in 0..3u64 {
//!     let records: Vec<(u64, u64)> = (0..10_000u64)
//!         .map(|i| (parlay::hash64(i % 50 + round), i))
//!         .collect();
//!     let out = engine.sort_pairs(&records).unwrap();
//!     assert!(semisort::verify::is_semisorted_by(&out, |r| r.0));
//! }
//! // After the first call the pool is at its high-water mark.
//! assert_eq!(engine.last_stats().scratch_grows, 0);
//! ```

use std::hash::Hash;

use crate::aggregate::{by_key_walk, concat, gather, Folder, Keyed};
use crate::api::{apply_permutation_in_place, Groups};
use crate::cancel::CancelToken;
use crate::config::SemisortConfig;
use crate::driver;
use crate::error::SemisortError;
use crate::hash::KeyHash;
use crate::pool::ScratchPool;
use crate::stats::SemisortStats;

/// A reusable semisort engine holding a warm [`ScratchPool`].
///
/// Construct once with [`Semisorter::new`], call repeatedly; see the
/// [module docs](self) for the reuse model. The engine is `Send` (move it
/// into a worker thread) but not `Sync` — each engine serves one semisort
/// at a time, which is what lets it reuse its scratch without
/// synchronization.
#[derive(Debug, Default)]
pub struct Semisorter {
    cfg: SemisortConfig,
    pool: ScratchPool,
    last_stats: SemisortStats,
    cancel: CancelToken,
}

impl Semisorter {
    /// Create an engine from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SemisortError::InvalidConfig`] when
    /// [`SemisortConfig::try_validate`] rejects `cfg` — the engine never
    /// holds a configuration its methods would have to re-reject.
    #[must_use = "the Err carries the validation failure"]
    pub fn new(cfg: SemisortConfig) -> Result<Self, SemisortError> {
        cfg.try_validate()?;
        Ok(Semisorter {
            cfg,
            pool: ScratchPool::new(),
            last_stats: SemisortStats::default(),
            cancel: CancelToken::new(),
        })
    }

    /// The configuration every call runs with.
    pub fn config(&self) -> &SemisortConfig {
        &self.cfg
    }

    /// The engine's [`CancelToken`], polled at phase boundaries by every
    /// method. Clone it to another thread to cancel or deadline a call in
    /// flight; the engine does **not** reset it between calls — services
    /// that reuse a token per request call [`CancelToken::reset`]
    /// themselves (see `semisortd`'s shard loop).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Stats of the most recent successful call (default-initialized before
    /// the first).
    pub fn last_stats(&self) -> &SemisortStats {
        &self.last_stats
    }

    /// Bytes of scratch currently retained for the next call.
    pub fn scratch_bytes_held(&self) -> usize {
        self.pool.bytes_held()
    }

    /// Release all retained scratch now (the next call re-grows from
    /// empty). Equivalent to what a call does on exit when the pool
    /// exceeds [`SemisortConfig::max_scratch_bytes`].
    pub fn trim(&mut self) {
        self.pool.trim();
        self.last_stats.scratch_bytes_held = self.pool.bytes_held();
    }

    /// Semisort pre-hashed `(key, payload)` records — the pooled
    /// counterpart of [`crate::try_semisort_with_stats`] (whose output and
    /// semantics this matches exactly; stats land in
    /// [`Self::last_stats`]).
    #[must_use = "the Err carries the cancellation"]
    pub fn sort_pairs<V: Copy + Send + Sync>(
        &mut self,
        records: &[(u64, V)],
    ) -> Result<Vec<(u64, V)>, SemisortError> {
        let (out, stats) = driver::sort_pairs(records, &self.cfg, &mut self.pool, &self.cancel)?;
        self.last_stats = stats;
        Ok(out)
    }

    /// Run the engine ([`driver::run`]) on `items`' keys, hashed with this
    /// engine's seeded [`KeyHash`], with its config, pool and token,
    /// walking every region with `task` and `region` (see
    /// [`crate::aggregate`]), and keep its stats.
    fn by_key<T, K, F, S, I, R>(
        &mut self,
        items: &[T],
        key: &F,
        task: I,
        region: R,
    ) -> Result<Vec<S>, SemisortError>
    where
        T: Sync,
        K: Hash,
        F: Fn(&T) -> K + Sync,
        S: Send,
        I: Fn(usize) -> S + Sync,
        R: Fn(&mut S, &mut [(u64, u64)]) + Sync,
    {
        let (parts, stats) = driver::run(
            &mut Keyed {
                items,
                key,
                hash: KeyHash::new(self.cfg.seed),
            },
            &self.cfg,
            &mut self.pool,
            &self.cancel,
            &by_key_walk(task, region),
        )?;
        self.last_stats = stats;
        Ok(parts)
    }

    /// Arrange `items` by key: the core gathers `fetch(index)` for every
    /// record, checks each run with `check_key` on the gathered values and
    /// concatenates the tasks' parts, with group starts when `cut`. The
    /// shared body of every method that returns an arrangement.
    fn arrange<T, K, F, X, C>(
        &mut self,
        items: &[T],
        key: &F,
        fetch: impl Fn(usize) -> X + Sync,
        check_key: impl Fn(&X) -> C + Sync,
        cut: bool,
    ) -> Result<Groups<X>, SemisortError>
    where
        T: Sync,
        K: Hash,
        F: Fn(&T) -> K + Sync,
        X: Send,
        C: Eq,
    {
        let parts = self.by_key(items, key, Groups::with_capacity, |part, pairs| {
            gather(part, pairs, &fetch, &check_key, cut)
        })?;
        Ok(concat(parts, cut))
    }

    /// Semisort `items` by an arbitrary `Hash + Eq` key, exact under
    /// 64-bit hash collisions, with each group in input order — the pooled
    /// counterpart of [`crate::api::try_semisort_by_key`].
    #[must_use = "the Err carries the cancellation"]
    pub fn sort_by_key<T, K, F>(&mut self, items: &[T], key: F) -> Result<Vec<T>, SemisortError>
    where
        T: Clone + Send + Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        let sorted = self.arrange(items, &key, |i| items[i].clone(), &key, false)?;
        Ok(sorted.items)
    }

    /// The permutation a semisort would apply (`perm[j] = i` ⇒ output `j`
    /// takes input `i`) — the pooled counterpart of
    /// [`crate::api::try_semisort_permutation`]. It is the permutation
    /// [`Self::sort_by_key`] applies.
    #[must_use = "the Err carries the cancellation"]
    pub fn permutation<T, K, F>(&mut self, items: &[T], key: F) -> Result<Vec<usize>, SemisortError>
    where
        T: Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        let perm = self.arrange(items, &key, |i| i, |&i| key(&items[i]), false)?;
        Ok(perm.items)
    }

    /// Stable semisort (input order survives within each group) — the
    /// pooled counterpart of [`crate::api::try_semisort_stable_by_key`].
    /// Every arrangement the engine returns keeps input order within
    /// groups, so this is [`Self::sort_by_key`].
    #[must_use = "the Err carries the cancellation"]
    pub fn stable_by_key<T, K, F>(&mut self, items: &[T], key: F) -> Result<Vec<T>, SemisortError>
    where
        T: Clone + Send + Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        self.sort_by_key(items, key)
    }

    /// Semisort `items` in place without cloning: [`Self::permutation`],
    /// then cycle rotation ([`apply_permutation_in_place`]) — the pooled
    /// counterpart of [`crate::api::try_semisort_in_place`].
    ///
    /// On `Err` the items are untouched.
    #[must_use = "the Err carries the cancellation"]
    pub fn in_place<T, K, F>(&mut self, items: &mut [T], key: F) -> Result<(), SemisortError>
    where
        T: Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        let perm = self.permutation(items, key)?;
        apply_permutation_in_place(items, &perm);
        Ok(())
    }

    /// Group `items` by key — the pooled counterpart of
    /// [`crate::api::try_group_by`]. The group starts are recorded as the
    /// core walks the runs, and each group is in input order.
    #[must_use = "the Err carries the cancellation"]
    pub fn group_by<T, K, F>(&mut self, items: &[T], key: F) -> Result<Groups<T>, SemisortError>
    where
        T: Clone + Send + Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        self.arrange(items, &key, |i| items[i].clone(), &key, true)
    }

    /// Fold every group into one `(key, accumulator)` — the pooled
    /// counterpart of [`crate::api::try_reduce_by_key`].
    ///
    /// Each group is folded **in input order**: `fold` sees a key's items
    /// in the order they appear in `items`, so a non-commutative fold (an
    /// append, a first/last pick) gives the same answer at every thread
    /// count. Groups come back in no particular order, but the same order
    /// for the same input, config and seed. Items are only read, never
    /// cloned or moved.
    ///
    /// This never builds the semisorted array: it runs the engine's one
    /// run (see [`crate::driver`]) — sample, plan the buckets, distribute
    /// `(hash, index)` pairs into exact bucket regions with a stable
    /// counting sort — and folds the regions in parallel (see
    /// [`crate::aggregate`]). Every setting applies as it does to
    /// [`Self::sort_pairs`]: of [`SemisortConfig::fault`] only the `panic`
    /// fault fires (as on every engine call), and `telemetry` collects the
    /// distribution's counters.
    ///
    /// ```
    /// use semisort::prelude::*;
    ///
    /// // Not Clone: the reduction only reads the items.
    /// struct Event {
    ///     user: u32,
    ///     seq: u32,
    /// }
    /// let events: Vec<Event> = (0..20_000).map(|i| Event { user: i % 7, seq: i }).collect();
    /// let mut engine = Semisorter::new(SemisortConfig::default()).unwrap();
    /// let firsts = engine
    ///     .reduce_by_key(&events, |e| e.user, None, |first, e| first.or(Some(e.seq)))
    ///     .unwrap();
    /// // Input-order fold: every user's first event is the earliest one.
    /// assert_eq!(firsts.len(), 7);
    /// assert!(firsts.iter().all(|&(user, first)| first == Some(user)));
    /// ```
    #[must_use = "the Err carries the cancellation"]
    pub fn reduce_by_key<T, K, A, F, G>(
        &mut self,
        items: &[T],
        key: F,
        init: A,
        fold: G,
    ) -> Result<Vec<(K, A)>, SemisortError>
    where
        T: Sync,
        K: Hash + Eq + Send,
        A: Clone + Send + Sync,
        F: Fn(&T) -> K + Send + Sync,
        G: Fn(A, &T) -> A + Send + Sync,
    {
        let folder = Folder {
            items,
            key: &key,
            init: &init,
            fold: &fold,
        };
        let parts = self.by_key(
            items,
            &key,
            |_| Groups::with_capacity(0),
            |part, pairs| folder.runs(pairs, &mut part.items),
        )?;
        Ok(concat(parts, false).items)
    }

    /// Histogram of items per distinct key — the pooled counterpart of
    /// [`crate::api::try_count_by_key`]. A [`Self::reduce_by_key`] that
    /// counts, with the same contract.
    #[must_use = "the Err carries the cancellation"]
    pub fn count_by_key<T, K, F>(
        &mut self,
        items: &[T],
        key: F,
    ) -> Result<Vec<(K, usize)>, SemisortError>
    where
        T: Sync,
        K: Hash + Eq + Send,
        F: Fn(&T) -> K + Send + Sync,
    {
        self.reduce_by_key(items, key, 0usize, |a, _| a + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_permutation_of, is_semisorted_by};
    use parlay::hash64;

    fn cfg() -> SemisortConfig {
        SemisortConfig {
            seq_threshold: 64,
            ..Default::default()
        }
    }

    #[test]
    fn new_rejects_invalid_config() {
        let bad = SemisortConfig {
            heavy_threshold: 1,
            ..Default::default()
        };
        assert!(matches!(
            Semisorter::new(bad),
            Err(SemisortError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn sort_pairs_reuses_scratch() {
        let mut eng = Semisorter::new(SemisortConfig::default()).unwrap();
        let recs: Vec<(u64, u64)> = (0..50_000u64).map(|i| (hash64(i % 500), i)).collect();
        let first = eng.sort_pairs(&recs).unwrap();
        assert!(is_semisorted_by(&first, |r| r.0));
        assert!(eng.last_stats().scratch_grows >= 1, "first call must grow");
        assert!(eng.scratch_bytes_held() > 0);
        let held = eng.scratch_bytes_held();
        for _ in 0..3 {
            let out = eng.sort_pairs(&recs).unwrap();
            assert!(is_semisorted_by(&out, |r| r.0));
            assert!(is_permutation_of(&out, &recs));
            assert_eq!(eng.last_stats().scratch_grows, 0, "steady state");
            assert!(eng.last_stats().scratch_reuse_hits >= 1);
            assert_eq!(eng.scratch_bytes_held(), held, "high-water mark stable");
        }
    }

    #[test]
    fn trim_releases_everything() {
        let mut eng = Semisorter::new(SemisortConfig::default()).unwrap();
        let recs: Vec<(u64, u64)> = (0..40_000u64).map(|i| (hash64(i), i)).collect();
        eng.sort_pairs(&recs).unwrap();
        assert!(eng.scratch_bytes_held() > 0);
        eng.trim();
        assert_eq!(eng.scratch_bytes_held(), 0);
        // Still works after a trim (re-grows).
        let out = eng.sort_pairs(&recs).unwrap();
        assert!(is_semisorted_by(&out, |r| r.0));
        assert!(eng.last_stats().scratch_grows >= 1);
    }

    #[test]
    fn max_scratch_bytes_bounds_retention() {
        let cfg = SemisortConfig::default().with_max_scratch_bytes(1024);
        let mut eng = Semisorter::new(cfg).unwrap();
        let recs: Vec<(u64, u64)> = (0..40_000u64).map(|i| (hash64(i % 100), i)).collect();
        let out = eng.sort_pairs(&recs).unwrap();
        assert!(is_semisorted_by(&out, |r| r.0));
        // The run needed far more than 1 KiB, so nothing is retained.
        assert_eq!(eng.scratch_bytes_held(), 0);
        assert_eq!(eng.last_stats().scratch_bytes_held, 0);
    }

    #[test]
    fn by_key_methods_work_and_reuse() {
        let mut eng = Semisorter::new(cfg()).unwrap();
        let items: Vec<u32> = (0..30_000).map(|i| i % 321).collect();
        let out = eng.sort_by_key(&items, |&x| x).unwrap();
        assert!(is_semisorted_by(&out, |&x| x));
        assert!(is_permutation_of(&out, &items));
        let g = eng.group_by(&items, |&x| x).unwrap();
        assert_eq!(g.len(), 321);
        assert_eq!(eng.last_stats().scratch_grows, 0, "same n ⇒ no growth");
        let mut counts = eng.count_by_key(&items, |&x| x).unwrap();
        counts.sort_unstable();
        assert_eq!(counts.iter().map(|c| c.1).sum::<usize>(), items.len());
    }

    #[test]
    fn stable_and_in_place_match_semantics() {
        let mut eng = Semisorter::new(cfg()).unwrap();
        let items: Vec<(u32, u32)> = (0..20_000).map(|i| (i % 97, i)).collect();
        let out = eng.stable_by_key(&items, |p| p.0).unwrap();
        assert!(is_semisorted_by(&out, |p| p.0));
        for w in out.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
        let mut v: Vec<u32> = (0..20_000).map(|i| i % 123).collect();
        let orig = v.clone();
        eng.in_place(&mut v, |&x| x).unwrap();
        assert!(is_semisorted_by(&v, |&x| x));
        assert!(is_permutation_of(&v, &orig));
    }

    #[test]
    fn permutation_is_valid() {
        let mut eng = Semisorter::new(cfg()).unwrap();
        let items: Vec<u32> = (0..15_000).map(|i| (i * 37) % 450).collect();
        let perm = eng.permutation(&items, |&x| x).unwrap();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &p)| p == i));
        let arranged: Vec<u32> = perm.iter().map(|&i| items[i]).collect();
        assert!(is_semisorted_by(&arranged, |&x| x));
    }
}
