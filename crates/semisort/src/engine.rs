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
use std::mem;

use rayon::prelude::*;

use crate::aggregate::{reduce_pooled, Folder};
use crate::api::{
    apply_permutation_with_scratch, hash_keys_into, repair_collisions_on_perm,
    repair_hash_collisions, Groups,
};
use crate::cancel::CancelToken;
use crate::config::SemisortConfig;
use crate::driver::try_semisort_into_pooled;
use crate::error::SemisortError;
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

    /// Re-apply the retention budget and refresh the held-bytes stat after
    /// pooled buffers have been put back (methods that temporarily take
    /// buffers out of the pool restore them *after* the core has enforced
    /// the budget, so the engine enforces it once more on its own exit).
    fn finish(&mut self) {
        self.pool.enforce_budget(self.cfg.max_scratch_bytes);
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
        let mut out = Vec::new();
        let result =
            try_semisort_into_pooled(records, &self.cfg, &mut self.pool, &mut out, &self.cancel);
        self.finish();
        self.last_stats = result?;
        self.last_stats.scratch_bytes_held = self.pool.bytes_held();
        Ok(out)
    }

    /// Hash `items`' keys into the pool's hashed-record buffer, semisort
    /// into the pool's placed buffer, and leave both restored. The shared
    /// front half of every by-key method that returns an arrangement.
    fn place_by_key<T, K, F>(&mut self, items: &[T], key: &F) -> Result<(), SemisortError>
    where
        T: Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        let mut hashed = mem::take(&mut self.pool.hashed);
        let mut placed = mem::take(&mut self.pool.placed);
        hash_keys_into(items, key, &mut hashed);
        let result = try_semisort_into_pooled(
            &hashed,
            &self.cfg,
            &mut self.pool,
            &mut placed,
            &self.cancel,
        );
        self.pool.hashed = hashed;
        self.pool.placed = placed;
        self.finish();
        self.last_stats = result?;
        self.last_stats.scratch_bytes_held = self.pool.bytes_held();
        Ok(())
    }

    /// Semisort `items` by an arbitrary `Hash + Eq` key, with exact 64-bit
    /// hash-collision repair — the pooled counterpart of
    /// [`crate::api::try_semisort_by_key`].
    #[must_use = "the Err carries the cancellation"]
    pub fn sort_by_key<T, K, F>(&mut self, items: &[T], key: F) -> Result<Vec<T>, SemisortError>
    where
        T: Clone + Send + Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        self.place_by_key(items, &key)?;
        let placed = &self.pool.placed;
        let mut out: Vec<T> = placed
            .par_iter()
            .with_min_len(4096)
            .map(|&(_, i)| items[i as usize].clone())
            .collect();
        repair_hash_collisions(&mut out, placed, &key);
        debug_assert_eq!(out.len(), items.len());
        Ok(out)
    }

    /// Compute the semisort permutation into `perm` (cleared first); the
    /// by-index core of [`Self::permutation`], [`Self::stable_by_key`] and
    /// [`Self::in_place`].
    fn permutation_into<T, K, F>(
        &mut self,
        items: &[T],
        key: &F,
        perm: &mut Vec<usize>,
    ) -> Result<(), SemisortError>
    where
        T: Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        self.place_by_key(items, key)?;
        let placed = &self.pool.placed;
        perm.clear();
        perm.extend(placed.iter().map(|&(_, i)| i as usize));
        repair_collisions_on_perm(perm, placed, items, key);
        Ok(())
    }

    /// The permutation a semisort would apply (`perm[j] = i` ⇒ output `j`
    /// takes input `i`) — the pooled counterpart of
    /// [`crate::api::try_semisort_permutation`].
    #[must_use = "the Err carries the cancellation"]
    pub fn permutation<T, K, F>(&mut self, items: &[T], key: F) -> Result<Vec<usize>, SemisortError>
    where
        T: Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        let mut perm = Vec::new();
        self.permutation_into(items, &key, &mut perm)?;
        Ok(perm)
    }

    /// Stable semisort (input order survives within each group) — the
    /// pooled counterpart of [`crate::api::try_semisort_stable_by_key`].
    #[must_use = "the Err carries the cancellation"]
    pub fn stable_by_key<T, K, F>(&mut self, items: &[T], key: F) -> Result<Vec<T>, SemisortError>
    where
        T: Clone + Send + Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        let n = items.len();
        let mut perm = mem::take(&mut self.pool.perm);
        let result = self.permutation_into(items, &key, &mut perm);
        let result = result.map(|()| {
            // Restore input order inside each key run (the scatter
            // randomizes within buckets), then gather.
            let bounds: Vec<usize> = {
                let mut b = parlay::pack_index(n, |j| {
                    j == 0 || key(&items[perm[j]]) != key(&items[perm[j - 1]])
                });
                b.push(n);
                b
            };
            let mut rest: &mut [usize] = &mut perm;
            let mut runs: Vec<&mut [usize]> = Vec::with_capacity(bounds.len());
            for w in bounds.windows(2) {
                let (head, tail) = rest.split_at_mut(w[1] - w[0]);
                runs.push(head);
                rest = tail;
            }
            runs.into_par_iter().for_each(|run| run.sort_unstable());
            perm.par_iter()
                .with_min_len(4096)
                .map(|&i| items[i].clone())
                .collect()
        });
        self.pool.perm = perm;
        self.finish();
        result
    }

    /// Semisort `items` in place without cloning: permutation into pooled
    /// scratch, then cycle rotation with a pooled visited bitset — the
    /// pooled counterpart of [`crate::api::try_semisort_in_place`], and
    /// the only by-key path that allocates nothing at steady state.
    ///
    /// On `Err` the items are untouched.
    #[must_use = "the Err carries the cancellation"]
    pub fn in_place<T, K, F>(&mut self, items: &mut [T], key: F) -> Result<(), SemisortError>
    where
        T: Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        let mut perm = mem::take(&mut self.pool.perm);
        let mut visited = mem::take(&mut self.pool.visited);
        let result = self.permutation_into(items, &key, &mut perm);
        let result = result.map(|()| apply_permutation_with_scratch(items, &perm, &mut visited));
        self.pool.perm = perm;
        self.pool.visited = visited;
        self.finish();
        result
    }

    /// Group `items` by key — the pooled counterpart of
    /// [`crate::api::try_group_by`].
    #[must_use = "the Err carries the cancellation"]
    pub fn group_by<T, K, F>(&mut self, items: &[T], key: F) -> Result<Groups<T>, SemisortError>
    where
        T: Clone + Send + Sync,
        K: Hash + Eq,
        F: Fn(&T) -> K + Send + Sync,
    {
        let sorted = self.sort_by_key(items, &key)?;
        let n = sorted.len();
        let mut starts =
            parlay::pack_index(n, |i| i == 0 || key(&sorted[i]) != key(&sorted[i - 1]));
        starts.push(n);
        Ok(Groups {
            items: sorted,
            starts,
        })
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
    /// This never builds the semisorted array: it samples, plans the
    /// buckets, distributes `(hash, index)` pairs into exact bucket
    /// regions with a stable counting sort, and folds the regions in
    /// parallel (see [`crate::aggregate`]). The regions are folded, not
    /// sorted by `local_sort_algo`, and there are no distribution counters
    /// to collect, so the reduction ignores
    /// [`SemisortConfig::local_sort_algo`] and `telemetry`; of
    /// [`SemisortConfig::fault`] only the `panic` fault applies (as on
    /// every engine call). It honours `seed`, `sample_shift`,
    /// `heavy_threshold`, `light_bucket_log2`, `merge_light_buckets`,
    /// `seq_threshold`, `max_scratch_bytes` and `capture_scheduler`.
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
        let result = reduce_pooled(&folder, &self.cfg, &mut self.pool, &self.cancel);
        self.finish();
        let (groups, stats) = result?;
        self.last_stats = stats;
        self.last_stats.scratch_bytes_held = self.pool.bytes_held();
        Ok(groups)
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
