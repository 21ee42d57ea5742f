//! Pooled scratch memory for the [`Semisorter`](crate::engine::Semisorter)
//! engine.
//!
//! Every phase of the semisort needs transient memory — the Phase 1
//! sample, the exact distribution's count matrices and stored bucket ids,
//! and the engine-level hashed-record / permutation buffers. One-shot
//! callers allocate and free all of it per call; a `GROUP BY`-style server
//! calling semisort in a loop pays that allocator and page-fault cost on
//! every call even though consecutive calls need (almost) the same
//! memory. The state-of-the-art follow-up semisort
//! (Gu et al., arXiv:2304.10078) attributes much of its speedup to
//! avoiding exactly this transient-memory churn.
//!
//! [`ScratchPool`] owns all of it and lends it to each call:
//!
//! - Buffers grow monotonically: one is only reallocated when a request
//!   exceeds its high-water mark, so after the first call at a given size
//!   every later call at the same or smaller size allocates **no**
//!   scratch
//!   ([`SemisortStats::scratch_grows`](crate::stats::SemisortStats::scratch_grows)
//!   stays 0, [`SemisortStats::scratch_reuse_hits`](crate::stats::SemisortStats::scratch_reuse_hits)
//!   counts the hits).
//! - A buffer is returned simply by the borrow ending — the memory always
//!   belongs to the pool, so every exit path (success, error, panic)
//!   returns it without bookkeeping. On pool drop the memory is freed.
//!
//! The paper's CAS scatter ([`crate::paper`]) is one-shot and holds its
//! slot arena only for the call, so nothing here serves it.
//!
//! The pool's footprint is visible as
//! [`SemisortStats::scratch_bytes_held`](crate::stats::SemisortStats::scratch_bytes_held)
//! and bounded by
//! [`SemisortConfig::max_scratch_bytes`](crate::config::SemisortConfig::max_scratch_bytes)
//! (enforced between runs; see [`ScratchPool::enforce_budget`]).
//! [`ScratchPool::trim`] releases everything eagerly.

use parlay::counting_sort::CountingScratch;

/// The engine's reusable scratch memory. See the [module docs](self) for
/// the reuse model; [`Semisorter`](crate::engine::Semisorter) owns one and
/// the one-shot entry points construct a transient one per call.
#[derive(Debug, Default)]
pub struct ScratchPool {
    /// Phase 1 sample buffer.
    pub(crate) sample: Vec<u64>,
    /// Engine-level `(hash, index)` records for the by-key entry points.
    pub(crate) hashed: Vec<(u64, u64)>,
    /// Engine-level semisorted `(hash, index)` output buffer.
    pub(crate) placed: Vec<(u64, u64)>,
    /// Engine-level permutation buffer (`in_place`, `stable_by_key`).
    pub(crate) perm: Vec<usize>,
    /// Cycle-visited bitmap for the in-place permutation application.
    pub(crate) visited: Vec<u64>,
    /// Count matrices, stored bucket ids and region bounds of the exact
    /// distribution (the driver and the by-key aggregation).
    pub(crate) counting: CountingScratch,
}

impl ScratchPool {
    /// A pool holding no memory; buffers materialize on first use and are
    /// retained across calls.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Total bytes currently held across all pooled buffers.
    pub fn bytes_held(&self) -> usize {
        vec_bytes(&self.sample)
            + vec_bytes(&self.hashed)
            + vec_bytes(&self.placed)
            + vec_bytes(&self.perm)
            + vec_bytes(&self.visited)
            + self.counting.bytes()
    }

    /// Release all pooled memory. The pool stays usable; the next call
    /// re-grows from nothing.
    pub fn trim(&mut self) {
        self.sample = Vec::new();
        self.hashed = Vec::new();
        self.placed = Vec::new();
        self.perm = Vec::new();
        self.visited = Vec::new();
        self.counting = CountingScratch::default();
    }

    /// Enforce the retained-memory budget between runs: when the pool
    /// holds more than `max_bytes`, everything is released (all-or-nothing:
    /// the buffers are sized from the same `n`, so trimming one would
    /// rarely get under a budget the rest exceed). `usize::MAX` means
    /// unlimited.
    pub fn enforce_budget(&mut self, max_bytes: usize) {
        if self.bytes_held() > max_bytes {
            self.trim();
        }
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_bytes_and_trim() {
        let mut pool = ScratchPool::new();
        assert_eq!(pool.bytes_held(), 0);
        pool.sample.resize(1000, 0);
        pool.perm.resize(100, 0);
        assert!(pool.bytes_held() >= 1100 * 8);
        pool.enforce_budget(usize::MAX);
        assert!(pool.bytes_held() > 0, "unlimited budget keeps memory");
        pool.enforce_budget(16);
        assert_eq!(pool.bytes_held(), 0, "over-budget pool frees everything");
        pool.sample.resize(10, 0);
        pool.trim();
        assert_eq!(pool.bytes_held(), 0);
    }
}
