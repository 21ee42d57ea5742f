//! Pooled scratch memory for the [`Semisorter`](crate::engine::Semisorter)
//! engine.
//!
//! Every phase of the semisort needs transient memory — the scatter arena
//! of the paper's CAS path (by far the largest allocation,
//! `total_slots × sizeof(Slot<V>)`), the Phase 1 sample, the exact
//! distribution's count matrices and stored bucket ids, and the
//! engine-level hashed-record / permutation buffers. One-shot callers
//! allocate and free all of it per call; a `GROUP BY`-style server
//! calling semisort in a loop pays that allocator and page-fault cost on
//! every call even though consecutive calls need (almost) the same
//! memory. The state-of-the-art follow-up semisort
//! (Gu et al., arXiv:2304.10078) attributes much of its speedup to
//! avoiding exactly this transient-memory churn.
//!
//! [`ScratchPool`] owns all of it and hands out **leases**:
//!
//! - Leases grow monotonically: a buffer is only ever reallocated when a
//!   request exceeds its high-water mark (or needs stricter alignment), so
//!   after the first call at a given size every later call at the same or
//!   smaller size performs **zero** arena allocations
//!   ([`SemisortStats::scratch_grows`](crate::stats::SemisortStats::scratch_grows)
//!   stays 0, [`SemisortStats::scratch_reuse_hits`](crate::stats::SemisortStats::scratch_reuse_hits)
//!   counts the hits).
//! - A lease is returned simply by the borrow ending — the memory always
//!   belongs to the pool, so every exit path (success, Las Vegas retry,
//!   degraded fallback, error, panic) returns it without bookkeeping. On
//!   pool drop the backing memory is freed.
//! - Reused arena memory is *dirty* (it still holds the previous run's
//!   keys, which would violate the [`EMPTY`](crate::scatter::EMPTY)
//!   vacancy contract), so `RawBuf` tracks a dirty prefix and re-zeroes
//!   exactly `min(dirty, requested)` bytes — in parallel — on reuse. A
//!   freshly grown buffer comes from `alloc_zeroed` and needs no sweep.
//!
//! The pool's footprint is visible as
//! [`SemisortStats::scratch_bytes_held`](crate::stats::SemisortStats::scratch_bytes_held)
//! and bounded by
//! [`SemisortConfig::max_scratch_bytes`](crate::config::SemisortConfig::max_scratch_bytes)
//! (enforced between runs; see [`ScratchPool::enforce_budget`]).
//! [`ScratchPool::trim`] releases everything eagerly.

use std::alloc::{alloc_zeroed, dealloc, Layout};

use parlay::counting_sort::CountingScratch;
use rayon::prelude::*;

use crate::obs::ScratchCounters;
use crate::scatter::Slot;

/// Zeroing chunk for the parallel dirty-prefix sweep on lease reuse.
const ZERO_CHUNK: usize = 1 << 20;

/// A growable raw allocation with a tracked dirty prefix.
///
/// The arena variant of `Vec<u8>`: grows monotonically (never shrinks
/// short of [`RawBuf::free`]), remembers how many leading bytes may be
/// nonzero, and can lease its memory as a zeroed `&[Slot<V>]` for any `V`
/// — which a typed `Vec` cannot do across calls with different payload
/// types.
///
/// `#[doc(hidden)] pub`: this type is internal (the supported surface is
/// [`ScratchPool`]), but the Miri verification suite
/// (`tests/miri_suite.rs`) drives its lease/grow/free state machine
/// directly, which an integration test can only do through a public path.
#[doc(hidden)]
#[derive(Debug)]
pub struct RawBuf {
    ptr: *mut u8,
    cap: usize,
    align: usize,
    /// Leading bytes that may be nonzero (everything past this is known
    /// zero, either never touched since `alloc_zeroed` or swept).
    dirty: usize,
}

// SAFETY: RawBuf is a plain owned allocation; the raw pointer is not
// aliased outside the lease borrows, which carry normal lifetimes.
unsafe impl Send for RawBuf {}
// SAFETY: &RawBuf exposes no interior mutability.
unsafe impl Sync for RawBuf {}

impl Default for RawBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl RawBuf {
    /// An empty buffer holding no allocation.
    pub const fn new() -> Self {
        RawBuf {
            ptr: std::ptr::null_mut(),
            cap: 0,
            align: 1,
            dirty: 0,
        }
    }

    /// Bytes currently held (the high-water mark of past leases).
    pub fn bytes(&self) -> usize {
        self.cap
    }

    /// Release the backing allocation.
    pub fn free(&mut self) {
        if self.cap > 0 {
            // SAFETY: (ptr, cap, align) describe the live allocation.
            unsafe {
                dealloc(
                    self.ptr,
                    Layout::from_size_align_unchecked(self.cap, self.align),
                );
            }
        }
        // Reset field-by-field: a whole-struct `*self = RawBuf::new()`
        // would drop the overwritten value and re-enter `free` via `Drop`.
        self.ptr = std::ptr::null_mut();
        self.cap = 0;
        self.align = 1;
        self.dirty = 0;
    }

    /// Lease `len` zeroed slots for payload type `V`.
    ///
    /// Returns `Err(bytes_requested)` when the allocator refuses or when
    /// `fail_injected` simulates that refusal (the
    /// [`FaultPlan::fail_alloc_attempts`](crate::fault::FaultPlan::fail_alloc_attempts)
    /// hook — injected failures leave the pooled memory untouched so a
    /// warm pool still exercises the alloc-failure escalation path).
    /// Counts one reuse hit or one grow into `counters`.
    pub fn lease_slots<V: Send + Sync>(
        &mut self,
        len: usize,
        fail_injected: bool,
        counters: &mut ScratchCounters,
    ) -> Result<&[Slot<V>], usize> {
        let layout = Layout::array::<Slot<V>>(len).map_err(|_| usize::MAX)?;
        if fail_injected {
            return Err(layout.size());
        }
        if len == 0 {
            return Ok(&[]);
        }
        let reused = self.cap >= layout.size() && self.align >= layout.align();
        let ptr = self.lease_zeroed(layout.size(), layout.align())?;
        if reused {
            counters.reuse_hits += 1;
        } else {
            counters.grows += 1;
        }
        // SAFETY: the lease is `layout.size()` zeroed bytes at `Slot<V>`
        // alignment, and all-zero bytes are a valid vacant Slot<V>
        // (AtomicU64(0) == EMPTY; the value cell is MaybeUninit).
        Ok(unsafe { std::slice::from_raw_parts(ptr as *const Slot<V>, len) })
    }

    /// Lease `bytes` zeroed bytes at (at least) `align`. Reuses the held
    /// allocation when it is big and aligned enough — sweeping the dirty
    /// prefix back to zero in parallel — and otherwise grows to the new
    /// high-water mark with `alloc_zeroed`. `Err(bytes)` on allocator
    /// refusal.
    fn lease_zeroed(&mut self, bytes: usize, align: usize) -> Result<*mut u8, usize> {
        if self.cap >= bytes && self.align >= align {
            let sweep = self.dirty.min(bytes);
            if sweep > 0 {
                // SAFETY: [0, sweep) is inside the live allocation and no
                // lease is outstanding (&mut self).
                let prefix = unsafe { std::slice::from_raw_parts_mut(self.ptr, sweep) };
                prefix
                    .par_chunks_mut(ZERO_CHUNK)
                    .for_each(|chunk| chunk.fill(0));
            }
            // The caller may dirty anything in [0, bytes); beyond that the
            // old dirty extent (if larger) still stands.
            self.dirty = self.dirty.max(bytes);
            return Ok(self.ptr);
        }
        // Grow to the new high-water mark, never shrinking.
        let new_cap = bytes.max(self.cap);
        let new_align = align.max(self.align);
        let layout = Layout::from_size_align(new_cap, new_align).map_err(|_| usize::MAX)?;
        // SAFETY: layout has nonzero size (bytes > 0 because cap-0 bufs
        // only reach here with bytes > 0, and growing keeps cap > 0).
        let new_ptr = unsafe { alloc_zeroed(layout) };
        if new_ptr.is_null() {
            return Err(layout.size());
        }
        self.free();
        self.ptr = new_ptr;
        self.cap = new_cap;
        self.align = new_align;
        self.dirty = bytes;
        Ok(self.ptr)
    }
}

impl Drop for RawBuf {
    fn drop(&mut self) {
        self.free();
    }
}

/// The engine's reusable scratch memory. See the [module docs](self) for
/// the lease model; [`Semisorter`](crate::engine::Semisorter) owns one and
/// the one-shot entry points construct a transient one per call.
#[derive(Debug, Default)]
pub struct ScratchPool {
    /// The scatter arena (dominant allocation; leased per attempt).
    pub(crate) arena: RawBuf,
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
    /// distribution (the driver's `Counting` path and the by-key
    /// aggregation).
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
        self.arena.bytes()
            + vec_bytes(&self.sample)
            + vec_bytes(&self.hashed)
            + vec_bytes(&self.placed)
            + vec_bytes(&self.perm)
            + vec_bytes(&self.visited)
            + self.counting.bytes()
    }

    /// Release all pooled memory. The pool stays usable; the next call
    /// re-grows from nothing.
    pub fn trim(&mut self) {
        self.arena.free();
        self.sample = Vec::new();
        self.hashed = Vec::new();
        self.placed = Vec::new();
        self.perm = Vec::new();
        self.visited = Vec::new();
        self.counting = CountingScratch::default();
    }

    /// Enforce the retained-memory budget between runs: when the pool
    /// holds more than `max_bytes`, everything is released (all-or-nothing
    /// — the arena dominates the footprint, so partial trimming would
    /// rarely get under a budget the arena alone exceeds). `usize::MAX`
    /// means unlimited.
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
    fn lease_is_zeroed_and_reuses() {
        let mut buf = RawBuf::new();
        let mut c = ScratchCounters::default();
        {
            let slots = buf.lease_slots::<u64>(100, false, &mut c).unwrap();
            assert_eq!(slots.len(), 100);
            assert!(slots.iter().all(|s| !s.occupied()));
            slots[3].set(42, 7);
        }
        assert!(buf.bytes() >= 100 * std::mem::size_of::<Slot<u64>>());
        let held = buf.bytes();
        {
            // Smaller lease reuses and re-zeroes the dirty prefix.
            let slots = buf.lease_slots::<u64>(50, false, &mut c).unwrap();
            assert!(slots.iter().all(|s| !s.occupied()), "stale keys swept");
        }
        assert_eq!(buf.bytes(), held, "monotonic: no shrink");
    }

    #[test]
    fn lease_grows_only_past_high_water() {
        let mut buf = RawBuf::new();
        let mut c = ScratchCounters::default();
        buf.lease_slots::<u64>(64, false, &mut c).unwrap();
        let after_first = buf.bytes();
        assert_eq!((c.grows, c.reuse_hits), (1, 0));
        buf.lease_slots::<u64>(32, false, &mut c).unwrap();
        assert_eq!(buf.bytes(), after_first);
        assert_eq!((c.grows, c.reuse_hits), (1, 1));
        buf.lease_slots::<u64>(128, false, &mut c).unwrap();
        assert!(buf.bytes() > after_first);
        assert_eq!((c.grows, c.reuse_hits), (2, 1));
    }

    #[test]
    fn reuse_rezeroes_the_high_water_dirty_prefix() {
        // Regression for the dirty-prefix boundary: after a LARGE lease
        // dirties [0, B1) and a SMALL lease sweeps only [0, B2), a mid-size
        // lease B3 with B2 < B3 <= B1 must still see vacant slots across
        // [B2, B3) — `dirty` must track the high-water mark, not the size
        // of the most recent lease.
        let mut buf = RawBuf::new();
        let mut c = ScratchCounters::default();
        {
            let slots = buf.lease_slots::<u64>(256, false, &mut c).unwrap();
            for (i, s) in slots.iter().enumerate() {
                s.set(i as u64 + 1, 0); // occupy every slot (keys nonzero)
            }
        }
        {
            let slots = buf.lease_slots::<u64>(16, false, &mut c).unwrap();
            assert!(slots.iter().all(|s| !s.occupied()));
        }
        let slots = buf.lease_slots::<u64>(128, false, &mut c).unwrap();
        assert!(
            slots.iter().all(|s| !s.occupied()),
            "slots in [16, 128) held stale keys: dirty high-water mark lost"
        );
    }

    #[test]
    fn injected_failure_reports_bytes_and_keeps_memory() {
        let mut buf = RawBuf::new();
        let mut c = ScratchCounters::default();
        buf.lease_slots::<u64>(64, false, &mut c).unwrap();
        let held = buf.bytes();
        let want = 64 * std::mem::size_of::<Slot<u64>>();
        assert_eq!(buf.lease_slots::<u64>(64, true, &mut c).err(), Some(want));
        assert_eq!(buf.bytes(), held, "injected failure must not free");
    }

    #[test]
    fn zero_len_lease_is_empty() {
        let mut buf = RawBuf::new();
        let mut c = ScratchCounters::default();
        let slots = buf.lease_slots::<u64>(0, false, &mut c).unwrap();
        assert!(slots.is_empty());
    }

    #[test]
    fn pool_bytes_and_trim() {
        let mut pool = ScratchPool::new();
        assert_eq!(pool.bytes_held(), 0);
        let mut c = ScratchCounters::default();
        pool.arena.lease_slots::<u64>(1000, false, &mut c).unwrap();
        pool.sample.resize(100, 0);
        assert!(pool.bytes_held() >= 1000 * std::mem::size_of::<Slot<u64>>());
        pool.enforce_budget(usize::MAX);
        assert!(pool.bytes_held() > 0, "unlimited budget keeps memory");
        pool.enforce_budget(16);
        assert_eq!(pool.bytes_held(), 0, "over-budget pool frees everything");
        pool.trim();
        assert_eq!(pool.bytes_held(), 0);
    }
}
