//! Pooled scratch memory for the [`Semisorter`](crate::engine::Semisorter)
//! engine.
//!
//! Every phase of the semisort needs transient memory — the scatter arena
//! (by far the largest allocation, `total_slots × sizeof(Slot<V>)`), the
//! Phase 1 sample, the blocked scatter's per-worker block buffers and
//! bucket cursors, and the engine-level hashed-record / permutation
//! buffers. One-shot callers allocate and free all of it per call; a
//! `GROUP BY`-style server calling semisort in a loop pays that allocator
//! and page-fault cost on every call even though consecutive calls need
//! (almost) the same memory. The state-of-the-art follow-up semisort
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

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::sync::atomic::AtomicUsize;

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

    /// Grow to at least `bytes` at `align`, preserving current contents
    /// (used by the blocked scatter's bump-allocated block store, which
    /// must not lose already-buffered records). Aborts on allocator
    /// refusal — this path has no graceful degradation, matching the
    /// behavior of the `Vec` buffers it replaced.
    pub fn grow_preserve(&mut self, bytes: usize, align: usize) {
        if self.cap >= bytes && self.align >= align {
            return;
        }
        // Amortize: at least double, so per-record bump cost stays O(1).
        let new_cap = bytes.max(self.cap.saturating_mul(2)).max(64);
        let new_align = align.max(self.align);
        let layout = Layout::from_size_align(new_cap, new_align).expect("scratch layout");
        // SAFETY: nonzero size by construction (max(…, 64)).
        let new_ptr = unsafe { alloc_zeroed(layout) };
        if new_ptr.is_null() {
            handle_alloc_error(layout);
        }
        if self.cap > 0 {
            // SAFETY: both regions are live and new_cap >= cap.
            unsafe { std::ptr::copy_nonoverlapping(self.ptr, new_ptr, self.cap) };
        }
        self.free();
        self.ptr = new_ptr;
        self.cap = new_cap;
        self.align = new_align;
        self.dirty = new_cap;
    }

    /// The buffer as `len` records of type `T` (unchecked beyond a debug
    /// capacity assertion; callers track their own fill).
    ///
    /// # Safety
    ///
    /// `len * size_of::<T>() <= self.bytes()`, the buffer's alignment must
    /// satisfy `T`, and the first `len` records must have been written.
    pub unsafe fn as_slice<T>(&self, offset: usize, len: usize) -> &[T] {
        // Checked: a huge offset/len must fail the assert, not wrap past it.
        debug_assert!(offset
            .checked_add(len)
            .and_then(|n| n.checked_mul(std::mem::size_of::<T>()))
            .is_some_and(|bytes| bytes <= self.cap));
        // SAFETY: caller contract.
        unsafe { std::slice::from_raw_parts((self.ptr as *const T).add(offset), len) }
    }

    /// Write one record of type `T` at record index `i`.
    ///
    /// # Safety
    ///
    /// `(i + 1) * size_of::<T>() <= self.bytes()` and the buffer's
    /// alignment must satisfy `T`.
    pub unsafe fn write_at<T>(&mut self, i: usize, value: T) {
        // Checked: a huge index must fail the assert, not wrap past it.
        debug_assert!(i
            .checked_add(1)
            .and_then(|n| n.checked_mul(std::mem::size_of::<T>()))
            .is_some_and(|bytes| bytes <= self.cap));
        // SAFETY: caller contract.
        unsafe { (self.ptr as *mut T).add(i).write(value) };
    }
}

impl Drop for RawBuf {
    fn drop(&mut self) {
        self.free();
    }
}

/// One worker's reusable state for the blocked scatter: the per-bucket
/// block buffers, stored as bump-allocated fixed-size slabs in one raw
/// buffer instead of `num_buckets` separate `Vec`s per chunk.
#[derive(Debug)]
pub(crate) struct WorkerScratch {
    /// bucket → slab index this chunk, or `u32::MAX`. Invariant between
    /// chunks (and between runs): every entry is `u32::MAX`, restored by
    /// [`WorkerScratch::reset`] on every exit path.
    slot_of: Vec<u32>,
    /// slab index → records currently buffered in that slab.
    fill: Vec<u32>,
    /// Bucket ids touched this chunk, in slab order (`slot_of[touched[i]]
    /// == i`).
    touched: Vec<u32>,
    /// The slab store: `touched.len()` slabs of `block` records each.
    store: RawBuf,
}

impl WorkerScratch {
    pub(crate) fn new() -> Self {
        WorkerScratch {
            slot_of: Vec::new(),
            fill: Vec::new(),
            touched: Vec::new(),
            store: RawBuf::new(),
        }
    }

    /// Bytes held across the buffers.
    fn bytes(&self) -> usize {
        self.store.bytes()
            + self.slot_of.capacity() * std::mem::size_of::<u32>()
            + self.fill.capacity() * std::mem::size_of::<u32>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
    }

    /// Reserve room for a slab per bucket, so no later
    /// [`WorkerScratch::push`] of this run can grow the store, however many
    /// buckets the worker ends up touching.
    fn reserve<V>(&mut self, num_buckets: usize, block: usize) {
        if self.slot_of.len() < num_buckets {
            self.slot_of.resize(num_buckets, u32::MAX);
        }
        self.fill
            .reserve(num_buckets.saturating_sub(self.fill.len()));
        self.touched.reserve(num_buckets);
        self.store.grow_preserve(
            num_buckets * block * std::mem::size_of::<(u64, V)>(),
            std::mem::align_of::<(u64, V)>(),
        );
    }

    /// Make the bucket map large enough for this run. New entries start at
    /// `u32::MAX`; existing entries already hold it (the reset invariant).
    pub(crate) fn begin(&mut self, num_buckets: usize) {
        debug_assert!(self.touched.is_empty(), "reset() must have run");
        if self.slot_of.len() < num_buckets {
            self.slot_of.resize(num_buckets, u32::MAX);
        }
    }

    /// Hint the cache line of bucket `b`'s map entry — the first dependent
    /// load of a future [`WorkerScratch::push`] for that bucket. Used by
    /// the blocked scatter's routing lookahead; purely a hint, no effect on
    /// state.
    #[inline(always)]
    pub(crate) fn prefetch_bucket(&self, b: usize) {
        if let Some(e) = self.slot_of.get(b) {
            crate::scatter::prefetch(e);
        }
    }

    /// Buffer one record for bucket `b`. Returns the full slab when this
    /// push filled it — the caller must flush that block and the slab is
    /// implicitly emptied (its fill restarts at 0).
    #[inline]
    pub(crate) fn push<V: Copy + Send + Sync>(
        &mut self,
        b: usize,
        record: (u64, V),
        block: usize,
    ) -> Option<&[(u64, V)]> {
        let mut s = self.slot_of[b];
        if s == u32::MAX {
            s = self.touched.len() as u32;
            let si = s as usize;
            let need = (si + 1) * block * std::mem::size_of::<(u64, V)>();
            self.store
                .grow_preserve(need, std::mem::align_of::<(u64, V)>());
            if self.fill.len() <= si {
                self.fill.push(0);
            } else {
                self.fill[si] = 0;
            }
            self.slot_of[b] = s;
            self.touched.push(b as u32);
        }
        let s = s as usize;
        let f = self.fill[s] as usize;
        // SAFETY: grow_preserve sized the store for slab s; index s*block+f
        // is inside slab s (f < block).
        unsafe { self.store.write_at(s * block + f, record) };
        if f + 1 == block {
            self.fill[s] = 0;
            // SAFETY: all `block` records of slab s have been written at
            // least once since the slab was (re)opened.
            Some(unsafe { self.store.as_slice(s * block, block) })
        } else {
            self.fill[s] = (f + 1) as u32;
            None
        }
    }

    /// Number of slabs opened this chunk.
    pub(crate) fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Slab `s`'s bucket and its buffered partial block (end-of-chunk
    /// drain).
    pub(crate) fn partial<V: Copy + Send + Sync>(
        &self,
        s: usize,
        block: usize,
    ) -> (usize, &[(u64, V)]) {
        let b = self.touched[s] as usize;
        let f = self.fill[s] as usize;
        // SAFETY: the first f records of slab s were written this cycle.
        (b, unsafe { self.store.as_slice(s * block, f) })
    }

    /// Restore the all-`u32::MAX` invariant of `slot_of`. Must run at the
    /// end of every chunk, including failed/overflowed ones.
    pub(crate) fn reset(&mut self) {
        for &b in &self.touched {
            let b = b as usize;
            self.slot_of[b] = u32::MAX;
        }
        self.touched.clear();
    }
}

/// Pooled state for [`crate::blocked_scatter::blocked_scatter`]: one
/// `WorkerScratch` per concurrent chunk plus the shared bucket cursors.
#[derive(Debug, Default)]
pub struct BlockScratch {
    pub(crate) workers: Vec<WorkerScratch>,
    pub(crate) cursors: Vec<AtomicUsize>,
}

impl BlockScratch {
    /// An empty scratch holding no memory (a transient one per call
    /// reproduces the unpooled behavior).
    pub fn new() -> Self {
        BlockScratch::default()
    }

    /// Bytes held across workers and cursors.
    pub fn bytes(&self) -> usize {
        self.workers.iter().map(WorkerScratch::bytes).sum::<usize>()
            + self.cursors.capacity() * std::mem::size_of::<AtomicUsize>()
    }

    /// Size for `num_buckets` buckets and `num_chunks` concurrent chunks,
    /// zeroing the cursors that this run will use.
    pub(crate) fn prepare(&mut self, num_buckets: usize, num_chunks: usize) {
        if self.cursors.len() < num_buckets {
            self.cursors
                .resize_with(num_buckets, || AtomicUsize::new(0));
        }
        for c in &self.cursors[..num_buckets] {
            // ORDERING: Relaxed reset under &mut self, before the workers
            // that will contend on these cursors are spawned.
            // publishes-via: fork-join barrier (scope spawn)
            c.store(0, std::sync::atomic::Ordering::Relaxed);
        }
        if self.workers.len() < num_chunks {
            self.workers.resize_with(num_chunks, WorkerScratch::new);
        }
    }

    /// Release all held memory.
    pub fn free(&mut self) {
        self.workers = Vec::new();
        self.cursors = Vec::new();
    }
}

/// `hole_of` sentinel and list terminator: no (further) hole range.
pub(crate) const HOLES_NONE: usize = usize::MAX;

/// One open hole range in the in-place scatter: positions
/// `[start, start + len)` of the output buffer were claimed (their records
/// read out) by one worker and not yet refilled. Ranges of one worker in
/// the same bucket form a singly-linked list threaded through `next` (an
/// index into the shared hole table; [`HOLES_NONE`] terminates).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HoleRange {
    pub(crate) start: usize,
    pub(crate) len: usize,
    pub(crate) next: usize,
}

impl HoleRange {
    /// An unused table slot: no positions, so reconciliation skips it.
    const UNUSED: HoleRange = HoleRange {
        start: 0,
        len: 0,
        next: HOLES_NONE,
    };
}

/// One worker's reusable state for the in-place scatter: the per-bucket
/// swap buffers (same slab layout as the blocked scatter's
/// [`WorkerScratch`]) plus the heads of its per-bucket hole lists.
#[derive(Debug)]
pub(crate) struct InPlaceWorker {
    /// Per-destination-bucket swap buffers (slabs of `swap_buffer` records).
    pub(crate) buf: WorkerScratch,
    /// bucket → head of this worker's hole list in that bucket, or
    /// [`HOLES_NONE`]; reset for every run by `InPlaceScratch::prepare`.
    pub(crate) hole_of: Vec<usize>,
}

impl InPlaceWorker {
    fn new() -> Self {
        InPlaceWorker {
            buf: WorkerScratch::new(),
            hole_of: Vec::new(),
        }
    }

    fn bytes(&self) -> usize {
        self.buf.bytes() + vec_bytes(&self.hole_of)
    }

    /// Empty the hole lists and size the swap slabs for a run over
    /// `num_buckets` buckets with `swap_buffer`-record slabs.
    fn prepare<V>(&mut self, num_buckets: usize, swap_buffer: usize) {
        self.hole_of.clear();
        self.hole_of.resize(num_buckets, HOLES_NONE);
        self.buf.reserve::<V>(num_buckets, swap_buffer);
    }
}

/// Pooled state for [`crate::inplace_scatter::inplace_scatter`]: the
/// counting matrix, the per-bucket region bounds and claim cursors, the
/// shared hole table, and one `InPlaceWorker` per concurrent worker — no
/// O(n·α) arena.
#[derive(Debug, Default)]
pub struct InPlaceScratch {
    /// Exclusive prefix sums of the bucket counts: bucket `b`'s region is
    /// `starts[b]..starts[b + 1]` (length `num_buckets + 1` this run).
    pub(crate) starts: Vec<usize>,
    /// Per-bucket claim cursors (absolute indices into the output buffer).
    pub(crate) heads: Vec<AtomicUsize>,
    /// Counting-pass matrix: `num_chunks × num_buckets`, row-major.
    pub(crate) counts: Vec<usize>,
    /// Hole table: one slot per possible prime claim (see the
    /// `inplace_scatter` module docs for the slot formula).
    pub(crate) holes: Vec<HoleRange>,
    /// Per-worker swap/hole state.
    pub(crate) workers: Vec<InPlaceWorker>,
}

impl InPlaceScratch {
    /// An empty scratch holding no memory.
    pub fn new() -> Self {
        InPlaceScratch::default()
    }

    /// Bytes held across all buffers.
    pub fn bytes(&self) -> usize {
        vec_bytes(&self.starts)
            + vec_bytes(&self.heads)
            + vec_bytes(&self.counts)
            + vec_bytes(&self.holes)
            + self.workers.iter().map(InPlaceWorker::bytes).sum::<usize>()
    }

    /// Size every buffer of an `n`-record run over `num_buckets` buckets,
    /// `num_chunks` counting chunks and `num_workers` permutation workers
    /// from those numbers alone, so the run itself never allocates scratch.
    /// Zeroes the counting matrix and empties the hole table. Returns true
    /// when anything had to allocate (a pool "grow"); false when the pooled
    /// capacity was reused as-is.
    pub(crate) fn prepare<V>(
        &mut self,
        n: usize,
        num_buckets: usize,
        num_chunks: usize,
        num_workers: usize,
        swap_buffer: usize,
    ) -> bool {
        let before = self.bytes();
        self.starts.clear();
        self.starts.reserve(num_buckets + 1);
        if self.heads.len() < num_buckets {
            self.heads.resize_with(num_buckets, || AtomicUsize::new(0));
        }
        self.counts.clear();
        self.counts.resize(num_chunks * num_buckets, 0);
        self.holes.clear();
        self.holes
            .resize(n.div_ceil(swap_buffer) + num_buckets, HoleRange::UNUSED);
        if self.workers.len() < num_workers {
            self.workers.resize_with(num_workers, InPlaceWorker::new);
        }
        for worker in &mut self.workers[..num_workers] {
            worker.prepare::<V>(num_buckets, swap_buffer);
        }
        self.bytes() != before
    }

    /// Release all held memory.
    pub fn free(&mut self) {
        *self = InPlaceScratch::default();
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
    /// Blocked-scatter worker buffers and cursors.
    pub(crate) blocked: BlockScratch,
    /// In-place-scatter counting matrix, region cursors and swap buffers.
    pub(crate) inplace: InPlaceScratch,
    /// Engine-level `(hash, index)` records for the by-key entry points.
    pub(crate) hashed: Vec<(u64, u64)>,
    /// Engine-level semisorted `(hash, index)` output buffer.
    pub(crate) placed: Vec<(u64, u64)>,
    /// Engine-level permutation buffer (`in_place`, `stable_by_key`).
    pub(crate) perm: Vec<usize>,
    /// Cycle-visited bitmap for the in-place permutation application.
    pub(crate) visited: Vec<u64>,
    /// Count matrices and bucket offsets of the by-key aggregation's
    /// exact distribution.
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
            + self.blocked.bytes()
            + self.inplace.bytes()
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
        self.blocked.free();
        self.inplace.free();
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
    #[should_panic]
    #[cfg(debug_assertions)]
    fn wrapping_view_arithmetic_is_caught() {
        // The bounds check must use checked arithmetic: an offset+len that
        // wraps past usize::MAX would sail under a naive `<= cap` compare.
        let mut buf = RawBuf::new();
        buf.grow_preserve(64, 8);
        // SAFETY: never dereferenced — the checked debug_assert fires first.
        let _ = unsafe { buf.as_slice::<u64>(usize::MAX, 2) };
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn wrapping_write_index_is_caught() {
        let mut buf = RawBuf::new();
        buf.grow_preserve(64, 8);
        // SAFETY: never dereferenced — the checked debug_assert fires first.
        unsafe { buf.write_at::<u64>(usize::MAX, 1) };
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
    fn grow_preserve_keeps_contents() {
        let mut buf = RawBuf::new();
        buf.grow_preserve(8 * 4, 8);
        for i in 0..4usize {
            // SAFETY: grow_preserve sized the store for 4 u64s; i < 4.
            unsafe { buf.write_at::<u64>(i, i as u64 + 10) };
        }
        buf.grow_preserve(8 * 1000, 8);
        // SAFETY: indices [0, 4) were all written above; grow preserved them.
        let got: &[u64] = unsafe { buf.as_slice(0, 4) };
        assert_eq!(got, &[10, 11, 12, 13]);
    }

    #[test]
    fn worker_scratch_push_flush_cycle() {
        let mut ws = WorkerScratch::new();
        ws.begin(10);
        let block = 4usize;
        let mut full_blocks = 0;
        for i in 0..10u64 {
            if let Some(full) = ws.push::<u64>(3, (100 + i, i), block) {
                assert_eq!(full.len(), block);
                full_blocks += 1;
            }
        }
        assert_eq!(full_blocks, 2);
        assert_eq!(ws.touched_len(), 1);
        let (b, part) = ws.partial::<u64>(0, block);
        assert_eq!(b, 3);
        assert_eq!(part, &[(108, 8), (109, 9)]);
        ws.reset();
        assert_eq!(ws.touched_len(), 0);
        // Reset restores the invariant: a new cycle starts clean.
        ws.begin(10);
        assert!(ws.push::<u64>(7, (1, 1), block).is_none());
        let (b, part) = ws.partial::<u64>(0, block);
        assert_eq!((b, part.len()), (7, 1));
        ws.reset();
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
