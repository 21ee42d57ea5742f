//! Phase 3 (in-place variant): permute records into their bucket regions
//! without the scatter arena.
//!
//! The CAS and blocked scatters trade memory for simplicity: both write
//! through a slot array of `α · n` slots (~70 MB at n = 10⁶ for
//! `(u64, u64)` records), which the pack phase then compacts. This module
//! instead computes **exact** bucket boundaries with a counting pass and
//! permutes the records *within the output buffer itself*, in the style of
//! in-place parallel shuffling / IPS⁴o-like block permutation (see
//! PAPERS.md, arXiv 2302.03317): scratch drops to
//! O(n / swap_buffer + workers · buckets · swap_buffer).
//!
//! # The cursor-claim protocol
//!
//! After the counting pass, bucket `b` owns the region
//! `[starts[b], starts[b+1])` of the output buffer and an atomic claim
//! cursor `heads[b]` (initialized to `starts[b]`). The only shared-memory
//! operation in the whole permutation is
//! `heads[b].fetch_add(k)` (clamped to the region end): it hands the
//! calling worker *exclusive* ownership of `k` fresh positions. Claimed
//! positions are read once (displacing the records that sat there),
//! written once (with records that belong to `b`), and never touched
//! again. Because `fetch_add` ranges are disjoint and no data flows
//! through the cursors themselves, `Relaxed` ordering suffices — the
//! fork/join edges of the parallel loop publish everything else
//! (`tests/race_model.rs` holds the loom model of exactly this argument).
//!
//! Each worker runs a prime/flush/strand loop:
//!
//! - **prime**: claim up to `swap_buffer` positions from some unexhausted
//!   bucket `b`. Displaced records that already belong to `b` are compacted
//!   to the front of the claim (fixed points in place are free — an
//!   all-equal-keys input permutes with zero writes); the rest are read
//!   in-hand and the claim's tail becomes one **private hole range** in
//!   `b`, threaded onto the worker's per-bucket hole list.
//! - **classify**: in-hand records are pushed into per-destination-bucket
//!   swap buffers (the same slab `WorkerScratch` structure the blocked
//!   scatter uses).
//! - **flush**: a full buffer for bucket `d` first repays the worker's
//!   private `d`-holes (write-only), then claims fresh `d` positions
//!   (swap: read the displaced record in-hand, write the buffered one).
//!   In-hand count never grows during a flush, so the loop cannot run
//!   away.
//! - **strand**: if `d`'s region is exhausted and no private holes
//!   remain, the leftover buffered records are stranded — their holes
//!   belong to *other* workers.
//!
//! When every cursor is exhausted the workers drain their partial buffers
//! (repay-or-strand) and join. A short sequential **reconciliation** then
//! fills the surviving holes from the stranded records: per bucket,
//! `unfilled holes == stranded records` by conservation (every position is
//! claimed exactly once, read exactly once, written exactly once; every
//! record is read exactly once and written exactly once).
//!
//! # Scratch sized from the plan
//!
//! Every buffer the permutation touches is sized before it starts, from
//! the input size, the bucket count, the worker count and `swap_buffer`
//! alone — never from the work a worker happened to steal — so an
//! identical second call reuses the pool without growing it:
//!
//! - Hole ranges live in one shared table with a fixed slot per prime
//!   claim. Within a region every prime claim but the last spans a full
//!   `swap_buffer`, so `pos / swap_buffer + b` is distinct across all
//!   prime claims and below `⌈n / swap_buffer⌉ + buckets`. Slots are
//!   ordered by bucket, which lets reconciliation scan the table in order.
//! - Each worker's swap slabs are reserved for every bucket up front.
//!
//! Unlike the arena scatters this phase cannot overflow — the counting
//! pass is exact — so the driver runs it once, outside the Las Vegas retry
//! loop.

use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

use crate::buckets::BucketPlan;
use crate::config::LocalSortAlgo;
use crate::local_sort::sort_records;
use crate::obs::{ObsSink, WorkerCell};
use crate::pool::{HoleRange, InPlaceScratch, InPlaceWorker, HOLES_NONE};

/// Below this many records the counting pass runs as a single chunk.
const MIN_CHUNK: usize = 8192;

/// One counting-pass work item: a private matrix row plus the record chunk
/// that fills it.
type CountRow<'a, V> = (&'a mut [usize], &'a [(u64, V)]);

/// What one worker hands back: its stranded records, cycle count and swap
/// buffer flush count.
type WorkerYield<V> = (Vec<(u64, V)>, usize, usize);

/// What [`inplace_scatter`] reports back to the driver.
#[derive(Debug, Default)]
pub struct InPlaceOutcome {
    /// Records that landed in heavy buckets (bucket id < `num_heavy`).
    pub heavy_records: usize,
    /// Prime claims issued — each starts one displacement chain (the
    /// in-place analogue of following a permutation cycle).
    pub cycles: usize,
    /// Swap-buffer flushes (full slabs plus end-of-run partial drains).
    pub flushes: usize,
    /// True when `InPlaceScratch::prepare` had to allocate (cold pool or
    /// a larger run); false when the pooled buffers were big enough — the
    /// driver folds this into the scratch reuse/grow counters.
    pub grew: bool,
}

/// A raw view of a buffer that workers access at disjoint indices: the
/// output records, and the shared hole-range table.
///
/// Plain `Copy` wrapper so the parallel closures can capture it by value;
/// all dereferences go through the unsafe [`Shared::read`] /
/// [`Shared::write`], whose safety rests on the cursor-claim protocol
/// (each index is owned by exactly one worker at a time).
struct Shared<T> {
    ptr: *mut T,
    #[cfg(debug_assertions)]
    len: usize,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<T> {}
// SAFETY: the wrapper itself is just a pointer; cross-thread use is
// governed by the claim protocol documented on the methods.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: as above — &Shared only exposes the unsafe accessors.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T: Copy> Shared<T> {
    fn new(buf: &mut [T]) -> Self {
        Shared {
            ptr: buf.as_mut_ptr(),
            #[cfg(debug_assertions)]
            len: buf.len(),
        }
    }

    /// Read the element at `i`.
    ///
    /// # Safety
    ///
    /// `i` is in bounds and currently claimed by the calling worker (no
    /// other thread may access index `i` concurrently).
    #[inline]
    unsafe fn read(self, i: usize) -> T {
        #[cfg(debug_assertions)]
        debug_assert!(i < self.len);
        // SAFETY: caller contract — exclusive claim over index i.
        unsafe { *self.ptr.add(i) }
    }

    /// Write the element at `i`.
    ///
    /// # Safety
    ///
    /// As [`Shared::read`]: `i` is in bounds and exclusively claimed.
    #[inline]
    unsafe fn write(self, i: usize, v: T) {
        #[cfg(debug_assertions)]
        debug_assert!(i < self.len);
        // SAFETY: caller contract — exclusive claim over index i.
        unsafe { self.ptr.add(i).write(v) };
    }
}

/// Claim up to `want` fresh positions of the region ending at `end` from
/// `head`. Returns the claimed range `(pos, k)` or `None` when the region
/// is exhausted (a lost race counts as exhausted — the winner owns the
/// tail).
///
/// The `fetch_add` may overshoot `end`; overshoot positions are outside
/// every returned range, so they are never read or written by anyone, and
/// the preceding load bounds how far the cursor can run past the end.
#[inline]
fn claim(head: &AtomicUsize, end: usize, want: usize) -> Option<(usize, usize)> {
    // ORDERING: Relaxed exhaustion pre-check; a stale value only costs a
    // wasted fetch_add, which re-checks against `end` itself.
    // publishes-via: fork-join barrier (claimed slots are read next phase)
    if head.load(Ordering::Relaxed) >= end {
        return None;
    }
    // ORDERING: Relaxed cursor bump — uniqueness of the claimed range
    // comes from fetch_add atomicity alone; the records written into the
    // range are published to the next phase by the join, not this RMW.
    // publishes-via: fork-join barrier
    let pos = head.fetch_add(want, Ordering::Relaxed);
    if pos >= end {
        return None;
    }
    Some((pos, want.min(end - pos)))
}

/// The cross-worker state of one permutation: the output buffer, the
/// hole-range table, the region bounds and the claim cursors.
#[derive(Clone, Copy)]
struct Regions<'a, V> {
    out: Shared<(u64, V)>,
    holes: Shared<HoleRange>,
    starts: &'a [usize],
    heads: &'a [AtomicUsize],
    swap_buffer: usize,
}

/// Permute `records` into `out` so every record sits inside its bucket's
/// region (exact boundaries from the counting pass; region order is bucket
/// order, heavy then light). Record order *within* a region is
/// scheduling-dependent; [`sort_light_regions`] restores a deterministic
/// key sequence afterwards.
///
/// `swap_buffer` is [`ScatterConfig::swap_buffer`](crate::config::ScatterConfig::swap_buffer).
pub fn inplace_scatter<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    plan: &BucketPlan,
    out: &mut Vec<(u64, V)>,
    swap_buffer: usize,
    sink: &ObsSink,
    scratch: &mut InPlaceScratch,
) -> InPlaceOutcome {
    let n = records.len();
    let num_buckets = plan.num_buckets();
    out.clear();
    out.extend_from_slice(records);
    if n == 0 || num_buckets == 0 {
        return InPlaceOutcome::default();
    }

    let workers = rayon::current_num_threads().max(1);
    let chunk = n.div_ceil(workers * 2).max(MIN_CHUNK);
    let num_chunks = n.div_ceil(chunk);
    let grew = scratch.prepare::<V>(n, num_buckets, num_chunks, workers, swap_buffer);

    // Counting pass: one private row of the matrix per chunk, no sharing.
    {
        let mut rows: Vec<CountRow<'_, V>> = scratch
            .counts
            .chunks_mut(num_buckets)
            .zip(records.chunks(chunk))
            .collect();
        rows.par_iter_mut().for_each(|(row, chunk_recs)| {
            for &(key, _) in chunk_recs.iter() {
                row[plan.bucket_of(key) as usize] += 1;
            }
        });
    }

    // Exclusive prefix sum → exact region bounds. Never overflows: the
    // regions partition [0, n) exactly.
    let mut heavy_records = 0usize;
    let mut acc = 0usize;
    scratch.starts.push(0);
    for b in 0..num_buckets {
        let mut total = 0usize;
        for ci in 0..num_chunks {
            total += scratch.counts[ci * num_buckets + b];
        }
        if b < plan.num_heavy {
            heavy_records += total;
        } else {
            sink.record_occupancy(total as u64);
        }
        acc += total;
        scratch.starts.push(acc);
    }
    debug_assert_eq!(acc, n, "regions must partition the input");

    for b in 0..num_buckets {
        // ORDERING: Relaxed reset before the parallel phase spawns the
        // workers that contend on these heads.
        // publishes-via: fork-join barrier (scope spawn)
        scratch.heads[b].store(scratch.starts[b], Ordering::Relaxed);
    }

    let regions = Regions {
        out: Shared::new(out),
        holes: Shared::new(&mut scratch.holes),
        starts: &scratch.starts,
        heads: &scratch.heads[..num_buckets],
        swap_buffer,
    };

    // The parallel permutation. Each worker owns its InPlaceWorker state
    // (`par_iter_mut` hands out disjoint &mut); `regions` is the only
    // cross-worker state, and only its `heads` are contended.
    let results: Vec<WorkerYield<V>> = scratch.workers[..workers]
        .par_iter_mut()
        .enumerate()
        .map(|(w, worker)| worker_loop(w, workers, worker, regions, plan))
        .collect();

    // Sequential reconciliation: fill the surviving holes from the
    // stranded records. The hole table is in bucket order, and
    // conservation (see module docs) makes the per-bucket counts match, so
    // a zip against the bucket-sorted leftovers places every record.
    let mut cycles = 0usize;
    let mut flushes = 0usize;
    let mut leftovers: Vec<(u64, V)> = Vec::new();
    for (stranded, c, f) in results {
        cycles += c;
        flushes += f;
        leftovers.extend_from_slice(&stranded);
    }
    leftovers.sort_unstable_by_key(|r| plan.bucket_of(r.0));
    let mut fill = leftovers.iter();
    for hr in &scratch.holes {
        for slot in &mut out[hr.start..hr.start + hr.len] {
            let r = *fill
                .next()
                .expect("conservation: a stranded record per hole");
            let b = plan.bucket_of(r.0) as usize;
            debug_assert!(
                (scratch.starts[b]..scratch.starts[b + 1]).contains(&hr.start),
                "conservation: stranded records must match holes per bucket"
            );
            *slot = r;
        }
    }
    debug_assert!(fill.next().is_none(), "every stranded record placed");

    // Every record was placed exactly once (fixed points, hole repayments,
    // claim-swaps, and the reconciliation zip-fill partition the input), so
    // the strategy-uniform placement counter is simply n.
    if sink.level().counters() {
        sink.merge_cell(&WorkerCell {
            records_placed: n as u64,
            ..WorkerCell::default()
        });
    }

    InPlaceOutcome {
        heavy_records,
        cycles,
        flushes,
        grew,
    }
}

/// One worker's prime/flush/strand loop (see module docs). Returns the
/// stranded records plus the worker's `(cycles, flushes)` counters; the
/// worker's unfilled holes stay behind in the hole table for
/// reconciliation.
fn worker_loop<V: Copy + Send + Sync>(
    w: usize,
    workers: usize,
    worker: &mut InPlaceWorker,
    regions: Regions<'_, V>,
    plan: &BucketPlan,
) -> WorkerYield<V> {
    let Regions {
        out,
        starts,
        heads,
        swap_buffer,
        ..
    } = regions;
    let num_buckets = starts.len() - 1;
    let mut pending: Vec<(u64, V)> = Vec::new();
    let mut flush_buf: Vec<(u64, V)> = Vec::with_capacity(swap_buffer);
    let mut stranded: Vec<(u64, V)> = Vec::new();
    let mut cycles = 0usize;
    let mut flushes = 0usize;
    // Workers start their bucket scan spread across the ring so early
    // claims don't all contend on bucket 0's cursor.
    let mut scan = w * num_buckets / workers;

    loop {
        // Classify in-hand records; flush buffers as they fill.
        while let Some((key, val)) = pending.pop() {
            let d = plan.bucket_of(key) as usize;
            if let Some(full) = worker.buf.push(d, (key, val), swap_buffer) {
                flush_buf.clear();
                flush_buf.extend_from_slice(full);
                flushes += 1;
                flush_records(worker, d, &flush_buf, regions, &mut pending, &mut stranded);
            }
        }

        // Prime: claim a batch of fresh positions from the next
        // unexhausted bucket on the ring.
        let mut primed = false;
        for _ in 0..num_buckets {
            let b = scan;
            if let Some((pos, k)) = claim(&heads[b], starts[b + 1], swap_buffer) {
                cycles += 1;
                // Read the displaced records, compacting fixed points
                // (records already in bucket b) to the front of the claim
                // so the rest forms a single hole range. `kept` trails
                // `i`, and every position in `kept..i` was already read
                // out, so the compaction write never loses a record.
                let mut kept = pos;
                for i in pos..pos + k {
                    // SAFETY: [pos, pos+k) was claimed above — this worker
                    // exclusively owns these indices, which lie inside
                    // bucket b's region (claim clamps to `end` ≤ n).
                    let r = unsafe { out.read(i) };
                    if plan.bucket_of(r.0) as usize == b {
                        if kept != i {
                            // SAFETY: kept < i, inside the same claim.
                            unsafe { out.write(kept, r) };
                        }
                        kept += 1;
                    } else {
                        pending.push(r);
                    }
                }
                if kept < pos + k {
                    let slot = pos / swap_buffer + b;
                    let hole = HoleRange {
                        start: kept,
                        len: pos + k - kept,
                        next: worker.hole_of[b],
                    };
                    // SAFETY: `slot` is unique to this prime claim (module
                    // docs), which this worker made, so no other worker
                    // ever touches it.
                    unsafe { regions.holes.write(slot, hole) };
                    worker.hole_of[b] = slot;
                }
                primed = true;
                break;
            }
            scan = if b + 1 == num_buckets { 0 } else { b + 1 };
        }
        if primed {
            continue;
        }

        // Every cursor is exhausted: drain the partial buffers. Claims can
        // no longer succeed (cursors are monotone), so this only repays
        // private holes or strands — `pending` stays empty.
        for s in 0..worker.buf.touched_len() {
            let (d, part) = worker.buf.partial::<V>(s, swap_buffer);
            if part.is_empty() {
                continue;
            }
            flush_buf.clear();
            flush_buf.extend_from_slice(part);
            flushes += 1;
            flush_records(worker, d, &flush_buf, regions, &mut pending, &mut stranded);
        }
        debug_assert!(pending.is_empty(), "exhausted cursors cannot displace");
        worker.buf.reset();
        return (stranded, cycles, flushes);
    }
}

/// Place `records` (all destined for bucket `d`) into the output: private
/// holes first (write-only), then freshly claimed positions (swap —
/// displaced records go to `pending`), stranding whatever is left once
/// `d`'s region is exhausted.
fn flush_records<V: Copy + Send + Sync>(
    worker: &mut InPlaceWorker,
    d: usize,
    records: &[(u64, V)],
    regions: Regions<'_, V>,
    pending: &mut Vec<(u64, V)>,
    stranded: &mut Vec<(u64, V)>,
) {
    let out = regions.out;
    let mut i = 0usize;
    // Repay private holes: positions this worker claimed from d earlier
    // and still owes records to.
    while i < records.len() && worker.hole_of[d] != HOLES_NONE {
        let h = worker.hole_of[d];
        // SAFETY: `h` is on this worker's own d-list; only the worker
        // that made a prime claim ever touches its hole slot.
        let mut hr = unsafe { regions.holes.read(h) };
        let take = hr.len.min(records.len() - i);
        for j in 0..take {
            // SAFETY: the hole range was claimed by this worker at prime
            // time and has not been written since (len tracks the unfilled
            // remainder), so these indices are exclusively owned.
            unsafe { out.write(hr.start + j, records[i + j]) };
        }
        hr.start += take;
        hr.len -= take;
        i += take;
        if hr.len == 0 {
            worker.hole_of[d] = hr.next;
        }
        // SAFETY: as the read above.
        unsafe { regions.holes.write(h, hr) };
    }
    // Claim fresh positions: read the displaced record, write ours.
    while i < records.len() {
        let Some((pos, k)) = claim(&regions.heads[d], regions.starts[d + 1], records.len() - i)
        else {
            break;
        };
        for j in 0..k {
            // SAFETY: [pos, pos+k) was claimed above — exclusively owned,
            // inside bucket d's region.
            pending.push(unsafe { out.read(pos + j) });
            // SAFETY: as above.
            unsafe { out.write(pos + j, records[i + j]) };
        }
        i += k;
    }
    if i < records.len() {
        stranded.extend_from_slice(&records[i..]);
    }
}

/// Sort every light-bucket region of `out` by key (heavy regions hold a
/// single key and need no sort). This is the in-place path's Phase 4; with
/// it, the output's *key sequence* is deterministic for a given seed and
/// input at any thread count — the same sequence the arena strategies
/// produce with [`LocalSortAlgo::StdUnstable`] / `StdStable`.
pub fn sort_light_regions<V: Copy + Send + Sync>(
    out: &mut [(u64, V)],
    plan: &BucketPlan,
    starts: &[usize],
    algo: LocalSortAlgo,
) {
    let num_buckets = plan.num_buckets();
    debug_assert_eq!(starts.len(), num_buckets + 1);
    let light_base = starts[plan.num_heavy];
    let (_, mut rest) = out.split_at_mut(light_base);
    let mut offset = light_base;
    let mut regions: Vec<&mut [(u64, V)]> = Vec::with_capacity(num_buckets - plan.num_heavy);
    for b in plan.num_heavy..num_buckets {
        let len = starts[b + 1] - starts[b];
        let (region, tail) = rest.split_at_mut(len);
        regions.push(region);
        rest = tail;
        offset += len;
    }
    debug_assert_eq!(offset, starts[num_buckets]);
    regions
        .into_par_iter()
        .for_each(|region| sort_records(region, algo));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buckets::build_plan;
    use crate::config::SemisortConfig;
    use crate::sample::strided_sample;
    use crate::verify::{is_permutation_of, is_semisorted_by};
    use parlay::hash64;
    use parlay::random::Rng;

    fn plan_for(records: &[(u64, u64)]) -> BucketPlan {
        let cfg = SemisortConfig::default();
        let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
        let mut sample = strided_sample(&keys, cfg.sample_shift, Rng::new(1));
        sample.sort_unstable();
        build_plan(&sample, records.len(), &cfg)
    }

    fn run(
        records: &[(u64, u64)],
        swap_buffer: usize,
    ) -> (BucketPlan, Vec<(u64, u64)>, InPlaceOutcome, InPlaceScratch) {
        let plan = plan_for(records);
        let sink = ObsSink::disabled();
        let mut scratch = InPlaceScratch::new();
        let mut out = Vec::new();
        let outcome = inplace_scatter(records, &plan, &mut out, swap_buffer, &sink, &mut scratch);
        (plan, out, outcome, scratch)
    }

    fn assert_regioned(plan: &BucketPlan, starts: &[usize], out: &[(u64, u64)]) {
        for b in 0..plan.num_buckets() {
            for &(key, _) in &out[starts[b]..starts[b + 1]] {
                assert_eq!(
                    plan.bucket_of(key) as usize,
                    b,
                    "record in wrong region (bucket {b})"
                );
            }
        }
    }

    #[test]
    fn permutes_into_exact_regions() {
        let records: Vec<(u64, u64)> = (0..40_000u64).map(|i| (hash64(i % 3000), i)).collect();
        let (plan, out, outcome, scratch) = run(&records, 32);
        assert!(is_permutation_of(&out, &records));
        assert_regioned(&plan, &scratch.starts, &out);
        assert!(outcome.cycles > 0, "40k records must prime at least once");
    }

    #[test]
    fn all_equal_keys_need_no_movement() {
        let records: Vec<(u64, u64)> = (0..20_000u64).map(|i| (hash64(7), i)).collect();
        let (plan, out, outcome, _) = run(&records, 32);
        assert_eq!(outcome.heavy_records, records.len());
        assert_eq!(plan.num_heavy, 1);
        assert_eq!(out, records, "fixed points stay in place untouched");
        assert_eq!(outcome.flushes, 0, "nothing to buffer when nothing moves");
    }

    #[test]
    fn tiny_swap_buffer_still_correct() {
        let records: Vec<(u64, u64)> = (0..30_000u64).map(|i| (hash64(i % 777), i)).collect();
        for s in [1usize, 2, 4] {
            let (plan, out, _, scratch) = run(&records, s);
            assert!(is_permutation_of(&out, &records), "swap_buffer={s}");
            assert_regioned(&plan, &scratch.starts, &out);
        }
    }

    #[test]
    fn sorted_regions_semisort() {
        let records: Vec<(u64, u64)> = (0..50_000u64)
            .map(|i| {
                let k = if i % 2 == 0 { i % 10 } else { 1_000_000 + i };
                (hash64(k), i)
            })
            .collect();
        let (plan, mut out, outcome, scratch) = run(&records, 32);
        assert!(outcome.heavy_records > 0);
        sort_light_regions(&mut out, &plan, &scratch.starts, LocalSortAlgo::StdUnstable);
        assert!(is_semisorted_by(&out, |r| r.0));
        assert!(is_permutation_of(&out, &records));
    }

    #[test]
    fn scratch_is_reused_across_runs() {
        let records: Vec<(u64, u64)> = (0..30_000u64).map(|i| (hash64(i % 500), i)).collect();
        let plan = plan_for(&records);
        let sink = ObsSink::disabled();
        let mut scratch = InPlaceScratch::new();
        let mut out = Vec::new();
        let first = inplace_scatter(&records, &plan, &mut out, 32, &sink, &mut scratch);
        assert!(first.grew, "a cold scratch must allocate");
        let held = scratch.bytes();
        assert!(held > 0);
        let out1 = out.clone();
        let second = inplace_scatter(&records, &plan, &mut out, 32, &sink, &mut scratch);
        assert!(!second.grew, "steady state: a reuse hit");
        assert_eq!(scratch.bytes(), held, "steady state: no regrowth");
        assert!(is_permutation_of(&out, &out1));
    }

    #[test]
    fn scratch_is_far_below_arena() {
        let records: Vec<(u64, u64)> = (0..200_000u64).map(|i| (hash64(i), i)).collect();
        let plan = plan_for(&records);
        let sink = ObsSink::disabled();
        let mut scratch = InPlaceScratch::new();
        let mut out = Vec::new();
        parlay::with_threads(2, || {
            inplace_scatter(&records, &plan, &mut out, 32, &sink, &mut scratch)
        });
        let arena = crate::scatter::arena_bytes::<u64>(&plan);
        let held = scratch.bytes();
        assert!(
            held * 4 <= arena,
            "in-place scratch {held} not ≥4× below arena {arena}"
        );
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let cfg = SemisortConfig::default();
        let plan = build_plan(&[], 0, &cfg);
        let sink = ObsSink::disabled();
        let mut scratch = InPlaceScratch::new();
        let mut out: Vec<(u64, u64)> = vec![(1, 1)];
        let outcome = inplace_scatter(&[], &plan, &mut out, 32, &sink, &mut scratch);
        assert!(out.is_empty());
        assert_eq!(outcome.cycles, 0);
    }
}
