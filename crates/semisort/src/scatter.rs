//! The paper's Phase 3: scatter every record into a random slot of its
//! bucket. Only [`crate::paper`] runs it; the engine distributes by exact
//! counts instead.
//!
//! "Every record is scattered to a random location in the array of its
//! bucket … we perform the insertions using a compare-and-swap … On a
//! failure, instead of picking another random location, a record tries the
//! next location (linear probing). This gives better cache performance."
//! (§4 Phase 3.) Expected `O(1)` probes per record; the largest probe
//! cluster is `O(log n)` w.h.p., giving the `O(log n)` depth bound.
//!
//! A slot is one `AtomicU64` key plus an uninitialized value cell — 16
//! bytes for the paper's `u64` payload, exactly the layout the C++ code
//! CASes. A thread that wins the key CAS (EMPTY → key) owns the value
//! cell; values are read only after the phase's fork-join barrier, so the
//! plain value write never races.
//!
//! Keys may not equal the [`EMPTY`] sentinel; the run screens for that
//! (one parallel pass) and falls back to a sort-based semisort in the
//! astronomically unlikely hit case, keeping the algorithm Las Vegas
//! rather than silently wrong.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parlay::random::Rng;
use rayon::prelude::*;

use crate::buckets::BucketPlan;
use crate::config::ProbeStrategy;
use crate::fault::FaultClass;
use crate::obs::{ObsSink, OverflowCapture, WorkerCell};

/// Minimum records per worker chunk (the pre-telemetry `with_min_len`
/// granularity): below this, per-chunk telemetry-cell merges and chunk
/// bookkeeping would dominate.
const MIN_CHUNK: usize = 4096;

/// Best-effort hint to pull the cache line holding `p` toward the core.
///
/// The scatter's write targets are random cache lines (that is the point
/// of the random-slot placement), so every CAS starts with a demand miss.
/// Routing records [`PaperConfig::prefetch_distance`] ahead of the write
/// cursor and hinting their destination lines overlaps those misses with
/// useful work. A prefetch is a hint, not an access — it cannot fault and
/// has no architectural effect — so there is nothing unsafe to get wrong
/// beyond passing a pointer, which stays in-bounds here anyway.
///
/// Compiles to `prefetcht0` on x86-64 and to nothing elsewhere.
///
/// [`PaperConfig::prefetch_distance`]: crate::config::PaperConfig::prefetch_distance
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure cache hint with no memory access
    // semantics; it is defined for any address value.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Slot vacancy sentinel. Zero, so that a freshly `alloc_zeroed` arena is
/// all-vacant with no initialization pass: the kernel hands back lazily
/// zeroed pages and the first touch happens during the scatter itself —
/// the same accounting as the paper's calloc'd C++ arrays, where "construct
/// buckets" is ~1% and the scatter dominates. The driver screens inputs for
/// this value (a `≈ n/2^64` event for hashed keys) and falls back to a
/// sort-based semisort rather than silently merging keys.
pub const EMPTY: u64 = 0;

/// One scatter slot: CAS-arbitrated key + value owned by the CAS winner.
pub struct Slot<V> {
    /// The hashed key, or [`EMPTY`].
    pub key: AtomicU64,
    val: UnsafeCell<MaybeUninit<V>>,
}

// SAFETY: the value cell is written only by the unique CAS winner of the
// slot and read only after the scatter barrier (see module docs).
unsafe impl<V: Send> Send for Slot<V> {}
// SAFETY: as above — the CAS claim plus the phase barrier make all
// cross-thread access to the value cell data-race free.
unsafe impl<V: Send + Sync> Sync for Slot<V> {}

impl<V> Slot<V> {
    /// Whether this slot received a record.
    #[inline(always)]
    pub fn occupied(&self) -> bool {
        // ORDERING: Relaxed vacancy/occupancy probe; any decision based on
        // it is re-validated by the claiming CAS, and post-scatter readers
        // are ordered by the fork-join barrier.
        // publishes-via: fork-join barrier (readers) / winning CAS (writers)
        self.key.load(Ordering::Relaxed) != EMPTY
    }

    /// The key, assuming occupancy was checked.
    #[inline(always)]
    pub fn key(&self) -> u64 {
        // ORDERING: Relaxed read; callers run after all scatter writers
        // joined, so the key value is already published.
        // publishes-via: fork-join barrier
        self.key.load(Ordering::Relaxed)
    }

    /// Read the value of an occupied slot.
    ///
    /// # Safety
    ///
    /// The slot must be occupied and all scatter writers must have joined.
    #[inline(always)]
    pub unsafe fn value(&self) -> V
    where
        V: Copy,
    {
        // SAFETY: per this method's contract the slot is occupied (its
        // value was initialized by the claiming writer) and all scatter
        // writers have joined, so the read cannot race.
        unsafe { (*self.val.get()).assume_init() }
    }

    /// Overwrite this slot single-threadedly (used by the in-bucket
    /// compaction passes of Phases 4–5, where one task owns a slot range).
    #[inline(always)]
    pub fn set(&self, key: u64, value: V) {
        // ORDERING: Relaxed store under exclusive ownership — one
        // compaction task owns this slot range; the next phase observes it
        // only after the tasks join.
        // publishes-via: fork-join barrier
        self.key.store(key, Ordering::Relaxed);
        // SAFETY: single owner during compaction (caller contract).
        unsafe { (*self.val.get()).write(value) };
    }

    /// Mark the slot empty (compaction tail cleanup).
    #[inline(always)]
    pub fn clear(&self) {
        // ORDERING: Relaxed store under exclusive ownership (compaction
        // tail cleanup), same regime as `set`.
        // publishes-via: fork-join barrier
        self.key.store(EMPTY, Ordering::Relaxed);
    }
}

/// Where each bucket of a [`BucketPlan`] lives in the slot array: one
/// power-of-two slot range per bucket, heavy buckets first ("To allow for
/// efficient packing later, we use a single large array for all of the
/// buckets" — §4 Phase 2). Power-of-two sizes make the probe wraparound a
/// mask. [`crate::paper::arena_layout`] sizes it from the plan's sample
/// counts.
pub struct ArenaLayout {
    /// Per bucket: first slot index.
    pub bucket_offset: Vec<usize>,
    /// Per bucket: capacity in slots (a power of two).
    pub bucket_size: Vec<usize>,
    /// Total slots across heavy buckets (the heavy region is
    /// `[0, heavy_slots)`).
    pub heavy_slots: usize,
    /// Total slots overall.
    pub total_slots: usize,
}

impl ArenaLayout {
    /// Lay out buckets of the given power-of-two `sizes` back to back; the
    /// first `num_heavy` are the heavy buckets.
    pub fn from_sizes(bucket_size: Vec<usize>, num_heavy: usize) -> Self {
        debug_assert!(bucket_size.iter().all(|s| s.is_power_of_two()));
        let mut bucket_offset = bucket_size.clone();
        let total_slots = parlay::scan_add_exclusive(&mut bucket_offset);
        let heavy_slots = bucket_offset.get(num_heavy).copied().unwrap_or(total_slots);
        ArenaLayout {
            bucket_offset,
            bucket_size,
            heavy_slots,
            total_slots,
        }
    }
}

/// The slot array for one run.
pub struct ScatterArena<V> {
    /// All buckets' slots, heavy region first (see [`ArenaLayout`]).
    pub slots: Vec<Slot<V>>,
}

/// Outcome of a scatter pass.
pub struct ScatterOutcome {
    /// Records that routed to heavy buckets (drives the heavy-% stat).
    pub heavy_records: usize,
    /// A bucket filled up before all its records were placed — the
    /// Corollary 3.4 failure; the driver must retry with fresh randomness
    /// and more slack.
    pub overflowed: bool,
    /// The first overflowing bucket as `(bucket, allocated, observed)`,
    /// recorded so the driver's retry telemetry can say *which* bucket's
    /// estimate was unlucky. `observed` is `allocated + 1` here — the
    /// failing record found the bucket full, so true demand is at least
    /// one more than the allocation.
    pub overflow: Option<(u32, usize, usize)>,
}

/// Result of one record placement attempt, with the counts the telemetry
/// cells accumulate. Counting into these fields happens in registers; it is
/// not gated on the telemetry level because the adds are free next to the
/// CAS loop they annotate.
pub(crate) struct Placed {
    /// Whether the record landed (false ⇒ the bucket is full).
    pub ok: bool,
    /// Slots examined beyond the first (0 = landed at its start slot).
    pub probes: u32,
    /// CAS instructions issued.
    pub cas: u32,
    /// CAS instructions that lost their race.
    pub cas_lost: u32,
}

/// The arena byte footprint of `layout` for payload type `V` (what
/// [`try_allocate_arena`] will request and what a paper run charges against
/// [`PaperConfig::max_arena_bytes`](crate::config::PaperConfig::max_arena_bytes)).
pub fn arena_bytes<V>(layout: &ArenaLayout) -> usize {
    layout
        .total_slots
        .saturating_mul(std::mem::size_of::<Slot<V>>())
}

/// Allocate the slot array (all vacant) for `layout`.
///
/// Uses `alloc_zeroed`: a zeroed `Slot<V>` is a valid vacant slot
/// (`AtomicU64(0) == EMPTY`; the value cell is `MaybeUninit`), so the OS's
/// lazily zeroed pages make allocation O(1) page-table work instead of an
/// O(total_slots) initialization sweep.
///
/// Aborts the process on allocator refusal (`handle_alloc_error`); a
/// paper run uses [`try_allocate_arena`], which reports refusal instead so
/// the escalation policy can degrade gracefully.
pub fn allocate_arena<V: Send + Sync>(layout: &ArenaLayout) -> ScatterArena<V> {
    match try_allocate_arena(layout, false) {
        Ok(arena) => arena,
        Err(_) => {
            let bytes =
                Layout::array::<Slot<V>>(layout.total_slots).expect("arena layout overflow");
            handle_alloc_error(bytes)
        }
    }
}

/// Fallible [`allocate_arena`]: returns `Err(bytes_requested)` when the
/// global allocator refuses (instead of aborting the process), or when
/// `fail_injected` simulates that refusal
/// ([`FaultPlan::fail_alloc_attempts`](crate::fault::FaultPlan::fail_alloc_attempts)).
pub fn try_allocate_arena<V: Send + Sync>(
    layout: &ArenaLayout,
    fail_injected: bool,
) -> Result<ScatterArena<V>, usize> {
    let len = layout.total_slots;
    if fail_injected {
        return Err(arena_bytes::<V>(layout));
    }
    if len == 0 {
        return Ok(ScatterArena { slots: Vec::new() });
    }
    let bytes = Layout::array::<Slot<V>>(len).map_err(|_| usize::MAX)?;
    // SAFETY: all-zero bytes are a valid Slot<V> (see above); the pointer
    // comes from the global allocator with exactly the layout Vec expects.
    let slots = unsafe {
        let ptr = alloc_zeroed(bytes) as *mut Slot<V>;
        if ptr.is_null() {
            return Err(bytes.size());
        }
        Vec::from_raw_parts(ptr, len, len)
    };
    Ok(ScatterArena { slots })
}

/// Scatter all records into `slots` — the `layout.total_slots` vacant slots
/// of a fresh [`ScatterArena`]. Returns telemetry; on `overflowed == true`
/// the slot contents are garbage and the caller must retry (the Las Vegas
/// loop in [`crate::paper`]).
///
/// Workers walk fixed chunks of the input with a private [`WorkerCell`]
/// and merge it into `sink` once per chunk, so telemetry adds no shared
/// traffic to the per-record CAS loop. With the sink at `Off` the
/// per-record telemetry code is one never-taken branch.
///
/// `forced_overflow` is the fault-injection hook
/// ([`FaultPlan::forced_overflow`](crate::fault::FaultPlan::forced_overflow)):
/// when set, the first record routed to a bucket of the given class reports
/// a Corollary 3.4 overflow through the real [`OverflowCapture`] path, so
/// the retry/escalation machinery is exercised exactly as by a
/// genuine overflow. Pass `None` in production.
///
/// `prefetch_distance` routes records that many positions ahead of the
/// write cursor and `prefetch`es their destination slot lines (0
/// disables the lookahead entirely). Routing happens once per record
/// either way — the lookahead ring recycles its answers into the
/// placement loop.
#[allow(clippy::too_many_arguments)] // phase boundary: every arg is a distinct concern
pub fn scatter<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    plan: &BucketPlan,
    layout: &ArenaLayout,
    slots: &[Slot<V>],
    strategy: ProbeStrategy,
    prefetch_distance: usize,
    rng: Rng,
    sink: &ObsSink,
    forced_overflow: Option<FaultClass>,
) -> ScatterOutcome {
    let overflow = OverflowCapture::new();
    let heavy_records = AtomicUsize::new(0);
    let workers = rayon::current_num_threads().max(1);
    let chunk = records.len().div_ceil(workers * 4).max(MIN_CHUNK);
    records
        .par_chunks(chunk)
        .enumerate()
        .for_each(|(ci, chunk_recs)| {
            let counters = sink.level().counters();
            let deep = sink.level().deep();
            let mut cell = WorkerCell::default();
            let mut heavy = 0usize;
            // Route record `j` of this chunk: bucket id, heavy tag, and its
            // random start slot (global index for rng reproducibility).
            let route = |j: usize| {
                let bucket = plan.bucket_of(chunk_recs[j].0);
                let b = bucket as usize;
                let is_heavy = b < plan.num_heavy();
                let mask = layout.bucket_size[b] - 1; // sizes are powers of two
                let start = (rng.at((ci * chunk + j) as u64) as usize) & mask;
                (bucket, is_heavy, start)
            };
            let d = prefetch_distance.min(chunk_recs.len());
            let mut ring: Vec<(u32, bool, usize)> = (0..d)
                .map(|j| {
                    let r = route(j);
                    let b = r.0 as usize;
                    prefetch(&slots[layout.bucket_offset[b] + r.2]);
                    r
                })
                .collect();
            for (j, &(key, value)) in chunk_recs.iter().enumerate() {
                if overflow.is_set() {
                    break; // another task failed; stop doing useless work
                }
                let i = ci * chunk + j;
                let (bucket, is_heavy, start) = if d > 0 {
                    let r = ring[j % d];
                    if j + d < chunk_recs.len() {
                        let next = route(j + d);
                        let b = next.0 as usize;
                        prefetch(&slots[layout.bucket_offset[b] + next.2]);
                        ring[j % d] = next;
                    }
                    r
                } else {
                    route(j)
                };
                let b = bucket as usize;
                let base = layout.bucket_offset[b];
                let size = layout.bucket_size[b];
                if let Some(class) = forced_overflow {
                    if class.matches(is_heavy) {
                        // Injected Corollary 3.4 failure: report this bucket
                        // as overflowed without touching the arena.
                        overflow.report(bucket, size, size + 1);
                        break;
                    }
                }
                let mask = size - 1;
                let placed = match strategy {
                    ProbeStrategy::Linear => {
                        place_linear(&slots[base..base + size], start, mask, key, value)
                    }
                    ProbeStrategy::Random => place_random(
                        &slots[base..base + size],
                        mask,
                        key,
                        value,
                        rng.fork(1),
                        i as u64,
                    ),
                };
                if counters {
                    cell.cas_attempts += placed.cas as u64;
                    cell.cas_failures += placed.cas_lost as u64;
                    if placed.ok {
                        cell.records_placed += 1;
                        // Zero-probe placements (the common case) are
                        // reconstructed below from records_placed, keeping
                        // the hist update off the happy path.
                        if deep && placed.probes != 0 {
                            cell.probe_hist.record(placed.probes as u64);
                        }
                    }
                }
                if !placed.ok {
                    overflow.report(bucket, size, size + 1);
                    break;
                }
                heavy += is_heavy as usize;
            }
            if deep {
                // Every placed record either recorded a nonzero probe
                // length above or landed at its start slot.
                cell.probe_hist.buckets[0] += cell.records_placed - cell.probe_hist.count();
            }
            // ORDERING: Relaxed telemetry counter; the total is read via
            // `into_inner` after the parallel loop completes.
            // publishes-via: fork-join barrier
            heavy_records.fetch_add(heavy, Ordering::Relaxed);
            sink.merge_cell(&cell);
        });
    ScatterOutcome {
        heavy_records: heavy_records.into_inner(),
        overflowed: overflow.is_set(),
        overflow: overflow.take(),
    }
}

/// CAS at `start`, then linear probing with wraparound. Fails only if the
/// bucket is completely full.
#[inline]
fn place_linear<V: Copy>(
    bucket: &[Slot<V>],
    start: usize,
    mask: usize,
    key: u64,
    value: V,
) -> Placed {
    let mut i = start;
    let mut cas = 0u32;
    let mut cas_lost = 0u32;
    for probes in 0..bucket.len() {
        let slot = &bucket[i];
        // ORDERING: Relaxed vacancy pre-check to skip the CAS on occupied
        // slots; a stale EMPTY read only costs a failed CAS.
        // publishes-via: winning CAS below
        if slot.key.load(Ordering::Relaxed) == EMPTY {
            cas += 1;
            // ORDERING: AcqRel on success — the claim both acquires the
            // slot's prior (empty) state and releases the key for probe
            // readers; Relaxed on failure, which only retries the probe.
            // publishes-via: this CAS's own AcqRel success edge
            if slot
                .key
                .compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: we won the CAS; we are the unique writer of this
                // cell.
                unsafe { (*slot.val.get()).write(value) };
                return Placed {
                    ok: true,
                    probes: probes as u32,
                    cas,
                    cas_lost,
                };
            }
            cas_lost += 1;
        }
        i = (i + 1) & mask;
    }
    Placed {
        ok: false,
        probes: bucket.len() as u32,
        cas,
        cas_lost,
    }
}

/// The theoretical §3 strategy: a fresh random slot per attempt, giving a
/// geometric success probability of ≥ 1 − 1/α per round. Bounded attempts,
/// then a linear sweep as a completeness backstop.
#[inline]
fn place_random<V: Copy>(
    bucket: &[Slot<V>],
    mask: usize,
    key: u64,
    value: V,
    rng: Rng,
    record_id: u64,
) -> Placed {
    let attempts = 8 * (usize::BITS - bucket.len().leading_zeros()) as usize + 16;
    let mut cas = 0u32;
    let mut cas_lost = 0u32;
    for t in 0..attempts {
        let i = (rng.at(record_id.wrapping_mul(1 << 20).wrapping_add(t as u64)) as usize) & mask;
        let slot = &bucket[i];
        // ORDERING: Relaxed vacancy pre-check, same regime as
        // `place_linear`; a stale EMPTY read only costs a failed CAS.
        // publishes-via: winning CAS below
        if slot.key.load(Ordering::Relaxed) == EMPTY {
            cas += 1;
            // ORDERING: AcqRel success claims the slot and publishes the
            // key; Relaxed failure only retries with a fresh random slot.
            // publishes-via: this CAS's own AcqRel success edge
            if slot
                .key
                .compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: unique CAS winner.
                unsafe { (*slot.val.get()).write(value) };
                return Placed {
                    ok: true,
                    probes: t as u32,
                    cas,
                    cas_lost,
                };
            }
            cas_lost += 1;
        }
    }
    // Random probing ran out of luck; fall back to one deterministic sweep
    // so "full bucket" is the only way to fail.
    let mut fallback = place_linear(bucket, 0, mask, key, value);
    fallback.probes += attempts as u32;
    fallback.cas += cas;
    fallback.cas_lost += cas_lost;
    fallback
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buckets::build_plan;
    use crate::config::{PaperConfig, SemisortConfig};
    use crate::paper::arena_layout;
    use parlay::hash64;

    /// The plan for `records` (strided sample, sorted) and its slot layout
    /// at `cfg`'s constants.
    fn plan_and_layout(records: &[(u64, u64)], cfg: &PaperConfig) -> (BucketPlan, ArenaLayout) {
        let base = &cfg.base;
        let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
        let mut sample =
            crate::sample::strided_sample(&keys, base.sample_shift, Rng::new(base.seed));
        sample.sort_unstable();
        let plan = build_plan(&sample, records.len(), base);
        let layout = arena_layout(&plan, records.len(), cfg);
        (plan, layout)
    }

    fn scatter_all(
        records: &[(u64, u64)],
        cfg: &PaperConfig,
    ) -> (BucketPlan, ArenaLayout, ScatterArena<u64>, ScatterOutcome) {
        let (plan, layout) = plan_and_layout(records, cfg);
        let arena = allocate_arena::<u64>(&layout);
        let out = scatter(
            records,
            &plan,
            &layout,
            &arena.slots,
            cfg.probe_strategy,
            cfg.prefetch_distance,
            Rng::new(cfg.base.seed).fork(99),
            &ObsSink::disabled(),
            None,
        );
        (plan, layout, arena, out)
    }

    fn collect_placed(arena: &ScatterArena<u64>) -> Vec<(u64, u64)> {
        arena
            .slots
            .iter()
            .filter(|s| s.occupied())
            // SAFETY: the scatter under test has returned; occupied slots
            // hold initialized values and nothing writes concurrently.
            .map(|s| (s.key(), unsafe { s.value() }))
            .collect()
    }

    #[test]
    fn every_record_is_placed_exactly_once() {
        let records: Vec<(u64, u64)> = (0..50_000u64).map(|i| (hash64(i % 777), i)).collect();
        let (_, _, arena, out) = scatter_all(&records, &PaperConfig::default());
        assert!(!out.overflowed);
        let mut placed = collect_placed(&arena);
        assert_eq!(placed.len(), records.len());
        placed.sort_unstable_by_key(|r| r.1);
        let mut want = records.clone();
        want.sort_unstable_by_key(|r| r.1);
        assert_eq!(placed, want);
    }

    #[test]
    fn records_land_in_their_bucket_range() {
        let records: Vec<(u64, u64)> = (0..30_000u64).map(|i| (hash64(i % 100), i)).collect();
        let (plan, layout, arena, out) = scatter_all(&records, &PaperConfig::default());
        assert!(!out.overflowed);
        for (i, slot) in arena.slots.iter().enumerate() {
            if slot.occupied() {
                let b = plan.bucket_of(slot.key()) as usize;
                let lo = layout.bucket_offset[b];
                let hi = lo + layout.bucket_size[b];
                assert!(
                    (lo..hi).contains(&i),
                    "slot {i} outside bucket {b} range {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn heavy_count_matches_reality() {
        // 80% of records share one key → that key is certainly heavy.
        let records: Vec<(u64, u64)> = (0..40_000u64)
            .map(|i| {
                let k = if i % 5 != 0 { 7u64 } else { 1_000 + i };
                (hash64(k), i)
            })
            .collect();
        let (plan, _, _, out) = scatter_all(&records, &PaperConfig::default());
        assert!(plan.num_heavy() >= 1);
        let expected_heavy = records
            .iter()
            .filter(|r| plan.heavy_keys.binary_search(&r.0).is_ok())
            .count();
        assert_eq!(out.heavy_records, expected_heavy);
        assert!(out.heavy_records >= records.len() * 7 / 10);
    }

    #[test]
    fn random_probe_strategy_also_places_everything() {
        let records: Vec<(u64, u64)> = (0..30_000u64).map(|i| (hash64(i % 555), i)).collect();
        let cfg = PaperConfig {
            probe_strategy: ProbeStrategy::Random,
            ..Default::default()
        };
        let (_, _, arena, out) = scatter_all(&records, &cfg);
        assert!(!out.overflowed);
        assert_eq!(collect_placed(&arena).len(), records.len());
    }

    #[test]
    fn overflow_is_detected_not_hung() {
        // Force overflow: a plan built from an empty sample (tiny bucket
        // estimates) receiving far more records than slots.
        let plan = build_plan(&[], 64, &SemisortConfig::default());
        let layout = arena_layout(&plan, 64, &PaperConfig::default());
        let arena = allocate_arena::<u64>(&layout);
        let n_over = layout.total_slots + 1_000;
        let records: Vec<(u64, u64)> = (0..n_over as u64).map(|i| (hash64(i), i)).collect();
        let out = scatter(
            &records,
            &plan,
            &layout,
            &arena.slots,
            ProbeStrategy::Linear,
            8,
            Rng::new(1),
            &ObsSink::disabled(),
            None,
        );
        assert!(out.overflowed, "must report overflow instead of spinning");
        let (_bucket, allocated, observed) = out.overflow.expect("overflow details captured");
        assert_eq!(observed, allocated + 1);
    }

    #[test]
    fn forced_overflow_fires_per_class() {
        // 80% of records share one key, so the plan has heavy and light
        // buckets; the injected overflow must report a bucket of exactly
        // the requested class.
        let records: Vec<(u64, u64)> = (0..40_000u64)
            .map(|i| {
                let k = if i % 5 != 0 { 7u64 } else { 1_000 + i };
                (hash64(k), i)
            })
            .collect();
        let (plan, layout) = plan_and_layout(&records, &PaperConfig::default());
        assert!(plan.num_heavy() > 0 && plan.num_light > 0);
        for (class, want_heavy) in [(FaultClass::Heavy, true), (FaultClass::Light, false)] {
            let arena = allocate_arena::<u64>(&layout);
            let out = scatter(
                &records,
                &plan,
                &layout,
                &arena.slots,
                ProbeStrategy::Linear,
                8,
                Rng::new(1),
                &ObsSink::disabled(),
                Some(class),
            );
            assert!(out.overflowed, "{class:?} fault must report overflow");
            let (bucket, allocated, observed) = out.overflow.expect("capture");
            assert_eq!(
                (bucket as usize) < plan.num_heavy(),
                want_heavy,
                "{class:?} overflowed bucket {bucket}"
            );
            assert_eq!(observed, allocated + 1);
        }
    }

    #[test]
    fn try_allocate_reports_injected_failure() {
        let plan = build_plan(&[], 64, &SemisortConfig::default());
        let layout = arena_layout(&plan, 64, &PaperConfig::default());
        let bytes = arena_bytes::<u64>(&layout);
        assert!(bytes > 0);
        assert_eq!(try_allocate_arena::<u64>(&layout, true).err(), Some(bytes));
        let arena = try_allocate_arena::<u64>(&layout, false).expect("real alloc succeeds");
        assert_eq!(arena.slots.len(), layout.total_slots);
        assert!(
            arena.slots.iter().all(|s| !s.occupied()),
            "zeroed is vacant"
        );
    }

    #[test]
    fn full_bucket_single_slot_edge() {
        let v: Vec<Slot<u64>> = (0..2)
            .map(|_| Slot {
                key: AtomicU64::new(EMPTY),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        assert!(place_linear(&v, 1, 1, 10, 100).ok);
        assert!(place_linear(&v, 1, 1, 11, 101).ok);
        assert!(!place_linear(&v, 0, 1, 12, 102).ok, "full bucket must fail");
        let got: Vec<u64> = v.iter().map(|s| s.key()).collect();
        assert!(got.contains(&10) && got.contains(&11));
    }
}
