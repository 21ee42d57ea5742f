//! The five-phase driver (Algorithm 1 end to end), with per-phase timing,
//! the Las Vegas retry loop, and the escalation policy that decides what
//! happens when the retry (or memory) budget runs out.
//!
//! After a shared prefix (validation, sequential cutoff, sentinel screen,
//! scheduler snapshot) a run takes one of two paths. The **exact path**
//! (`Counting`, the default) distributes records into exact bucket regions
//! of the output with one stable counting sort and cannot overflow, so it
//! runs sample → plan → distribute → sort once, straight through. The
//! **arena path** (`RandomCas`, the paper's reference) scatters into an
//! `α`-sized slot array that can overflow (Corollary 3.4), so it runs
//! inside the retry loop with α doubling, the `max_arena_bytes` gate and
//! [`OverflowPolicy`] escalation.

use parlay::random::Rng;
use rayon::prelude::*;
use rayon::trace::SchedulerStats;

use crate::buckets::{build_plan, BucketPlan};
use crate::cancel::CancelToken;
use crate::config::{OverflowPolicy, ScatterStrategy, SemisortConfig};
use crate::error::SemisortError;
use crate::fault::FaultPlan;
use crate::local_sort::{local_sort_light_buckets, sort_light_regions};
use crate::obs::{
    log_event, log_event_kv, ObsSink, PhaseSpan, RetryCause, ScratchCounters, WorkerCell,
};
use crate::pack_phase::pack_output_into;
use crate::pool::ScratchPool;
use crate::sample::strided_sample_by_into;
use crate::scatter::{arena_bytes, scatter, Slot, EMPTY};
use crate::stats::SemisortStats;

/// Semisort pre-hashed records, returning the output alone (see
/// [`try_semisort_with_stats`]).
pub fn try_semisort_core<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    cfg: &SemisortConfig,
) -> Result<Vec<(u64, V)>, SemisortError> {
    try_semisort_with_stats(records, cfg).map(|(out, _)| out)
}

/// Semisort pre-hashed `(u64, value)` records, returning the output and the
/// per-phase telemetry of [`SemisortStats`] — or a [`SemisortError`] when
/// the run cannot complete and the config says so.
///
/// One-shot form: allocates a transient [`ScratchPool`] for this call and
/// drops it on return. Callers that semisort repeatedly should hold a
/// [`Semisorter`](crate::engine::Semisorter), which keeps the pool warm
/// across calls.
///
/// Records with equal keys are contiguous in the output; distinct keys are
/// in no particular order. The input must be *hashed* keys (uniformly
/// distributed bits) — the light-bucket partition divides the hash range
/// evenly and relies on uniformity for its `O(log² n)` bucket-size bound
/// (§3). For raw keys use [`crate::api::try_semisort_by_key`], which hashes
/// for you.
///
/// Inputs at or below `cfg.seq_threshold`, and inputs containing the
/// reserved [`EMPTY`] key (probability `≈ n/2^64` for hashed keys), take a
/// sort-based fallback path — still a correct semisort, just without the
/// linear-work machinery.
///
/// # Errors
///
/// An invalid configuration returns
/// [`SemisortError::InvalidConfig`] under every policy. Beyond that, the
/// arena strategy has three terminal runtime conditions: the Las Vegas
/// retry budget runs out, an attempt's arena would exceed
/// [`SemisortConfig::max_arena_bytes`], or the arena allocation itself
/// fails. Under the default [`OverflowPolicy::Fallback`] all three degrade
/// to the comparison sort (`Ok` with [`SemisortStats::degraded`] set);
/// under [`OverflowPolicy::Error`] they return `Err`. So on valid input
/// this function can only return `Err` when the caller opted in.
/// [`ScatterStrategy::Counting`] has no arena and none of these conditions.
#[must_use = "the Err carries the failure that the config asked to surface"]
pub fn try_semisort_with_stats<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    cfg: &SemisortConfig,
) -> Result<(Vec<(u64, V)>, SemisortStats), SemisortError> {
    try_semisort_with_stats_cancellable(records, cfg, &CancelToken::new())
}

/// [`try_semisort_with_stats`] with a caller-supplied [`CancelToken`].
///
/// The token is polled at **phase boundaries** (never inside a phase's hot
/// loop), so cancellation latency is bounded by the longest single phase.
/// A run that observes the token returns
/// [`SemisortError::Cancelled`] / [`SemisortError::DeadlineExceeded`]
/// with the output empty or untouched: the result is all-or-nothing,
/// never a partially-written semisort. A tripped token also suppresses the
/// [`OverflowPolicy::Fallback`] degradation path — a caller whose deadline
/// has passed does not want an even slower comparison sort.
///
/// [`ScatterStrategy::Counting`] distributes straight into the output
/// buffer, so once its distribution begins the run commits: no further
/// polls happen and cancellation latency extends to the end of the run.
#[must_use = "the Err carries the failure that the config asked to surface"]
pub fn try_semisort_with_stats_cancellable<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    cfg: &SemisortConfig,
    cancel: &CancelToken,
) -> Result<(Vec<(u64, V)>, SemisortStats), SemisortError> {
    let mut pool = ScratchPool::new();
    let mut out = Vec::new();
    let stats = try_semisort_into_pooled(records, cfg, &mut pool, &mut out, cancel)?;
    Ok((out, stats))
}

/// The pooled core every entry point funnels through: semisort `records`
/// into `out` (cleared first) using — and growing — `pool`'s scratch.
///
/// On *every* exit (success, degradation, error) the pool's retained bytes
/// are re-bounded by `cfg.max_scratch_bytes`; on success the stats carry
/// the pool counters ([`SemisortStats::scratch_reuse_hits`] /
/// [`SemisortStats::scratch_grows`] / [`SemisortStats::scratch_bytes_held`]).
pub(crate) fn try_semisort_into_pooled<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    cfg: &SemisortConfig,
    pool: &mut ScratchPool,
    out: &mut Vec<(u64, V)>,
    cancel: &CancelToken,
) -> Result<SemisortStats, SemisortError> {
    cfg.try_validate()?;
    let mut counters = ScratchCounters::default();
    let result = run_pooled(records, cfg, pool, out, &mut counters, cancel);
    pool.enforce_budget(cfg.max_scratch_bytes);
    let mut stats = result?;
    stats.scratch_reuse_hits = counters.reuse_hits;
    stats.scratch_grows = counters.grows;
    stats.scratch_bytes_held = pool.bytes_held();
    if counters.grows > 0 {
        log_event(
            "scratch",
            &[
                ("grows", counters.grows as u64),
                ("reuse_hits", counters.reuse_hits as u64),
                ("bytes_held", stats.scratch_bytes_held as u64),
            ],
        );
    }
    Ok(stats)
}

/// The shared prefix of every run, then the path split: writes into `out`
/// and leases all scratch from `pool`. Assumes `cfg` is already validated.
fn run_pooled<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    cfg: &SemisortConfig,
    pool: &mut ScratchPool,
    out: &mut Vec<(u64, V)>,
    counters: &mut ScratchCounters,
    cancel: &CancelToken,
) -> Result<SemisortStats, SemisortError> {
    cancel.check()?;
    let n = records.len();
    let mut stats = SemisortStats {
        n,
        config: *cfg,
        ..Default::default()
    };
    if n <= cfg.seq_threshold {
        stats.light_records = n;
        fallback_sort_into(records, out);
        return Ok(stats);
    }
    // Baseline scheduler snapshot: the final stats carry the delta across
    // the whole run (sentinel screen included — its par_iter is part of the
    // run's scheduler footprint).
    let sched_before = scheduler_baseline(cfg);
    // The scatter reserves EMPTY (= 0) as its slot-vacancy sentinel and the
    // heavy-key table reserves u64::MAX. A hashed key colliding with either
    // is a ~n/2^63 event; handle it by falling back rather than by silently
    // merging keys.
    if records
        .par_iter()
        .any(|r| r.0 == EMPTY || r.0 == parlay::hash_table::EMPTY)
    {
        stats.light_records = n;
        fallback_sort_into(records, out);
        return Ok(stats);
    }

    let run = Run {
        records,
        cfg,
        cancel,
        sched_before,
    };
    match cfg.scatter.strategy {
        ScatterStrategy::Counting => run.exact(pool, out, counters, stats),
        ScatterStrategy::RandomCas => run.arena(pool, out, counters, stats),
    }
}

/// The inputs both paths share once the prefix has run.
struct Run<'a, V> {
    records: &'a [(u64, V)],
    cfg: &'a SemisortConfig,
    cancel: &'a CancelToken,
    /// Scheduler snapshot taken before the run, when capture is on.
    sched_before: Option<SchedulerStats>,
}

impl<V: Copy + Send + Sync> Run<'_, V> {
    /// The exact path: sample → plan → distribute → sort, once. The
    /// counting sort cannot overflow, so there is no attempt counter, no
    /// arena budget and no escalation; of the fault plan only `panic`
    /// applies.
    fn exact(
        &self,
        pool: &mut ScratchPool,
        out: &mut Vec<(u64, V)>,
        counters: &mut ScratchCounters,
        mut stats: SemisortStats,
    ) -> Result<SemisortStats, SemisortError> {
        let ScratchPool {
            sample, counting, ..
        } = pool;
        let n = self.records.len();
        let run_cfg = SemisortConfig {
            seed: mix_seed(self.cfg.seed, 0),
            ..*self.cfg
        };
        let rng = Rng::new(run_cfg.seed);
        let sink = ObsSink::new(run_cfg.telemetry);

        sample_phase(self.records, &run_cfg, &rng, false, sample, &mut stats);
        self.cancel.check()?;

        let span = PhaseSpan::start("construct_buckets");
        let plan = build_plan(sample, n, &run_cfg);
        stats.t_construct_buckets = span.finish_into(&mut stats.spans);
        record_plan(&mut stats, &plan);
        // One slot per record: the regions are exact.
        stats.total_slots = n;
        self.cancel.check()?;

        // Phase 3: distribute into `out`. From here the run has committed
        // to the output buffer: no cancellation polls past this point (see
        // `try_semisort_with_stats_cancellable`).
        let span = PhaseSpan::start("scatter");
        if self.cfg.fault.panics(0) {
            injected_panic(self.cfg, 0);
        }
        // Size `out` without a pass over the input: every slot is
        // overwritten by the distribution.
        out.truncate(n);
        out.resize(n, self.records[0]);
        let held = counting.bytes();
        let starts = plan.distribute_into(self.records, out, counting);
        stats.t_scatter = span.finish_into(&mut stats.spans);
        stats.heavy_records = starts[plan.num_heavy];
        stats.light_records = n - stats.heavy_records;
        if sink.level().counters() {
            sink.merge_cell(&WorkerCell {
                records_placed: n as u64,
                ..WorkerCell::default()
            });
            for w in starts[plan.num_heavy..].windows(2) {
                sink.record_occupancy((w[1] - w[0]) as u64);
            }
        }

        // Phase 4: the records already sit in their exact bucket regions;
        // sorting the light regions is all that remains (heavy regions hold
        // one key each) and there is no pack.
        let span = PhaseSpan::start("local_sort");
        sort_light_regions(out, &plan, starts, run_cfg.local_sort_algo);
        stats.t_local_sort = span.finish_into(&mut stats.spans);
        // The exact path never touches the arena; its scratch is the
        // counting sort's.
        if counting.bytes() > held {
            counters.grows += 1;
        } else {
            counters.reuse_hits += 1;
        }

        self.finish(&mut stats, &sink, Vec::new(), 0);
        Ok(stats)
    }

    /// The arena path: the paper's Las Vegas loop. Each attempt samples,
    /// plans, leases an `α`-sized slot arena and scatters into it; an
    /// overflow retries with doubled α, and a terminal failure escalates
    /// per [`OverflowPolicy`].
    fn arena(
        &self,
        pool: &mut ScratchPool,
        out: &mut Vec<(u64, V)>,
        counters: &mut ScratchCounters,
        mut stats: SemisortStats,
    ) -> Result<SemisortStats, SemisortError> {
        // Split the pool into independently-borrowed parts once: the sample
        // buffer and the slot arena are used in different phases of the
        // same iteration.
        let ScratchPool { arena, sample, .. } = pool;
        let (records, cfg, cancel) = (self.records, self.cfg, self.cancel);
        let n = records.len();
        let mut attempt = 0u32;
        let mut retry_causes: Vec<RetryCause> = Vec::new();
        let mut faults_injected = 0u32;
        loop {
            // Retry boundary: a deadline that expired while the previous
            // attempt was scattering fires here, before any of this
            // attempt's work.
            cancel.check()?;
            // Each retry re-randomizes every random choice and doubles the
            // slack α (Corollary 3.4 failures are overwhelmingly due to an
            // unlucky sample underestimating a bucket). The per-attempt
            // seed is mixed through a splitmix64 finalizer so consecutive
            // attempts are decorrelated — `seed + attempt` would hand
            // attempt k the same random stream attempt k-1 ran with
            // seed+1, re-rolling correlated dice against a correlated
            // failure.
            let run_cfg = SemisortConfig {
                alpha: cfg.alpha * 2f64.powi(attempt as i32),
                seed: mix_seed(cfg.seed, attempt),
                ..*cfg
            };
            let rng = Rng::new(run_cfg.seed);
            // Fresh sink per attempt: the final stats describe the
            // successful pass; failed attempts leave their trace as
            // `retry_causes`.
            let sink = ObsSink::new(run_cfg.telemetry);

            // Arm this attempt's faults (all no-ops in production: the
            // default plan is inert and every check is a branch on a Copy
            // struct).
            let forced_overflow = cfg.fault.forced_overflow(attempt);
            let fail_alloc = cfg.fault.alloc_fails(attempt);
            let corrupt_sample = cfg.fault.sample_corrupted(attempt);
            for (armed, kind) in [
                (forced_overflow.is_some(), "force-overflow"),
                (fail_alloc, "fail-alloc"),
                (corrupt_sample, "corrupt-sample"),
            ] {
                if armed {
                    faults_injected += 1;
                    log_event_kv("fault", &[("kind", kind)], &[("attempt", attempt as u64)]);
                }
            }

            sample_phase(records, &run_cfg, &rng, corrupt_sample, sample, &mut stats);
            cancel.check()?;

            // Phase 2: bucket construction (classification, table,
            // allocation).
            let span = PhaseSpan::start("construct_buckets");
            let plan = build_plan(sample, n, &run_cfg);
            // Memory budget: α doubles every retry, so the arena grows
            // geometrically — check the plan *before* allocating and
            // escalate early instead of letting a doomed retry sequence
            // eat the heap.
            let required = arena_bytes::<V>(&plan);
            let leased = if required > cfg.max_arena_bytes {
                Err(SemisortError::ArenaBudgetExceeded {
                    required_bytes: required,
                    budget_bytes: cfg.max_arena_bytes,
                    attempt,
                })
            } else {
                arena
                    .lease_slots::<V>(plan.total_slots, fail_alloc, counters)
                    .map_err(|bytes| SemisortError::ArenaAllocFailed { bytes, attempt })
            };
            let slots: &[Slot<V>] = match leased {
                Ok(slots) => slots,
                Err(err) => {
                    self.finish(&mut stats, &sink, retry_causes, faults_injected);
                    self.escalate(err, &mut stats, out)?;
                    return Ok(stats);
                }
            };
            stats.t_construct_buckets = span.finish_into(&mut stats.spans);
            record_plan(&mut stats, &plan);
            cancel.check()?;

            // Phase 3: the paper's CAS scatter into the arena.
            let span = PhaseSpan::start("scatter");
            if cfg.fault.panics(attempt) {
                injected_panic(cfg, attempt);
            }
            let o = scatter(
                records,
                &plan,
                slots,
                run_cfg.probe_strategy,
                run_cfg.scatter.prefetch_distance,
                rng.fork(2),
                &sink,
                forced_overflow,
            );
            stats.t_scatter = span.finish_into(&mut stats.spans);
            if o.overflowed {
                attempt += 1;
                stats.retries = attempt;
                // Record *why* (cold path — every telemetry level keeps
                // this: a run that retried is exactly the run worth
                // diagnosing).
                if let Some((bucket, allocated, observed)) = o.overflow {
                    retry_causes.push(RetryCause {
                        attempt,
                        bucket,
                        heavy: (bucket as usize) < plan.num_heavy,
                        allocated,
                        observed,
                    });
                    log_event(
                        "retry",
                        &[
                            ("attempt", attempt as u64),
                            ("bucket", bucket as u64),
                            ("allocated", allocated as u64),
                            ("observed", observed as u64),
                        ],
                    );
                }
                if attempt > cfg.max_retries {
                    let err = SemisortError::RetriesExhausted {
                        attempts: attempt,
                        alpha: run_cfg.alpha,
                        n,
                    };
                    self.finish(&mut stats, &sink, retry_causes, faults_injected);
                    self.escalate(err, &mut stats, out)?;
                    return Ok(stats);
                }
                continue;
            }
            stats.heavy_records = o.heavy_records;
            stats.light_records = n - o.heavy_records;
            cancel.check()?;

            // Phase 4: local sort of the light buckets.
            let span = PhaseSpan::start("local_sort");
            let light_counts =
                local_sort_light_buckets(&plan, slots, run_cfg.local_sort_algo, &sink);
            stats.t_local_sort = span.finish_into(&mut stats.spans);
            // Last cancellation point: past here the run commits to
            // writing `out`, and finishing is cheaper than throwing the
            // work away.
            cancel.check()?;

            // Phase 5: pack.
            let span = PhaseSpan::start("pack");
            pack_output_into(&plan, slots, &light_counts, out);
            stats.t_pack = span.finish_into(&mut stats.spans);
            debug_assert_eq!(out.len(), n, "pack must emit every record");

            self.finish(&mut stats, &sink, retry_causes, faults_injected);
            return Ok(stats);
        }
    }

    /// Fold the attempt's telemetry and the run-level failure bookkeeping
    /// into the stats (shared by the success returns and every escalation
    /// site). When a baseline scheduler snapshot was taken, the closing
    /// snapshot is taken here — after the run's parallel phases joined, so
    /// the pool is quiescent with respect to this run's jobs — and the
    /// delta attached.
    fn finish(
        &self,
        stats: &mut SemisortStats,
        sink: &ObsSink,
        retry_causes: Vec<RetryCause>,
        faults_injected: u32,
    ) {
        stats.telemetry = sink.snapshot();
        stats.telemetry.retry_causes = retry_causes;
        stats.faults_injected = faults_injected;
        if let Some(before) = &self.sched_before {
            stats.scheduler = rayon::scheduler_stats().map(|after| after.delta(before));
        }
    }

    /// Apply the configured [`OverflowPolicy`] to a terminal failure:
    /// degrade to the comparison sort written into `out` (marking the
    /// stats) or surface the error.
    ///
    /// A tripped [`CancelToken`] overrides the policy: a caller whose
    /// deadline has already passed must not be handed to the comparison-sort
    /// fallback, which is the *slowest* path in the crate.
    fn escalate(
        &self,
        err: SemisortError,
        stats: &mut SemisortStats,
        out: &mut Vec<(u64, V)>,
    ) -> Result<(), SemisortError> {
        self.cancel.check()?;
        let policy = self.cfg.overflow_policy;
        let n = self.records.len() as u64;
        match (policy, err.degrade_reason()) {
            (OverflowPolicy::Fallback, Some(reason)) => {
                log_event_kv(
                    "degraded",
                    &[("policy", policy.as_str()), ("reason", reason.as_str())],
                    &[("n", n)],
                );
                stats.degraded = true;
                stats.degrade_reason = Some(reason);
                stats.heavy_records = 0;
                stats.light_records = self.records.len();
                fallback_sort_into(self.records, out);
                Ok(())
            }
            _ => {
                log_event_kv(
                    "error",
                    &[("policy", policy.as_str()), ("kind", err.kind())],
                    &[("n", n)],
                );
                Err(err)
            }
        }
    }
}

/// The scheduler snapshot a run's closing snapshot is diffed against, when
/// `cfg.capture_scheduler` is on. Skipped when the run executes inline
/// (effective pool of 1, or Miri): there is no scheduler to observe, and
/// asking would force the global registry into existence for nothing.
pub(crate) fn scheduler_baseline(cfg: &SemisortConfig) -> Option<SchedulerStats> {
    if cfg.capture_scheduler && rayon::current_num_threads() > 1 {
        rayon::scheduler_stats()
    } else {
        None
    }
}

/// Phase 1: draw the strided sample of `records`' keys into the pooled
/// buffer (decimated when `corrupt` injects that fault) and sort it. Shared
/// by both driver paths and the fused by-key aggregation.
pub(crate) fn sample_phase<V: Sync>(
    records: &[(u64, V)],
    run_cfg: &SemisortConfig,
    rng: &Rng,
    corrupt: bool,
    sample: &mut Vec<u64>,
    stats: &mut SemisortStats,
) {
    let span = PhaseSpan::start("sample_sort");
    strided_sample_by_into(
        records.len(),
        run_cfg.sample_shift,
        rng.fork(1),
        |i| records[i].0,
        sample,
    );
    if corrupt {
        FaultPlan::corrupt_sample(sample);
    }
    parlay::radix_sort::radix_sort_u64(sample);
    stats.t_sample_sort = span.finish_into(&mut stats.spans);
    stats.sample_size = sample.len();
}

/// Chaos injection: a real unwind from the middle of the hot phase, for
/// the service layer's `catch_unwind` containment to absorb. All scratch
/// is leased from the pool via borrows, so the unwind cannot leave a lease
/// dangling (tests/poison_recovery.rs).
pub(crate) fn injected_panic(cfg: &SemisortConfig, attempt: u32) -> ! {
    log_event_kv(
        "fault",
        &[("kind", "panic")],
        &[("attempt", attempt as u64)],
    );
    panic!(
        "semisort: injected panic (fault plan `{}`)",
        cfg.fault.spec()
    );
}

/// Copy the plan's bucket geometry into the stats.
pub(crate) fn record_plan(stats: &mut SemisortStats, plan: &BucketPlan) {
    stats.heavy_keys = plan.num_heavy;
    stats.light_buckets = plan.num_light;
    stats.total_slots = plan.total_slots;
}

/// Mix `(seed, attempt)` into a per-attempt seed with the splitmix64
/// finalizer, so retry streams are statistically independent of the failed
/// attempt's. Attempt 0 is mixed too — the entry seed is a label, not a
/// stream prefix.
pub(crate) fn mix_seed(seed: u64, attempt: u32) -> u64 {
    let mut z = seed.wrapping_add((attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sort-based fallback: a full sort by key is trivially a semisort. Writes
/// into `out` (cleared first) so pooled callers keep its capacity.
fn fallback_sort_into<V: Copy + Send + Sync>(records: &[(u64, V)], out: &mut Vec<(u64, V)>) {
    out.clear();
    out.extend_from_slice(records);
    if out.len() > 1 {
        parlay::radix_sort::radix_sort_by_key(out, 64, |r| r.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScatterConfig;
    use crate::verify::{is_permutation_of, is_semisorted_by};
    use parlay::hash64;
    use std::time::Duration;

    fn with_strategy(strategy: ScatterStrategy) -> SemisortConfig {
        SemisortConfig {
            scatter: ScatterConfig {
                strategy,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn check(records: &[(u64, u64)], cfg: &SemisortConfig) -> SemisortStats {
        let (out, stats) = try_semisort_with_stats(records, cfg).unwrap();
        assert!(is_semisorted_by(&out, |r| r.0), "not semisorted");
        assert!(is_permutation_of(&out, records), "not a permutation");
        stats
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let cfg = SemisortConfig::default();
        check(&[], &cfg);
        check(&[(hash64(1), 0)], &cfg);
        let tiny: Vec<(u64, u64)> = (0..100u64).map(|i| (hash64(i % 5), i)).collect();
        check(&tiny, &cfg);
    }

    #[test]
    fn uniform_all_light() {
        let cfg = SemisortConfig::default();
        let recs: Vec<(u64, u64)> = (0..100_000u64).map(|i| (hash64(i), i)).collect();
        let stats = check(&recs, &cfg);
        assert_eq!(stats.heavy_records, 0, "all-distinct keys are never heavy");
        assert_eq!(stats.retries, 0);
        assert!(!stats.degraded);
        assert_eq!(stats.faults_injected, 0);
    }

    #[test]
    fn few_keys_all_heavy() {
        let cfg = SemisortConfig::default();
        let recs: Vec<(u64, u64)> = (0..100_000u64).map(|i| (hash64(i % 4), i)).collect();
        let stats = check(&recs, &cfg);
        assert_eq!(stats.heavy_keys, 4);
        assert!(stats.heavy_fraction_pct() > 99.9);
    }

    #[test]
    fn mixed_heavy_light() {
        let cfg = SemisortConfig::default();
        let recs: Vec<(u64, u64)> = (0..150_000u64)
            .map(|i| {
                let k = if i % 2 == 0 { i % 10 } else { 1_000_000 + i };
                (hash64(k), i)
            })
            .collect();
        let stats = check(&recs, &cfg);
        // Even i with key i % 10 gives 5 hot keys: {0, 2, 4, 6, 8}.
        assert_eq!(stats.heavy_keys, 5, "the 5 hot keys should be heavy");
        let pct = stats.heavy_fraction_pct();
        assert!((45.0..55.0).contains(&pct), "≈50% heavy, got {pct:.1}%");
    }

    #[test]
    fn space_is_linear() {
        let cfg = SemisortConfig::default();
        let recs: Vec<(u64, u64)> = (0..200_000u64).map(|i| (hash64(i), i)).collect();
        let stats = check(&recs, &cfg);
        assert!(
            stats.space_blowup() < 8.0,
            "Lemma 3.5 promises O(n) slots; blowup={:.2}",
            stats.space_blowup()
        );
    }

    #[test]
    fn valid_at_any_thread_count() {
        // CAS races make RandomCas's exact permutation scheduling-dependent
        // (as in the paper's C++ code); what must hold for both strategies
        // at every thread count is semisortedness + permutation.
        let recs: Vec<(u64, u64)> = (0..60_000u64).map(|i| (hash64(i % 1000), i)).collect();
        for strategy in [ScatterStrategy::Counting, ScatterStrategy::RandomCas] {
            let cfg = with_strategy(strategy);
            for threads in [1usize, 2, 4] {
                let out = parlay::with_threads(threads, || try_semisort_core(&recs, &cfg).unwrap());
                let ctx = format!("{strategy:?} threads={threads}");
                assert!(is_semisorted_by(&out, |r| r.0), "{ctx}");
                assert!(is_permutation_of(&out, &recs), "{ctx}");
            }
        }
    }

    #[test]
    fn single_thread_runs_are_reproducible() {
        // With one thread there are no CAS races, so seed ⇒ output exactly.
        let cfg = SemisortConfig::default();
        let recs: Vec<(u64, u64)> = (0..60_000u64).map(|i| (hash64(i % 1000), i)).collect();
        let a = parlay::with_threads(1, || try_semisort_core(&recs, &cfg).unwrap());
        let b = parlay::with_threads(1, || try_semisort_core(&recs, &cfg).unwrap());
        assert_eq!(a, b, "same seed + one thread must reproduce exactly");
    }

    #[test]
    fn different_seeds_differ_but_both_valid() {
        // The seed picks RandomCas's slots; Counting's regions follow the
        // plan, which for these 50 all-heavy keys no seed changes.
        let recs: Vec<(u64, u64)> = (0..60_000u64).map(|i| (hash64(i % 50), i)).collect();
        let cas = with_strategy(ScatterStrategy::RandomCas);
        let a = try_semisort_core(&recs, &cas.with_seed(1)).unwrap();
        let b = try_semisort_core(&recs, &cas.with_seed(2)).unwrap();
        assert!(is_semisorted_by(&a, |r| r.0));
        assert!(is_semisorted_by(&b, |r| r.0));
        assert_ne!(a, b, "different seeds should shuffle differently");
    }

    #[test]
    fn empty_sentinel_key_takes_fallback() {
        let mut recs: Vec<(u64, u64)> = (0..50_000u64).map(|i| (hash64(i % 100), i)).collect();
        recs[12_345].0 = EMPTY;
        recs[23_456].0 = EMPTY;
        let (out, _) = try_semisort_with_stats(&recs, &SemisortConfig::default()).unwrap();
        assert!(is_semisorted_by(&out, |r| r.0));
        assert!(is_permutation_of(&out, &recs));
    }

    #[test]
    fn tight_alpha_retries_instead_of_failing() {
        // α barely above 1 forces near-full buckets; the Las Vegas loop must
        // still converge (by doubling α) and produce a valid semisort.
        let cfg = SemisortConfig {
            alpha: 1.01,
            ..with_strategy(ScatterStrategy::RandomCas)
        };
        let recs: Vec<(u64, u64)> = (0..100_000u64).map(|i| (hash64(i), i)).collect();
        let stats = check(&recs, &cfg);
        assert!(!stats.degraded);
    }

    #[test]
    fn non_u64_payloads_work() {
        #[derive(Clone, Copy, PartialEq, Debug, PartialOrd)]
        struct Payload {
            a: f32,
            b: u32,
        }
        let recs: Vec<(u64, Payload)> = (0..50_000u32)
            .map(|i| (hash64((i % 321) as u64), Payload { a: i as f32, b: i }))
            .collect();
        let out = try_semisort_core(&recs, &SemisortConfig::default()).unwrap();
        assert_eq!(out.len(), recs.len());
        assert!(is_semisorted_by(&out, |r| r.0));
        let mut got: Vec<u32> = out.iter().map(|r| r.1.b).collect();
        got.sort_unstable();
        assert!(got.iter().enumerate().all(|(i, &b)| b == i as u32));
    }

    #[test]
    fn counting_strategy_end_to_end() {
        let cfg = with_strategy(ScatterStrategy::Counting);
        let recs: Vec<(u64, u64)> = (0..150_000u64)
            .map(|i| {
                let k = if i % 2 == 0 { i % 10 } else { 1_000_000 + i };
                (hash64(k), i)
            })
            .collect();
        let stats = check(&recs, &cfg);
        assert_eq!(stats.heavy_records + stats.light_records, recs.len());
        assert_eq!(stats.heavy_keys, 5);
        assert_eq!(
            stats.total_slots,
            recs.len(),
            "exact regions: one slot per record"
        );
        assert_eq!(stats.retries, 0, "exact counting cannot overflow");
        assert_eq!(stats.t_pack, Duration::ZERO, "no pack on the exact path");
    }

    #[test]
    fn light_records_complement_heavy() {
        let cfg = SemisortConfig::default();
        let recs: Vec<(u64, u64)> = (0..150_000u64)
            .map(|i| {
                let k = if i % 2 == 0 { i % 10 } else { 1_000_000 + i };
                (hash64(k), i)
            })
            .collect();
        let stats = check(&recs, &cfg);
        assert!(stats.heavy_records > 0 && stats.light_records > 0);
        assert_eq!(stats.heavy_records + stats.light_records, recs.len());
        // Fallback paths count everything as light.
        let (_, small_stats) = try_semisort_with_stats(&recs[..100], &cfg).unwrap();
        assert_eq!(small_stats.light_records, 100);
    }

    #[test]
    fn all_equal_keys() {
        let recs: Vec<(u64, u64)> = (0..80_000u64).map(|i| (hash64(7), i)).collect();
        let stats = check(&recs, &SemisortConfig::default());
        assert_eq!(stats.heavy_keys, 1);
        assert_eq!(stats.heavy_records, recs.len());
    }

    #[test]
    fn mixed_seeds_are_decorrelated() {
        // Consecutive attempts must not share a seed with any nearby
        // (seed, attempt) pair — the old `seed + attempt` scheme made
        // (s, k+1) collide with (s+1, k).
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            for attempt in 0..8u32 {
                assert!(
                    seen.insert(mix_seed(seed, attempt)),
                    "collision at seed={seed} attempt={attempt}"
                );
            }
        }
        // And mixing is deterministic.
        assert_eq!(mix_seed(42, 3), mix_seed(42, 3));
    }
}
