//! The engine's driver (Algorithm 1 end to end, with the exact
//! distribution as Phase 3), with per-phase timing and cancellation.
//!
//! After a shared prefix (validation, sequential cutoff, sentinel screen,
//! scheduler snapshot) a run samples, plans the buckets, distributes the
//! records into exact bucket regions of the output with one stable
//! counting sort, and sorts each light region: once, straight through.
//! Exact counts cannot overflow, so there is no slot arena, no Las Vegas
//! retry and no pack. The paper's CAS scatter, which needs all three, runs
//! only through [`crate::paper`].

use parlay::counting_sort::CountingScratch;
use parlay::random::Rng;
use rayon::prelude::*;
use rayon::trace::SchedulerStats;

use crate::buckets::{build_plan, BucketPlan};
use crate::cancel::CancelToken;
use crate::config::SemisortConfig;
use crate::error::SemisortError;
use crate::fault::FaultPlan;
use crate::local_sort::sort_light_regions;
use crate::obs::{log_event, log_event_kv, ObsSink, PhaseSpan, ScratchCounters, WorkerCell};
use crate::pool::ScratchPool;
use crate::sample::strided_sample_by_into;
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
/// per-phase telemetry of [`SemisortStats`].
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
/// for you. The output is a function of the input and `cfg.seed` alone, at
/// any thread count.
///
/// Inputs at or below `cfg.seq_threshold`, and inputs containing the
/// reserved key `u64::MAX` (the heavy table's vacancy sentinel,
/// probability `≈ n/2^64` for hashed keys), take a sort-based fallback
/// path — still a correct semisort, just without the linear-work
/// machinery. Key 0, the paper's slot-vacancy sentinel, is an ordinary
/// key here: the exact distribution has no slots.
///
/// # Errors
///
/// Only an invalid configuration: [`SemisortError::InvalidConfig`]. The
/// exact distribution cannot overflow, so there is nothing to retry,
/// degrade or escalate.
#[must_use = "the Err carries the configuration's validation failure"]
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
/// never a partially-written semisort.
///
/// The distribution writes straight into the output buffer, so once it
/// begins the run commits: no further polls happen and cancellation
/// latency extends to the end of the run.
#[must_use = "the Err carries the validation failure or the cancellation"]
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
/// On *every* exit (success or error) the pool's retained bytes are
/// re-bounded by `cfg.max_scratch_bytes`; on success the stats carry the
/// pool counters ([`SemisortStats::scratch_reuse_hits`] /
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

/// One run into `out`, borrowing all scratch from `pool`: the screens,
/// then sample → plan → distribute ([`plan_and_distribute`]) → sort, once.
/// Of the fault plan only `panic` applies. Assumes `cfg` is already
/// validated.
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
    if has_reserved_key(records) {
        stats.light_records = n;
        fallback_sort_into(records, out);
        return Ok(stats);
    }

    let ScratchPool {
        sample, counting, ..
    } = pool;
    let held = counting.bytes();
    // From the distribution on, the run has committed to the output
    // buffer: no cancellation polls past it (see
    // `try_semisort_with_stats_cancellable`).
    let (plan, starts) =
        plan_and_distribute(records, cfg, sample, counting, out, &mut stats, cancel)?;

    // Phase 4: the records already sit in their exact bucket regions;
    // sorting the light regions is all that remains (heavy regions hold one
    // key each) and there is no pack.
    let span = PhaseSpan::start("local_sort");
    sort_light_regions(out, &plan, starts);
    stats.t_local_sort = span.finish_into(&mut stats.spans);
    if counting.bytes() > held {
        counters.grows += 1;
    } else {
        counters.reuse_hits += 1;
    }

    // The parallel phases have joined, so the pool is quiescent with
    // respect to this run's jobs: take the closing scheduler snapshot.
    if let Some(before) = &sched_before {
        stats.scheduler = rayon::scheduler_stats().map(|after| after.delta(before));
    }
    Ok(stats)
}

/// Whether `records` hold the engine's one reserved key, `u64::MAX` (the
/// heavy-key table's vacancy sentinel). A hashed key equal to it is a
/// ~n/2^64 event; runs handle it by falling back rather than by silently
/// merging keys.
pub(crate) fn has_reserved_key<V: Sync>(records: &[(u64, V)]) -> bool {
    records.par_iter().any(|r| r.0 == parlay::hash_table::EMPTY)
}

/// Phases 1–3 of an engine run, shared by the driver and the by-key core
/// ([`crate::aggregate`]): sample, plan the buckets, and distribute
/// `records` into exact bucket regions of `out` (cleared, then written
/// once, record by record, by the distribution's parallel replay; see
/// [`BucketPlan::distribute_into`]). Returns the plan and the region bounds (bucket `b`
/// holds `out[starts[b]..starts[b + 1]]`, heavy buckets first).
///
/// Records the three phase spans, the plan's counts, the heavy/light
/// split and the distribution's telemetry into `stats`. Polls `cancel`
/// after sampling and after planning; the fault plan's `panic` fires as
/// the distribution starts.
pub(crate) fn plan_and_distribute<'s, V: Copy + Send + Sync>(
    records: &[(u64, V)],
    cfg: &SemisortConfig,
    sample: &mut Vec<u64>,
    counting: &'s mut CountingScratch,
    out: &mut Vec<(u64, V)>,
    stats: &mut SemisortStats,
    cancel: &CancelToken,
) -> Result<(BucketPlan, &'s [usize]), SemisortError> {
    let n = records.len();
    let run_cfg = SemisortConfig {
        seed: mix_seed(cfg.seed, 0),
        ..*cfg
    };
    let rng = Rng::new(run_cfg.seed);
    let sink = ObsSink::new(run_cfg.telemetry);

    sample_phase(records, &run_cfg, &rng, false, sample, stats);
    cancel.check()?;

    let span = PhaseSpan::start("construct_buckets");
    let plan = build_plan(sample, n, &run_cfg);
    stats.t_construct_buckets = span.finish_into(&mut stats.spans);
    record_plan(stats, &plan);
    // One slot per record: the regions are exact.
    stats.total_slots = n;
    cancel.check()?;

    let span = PhaseSpan::start("scatter");
    if cfg.fault.panics(0) {
        injected_panic(cfg, 0);
    }
    let starts = plan.distribute_into(records, out, counting);
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
    stats.telemetry = sink.snapshot();
    Ok((plan, starts))
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

/// Phase 1: draw the strided sample of `records`' keys into `sample`
/// (decimated when `corrupt` injects that fault) and sort it. Shared by
/// the driver, the fused by-key aggregation and [`crate::paper`].
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
/// is borrowed from the pool, so the unwind cannot leave a buffer
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

/// Copy the plan's bucket counts into the stats.
pub(crate) fn record_plan(stats: &mut SemisortStats, plan: &BucketPlan) {
    stats.heavy_keys = plan.num_heavy;
    stats.light_buckets = plan.num_light;
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
pub(crate) fn fallback_sort_into<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    out: &mut Vec<(u64, V)>,
) {
    out.clear();
    out.extend_from_slice(records);
    if out.len() > 1 {
        parlay::radix_sort::radix_sort_by_key(out, 64, |r| r.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperConfig;
    use crate::verify::{is_permutation_of, is_semisorted_by};
    use parlay::hash64;
    use std::time::Duration;

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
        // CAS races make the paper run's exact permutation
        // scheduling-dependent (as in the paper's C++ code); what must hold
        // for the engine and the paper run at every thread count is
        // semisortedness + permutation.
        let recs: Vec<(u64, u64)> = (0..60_000u64).map(|i| (hash64(i % 1000), i)).collect();
        for threads in [1usize, 2, 4] {
            let engine = parlay::with_threads(threads, || {
                try_semisort_core(&recs, &SemisortConfig::default()).unwrap()
            });
            let paper = parlay::with_threads(threads, || {
                crate::paper::try_semisort_with_stats(&recs, &PaperConfig::default())
                    .unwrap()
                    .0
            });
            for (path, out) in [("engine", engine), ("paper", paper)] {
                let ctx = format!("{path} threads={threads}");
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
        // The seed picks the paper run's slots; the engine's regions follow
        // the plan, which for these 50 all-heavy keys no seed changes.
        let recs: Vec<(u64, u64)> = (0..60_000u64).map(|i| (hash64(i % 50), i)).collect();
        let run = |seed| {
            let cfg = PaperConfig::new(SemisortConfig::default().with_seed(seed));
            crate::paper::try_semisort_with_stats(&recs, &cfg)
                .unwrap()
                .0
        };
        let (a, b) = (run(1), run(2));
        assert!(is_semisorted_by(&a, |r| r.0));
        assert!(is_semisorted_by(&b, |r| r.0));
        assert_ne!(a, b, "different seeds should shuffle differently");
    }

    #[test]
    fn empty_sentinel_key_takes_fallback() {
        // The heavy table's vacancy sentinel is the engine's one reserved
        // key; key 0 (the paper's slot sentinel) runs the plan like any other.
        let mut recs: Vec<(u64, u64)> = (0..50_000u64).map(|i| (hash64(i % 100), i)).collect();
        recs[12_345].0 = parlay::hash_table::EMPTY;
        recs[23_456].0 = parlay::hash_table::EMPTY;
        let (out, stats) = try_semisort_with_stats(&recs, &SemisortConfig::default()).unwrap();
        assert!(is_semisorted_by(&out, |r| r.0));
        assert!(is_permutation_of(&out, &recs));
        assert_eq!(stats.light_records, recs.len());
        assert_eq!(stats.heavy_keys, 0, "the fallback draws no plan");
        recs[12_345].0 = 0;
        recs[23_456].0 = 0;
        let (out, stats) = try_semisort_with_stats(&recs, &SemisortConfig::default()).unwrap();
        assert!(is_semisorted_by(&out, |r| r.0));
        assert!(is_permutation_of(&out, &recs));
        assert_eq!(stats.heavy_keys, 100, "key 0 is an ordinary key");
    }

    #[test]
    fn tight_alpha_retries_instead_of_failing() {
        // α barely above 1 forces near-full buckets; the paper run's Las
        // Vegas loop must still converge (by doubling α) and produce a
        // valid semisort.
        let cfg = PaperConfig {
            alpha: 1.01,
            ..Default::default()
        };
        let recs: Vec<(u64, u64)> = (0..100_000u64).map(|i| (hash64(i), i)).collect();
        let (out, stats) = crate::paper::try_semisort_with_stats(&recs, &cfg).unwrap();
        assert!(is_semisorted_by(&out, |r| r.0));
        assert!(is_permutation_of(&out, &recs));
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
        let cfg = SemisortConfig::default();
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
