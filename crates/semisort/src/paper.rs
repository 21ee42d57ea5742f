//! The paper's algorithm, as a one-shot reference run.
//!
//! [`try_semisort_with_stats`] runs Algorithm 1 as §4 of the paper ships
//! it: sample and sort, classify heavy and light keys, give every bucket a
//! slot range sized `α·f(s)` from its sample count `s` (rounded up to a
//! power of two), CAS every record into a random slot of its bucket with
//! linear (or random) probing, sort the light buckets locally, and pack.
//! A bucket can overflow its slots (Corollary 3.4), so the run is Las
//! Vegas: an overflow retries with fresh randomness and doubled α, and a
//! terminal failure — the retry budget, the arena memory budget or the
//! arena allocation — is settled by [`OverflowPolicy`].
//!
//! It exists to reproduce the paper's tables (the `bench` binaries) and as
//! the reference that the engine's exact distribution is checked against.
//! The [`Semisorter`](crate::engine::Semisorter) engine never runs it. So
//! a paper run keeps no [`ScratchPool`](crate::pool::ScratchPool) and
//! takes no [`CancelToken`](crate::cancel::CancelToken): each attempt
//! allocates a zeroed slot arena and drops it on return.

pub use crate::config::{OverflowPolicy, PaperConfig, ProbeStrategy};

use parlay::random::Rng;

use crate::buckets::{build_plan, BucketPlan};
use crate::config::SemisortConfig;
use crate::driver::{
    fallback_sort_into, has_reserved_key, injected_panic, mix_seed, record_plan, sample_phase,
    scheduler_baseline,
};
use crate::error::SemisortError;
use crate::estimate::bucket_capacity;
use crate::local_sort::local_sort_light_buckets;
use crate::obs::{log_event, log_event_kv, ObsSink, PhaseSpan, RetryCause};
use crate::pack_phase::pack_output;
use crate::scatter::{arena_bytes, scatter, try_allocate_arena, ArenaLayout};
use crate::stats::SemisortStats;

/// Size the slot arena for `plan`: bucket `b` gets
/// `α·f(s_b)` slots rounded up to a power of two, where `s_b` is its sample
/// count and `f` the high-probability estimator
/// ([`crate::estimate::f_estimate`], with `cfg.c` and `ln n`). "Each bucket
/// with s samples allocates an array of size 1.1·f(s) with c = 1.25, and
/// rounded up to the nearest power of 2" (§4 Phase 2).
pub fn arena_layout(plan: &BucketPlan, n: usize, cfg: &PaperConfig) -> ArenaLayout {
    let p = cfg.base.sample_probability();
    let ln_n = (n.max(2) as f64).ln();
    let sizes = plan
        .sample_counts
        .iter()
        .map(|&s| bucket_capacity(s, p, cfg.c, ln_n, cfg.alpha))
        .collect();
    ArenaLayout::from_sizes(sizes, plan.num_heavy)
}

/// Semisort pre-hashed `(u64, value)` records with the paper's CAS
/// scatter, returning the output and the per-phase [`SemisortStats`] —
/// all five phase spans, the CAS counters, the probe histogram and the
/// retry causes — or a [`SemisortError`] when the run cannot complete and
/// the config says so. [`SemisortStats::paper`] echoes `cfg`.
///
/// The output contract is the engine's: records with equal keys are
/// contiguous, the input must be hashed keys, and inputs at or below
/// `cfg.base.seq_threshold` or holding a reserved key take the sort
/// fallback. Unlike the engine's output, the order within a bucket depends
/// on CAS races, so it is reproducible from the seed only on one thread.
///
/// # Errors
///
/// An invalid configuration returns [`SemisortError::InvalidConfig`]
/// under every policy. Beyond that, three runtime conditions are terminal:
/// the retry budget runs out, an attempt's arena would exceed
/// [`PaperConfig::max_arena_bytes`], or the arena allocation fails. Under
/// the default [`OverflowPolicy::Fallback`] all three degrade to the
/// comparison sort (`Ok` with [`SemisortStats::degraded`] set); under
/// [`OverflowPolicy::Error`] they return `Err`.
#[must_use = "the Err carries the failure that the config asked to surface"]
pub fn try_semisort_with_stats<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    cfg: &PaperConfig,
) -> Result<(Vec<(u64, V)>, SemisortStats), SemisortError> {
    cfg.try_validate()?;
    let base = &cfg.base;
    let n = records.len();
    let mut stats = SemisortStats {
        n,
        config: *base,
        paper: Some(*cfg),
        ..Default::default()
    };
    let mut out = Vec::new();
    if n <= base.seq_threshold {
        stats.light_records = n;
        fallback_sort_into(records, &mut out);
        return Ok((out, stats));
    }
    let sched_before = scheduler_baseline(base);
    if has_reserved_key(records) {
        stats.light_records = n;
        fallback_sort_into(records, &mut out);
        return Ok((out, stats));
    }

    let mut attempt = 0u32;
    let mut retry_causes: Vec<RetryCause> = Vec::new();
    let mut faults_injected = 0u32;
    let mut sample = Vec::new();
    // Fold the attempt's telemetry and the run-level failure bookkeeping
    // into the stats, then the scheduler delta: the run's parallel phases
    // have joined, so the pool is quiescent with respect to its jobs.
    let finish = |stats: &mut SemisortStats, sink: &ObsSink, causes, faults| {
        stats.telemetry = sink.snapshot();
        stats.telemetry.retry_causes = causes;
        stats.faults_injected = faults;
        if let Some(before) = &sched_before {
            stats.scheduler = rayon::scheduler_stats().map(|after| after.delta(before));
        }
    };
    loop {
        // Each retry re-randomizes every random choice and doubles the
        // slack α (Corollary 3.4 failures are overwhelmingly due to an
        // unlucky sample underestimating a bucket). The per-attempt seed is
        // mixed through a splitmix64 finalizer so consecutive attempts are
        // decorrelated.
        let run_cfg = PaperConfig {
            base: SemisortConfig {
                seed: mix_seed(base.seed, attempt),
                ..*base
            },
            alpha: cfg.alpha * 2f64.powi(attempt as i32),
            ..*cfg
        };
        let rng = Rng::new(run_cfg.base.seed);
        // Fresh sink per attempt: the final stats describe the successful
        // pass; failed attempts leave their trace as `retry_causes`.
        let sink = ObsSink::new(base.telemetry);

        // Arm this attempt's faults (no-ops with the default inert plan).
        let forced_overflow = base.fault.forced_overflow(attempt);
        let fail_alloc = base.fault.alloc_fails(attempt);
        let corrupt_sample = base.fault.sample_corrupted(attempt);
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

        sample_phase(
            records,
            &run_cfg.base,
            &rng,
            corrupt_sample,
            &mut sample,
            &mut stats,
        );

        // Phase 2: classification, then the arena's layout and allocation.
        // α doubles every retry, so the arena grows geometrically: check
        // the layout against the budget *before* allocating and escalate
        // early instead of letting a doomed retry sequence eat the heap.
        let span = PhaseSpan::start("construct_buckets");
        let plan = build_plan(&sample, n, &run_cfg.base);
        let layout = arena_layout(&plan, n, &run_cfg);
        let required = arena_bytes::<V>(&layout);
        let arena = if required > cfg.max_arena_bytes {
            Err(SemisortError::ArenaBudgetExceeded {
                required_bytes: required,
                budget_bytes: cfg.max_arena_bytes,
                attempt,
            })
        } else {
            try_allocate_arena::<V>(&layout, fail_alloc)
                .map_err(|bytes| SemisortError::ArenaAllocFailed { bytes, attempt })
        };
        let arena = match arena {
            Ok(arena) => arena,
            Err(err) => {
                finish(&mut stats, &sink, retry_causes, faults_injected);
                let out = escalate(err, records, cfg.overflow_policy, &mut stats)?;
                return Ok((out, stats));
            }
        };
        stats.t_construct_buckets = span.finish_into(&mut stats.spans);
        record_plan(&mut stats, &plan);
        stats.total_slots = layout.total_slots;

        // Phase 3: the CAS scatter into the arena.
        let span = PhaseSpan::start("scatter");
        if base.fault.panics(attempt) {
            injected_panic(base, attempt);
        }
        let o = scatter(
            records,
            &plan,
            &layout,
            &arena.slots,
            cfg.probe_strategy,
            cfg.prefetch_distance,
            rng.fork(2),
            &sink,
            forced_overflow,
        );
        stats.t_scatter = span.finish_into(&mut stats.spans);
        if o.overflowed {
            attempt += 1;
            stats.retries = attempt;
            // Record *why* at every telemetry level (cold path: a run that
            // retried is exactly the run worth diagnosing).
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
                finish(&mut stats, &sink, retry_causes, faults_injected);
                let out = escalate(err, records, cfg.overflow_policy, &mut stats)?;
                return Ok((out, stats));
            }
            continue;
        }
        stats.heavy_records = o.heavy_records;
        stats.light_records = n - o.heavy_records;

        // Phase 4: compact and sort each light bucket.
        let span = PhaseSpan::start("local_sort");
        let light_counts =
            local_sort_light_buckets(&plan, &layout, &arena.slots, base.local_sort_algo, &sink);
        stats.t_local_sort = span.finish_into(&mut stats.spans);

        // Phase 5: pack.
        let span = PhaseSpan::start("pack");
        let out = pack_output(&plan, &layout, &arena.slots, &light_counts);
        stats.t_pack = span.finish_into(&mut stats.spans);
        debug_assert_eq!(out.len(), n, "pack must emit every record");

        finish(&mut stats, &sink, retry_causes, faults_injected);
        return Ok((out, stats));
    }
}

/// Apply `policy` to a terminal failure: degrade to the comparison sort
/// (marking the stats) or surface the error.
fn escalate<V: Copy + Send + Sync>(
    err: SemisortError,
    records: &[(u64, V)],
    policy: OverflowPolicy,
    stats: &mut SemisortStats,
) -> Result<Vec<(u64, V)>, SemisortError> {
    let n = records.len() as u64;
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
            stats.light_records = records.len();
            let mut out = Vec::new();
            fallback_sort_into(records, &mut out);
            Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_permutation_of, is_semisorted_by};
    use parlay::hash64;

    fn check(records: &[(u64, u64)], cfg: &PaperConfig) -> SemisortStats {
        let (out, stats) = try_semisort_with_stats(records, cfg).unwrap();
        assert!(is_semisorted_by(&out, |r| r.0), "not semisorted");
        assert!(is_permutation_of(&out, records), "not a permutation");
        stats
    }

    #[test]
    fn runs_all_five_phases_with_an_arena() {
        let recs: Vec<(u64, u64)> = (0..150_000u64)
            .map(|i| {
                let k = if i % 2 == 0 { i % 10 } else { 1_000_000 + i };
                (hash64(k), i)
            })
            .collect();
        let stats = check(&recs, &PaperConfig::default());
        assert_eq!(stats.heavy_keys, 5);
        assert_eq!(stats.heavy_records + stats.light_records, recs.len());
        assert!(stats.total_slots > recs.len(), "α-sized slot ranges");
        assert!(stats.space_blowup() < 8.0, "Lemma 3.5: O(n) slots");
        let names: Vec<&str> = stats.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "sample_sort",
                "construct_buckets",
                "scatter",
                "local_sort",
                "pack"
            ]
        );
        assert!(stats.paper.is_some());
        assert_eq!(stats.scratch_bytes_held, 0, "a paper run keeps no pool");
    }

    #[test]
    fn layout_sizes_follow_sample_counts_and_alpha() {
        let keys: Vec<u64> = (0..20_000u64).map(|i| hash64(i % 700)).collect();
        let mut sample = keys.iter().step_by(16).copied().collect::<Vec<_>>();
        sample.sort_unstable();
        let plan = build_plan(&sample, keys.len(), &SemisortConfig::default());
        let tight = arena_layout(&plan, keys.len(), &PaperConfig::default());
        let loose = arena_layout(
            &plan,
            keys.len(),
            &PaperConfig {
                alpha: 4.0,
                ..Default::default()
            },
        );
        assert_eq!(tight.bucket_size.len(), plan.num_buckets());
        for b in 0..plan.num_buckets() {
            assert!(tight.bucket_size[b].is_power_of_two());
            assert!(tight.bucket_size[b] >= plan.sample_counts[b]);
            assert!(loose.bucket_size[b] >= tight.bucket_size[b]);
        }
        assert!(loose.total_slots > tight.total_slots, "α scales the arena");
        assert_eq!(
            tight.heavy_slots,
            tight.bucket_size[..plan.num_heavy].iter().sum::<usize>()
        );
    }

    #[test]
    fn small_and_sentinel_inputs_take_the_fallback() {
        let cfg = PaperConfig::default();
        let tiny: Vec<(u64, u64)> = (0..100u64).map(|i| (hash64(i % 5), i)).collect();
        let stats = check(&tiny, &cfg);
        assert_eq!(stats.light_records, 100);
        assert!(stats.spans.is_empty());
        let mut recs: Vec<(u64, u64)> = (0..50_000u64).map(|i| (hash64(i % 100), i)).collect();
        recs[12_345].0 = crate::scatter::EMPTY;
        let stats = check(&recs, &cfg);
        assert!(!stats.degraded, "routing, not failure");
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let cfg = PaperConfig {
            alpha: 0.5,
            ..Default::default()
        };
        assert!(matches!(
            try_semisort_with_stats(&[(1u64, 1u64)], &cfg),
            Err(SemisortError::InvalidConfig { .. })
        ));
    }
}
