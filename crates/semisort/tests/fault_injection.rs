//! Chaos tests: drive every escalation transition of the Las Vegas retry
//! loop of a [`paper`] run (the CAS scatter) deterministically, via the
//! config's [`FaultPlan`].
//!
//! The four terminal outcomes under test:
//! 1. **retry-success** — a fault on the first attempt only; the retry
//!    (with doubled α and a re-mixed seed) completes the run.
//! 2. **fallback** — faults outlast `max_retries`; the default policy
//!    degrades to the comparison sort and still returns a valid semisort.
//! 3. **error** — same exhaustion under `OverflowPolicy::Error` returns a
//!    typed [`SemisortError`].
//! 4. **budget-clamp** — `max_arena_bytes` stops the α-doubling geometry
//!    before the retry budget is spent.
//!
//! The engine's exact distribution has no ladder: it counts exactly,
//! holds no arena, and runs once, so the arena faults are inert under it.

use parlay::hash64;
use semisort::{
    paper, try_semisort_with_stats, DegradeReason, FaultPlan, Json, OverflowPolicy, PaperConfig,
    SemisortConfig, SemisortError, TelemetryLevel,
};

/// Half heavy (10 hot keys), half light — both bucket classes populated,
/// so class-targeted faults have something to hit.
fn mixed_workload(n: u64) -> Vec<(u64, u64)> {
    (0..n)
        .map(|i| {
            let k = if i % 2 == 0 { i % 10 } else { 1_000_000 + i };
            (hash64(k), i)
        })
        .collect()
}

/// A paper run with the `fault` spec armed.
fn cfg(fault: &str) -> PaperConfig {
    PaperConfig::new(SemisortConfig {
        fault: FaultPlan::parse(fault).expect("fault spec"),
        ..Default::default()
    })
}

fn assert_valid(out: &[(u64, u64)], input: &[(u64, u64)]) {
    assert!(semisort::verify::is_semisorted_by(out, |r| r.0));
    assert!(semisort::verify::is_permutation_of(out, input));
}

// ───────────────────────── outcome 1: retry-success ─────────────────────

#[test]
fn forced_overflow_once_retries_then_succeeds() {
    let recs = mixed_workload(100_000);
    let (out, stats) = paper::try_semisort_with_stats(&recs, &cfg("force-overflow:1")).unwrap();
    assert_valid(&out, &recs);
    assert_eq!(stats.retries, 1, "exactly one forced retry");
    assert!(!stats.degraded);
    assert_eq!(stats.degrade_reason, None);
    assert_eq!(stats.faults_injected, 1);
    assert_eq!(stats.telemetry.retry_causes.len(), 1);
}

#[test]
fn forced_overflow_targets_bucket_class() {
    let recs = mixed_workload(100_000);
    for (spec, want_heavy) in [
        ("force-overflow-heavy:1", true),
        ("force-overflow-light:1", false),
    ] {
        let (out, stats) = paper::try_semisort_with_stats(&recs, &cfg(spec)).unwrap();
        assert_valid(&out, &recs);
        let cause = &stats.telemetry.retry_causes[0];
        assert_eq!(
            cause.heavy, want_heavy,
            "{spec}: overflow must land in the targeted class"
        );
    }
}

#[test]
fn corrupt_sample_overflows_naturally_then_recovers() {
    // Decimating the sample 8× makes α·f(s) under-allocate every bucket —
    // a *natural* overflow through estimate/buckets/scatter, not a forced
    // report. The uncorrupted retry completes.
    let recs = mixed_workload(100_000);
    let (out, stats) = paper::try_semisort_with_stats(&recs, &cfg("corrupt-sample:1")).unwrap();
    assert_valid(&out, &recs);
    assert!(stats.retries >= 1, "an 8×-starved plan must overflow");
    assert!(!stats.degraded);
    assert!(
        !stats.telemetry.retry_causes.is_empty(),
        "the natural overflow must be diagnosed"
    );
}

// ─────────────────────────── outcome 2: fallback ────────────────────────

#[test]
fn exhausted_retries_degrade_to_fallback() {
    let recs = mixed_workload(100_000);
    let base = cfg("force-overflow:31");
    let (out, stats) = paper::try_semisort_with_stats(&recs, &base).unwrap();
    assert_valid(&out, &recs);
    assert!(stats.degraded);
    assert_eq!(stats.degrade_reason, Some(DegradeReason::RetriesExhausted));
    assert_eq!(stats.retries, base.max_retries + 1);
    assert_eq!(stats.heavy_records, 0, "fallback is all-light");
    assert_eq!(stats.light_records, recs.len());
    assert_eq!(
        stats.faults_injected,
        base.max_retries + 1,
        "one armed fault per attempt"
    );

    // The degradation is visible in the stats JSON outcome section.
    let j = Json::parse(&stats.to_json().to_string()).unwrap();
    let outcome = j.get("outcome").expect("outcome section");
    assert_eq!(outcome.get("degraded"), Some(&Json::Bool(true)));
    assert_eq!(
        outcome.get("reason").and_then(Json::as_str),
        Some("retries-exhausted")
    );
}

#[test]
fn alloc_failure_degrades_to_fallback() {
    let recs = mixed_workload(100_000);
    let (out, stats) = paper::try_semisort_with_stats(&recs, &cfg("fail-alloc:1")).unwrap();
    assert_valid(&out, &recs);
    assert!(stats.degraded);
    assert_eq!(stats.degrade_reason, Some(DegradeReason::AllocFailed));
    assert_eq!(stats.light_records, recs.len());
    // The failed attempt's phases stay in the run record.
    let names: Vec<&str> = stats.spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["sample_sort", "construct_buckets"]);
}

// ──────────────────────────── outcome 3: error ──────────────────────────

#[test]
fn exhausted_retries_error_policy() {
    let recs = mixed_workload(100_000);
    let c = PaperConfig {
        overflow_policy: OverflowPolicy::Error,
        max_retries: 1,
        ..cfg("force-overflow:31")
    };
    let err = paper::try_semisort_with_stats(&recs, &c).unwrap_err();
    assert_eq!(err.kind(), "retries-exhausted");
    match err {
        SemisortError::RetriesExhausted { attempts, alpha, n } => {
            assert_eq!(attempts, 2, "initial run + 1 retry");
            assert!(alpha > c.alpha, "α must have doubled");
            assert_eq!(n, recs.len());
        }
        other => panic!("wrong error {other:?}"),
    }
}

#[test]
fn alloc_failure_error_policy() {
    let recs = mixed_workload(100_000);
    let c = PaperConfig {
        overflow_policy: OverflowPolicy::Error,
        ..cfg("fail-alloc:1")
    };
    let err = paper::try_semisort_with_stats(&recs, &c).unwrap_err();
    match err {
        SemisortError::ArenaAllocFailed { bytes, attempt } => {
            assert_eq!(attempt, 0);
            assert!(bytes > 0);
        }
        other => panic!("wrong error {other:?}"),
    }
}

// ───────────────────────── outcome 4: budget-clamp ──────────────────────

#[test]
fn tiny_arena_budget_degrades_immediately() {
    let recs = mixed_workload(100_000);
    let c = PaperConfig {
        max_arena_bytes: 1024,
        ..cfg("none")
    };
    let (out, stats) = paper::try_semisort_with_stats(&recs, &c).unwrap();
    assert_valid(&out, &recs);
    assert!(stats.degraded);
    assert_eq!(stats.degrade_reason, Some(DegradeReason::BudgetExceeded));
    assert_eq!(stats.retries, 0, "clamped before any retry");
}

#[test]
fn arena_budget_clamps_alpha_doubling() {
    // With persistent forced overflows and a generous-but-finite budget,
    // the geometric α-doubling must hit the budget long before the retry
    // budget: the run ends in ArenaBudgetExceeded at some attempt ≥ 1, not
    // in RetriesExhausted at attempt 31.
    let recs = mixed_workload(100_000);
    let c = PaperConfig {
        overflow_policy: OverflowPolicy::Error,
        max_retries: 30,
        max_arena_bytes: 8 << 20,
        ..cfg("force-overflow:31")
    };
    let err = paper::try_semisort_with_stats(&recs, &c).unwrap_err();
    match err {
        SemisortError::ArenaBudgetExceeded {
            required_bytes,
            budget_bytes,
            attempt,
        } => {
            assert!(required_bytes > budget_bytes);
            assert_eq!(budget_bytes, 8 << 20);
            assert!(
                (1..=30).contains(&attempt),
                "doubling must burst an 8 MiB budget \
                 after a few retries, got attempt {attempt}"
            );
        }
        other => panic!("wrong error {other:?}"),
    }
}

// ─────────────────────── counting: no ladder ────────────────────────────

#[test]
fn counting_ignores_arena_faults_and_budget() {
    // The engine has no arena, no budget and no policy: an arena fault
    // that fired would show as a retry, a degradation or an `Err`; the
    // exact run must instead complete untouched on its first and only
    // pass.
    let recs = mixed_workload(100_000);
    for case in ["force-overflow:31", "fail-alloc:1", "corrupt-sample:1"] {
        let (out, stats) = try_semisort_with_stats(&recs, &cfg(case).base).unwrap();
        assert_valid(&out, &recs);
        assert_eq!(stats.retries, 0, "{case}");
        assert!(!stats.degraded, "{case}");
        assert_eq!(stats.faults_injected, 0, "{case}");
        assert!(stats.telemetry.retry_causes.is_empty(), "{case}");
    }
}

// ─────────────────────────── determinism ────────────────────────────────

#[test]
fn faulted_runs_are_deterministic() {
    let recs = mixed_workload(60_000);
    let c = cfg("force-overflow:2");
    let (out_a, stats_a) =
        parlay::with_threads(1, || paper::try_semisort_with_stats(&recs, &c).unwrap());
    let (out_b, stats_b) =
        parlay::with_threads(1, || paper::try_semisort_with_stats(&recs, &c).unwrap());
    assert_eq!(out_a, out_b, "same plan ⇒ same output");
    assert_eq!(stats_a.retries, stats_b.retries);
    assert_eq!(stats_a.retries, 2);
    let buckets_a: Vec<u32> = stats_a
        .telemetry
        .retry_causes
        .iter()
        .map(|r| r.bucket)
        .collect();
    let buckets_b: Vec<u32> = stats_b
        .telemetry
        .retry_causes
        .iter()
        .map(|r| r.bucket)
        .collect();
    assert_eq!(buckets_a, buckets_b, "same overflow diagnosis");
}

// ──────────────── pre-existing fallback paths (satellite) ───────────────

#[test]
fn seq_threshold_fallback_is_quiet_and_correct() {
    // Inputs at or below seq_threshold never touch the Las Vegas machinery:
    // correct output, all records counted light, zero retries, and — at
    // TelemetryLevel::Off — completely inert telemetry.
    let cfg = SemisortConfig {
        telemetry: TelemetryLevel::Off,
        ..Default::default()
    };
    let recs: Vec<(u64, u64)> = (0..cfg.seq_threshold as u64)
        .map(|i| (hash64(i % 7), i))
        .collect();
    let engine = try_semisort_with_stats(&recs, &cfg).unwrap();
    let paper = paper::try_semisort_with_stats(&recs, &PaperConfig::new(cfg)).unwrap();
    for (out, stats) in [engine, paper] {
        assert_valid(&out, &recs);
        assert_eq!(stats.light_records, recs.len());
        assert_eq!(stats.heavy_records, 0);
        assert_eq!(stats.retries, 0);
        assert!(!stats.degraded, "routing fallback is not degradation");
        assert_eq!(stats.degrade_reason, None);
        assert_eq!(stats.telemetry.cas_attempts, 0);
        assert_eq!(stats.telemetry.records_placed, 0);
        assert!(stats.telemetry.retry_causes.is_empty());
    }
}

#[test]
fn reserved_key_fallback_is_quiet_and_correct() {
    // The paper run screens keys equal to its slot-vacancy sentinel (0)
    // into its fallback. The engine reserves no key, and u64::MAX is an
    // ordinary key on both paths: every other case runs the plan.
    for sentinel in [semisort::scatter::EMPTY, u64::MAX] {
        let cfg = SemisortConfig {
            telemetry: TelemetryLevel::Off,
            ..Default::default()
        };
        let mut recs: Vec<(u64, u64)> = (0..50_000u64).map(|i| (hash64(i % 100), i)).collect();
        recs[12_345].0 = sentinel;
        recs[23_456].0 = sentinel;
        let engine = try_semisort_with_stats(&recs, &cfg).unwrap();
        let paper = paper::try_semisort_with_stats(&recs, &PaperConfig::new(cfg)).unwrap();
        for (path, (out, stats)) in [("engine", engine), ("paper", paper)] {
            let ctx = format!("{path} sentinel {sentinel:#x}");
            assert_valid(&out, &recs);
            assert_eq!(stats.retries, 0, "{ctx}");
            assert!(!stats.degraded, "{ctx}");
            assert!(stats.telemetry.retry_causes.is_empty(), "{ctx}");
            if path == "engine" || sentinel == u64::MAX {
                assert_eq!(stats.heavy_keys, 100, "{ctx}: the plan ran");
                assert_eq!(stats.heavy_records, recs.len() - 2, "{ctx}");
            } else {
                assert_eq!(stats.light_records, recs.len(), "{ctx}");
                assert_eq!(stats.heavy_keys, 0, "{ctx}: no plan");
                assert_eq!(stats.telemetry.cas_attempts, 0, "{ctx}");
                assert_eq!(stats.telemetry.records_placed, 0, "{ctx}");
            }
        }
    }
}
