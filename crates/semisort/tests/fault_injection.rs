//! Chaos tests: drive every escalation transition of the Las Vegas retry
//! loop deterministically, for the arena scatter (`RandomCas`), via the
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
//! The exact distribution (`Counting`) has no ladder: it counts exactly,
//! holds no arena, and runs once, so the arena faults and the arena
//! budget are inert under it.

use parlay::hash64;
use semisort::{
    try_semisort_with_stats, DegradeReason, FaultPlan, Json, OverflowPolicy, ScatterConfig,
    ScatterStrategy, SemisortConfig, SemisortError, TelemetryLevel,
};

/// The strategies that scatter into an `α`-sized slot arena, which can
/// overflow (so they run inside the retry loop) and whose allocation
/// geometry α-doubling and sample corruption change.
const ARENA_STRATEGIES: [ScatterStrategy; 1] = [ScatterStrategy::RandomCas];

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

fn cfg(strategy: ScatterStrategy, fault: &str) -> SemisortConfig {
    SemisortConfig {
        scatter: ScatterConfig {
            strategy,
            ..ScatterConfig::default()
        },
        fault: FaultPlan::parse(fault).expect("fault spec"),
        ..Default::default()
    }
}

fn assert_valid(out: &[(u64, u64)], input: &[(u64, u64)]) {
    assert!(semisort::verify::is_semisorted_by(out, |r| r.0));
    assert!(semisort::verify::is_permutation_of(out, input));
}

// ───────────────────────── outcome 1: retry-success ─────────────────────

#[test]
fn forced_overflow_once_retries_then_succeeds() {
    let recs = mixed_workload(100_000);
    for strategy in ARENA_STRATEGIES {
        let (out, stats) =
            try_semisort_with_stats(&recs, &cfg(strategy, "force-overflow:1")).unwrap();
        assert_valid(&out, &recs);
        assert_eq!(stats.retries, 1, "{strategy:?}: exactly one forced retry");
        assert!(!stats.degraded, "{strategy:?}");
        assert_eq!(stats.degrade_reason, None);
        assert_eq!(stats.faults_injected, 1, "{strategy:?}");
        assert_eq!(stats.telemetry.retry_causes.len(), 1, "{strategy:?}");
    }
}

#[test]
fn forced_overflow_targets_bucket_class() {
    let recs = mixed_workload(100_000);
    for strategy in ARENA_STRATEGIES {
        for (spec, want_heavy) in [
            ("force-overflow-heavy:1", true),
            ("force-overflow-light:1", false),
        ] {
            let (out, stats) = try_semisort_with_stats(&recs, &cfg(strategy, spec)).unwrap();
            assert_valid(&out, &recs);
            let cause = &stats.telemetry.retry_causes[0];
            assert_eq!(
                cause.heavy, want_heavy,
                "{strategy:?}/{spec}: overflow must land in the targeted class"
            );
        }
    }
}

#[test]
fn corrupt_sample_overflows_naturally_then_recovers() {
    // Decimating the sample 8× makes α·f(s) under-allocate every bucket —
    // a *natural* overflow through estimate/buckets/scatter, not a forced
    // report. The uncorrupted retry completes.
    let recs = mixed_workload(100_000);
    for strategy in ARENA_STRATEGIES {
        let (out, stats) =
            try_semisort_with_stats(&recs, &cfg(strategy, "corrupt-sample:1")).unwrap();
        assert_valid(&out, &recs);
        assert!(
            stats.retries >= 1,
            "{strategy:?}: an 8×-starved plan must overflow"
        );
        assert!(!stats.degraded, "{strategy:?}");
        assert!(
            !stats.telemetry.retry_causes.is_empty(),
            "{strategy:?}: the natural overflow must be diagnosed"
        );
    }
}

// ─────────────────────────── outcome 2: fallback ────────────────────────

#[test]
fn exhausted_retries_degrade_to_fallback() {
    let recs = mixed_workload(100_000);
    for strategy in ARENA_STRATEGIES {
        let base = cfg(strategy, "force-overflow:31");
        let (out, stats) = try_semisort_with_stats(&recs, &base).unwrap();
        assert_valid(&out, &recs);
        assert!(stats.degraded, "{strategy:?}");
        assert_eq!(stats.degrade_reason, Some(DegradeReason::RetriesExhausted));
        assert_eq!(stats.retries, base.max_retries + 1, "{strategy:?}");
        assert_eq!(
            stats.heavy_records, 0,
            "{strategy:?}: fallback is all-light"
        );
        assert_eq!(stats.light_records, recs.len(), "{strategy:?}");
        assert_eq!(
            stats.faults_injected,
            base.max_retries + 1,
            "{strategy:?}: one armed fault per attempt"
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
}

#[test]
fn alloc_failure_degrades_to_fallback() {
    let recs = mixed_workload(100_000);
    for strategy in ARENA_STRATEGIES {
        let (out, stats) = try_semisort_with_stats(&recs, &cfg(strategy, "fail-alloc:1")).unwrap();
        assert_valid(&out, &recs);
        assert!(stats.degraded, "{strategy:?}");
        assert_eq!(stats.degrade_reason, Some(DegradeReason::AllocFailed));
        assert_eq!(stats.light_records, recs.len());
    }
}

// ──────────────────────────── outcome 3: error ──────────────────────────

#[test]
fn exhausted_retries_error_policy() {
    let recs = mixed_workload(100_000);
    for strategy in ARENA_STRATEGIES {
        let c = SemisortConfig {
            overflow_policy: OverflowPolicy::Error,
            max_retries: 1,
            ..cfg(strategy, "force-overflow:31")
        };
        let err = try_semisort_with_stats(&recs, &c).unwrap_err();
        assert_eq!(err.kind(), "retries-exhausted", "{strategy:?}");
        match err {
            SemisortError::RetriesExhausted { attempts, alpha, n } => {
                assert_eq!(attempts, 2, "{strategy:?}: initial run + 1 retry");
                assert!(alpha > c.alpha, "{strategy:?}: α must have doubled");
                assert_eq!(n, recs.len());
            }
            other => panic!("{strategy:?}: wrong error {other:?}"),
        }
    }
}

#[test]
fn alloc_failure_error_policy() {
    let recs = mixed_workload(100_000);
    for strategy in ARENA_STRATEGIES {
        let c = SemisortConfig {
            overflow_policy: OverflowPolicy::Error,
            ..cfg(strategy, "fail-alloc:1")
        };
        let err = try_semisort_with_stats(&recs, &c).unwrap_err();
        match err {
            SemisortError::ArenaAllocFailed { bytes, attempt } => {
                assert_eq!(attempt, 0, "{strategy:?}");
                assert!(bytes > 0, "{strategy:?}");
            }
            other => panic!("{strategy:?}: wrong error {other:?}"),
        }
    }
}

// ───────────────────────── outcome 4: budget-clamp ──────────────────────

#[test]
fn tiny_arena_budget_degrades_immediately() {
    let recs = mixed_workload(100_000);
    for strategy in ARENA_STRATEGIES {
        let c = SemisortConfig {
            max_arena_bytes: 1024,
            ..cfg(strategy, "none")
        };
        let (out, stats) = try_semisort_with_stats(&recs, &c).unwrap();
        assert_valid(&out, &recs);
        assert!(stats.degraded, "{strategy:?}");
        assert_eq!(stats.degrade_reason, Some(DegradeReason::BudgetExceeded));
        assert_eq!(stats.retries, 0, "{strategy:?}: clamped before any retry");
    }
}

#[test]
fn arena_budget_clamps_alpha_doubling() {
    // With persistent forced overflows and a generous-but-finite budget,
    // the geometric α-doubling must hit the budget long before the retry
    // budget: the run ends in ArenaBudgetExceeded at some attempt ≥ 1, not
    // in RetriesExhausted at attempt 31.
    let recs = mixed_workload(100_000);
    for strategy in ARENA_STRATEGIES {
        let c = SemisortConfig {
            overflow_policy: OverflowPolicy::Error,
            max_retries: 30,
            max_arena_bytes: 8 << 20,
            ..cfg(strategy, "force-overflow:31")
        };
        let err = try_semisort_with_stats(&recs, &c).unwrap_err();
        match err {
            SemisortError::ArenaBudgetExceeded {
                required_bytes,
                budget_bytes,
                attempt,
            } => {
                assert!(required_bytes > budget_bytes, "{strategy:?}");
                assert_eq!(budget_bytes, 8 << 20);
                assert!(
                    (1..=30).contains(&attempt),
                    "{strategy:?}: doubling must burst an 8 MiB budget \
                     after a few retries, got attempt {attempt}"
                );
            }
            other => panic!("{strategy:?}: wrong error {other:?}"),
        }
    }
}

// ─────────────────────── counting: no ladder ────────────────────────────

#[test]
fn counting_ignores_arena_faults_and_budget() {
    // Under the Error policy any fault that fired would surface as `Err`;
    // the exact run must instead complete untouched on its first and
    // only pass.
    let recs = mixed_workload(100_000);
    let exact = |spec| cfg(ScatterStrategy::Counting, spec);
    let cases = [
        ("force-overflow:31", exact("force-overflow:31")),
        ("fail-alloc:1", exact("fail-alloc:1")),
        ("corrupt-sample:1", exact("corrupt-sample:1")),
        (
            "max_arena_bytes: 1024",
            exact("none").with_max_arena_bytes(1024),
        ),
    ];
    for (case, c) in cases {
        let c = c.with_overflow_policy(OverflowPolicy::Error);
        let (out, stats) = try_semisort_with_stats(&recs, &c).unwrap();
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
    for strategy in ARENA_STRATEGIES {
        let c = cfg(strategy, "force-overflow:2");
        let (out_a, stats_a) =
            parlay::with_threads(1, || try_semisort_with_stats(&recs, &c).unwrap());
        let (out_b, stats_b) =
            parlay::with_threads(1, || try_semisort_with_stats(&recs, &c).unwrap());
        assert_eq!(out_a, out_b, "{strategy:?}: same plan ⇒ same output");
        assert_eq!(stats_a.retries, stats_b.retries);
        assert_eq!(stats_a.retries, 2, "{strategy:?}");
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
        assert_eq!(
            buckets_a, buckets_b,
            "{strategy:?}: same overflow diagnosis"
        );
    }
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
    let (out, stats) = try_semisort_with_stats(&recs, &cfg).unwrap();
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

#[test]
fn reserved_key_fallback_is_quiet_and_correct() {
    // Keys colliding with the slot-vacancy sentinel (0) or the hash-table
    // sentinel (u64::MAX) take the screening fallback.
    for sentinel in [semisort::scatter::EMPTY, parlay::hash_table::EMPTY] {
        let cfg = SemisortConfig {
            telemetry: TelemetryLevel::Off,
            ..Default::default()
        };
        let mut recs: Vec<(u64, u64)> = (0..50_000u64).map(|i| (hash64(i % 100), i)).collect();
        recs[12_345].0 = sentinel;
        recs[23_456].0 = sentinel;
        let (out, stats) = try_semisort_with_stats(&recs, &cfg).unwrap();
        assert_valid(&out, &recs);
        assert_eq!(stats.light_records, recs.len(), "sentinel {sentinel:#x}");
        assert_eq!(stats.retries, 0);
        assert!(!stats.degraded);
        assert_eq!(stats.telemetry.cas_attempts, 0, "sentinel {sentinel:#x}");
        assert_eq!(stats.telemetry.records_placed, 0);
        assert!(stats.telemetry.retry_causes.is_empty());
    }
}
