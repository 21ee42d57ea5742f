//! Telemetry and JSON-export integration tests: schema round-trips through
//! the in-tree JSON reader, counter invariants hold for the engine's exact
//! distribution and the paper's CAS scatter at every telemetry level, and
//! `TelemetryLevel::Off` is inert — identical output, all telemetry fields
//! at their defaults.

use parlay::hash64;
use semisort::{
    paper, try_semisort_with_stats, Json, PaperConfig, SemisortConfig, SemisortStats,
    TelemetryLevel,
};

fn workload(n: u64) -> Vec<(u64, u64)> {
    // Half heavy (10 hot keys), half light — exercises both bucket kinds.
    (0..n)
        .map(|i| {
            let k = if i % 2 == 0 { i % 10 } else { 1_000_000 + i };
            (hash64(k), i)
        })
        .collect()
}

/// Semisort `records` with `base` through the Phase 3 named by its
/// stats-JSON spelling: the engine's exact distribution (`counting`) or a
/// paper run's CAS scatter (`random-cas`).
fn run_with(
    records: &[(u64, u64)],
    strategy: &str,
    base: SemisortConfig,
) -> (Vec<(u64, u64)>, SemisortStats) {
    match strategy {
        "counting" => try_semisort_with_stats(records, &base).unwrap(),
        _ => paper::try_semisort_with_stats(records, &PaperConfig::new(base)).unwrap(),
    }
}

fn run(n: u64, strategy: &str, level: TelemetryLevel) -> SemisortStats {
    let base = SemisortConfig {
        telemetry: level,
        ..Default::default()
    };
    let (out, stats) = run_with(&workload(n), strategy, base);
    assert!(semisort::verify::is_semisorted_by(&out, |r| r.0));
    assert_eq!(out.len(), n as usize);
    stats
}

const ALL_STRATEGIES: [&str; 2] = ["counting", "random-cas"];
const ALL_LEVELS: [TelemetryLevel; 3] = [
    TelemetryLevel::Off,
    TelemetryLevel::Counters,
    TelemetryLevel::Deep,
];

#[test]
fn counter_invariants_across_strategies_and_levels() {
    let n = 100_000u64;
    for strategy in ALL_STRATEGIES {
        for level in ALL_LEVELS {
            let stats = run(n, strategy, level);
            assert_eq!(
                stats.heavy_records + stats.light_records,
                n as usize,
                "{strategy:?}/{level:?}: heavy + light must cover every record"
            );
            assert_eq!(
                stats.total(),
                stats.t_sample_sort
                    + stats.t_construct_buckets
                    + stats.t_scatter
                    + stats.t_local_sort
                    + stats.t_pack,
                "{strategy:?}/{level:?}: total() must sum the five phases"
            );
            assert_eq!(stats.telemetry.level, level);
            if level.counters() {
                // Every record is placed by an instrumented path, with no
                // retries the counts are exact.
                assert_eq!(
                    stats.telemetry.records_placed, n,
                    "{strategy:?}/{level:?}: every record placement is counted"
                );
                assert!(
                    stats.telemetry.cas_attempts >= stats.telemetry.cas_failures,
                    "{strategy:?}/{level:?}: failures are a subset of attempts"
                );
            }
            if level.deep() {
                if strategy == "random-cas" {
                    assert_eq!(
                        stats.telemetry.probe_hist.count(),
                        n,
                        "deep CAS scatter records one probe length per record"
                    );
                }
                assert_eq!(
                    stats.telemetry.light_occupancy_hist.count(),
                    stats.light_buckets as u64,
                    "deep run records one occupancy sample per light bucket"
                );
            } else {
                assert!(stats.telemetry.probe_hist.is_empty());
                assert!(stats.telemetry.light_occupancy_hist.is_empty());
            }
        }
    }
}

#[test]
fn json_round_trips_for_all_variants() {
    for strategy in ALL_STRATEGIES {
        for level in ALL_LEVELS {
            let stats = run(50_000, strategy, level);
            let text = stats.to_json().to_string();
            let back = Json::parse(&text)
                .unwrap_or_else(|e| panic!("{strategy:?}/{level:?}: parse failed: {e}"));

            assert_eq!(
                back.get("schema").and_then(Json::as_str),
                Some("semisort-stats-v2")
            );
            assert_eq!(back.get("n").and_then(Json::as_u64), Some(50_000));
            let phases = back.get("phases").expect("phases section");
            for key in [
                "sample_sort_s",
                "construct_buckets_s",
                "scatter_s",
                "local_sort_s",
                "pack_s",
            ] {
                let v = phases.get(key).and_then(Json::as_f64);
                assert!(
                    v.is_some_and(|v| v >= 0.0),
                    "phase {key} must be a non-negative number, got {v:?}"
                );
            }
            // total_s equals the sum of the five phases (within float noise).
            let sum: f64 = [
                "sample_sort_s",
                "construct_buckets_s",
                "scatter_s",
                "local_sort_s",
                "pack_s",
            ]
            .iter()
            .map(|k| phases.get(k).and_then(Json::as_f64).unwrap())
            .sum();
            let total = phases.get("total_s").and_then(Json::as_f64).unwrap();
            assert!((total - sum).abs() < 1e-9, "total_s {total} != sum {sum}");

            let counters = back.get("counters").expect("counters section");
            let heavy = counters
                .get("heavy_records")
                .and_then(Json::as_u64)
                .unwrap();
            let light = counters
                .get("light_records")
                .and_then(Json::as_u64)
                .unwrap();
            assert_eq!(heavy + light, 50_000);

            let config = back.get("config").expect("config section");
            assert_eq!(
                config.get("scatter_strategy").and_then(Json::as_str),
                Some(strategy)
            );
            assert_eq!(
                config.get("telemetry").and_then(Json::as_str),
                Some(level.as_str())
            );

            let telemetry = back.get("telemetry").expect("telemetry section");
            assert_eq!(
                telemetry.get("level").and_then(Json::as_str),
                Some(level.as_str())
            );
            let hist = telemetry
                .get("probe_hist")
                .and_then(Json::as_arr)
                .expect("probe_hist array");
            assert_eq!(hist.len(), semisort::obs::HIST_BUCKETS);
        }
    }
}

#[test]
fn telemetry_off_matches_deep_output_and_stays_default() {
    // Off and Deep must produce byte-identical outputs (single-threaded to
    // exclude CAS-race nondeterminism), and Off must leave every gated
    // telemetry field at its default.
    let n = 1_000_000u64;
    let records = workload(n);
    for strategy in ALL_STRATEGIES {
        let run_at = |level: TelemetryLevel| {
            let base = SemisortConfig {
                telemetry: level,
                ..Default::default()
            };
            parlay::with_threads(1, || run_with(&records, strategy, base))
        };
        let (out_off, stats_off) = run_at(TelemetryLevel::Off);
        let (out_deep, _) = run_at(TelemetryLevel::Deep);
        assert_eq!(
            out_off, out_deep,
            "{strategy:?}: telemetry must not change the output"
        );
        assert_eq!(stats_off.telemetry.cas_attempts, 0);
        assert_eq!(stats_off.telemetry.cas_failures, 0);
        assert_eq!(stats_off.telemetry.records_placed, 0);
        assert!(stats_off.telemetry.probe_hist.is_empty());
        assert!(stats_off.telemetry.light_occupancy_hist.is_empty());
        assert!(stats_off.telemetry.retry_causes.is_empty());
    }
}

#[test]
fn retry_causes_recorded_at_every_level_under_tight_alpha() {
    // α barely above 1 forces the paper run's buckets to overflow; the
    // retry causes must be captured even at TelemetryLevel::Off (cold-path
    // recording).
    let records: Vec<(u64, u64)> = (0..100_000u64).map(|i| (hash64(i), i)).collect();
    for level in [TelemetryLevel::Off, TelemetryLevel::Deep] {
        let cfg = PaperConfig {
            alpha: 1.01,
            ..PaperConfig::new(SemisortConfig {
                telemetry: level,
                ..Default::default()
            })
        };
        let (out, stats) = paper::try_semisort_with_stats(&records, &cfg).unwrap();
        assert!(semisort::verify::is_semisorted_by(&out, |r| r.0));
        if stats.retries == 0 {
            // The tight α got lucky this seed; nothing to check.
            continue;
        }
        assert_eq!(
            stats.telemetry.retry_causes.len(),
            stats.retries as usize,
            "{level:?}: one cause per retry"
        );
        for (i, rc) in stats.telemetry.retry_causes.iter().enumerate() {
            assert_eq!(rc.attempt, i as u32 + 1, "causes are in attempt order");
            assert!(rc.allocated > 0);
            assert!(
                rc.observed > rc.allocated,
                "observed {} must exceed allocation {}",
                rc.observed,
                rc.allocated
            );
        }
    }
}

#[test]
fn config_echoed_into_stats() {
    let cfg = SemisortConfig {
        heavy_threshold: 8,
        telemetry: TelemetryLevel::Counters,
        ..SemisortConfig::default().with_seed(777)
    };
    let (_, stats) = try_semisort_with_stats(&workload(30_000), &cfg).unwrap();
    assert_eq!(stats.config.heavy_threshold, 8);
    assert_eq!(stats.config.seed, 777);
    assert_eq!(stats.config.telemetry, TelemetryLevel::Counters);
    // Fallback paths (tiny input) echo the config too.
    let (_, small) = try_semisort_with_stats(&workload(100), &cfg).unwrap();
    assert_eq!(small.config.seed, 777);
    assert_eq!(small.n, 100);
}

#[test]
fn deep_probe_hist_mass_sits_low_for_uniform_input() {
    // With α = 1.1 slack and uniform keys most records land within a few
    // probes; the histogram must reflect that (≥90% in buckets 0–2, i.e.
    // probe lengths 0–3).
    let records: Vec<(u64, u64)> = (0..200_000u64).map(|i| (hash64(i), i)).collect();
    let cfg = PaperConfig::new(SemisortConfig::default().with_telemetry(TelemetryLevel::Deep));
    let (_, stats) = paper::try_semisort_with_stats(&records, &cfg).unwrap();
    let h = &stats.telemetry.probe_hist;
    let low: u64 = h.buckets[..3].iter().sum();
    assert!(
        low * 10 >= h.count() * 9,
        "expected ≥90% of probe lengths ≤ 3, got {low}/{}",
        h.count()
    );
}
