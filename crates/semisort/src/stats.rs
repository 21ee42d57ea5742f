//! Per-phase instrumentation.
//!
//! The paper's Tables 2–3 and Figure 3 break the running time into five
//! phases: "sample and sort", "construct buckets", "scatter", "local sort"
//! and "pack". [`SemisortStats`] is the one record of a run: its phase
//! spans ([`SpanRecord`]s, whose per-name sums are that breakdown), the
//! structural counters (sample size, heavy keys, slot usage, retries) that
//! the consistency experiments in §5.2 report on, and the merged
//! [`Telemetry`] of the run (CAS attempts, probe-length histogram, retry
//! causes — see [`crate::obs`]). The `SEMISORT_LOG` lines
//! ([`crate::obs`]), the JSON below and the Chrome trace
//! ([`crate::trace`]) all render this record.
//!
//! # JSON schema (`semisort-stats-v2`)
//!
//! [`SemisortStats::to_json`] serializes one run as a single JSON object.
//! v2 is a strict superset of v1: it adds the `"spans"` array (epoch-based
//! phase span endpoints, see [`SpanRecord`]) and the `"scheduler"` section
//! (the work-stealing pool's activity during the run, diffed from
//! before/after [`rayon::trace::SchedulerStats`] snapshots — `null` when
//! no real pool ran, e.g. single-thread or Miri). Consumers that accepted
//! v1 keep working; `semisort-cli validate-json` accepts both spellings.
//! Runs that went through the `semisortd` service layer additionally fill
//! the `"service"` section (admission/shed/poison/drain counters, see
//! [`crate::obs::ServiceSnapshot`]); library runs leave it `null`.
//!
//! ```json
//! {
//!   "schema": "semisort-stats-v2",
//!   "n": 1000000,
//!   "config": {
//!     "sample_shift": 4, "heavy_threshold": 16, "light_bucket_log2": 16,
//!     "merge_light_buckets": true, "scatter_strategy": "random-cas",
//!     "seed": 42, "seq_threshold": 8192, "telemetry": "deep",
//!     "max_scratch_bytes": null, "fault": "none",
//!     // paper runs only (`scatter_strategy` "random-cas"):
//!     "alpha": 1.1, "c": 1.25, "probe_strategy": "linear",
//!     "local_sort_algo": "std-unstable",
//!     "prefetch_distance": 8, "max_retries": 3,
//!     "overflow_policy": "fallback", "max_arena_bytes": null
//!   },
//!   "phases": {
//!     "sample_sort_s": 0.01, "construct_buckets_s": 0.001,
//!     "scatter_s": 0.05, "local_sort_s": 0.02, "pack_s": 0.01,
//!     "total_s": 0.091
//!   },
//!   "counters": {
//!     "sample_size": 62500, "heavy_keys": 5, "light_buckets": 4096,
//!     "heavy_records": 500000, "light_records": 500000,
//!     "total_slots": 1300000, "retries": 0,
//!     "scratch_bytes_held": 20800000, "scratch_reuse_hits": 1,
//!     "scratch_grows": 0
//!   },
//!   "outcome": {
//!     "policy": "fallback", // null for engine runs
//!     "degraded": false, "reason": null, "faults_injected": 0
//!   },
//!   "telemetry": {
//!     "level": "deep", "cas_attempts": 1010000, "cas_failures": 10000,
//!     "records_placed": 1000000,
//!     "probe_hist": [990000, 8000, ...],       // 32 power-of-two buckets
//!     "light_occupancy_hist": [0, 12, ...],    // 32 power-of-two buckets
//!     "retry_causes": [
//!       {"attempt": 1, "bucket": 17, "heavy": false,
//!        "allocated": 64, "observed": 65}
//!     ]
//!   },
//!   "spans": [
//!     {"name": "sample_sort", "start_us": 120, "end_us": 10120,
//!      "worker": null}
//!   ],
//!   "scheduler": {
//!     "num_threads": 4, "injector_submissions": 1,
//!     "totals": {
//!       "pushes": 5000, "pops": 4200, "steals": 800,
//!       "steal_attempts": 9000, "parks": 40, "park_time_us": 20000,
//!       "inline_degrades": 0
//!     },
//!     "workers": [
//!       {"pushes": 1250, "pops": 1050, "inline_degrades": 0,
//!        "steal_attempts": 2250, "steal_retries": 3,
//!        "steals_from": [0, 120, 40, 40], "parks": 10,
//!        "park_time_us": 5000, "injector_pops": 1,
//!        "jobs_executed": 220, "events_total": 210}
//!     ]
//!   },
//!   "service": {
//!     "admitted": 1000, "completed": 990, "shed_overload": 8,
//!     "deadline_exceeded": 2, "cancelled": 0, "panics_contained": 1,
//!     "shards_rebuilt": 1, "drains": 1
//!   }
//! }
//! ```
//!
//! The `"scheduler"` section carries counters only; the individual ring
//! events stay in memory (on [`SemisortStats::scheduler`]) for the
//! Chrome-trace exporter ([`crate::trace`]) — serializing up to 1024
//! events per worker into every bench record would bloat the trajectory
//! file for no analytical gain (`events_total` is there for accounting).
//!
//! Histograms are arrays of [`crate::obs::HIST_BUCKETS`] counts; bucket 0
//! holds value 0, bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`. The
//! `config` member echoes the configuration the run *started* with. Its
//! `scatter_strategy` names the Phase 3 that ran: `"counting"` for the
//! engine's exact distribution, `"random-cas"` for a [`crate::paper`] run,
//! which alone adds the [`PaperConfig`] members (Las Vegas retries grow
//! `alpha` internally; `retries`/`retry_causes` record that). The bench harness wraps this object in a run record that adds
//! `git`, `ts_unix`, `bin`, `threads` and wall time — see
//! `bench::trajectory`.

use std::time::Duration;

use rayon::trace::SchedulerStats;

use crate::config::{LocalSortAlgo, PaperConfig, ProbeStrategy, SemisortConfig};
use crate::error::DegradeReason;
use crate::json::Json;
use crate::obs::{ServiceSnapshot, SpanRecord, Telemetry};

/// Timing and structural telemetry for one semisort run.
#[derive(Clone, Debug, Default)]
pub struct SemisortStats {
    /// Input size n.
    pub n: usize,
    /// Size of the sample |S|.
    pub sample_size: usize,
    /// Number of heavy keys (buckets).
    pub heavy_keys: usize,
    /// Number of light buckets after merging.
    pub light_buckets: usize,
    /// Records routed to heavy buckets.
    pub heavy_records: usize,
    /// Records not routed to heavy buckets (light buckets, or the sort
    /// fallback's output). `heavy_records + light_records == n` always.
    pub light_records: usize,
    /// Total slots allocated (Lemma 3.5 says the expected total is Θ(n)):
    /// `n` for the engine's exact regions, the arena size for a paper run.
    pub total_slots: usize,
    /// Las Vegas restarts a paper run needed (almost always 0; always 0 for
    /// the engine).
    pub retries: u32,
    /// Always 0: counted the flushes of a block-buffered scatter that no
    /// strategy runs any more. Kept (and left out of the JSON) only so
    /// existing readers of this field still compile.
    pub blocks_flushed: usize,
    /// Always 0, as [`Self::blocks_flushed`] (an in-place scatter's claims).
    pub inplace_cycles: usize,
    /// Always 0, as [`Self::blocks_flushed`] (an in-place scatter's swap
    /// buffer flushes).
    pub swap_buffer_flushes: usize,
    /// Bytes of scratch the [`ScratchPool`](crate::pool::ScratchPool)
    /// retains after this call (post `max_scratch_bytes` enforcement).
    /// One-shot entry points drop the pool on return, so this reports what
    /// *was* held; engine calls report what stays warm for the next call.
    pub scratch_bytes_held: usize,
    /// 1 when this call's scratch fit in already-held pool memory, so the
    /// pool's held bytes did not rise. On every engine call exactly one of
    /// this and [`Self::scratch_grows`] is 1; a paper run keeps no pool and
    /// leaves both 0.
    pub scratch_reuse_hits: u32,
    /// 1 when this call raised the pool's held bytes (measured before the
    /// `max_scratch_bytes` budget is applied). First call on an engine: 1;
    /// steady state at the high-water mark: 0.
    pub scratch_grows: u32,
    /// Whether a paper run degraded to the comparison-sort fallback because
    /// the Las Vegas machinery gave up (retries exhausted, arena budget
    /// exceeded, or allocation failed) under
    /// [`OverflowPolicy::Fallback`](crate::config::OverflowPolicy::Fallback).
    /// The by-construction fallbacks
    /// (`seq_threshold`-sized inputs; in a paper run, inputs holding its
    /// slot sentinel key 0) do **not** set this: they are routing, not
    /// failure.
    pub degraded: bool,
    /// Why the run degraded (`None` unless `degraded`).
    pub degrade_reason: Option<DegradeReason>,
    /// Faults the run's [`crate::fault::FaultPlan`] armed across all
    /// attempts (0 in production).
    pub faults_injected: u32,
    /// The configuration the run started with (echoed into the JSON export
    /// so a stats file is self-describing); a paper run's `base`.
    pub config: SemisortConfig,
    /// The whole configuration of a [`crate::paper`] run; `None` for engine
    /// runs, which have no scatter knobs to echo.
    pub paper: Option<PaperConfig>,
    /// Merged fine-grained telemetry (empty when the run's
    /// [`crate::obs::TelemetryLevel`] was `Off`, except `retry_causes`).
    pub telemetry: Telemetry,
    /// Finished phase spans with epoch-relative endpoints, in completion
    /// order across all attempts (a Las Vegas retry appends a second
    /// `sample_sort`…`scatter` group). The run's only timing record:
    /// [`Self::phases`] sums them by name, and the Chrome-trace exporter
    /// lays them on the timeline.
    pub spans: Vec<SpanRecord>,
    /// What the work-stealing pool did during this run: the delta between
    /// scheduler snapshots taken around the run. `None`
    /// when no real pool ran (single-thread path or Miri).
    pub scheduler: Option<SchedulerStats>,
    /// Service-layer counters (`semisortd`): admission/shed/poison/drain
    /// tallies snapshot at report time. `None` (`null` in the JSON) for
    /// library runs that never went through a server.
    pub service: Option<ServiceSnapshot>,
}

/// The five phases in table order: paper-table label and span name. The
/// stats JSON names each phase's time `<span name>_s`.
const PHASES: [(&str, &str); 5] = [
    ("sample and sort", "sample_sort"),
    ("construct buckets", "construct_buckets"),
    ("scatter", "scatter"),
    ("local sort", "local_sort"),
    ("pack", "pack"),
];

impl SemisortStats {
    /// Total wall time across the five phases.
    pub fn total(&self) -> Duration {
        self.phases().iter().map(|p| p.1).sum()
    }

    /// Percentage of input records routed to heavy buckets — the
    /// "% Heavy key records" row of Table 1 / Figure 1.
    pub fn heavy_fraction_pct(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            100.0 * self.heavy_records as f64 / self.n as f64
        }
    }

    /// Slot-array blowup factor (allocated slots / n); Lemma 3.5 bounds its
    /// expectation by a constant.
    pub fn space_blowup(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total_slots as f64 / self.n as f64
        }
    }

    /// The Phase 3 that ran, by its CLI and stats-JSON spelling:
    /// `"random-cas"` for a [`crate::paper`] run, else `"counting"` (the
    /// engine's exact distribution).
    pub fn scatter_strategy(&self) -> &'static str {
        if self.paper.is_some() {
            "random-cas"
        } else {
            "counting"
        }
    }

    /// The five phase durations with their paper-table labels, in table
    /// order. Each is the sum of the run's spans of that phase, so a paper
    /// run that retried also counts the time of its failed attempts.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        PHASES.map(|(label, span)| (label, self.span_time(span)))
    }

    /// Summed duration of the spans named `name`.
    pub fn span_time(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::duration)
            .sum()
    }

    /// Serialize this run as a [`Json`] object following the
    /// `semisort-stats-v2` schema documented at the top of this module.
    pub fn to_json(&self) -> Json {
        let cfg = &self.config;
        let bytes_or_null = |b: usize| {
            if b == usize::MAX {
                Json::Null
            } else {
                Json::num(b as u64)
            }
        };
        let mut config = vec![
            ("sample_shift".into(), Json::num(cfg.sample_shift as u64)),
            (
                "heavy_threshold".into(),
                Json::num(cfg.heavy_threshold as u64),
            ),
            (
                "light_bucket_log2".into(),
                Json::num(cfg.light_bucket_log2 as u64),
            ),
            (
                "merge_light_buckets".into(),
                Json::Bool(cfg.merge_light_buckets),
            ),
            (
                "scatter_strategy".into(),
                Json::str(self.scatter_strategy()),
            ),
            ("seed".into(), Json::num(cfg.seed)),
            ("seq_threshold".into(), Json::num(cfg.seq_threshold as u64)),
            ("telemetry".into(), Json::str(cfg.telemetry.as_str())),
            (
                "max_scratch_bytes".into(),
                bytes_or_null(cfg.max_scratch_bytes),
            ),
            ("fault".into(), Json::Str(cfg.fault.spec())),
        ];
        if let Some(p) = &self.paper {
            config.extend([
                ("alpha".into(), Json::Num(p.alpha)),
                ("c".into(), Json::Num(p.c)),
                (
                    "probe_strategy".into(),
                    Json::str(match p.probe_strategy {
                        ProbeStrategy::Linear => "linear",
                        ProbeStrategy::Random => "random",
                    }),
                ),
                (
                    "local_sort_algo".into(),
                    Json::str(match p.local_sort_algo {
                        LocalSortAlgo::StdUnstable => "std-unstable",
                        LocalSortAlgo::Counting => "counting",
                        LocalSortAlgo::StdStable => "std-stable",
                    }),
                ),
                (
                    "prefetch_distance".into(),
                    Json::num(p.prefetch_distance as u64),
                ),
                ("max_retries".into(), Json::num(p.max_retries as u64)),
                (
                    "overflow_policy".into(),
                    Json::str(p.overflow_policy.as_str()),
                ),
                ("max_arena_bytes".into(), bytes_or_null(p.max_arena_bytes)),
            ]);
        }
        let config = Json::Obj(config);
        let mut phases: Vec<(String, Json)> = PHASES
            .iter()
            .map(|&(_, span)| {
                let secs = self.span_time(span).as_secs_f64();
                (format!("{span}_s"), Json::Num(secs))
            })
            .collect();
        phases.push(("total_s".into(), Json::Num(self.total().as_secs_f64())));
        let phases = Json::Obj(phases);
        let counters = Json::Obj(vec![
            ("sample_size".into(), Json::num(self.sample_size as u64)),
            ("heavy_keys".into(), Json::num(self.heavy_keys as u64)),
            ("light_buckets".into(), Json::num(self.light_buckets as u64)),
            ("heavy_records".into(), Json::num(self.heavy_records as u64)),
            ("light_records".into(), Json::num(self.light_records as u64)),
            ("total_slots".into(), Json::num(self.total_slots as u64)),
            ("retries".into(), Json::num(self.retries as u64)),
            (
                "scratch_bytes_held".into(),
                Json::num(self.scratch_bytes_held as u64),
            ),
            (
                "scratch_reuse_hits".into(),
                Json::num(self.scratch_reuse_hits as u64),
            ),
            ("scratch_grows".into(), Json::num(self.scratch_grows as u64)),
        ]);
        let hist_json =
            |h: &crate::obs::Hist| Json::Arr(h.buckets.iter().map(|&b| Json::num(b)).collect());
        let t = &self.telemetry;
        let telemetry = Json::Obj(vec![
            ("level".into(), Json::str(t.level.as_str())),
            ("cas_attempts".into(), Json::num(t.cas_attempts)),
            ("cas_failures".into(), Json::num(t.cas_failures)),
            ("records_placed".into(), Json::num(t.records_placed)),
            ("probe_hist".into(), hist_json(&t.probe_hist)),
            (
                "light_occupancy_hist".into(),
                hist_json(&t.light_occupancy_hist),
            ),
            (
                "retry_causes".into(),
                Json::Arr(
                    t.retry_causes
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("attempt".into(), Json::num(r.attempt as u64)),
                                ("bucket".into(), Json::num(r.bucket as u64)),
                                ("heavy".into(), Json::Bool(r.heavy)),
                                ("allocated".into(), Json::num(r.allocated as u64)),
                                ("observed".into(), Json::num(r.observed as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let outcome = Json::Obj(vec![
            (
                "policy".into(),
                match &self.paper {
                    Some(p) => Json::str(p.overflow_policy.as_str()),
                    None => Json::Null,
                },
            ),
            ("degraded".into(), Json::Bool(self.degraded)),
            (
                "reason".into(),
                match self.degrade_reason {
                    Some(r) => Json::str(r.as_str()),
                    None => Json::Null,
                },
            ),
            (
                "faults_injected".into(),
                Json::num(self.faults_injected as u64),
            ),
        ]);
        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(s.name)),
                        ("start_us".into(), Json::num(s.start_us)),
                        ("end_us".into(), Json::num(s.end_us)),
                        (
                            "worker".into(),
                            match s.worker {
                                Some(w) => Json::num(w as u64),
                                None => Json::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        );
        let scheduler = match &self.scheduler {
            Some(s) => scheduler_json(s),
            None => Json::Null,
        };
        let service = match &self.service {
            Some(s) => service_json(s),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("schema".into(), Json::str("semisort-stats-v2")),
            ("n".into(), Json::num(self.n as u64)),
            ("config".into(), config),
            ("phases".into(), phases),
            ("counters".into(), counters),
            ("outcome".into(), outcome),
            ("telemetry".into(), telemetry),
            ("spans".into(), spans),
            ("scheduler".into(), scheduler),
            ("service".into(), service),
        ])
    }
}

/// The `"service"` section: the `semisortd` degradation-ladder tallies
/// (`null` for library runs; see [`ServiceSnapshot`]).
fn service_json(s: &ServiceSnapshot) -> Json {
    Json::Obj(vec![
        ("admitted".into(), Json::num(s.admitted)),
        ("completed".into(), Json::num(s.completed)),
        ("shed_overload".into(), Json::num(s.shed_overload)),
        ("deadline_exceeded".into(), Json::num(s.deadline_exceeded)),
        ("cancelled".into(), Json::num(s.cancelled)),
        ("panics_contained".into(), Json::num(s.panics_contained)),
        ("shards_rebuilt".into(), Json::num(s.shards_rebuilt)),
        ("drains".into(), Json::num(s.drains)),
    ])
}

/// The `"scheduler"` section: counters only (ring events stay in memory
/// for the trace exporter; see the module docs).
fn scheduler_json(s: &SchedulerStats) -> Json {
    let totals = Json::Obj(vec![
        ("pushes".into(), Json::num(s.total_pushes())),
        ("pops".into(), Json::num(s.total_pops())),
        ("steals".into(), Json::num(s.total_steals())),
        ("steal_attempts".into(), Json::num(s.total_steal_attempts())),
        ("parks".into(), Json::num(s.total_parks())),
        ("park_time_us".into(), Json::num(s.total_park_time_us())),
        (
            "inline_degrades".into(),
            Json::num(s.total_inline_degrades()),
        ),
    ]);
    let workers = Json::Arr(
        s.workers
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("pushes".into(), Json::num(w.pushes)),
                    ("pops".into(), Json::num(w.pops)),
                    ("inline_degrades".into(), Json::num(w.inline_degrades)),
                    ("steal_attempts".into(), Json::num(w.steal_attempts)),
                    ("steal_retries".into(), Json::num(w.steal_retries)),
                    (
                        "steals_from".into(),
                        Json::Arr(w.steals_from.iter().map(|&v| Json::num(v)).collect()),
                    ),
                    ("parks".into(), Json::num(w.parks)),
                    ("park_time_us".into(), Json::num(w.park_time_us)),
                    ("injector_pops".into(), Json::num(w.injector_pops)),
                    ("jobs_executed".into(), Json::num(w.jobs_executed)),
                    ("events_total".into(), Json::num(w.events_total)),
                ])
            })
            .collect(),
    );
    Json::Obj(vec![
        ("num_threads".into(), Json::num(s.num_threads as u64)),
        (
            "injector_submissions".into(),
            Json::num(s.injector_submissions),
        ),
        ("totals".into(), totals),
        ("workers".into(), workers),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord {
            name,
            start_us,
            end_us,
            worker: None,
        }
    }

    #[test]
    fn total_sums_phases() {
        let s = SemisortStats {
            spans: vec![
                span("sample_sort", 0, 1000),
                span("construct_buckets", 1000, 3000),
                span("scatter", 3000, 6000),
                span("sample_sort", 6000, 7000),
                span("scatter", 7000, 10_000),
                span("local_sort", 10_000, 14_000),
                span("pack", 14_000, 19_000),
            ],
            ..Default::default()
        };
        let phases = s.phases();
        assert_eq!(phases[0].1, Duration::from_millis(2), "both attempts");
        assert_eq!(phases[2].1, Duration::from_millis(6), "both attempts");
        assert_eq!(s.span_time("scatter"), Duration::from_millis(6));
        assert_eq!(s.total(), Duration::from_millis(19));
    }

    #[test]
    fn default_counters_are_zero() {
        let s = SemisortStats::default();
        assert_eq!(s.light_records, 0);
        assert_eq!(s.blocks_flushed, 0);
        assert_eq!(s.inplace_cycles, 0);
        assert_eq!(s.swap_buffer_flushes, 0);
    }

    #[test]
    fn heavy_fraction_edge_cases() {
        let mut s = SemisortStats::default();
        assert_eq!(s.heavy_fraction_pct(), 0.0);
        s.n = 200;
        s.heavy_records = 50;
        assert!((s.heavy_fraction_pct() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn to_json_has_all_schema_sections() {
        let s = SemisortStats {
            n: 10,
            spans: vec![span("scatter", 100, 3100)],
            heavy_records: 4,
            light_records: 6,
            ..Default::default()
        };
        let j = s.to_json();
        let text = j.to_string();
        let back = Json::parse(&text).expect("self-parse");
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("semisort-stats-v2")
        );
        for section in [
            "config",
            "phases",
            "counters",
            "outcome",
            "telemetry",
            "spans",
            "scheduler",
            "service",
        ] {
            assert!(back.get(section).is_some(), "missing {section}");
        }
        // No pool ran for this synthetic stats object, and it never went
        // through a server.
        assert_eq!(back.get("scheduler"), Some(&Json::Null));
        assert_eq!(back.get("service"), Some(&Json::Null));
        let phases = back.get("phases").unwrap();
        for key in [
            "sample_sort_s",
            "construct_buckets_s",
            "scatter_s",
            "local_sort_s",
            "pack_s",
        ] {
            assert!(phases.get(key).is_some(), "missing phase {key}");
        }
        assert_eq!(phases.get("scatter_s").and_then(Json::as_f64), Some(0.003));
    }

    #[test]
    fn outcome_section_reflects_degradation() {
        let clean = SemisortStats::default().to_json().to_string();
        let clean = Json::parse(&clean).unwrap();
        let outcome = clean.get("outcome").expect("outcome section");
        assert_eq!(outcome.get("degraded"), Some(&Json::Bool(false)));
        assert_eq!(outcome.get("reason"), Some(&Json::Null));
        assert_eq!(
            outcome.get("policy"),
            Some(&Json::Null),
            "an engine run has no overflow policy"
        );

        let degraded = SemisortStats {
            degraded: true,
            degrade_reason: Some(DegradeReason::RetriesExhausted),
            faults_injected: 2,
            paper: Some(PaperConfig::default()),
            ..Default::default()
        }
        .to_json()
        .to_string();
        let degraded = Json::parse(&degraded).unwrap();
        let outcome = degraded.get("outcome").unwrap();
        assert_eq!(
            outcome.get("policy").and_then(Json::as_str),
            Some("fallback")
        );
        assert_eq!(outcome.get("degraded"), Some(&Json::Bool(true)));
        assert_eq!(
            outcome.get("reason").and_then(Json::as_str),
            Some("retries-exhausted")
        );
        assert_eq!(
            outcome.get("faults_injected").and_then(Json::as_f64),
            Some(2.0)
        );
        let cfg = degraded.get("config").unwrap();
        assert_eq!(cfg.get("max_arena_bytes"), Some(&Json::Null));
        assert_eq!(cfg.get("fault").and_then(Json::as_str), Some("none"));
    }

    #[test]
    fn scatter_strategy_names_the_path_that_ran() {
        let recs: Vec<(u64, u64)> = (0..20_000u64)
            .map(|i| (parlay::hash64(i % 300), i))
            .collect();
        let (_, engine) =
            crate::driver::try_semisort_with_stats(&recs, &SemisortConfig::default()).unwrap();
        let paper_cfg = PaperConfig {
            max_arena_bytes: 1 << 30,
            ..Default::default()
        };
        let (_, paper) = crate::paper::try_semisort_with_stats(&recs, &paper_cfg).unwrap();
        let paper_members = [
            "alpha",
            "c",
            "probe_strategy",
            "local_sort_algo",
            "prefetch_distance",
            "max_retries",
            "overflow_policy",
            "max_arena_bytes",
        ];
        for (stats, strategy) in [(&engine, "counting"), (&paper, "random-cas")] {
            let back = Json::parse(&stats.to_json().to_string()).expect("self-parse");
            assert_eq!(
                back.get("schema").and_then(Json::as_str),
                Some("semisort-stats-v2")
            );
            let cfg = back.get("config").unwrap();
            assert_eq!(
                cfg.get("scatter_strategy").and_then(Json::as_str),
                Some(strategy)
            );
            for member in paper_members {
                assert_eq!(
                    cfg.get(member).is_some(),
                    strategy == "random-cas",
                    "{strategy}: {member}"
                );
            }
        }
        let back = Json::parse(&paper.to_json().to_string()).unwrap();
        let cfg = back.get("config").unwrap();
        assert_eq!(cfg.get("alpha").and_then(Json::as_f64), Some(1.1));
        assert_eq!(cfg.get("c").and_then(Json::as_f64), Some(1.25));
        assert_eq!(
            cfg.get("probe_strategy").and_then(Json::as_str),
            Some("linear")
        );
        assert_eq!(
            cfg.get("local_sort_algo").and_then(Json::as_str),
            Some("std-unstable")
        );
        assert_eq!(cfg.get("max_retries").and_then(Json::as_u64), Some(3));
        assert_eq!(
            cfg.get("overflow_policy").and_then(Json::as_str),
            Some("fallback")
        );
        assert_eq!(
            cfg.get("max_arena_bytes").and_then(Json::as_u64),
            Some(1 << 30)
        );
    }

    #[test]
    fn scheduler_and_spans_serialize_when_present() {
        use rayon::trace::WorkerStats;
        let mut w0 = WorkerStats {
            pushes: 10,
            pops: 7,
            steal_attempts: 5,
            steals_from: vec![0, 0],
            parks: 2,
            park_time_us: 900,
            ..Default::default()
        };
        w0.steals_from = vec![0, 3];
        let s = SemisortStats {
            n: 10,
            spans: vec![SpanRecord {
                worker: Some(1),
                ..span("scatter", 100, 350)
            }],
            scheduler: Some(SchedulerStats {
                num_threads: 2,
                injector_submissions: 1,
                workers: vec![w0, WorkerStats::default()],
            }),
            ..Default::default()
        };
        let back = Json::parse(&s.to_json().to_string()).expect("self-parse");
        let spans = back.get("spans").and_then(Json::as_arr).unwrap();
        let span = &spans[0];
        assert_eq!(span.get("name").and_then(Json::as_str), Some("scatter"));
        assert_eq!(span.get("start_us").and_then(Json::as_u64), Some(100));
        assert_eq!(span.get("worker").and_then(Json::as_u64), Some(1));
        let sched = back.get("scheduler").unwrap();
        assert_eq!(sched.get("num_threads").and_then(Json::as_u64), Some(2));
        let totals = sched.get("totals").unwrap();
        assert_eq!(totals.get("steals").and_then(Json::as_u64), Some(3));
        assert_eq!(totals.get("pushes").and_then(Json::as_u64), Some(10));
        assert_eq!(totals.get("park_time_us").and_then(Json::as_u64), Some(900));
        let workers = sched.get("workers").and_then(Json::as_arr).unwrap();
        let w = &workers[0];
        assert_eq!(w.get("pops").and_then(Json::as_u64), Some(7));
        let steals_from = w.get("steals_from").and_then(Json::as_arr).unwrap();
        assert_eq!(steals_from[1].as_u64(), Some(3));
    }

    #[test]
    fn service_section_serializes_when_present() {
        let s = SemisortStats {
            service: Some(ServiceSnapshot {
                admitted: 100,
                completed: 93,
                shed_overload: 4,
                deadline_exceeded: 2,
                cancelled: 1,
                panics_contained: 3,
                shards_rebuilt: 3,
                drains: 1,
            }),
            ..Default::default()
        };
        let back = Json::parse(&s.to_json().to_string()).expect("self-parse");
        let svc = back.get("service").expect("service section");
        assert_eq!(svc.get("admitted").and_then(Json::as_u64), Some(100));
        assert_eq!(svc.get("completed").and_then(Json::as_u64), Some(93));
        assert_eq!(svc.get("shed_overload").and_then(Json::as_u64), Some(4));
        assert_eq!(svc.get("deadline_exceeded").and_then(Json::as_u64), Some(2));
        assert_eq!(svc.get("cancelled").and_then(Json::as_u64), Some(1));
        assert_eq!(svc.get("panics_contained").and_then(Json::as_u64), Some(3));
        assert_eq!(svc.get("shards_rebuilt").and_then(Json::as_u64), Some(3));
        assert_eq!(svc.get("drains").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn phases_are_in_paper_order() {
        let s = SemisortStats::default();
        let names: Vec<&str> = s.phases().iter().map(|p| p.0).collect();
        assert_eq!(
            names,
            vec![
                "sample and sort",
                "construct buckets",
                "scatter",
                "local sort",
                "pack"
            ]
        );
    }
}
