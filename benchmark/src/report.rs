//! Metric names, units and the printed report.
//!
//! Every workload reports the same metrics, so a run of any workload can be
//! compared against the same bounds. [`END_TO_END`] and [`PER_LAYER`] are
//! the lists `BENCHMARK.json` declares (a test keeps the two in step);
//! values that exist only on some workloads are printed as notes.

use semisort::Json;

/// End-to-end metrics: `(name, unit)`, reported by every untraced run.
/// The `_ref` metrics are ratios to the interleaved reference sort (see
/// [`crate::reference`]); their values in seconds are printed as notes.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ref", "ratio"),
    ("latency_p50_ref", "ratio"),
    ("latency_tail_ref", "ratio"),
    ("mem_peak_bytes", "bytes"),
];

/// Per-layer metrics: `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("phase.sample_s", "s"),
    ("phase.buckets_s", "s"),
    ("phase.scatter_s", "s"),
    ("phase.local_sort_s", "s"),
    ("phase.pack_s", "s"),
    ("engine.other_s", "s"),
    ("buckets.heavy_keys", "count"),
    ("buckets.light_buckets", "count"),
    ("buckets.slots_per_record", "ratio"),
    ("buckets.heavy_share", "ratio"),
    ("scatter.attempts_per_record", "ratio"),
    ("scatter.cas_useful_ratio", "ratio"),
    ("scatter.cycles", "count"),
    ("scatter.flushes", "count"),
    ("pool.scratch_bytes", "bytes"),
    ("pool.grows_per_call", "count"),
    ("pool.alloc_bytes_per_call", "bytes"),
    ("sched.steals", "count"),
    ("sched.steal_attempts", "count"),
    ("sched.parks", "count"),
    ("sched.park_s", "s"),
    ("sched.speedup_2t", "ratio"),
    ("floor.copy_s", "s"),
    ("floor.radix_sort_s", "s"),
    ("floor.scatter_pack_s", "s"),
    ("vs_radix", "ratio"),
    ("vs_copy", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The unit of a listed metric.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric `{name}` is not listed in END_TO_END or PER_LAYER"))
}

/// One named value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// The listed metrics this run reports (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Printed alongside the metrics but not part of the JSON summary.
    pub notes: Vec<Metric>,
    /// Calls and requests made, including set-up and warm-up.
    pub attempted: u64,
    /// Calls and requests that returned an error or a wrong answer.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            ..Outcome::default()
        }
    }

    /// Count one call or request and whether its output checked out.
    pub fn record(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checked {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// Report a listed metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit_of(name),
        });
    }

    /// Report a value outside the listed metrics.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of a reported metric or note.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.notes)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `workload metric value unit` lines, metrics first.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.notes)
            .map(|m| format!("{} {} {} {}", self.workload, m.name, m.value, m.unit))
            .collect();
        out.extend(
            self.errors
                .iter()
                .map(|e| format!("{} error {e}", self.workload)),
        );
        out
    }
}

/// The JSON summary line: `correct`, `attempted`, `failed` and `metrics`
/// (each `{"value", "unit"}`), over the given metrics.
pub fn summary(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::str(m.unit)),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::num(attempted)),
        ("failed".into(), Json::num(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Better;

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// listed here, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    if let Some(b) = m.get("better").and_then(Json::as_str) {
                        assert!(Better::parse(b).is_some(), "bad direction {b}");
                    }
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn summary_line_has_the_four_keys() {
        let mut o = Outcome::new("w");
        o.record(Ok(()));
        o.record(Err("bad".into()));
        o.metric("setup_s", 0.25);
        let doc = summary(o.attempted, o.failed, &o.metrics);
        let keys: Vec<&str> = match &doc {
            Json::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => unreachable!(),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(o.lines()[0], "w setup_s 0.25 s");
    }
}
