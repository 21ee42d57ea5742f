//! The repository benchmark: four workloads that drive the public entry
//! points (`Semisorter`, `semisortd::{Server, Client}`) under the shipped
//! default configuration, check every output, and report end-to-end
//! metrics (untraced runs) or per-layer metrics (traced runs).
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! their bounds, and the protocol for comparing two commits.

pub mod check;
pub mod compare;
pub mod layers;
pub mod library;
pub mod reference;
pub mod report;
pub mod service;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

use report::Outcome;
use spans::Trace;

/// The workloads, in the order a full run runs them.
pub const WORKLOADS: [&str; 4] = ["pairs-light", "pairs-heavy", "count-zipf", "service-mixed"];

/// Worker threads every workload runs with.
pub const THREADS: usize = 2;

/// Independent rounds of an untraced run. Each round gets a fresh thread
/// pool (library) or server (service) and starts cold, so one run samples
/// several thread placements and yields one `setup_s` sample per round.
/// Splitting the service's run over fresh servers cut the spread of its
/// p50 latency across runs from about 40% to about 10%.
pub const ROUNDS: usize = 8;

/// How to run a workload.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Seed of the generated inputs and of the engine.
    pub seed: u64,
    /// Seconds the measurement loop runs.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Divide every input size by this (1 for a real run).
    pub scale: usize,
    /// Where a traced run writes its Chrome trace.
    pub trace_dir: PathBuf,
}

/// Run one workload once. A traced run also writes its spans to
/// `<trace_dir>/<workload>-seed<seed>.json`.
pub fn run(workload: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let mut trace = Trace::default();
    let mut out = match workload {
        "service-mixed" => service::run(opts, &mut trace)?,
        name => {
            let w = library::workload(name, opts.scale)
                .ok_or_else(|| format!("unknown workload `{name}`"))?;
            library::run(&w, opts, &mut trace)
        }
    };
    if opts.trace {
        for (name, us) in trace.self_by_name() {
            out.note(format!("self.{name}_s"), us as f64 / 1e6, "s");
        }
        std::fs::create_dir_all(&opts.trace_dir)
            .map_err(|e| format!("{}: {e}", opts.trace_dir.display()))?;
        let path = opts
            .trace_dir
            .join(format!("{workload}-seed{}.json", opts.seed));
        std::fs::write(&path, trace.chrome_json().to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "{workload}: wrote {} spans to {}",
            trace.spans().len(),
            path.display()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    /// Every workload, at 1/200 scale, reports exactly the listed metrics
    /// in both modes, every output checks out, and a traced run writes a
    /// parseable Chrome trace. The service runs on the global pool, so it
    /// is only exercised where that pool has the benchmark's size.
    #[test]
    fn every_workload_reports_every_metric() {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/test-traces"));
        let workloads = WORKLOADS
            .iter()
            .filter(|&&w| w != "service-mixed" || rayon::current_num_threads() == THREADS);
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 7,
                seconds: 0.2,
                trace,
                scale: 200,
                trace_dir: dir.clone(),
            };
            for &w in workloads.clone() {
                let out = run(w, &opts).unwrap();
                assert_eq!(out.failed, 0, "{w}: {:?}", out.errors);
                assert!(out.attempted > 0);
                let mut got: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
                let list = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                let mut want: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{w} trace={trace}");
                assert!(
                    out.metrics.iter().all(|m| m.value.is_finite()),
                    "{w}: {:?}",
                    out.metrics
                );
                if trace {
                    let text =
                        std::fs::read_to_string(dir.join(format!("{w}-seed7.json"))).unwrap();
                    let doc = semisort::Json::parse(&text).unwrap();
                    assert!(!doc
                        .get("traceEvents")
                        .and_then(semisort::Json::as_arr)
                        .unwrap()
                        .is_empty());
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
