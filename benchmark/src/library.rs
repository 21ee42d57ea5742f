//! The library workloads: warm `Semisorter` calls on one large input.
//!
//! Input sizes are chosen so that a run's cold starts and at least 40 warm
//! calls, each followed by its reference sort and its checks, fit the run
//! time; key ranges scale with `n` so that each workload keeps its
//! duplicate structure (and so its heavy/light split) at any scale.

use std::time::{Duration, Instant};

use bench::alloc_track::measure_peak;
use semisort::{SemisortConfig, SemisortError, Semisorter, TelemetryLevel};
use workloads::{generate, Distribution};

use crate::check::{self, Fingerprint};
use crate::layers::{self, Samples};
use crate::reference::Reference;
use crate::report::Outcome;
use crate::spans::Trace;
use crate::stats::{median, percentile, tail_percentile};
use crate::{RunOpts, ROUNDS, THREADS};

/// Records per `sort_pairs` call.
const PAIRS_N: usize = 4_000_000;
/// Records per `count_by_key` call.
const COUNT_N: usize = 2_000_000;
/// Warm calls an untraced run makes at least, so that p75 has ten samples
/// beyond it.
const MIN_CALLS: usize = 40;
/// The tail percentile reported for warm calls.
const TAIL_PCT: u32 = 75;
/// Warm calls per side (untraced, traced) in a traced run.
const TRACED_CALLS: usize = 10;
/// Warm calls at one thread for the speed-up ratio.
const ONE_THREAD_CALLS: usize = 5;

/// The public entry point a library workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Semisorter::sort_pairs` on `(key, payload)` records.
    SortPairs,
    /// `Semisorter::count_by_key(|r| r.0)`.
    CountByKey,
}

/// One library workload at a given scale.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Entry point.
    pub op: Op,
    /// Records per call.
    pub n: usize,
    /// Key distribution.
    pub dist: Distribution,
}

/// The library workload `name` at `1/scale` of its full size.
pub fn workload(name: &str, scale: usize) -> Option<Workload> {
    let pairs = PAIRS_N / scale;
    let count = COUNT_N / scale;
    Some(match name {
        // ~100 copies per key, ~6 in the 1/16 sample against δ = 16: every
        // key is light, so scatter and local sort carry the work.
        "pairs-light" => Workload {
            name: "pairs-light",
            op: Op::SortPairs,
            n: pairs,
            dist: Distribution::Uniform {
                n: (pairs / 100) as u64,
            },
        },
        // Exponential with mean n/10⁴: ~97% of records in heavy keys, so
        // local sort is idle and pack carries the work.
        "pairs-heavy" => Workload {
            name: "pairs-heavy",
            op: Op::SortPairs,
            n: pairs,
            dist: Distribution::Exponential {
                lambda: pairs as f64 / 1e4,
            },
        },
        // Zipfian over n/5 keys through the by-key layer.
        "count-zipf" => Workload {
            name: "count-zipf",
            op: Op::CountByKey,
            n: count,
            dist: Distribution::Zipfian {
                m: (count / 5) as u64,
            },
        },
        _ => return None,
    })
}

/// What a call returned, before checking.
enum Output {
    Records(Vec<(u64, u64)>),
    Counts(Vec<(u64, usize)>),
}

fn call(engine: &mut Semisorter, op: Op, input: &[(u64, u64)]) -> Result<Output, SemisortError> {
    Ok(match op {
        Op::SortPairs => Output::Records(engine.sort_pairs(input)?),
        Op::CountByKey => Output::Counts(engine.count_by_key(input, |r| r.0)?),
    })
}

/// The fingerprint a correct answer has: of the input for `sort_pairs`,
/// of the reference `(key, count)` map for `count_by_key`.
fn expected(op: Op, input: &[(u64, u64)]) -> Fingerprint {
    match op {
        Op::SortPairs => Fingerprint::of(input),
        Op::CountByKey => check::count_reference(input),
    }
}

fn verify(expected: &Fingerprint, result: Result<Output, SemisortError>) -> Result<(), String> {
    match result.map_err(|e| e.to_string())? {
        Output::Records(r) => check::semisorted(expected, &r),
        Output::Counts(c) => check::counts(expected, c.into_iter().map(|(k, n)| (k, n as u64))),
    }
}

/// Time one call, then check it untimed.
fn timed_call(
    engine: &mut Semisorter,
    w: &Workload,
    input: &[(u64, u64)],
    expected: &Fingerprint,
    out: &mut Outcome,
) -> f64 {
    let t = Instant::now();
    let result = call(engine, w.op, input);
    let dt = t.elapsed().as_secs_f64();
    out.record(verify(expected, result));
    dt
}

/// A fresh engine, already past its first (growing) call.
fn warm_engine(
    cfg: SemisortConfig,
    w: &Workload,
    input: &[(u64, u64)],
    expected: &Fingerprint,
    out: &mut Outcome,
) -> Semisorter {
    let mut engine = Semisorter::new(cfg).expect("the default configuration is valid");
    timed_call(&mut engine, w, input, expected, out);
    engine
}

fn assert_threads(expected: usize) {
    assert_eq!(
        rayon::current_num_threads(),
        expected,
        "the pool must have exactly {expected} workers"
    );
}

/// Run workload `w` once.
pub fn run(w: &Workload, opts: &RunOpts, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::new(w.name);
    let cfg = SemisortConfig::default().with_seed(opts.seed);
    let (input, expected) = parlay::with_threads(THREADS, || {
        assert_threads(THREADS);
        let input = generate(w.dist, w.n, opts.seed);
        let expected = expected(w.op, &input);
        (input, expected)
    });
    if !opts.trace {
        untraced(w, cfg, &input, &expected, opts, &mut out);
        return out;
    }
    let p50 = parlay::with_threads(THREADS, || {
        assert_threads(THREADS);
        traced(w, cfg, &input, &expected, opts, trace, &mut out)
    });
    // A one-thread pool runs inline on the calling thread, so it must be
    // installed from outside the two-thread pool.
    let one_thread = parlay::with_threads(1, || {
        assert_threads(1);
        let mut engine = warm_engine(cfg, w, &input, &expected, &mut out);
        let times: Vec<f64> = (0..ONE_THREAD_CALLS)
            .map(|_| timed_call(&mut engine, w, &input, &expected, &mut out))
            .collect();
        median(&times)
    });
    out.metric("sched.speedup_2t", one_thread / p50);
    out
}

fn untraced(
    w: &Workload,
    cfg: SemisortConfig,
    input: &[(u64, u64)],
    expected: &Fingerprint,
    opts: &RunOpts,
    out: &mut Outcome,
) {
    let mut setup = Vec::new();
    let mut times = Vec::new();
    let mut mems = Vec::new();
    let mut reference = Reference::default();
    // Each call's time over the reference sort's time on the same records.
    let mut rel = Vec::new();
    for _ in 0..ROUNDS {
        parlay::with_threads(THREADS, || {
            assert_threads(THREADS);
            let end = Instant::now() + Duration::from_secs_f64(opts.seconds / ROUNDS as f64);
            // Cold start: a new engine and its first call, which grows the
            // engine's scratch pool.
            let t = Instant::now();
            let mut engine = Semisorter::new(cfg).expect("the default configuration is valid");
            let result = call(&mut engine, w.op, input);
            setup.push(t.elapsed().as_secs_f64());
            out.record(verify(expected, result));

            let mut calls = 0;
            while calls < MIN_CALLS.div_ceil(ROUNDS) || Instant::now() < end {
                let held = engine.scratch_bytes_held();
                let ((result, dt), peak) = measure_peak(|| {
                    let t = Instant::now();
                    let r = call(&mut engine, w.op, input);
                    (r, t.elapsed().as_secs_f64())
                });
                out.record(verify(expected, result));
                times.push(dt);
                mems.push((held + peak) as f64);
                rel.push(dt / reference.time(input, true));
                calls += 1;
            }
        });
    }

    let p50 = median(&times);
    let tail = tail_percentile(times.len()).map_or(50, |p| p.min(TAIL_PCT));
    let speed: Vec<f64> = rel.iter().map(|r| 1.0 / r).collect();
    out.metric("setup_s", median(&setup));
    out.metric("throughput_ref", median(&speed));
    out.metric("latency_p50_ref", median(&rel));
    out.metric("latency_tail_ref", percentile(&rel, tail));
    out.metric("mem_peak_bytes", median(&mems));
    out.note("throughput_rps", w.n as f64 / p50, "records/s");
    out.note("latency_p50_s", p50, "s");
    out.note("latency_tail_s", percentile(&times, tail), "s");
    out.note("records_per_call", w.n as f64, "count");
    out.note("calls", times.len() as f64, "count");
    out.note("latency_tail_pct", f64::from(tail), "percent");
}

/// The traced run at two threads; returns the untraced call p50 it
/// measured alongside.
fn traced(
    w: &Workload,
    cfg: SemisortConfig,
    input: &[(u64, u64)],
    expected: &Fingerprint,
    opts: &RunOpts,
    trace: &mut Trace,
    out: &mut Outcome,
) -> f64 {
    let mut plain = warm_engine(cfg, w, input, expected, out);
    let untraced: Vec<f64> = (0..TRACED_CALLS)
        .map(|_| timed_call(&mut plain, w, input, expected, out))
        .collect();
    drop(plain);
    let p50 = median(&untraced);

    let counters = cfg.with_telemetry(TelemetryLevel::Counters);
    let mut engine = warm_engine(counters, w, input, expected, out);
    let mut samples = Samples::default();
    let mut calls = Vec::new();
    let mut hashed = Vec::new();
    for id in 0..TRACED_CALLS as u64 {
        let name = match w.op {
            Op::SortPairs => "sort_pairs",
            Op::CountByKey => "count_by_key",
        };
        let before = rayon::scheduler_stats();
        let (result, call_s) =
            layers::traced_call(&mut engine, name, id, trace, &mut samples, |e| {
                call(e, w.op, input)
            });
        layers::push_sched(&mut samples, &layers::sched_since(before), 1.0);
        out.record(verify(expected, result));
        calls.push(call_s);
        if w.op == Op::CountByKey {
            let (hash_s, core_s) =
                layers::bykey_parts(&mut engine, input, &mut hashed, id, trace, out);
            samples.push("bykey.hash_s", hash_s);
            samples.push("bykey.core_s", core_s);
            samples.push("bykey.other_s", call_s - hash_s - core_s);
        }
    }
    drop(engine);
    drop(hashed);
    let (copy, radix, scatter_pack) = layers::floors(input, opts.seed, trace, out);
    let traced_p50 = median(&calls);
    layers::report(&samples, traced_p50, out);
    out.metric("floor.copy_s", copy);
    out.metric("floor.radix_sort_s", radix);
    out.metric("floor.scatter_pack_s", scatter_pack);
    out.metric("vs_radix", p50 / radix);
    out.metric("vs_copy", p50 / copy);
    out.metric("trace.overhead_ratio", traced_p50 / p50);
    out.note("call_p50_s", p50, "s");
    p50
}
