//! The `service-mixed` workload: an in-process `semisortd` server on
//! loopback TCP under an open loop of small mixed requests.
//!
//! Two client connections each send on their own fixed schedule, so the
//! offered rate does not drop when the server slows; latency runs from when
//! a request was due, which charges a stall to every request queued behind
//! it. A short closed loop afterwards measures the capacity the open loop's
//! rate is a fraction of.

use std::thread;
use std::time::{Duration, Instant};

use bench::alloc_track::measure_peak;
use semisort::obs::epoch_micros;
use semisort::{SemisortConfig, SemisortError, Semisorter, TelemetryLevel};
use semisortd::{Client, Op, Request, Response, RetryPolicy, Server, ServerConfig};
use workloads::{generate, Distribution};

use crate::check::{self, Fingerprint};
use crate::layers::{self, secs, Samples};
use crate::reference::Reference;
use crate::report::Outcome;
use crate::spans::{Span, Trace};
use crate::stats::{median, percentile, tail_percentile};
use crate::{RunOpts, ROUNDS, THREADS};

/// Records per request: 800 KB of input, inside one core's L2.
const REQUEST_RECORDS: usize = 50_000;
/// Distinct inputs the requests cycle through.
const INPUTS: usize = 8;
/// The request mix, in the order requests cycle through it.
const OPS: [Op; 3] = [Op::Semisort, Op::GroupBy, Op::CountByKey];
/// Client connections, each on its own schedule.
const CONNECTIONS: usize = 2;
/// Offered load over all connections, requests per second.
const RATE: f64 = 60.0;
/// Share of the run spent in the open loop; the rest measures capacity.
const OPEN_SHARE: f64 = 0.85;
/// Closed-loop requests per connection before anything is measured.
const WARM_REQUESTS: usize = 10;
/// The tail percentile reported for request latency.
const TAIL_PCT: u32 = 99;
/// Requests per open loop in a traced run.
const TRACED_REQUESTS: usize = 300;
/// In-process engine calls per op in a traced run.
const ENGINE_CALLS_PER_OP: usize = 10;
/// Repetitions of the frame encode and decode timings.
const CODEC_REPS: usize = 20;

/// Whether one reply checked out, and why not.
type Checked = Result<(), String>;

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Semisort => "semisort",
        Op::GroupBy => "group_by",
        _ => "count_by_key",
    }
}

/// The prepared requests and what a correct reply to each looks like.
struct Mix {
    /// `requests[j]` runs `OPS[j % 3]` on input `j / 3`.
    requests: Vec<Request>,
    /// Per input: fingerprint of its records and of its `(key, count)` map.
    expected: Vec<(Fingerprint, Fingerprint)>,
}

impl Mix {
    fn new(seed: u64, records: usize) -> Mix {
        // Four copies of each key per request: Uniform over a quarter of n.
        let dist = Distribution::Uniform {
            n: (records / 4) as u64,
        };
        let inputs: Vec<Vec<(u64, u64)>> = (0..INPUTS as u64)
            .map(|i| {
                generate(
                    dist,
                    records,
                    seed.wrapping_mul(INPUTS as u64 + 1).wrapping_add(i),
                )
            })
            .collect();
        let expected = inputs
            .iter()
            .map(|r| (Fingerprint::of(r), check::count_reference(r)))
            .collect();
        let requests = inputs
            .iter()
            .flat_map(|r| {
                OPS.iter().map(move |&op| Request {
                    op,
                    deadline_ms: 0,
                    records: r.clone(),
                })
            })
            .collect();
        Mix { requests, expected }
    }

    /// The prepared request for the `i`-th request sent.
    fn slot(&self, i: usize) -> usize {
        i % self.requests.len()
    }

    fn check(&self, j: usize, reply: Result<Response, String>) -> Checked {
        let (records, counts) = &self.expected[j / OPS.len()];
        let op = self.requests[j].op;
        match (op, reply?) {
            (Op::Semisort, Response::Records(r)) => check::semisorted(records, &r),
            (Op::GroupBy, Response::Groups { records: r, starts }) => {
                check::grouped(records, &r, &starts)
            }
            (Op::CountByKey, Response::Counts(c)) => check::counts(counts, c),
            (_, Response::Error { kind, message, .. }) => Err(format!("{kind}: {message}")),
            _ => Err(format!("wrong kind of reply to a {} request", op_name(op))),
        }
    }
}

/// One open-loop request: when it was due, sent and answered (epoch µs),
/// and the reference sort of its records timed right after the reply.
struct Sample {
    id: u64,
    connection: usize,
    op: Op,
    due_us: u64,
    sent_us: u64,
    done_us: u64,
    reference_s: f64,
}

impl Sample {
    fn latency_s(&self) -> f64 {
        secs(self.due_us, self.done_us)
    }

    fn latency_ref(&self) -> f64 {
        self.latency_s() / self.reference_s
    }

    fn lag_s(&self) -> f64 {
        secs(self.due_us, self.sent_us.max(self.due_us))
    }
}

fn address(server: &Server) -> String {
    format!("127.0.0.1:{}", server.port())
}

/// Send `requests` requests at `rate` per second over [`CONNECTIONS`]
/// connections, connection `c` sending requests `c, c + CONNECTIONS, …`
/// at their due times. Every reply is checked, and each connection times
/// the reference sort of the request's records after its reply, in the
/// gap before its next request is due.
fn open_loop(addr: &str, mix: &Mix, rate: f64, requests: usize, out: &mut Outcome) -> Vec<Sample> {
    let t0 = epoch_micros() + 1_000;
    let per_connection: Vec<Vec<(Sample, Checked)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::new(addr, RetryPolicy::none());
                    let mut reference = Reference::default();
                    (c..requests)
                        .step_by(CONNECTIONS)
                        .map(|i| {
                            let due_us = t0 + (i as f64 * 1e6 / rate) as u64;
                            let now = epoch_micros();
                            if due_us > now {
                                thread::sleep(Duration::from_micros(due_us - now));
                            }
                            let sent_us = epoch_micros();
                            let j = mix.slot(i);
                            let reply = client.request(&mix.requests[j]);
                            let done_us = epoch_micros();
                            let sample = Sample {
                                id: i as u64,
                                connection: c,
                                op: mix.requests[j].op,
                                due_us,
                                sent_us,
                                done_us,
                                reference_s: reference.time(&mix.requests[j].records, false),
                            };
                            (sample, mix.check(j, reply.map_err(|e| e.to_string())))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect()
    });
    let mut samples = Vec::with_capacity(requests);
    for (sample, checked) in per_connection.into_iter().flatten() {
        out.record(checked);
        samples.push(sample);
    }
    samples
}

/// Each connection sends back-to-back until it has sent `limit` requests
/// or `seconds` (if given) have passed. Returns the records answered per
/// second.
fn closed_loop(
    addr: &str,
    mix: &Mix,
    limit: usize,
    seconds: Option<f64>,
    out: &mut Outcome,
) -> f64 {
    let start = Instant::now();
    let end = seconds.map(|s| start + Duration::from_secs_f64(s));
    let per_connection: Vec<(usize, f64, Vec<Checked>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::new(addr, RetryPolicy::none());
                    let mut records = 0;
                    let mut checks = Vec::new();
                    let mut i = c;
                    while checks.len() < limit && end.is_none_or(|e| Instant::now() < e) {
                        let j = mix.slot(i);
                        let reply = client.request(&mix.requests[j]);
                        records += mix.requests[j].records.len();
                        checks.push(mix.check(j, reply.map_err(|e| e.to_string())));
                        i += CONNECTIONS;
                    }
                    (records, start.elapsed().as_secs_f64(), checks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect()
    });
    let mut records = 0;
    let mut elapsed: f64 = 0.0;
    for (r, e, checks) in per_connection {
        records += r;
        elapsed = elapsed.max(e);
        checks.into_iter().for_each(|c| out.record(c));
    }
    records as f64 / elapsed
}

/// What one round measured.
struct Round {
    /// From `Server::start` to the first OK reply.
    setup_s: f64,
    samples: Vec<Sample>,
    /// Records per second of the closed loop, when one ran.
    capacity: Option<f64>,
    counters: semisort::ServiceSnapshot,
}

/// One round on a fresh server: start it and time it to its first reply,
/// warm it, run an open loop of `requests`, then for `capacity_s` seconds
/// (if given) a closed loop.
fn round(
    cfg: ServerConfig,
    mix: &Mix,
    requests: usize,
    capacity_s: Option<f64>,
    out: &mut Outcome,
) -> Result<Round, String> {
    let t = Instant::now();
    let server = Server::start(cfg, 0).map_err(|e| format!("server start: {e}"))?;
    let addr = address(&server);
    let reply = Client::new(addr.as_str(), RetryPolicy::none()).request(&mix.requests[0]);
    let setup_s = t.elapsed().as_secs_f64();
    out.record(mix.check(0, reply.map_err(|e| e.to_string())));
    closed_loop(&addr, mix, WARM_REQUESTS, None, out);
    let samples = open_loop(&addr, mix, RATE, requests, out);
    let capacity = capacity_s.map(|s| closed_loop(&addr, mix, usize::MAX, Some(s), out));
    let counters = server.counters();
    server.drain_and_stop();
    Ok(Round {
        setup_s,
        samples,
        capacity,
        counters,
    })
}

/// Run the workload once.
pub fn run(opts: &RunOpts, trace: &mut Trace) -> Result<Outcome, String> {
    // The shards run the engine on the global pool, sized by the caller.
    assert_eq!(
        rayon::current_num_threads(),
        THREADS,
        "the global pool must have exactly {THREADS} workers"
    );
    let mut out = Outcome::new("service-mixed");
    // Scaled-down requests stay above the engine's `seq_threshold`, below
    // which a call sorts directly and skips every phase.
    let mix = Mix::new(opts.seed, (REQUEST_RECORDS / opts.scale).max(10_000));
    let cfg = ServerConfig {
        engine: SemisortConfig::default().with_seed(opts.seed),
        ..ServerConfig::default()
    };
    if opts.trace {
        traced(cfg, &mix, opts, trace, &mut out)?;
    } else {
        untraced(cfg, &mix, opts, &mut out)?;
    }
    Ok(out)
}

fn untraced(cfg: ServerConfig, mix: &Mix, opts: &RunOpts, out: &mut Outcome) -> Result<(), String> {
    let round_s = opts.seconds / ROUNDS as f64;
    let requests = ((RATE * round_s * OPEN_SHARE).round() as usize).max(CONNECTIONS);
    let mut rounds = Vec::new();
    let mut peaks = Vec::new();
    for _ in 0..ROUNDS {
        let (r, peak) =
            measure_peak(|| round(cfg, mix, requests, Some(round_s * (1.0 - OPEN_SHARE)), out));
        rounds.push(r?);
        peaks.push(peak as f64);
    }
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let capacity: Vec<f64> = rounds.iter().filter_map(|r| r.capacity).collect();
    // A round's capacity over the rate (records/s) of its reference sorts.
    let records = mix.requests[0].records.len() as f64;
    let capacity_ref: Vec<f64> = rounds
        .iter()
        .filter_map(|r| {
            let reference: Vec<f64> = r.samples.iter().map(|s| s.reference_s).collect();
            r.capacity.map(|c| c * median(&reference) / records)
        })
        .collect();
    let samples: Vec<&Sample> = rounds.iter().flat_map(|r| &r.samples).collect();
    let latency: Vec<f64> = samples.iter().map(|s| s.latency_s()).collect();
    let rel: Vec<f64> = samples.iter().map(|s| s.latency_ref()).collect();
    let lag: Vec<f64> = samples.iter().map(|s| s.lag_s()).collect();
    let tail = tail_percentile(latency.len()).map_or(50, |p| p.min(TAIL_PCT));
    out.metric("setup_s", median(&setup));
    out.metric("throughput_ref", median(&capacity_ref));
    out.metric("latency_p50_ref", median(&rel));
    out.metric("latency_tail_ref", percentile(&rel, tail));
    out.metric("mem_peak_bytes", median(&peaks));
    out.note("throughput_rps", median(&capacity), "records/s");
    out.note("latency_p50_s", median(&latency), "s");
    out.note("latency_tail_s", percentile(&latency, tail), "s");
    out.note(
        "records_per_request",
        mix.requests[0].records.len() as f64,
        "count",
    );
    out.note("requests", latency.len() as f64, "count");
    out.note("offered_rps", RATE, "requests/s");
    out.note("latency_tail_pct", f64::from(tail), "percent");
    out.note("loadgen.lag_p99_s", percentile(&lag, 99), "s");
    let shed: u64 = rounds.iter().map(|r| r.counters.shed_overload).sum();
    out.note("svc.shed", shed as f64, "count");
    Ok(())
}

/// The engine work behind one request, as a shard runs it.
fn engine_op(
    engine: &mut Semisorter,
    op: Op,
    records: &[(u64, u64)],
) -> Result<Response, SemisortError> {
    Ok(match op {
        Op::Semisort => Response::Records(engine.sort_by_key(records, |p| p.0)?),
        Op::GroupBy => {
            let sorted = engine.sort_by_key(records, |p| p.0)?;
            let mut starts: Vec<u32> = (0..sorted.len())
                .filter(|&i| i == 0 || sorted[i].0 != sorted[i - 1].0)
                .map(|i| i as u32)
                .collect();
            starts.push(sorted.len() as u32);
            Response::Groups {
                records: sorted,
                starts,
            }
        }
        _ => Response::Counts(
            engine
                .count_by_key(records, |p| p.0)?
                .into_iter()
                .map(|(k, c)| (k, c as u64))
                .collect(),
        ),
    })
}

/// Median time of the request mix on a warm in-process engine with `cfg`.
fn engine_p50(cfg: SemisortConfig, mix: &Mix, out: &mut Outcome) -> f64 {
    let mut engine = Semisorter::new(cfg).expect("the default configuration is valid");
    let calls = ENGINE_CALLS_PER_OP * OPS.len();
    let times: Vec<f64> = (0..calls + OPS.len())
        .map(|i| {
            let req = &mix.requests[mix.slot(i)];
            let t = Instant::now();
            let reply = engine_op(&mut engine, req.op, &req.records);
            let dt = t.elapsed().as_secs_f64();
            out.record(mix.check(mix.slot(i), reply.map_err(|e| e.to_string())));
            dt
        })
        .collect();
    // The first call of each op warms the pool.
    median(&times[OPS.len()..])
}

fn traced(
    cfg: ServerConfig,
    mix: &Mix,
    opts: &RunOpts,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Result<(), String> {
    let requests = (TRACED_REQUESTS / opts.scale).max(20);
    let plain = round(cfg, mix, requests, None, out)?.samples;
    let counters_cfg = ServerConfig {
        engine: cfg.engine.with_telemetry(TelemetryLevel::Counters),
        ..cfg
    };
    let before = rayon::scheduler_stats();
    let Round {
        samples,
        counters: svc,
        ..
    } = round(counters_cfg, mix, requests, None, out)?;
    let sched = layers::sched_since(before);
    for s in &samples {
        trace.push(Span {
            name: op_name(s.op),
            start_us: s.sent_us,
            end_us: s.done_us,
            parent: None,
            id: s.id,
            lane: 100 + s.connection as u64,
        });
    }

    // Frame codec on one request and its reply.
    let req = &mix.requests[0];
    let mut encode = Vec::new();
    let mut frame = Vec::new();
    for _ in 0..CODEC_REPS {
        let t = Instant::now();
        frame = req.encode();
        encode.push(t.elapsed().as_secs_f64());
    }
    out.record(match Request::decode(&frame[4..]) {
        Some(r) if r == *req => Ok(()),
        _ => Err("request frame does not decode to the request".into()),
    });
    let reply = Response::Records(req.records.clone());
    let reply_frame = reply.encode();
    let mut decode = Vec::new();
    for _ in 0..CODEC_REPS {
        let t = Instant::now();
        let decoded = Response::decode(&reply_frame[4..]);
        decode.push(t.elapsed().as_secs_f64());
        out.record(match decoded {
            Some(r) if r == reply => Ok(()),
            _ => Err("reply frame does not decode to the reply".into()),
        });
    }

    // The engine work behind the requests, in process, traced per call.
    let mut engine =
        Semisorter::new(counters_cfg.engine).expect("the default configuration is valid");
    for (j, req) in mix.requests.iter().enumerate().take(OPS.len()) {
        let reply = engine_op(&mut engine, req.op, &req.records);
        out.record(mix.check(j, reply.map_err(|e| e.to_string())));
    }
    let mut layer = Samples::default();
    let mut hashed = Vec::new();
    let mut calls = Vec::new();
    for i in OPS.len()..(ENGINE_CALLS_PER_OP + 1) * OPS.len() {
        let j = mix.slot(i);
        let req = &mix.requests[j];
        let (reply, call_s) = layers::traced_call(
            &mut engine,
            op_name(req.op),
            i as u64,
            trace,
            &mut layer,
            |e| engine_op(e, req.op, &req.records),
        );
        out.record(mix.check(j, reply.map_err(|e| e.to_string())));
        let (hash_s, core_s) =
            layers::bykey_parts(&mut engine, &req.records, &mut hashed, i as u64, trace, out);
        layer.push("bykey.hash_s", hash_s);
        layer.push("bykey.core_s", core_s);
        layer.push("bykey.other_s", call_s - hash_s - core_s);
        calls.push(call_s);
    }
    layers::push_sched(&mut layer, &sched, samples.len() as f64);
    let traced_engine = median(&calls);
    layers::report(&layer, traced_engine, out);

    let two = engine_p50(cfg.engine, mix, out);
    let one = parlay::with_threads(1, || engine_p50(cfg.engine, mix, out));
    let (copy, radix, scatter_pack) = layers::floors(&req.records, opts.seed, trace, out);
    let latency = |s: &[Sample]| median(&s.iter().map(Sample::latency_s).collect::<Vec<_>>());
    let service: Vec<f64> = samples.iter().map(|s| secs(s.sent_us, s.done_us)).collect();
    let lag: Vec<f64> = samples.iter().map(Sample::lag_s).collect();

    out.metric("sched.speedup_2t", one / two);
    out.metric("floor.copy_s", copy);
    out.metric("floor.radix_sort_s", radix);
    out.metric("floor.scatter_pack_s", scatter_pack);
    out.metric("vs_radix", two / radix);
    out.metric("vs_copy", two / copy);
    out.metric("trace.overhead_ratio", latency(&samples) / latency(&plain));
    out.note("svc.encode_s", median(&encode), "s");
    out.note("svc.decode_s", median(&decode), "s");
    out.note("svc.engine_s", two, "s");
    out.note("svc.overhead_p50_s", median(&service) - two, "s");
    out.note("svc.admitted", svc.admitted as f64, "count");
    out.note("svc.completed", svc.completed as f64, "count");
    out.note("svc.shed", svc.shed_overload as f64, "count");
    out.note("loadgen.lag_p99_s", percentile(&lag, 99), "s");
    Ok(())
}
