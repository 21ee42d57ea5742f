//! `semisortd-load` — chaos soak and sustained-throughput load generator.
//!
//! Hosts a [`semisortd::Server`] in-process on `127.0.0.1:0`, hammers it
//! from `--concurrency` client threads (each with a jittered-exponential,
//! budget-capped retry policy), and verifies the degradation ladder held:
//!
//! * every request ends in exactly one rung — served correctly, shed with
//!   a structured `overloaded`, expired with `deadline-exceeded`, failed
//!   with `engine-poisoned` (and the shard came back), or dropped by an
//!   injected transport fault;
//! * served replies are genuinely semisorted (spot-checked);
//! * counters reconcile: `admitted = completed + deadline_exceeded +
//!   cancelled + engine-poisoned failures`;
//! * the final drain completes and the process never aborts.
//!
//! Any violated invariant prints `{"event":"violation",...}` and exits 1 —
//! which is what CI's chaos-soak job asserts on. On success it prints one
//! `{"event":"load-report",...}` line with sustained records/sec and
//! p50/p99 request latency, and (unless `--trajectory none`) appends a
//! `semisort-bench-v1` service record to `BENCH_semisort.json`.
//!
//! ```sh
//! semisortd-load --requests 200 --concurrency 4 --n 50k \
//!     --server-fault drop:17,delay-ms:30:11,panic:23 \
//!     --client-fault short-write:13 --deadline-ms 2000
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use semisort::{Json, SemisortConfig};
use semisortd::{
    Client, ClientError, LatencyRecorder, Op, Request, Response, RetryPolicy, Server, ServerConfig,
    ServiceFaultPlan,
};
use workloads::Distribution;

/// Everything the client threads tally, merged into the final report.
#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    ok: AtomicU64,
    shed: AtomicU64,
    deadline: AtomicU64,
    poisoned: AtomicU64,
    transport: AtomicU64,
    short_written: AtomicU64,
    violations: AtomicU64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args);

    let requests: u64 = flags.parse_or("requests", 200);
    let concurrency: usize = flags.parse_or("concurrency", 4);
    let n: usize = flags.get("n").map(parse_count).unwrap_or(20_000);
    let deadline_ms: u32 = flags.parse_or("deadline-ms", 0);
    let server_fault = flags
        .get("server-fault")
        .map(|s| ServiceFaultPlan::parse(s).unwrap_or_else(|e| die(&e)))
        .unwrap_or(ServiceFaultPlan::NONE);
    let client_fault = flags
        .get("client-fault")
        .map(|s| ServiceFaultPlan::parse(s).unwrap_or_else(|e| die(&e)))
        .unwrap_or(ServiceFaultPlan::NONE);
    let trajectory = flags.get("trajectory").unwrap_or("none").to_string();

    let mut engine = SemisortConfig::default();
    if let Some(v) = flags.get("max-scratch-bytes") {
        engine.max_scratch_bytes = parse_count(v);
    }
    let cfg = ServerConfig {
        shards: flags.parse_or("shards", 2),
        queue_depth: flags.parse_or("queue-depth", 4),
        max_request_records: flags
            .get("max-request-records")
            .map(parse_count)
            .unwrap_or(1 << 22),
        engine,
        fault: server_fault,
    };
    let server = Server::start(cfg, 0).unwrap_or_else(|e| die(&format!("server start: {e}")));
    let addr = format!("127.0.0.1:{}", server.port());
    eprintln!(
        "{{\"event\":\"ready\",\"addr\":\"{addr}\",\"server_fault\":\"{}\",\"client_fault\":\"{}\"}}",
        cfg.fault.spec(),
        client_fault.spec()
    );

    // One fixed input per run: sorted once up front, every served reply is
    // checked against the same grouping invariant.
    let records = workloads::generate(
        Distribution::Uniform {
            n: (n as u64 / 4).max(1),
        },
        n,
        42,
    );

    let tally = Arc::new(Tally::default());
    let latency = std::sync::Mutex::new(LatencyRecorder::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..concurrency {
            let tally = Arc::clone(&tally);
            let addr = addr.clone();
            let records = &records;
            let latency = &latency;
            scope.spawn(move || {
                let policy = RetryPolicy {
                    jitter_seed: 0x1_0000 + t as u64,
                    ..RetryPolicy::default()
                };
                let mut client = Client::new(addr, policy);
                let mut local = LatencyRecorder::new();
                let mut seq = 0u64;
                // ORDERING: Relaxed work-claiming ticket; only RMW
                // atomicity is needed to split `requests` across workers.
                // publishes-via: none needed (RMW atomicity suffices)
                while tally.sent.fetch_add(1, Ordering::Relaxed) < requests {
                    seq += 1;
                    let req = Request {
                        op: match seq % 3 {
                            0 => Op::CountByKey,
                            1 => Op::Semisort,
                            _ => Op::GroupBy,
                        },
                        deadline_ms,
                        records: records.clone(),
                    };
                    if client_fault.short_writes(seq) {
                        // Send a truncated frame and hang up: the server
                        // must treat it as a dead session, not a request.
                        let _ = client.short_write(&req, 0.5);
                // ORDERING: Relaxed load-harness tally; totals are read
                // after the thread scope joins.
                // publishes-via: fork-join barrier (thread scope join)
                        tally.short_written.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let t0 = Instant::now();
                    match client.request(&req) {
                        Ok(resp) => {
                            local.record_us(t0.elapsed().as_micros() as u64);
                // ORDERING: Relaxed load-harness tally; totals are read
                // after the thread scope joins.
                // publishes-via: fork-join barrier (thread scope join)
                            tally.ok.fetch_add(1, Ordering::Relaxed);
                            if !reply_is_sound(&req, &resp) {
                                // ORDERING: as above. publishes-via:
                                // fork-join barrier (thread scope join)
                                tally.violations.fetch_add(1, Ordering::Relaxed);
                                eprintln!(
                                    "{{\"event\":\"violation\",\"what\":\"unsound reply\",\"seq\":{seq}}}"
                                );
                            }
                        }
                        Err(ClientError::Server { kind, .. }) => match kind.as_str() {
                            "overloaded" => {
                                // ORDERING: Relaxed tally (see above).
                                // publishes-via: fork-join barrier
                                tally.shed.fetch_add(1, Ordering::Relaxed);
                            }
                            "deadline-exceeded" => {
                                // ORDERING: as above. publishes-via:
                                // fork-join barrier (thread scope join)
                                tally.deadline.fetch_add(1, Ordering::Relaxed);
                            }
                            "engine-poisoned" => {
                                // ORDERING: as above. publishes-via:
                                // fork-join barrier (thread scope join)
                                tally.poisoned.fetch_add(1, Ordering::Relaxed);
                            }
                            other => {
                                // ORDERING: as above. publishes-via:
                                // fork-join barrier (thread scope join)
                                tally.violations.fetch_add(1, Ordering::Relaxed);
                                eprintln!(
                                    "{{\"event\":\"violation\",\"what\":\"unexpected error kind {other}\",\"seq\":{seq}}}"
                                );
                            }
                        },
                        Err(ClientError::Io(_)) => {
                            // Retries exhausted against injected drops —
                            // an accepted rung, not a violation.
                            // ORDERING: as above. publishes-via:
                            // fork-join barrier (thread scope join)
                            tally.transport.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Protocol(what)) => {
                            // ORDERING: as above. publishes-via:
                            // fork-join barrier (thread scope join)
                            tally.violations.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "{{\"event\":\"violation\",\"what\":\"protocol: {what}\",\"seq\":{seq}}}"
                            );
                        }
                    }
                }
                latency.lock().unwrap().merge(&local);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();

    // Post-soak probe: whatever the chaos did, a fresh request on a clean
    // connection must succeed — shards poisoned mid-soak must have been
    // rebuilt.
    let mut probe = Client::new(addr.clone(), RetryPolicy::default());
    let probe_records: Vec<(u64, u64)> = (0..64u64).map(|i| (i % 5, i)).collect();
    match probe.semisort(probe_records, 0) {
        Ok(Response::Records(r)) if r.len() == 64 => {}
        other => {
            // ORDERING: Relaxed post-join tally; the worker scope ended.
            // publishes-via: single-threaded from here on
            tally.violations.fetch_add(1, Ordering::Relaxed);
            eprintln!("{{\"event\":\"violation\",\"what\":\"post-soak probe failed: {other:?}\"}}");
        }
    }

    let stats_json = probe
        .stats()
        .unwrap_or_else(|e| die(&format!("stats fetch: {e}")));
    let stats = Json::parse(&stats_json).unwrap_or_else(|_| die("stats reply is not JSON"));

    // Drain via the protocol, then stop. The drain must complete (this
    // returns) and count exactly once.
    probe
        .shutdown()
        .unwrap_or_else(|e| die(&format!("shutdown: {e}")));
    let snap = server.counters();
    server.drain_and_stop();

    // Counter reconciliation: every admitted request reached exactly one
    // terminal rung inside the server.
    let accounted =
        snap.completed + snap.deadline_exceeded + snap.cancelled + snap.panics_contained;
    if snap.admitted != accounted {
        // ORDERING: Relaxed post-join tally (single-threaded here).
        // publishes-via: single-threaded from here on
        tally.violations.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "{{\"event\":\"violation\",\"what\":\"counter mismatch\",\"admitted\":{},\"accounted\":{accounted}}}",
            snap.admitted
        );
    }
    if snap.panics_contained != snap.shards_rebuilt {
        // ORDERING: as above. publishes-via: single-threaded from here on
        tally.violations.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "{{\"event\":\"violation\",\"what\":\"poisoned shard not rebuilt\",\"panics\":{},\"rebuilt\":{}}}",
            snap.panics_contained, snap.shards_rebuilt
        );
    }
    if snap.drains != 1 {
        // ORDERING: as above. publishes-via: single-threaded from here on
        tally.violations.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "{{\"event\":\"violation\",\"what\":\"drain count\",\"drains\":{}}}",
            snap.drains
        );
    }

    let lat = latency.into_inner().unwrap();
    // ORDERING: Relaxed post-join reads; all workers joined above.
    // publishes-via: fork-join barrier (thread scope join)
    let ok = tally.ok.load(Ordering::Relaxed);
    let records_per_s = (ok as f64 * n as f64) / wall_s.max(1e-9);
    let p50 = lat.p50_s().unwrap_or(0.0);
    let p99 = lat.p99_s().unwrap_or(0.0);
    // ORDERING: as above. publishes-via: fork-join barrier
    let violations = tally.violations.load(Ordering::Relaxed);
    // ORDERING: Relaxed post-join tally reads (see `ok` above).
    // publishes-via: fork-join barrier (thread scope join)
    println!(
        "{{\"event\":\"load-report\",\"requests\":{requests},\"ok\":{ok},\"shed\":{},\"deadline\":{},\"poisoned\":{},\"transport\":{},\"short_written\":{},\"violations\":{violations},\"wall_s\":{wall_s:.3},\"records_per_s\":{records_per_s:.0},\"latency_p50_s\":{p50:.6},\"latency_p99_s\":{p99:.6},\"server\":{{\"admitted\":{},\"completed\":{},\"shed_overload\":{},\"deadline_exceeded\":{},\"panics_contained\":{},\"shards_rebuilt\":{},\"drains\":{}}}}}",
        tally.shed.load(Ordering::Relaxed),
        tally.deadline.load(Ordering::Relaxed),
        tally.poisoned.load(Ordering::Relaxed),
        tally.transport.load(Ordering::Relaxed),
        tally.short_written.load(Ordering::Relaxed),
        snap.admitted,
        snap.completed,
        snap.shed_overload,
        snap.deadline_exceeded,
        snap.panics_contained,
        snap.shards_rebuilt,
        snap.drains,
    );

    if trajectory != "none" && violations == 0 {
        let record = bench::trajectory::service_record(
            "semisortd-load",
            concurrency,
            wall_s,
            records_per_s,
            p50,
            p99,
            stats,
        );
        bench::trajectory::append_line(&trajectory, &record);
    }

    if violations > 0 {
        std::process::exit(1);
    }
}

/// Spot-check a served reply against the request: right shape, right
/// size, and (for `Semisort`/`GroupBy`) equal keys are contiguous.
fn reply_is_sound(req: &Request, resp: &Response) -> bool {
    match (req.op, resp) {
        (Op::Semisort, Response::Records(out)) => {
            out.len() == req.records.len() && keys_are_grouped(out)
        }
        (Op::GroupBy, Response::Groups { records, starts }) => {
            records.len() == req.records.len()
                && keys_are_grouped(records)
                && starts.last().copied().unwrap_or(0) as usize == records.len()
        }
        (Op::CountByKey, Response::Counts(counts)) => {
            counts.iter().map(|&(_, c)| c).sum::<u64>() == req.records.len() as u64
        }
        _ => false,
    }
}

fn keys_are_grouped(records: &[(u64, u64)]) -> bool {
    let mut seen = std::collections::HashSet::new();
    let mut prev = None;
    for &(k, _) in records {
        if prev != Some(k) && !seen.insert(k) {
            return false; // key reappeared after its run ended
        }
        prev = Some(k);
    }
    true
}

fn die(msg: &str) -> ! {
    eprintln!("{{\"event\":\"violation\",\"what\":\"{msg}\"}}");
    std::process::exit(1);
}

struct Flags(Vec<(String, String)>);

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value `{v}` for --{name}");
                std::process::exit(2);
            }),
            None => default,
        }
    }
}

fn parse_flags(args: &[String]) -> Flags {
    let mut out = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            eprintln!("unexpected argument {a}");
            std::process::exit(2);
        };
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(),
        };
        out.push((name.to_string(), value));
    }
    Flags(out)
}

fn parse_count(s: &str) -> usize {
    let lower = s.to_ascii_lowercase();
    let (head, mult) = match lower.chars().last() {
        Some('k') => (&lower[..lower.len() - 1], 1_000f64),
        Some('m') => (&lower[..lower.len() - 1], 1_000_000f64),
        Some('g') => (&lower[..lower.len() - 1], 1_000_000_000f64),
        _ => (lower.as_str(), 1f64),
    };
    (head.parse::<f64>().unwrap_or_else(|_| {
        eprintln!("bad count `{s}`");
        std::process::exit(2);
    }) * mult) as usize
}
