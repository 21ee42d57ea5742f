//! `semisort-cli` — generate, semisort, and verify record files.
//!
//! Records are raw little-endian `(u64 key, u64 payload)` pairs (the
//! paper's 16-byte format).
//!
//! ```sh
//! semisort-cli generate --dist zipf:1000000 --n 5m --out data.bin
//! semisort-cli sort     --input data.bin --out sorted.bin --algo semisort --stats
//! semisort-cli verify   --input sorted.bin
//! semisort-cli bench    --quick --stats-json stats.json
//! semisort-cli trace    --n 1m --out run.trace.json
//! semisort-cli validate-json --input stats.json --schema semisort-stats-v2
//! ```
//!
//! Algorithms: `semisort` (default), `radix`, `sample`, `stdsort`,
//! `seq-hash`, `rr`.
//!
//! `sort` and `bench` accept `--stats-json <path>` (write the run's
//! `semisort-stats-v2` object — see `semisort::stats` for the schema) and
//! `--telemetry <off|counters|deep>`. `bench` additionally appends one
//! JSONL run record to the trajectory file (`BENCH_semisort.json` by
//! default; `--trajectory none` disables). `trace` runs one semisort with
//! scheduler event capture on and writes a Chrome-trace
//! (`semisort-trace-v1`) file for Perfetto. `validate-json` parses a
//! stats, trajectory, trace, or static-analysis report file with the
//! in-tree JSON reader and fails on malformed content (`--schema` accepts
//! a comma-separated list of acceptable names; `--require a.b.c`
//! additionally asserts dotted-path members are present and non-null) —
//! the CI smoke check. Documents declaring `semisort-audit-v1` (the
//! `cargo xtask audit` / `audit-atomics` / `lint` report family) are
//! additionally checked structurally: `passes` entries must carry
//! well-formed violation records and internally-consistent `ok` flags.
//!
//! Failure handling (both `sort --algo semisort` and `bench`):
//! `--on-overflow <fallback|error>` selects the escalation policy,
//! `--max-retries <k>` bounds the Las Vegas restarts, `--max-arena-bytes
//! <bytes>` (k/m/g suffixes ok) caps the scatter arena, and `--fault
//! <spec>` injects deterministic faults (`force-overflow:2`,
//! `corrupt-sample:1,fail-alloc:1`, … — see `semisort::fault`). Under
//! `--on-overflow error` a terminal failure prints one structured
//! `{"event":"error",...}` line (with an `exit_code` member) to stderr
//! and exits with [`semisort::SemisortError::exit_code`]'s mapping
//! (degradable runtime failures 1, invalid config 2, overloaded 3,
//! deadline exceeded 4, cancelled 5, engine poisoned 6).
//!
//! `bench --reuse <k>` runs `k` consecutive calls through one warm
//! [`semisort::Semisorter`] instead of one one-shot call, reporting
//! per-call times and the engine's scratch-pool counters;
//! `--max-scratch-bytes <bytes>` bounds what the pool retains between
//! calls (`sort` and `bench`).

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::time::Instant;

use semisort::{
    try_semisort_with_stats, FaultPlan, Json, OverflowPolicy, ScatterConfig, ScatterStrategy,
    SemisortConfig, SemisortError, SemisortStats, Semisorter, TelemetryLevel,
};
use workloads::Distribution;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage_and_exit();
    };
    let flags = parse_flags(&args[1..]);
    match cmd.as_str() {
        "generate" => generate(&flags),
        "sort" => sort(&flags),
        "verify" => verify(&flags),
        "bench" => bench_run(&flags),
        "trace" => trace_run(&flags),
        "validate-json" => validate_json(&flags),
        _ => usage_and_exit(),
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage:\n  semisort-cli generate --dist <uniform|exp|zipf>:<param> --n <count> --out <file> [--seed <u64>]\n  semisort-cli sort --input <file> --out <file> [--algo semisort|radix|sample|stdsort|seq-hash|rr] [--scatter counting|random-cas] [--threads <k>] [--stats] [--stats-json <file>] [--telemetry off|counters|deep] [--on-overflow fallback|error] [--max-retries <k>] [--max-arena-bytes <bytes>] [--max-scratch-bytes <bytes>] [--fault <spec>]\n  semisort-cli verify --input <file>\n  semisort-cli bench [--n <count>] [--dist <spec>] [--quick] [--reuse <k>] [--threads <k>] [--seed <u64>] [--scatter counting|random-cas] [--telemetry off|counters|deep] [--stats-json <file>] [--trajectory <file|none>] [--on-overflow fallback|error] [--max-retries <k>] [--max-arena-bytes <bytes>] [--max-scratch-bytes <bytes>] [--fault <spec>]\n  semisort-cli trace [--n <count>] [--dist <spec>] [--seed <u64>] [--threads <k>] [--scatter counting|random-cas] [--out <file>] [--stats-json <file>]\n  semisort-cli validate-json --input <file> [--schema <name>[,<name>...]] [--require <path>[,<path>...]] [--jsonl]"
    );
    std::process::exit(2);
}

struct Flags(Vec<(String, String)>);

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
    fn require(&self, name: &str) -> &str {
        self.get(name).unwrap_or_else(|| {
            eprintln!("missing required flag --{name}");
            std::process::exit(2);
        })
    }
    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
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
            _ => "true".to_string(), // boolean flag
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
    (head.parse::<f64>().expect("bad count") * mult) as usize
}

fn parse_dist(s: &str) -> Distribution {
    let (kind, param) = s.split_once(':').unwrap_or_else(|| {
        eprintln!("--dist must look like uniform:1000000");
        std::process::exit(2);
    });
    let p: f64 = param.parse().expect("bad distribution parameter");
    match kind {
        "uniform" => Distribution::Uniform { n: p as u64 },
        "exp" | "exponential" => Distribution::Exponential { lambda: p },
        "zipf" | "zipfian" => Distribution::Zipfian { m: p as u64 },
        _ => {
            eprintln!("unknown distribution {kind}");
            std::process::exit(2);
        }
    }
}

fn read_records(path: &str) -> Vec<(u64, u64)> {
    let f = File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let mut r = BufReader::new(f);
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes).expect("read failed");
    assert!(
        bytes.len() % 16 == 0,
        "file is not a whole number of 16-byte records"
    );
    bytes
        .chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..].try_into().unwrap()),
            )
        })
        .collect()
}

fn write_records(path: &str, records: &[(u64, u64)]) {
    let f = File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    });
    let mut w = BufWriter::new(f);
    for &(k, v) in records {
        w.write_all(&k.to_le_bytes()).expect("write failed");
        w.write_all(&v.to_le_bytes()).expect("write failed");
    }
    w.flush().expect("flush failed");
}

fn generate(flags: &Flags) {
    let dist = parse_dist(flags.require("dist"));
    let n = parse_count(flags.require("n"));
    let seed: u64 = flags
        .get("seed")
        .map_or(42, |s| s.parse().expect("bad seed"));
    let out = flags.require("out");
    let t = Instant::now();
    let records = workloads::generate(dist, n, seed);
    write_records(out, &records);
    eprintln!(
        "generated {} records of {} into {out} in {:.2}s",
        n,
        dist.label(),
        t.elapsed().as_secs_f64()
    );
}

/// Parse `--scatter` (default: the library's default strategy).
fn parse_scatter(flags: &Flags) -> ScatterStrategy {
    let Some(spelling) = flags.get("scatter") else {
        return ScatterConfig::default().strategy;
    };
    ScatterStrategy::parse(spelling).unwrap_or_else(|| {
        eprintln!("unknown scatter strategy {spelling} (want counting or random-cas)");
        std::process::exit(2);
    })
}

/// Apply the failure-handling flags — `--on-overflow`, `--max-retries`,
/// `--max-arena-bytes`, `--fault` — on top of a config.
fn apply_failure_flags(flags: &Flags, mut cfg: SemisortConfig) -> SemisortConfig {
    if let Some(s) = flags.get("on-overflow") {
        cfg.overflow_policy = OverflowPolicy::parse(s).unwrap_or_else(|| {
            eprintln!("unknown overflow policy {s} (want fallback or error)");
            std::process::exit(2);
        });
    }
    if let Some(s) = flags.get("max-retries") {
        cfg.max_retries = s.parse().expect("bad retry count");
    }
    if let Some(s) = flags.get("max-arena-bytes") {
        cfg.max_arena_bytes = parse_count(s);
    }
    if let Some(s) = flags.get("max-scratch-bytes") {
        cfg.max_scratch_bytes = parse_count(s);
    }
    if let Some(s) = flags.get("fault") {
        cfg.fault = FaultPlan::parse(s).unwrap_or_else(|e| {
            eprintln!("bad --fault spec: {e}");
            std::process::exit(2);
        });
    }
    cfg
}

/// Run the semisort, exiting with a structured one-line JSON error on a
/// terminal failure (only reachable under `--on-overflow error`).
fn run_or_exit(records: &[(u64, u64)], cfg: &SemisortConfig) -> (Vec<(u64, u64)>, SemisortStats) {
    try_semisort_with_stats(records, cfg).unwrap_or_else(|e| exit_semisort_error(e))
}

fn exit_semisort_error(e: SemisortError) -> ! {
    let line = Json::Obj(vec![
        ("event".into(), Json::str("error")),
        ("kind".into(), Json::str(e.kind())),
        ("exit_code".into(), Json::num(e.exit_code() as u64)),
        ("message".into(), Json::Str(e.to_string())),
    ]);
    eprintln!("{line}");
    std::process::exit(e.exit_code());
}

/// Parse `--telemetry` (default `off`).
fn parse_telemetry(flags: &Flags) -> TelemetryLevel {
    let s = flags.get("telemetry").unwrap_or("off");
    TelemetryLevel::parse(s).unwrap_or_else(|| {
        eprintln!("unknown telemetry level {s} (want off, counters or deep)");
        std::process::exit(2);
    })
}

/// Print the verbose `--stats` report for one run to stderr.
fn print_stats(stats: &semisort::SemisortStats) {
    for (name, d) in stats.phases() {
        eprintln!("  {name:<18} {:.4}s", d.as_secs_f64());
    }
    eprintln!(
        "  scatter {} | heavy keys {} | light buckets {} | %heavy {:.1} | slots/n {:.2} | retries {}",
        stats.config.scatter.strategy.as_str(),
        stats.heavy_keys,
        stats.light_buckets,
        stats.heavy_fraction_pct(),
        stats.space_blowup(),
        stats.retries
    );
    if stats.degraded {
        eprintln!(
            "  DEGRADED to comparison-sort fallback: {}",
            stats.degrade_reason.map_or("unknown", |r| r.as_str())
        );
    }
    for rc in &stats.telemetry.retry_causes {
        eprintln!(
            "  retry {}: {} bucket {} overflowed — allocated {} slots, observed ≥ {} records",
            rc.attempt,
            if rc.heavy { "heavy" } else { "light" },
            rc.bucket,
            rc.allocated,
            rc.observed
        );
    }
    if stats.telemetry.level.counters() {
        eprintln!(
            "  cas attempts {} | cas failures {} | records placed {}",
            stats.telemetry.cas_attempts,
            stats.telemetry.cas_failures,
            stats.telemetry.records_placed
        );
    }
}

/// Write a run's `semisort-stats-v2` object to `path`.
fn write_stats_json(path: &str, stats: &semisort::SemisortStats) {
    let json = stats.to_json();
    if let Err(e) = std::fs::write(path, format!("{json}\n")) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("stats JSON → {path}");
}

fn sort(flags: &Flags) {
    let input = flags.require("input");
    let out_path = flags.require("out");
    let algo = flags.get("algo").unwrap_or("semisort");
    let records = read_records(input);
    eprintln!("read {} records from {input}", records.len());

    let scatter = parse_scatter(flags);
    let telemetry = parse_telemetry(flags);
    if flags.has("stats-json") && algo != "semisort" {
        eprintln!("--stats-json only applies to --algo semisort");
        std::process::exit(2);
    }

    let run = || -> Vec<(u64, u64)> {
        match algo {
            "semisort" => {
                let cfg = apply_failure_flags(
                    flags,
                    SemisortConfig {
                        scatter: ScatterConfig {
                            strategy: scatter,
                            ..ScatterConfig::default()
                        },
                        telemetry,
                        ..Default::default()
                    },
                );
                let (out, stats) = run_or_exit(&records, &cfg);
                if flags.has("stats") {
                    print_stats(&stats);
                }
                if let Some(path) = flags.get("stats-json") {
                    write_stats_json(path, &stats);
                }
                out
            }
            "radix" => {
                let mut v = records.clone();
                parlay::radix_sort::radix_sort_pairs(&mut v);
                v
            }
            "sample" => {
                let mut v = records.clone();
                parlay::sample_sort::sample_sort_pairs(&mut v);
                v
            }
            "stdsort" => baselines::par_sort_semisort(&records),
            "seq-hash" => baselines::seq_hash_semisort(&records),
            "rr" => baselines::rr_semisort(&records).0,
            _ => {
                eprintln!("unknown algorithm {algo}");
                std::process::exit(2);
            }
        }
    };

    let t = Instant::now();
    let sorted = match flags.get("threads") {
        Some(k) => parlay::with_threads(k.parse().expect("bad thread count"), run),
        None => run(),
    };
    let dt = t.elapsed().as_secs_f64();
    write_records(out_path, &sorted);
    eprintln!(
        "{algo}: {} records in {dt:.3}s ({:.1} Mrec/s) → {out_path}",
        sorted.len(),
        sorted.len() as f64 / dt / 1e6
    );
}

/// `bench`: generate a workload in memory, run the semisort once, verify
/// the output, and emit stats JSON + one trajectory run record.
fn bench_run(flags: &Flags) {
    let quick = flags.has("quick");
    let mut n = flags.get("n").map_or(1_000_000, parse_count);
    if quick {
        n = n.min(200_000);
    }
    let seed: u64 = flags
        .get("seed")
        .map_or(42, |s| s.parse().expect("bad seed"));
    let dist = flags
        .get("dist")
        .map(parse_dist)
        .unwrap_or(Distribution::Zipfian {
            m: (n as u64 / 10).max(1),
        });
    let cfg = apply_failure_flags(
        flags,
        SemisortConfig {
            scatter: ScatterConfig {
                strategy: parse_scatter(flags),
                ..ScatterConfig::default()
            },
            telemetry: parse_telemetry(flags),
            ..SemisortConfig::default().with_seed(seed)
        },
    );
    let threads = flags
        .get("threads")
        .map(|k| k.parse::<usize>().expect("bad thread count"));
    let threads_requested =
        threads.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));

    let reuse: usize = flags
        .get("reuse")
        .map_or(1, |s| s.parse().expect("bad --reuse count"))
        .max(1);

    let records = workloads::generate(dist, n, seed);
    let t = Instant::now();
    let run = || {
        if reuse > 1 {
            // Warm-engine mode: `reuse` consecutive calls through one
            // Semisorter; report the last call (whose scratch counters
            // show the steady-state pool behavior).
            let mut engine = Semisorter::new(cfg).unwrap_or_else(|e| exit_semisort_error(e));
            let mut out = Vec::new();
            for call in 0..reuse {
                out = engine
                    .sort_pairs(&records)
                    .unwrap_or_else(|e| exit_semisort_error(e));
                if call > 0 {
                    eprintln!(
                        "  call {call}: scratch_grows {} reuse_hits {} held {} bytes",
                        engine.last_stats().scratch_grows,
                        engine.last_stats().scratch_reuse_hits,
                        engine.last_stats().scratch_bytes_held,
                    );
                }
            }
            let stats = engine.last_stats().clone();
            (out, stats, bench::trajectory::effective_threads())
        } else {
            let (out, stats) = run_or_exit(&records, &cfg);
            (out, stats, bench::trajectory::effective_threads())
        }
    };
    let (out, stats, threads_effective) = match threads {
        Some(k) => parlay::with_threads(k, run),
        None => run(),
    };
    let wall = t.elapsed().as_secs_f64() / reuse as f64;
    assert!(
        semisort::verify::is_semisorted_by(&out, |r| r.0) && out.len() == records.len(),
        "bench run produced an invalid semisort"
    );
    eprintln!(
        "bench: {} records of {} in {wall:.3}s{} ({:.1} Mrec/s), telemetry {}",
        n,
        dist.label(),
        if reuse > 1 {
            format!("/call over {reuse} warm-engine calls")
        } else {
            String::new()
        },
        n as f64 / wall / 1e6,
        cfg.telemetry.as_str()
    );
    if flags.has("stats") {
        print_stats(&stats);
    }
    if let Some(path) = flags.get("stats-json") {
        write_stats_json(path, &stats);
    }
    let trajectory = flags
        .get("trajectory")
        .unwrap_or(bench::trajectory::DEFAULT_TRAJECTORY);
    bench::trajectory::append_line(
        trajectory,
        &bench::trajectory::run_record(
            "semisort-cli",
            threads_requested,
            threads_effective,
            wall,
            stats.to_json(),
        ),
    );
    if trajectory != "none" {
        eprintln!("trajectory record → {trajectory}");
    }
}

/// `trace`: run one semisort with scheduler event capture switched on and
/// export the run as a Chrome-trace file (`semisort-trace-v1`) loadable in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
fn trace_run(flags: &Flags) {
    let n = flags.get("n").map_or(1_000_000, parse_count);
    let seed: u64 = flags
        .get("seed")
        .map_or(42, |s| s.parse().expect("bad seed"));
    let dist = flags
        .get("dist")
        .map(parse_dist)
        .unwrap_or(Distribution::Zipfian {
            m: (n as u64 / 10).max(1),
        });
    let cfg = apply_failure_flags(
        flags,
        SemisortConfig {
            scatter: ScatterConfig {
                strategy: parse_scatter(flags),
                ..ScatterConfig::default()
            },
            telemetry: parse_telemetry(flags),
            ..SemisortConfig::default().with_seed(seed)
        },
    );
    // Scheduler rings only exist on a multi-worker pool; when the machine
    // reports one hardware thread, still trace on two workers so the
    // timeline has scheduler rows (concurrency, if not parallelism).
    let threads = flags.get("threads").map_or_else(
        || {
            std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .max(2)
        },
        |k| k.parse().expect("bad thread count"),
    );
    let out_path = flags.get("out").unwrap_or("semisort.trace.json");

    let records = workloads::generate(dist, n, seed);
    rayon::trace::set_events_enabled(true);
    let (out, stats) = parlay::with_threads(threads, || run_or_exit(&records, &cfg));
    rayon::trace::set_events_enabled(false);
    assert!(
        semisort::verify::is_semisorted_by(&out, |r| r.0) && out.len() == records.len(),
        "trace run produced an invalid semisort"
    );

    let doc = semisort::chrome_trace(&stats);
    if let Err(e) = std::fs::write(out_path, format!("{doc}\n")) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    if let Some(path) = flags.get("stats-json") {
        write_stats_json(path, &stats);
    }
    let sched_events = stats.scheduler.as_ref().map_or(0, |s| s.events().count());
    eprintln!(
        "trace: {} records of {} on {threads} threads → {out_path} \
         ({} spans, {sched_events} scheduler events); open in https://ui.perfetto.dev",
        n,
        dist.label(),
        stats.spans.len()
    );
}

/// `validate-json`: parse a stats, trajectory, or trace file with the
/// in-tree JSON reader; non-zero exit on malformed content or a schema
/// mismatch. `--schema` takes a comma-separated list of acceptable names
/// (e.g. `semisort-stats-v1,semisort-stats-v2` across a schema bump).
fn validate_json(flags: &Flags) {
    let input = flags.require("input");
    let text = std::fs::read_to_string(input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        std::process::exit(1);
    });
    let jsonl = flags.has("jsonl");
    let want_schemas: Option<Vec<&str>> = flags.get("schema").map(|s| {
        s.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect()
    });
    // `--require a.b.c[,x.y]`: each dotted path must resolve to a non-null
    // member (e.g. `service.admitted` asserts a stats file came from a
    // service run).
    let required_paths: Vec<&str> = flags
        .get("require")
        .map(|s| {
            s.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect()
        })
        .unwrap_or_default();
    let check = |chunk: &str, what: &str| {
        let parsed = Json::parse(chunk).unwrap_or_else(|e| {
            eprintln!("{input}: {what}: malformed JSON: {e}");
            std::process::exit(1);
        });
        if let Some(want) = &want_schemas {
            let got = parsed.get("schema").and_then(Json::as_str);
            if !got.is_some_and(|g| want.contains(&g)) {
                eprintln!("{input}: {what}: schema {got:?}, expected one of {want:?}");
                std::process::exit(1);
            }
        }
        // Known schemas get structural validation on top of the name
        // match: a report that *says* audit-v1 must also be shaped like
        // one, so CI archives can be trusted downstream.
        if parsed.get("schema").and_then(Json::as_str) == Some("semisort-audit-v1") {
            if let Err(msg) = audit_v1_shape(&parsed) {
                eprintln!("{input}: {what}: not a well-formed semisort-audit-v1 report: {msg}");
                std::process::exit(1);
            }
        }
        for path in &required_paths {
            let mut node = Some(&parsed);
            for seg in path.split('.') {
                node = node.and_then(|n| n.get(seg));
            }
            match node {
                Some(Json::Null) | None => {
                    eprintln!("{input}: {what}: required member `{path}` is missing or null");
                    std::process::exit(1);
                }
                Some(_) => {}
            }
        }
    };
    let count = if jsonl {
        let mut count = 0usize;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            check(line, &format!("line {}", i + 1));
            count += 1;
        }
        count
    } else {
        check(&text, "document");
        1
    };
    if count == 0 {
        eprintln!("{input}: no records");
        std::process::exit(1);
    }
    println!(
        "{input}: OK ({count} record{})",
        if count == 1 { "" } else { "s" }
    );
}

/// Structural check of a `semisort-audit-v1` document (the `cargo xtask
/// audit`/`audit-atomics` report; `lint` emits the same violation objects
/// under `semisort-lint-v1`): a top-level `ok` bool and `passes` array;
/// each pass carries `pass`, `ok`, `files_scanned`, and well-formed
/// `violations` (rule/file/line/message); and every `ok` flag must agree
/// with the violations it summarizes.
fn audit_v1_shape(doc: &Json) -> Result<(), String> {
    let doc_ok = doc
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or("missing top-level `ok` bool")?;
    let passes = doc
        .get("passes")
        .and_then(Json::as_arr)
        .ok_or("missing `passes` array")?;
    let mut all_clean = true;
    for (i, pass) in passes.iter().enumerate() {
        let name = pass
            .get("pass")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("passes[{i}] has no `pass` name"))?;
        let pass_ok = pass
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("pass `{name}` has no `ok` bool"))?;
        pass.get("files_scanned")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("pass `{name}` has no `files_scanned` count"))?;
        let violations = pass
            .get("violations")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("pass `{name}` has no `violations` array"))?;
        for (j, v) in violations.iter().enumerate() {
            for key in ["rule", "file", "message"] {
                if v.get(key).and_then(Json::as_str).is_none() {
                    return Err(format!("pass `{name}` violations[{j}] missing `{key}`"));
                }
            }
            if v.get("line").and_then(Json::as_u64).is_none() {
                return Err(format!("pass `{name}` violations[{j}] missing `line`"));
            }
        }
        if pass_ok != violations.is_empty() {
            return Err(format!(
                "pass `{name}` ok={pass_ok} disagrees with its {} violation(s)",
                violations.len()
            ));
        }
        all_clean &= pass_ok;
    }
    if doc_ok != all_clean {
        return Err(format!(
            "top-level ok={doc_ok} disagrees with the pass results"
        ));
    }
    Ok(())
}

fn verify(flags: &Flags) {
    let input = flags.require("input");
    let records = read_records(input);
    let ok = semisort::verify::is_semisorted_by(&records, |r| r.0);
    let distinct = {
        let mut keys: Vec<u64> = records.iter().map(|r| r.0).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    };
    println!(
        "{input}: {} records, {distinct} distinct keys — {}",
        records.len(),
        if ok { "SEMISORTED" } else { "NOT semisorted" }
    );
    if !ok {
        std::process::exit(1);
    }
}
