//! `semisortd` — the overload-safe semisort service.
//!
//! ```sh
//! semisortd --port 7400 --shards 4 --queue-depth 4 \
//!           --max-scratch-bytes 64m
//! ```
//!
//! Listens on `127.0.0.1` (`--port 0` picks a free port), prints one
//! `{"event":"ready","port":N,...}` line to stdout, and serves framed
//! `semisort` / `group_by` / `count_by_key` / `stats` / `shutdown`
//! requests until a client sends `shutdown` (graceful drain) or the
//! process receives SIGTERM. `--stdio` serves a single session over
//! stdin/stdout instead of TCP (for harnesses without sockets).
//!
//! `--fault <spec>` arms the server-side chaos schedule
//! (`drop:k,delay-ms:d:k,panic:k` — see `semisortd::faults`).

use std::io::Write;
use std::time::Duration;

use semisort::SemisortConfig;
use semisortd::{Server, ServerConfig, ServiceFaultPlan};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args);
    if flags.has("help") {
        usage_and_exit();
    }

    let mut engine = SemisortConfig::default();
    if let Some(v) = flags.get("max-scratch-bytes") {
        engine.max_scratch_bytes = parse_bytes(v);
    }
    let fault = match flags.get("fault") {
        Some(spec) => ServiceFaultPlan::parse(spec).unwrap_or_else(|e| {
            eprintln!("{{\"event\":\"error\",\"kind\":\"invalid-config\",\"message\":\"{e}\"}}");
            std::process::exit(2);
        }),
        None => ServiceFaultPlan::NONE,
    };
    let cfg = ServerConfig {
        shards: flags
            .get("shards")
            .map(|v| v.parse().unwrap_or_else(|_| bad_flag("shards", v)))
            .unwrap_or(2),
        queue_depth: flags
            .get("queue-depth")
            .map(|v| v.parse().unwrap_or_else(|_| bad_flag("queue-depth", v)))
            .unwrap_or(4),
        max_request_records: flags
            .get("max-request-records")
            .map(parse_bytes)
            .unwrap_or(1 << 22),
        engine,
        fault,
    };
    if let Err(e) = cfg.try_validate() {
        eprintln!(
            "{{\"event\":\"error\",\"kind\":\"{}\",\"message\":\"{}\"}}",
            e.kind(),
            e
        );
        std::process::exit(e.exit_code());
    }

    if flags.has("stdio") {
        // One session over stdin/stdout; the ready line goes to stderr so
        // it doesn't interleave with reply frames.
        let server = Server::start_local(cfg).expect("config validated above");
        eprintln!(
            "{{\"event\":\"ready\",\"transport\":\"stdio\",\"shards\":{},\"fault\":\"{}\"}}",
            cfg.shards,
            cfg.fault.spec()
        );
        let mut stream = StdioStream;
        let end = server.serve_connection(&mut stream);
        server.drain_and_stop();
        match end {
            Ok(_) => std::process::exit(0),
            Err(e) => {
                eprintln!("{{\"event\":\"error\",\"kind\":\"io\",\"message\":\"{e}\"}}");
                std::process::exit(1);
            }
        }
    }

    let port: u16 = flags
        .get("port")
        .map(|v| v.parse().unwrap_or_else(|_| bad_flag("port", v)))
        .unwrap_or(7400);
    let server = match Server::start(cfg, port) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{{\"event\":\"error\",\"kind\":\"io\",\"message\":\"{e}\"}}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"event\":\"ready\",\"port\":{},\"shards\":{},\"queue_depth\":{},\"fault\":\"{}\"}}",
        server.port(),
        cfg.shards,
        cfg.queue_depth,
        cfg.fault.spec()
    );
    let _ = std::io::stdout().flush();

    // The accept loop and shard workers run on their own threads; the
    // main thread just waits for a protocol-level shutdown.
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(20));
    }
    server.drain_and_stop();
}

/// `Read`+`Write` over the process's stdin/stdout for `--stdio` mode.
struct StdioStream;

impl std::io::Read for StdioStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::io::stdin().lock().read(buf)
    }
}

impl std::io::Write for StdioStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::io::stdout().lock().write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        std::io::stdout().lock().flush()
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage:\n  semisortd [--port <p|0>] [--shards <k>] [--queue-depth <k>] [--max-request-records <n>] [--max-scratch-bytes <bytes>] [--fault <spec>] [--stdio]\n\nfault spec clauses: drop:k, delay-ms:millis:k, panic:k (1-based every-k-th request)"
    );
    std::process::exit(2);
}

fn bad_flag(name: &str, value: &str) -> ! {
    eprintln!("bad value `{value}` for --{name}");
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
            _ => "true".to_string(),
        };
        out.push((name.to_string(), value));
    }
    Flags(out)
}

/// Parse a byte/count value with optional k/m/g suffix (powers of 1000,
/// matching the CLI's `parse_count`).
fn parse_bytes(s: &str) -> usize {
    let lower = s.to_ascii_lowercase();
    let (head, mult) = match lower.chars().last() {
        Some('k') => (&lower[..lower.len() - 1], 1_000f64),
        Some('m') => (&lower[..lower.len() - 1], 1_000_000f64),
        Some('g') => (&lower[..lower.len() - 1], 1_000_000_000f64),
        _ => (lower.as_str(), 1f64),
    };
    (head.parse::<f64>().unwrap_or_else(|_| {
        eprintln!("bad byte count `{s}`");
        std::process::exit(2);
    }) * mult) as usize
}
