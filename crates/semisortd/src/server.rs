//! The `semisortd` server: engine shards, admission control, panic
//! containment, and graceful drain.
//!
//! # Request path
//!
//! A connection thread parses one [`Request`] at a time and walks the
//! admission ladder (cheapest check first, every rejection a structured
//! `overloaded` reply, never a queue):
//!
//! 1. **drain state** — a draining server admits nothing new;
//! 2. **request-size cap** — `max_request_records` bounds one request's
//!    memory before anything is allocated for it (the engine's exact
//!    distribution needs scratch linear in `n` and nothing else);
//! 3. **queue capacity** — a bounded `sync_channel` per shard; `try_send`
//!    round-robins across shards and a full sweep means the server is
//!    saturated — shed, don't buffer.
//!
//! Admitted jobs run on the shard worker, which arms the engine's
//! [`CancelToken`](semisort::CancelToken) with the request deadline, wraps the engine call in
//! `catch_unwind`, and — if the engine panics — **poisons and rebuilds**
//! the shard: the panicking request fails with `engine-poisoned`, the next
//! request gets a fresh engine with a cold pool. The engine only ever
//! borrows its pooled scratch for a phase, so an unwind cannot leak or
//! dangle it (see `crates/semisort/tests/poison_recovery.rs`).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use semisort::obs::{epoch_micros, log_event, ServiceCounters};
use semisort::{SemisortConfig, SemisortError, SemisortStats, Semisorter};

use crate::faults::ServiceFaultPlan;
use crate::proto::{
    read_frame, write_frame, Op, Request, Response, CODE_INVALID_REQUEST, KIND_INVALID_REQUEST,
};

/// How the server is sized and what it injects.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Engine shards (one pinned `Semisorter` + worker thread each).
    pub shards: usize,
    /// Bounded queue depth per shard; a full sweep of full queues sheds.
    pub queue_depth: usize,
    /// Per-request record cap (admission rung 2).
    pub max_request_records: usize,
    /// The engine configuration every shard runs (its `max_scratch_bytes`
    /// bounds what each shard keeps warm between requests).
    pub engine: SemisortConfig,
    /// Server-side fault schedule (drop / delay / forced panics).
    pub fault: ServiceFaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 2,
            queue_depth: 4,
            max_request_records: 1 << 22,
            engine: SemisortConfig::default(),
            fault: ServiceFaultPlan::NONE,
        }
    }
}

impl ServerConfig {
    /// Validate the service-level knobs plus the embedded engine config.
    pub fn try_validate(&self) -> Result<(), SemisortError> {
        if self.shards == 0 {
            return Err(SemisortError::InvalidConfig {
                reason: "shards must be >= 1",
            });
        }
        if self.queue_depth == 0 {
            return Err(SemisortError::InvalidConfig {
                reason: "queue_depth must be >= 1",
            });
        }
        self.engine.try_validate()
    }
}

/// Why a session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// The peer closed the connection (or the transport failed mid-frame).
    Eof,
    /// A `Shutdown` request drained the server; the owner should stop it.
    Shutdown,
    /// A `drop` service fault closed the connection without a reply.
    Dropped,
}

enum ShardMsg {
    Job(Job),
    Stop,
}

struct Job {
    op: Op,
    records: Vec<(u64, u64)>,
    deadline_us: Option<u64>,
    delay: Option<Duration>,
    panic_fault: bool,
    resp: Sender<Response>,
}

struct Inner {
    cfg: ServerConfig,
    counters: ServiceCounters,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    stop_accept: AtomicBool,
    /// Jobs admitted (queued or running) and not yet replied to.
    inflight: AtomicU64,
    /// 1-based request sequence for the deterministic fault schedule.
    req_seq: AtomicU64,
    /// Round-robin cursor for shard selection.
    next_shard: AtomicUsize,
    /// Stats of the most recent successful engine run, served by `Stats`.
    last_stats: Mutex<SemisortStats>,
}

/// A running server: engine shards plus (optionally) a TCP accept loop.
///
/// Created with [`Server::start`] (TCP) or [`Server::start_local`]
/// (shards only — sessions are driven explicitly through
/// [`Server::serve_connection`], which is also how stdio mode and the
/// in-process tests work). Stopped with [`Server::drain_and_stop`].
pub struct Server {
    inner: Arc<Inner>,
    senders: Vec<SyncSender<ShardMsg>>,
    shard_threads: Vec<JoinHandle<()>>,
    accept_thread: Option<JoinHandle<()>>,
    port: u16,
}

impl Server {
    /// Start shards and listen on `127.0.0.1:port` (0 picks a free port;
    /// see [`Server::port`]).
    pub fn start(cfg: ServerConfig, port: u16) -> io::Result<Server> {
        let mut server = Server::start_local(cfg).map_err(io::Error::other)?;
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        server.port = listener.local_addr()?.port();
        let inner = Arc::clone(&server.inner);
        let senders = server.senders.clone();
        server.accept_thread = Some(
            thread::Builder::new()
                .name("semisortd-accept".into())
                .spawn(move || accept_loop(listener, inner, senders))
                .expect("spawn accept thread"),
        );
        Ok(server)
    }

    /// Start engine shards without a listener. Sessions are served
    /// explicitly via [`Server::serve_connection`].
    pub fn start_local(cfg: ServerConfig) -> Result<Server, SemisortError> {
        cfg.try_validate()?;
        let inner = Arc::new(Inner {
            cfg,
            counters: ServiceCounters::default(),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            stop_accept: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            req_seq: AtomicU64::new(0),
            next_shard: AtomicUsize::new(0),
            last_stats: Mutex::new(SemisortStats::default()),
        });
        let mut senders = Vec::with_capacity(cfg.shards);
        let mut shard_threads = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let (tx, rx) = mpsc::sync_channel::<ShardMsg>(cfg.queue_depth);
            let inner = Arc::clone(&inner);
            shard_threads.push(
                thread::Builder::new()
                    .name(format!("semisortd-shard-{shard}"))
                    .spawn(move || shard_worker(shard as u32, inner, rx))
                    .expect("spawn shard thread"),
            );
            senders.push(tx);
        }
        Ok(Server {
            inner,
            senders,
            shard_threads,
            accept_thread: None,
            port: 0,
        })
    }

    /// The bound TCP port (0 when started with [`Server::start_local`]).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// A point-in-time snapshot of the service counters.
    pub fn counters(&self) -> semisort::ServiceSnapshot {
        self.inner.counters.snapshot()
    }

    /// Whether a `Shutdown` request has drained the server (the owner
    /// should now call [`Server::drain_and_stop`]).
    pub fn shutdown_requested(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in the Shutdown
        // handler, so the owner observes the completed drain.
        self.inner.shutdown_requested.load(Ordering::Acquire)
    }

    /// The `semisort-stats-v2` JSON the `Stats` op serves: the most recent
    /// engine run's stats with the `service` section filled in.
    pub fn stats_json(&self) -> String {
        stats_json(&self.inner)
    }

    /// Serve one session (sequence of framed requests) on any transport —
    /// the stdio mode of the binary and the direct-stream tests.
    pub fn serve_connection<S: Read + Write>(&self, stream: &mut S) -> io::Result<SessionEnd> {
        serve_session(stream, &self.inner, &self.senders)
    }

    /// Stop admitting, answer every in-flight request, then stop shards
    /// and the accept loop and join their threads. Idempotent with a
    /// protocol-level `Shutdown` (the drain itself only runs once).
    pub fn drain_and_stop(mut self) {
        drain(&self.inner);
        // ORDERING: Release pairs with the accept loop's Acquire load.
        self.inner.stop_accept.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            // The accept loop blocks in `accept`; one connection of our
            // own wakes it to see the flag. Should that connect fail, the
            // thread is left to exit on its next connection rather than
            // joined.
            if TcpStream::connect(("127.0.0.1", self.port)).is_ok() {
                let _ = t.join();
            }
        }
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Stop);
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Stop admitting and wait until every admitted request has been replied
/// to. Only the caller that flips the drain flag bumps the counter, so a
/// protocol `Shutdown` followed by [`Server::drain_and_stop`] counts one
/// drain, not two.
fn drain(inner: &Inner) {
    // ORDERING: AcqRel swap elects the single drain owner (exactly one
    // caller sees false) and publishes the flag to admission's Acquire.
    let first = !inner.draining.swap(true, Ordering::AcqRel);
    // ORDERING: Acquire pairs with the AcqRel inflight decrements so a
    // zero count means every reply was fully sent.
    while inner.inflight.load(Ordering::Acquire) > 0 {
        thread::sleep(Duration::from_millis(1));
    }
    if first {
        ServiceCounters::bump(&inner.counters.drains);
        log_event("drain", &[("state", "complete")], &[]);
    }
}

fn stats_json(inner: &Inner) -> String {
    let mut stats = inner
        .last_stats
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    stats.service = Some(inner.counters.snapshot());
    stats.to_json().to_string()
}

/// Accept connections until [`Server::drain_and_stop`] raises
/// `stop_accept` and wakes the blocking `accept` with a connection of its
/// own. Blocking (rather than polling a non-blocking listener) puts a new
/// connection's first request in a session right away, instead of up to
/// one poll interval later.
fn accept_loop(listener: TcpListener, inner: Arc<Inner>, senders: Vec<SyncSender<ShardMsg>>) {
    loop {
        let accepted = listener.accept();
        // ORDERING: Acquire pairs with `drain_and_stop`'s Release store.
        if inner.stop_accept.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                let _ = stream.set_nodelay(true);
                let inner = Arc::clone(&inner);
                let senders = senders.clone();
                let _ = thread::Builder::new()
                    .name("semisortd-conn".into())
                    .spawn(move || {
                        let _ = serve_session(&mut stream, &inner, &senders);
                    });
            }
            // Transient accept errors (e.g. the peer already hung up, or
            // no file descriptors left) must not kill the listener; the
            // pause keeps a persistent one from spinning.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn error_response(e: &SemisortError) -> Response {
    Response::Error {
        code: e.exit_code().clamp(0, u8::MAX as i32) as u8,
        kind: e.kind().into(),
        message: e.to_string(),
    }
}

fn invalid_request(message: &str) -> Response {
    Response::Error {
        code: CODE_INVALID_REQUEST,
        kind: KIND_INVALID_REQUEST.into(),
        message: message.into(),
    }
}

fn serve_session<S: Read + Write>(
    stream: &mut S,
    inner: &Inner,
    senders: &[SyncSender<ShardMsg>],
) -> io::Result<SessionEnd> {
    loop {
        let Some(payload) = read_frame(stream)? else {
            return Ok(SessionEnd::Eof);
        };
        let Some(req) = Request::decode(&payload) else {
            // Malformed but complete frame: structured rejection, keep
            // the connection (the framing is still in sync).
            write_frame(stream, &invalid_request("unparseable request").encode())?;
            continue;
        };
        match req.op {
            Op::Stats => {
                write_frame(stream, &Response::Stats(stats_json(inner)).encode())?;
            }
            Op::Shutdown => {
                drain(inner);
                // ORDERING: Release — the owner's Acquire in
                // `shutdown_requested` must see the finished drain above.
                inner.shutdown_requested.store(true, Ordering::Release);
                write_frame(stream, &Response::ShutdownAck.encode())?;
                return Ok(SessionEnd::Shutdown);
            }
            Op::Semisort | Op::GroupBy | Op::CountByKey => {
                // ORDERING: Relaxed sequence tick — only uniqueness is
                // needed (fault injection keys off it), no ordering.
                // publishes-via: none needed — RMW atomicity suffices
                let seq = inner.req_seq.fetch_add(1, Ordering::Relaxed) + 1;
                if inner.cfg.fault.drops(seq) {
                    // Simulated network failure: no reply, connection
                    // gone. The client's retry policy owns recovery.
                    return Ok(SessionEnd::Dropped);
                }
                let resp = admit_and_run(inner, senders, req, seq);
                write_frame(stream, &resp.encode())?;
            }
        }
    }
}

/// Admission rungs 1–3, then hand the job to a shard and wait for its
/// reply. Every rejection is an `overloaded` [`Response::Error`].
fn admit_and_run(
    inner: &Inner,
    senders: &[SyncSender<ShardMsg>],
    req: Request,
    seq: u64,
) -> Response {
    let n = req.records.len();
    let shed = |reason: &'static str, required: u64, limit: u64| {
        ServiceCounters::bump(&inner.counters.shed_overload);
        log_event(
            "shed",
            &[("reason", reason)],
            &[("n", n as u64), ("seq", seq)],
        );
        error_response(&SemisortError::Overloaded {
            reason,
            required,
            limit,
        })
    };
    // ORDERING: Acquire pairs with `drain`'s AcqRel swap.
    if inner.draining.load(Ordering::Acquire) {
        return shed("draining", 1, 0);
    }
    if n > inner.cfg.max_request_records {
        return shed(
            "request-too-large",
            n as u64,
            inner.cfg.max_request_records as u64,
        );
    }
    let deadline_us = (req.deadline_ms > 0)
        .then(|| epoch_micros().saturating_add(u64::from(req.deadline_ms) * 1000));
    let (resp_tx, resp_rx) = mpsc::channel();
    let mut job = Job {
        op: req.op,
        records: req.records,
        deadline_us,
        delay: inner.cfg.fault.delay(seq),
        panic_fault: inner.cfg.fault.panics(seq),
        resp: resp_tx,
    };
    // Count the job in-flight *before* enqueueing so a drain that begins
    // while it sits in a queue still waits for it.
    // ORDERING: AcqRel — the increment must be visible before the job is
    // enqueued so a concurrent drain's Acquire loop waits for it.
    inner.inflight.fetch_add(1, Ordering::AcqRel);
    // ORDERING: Relaxed round-robin cursor; only distribution matters.
    // publishes-via: none needed — RMW atomicity suffices
    let start = inner.next_shard.fetch_add(1, Ordering::Relaxed);
    for i in 0..senders.len() {
        let tx = &senders[(start + i) % senders.len()];
        match tx.try_send(ShardMsg::Job(job)) {
            Ok(()) => {
                ServiceCounters::bump(&inner.counters.admitted);
                // The worker always replies (success, structured error,
                // or poison report) and always decrements inflight.
                return match resp_rx.recv() {
                    Ok(resp) => resp,
                    Err(_) => invalid_request("shard hung up"),
                };
            }
            Err(
                TrySendError::Full(ShardMsg::Job(j)) | TrySendError::Disconnected(ShardMsg::Job(j)),
            ) => {
                job = j;
            }
            Err(_) => unreachable!("only jobs are try_sent"),
        }
    }
    // Every queue full: the server is saturated. Shed.
    // ORDERING: AcqRel undo of the optimistic increment above, same
    // pairing with the drain loop's Acquire.
    inner.inflight.fetch_sub(1, Ordering::AcqRel);
    shed(
        "queue-full",
        (senders.len() * inner.cfg.queue_depth + 1) as u64,
        (senders.len() * inner.cfg.queue_depth) as u64,
    )
}

fn shard_worker(shard: u32, inner: Arc<Inner>, rx: Receiver<ShardMsg>) {
    let base = inner.cfg.engine;
    let mut engine = Semisorter::new(base).expect("config validated at start");
    while let Ok(msg) = rx.recv() {
        let job = match msg {
            ShardMsg::Stop => break,
            ShardMsg::Job(job) => job,
        };
        if let Some(d) = job.delay {
            thread::sleep(d);
        }
        let reply = run_job(shard, &inner, &mut engine, &base, &job);
        // ORDERING: AcqRel — releases the finished job's effects to the
        // drain loop's Acquire read of a zero count.
        inner.inflight.fetch_sub(1, Ordering::AcqRel);
        // A dead session (client hung up mid-wait) is not an error.
        let _ = job.resp.send(reply);
    }
}

fn run_job(
    shard: u32,
    inner: &Inner,
    engine: &mut Semisorter,
    base: &SemisortConfig,
    job: &Job,
) -> Response {
    // Deadline pre-check: a request that expired in the queue must not
    // charge the engine for hashing before the first token poll.
    if let Some(deadline_us) = job.deadline_us {
        let now_us = epoch_micros();
        if now_us >= deadline_us {
            ServiceCounters::bump(&inner.counters.deadline_exceeded);
            return error_response(&SemisortError::DeadlineExceeded {
                deadline_us,
                now_us,
            });
        }
    }
    if job.panic_fault {
        // Arm the forced panic by rebuilding this shard's engine with a
        // plan that panics mid-scatter: the panic then unwinds out of the
        // *shard's own* engine, so the poison/rebuild path below is the
        // real one, not a simulation.
        let mut cfg = *base;
        cfg.fault.panic_attempts = 1;
        *engine = Semisorter::new(cfg).expect("base config already validated");
    }
    let token = engine.cancel_token().clone();
    token.reset();
    if let Some(d) = job.deadline_us {
        token.set_deadline_at(d);
    }
    let result = catch_unwind(AssertUnwindSafe(|| run_op(engine, job.op, &job.records)));
    match result {
        Ok(Ok(resp)) => {
            ServiceCounters::bump(&inner.counters.completed);
            *inner.last_stats.lock().unwrap_or_else(|e| e.into_inner()) =
                engine.last_stats().clone();
            resp
        }
        Ok(Err(e)) => {
            match e {
                SemisortError::DeadlineExceeded { .. } => {
                    ServiceCounters::bump(&inner.counters.deadline_exceeded);
                }
                SemisortError::Cancelled => {
                    ServiceCounters::bump(&inner.counters.cancelled);
                }
                _ => {}
            }
            error_response(&e)
        }
        Err(_panic) => {
            // The engine unwound mid-run: poison it (drop everything it
            // held — its scratch is only borrowed, so nothing dangles) and
            // rebuild from the base config so the next request gets a
            // healthy shard.
            ServiceCounters::bump(&inner.counters.panics_contained);
            *engine = Semisorter::new(*base).expect("base config already validated");
            ServiceCounters::bump(&inner.counters.shards_rebuilt);
            log_event(
                "poisoned",
                &[("action", "rebuilt")],
                &[("shard", u64::from(shard))],
            );
            error_response(&SemisortError::EnginePoisoned { shard })
        }
    }
}

fn run_op(
    engine: &mut Semisorter,
    op: Op,
    records: &[(u64, u64)],
) -> Result<Response, SemisortError> {
    match op {
        Op::Semisort => Ok(Response::Records(engine.sort_by_key(records, |p| p.0)?)),
        Op::GroupBy => {
            // No records: starts `[0]`, zero groups.
            let groups = engine.group_by(records, |p| p.0)?;
            Ok(Response::Groups {
                starts: groups.starts.iter().map(|&s| s as u32).collect(),
                records: groups.items,
            })
        }
        Op::CountByKey => {
            let counts = engine.count_by_key(records, |p| p.0)?;
            Ok(Response::Counts(
                counts.into_iter().map(|(k, c)| (k, c as u64)).collect(),
            ))
        }
        // Routed at the session layer; reaching here is a server bug but
        // must not panic inside the catch_unwind that guards engine runs.
        Op::Stats | Op::Shutdown => Ok(invalid_request("control op routed to a shard")),
    }
}
