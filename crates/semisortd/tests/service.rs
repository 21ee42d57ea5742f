//! End-to-end service tests: a real `Server` on a real TCP socket, driven
//! by the real `Client`, exercising every rung of the degradation ladder.

use std::time::Duration;

use semisort::SemisortConfig;
use semisortd::{
    Client, ClientError, Op, Request, Response, RetryPolicy, Server, ServerConfig, ServiceFaultPlan,
};

/// Engine sized so a few thousand records take the full parallel path
/// (forced panics fire mid-scatter, which the sequential fallback never
/// reaches).
fn small_engine() -> SemisortConfig {
    SemisortConfig {
        seq_threshold: 64,
        ..SemisortConfig::default()
    }
}

fn start(cfg: ServerConfig) -> (Server, Client) {
    let server = Server::start(cfg, 0).expect("bind");
    let client = Client::new(format!("127.0.0.1:{}", server.port()), RetryPolicy::none());
    (server, client)
}

fn sample_records(n: usize) -> Vec<(u64, u64)> {
    (0..n as u64).map(|i| (i % 17, i)).collect()
}

fn assert_grouped(records: &[(u64, u64)]) {
    let mut seen = std::collections::HashSet::new();
    let mut prev = None;
    for &(k, _) in records {
        if prev != Some(k) {
            assert!(seen.insert(k), "key {k} appears in two separate runs");
        }
        prev = Some(k);
    }
}

#[test]
fn all_three_ops_round_trip_over_tcp() {
    let (server, mut client) = start(ServerConfig {
        engine: small_engine(),
        ..ServerConfig::default()
    });
    let records = sample_records(4096);

    match client.semisort(records.clone(), 0).expect("semisort") {
        Response::Records(out) => {
            assert_eq!(out.len(), records.len());
            assert_grouped(&out);
            let mut want = records.clone();
            let mut got = out.clone();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(want, got, "output is a permutation of the input");
        }
        other => panic!("wrong reply: {other:?}"),
    }

    match client
        .request(&Request {
            op: Op::GroupBy,
            deadline_ms: 0,
            records: records.clone(),
        })
        .expect("group_by")
    {
        Response::Groups {
            records: out,
            starts,
        } => {
            assert_eq!(out.len(), records.len());
            assert_grouped(&out);
            assert_eq!(starts.len(), 17 + 1, "17 distinct keys");
            assert_eq!(*starts.first().unwrap(), 0);
            assert_eq!(*starts.last().unwrap() as usize, out.len());
            for w in starts.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                assert!(a < b, "group boundaries strictly increase");
                assert!(
                    out[a..b].iter().all(|r| r.0 == out[a].0),
                    "each group is one key"
                );
            }
        }
        other => panic!("wrong reply: {other:?}"),
    }

    match client
        .request(&Request {
            op: Op::CountByKey,
            deadline_ms: 0,
            records: records.clone(),
        })
        .expect("count_by_key")
    {
        Response::Counts(counts) => {
            assert_eq!(counts.len(), 17);
            assert_eq!(
                counts.iter().map(|&(_, c)| c).sum::<u64>(),
                records.len() as u64
            );
        }
        other => panic!("wrong reply: {other:?}"),
    }

    server.drain_and_stop();
}

#[test]
fn oversized_requests_shed_with_structured_overloaded() {
    let (server, mut client) = start(ServerConfig {
        max_request_records: 100,
        engine: small_engine(),
        ..ServerConfig::default()
    });
    match client.semisort(sample_records(101), 0) {
        Err(ClientError::Server {
            code,
            kind,
            message,
        }) => {
            assert_eq!(kind, "overloaded");
            assert_eq!(code, 3, "Overloaded maps to exit code 3");
            assert!(message.contains("request-too-large"), "message: {message}");
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    // At the cap is still admitted.
    assert!(client.semisort(sample_records(100), 0).is_ok());
    let snap = server.counters();
    assert_eq!(snap.shed_overload, 1);
    assert_eq!(snap.admitted, 1);
    server.drain_and_stop();
}

#[test]
fn expired_deadlines_reply_deadline_exceeded() {
    // Every request is delayed 50ms before processing; a 5ms deadline is
    // therefore always expired by the time the shard looks at it.
    let (server, mut client) = start(ServerConfig {
        fault: ServiceFaultPlan::parse("delay-ms:50:1").unwrap(),
        engine: small_engine(),
        ..ServerConfig::default()
    });
    match client.semisort(sample_records(4096), 5) {
        Err(ClientError::Server { code, kind, .. }) => {
            assert_eq!(kind, "deadline-exceeded");
            assert_eq!(code, 4);
        }
        other => panic!("expected deadline-exceeded, got {other:?}"),
    }
    // A generous deadline still succeeds despite the delay.
    assert!(client.semisort(sample_records(4096), 5_000).is_ok());
    let snap = server.counters();
    assert_eq!(snap.deadline_exceeded, 1);
    assert_eq!(snap.completed, 1);
    server.drain_and_stop();
}

#[test]
fn poisoned_shards_rebuild_and_recover() {
    // One shard so the poisoned engine and the follow-up request can't
    // dodge each other; panic on requests 2, 4, 6, …
    let (server, mut client) = start(ServerConfig {
        shards: 1,
        fault: ServiceFaultPlan::parse("panic:2").unwrap(),
        engine: small_engine(),
        ..ServerConfig::default()
    });
    let records = sample_records(4096);
    assert!(
        client.semisort(records.clone(), 0).is_ok(),
        "request 1 clean"
    );
    match client.semisort(records.clone(), 0) {
        Err(ClientError::Server {
            code,
            kind,
            message,
        }) => {
            assert_eq!(kind, "engine-poisoned");
            assert_eq!(code, 6);
            assert!(message.contains("shard 0"), "message: {message}");
        }
        other => panic!("expected engine-poisoned, got {other:?}"),
    }
    // The shard was rebuilt: the very next request (odd seq, no fault)
    // runs on the fresh engine and succeeds.
    match client.semisort(records, 0).expect("rebuilt shard serves") {
        Response::Records(out) => assert_grouped(&out),
        other => panic!("wrong reply: {other:?}"),
    }
    let snap = server.counters();
    assert_eq!(snap.panics_contained, 1);
    assert_eq!(snap.shards_rebuilt, 1);
    assert_eq!(snap.completed, 2);
    server.drain_and_stop();
}

#[test]
fn retry_policy_rides_out_a_poisoned_shard() {
    // With retries enabled the client absorbs the engine-poisoned reply
    // and the retried request lands on the rebuilt engine.
    let (server, client) = start(ServerConfig {
        shards: 1,
        fault: ServiceFaultPlan::parse("panic:2").unwrap(),
        engine: small_engine(),
        ..ServerConfig::default()
    });
    drop(client);
    let mut client = Client::new(
        format!("127.0.0.1:{}", server.port()),
        RetryPolicy::default(),
    );
    let records = sample_records(4096);
    assert!(client.semisort(records.clone(), 0).is_ok());
    // Request 2 panics the shard; the retry (request 3) succeeds.
    assert!(
        client.semisort(records, 0).is_ok(),
        "retry hides the poison"
    );
    assert!(client.retries_taken >= 1);
    assert_eq!(server.counters().panics_contained, 1);
    server.drain_and_stop();
}

#[test]
fn dropped_replies_surface_as_transport_errors_and_reconnect_works() {
    let (server, mut client) = start(ServerConfig {
        fault: ServiceFaultPlan::parse("drop:2").unwrap(),
        engine: small_engine(),
        ..ServerConfig::default()
    });
    let records = sample_records(256);
    assert!(client.semisort(records.clone(), 0).is_ok());
    match client.semisort(records.clone(), 0) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
    // The client reconnects transparently on the next request.
    assert!(client.semisort(records, 0).is_ok());
    server.drain_and_stop();
}

#[test]
fn short_written_frames_do_not_wedge_the_server() {
    let (server, mut client) = start(ServerConfig {
        engine: small_engine(),
        ..ServerConfig::default()
    });
    let records = sample_records(512);
    let req = Request {
        op: Op::Semisort,
        deadline_ms: 0,
        records: records.clone(),
    };
    for _ in 0..3 {
        client.short_write(&req, 0.5).expect("short write");
    }
    // The server tore those sessions down; a full request still works.
    assert!(client.semisort(records, 0).is_ok());
    let snap = server.counters();
    assert_eq!(snap.admitted, 1, "half-frames are never admitted");
    server.drain_and_stop();
}

#[test]
fn shutdown_drains_once_and_draining_server_sheds() {
    let (server, mut client) = start(ServerConfig {
        engine: small_engine(),
        ..ServerConfig::default()
    });
    assert!(client.semisort(sample_records(128), 0).is_ok());
    client.shutdown().expect("shutdown ack");
    assert!(server.shutdown_requested());

    // New work after the drain is shed, not queued.
    let mut late = Client::new(format!("127.0.0.1:{}", server.port()), RetryPolicy::none());
    match late.semisort(sample_records(128), 0) {
        Err(ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, "overloaded");
            assert!(message.contains("draining"), "message: {message}");
        }
        other => panic!("expected draining shed, got {other:?}"),
    }

    let snap = server.counters();
    assert_eq!(snap.drains, 1);
    server.drain_and_stop();
    // drain_and_stop after a protocol shutdown must not double-count.
}

#[test]
fn stats_op_serves_semisort_stats_v2_with_service_section() {
    let (server, mut client) = start(ServerConfig {
        max_request_records: 100,
        engine: small_engine(),
        ..ServerConfig::default()
    });
    assert!(client.semisort(sample_records(64), 0).is_ok());
    let _ = client.semisort(sample_records(101), 0); // one shed
    let json = client.stats().expect("stats");
    let parsed = semisort::Json::parse(&json).expect("stats JSON parses");
    assert_eq!(
        parsed.get("schema").and_then(semisort::Json::as_str),
        Some("semisort-stats-v2")
    );
    let service = parsed.get("service").expect("service section present");
    assert_eq!(
        service.get("admitted").and_then(semisort::Json::as_u64),
        Some(1)
    );
    assert_eq!(
        service.get("completed").and_then(semisort::Json::as_u64),
        Some(1)
    );
    assert_eq!(
        service
            .get("shed_overload")
            .and_then(semisort::Json::as_u64),
        Some(1)
    );
    server.drain_and_stop();
}

#[test]
fn malformed_frames_get_structured_rejections_without_killing_the_session() {
    use std::io::{Read as _, Write as _};
    let server = Server::start(
        ServerConfig {
            engine: small_engine(),
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind");
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", server.port())).expect("connect");
    // A complete frame whose payload is garbage.
    stream.write_all(&3u32.to_le_bytes()).unwrap();
    stream.write_all(b"\xff\xff\xff").unwrap();
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).unwrap();
    match Response::decode(&payload) {
        Some(Response::Error { code, kind, .. }) => {
            assert_eq!(kind, "invalid-request");
            assert_eq!(code, 10);
        }
        other => panic!("expected invalid-request, got {other:?}"),
    }
    // Same connection still serves a valid request afterwards.
    let req = Request {
        op: Op::CountByKey,
        deadline_ms: 0,
        records: sample_records(32),
    };
    stream.write_all(&req.encode()).unwrap(); // encode() includes the prefix
    stream.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).unwrap();
    assert!(matches!(
        Response::decode(&payload),
        Some(Response::Counts(_))
    ));
    server.drain_and_stop();
}

#[test]
fn queue_saturation_sheds_instead_of_buffering() {
    // One shard, depth-1 queue, every job delayed 100ms: park one job in
    // the worker and one in the queue, then a burst of concurrent
    // requests must shed with queue-full (the admission sweep finds every
    // queue busy).
    let (server, _client) = start(ServerConfig {
        shards: 1,
        queue_depth: 1,
        fault: ServiceFaultPlan::parse("delay-ms:100:1").unwrap(),
        engine: small_engine(),
        ..ServerConfig::default()
    });
    let addr = format!("127.0.0.1:{}", server.port());
    let shed_seen = std::sync::atomic::AtomicU64::new(0);
    let ok_seen = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let addr = addr.clone();
            let shed_seen = &shed_seen;
            let ok_seen = &ok_seen;
            scope.spawn(move || {
                let mut c = Client::new(addr, RetryPolicy::none());
                match c.semisort(sample_records(256), 0) {
                    Ok(_) => {
                        ok_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Err(ClientError::Server { kind, message, .. }) => {
                        assert_eq!(kind, "overloaded");
                        assert!(message.contains("queue-full"), "message: {message}");
                        shed_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Err(other) => panic!("unexpected failure: {other:?}"),
                }
            });
        }
    });
    let shed = shed_seen.load(std::sync::atomic::Ordering::Relaxed);
    let ok = ok_seen.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(shed + ok, 6);
    assert!(shed >= 1, "a depth-1 queue cannot absorb a 6-wide burst");
    let snap = server.counters();
    assert_eq!(snap.shed_overload, shed);
    assert_eq!(snap.admitted, ok);
    server.drain_and_stop();
}

#[test]
fn drain_waits_for_queued_work() {
    // Two slow jobs in flight, then drain: both must be answered before
    // drain_and_stop returns (inflight reaches zero), and the counters
    // must agree nothing was abandoned.
    let (server, _client) = start(ServerConfig {
        shards: 1,
        queue_depth: 2,
        fault: ServiceFaultPlan::parse("delay-ms:60:1").unwrap(),
        engine: small_engine(),
        ..ServerConfig::default()
    });
    let addr = format!("127.0.0.1:{}", server.port());
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::new(addr, RetryPolicy::none());
                c.semisort(sample_records(256), 0).map(|_| ())
            })
        })
        .collect();
    // Let both requests reach the shard queue before draining.
    std::thread::sleep(Duration::from_millis(20));
    server.drain_and_stop();
    for h in handles {
        h.join()
            .expect("client thread")
            .expect("in-flight requests complete during drain");
    }
}
