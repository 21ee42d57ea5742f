//! End-to-end tests of the `semisort-cli` binary: generate → sort → verify
//! through the real file format, for every algorithm backend.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_semisort-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("semisort_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn generate_sort_verify_roundtrip_all_algorithms() {
    let data = tmp("data.bin");
    let status = cli()
        .args(["generate", "--dist", "zipf:50000", "--n", "100k", "--out"])
        .arg(&data)
        .status()
        .expect("run generate");
    assert!(status.success());
    assert_eq!(std::fs::metadata(&data).unwrap().len(), 100_000 * 16);

    for algo in ["semisort", "radix", "sample", "stdsort", "seq-hash", "rr"] {
        let sorted = tmp(&format!("sorted_{algo}.bin"));
        let status = cli()
            .args(["sort", "--algo", algo, "--input"])
            .arg(&data)
            .arg("--out")
            .arg(&sorted)
            .status()
            .expect("run sort");
        assert!(status.success(), "{algo} sort failed");

        let out = cli()
            .args(["verify", "--input"])
            .arg(&sorted)
            .output()
            .expect("run verify");
        assert!(out.status.success(), "{algo} output failed verification");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("SEMISORTED"), "{algo}: {text}");
        std::fs::remove_file(&sorted).ok();
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn verify_rejects_unsorted_input() {
    let data = tmp("unsorted.bin");
    cli()
        .args(["generate", "--dist", "uniform:100", "--n", "10k", "--out"])
        .arg(&data)
        .status()
        .expect("run generate");
    let out = cli()
        .args(["verify", "--input"])
        .arg(&data)
        .output()
        .expect("run verify");
    assert!(
        !out.status.success(),
        "raw generated data should fail verification"
    );
    std::fs::remove_file(&data).ok();
}

#[test]
fn sort_respects_thread_flag_and_stats() {
    let data = tmp("threads.bin");
    cli()
        .args(["generate", "--dist", "exp:1000", "--n", "50k", "--out"])
        .arg(&data)
        .status()
        .expect("generate");
    let sorted = tmp("threads_sorted.bin");
    let out = cli()
        .args(["sort", "--threads", "2", "--stats", "--input"])
        .arg(&data)
        .arg("--out")
        .arg(&sorted)
        .output()
        .expect("sort");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("scatter"), "stats should list phases: {err}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&sorted).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!cli().status().expect("run").success());
    assert!(!cli().args(["sort"]).status().expect("run").success());
    assert!(!cli()
        .args(["generate", "--dist", "nope:1", "--n", "1", "--out", "/tmp/x"])
        .status()
        .expect("run")
        .success());
}

#[test]
fn sort_writes_stats_json() {
    let data = tmp("statsjson.bin");
    cli()
        .args(["generate", "--dist", "zipf:5000", "--n", "50k", "--out"])
        .arg(&data)
        .status()
        .expect("generate");
    let sorted = tmp("statsjson_sorted.bin");
    let stats = tmp("stats.json");
    let status = cli()
        .args(["sort", "--telemetry", "deep", "--input"])
        .arg(&data)
        .arg("--out")
        .arg(&sorted)
        .arg("--stats-json")
        .arg(&stats)
        .status()
        .expect("sort");
    assert!(status.success());

    let text = std::fs::read_to_string(&stats).expect("stats file written");
    let json = semisort::Json::parse(&text).expect("stats file is valid JSON");
    assert_eq!(
        json.get("schema").and_then(semisort::Json::as_str),
        Some("semisort-stats-v2")
    );
    assert_eq!(json.get("n").and_then(semisort::Json::as_u64), Some(50_000));
    assert_eq!(
        json.get("telemetry")
            .and_then(|t| t.get("level"))
            .and_then(semisort::Json::as_str),
        Some("deep")
    );

    // The in-tree validator accepts what sort wrote, including through a
    // comma-separated alternative list spanning the schema bump…
    let status = cli()
        .args(["validate-json", "--schema", "semisort-stats-v2", "--input"])
        .arg(&stats)
        .status()
        .expect("validate");
    assert!(status.success());
    let status = cli()
        .args([
            "validate-json",
            "--schema",
            "semisort-stats-v1,semisort-stats-v2",
            "--input",
        ])
        .arg(&stats)
        .status()
        .expect("validate");
    assert!(status.success());
    // …and rejects a wrong schema expectation.
    let status = cli()
        .args(["validate-json", "--schema", "other-schema", "--input"])
        .arg(&stats)
        .status()
        .expect("validate");
    assert!(!status.success());

    for p in [&data, &sorted, &stats] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn bench_appends_trajectory_records() {
    let stats = tmp("bench_stats.json");
    let traj = tmp("bench_traj.json");
    std::fs::remove_file(&traj).ok();
    for _ in 0..2 {
        let status = cli()
            .args(["bench", "--quick", "--n", "30k", "--telemetry", "counters"])
            .arg("--stats-json")
            .arg(&stats)
            .arg("--trajectory")
            .arg(&traj)
            .status()
            .expect("bench");
        assert!(status.success());
    }
    let text = std::fs::read_to_string(&traj).expect("trajectory written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one JSONL record per bench run");
    for line in &lines {
        let rec = semisort::Json::parse(line).expect("trajectory line parses");
        assert_eq!(
            rec.get("schema").and_then(semisort::Json::as_str),
            Some("semisort-bench-v1")
        );
        assert_eq!(
            rec.get("bin").and_then(semisort::Json::as_str),
            Some("semisort-cli")
        );
        assert_eq!(
            rec.get("stats")
                .and_then(|s| s.get("schema"))
                .and_then(semisort::Json::as_str),
            Some("semisort-stats-v2")
        );
        // Both the flag echo and the registry-observed thread count.
        assert!(rec
            .get("threads")
            .and_then(semisort::Json::as_u64)
            .is_some());
        assert!(rec
            .get("threads_effective")
            .and_then(semisort::Json::as_u64)
            .is_some());
    }
    let status = cli()
        .args([
            "validate-json",
            "--jsonl",
            "--schema",
            "semisort-bench-v1",
            "--input",
        ])
        .arg(&traj)
        .status()
        .expect("validate");
    assert!(status.success());
    std::fs::remove_file(&stats).ok();
    std::fs::remove_file(&traj).ok();
}

#[test]
fn trace_emits_a_perfetto_loadable_file() {
    let trace = tmp("run.trace.json");
    // The paper's CAS path runs all five phases (the default exact
    // distribution has no pack).
    let status = cli()
        .args([
            "trace",
            "--n",
            "200k",
            "--threads",
            "2",
            "--scatter",
            "random-cas",
            "--out",
        ])
        .arg(&trace)
        .status()
        .expect("trace");
    assert!(status.success());

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let doc = semisort::Json::parse(&text).expect("trace file is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(semisort::Json::as_str),
        Some("semisort-trace-v1")
    );
    let events = doc
        .get("traceEvents")
        .and_then(semisort::Json::as_arr)
        .expect("traceEvents array");
    // Chrome Trace Event Format essentials: every event has ph/pid/tid,
    // and the five phase spans appear as "X" duration slices.
    for e in events {
        assert!(e.get("ph").and_then(semisort::Json::as_str).is_some());
        assert!(e.get("pid").and_then(semisort::Json::as_u64).is_some());
        assert!(e.get("tid").and_then(semisort::Json::as_u64).is_some());
    }
    for phase in [
        "sample_sort",
        "construct_buckets",
        "scatter",
        "local_sort",
        "pack",
    ] {
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(semisort::Json::as_str) == Some(phase)
                    && e.get("ph").and_then(semisort::Json::as_str) == Some("X")
            }),
            "phase span {phase} missing from trace"
        );
    }
    // Scheduler rows: on a 2-thread pool the run parks and/or steals.
    assert!(
        events.iter().any(|e| {
            matches!(
                e.get("name").and_then(semisort::Json::as_str),
                Some("park" | "steal")
            )
        }),
        "expected at least one scheduler event at threads=2"
    );

    // And the validator accepts the trace schema like any other artifact.
    let status = cli()
        .args(["validate-json", "--schema", "semisort-trace-v1", "--input"])
        .arg(&trace)
        .status()
        .expect("validate");
    assert!(status.success());
    std::fs::remove_file(&trace).ok();
}

#[test]
fn validate_json_roundtrips_audit_v1_reports() {
    // Round-trip of the `cargo xtask audit`/`audit-atomics` report family:
    // a document shaped exactly like the emitter's output must validate…
    let good = tmp("audit_good.json");
    std::fs::write(
        &good,
        concat!(
            "{\"schema\":\"semisort-audit-v1\",\"ok\":false,\"passes\":[",
            "{\"pass\":\"lint\",\"ok\":true,\"files_scanned\":12,\"violations\":[]},",
            "{\"pass\":\"audit-atomics\",\"ok\":false,\"files_scanned\":12,\"violations\":[",
            "{\"rule\":\"missing-ordering-contract\",\"file\":\"crates/semisort/src/scatter.rs\",",
            "\"line\":7,\"message\":\"atomic site without an ORDERING contract\"}]}]}"
        ),
    )
    .unwrap();
    let status = cli()
        .args(["validate-json", "--schema", "semisort-audit-v1", "--input"])
        .arg(&good)
        .status()
        .expect("validate");
    assert!(status.success(), "well-formed audit report must validate");

    // …a report whose `ok` flag lies about its violations must not…
    let inconsistent = tmp("audit_inconsistent.json");
    std::fs::write(
        &inconsistent,
        concat!(
            "{\"schema\":\"semisort-audit-v1\",\"ok\":true,\"passes\":[",
            "{\"pass\":\"audit-atomics\",\"ok\":true,\"files_scanned\":3,\"violations\":[",
            "{\"rule\":\"seqcst-outside-allowlist\",\"file\":\"a.rs\",\"line\":1,",
            "\"message\":\"m\"}]}]}"
        ),
    )
    .unwrap();
    let out = cli()
        .args(["validate-json", "--input"])
        .arg(&inconsistent)
        .output()
        .expect("validate");
    assert!(
        !out.status.success(),
        "ok flag disagreeing with violations must fail"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("disagrees"));

    // …and a violation record missing a required member must not either
    // (the structural check fires even without --schema).
    let truncated = tmp("audit_truncated.json");
    std::fs::write(
        &truncated,
        concat!(
            "{\"schema\":\"semisort-audit-v1\",\"ok\":false,\"passes\":[",
            "{\"pass\":\"lint\",\"ok\":false,\"files_scanned\":3,\"violations\":[",
            "{\"rule\":\"undocumented-unsafe\",\"file\":\"a.rs\",\"message\":\"m\"}]}]}"
        ),
    )
    .unwrap();
    let out = cli()
        .args(["validate-json", "--input"])
        .arg(&truncated)
        .output()
        .expect("validate");
    assert!(
        !out.status.success(),
        "violation without a line number must fail"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing `line`"));

    for p in [&good, &inconsistent, &truncated] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn validate_json_rejects_malformed_input() {
    let bad = tmp("bad.json");
    std::fs::write(&bad, "{\"schema\": \"semisort-stats-v1\",").unwrap();
    let status = cli()
        .args(["validate-json", "--input"])
        .arg(&bad)
        .status()
        .expect("validate");
    assert!(!status.success(), "truncated JSON must fail validation");
    std::fs::remove_file(&bad).ok();
}

#[test]
fn fault_flag_with_error_policy_exits_with_structured_error() {
    // Mirrors the CI chaos smoke: persistent forced overflow with a retry
    // budget of 1 under --on-overflow error must exit nonzero and print
    // one structured {"event":"error",...} line to stderr. The retry
    // ladder belongs to the paper's CAS scatter.
    let out = cli()
        .args([
            "bench",
            "--quick",
            "--scatter",
            "random-cas",
            "--n",
            "50k",
            "--on-overflow",
            "error",
            "--max-retries",
            "1",
            "--fault",
            "force-overflow:2",
            "--trajectory",
            "none",
        ])
        .output()
        .expect("bench");
    assert!(!out.status.success(), "error policy must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"event\":\"error\""), "stderr: {err}");
    assert!(
        err.contains("\"kind\":\"retries-exhausted\""),
        "stderr: {err}"
    );
}

#[test]
fn fault_flag_with_fallback_policy_degrades_and_succeeds() {
    // Same persistent fault under the default fallback policy: exit 0, and
    // the stats JSON records the degradation.
    let stats = tmp("chaos_stats.json");
    let status = cli()
        .args([
            "bench",
            "--quick",
            "--scatter",
            "random-cas",
            "--n",
            "50k",
            "--max-retries",
            "1",
            "--fault",
            "force-overflow:31",
            "--trajectory",
            "none",
        ])
        .arg("--stats-json")
        .arg(&stats)
        .status()
        .expect("bench");
    assert!(status.success(), "fallback policy must keep the run alive");
    let text = std::fs::read_to_string(&stats).expect("stats written");
    let json = semisort::Json::parse(&text).expect("stats parse");
    let outcome = json.get("outcome").expect("outcome section");
    assert_eq!(
        outcome.get("degraded").and_then(semisort::Json::as_bool),
        Some(true)
    );
    assert_eq!(
        outcome.get("reason").and_then(semisort::Json::as_str),
        Some("retries-exhausted")
    );
    std::fs::remove_file(&stats).ok();
}

#[test]
fn semisort_log_emits_span_lines() {
    let data = tmp("log.bin");
    cli()
        .args(["generate", "--dist", "uniform:50000", "--n", "50k", "--out"])
        .arg(&data)
        .status()
        .expect("generate");
    let sorted = tmp("log_sorted.bin");
    // Sort `data` under SEMISORT_LOG with `flags`, returning the stderr
    // lines of each event kind by name.
    let log = |flags: &[&str]| {
        let out = cli()
            .env("SEMISORT_LOG", "1")
            .arg("sort")
            .args(flags)
            .arg("--input")
            .arg(&data)
            .arg("--out")
            .arg(&sorted)
            .output()
            .expect("sort");
        assert!(out.status.success());
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        move |event: &str| -> Vec<String> {
            let needle = format!("{{\"event\":\"{event}\"");
            err.lines()
                .filter(|l| l.starts_with(&needle))
                .map(str::to_owned)
                .collect()
        }
    };
    let span_names = |spans: Vec<String>| -> Vec<String> {
        spans
            .iter()
            .map(|l| {
                let name = l.split("\"name\":\"").nth(1).expect("span name");
                name[..name.find('"').unwrap()].to_owned()
            })
            .collect()
    };

    // The paper's CAS path logs all five phases.
    let paper = log(&["--scatter", "random-cas"]);
    assert_eq!(
        span_names(paper("span")),
        [
            "sample_sort",
            "construct_buckets",
            "scatter",
            "local_sort",
            "pack"
        ]
    );

    // The default exact distribution has no pack, and a first call on a
    // fresh pool grows it exactly once.
    let engine = log(&[]);
    assert_eq!(
        span_names(engine("span")),
        ["sample_sort", "construct_buckets", "scatter", "local_sort"]
    );
    let scratch = engine("scratch");
    assert_eq!(scratch.len(), 1, "{scratch:?}");
    assert!(scratch[0].contains("\"grows\":1"), "{scratch:?}");

    // A forced overflow retries once: one retry line, one fault line
    // naming the plan, and the scatter span of both attempts.
    let retried = log(&["--scatter", "random-cas", "--fault", "force-overflow:1"]);
    let retries = retried("retry");
    assert_eq!(retries.len(), 1, "{retries:?}");
    assert!(retries[0].contains("\"attempt\":1"), "{retries:?}");
    let faults = retried("fault");
    assert_eq!(faults.len(), 1, "{faults:?}");
    assert!(
        faults[0].contains("\"plan\":\"force-overflow:1\"") && faults[0].contains("\"injected\":1"),
        "{faults:?}"
    );
    let names = span_names(retried("span"));
    assert_eq!(names.iter().filter(|n| *n == "scatter").count(), 2);
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&sorted).ok();
}
