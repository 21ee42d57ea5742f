//! End-to-end tests of the xtask gate binary against the fixture trees in
//! `crates/xtask/fixtures/`: each known-bad tree must produce the expected
//! diagnostic (`semisort-lint-v1` for the lint gate, `semisort-audit-v1`
//! for the atomics audit) AND a nonzero exit, the clean trees must exit 0,
//! and the real workspace must pass both gates (they guard themselves —
//! plain `cargo test` fails the moment either gate does).

use std::path::{Path, PathBuf};
use std::process::Output;

use semisort::Json;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn run_lint(root: &Path) -> (Output, Json) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(root)
        .output()
        .expect("spawn xtask");
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    let doc = Json::parse(stdout.trim())
        .unwrap_or_else(|e| panic!("stdout is not valid semisort-lint-v1 JSON: {e}\n{stdout}"));
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("semisort-lint-v1"),
        "report must carry the schema tag"
    );
    (out, doc)
}

/// Run `xtask audit-atomics --root <root>`; returns the process output and
/// the single pass entry of the `semisort-audit-v1` report.
fn run_audit_atomics(root: &Path) -> (Output, Json) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit-atomics", "--root"])
        .arg(root)
        .output()
        .expect("spawn xtask");
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    let json_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON document on stdout:\n{stdout}"));
    let doc = Json::parse(json_line.trim())
        .unwrap_or_else(|e| panic!("stdout is not valid semisort-audit-v1 JSON: {e}\n{stdout}"));
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("semisort-audit-v1"),
        "report must carry the schema tag"
    );
    let passes = doc.get("passes").and_then(Json::as_arr).expect("passes");
    assert_eq!(passes.len(), 1, "audit-atomics runs exactly one pass");
    let pass = passes[0].clone();
    assert_eq!(
        pass.get("pass").and_then(Json::as_str),
        Some("audit-atomics")
    );
    (out, pass)
}

/// `(rule, file, line)` triples of a pass entry's violations, in order.
fn violations(pass: &Json) -> Vec<(String, String, u64)> {
    pass.get("violations")
        .and_then(Json::as_arr)
        .expect("violations array")
        .iter()
        .map(|v| {
            (
                v.get("rule").and_then(Json::as_str).unwrap().to_string(),
                v.get("file").and_then(Json::as_str).unwrap().to_string(),
                v.get("line").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect()
}

/// The single violation of a one-violation report.
fn sole_violation(doc: &Json) -> &Json {
    let v = doc.get("violations").and_then(Json::as_arr).expect("array");
    assert_eq!(v.len(), 1, "expected exactly one violation, got {doc}");
    &v[0]
}

#[test]
fn missing_safety_fixture_fails_with_undocumented_unsafe() {
    let (out, doc) = run_lint(&fixture("missing_safety"));
    assert!(!out.status.success(), "lint must exit nonzero");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    let v = sole_violation(&doc);
    assert_eq!(
        v.get("rule").and_then(Json::as_str),
        Some("undocumented-unsafe")
    );
    assert_eq!(
        v.get("file").and_then(Json::as_str),
        Some("crates/semisort/src/pool.rs")
    );
    assert_eq!(v.get("line").and_then(Json::as_u64), Some(6));
}

#[test]
fn unlisted_unsafe_fixture_fails_with_allowlist_violation() {
    let (out, doc) = run_lint(&fixture("unlisted_unsafe"));
    assert!(!out.status.success(), "lint must exit nonzero");
    let v = sole_violation(&doc);
    assert_eq!(
        v.get("rule").and_then(Json::as_str),
        Some("unsafe-outside-allowlist")
    );
    assert_eq!(
        v.get("file").and_then(Json::as_str),
        Some("crates/semisort/src/driver.rs")
    );
    assert_eq!(v.get("line").and_then(Json::as_u64), Some(7));
}

#[test]
fn index_cast_fixture_fails_with_cast_violation() {
    let (out, doc) = run_lint(&fixture("index_cast"));
    assert!(!out.status.success(), "lint must exit nonzero");
    let v = sole_violation(&doc);
    assert_eq!(
        v.get("rule").and_then(Json::as_str),
        Some("as-cast-in-index")
    );
    assert_eq!(
        v.get("file").and_then(Json::as_str),
        Some("crates/semisort/src/scatter.rs")
    );
    assert_eq!(v.get("line").and_then(Json::as_u64), Some(6));
}

#[test]
fn allowlisted_unsafe_fixture_passes() {
    // The scatter module is on the unsafe allowlist: a SAFETY-documented
    // unsafe block there is not a violation.
    let (out, doc) = run_lint(&fixture("allowlisted_unsafe"));
    assert!(out.status.success(), "allowlisted unsafe must exit 0");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        doc.get("violations").and_then(Json::as_arr).map(<[_]>::len),
        Some(0)
    );
}

#[test]
fn clean_fixture_passes() {
    let (out, doc) = run_lint(&fixture("clean"));
    assert!(out.status.success(), "clean tree must exit 0");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        doc.get("violations").and_then(Json::as_arr).map(<[_]>::len),
        Some(0)
    );
    assert_eq!(doc.get("files_scanned").and_then(Json::as_u64), Some(1));
}

#[test]
fn stale_unsafe_allowlist_fixture_fails_lint() {
    // The tree's own copy of the lint source allowlists a file the tree
    // does not contain; the staleness rule reads the list from the
    // scanned tree, so the stale entry fires without recompiling.
    let (out, doc) = run_lint(&fixture("stale_allowlist"));
    assert!(!out.status.success(), "lint must exit nonzero");
    let v = doc
        .get("violations")
        .and_then(Json::as_arr)
        .expect("violations array");
    let stale: Vec<_> = v
        .iter()
        .filter(|v| v.get("rule").and_then(Json::as_str) == Some("stale-allowlist-entry"))
        .collect();
    assert_eq!(stale.len(), 1, "expected one stale entry, got {doc}");
    assert!(stale[0]
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("crates/semisort/src/vanished.rs"));
}

// ---- audit-atomics fixtures --------------------------------------------

#[test]
fn missing_ordering_fixture_fails() {
    let (out, pass) = run_audit_atomics(&fixture("atomics_missing_ordering"));
    assert!(!out.status.success(), "audit must exit nonzero");
    assert_eq!(pass.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        violations(&pass),
        vec![(
            "missing-ordering-contract".into(),
            "crates/semisort/src/scatter.rs".into(),
            12
        )]
    );
}

#[test]
fn undocumented_relaxed_fixture_fails() {
    let (out, pass) = run_audit_atomics(&fixture("atomics_undocumented_relaxed"));
    assert!(!out.status.success(), "audit must exit nonzero");
    assert_eq!(
        violations(&pass),
        vec![(
            "undocumented-relaxed".into(),
            "crates/semisort/src/scatter.rs".into(),
            13
        )]
    );
}

#[test]
fn unlisted_module_fixture_fails() {
    // The site carries a perfectly good contract — the module still is
    // not on ATOMICS_ALLOWLIST, and that alone must fail the audit.
    let (out, pass) = run_audit_atomics(&fixture("atomics_unlisted_module"));
    assert!(!out.status.success(), "audit must exit nonzero");
    assert_eq!(
        violations(&pass),
        vec![(
            "atomics-outside-allowlist".into(),
            "crates/semisort/src/driver.rs".into(),
            13
        )]
    );
}

#[test]
fn seqcst_fixture_fails() {
    let (out, pass) = run_audit_atomics(&fixture("atomics_seqcst"));
    assert!(!out.status.success(), "audit must exit nonzero");
    assert_eq!(
        violations(&pass),
        vec![(
            "seqcst-outside-allowlist".into(),
            "crates/semisort/src/scatter.rs".into(),
            13
        )]
    );
}

#[test]
fn weak_cas_without_retry_fixture_fails() {
    // Contract and manifest are both in order in this tree; the weak CAS
    // outside a retry loop is the only finding.
    let (out, pass) = run_audit_atomics(&fixture("atomics_weak_cas_no_loop"));
    assert!(!out.status.success(), "audit must exit nonzero");
    assert_eq!(
        violations(&pass),
        vec![(
            "weak-cas-without-retry".into(),
            "crates/semisort/src/scatter.rs".into(),
            16
        )]
    );
}

#[test]
fn stale_manifest_fixture_fails_both_ways() {
    // One entry lists a deleted file; the other anchors a test fn that no
    // longer exists — both staleness rules must fire, against the
    // manifest's own [[protocol]] header lines.
    let (out, pass) = run_audit_atomics(&fixture("atomics_stale_manifest"));
    assert!(!out.status.success(), "audit must exit nonzero");
    assert_eq!(
        violations(&pass),
        vec![
            (
                "stale-manifest-file".into(),
                "crates/xtask/atomics.toml".into(),
                3
            ),
            (
                "stale-manifest-test".into(),
                "crates/xtask/atomics.toml".into(),
                8
            ),
        ]
    );
}

#[test]
fn unmodeled_protocol_fixture_fails() {
    // A fully-contracted compare-exchange with no manifest in the tree:
    // the claim protocol has no loom model on record.
    let (out, pass) = run_audit_atomics(&fixture("atomics_unmodeled_protocol"));
    assert!(!out.status.success(), "audit must exit nonzero");
    assert_eq!(
        violations(&pass),
        vec![(
            "unmodeled-protocol".into(),
            "crates/semisort/src/scatter.rs".into(),
            15
        )]
    );
}

#[test]
fn stale_allowlist_fixture_fails() {
    // The tree's own copy of the auditor source allowlists a file the
    // tree does not contain; the audit reads the list from the scanned
    // tree, so the stale entry fires without recompiling the auditor.
    let (out, pass) = run_audit_atomics(&fixture("stale_allowlist"));
    assert!(!out.status.success(), "audit must exit nonzero");
    assert_eq!(
        violations(&pass),
        vec![(
            "stale-atomics-allowlist-entry".into(),
            "crates/xtask/src/audit_atomics.rs".into(),
            1
        )]
    );
}

#[test]
fn atomics_clean_fixture_passes() {
    let (out, pass) = run_audit_atomics(&fixture("atomics_clean"));
    assert!(out.status.success(), "clean tree must exit 0");
    assert_eq!(pass.get("ok").and_then(Json::as_bool), Some(true));
    assert!(violations(&pass).is_empty());
    assert_eq!(pass.get("files_scanned").and_then(Json::as_u64), Some(2));
}

#[test]
fn real_workspace_audit_is_clean() {
    // The audit gate guards the actual tree: `cargo test` fails the
    // moment someone lands an uncontracted atomic, an undocumented
    // Relaxed, a stray SeqCst, or a CAS protocol without a loom model.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let (out, pass) = run_audit_atomics(root);
    let found = violations(&pass);
    assert!(
        out.status.success(),
        "workspace audit violations:\n{found:?}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(pass.get("ok").and_then(Json::as_bool), Some(true));
    // Sanity: the scan actually visited the workspace, not an empty dir.
    assert!(pass.get("files_scanned").and_then(Json::as_u64).unwrap() > 30);
}

#[test]
fn real_workspace_is_clean() {
    // The gate guards the actual tree too: `cargo test` fails the moment
    // someone lands undocumented unsafe, an unlisted unsafe module, a
    // hot-path index cast, or a stray process::exit.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let (out, doc) = run_lint(root);
    assert!(
        out.status.success(),
        "workspace lint violations:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    // Sanity: the scan actually visited the workspace, not an empty dir.
    assert!(doc.get("files_scanned").and_then(Json::as_u64).unwrap() > 30);
}
