//! The unsafe-code lint gate.
//!
//! Five textual rules over the workspace's Rust sources, chosen to encode
//! the memory-safety discipline DESIGN.md §11 describes. They complement —
//! not replace — the compiler lints (`unsafe_op_in_unsafe_fn`,
//! `clippy::undocumented_unsafe_blocks`): the textual pass also covers
//! cfg'd-out code, runs in seconds without a build, and produces the
//! machine-readable `semisort-lint-v1` report CI archives.
//!
//! - **`undocumented-unsafe`** — every `unsafe` block must be immediately
//!   preceded by a `// SAFETY:` comment (same line, or directly above with
//!   only comment/attribute lines between).
//! - **`unsafe-outside-allowlist`** — the `unsafe` keyword may appear only
//!   in the audited module set ([`UNSAFE_ALLOWLIST`]); growing that set is
//!   an explicit, reviewed act of editing this file.
//! - **`stale-allowlist-entry`** — every allowlist entry must still name a
//!   file that exists: a module that was deleted or renamed must leave the
//!   list, so the audited set never silently outgrows reality. The list is
//!   read from the *scanned tree's* own `crates/xtask/src/lint.rs`, which
//!   is what lets the fixture suite carry a deliberately stale list.
//! - **`as-cast-in-index`** — no `as` casts inside index brackets in the
//!   routing/scatter/pack hot paths ([`HOT_PATHS`]): a truncating cast inside
//!   `buf[i as usize]` silently wraps on 32-bit targets where a
//!   `usize::from`/explicit widening would fail to compile.
//! - **`process-exit-outside-bin`** — `std::process::exit` only in binary
//!   roots (`src/bin/`, `src/main.rs`); library code must return errors so
//!   callers (and tests) keep control.
//!
//! The scanner ([`crate::scan`]) masks comments, strings, and char
//! literals before matching, so prose like this paragraph's mention of
//! `unsafe` never trips a rule.

use semisort::Json;

use crate::scan::{self, PassReport, Violation, Workspace};

/// Files (workspace-relative, `/`-separated) allowed to contain the
/// `unsafe` keyword. Everything here has been audited: each entry's blocks
/// carry `// SAFETY:` comments checked by the `undocumented-unsafe` rule.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/baselines/src/scatter_pack.rs",
    "crates/baselines/src/seq_two_phase.rs",
    "crates/bench/src/alloc_track.rs",
    "crates/parlay/src/counting_sort.rs",
    "crates/parlay/src/flatten.rs",
    "crates/parlay/src/hash_table.rs",
    "crates/parlay/src/pack.rs",
    "crates/parlay/src/rr_sort.rs",
    "crates/parlay/src/shared.rs",
    "crates/rayon/src/deque.rs",
    "crates/rayon/src/iter.rs",
    "crates/rayon/src/job.rs",
    "crates/rayon/src/lib.rs",
    "crates/rayon/src/registry.rs",
    "crates/rayon/src/slice.rs",
    "crates/semisort/src/local_sort.rs",
    "crates/semisort/src/pack_phase.rs",
    "crates/semisort/src/scatter.rs",
];

/// Hot-path files where the `as-cast-in-index` rule applies: the key hash,
/// the routing, scatter and pack inner loops and the region walk's gather
/// and fold, where index arithmetic runs per record.
pub const HOT_PATHS: &[&str] = &[
    "crates/semisort/src/aggregate.rs",
    "crates/semisort/src/buckets.rs",
    "crates/semisort/src/hash.rs",
    "crates/semisort/src/local_sort.rs",
    "crates/semisort/src/pack_phase.rs",
    "crates/semisort/src/scatter.rs",
];

/// The lint pass over a loaded workspace — the entry the pass registry in
/// `main.rs` dispatches to.
pub fn run(ws: &Workspace) -> PassReport {
    let mut violations = Vec::new();
    for f in &ws.files {
        violations.extend(lint_source(&f.rel, &f.text));
    }
    check_allowlist_staleness(ws, &mut violations);
    PassReport {
        pass: "lint",
        violations,
        files_scanned: ws.files.len(),
    }
}

/// The `semisort-lint-v1` document (validated in CI by
/// `semisort-cli validate-json --schema semisort-lint-v1`). Kept alongside
/// the newer aggregated `semisort-audit-v1` so existing consumers of the
/// standalone lint report keep working.
pub fn lint_v1_json(report: &PassReport) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str("semisort-lint-v1")),
        ("ok".into(), Json::Bool(report.ok())),
        (
            "files_scanned".into(),
            Json::num(report.files_scanned as u64),
        ),
        (
            "violations".into(),
            Json::Arr(report.violations.iter().map(scan::violation_json).collect()),
        ),
    ])
}

// ---- rule: stale allowlist entries -------------------------------------

/// Every entry of the scanned tree's own `UNSAFE_ALLOWLIST` must still
/// name an existing file. The list is parsed out of the tree's
/// `crates/xtask/src/lint.rs` (not this compiled binary), so a fixture
/// tree can carry its own deliberately-stale list; trees that don't ship
/// the linter (the small rule fixtures) skip the check.
fn check_allowlist_staleness(ws: &Workspace, out: &mut Vec<Violation>) {
    const SELF_PATH: &str = "crates/xtask/src/lint.rs";
    let Some(lint_src) = ws.get(SELF_PATH) else {
        return;
    };
    let Some(entries) = scan::parse_const_string_list(&lint_src.text, "UNSAFE_ALLOWLIST") else {
        return;
    };
    for entry in entries {
        if ws.get(&entry).is_none() {
            out.push(Violation {
                rule: "stale-allowlist-entry",
                file: SELF_PATH.to_string(),
                line: 1,
                message: format!(
                    "UNSAFE_ALLOWLIST entry `{entry}` names a file that no longer \
                     exists; remove the entry (the audited set must track reality)"
                ),
            });
        }
    }
}

/// Lint one file's source text. `file` is the workspace-relative path used
/// both for reporting and for the per-file rule scoping.
pub fn lint_source(file: &str, text: &str) -> Vec<Violation> {
    let original: Vec<&str> = text.lines().collect();
    let code = scan::mask_non_code(text);
    let code_lines: Vec<&str> = code.lines().collect();
    let mut out = Vec::new();
    check_unsafe_rules(file, &original, &code_lines, &mut out);
    if HOT_PATHS.contains(&file) {
        check_index_casts(file, &code, &mut out);
    }
    check_process_exit(file, &code_lines, &mut out);
    out
}

// ---- rule: unsafe placement + SAFETY comments --------------------------

fn check_unsafe_rules(
    file: &str,
    original: &[&str],
    code_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    let mut first_unsafe: Option<usize> = None;
    for (idx, line) in code_lines.iter().enumerate() {
        for col in scan::token_positions(line, "unsafe") {
            first_unsafe.get_or_insert(idx + 1);
            // Only *blocks* need a SAFETY comment here; `unsafe fn`
            // bodies are covered by `unsafe_op_in_unsafe_fn`, which
            // forces interior blocks that land right back in this rule.
            if is_unsafe_block(code_lines, idx, col + "unsafe".len())
                && !has_safety_comment(original, idx)
            {
                out.push(Violation {
                    rule: "undocumented-unsafe",
                    file: file.to_string(),
                    line: idx + 1,
                    message: "unsafe block without a `// SAFETY:` comment on the line \
                              above (or on the same line)"
                        .into(),
                });
            }
        }
    }
    if let Some(line) = first_unsafe {
        if !UNSAFE_ALLOWLIST.contains(&file) {
            out.push(Violation {
                rule: "unsafe-outside-allowlist",
                file: file.to_string(),
                line,
                message: "`unsafe` outside the audited allowlist; move the code into \
                          an allowlisted module or extend UNSAFE_ALLOWLIST in \
                          crates/xtask/src/lint.rs (with review)"
                    .into(),
            });
        }
    }
}

/// Does the `unsafe` token ending at `(line_idx, after)` introduce a block
/// (as opposed to an `unsafe fn` / `unsafe impl` / `unsafe trait` /
/// `unsafe extern` declaration)? Looks at the next non-whitespace token,
/// crossing line boundaries.
fn is_unsafe_block(code_lines: &[&str], line_idx: usize, after: usize) -> bool {
    let mut idx = line_idx;
    let mut rest = &code_lines[idx][after..];
    loop {
        let trimmed = rest.trim_start();
        if let Some(c) = trimmed.chars().next() {
            return match c {
                '{' => true,
                _ => !["fn", "impl", "trait", "extern"]
                    .iter()
                    .any(|kw| scan::token_positions(trimmed, kw).first() == Some(&0)),
            };
        }
        idx += 1;
        match code_lines.get(idx) {
            Some(l) => rest = l,
            None => return false,
        }
    }
}

/// Is the unsafe block on `line_idx` (0-based) covered by a SAFETY
/// comment? Accepts `SAFETY:` on the same line or on the lines directly
/// above, skipping only comment and attribute lines.
fn has_safety_comment(original: &[&str], line_idx: usize) -> bool {
    if original[line_idx].contains("SAFETY:") {
        return true;
    }
    let mut i = line_idx;
    while i > 0 {
        i -= 1;
        let t = original[i].trim_start();
        if t.starts_with("//") {
            if t.contains("SAFETY:") {
                return true;
            }
        } else if !t.starts_with("#[") && !t.starts_with("#!") {
            return false;
        }
    }
    false
}

// ---- rule: `as` casts inside index brackets ----------------------------

fn check_index_casts(file: &str, code: &str, out: &mut Vec<Violation>) {
    // Bracket kinds: `[` in expression position is an index (or array
    // literal — none with casts on the hot paths); `#[...]` attributes and
    // `mac![...]` invocations are not index arithmetic.
    let mut depth_index = 0usize; // open non-attribute, non-macro `[`s
    let mut stack: Vec<bool> = Vec::new(); // true = counts toward depth_index
    let mut prev_nonspace = '\0';
    let mut line = 1usize;
    let mut reported_on: Option<usize> = None;
    let bytes: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => line += 1,
            '[' => {
                let indexing = prev_nonspace != '#' && prev_nonspace != '!';
                stack.push(indexing);
                if indexing {
                    depth_index += 1;
                }
            }
            // The guard pops exactly once per `]` (no other arm matches it).
            ']' if stack.pop().unwrap_or(false) => {
                depth_index = depth_index.saturating_sub(1);
            }
            'a' if depth_index > 0
                && scan::is_token_at(&bytes, i, "as")
                && reported_on != Some(line) =>
            {
                reported_on = Some(line);
                out.push(Violation {
                    rule: "as-cast-in-index",
                    file: file.to_string(),
                    line,
                    message: "`as` cast inside index arithmetic on a hot path; hoist \
                              the cast to a named `usize` binding (or use a widening \
                              `usize::from`) before indexing"
                        .into(),
                });
            }
            _ => {}
        }
        if !c.is_whitespace() {
            prev_nonspace = c;
        }
        i += 1;
    }
}

// ---- rule: process::exit outside binaries ------------------------------

fn check_process_exit(file: &str, code_lines: &[&str], out: &mut Vec<Violation>) {
    let is_bin = file.contains("/src/bin/")
        || file.starts_with("src/bin/")
        || file.ends_with("/src/main.rs")
        || file == "src/main.rs"
        || file == "build.rs";
    if is_bin {
        return;
    }
    for (idx, line) in code_lines.iter().enumerate() {
        if line.contains("process::exit") {
            out.push(Violation {
                rule: "process-exit-outside-bin",
                file: file.to_string(),
                line: idx + 1,
                message: "`std::process::exit` outside a binary root; return a value \
                          (or an error) and let `main` decide the exit code"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(file: &str, src: &str) -> Vec<&'static str> {
        lint_source(file, src).into_iter().map(|v| v.rule).collect()
    }

    const ALLOWED: &str = "crates/semisort/src/scatter.rs"; // allowlisted + hot

    #[test]
    fn documented_unsafe_in_allowlisted_file_is_clean() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn same_line_safety_comment_is_accepted() {
        let src =
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: p valid per contract.\n}\n";
        assert!(rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn missing_safety_comment_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(rules(ALLOWED, src), vec!["undocumented-unsafe"]);
    }

    #[test]
    fn safety_comment_must_be_adjacent() {
        let src = "// SAFETY: far away.\nfn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(rules(ALLOWED, src), vec!["undocumented-unsafe"]);
    }

    #[test]
    fn attribute_between_comment_and_block_is_ok() {
        let src = "// SAFETY: fine.\n#[allow(clippy::all)]\nunsafe { work() };\n";
        assert!(rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn unsafe_fn_declaration_needs_no_block_comment() {
        // The body's interior blocks are forced (and checked) separately.
        let src = "unsafe fn f() {}\nunsafe impl Send for X {}\n";
        assert!(rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: documented but misplaced.\n    unsafe { *p }\n}\n";
        assert_eq!(
            rules("crates/semisort/src/driver.rs", src),
            vec!["unsafe-outside-allowlist"]
        );
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_ignored() {
        let src = "// unsafe in prose\nfn f() { let s = \"unsafe {\"; let _ = s; }\n/* unsafe */\n";
        assert!(rules("crates/semisort/src/driver.rs", src).is_empty());
    }

    #[test]
    fn unsafe_code_identifier_is_not_the_keyword() {
        let src = "#![deny(unsafe_code)]\nfn f() {}\n";
        assert!(rules("crates/loom/src/lib.rs", src).is_empty());
    }

    #[test]
    fn as_cast_in_index_is_flagged_on_hot_paths_only() {
        let src = "fn f(v: &[u32], i: u32) -> u32 { v[i as usize] }\n";
        assert_eq!(rules(ALLOWED, src), vec!["as-cast-in-index"]);
        assert!(rules("crates/semisort/src/driver.rs", src).is_empty());
    }

    #[test]
    fn hoisted_cast_is_clean() {
        let src = "fn f(v: &[u32], i: u32) -> u32 { let i = i as usize; v[i] }\n";
        assert!(rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn as_in_attribute_or_macro_brackets_is_ignored() {
        let src =
            "#[doc(alias = \"x as y\")]\nfn f() { let v = vec![0u8; n as usize]; let _ = v; }\n";
        assert!(rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn nested_index_cast_is_flagged() {
        let src = "fn f(v: &[u32], m: &[u32], i: u32) -> u32 { v[m[i as usize] as usize] }\n";
        let got = rules(ALLOWED, src);
        assert!(!got.is_empty() && got.iter().all(|r| *r == "as-cast-in-index"));
    }

    #[test]
    fn process_exit_placement() {
        let src = "fn f() { std::process::exit(1); }\n";
        assert_eq!(
            rules("crates/bench/src/cli.rs", src),
            vec!["process-exit-outside-bin"]
        );
        assert!(rules("src/bin/semisort-cli.rs", src).is_empty());
        assert!(rules("crates/xtask/src/main.rs", src).is_empty());
    }

    #[test]
    fn report_json_shape() {
        let report = PassReport {
            pass: "lint",
            violations: vec![Violation {
                rule: "undocumented-unsafe",
                file: "a.rs".into(),
                line: 3,
                message: "m".into(),
            }],
            files_scanned: 7,
        };
        let doc = lint_v1_json(&report).to_string();
        let back = Json::parse(&doc).expect("lint JSON must round-trip");
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("semisort-lint-v1")
        );
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(back.get("files_scanned").and_then(Json::as_u64), Some(7));
        let v = &back.get("violations").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(v.get("line").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("rule").and_then(Json::as_str),
            Some("undocumented-unsafe")
        );
    }

    #[test]
    fn raw_strings_and_char_literals_are_masked() {
        let src = "fn f() { let a = r#\"unsafe { }\"#; let b = '['; let c = '\\''; let _ = (a, b, c); }\n";
        assert!(rules(ALLOWED, src).is_empty());
    }
}
