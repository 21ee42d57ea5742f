//! The atomics/ordering contract audit (`cargo xtask audit-atomics`).
//!
//! The paper's correctness argument rests on a handful of lock-free claim
//! protocols (CAS + linear probing, `fetch_add` slab/cursor reservation,
//! the Chase–Lev deque, the cancellation latch). Every one of them is a
//! chain of `Ordering::*` choices whose justification used to live in
//! folklore comments. This pass makes the contract machine-checked:
//!
//! - **`atomics-outside-allowlist`** — `Ordering::*` call sites may appear
//!   only in the audited module set ([`ATOMICS_ALLOWLIST`]); growing the
//!   set is an explicit, reviewed edit of this file. The loom shim
//!   (`crates/loom/`) and test files are exempt: models restate production
//!   protocols whose real sites are already under contract.
//! - **`missing-ordering-contract`** — every atomic load/store/RMW/fence
//!   site must carry an `// ORDERING:` comment (the `// SAFETY:` sibling):
//!   on the statement itself, or directly above it with only
//!   comment/attribute lines between. One contract covers one statement,
//!   however many orderings it names (`compare_exchange` has two).
//! - **`undocumented-relaxed`** — a contract for a site that uses
//!   `Ordering::Relaxed` must name the edge that actually publishes the
//!   data, as `publishes-via: <edge>` (e.g. `publishes-via: fork-join
//!   barrier`, `publishes-via: none (telemetry counter ...)`). "Relaxed is
//!   fine because something else synchronizes" is exactly the claim that
//!   must be written down.
//! - **`seqcst-outside-allowlist`** — `Ordering::SeqCst` only in
//!   [`SEQCST_ALLOWLIST`] (the Chase–Lev deque and the sleep/injector
//!   Dekker handshake, where the fence pairs genuinely need it);
//!   everywhere else SeqCst is a smell that hides a missing argument.
//! - **`weak-cas-without-retry`** — `compare_exchange_weak` may fail
//!   spuriously, so a site outside a `loop`/`while`/`for` retry scope is
//!   a correctness bug on LL/SC targets.
//! - **`invalid-manifest` / `stale-manifest-file` / `stale-manifest-test`**
//!   — the committed manifest (`crates/xtask/atomics.toml`) must parse,
//!   its protocol files must exist *and still contain atomic sites*, and
//!   each `loom_test` anchor must name a test function that exists in a
//!   `race_model.rs` file.
//! - **`unmodeled-protocol`** — any non-exempt file containing a
//!   compare-exchange must be claimed by some manifest protocol: a claim
//!   protocol cannot gain CAS sites without a loom model on record.
//! - **`stale-atomics-allowlist-entry`** — like the unsafe gate's
//!   staleness rule: allowlist entries (read from the scanned tree's own
//!   copy of this file) must name files that still exist.

use crate::manifest;
use crate::scan::{self, has_token, PassReport, SourceFile, Violation, Workspace};

/// Files (workspace-relative, `/`-separated) allowed to contain atomic
/// call sites. Everything here carries `// ORDERING:` contracts checked
/// by the `missing-ordering-contract` rule.
pub const ATOMICS_ALLOWLIST: &[&str] = &[
    "crates/baselines/src/scatter_pack.rs",
    "crates/bench/src/alloc_track.rs",
    "crates/parlay/src/hash_table.rs",
    "crates/parlay/src/rr_sort.rs",
    "crates/rayon/src/deque.rs",
    "crates/rayon/src/iter.rs",
    "crates/rayon/src/job.rs",
    "crates/rayon/src/registry.rs",
    "crates/rayon/src/trace.rs",
    "crates/semisort/src/cancel.rs",
    "crates/semisort/src/obs.rs",
    "crates/semisort/src/scatter.rs",
    "crates/semisortd/src/bin/semisortd-load.rs",
    "crates/semisortd/src/server.rs",
];

/// Files allowed to use `Ordering::SeqCst`: the Chase–Lev deque's fence
/// pairs and the registry's sleep/injector Dekker handshake, where the
/// store/load pairs on different locations need a total order.
pub const SEQCST_ALLOWLIST: &[&str] =
    &["crates/rayon/src/deque.rs", "crates/rayon/src/registry.rs"];

/// The committed protocol→model manifest, relative to the workspace root.
pub const MANIFEST_PATH: &str = "crates/xtask/atomics.toml";

/// The five ordering variants an atomic site can name.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Is `rel` exempt from the contract rules? The loom shim implements the
/// model atomics themselves, and test files (including the loom models)
/// restate protocols whose production sites are already under contract.
fn is_exempt(rel: &str) -> bool {
    rel.starts_with("crates/loom/") || rel.starts_with("tests/") || rel.contains("/tests/")
}

/// The audit pass over a loaded workspace — the entry the pass registry
/// in `main.rs` dispatches to.
pub fn run(ws: &Workspace) -> PassReport {
    let mut violations = Vec::new();
    let mut cas_files: Vec<(&str, usize)> = Vec::new(); // (rel, first CAS line)
    let mut site_counts: Vec<(&str, usize)> = Vec::new();
    for f in &ws.files {
        let sites = find_sites(&f.masked);
        site_counts.push((&f.rel, sites.len()));
        if let Some(line) = first_cas_line(&f.masked) {
            cas_files.push((&f.rel, line));
        }
        if is_exempt(&f.rel) {
            continue;
        }
        if !sites.is_empty() && !ATOMICS_ALLOWLIST.contains(&f.rel.as_str()) {
            violations.push(Violation {
                rule: "atomics-outside-allowlist",
                file: f.rel.clone(),
                line: sites[0].start_line + 1,
                message: "atomic call site outside the audited allowlist; move the \
                          code into an allowlisted module or extend ATOMICS_ALLOWLIST \
                          in crates/xtask/src/audit_atomics.rs (with review)"
                    .into(),
            });
        }
        check_contracts(f, &sites, &mut violations);
        check_weak_cas(f, &mut violations);
    }
    check_manifest(ws, &site_counts, &cas_files, &mut violations);
    check_allowlist_staleness(ws, &mut violations);
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    PassReport {
        pass: "audit-atomics",
        violations,
        files_scanned: ws.files.len(),
    }
}

// ---- site inventory ----------------------------------------------------

/// One audited atomic site: a statement using one or more `Ordering::*`
/// values (a `compare_exchange` names two; a multi-line call is one site).
#[derive(Debug, PartialEq)]
pub struct Site {
    /// 0-based line the statement starts on (where the contract binds).
    pub start_line: usize,
    /// 0-based line of the statement's last `Ordering::` occurrence.
    pub last_line: usize,
    /// Which ordering variants the site names.
    pub orderings: Vec<&'static str>,
}

impl Site {
    fn uses(&self, variant: &str) -> bool {
        self.orderings.contains(&variant)
    }
}

/// Inventory the atomic sites of one masked source text, grouping
/// `Ordering::` occurrences into statements: a line whose bracket depth is
/// still open, or that starts as a continuation (`.`, `)`, `]`, `?`,
/// `&&`, `||`), belongs to the statement above it.
pub fn find_sites(masked: &str) -> Vec<Site> {
    let lines: Vec<&str> = masked.lines().collect();
    let depths = paren_depth_at_line_start(&lines);
    let mut sites: Vec<Site> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let mut found: Vec<&'static str> = Vec::new();
        for variant in ORDERINGS {
            let needle = format!("Ordering::{variant}");
            let chars: Vec<char> = line.chars().collect();
            let mut start = 0usize;
            while let Some(pos) = line[start..].find(&needle) {
                let abs = start + pos;
                // Token boundary after the variant (so `Relaxed` does not
                // match `Relaxed2`); char index == byte index is fine here
                // because the needle is pure ASCII and we re-derive the
                // char index from the byte prefix.
                let char_idx = line[..abs].chars().count();
                let end = char_idx + needle.chars().count();
                let after_ok = end >= chars.len() || !scan::is_ident_char(chars[end]);
                if after_ok {
                    found.push(variant);
                }
                start = abs + needle.len();
            }
        }
        if found.is_empty() {
            continue;
        }
        let start_line = statement_start(&lines, &depths, idx);
        match sites.last_mut() {
            Some(site) if site.start_line == start_line => {
                site.last_line = idx;
                for v in found {
                    if !site.orderings.contains(&v) {
                        site.orderings.push(v);
                    }
                }
            }
            _ => sites.push(Site {
                start_line,
                last_line: idx,
                orderings: found,
            }),
        }
    }
    sites
}

/// Bracket (`(`/`[`) depth at the start of each line of masked code,
/// scoped to the innermost brace block: entering `{` opens a fresh
/// context, so the statements of a closure body passed as a call argument
/// (`.for_each(|..| { ... })`) are NOT continuations of the call line,
/// even though the call's paren is still open around them.
fn paren_depth_at_line_start(lines: &[&str]) -> Vec<usize> {
    let mut depths = Vec::with_capacity(lines.len());
    let mut stack: Vec<usize> = vec![0];
    for line in lines {
        depths.push(*stack.last().unwrap());
        for c in line.chars() {
            match c {
                '(' | '[' => *stack.last_mut().unwrap() += 1,
                ')' | ']' => {
                    let top = stack.last_mut().unwrap();
                    *top = top.saturating_sub(1);
                }
                '{' => stack.push(0),
                '}' if stack.len() > 1 => {
                    stack.pop();
                }
                _ => {}
            }
        }
    }
    depths
}

/// Brace (`{`) depth at the start of each line of masked code.
fn brace_depth_at_line_start(lines: &[&str]) -> Vec<usize> {
    let mut depths = Vec::with_capacity(lines.len());
    let mut depth = 0usize;
    for line in lines {
        depths.push(depth);
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    depths
}

/// Walk up from `idx` to the first line of the enclosing statement.
fn statement_start(lines: &[&str], depths: &[usize], idx: usize) -> usize {
    const CONTINUATIONS: &[&str] = &[".", ")", "]", "?", "&&", "||"];
    let mut s = idx;
    while s > 0 {
        let trimmed = lines[s].trim_start();
        let continues = depths[s] > 0 || CONTINUATIONS.iter().any(|p| trimmed.starts_with(p));
        if !continues {
            break;
        }
        s -= 1;
    }
    s
}

/// 1-based line of the first compare-exchange in masked text, if any.
fn first_cas_line(masked: &str) -> Option<usize> {
    for (idx, line) in masked.lines().enumerate() {
        if has_token(line, "compare_exchange") || has_token(line, "compare_exchange_weak") {
            return Some(idx + 1);
        }
    }
    None
}

// ---- contract grammar --------------------------------------------------

/// Find the `// ORDERING:` contract covering the statement spanning
/// 0-based `[start, last]` of `original`. Accepts a trailing comment on
/// any statement line, or a comment block directly above the statement
/// (only comment/attribute lines between); a block contract may continue
/// over following `//` lines (`publishes-via:` can sit on a continuation
/// line). Returns the contract text after the `ORDERING:` marker.
pub fn find_contract(original: &[&str], start: usize, last: usize) -> Option<String> {
    // Trailing form: `...store(x, Ordering::Release); // ORDERING: ...`
    for line in &original[start..=last.min(original.len() - 1)] {
        if let Some(pos) = line.find("// ORDERING:") {
            return Some(line[pos + "// ORDERING:".len()..].trim().to_string());
        }
    }
    // Block form above the statement.
    let mut block: Vec<&str> = Vec::new(); // comment lines, nearest first
    let mut i = start;
    while i > 0 {
        i -= 1;
        let t = original[i].trim_start();
        if t.starts_with("//") {
            block.push(t);
        } else if !t.starts_with("#[") && !t.starts_with("#!") {
            break;
        }
    }
    // `block` is ordered nearest→farthest; the contract is the nearest
    // line carrying the marker plus every comment line below it.
    let marker = block.iter().position(|l| l.contains("ORDERING:"))?;
    let mut parts: Vec<String> = Vec::new();
    let after = &block[marker][block[marker].find("ORDERING:").unwrap() + "ORDERING:".len()..];
    parts.push(after.trim().to_string());
    for l in block[..marker].iter().rev() {
        parts.push(l.trim_start_matches('/').trim().to_string());
    }
    Some(parts.join(" "))
}

/// Does a contract name a non-empty publication edge?
pub fn names_publication_edge(contract: &str) -> bool {
    contract
        .split("publishes-via:")
        .nth(1)
        .is_some_and(|rest| !rest.trim().is_empty())
}

fn check_contracts(f: &SourceFile, sites: &[Site], out: &mut Vec<Violation>) {
    let original: Vec<&str> = f.text.lines().collect();
    for site in sites {
        if site.uses("SeqCst") && !SEQCST_ALLOWLIST.contains(&f.rel.as_str()) {
            out.push(Violation {
                rule: "seqcst-outside-allowlist",
                file: f.rel.clone(),
                line: site.start_line + 1,
                message: "`Ordering::SeqCst` outside the SeqCst allowlist; justify a \
                          weaker ordering, or (for a genuine Dekker-style pattern) \
                          extend SEQCST_ALLOWLIST in crates/xtask/src/audit_atomics.rs"
                    .into(),
            });
        }
        match find_contract(&original, site.start_line, site.last_line) {
            None => out.push(Violation {
                rule: "missing-ordering-contract",
                file: f.rel.clone(),
                line: site.start_line + 1,
                message: format!(
                    "atomic site (orderings: {}) without an `// ORDERING:` contract \
                     on the statement or directly above it",
                    site.orderings.join(", ")
                ),
            }),
            Some(contract) => {
                if site.uses("Relaxed") && !names_publication_edge(&contract) {
                    out.push(Violation {
                        rule: "undocumented-relaxed",
                        file: f.rel.clone(),
                        line: site.start_line + 1,
                        message: "Relaxed site whose ORDERING contract does not name \
                                  its publication edge; add `publishes-via: <edge>` \
                                  (e.g. `publishes-via: fork-join barrier`)"
                            .into(),
                    });
                }
            }
        }
    }
}

// ---- rule: compare_exchange_weak without a retry loop ------------------

fn check_weak_cas(f: &SourceFile, out: &mut Vec<Violation>) {
    let lines: Vec<&str> = f.masked.lines().collect();
    let depths = brace_depth_at_line_start(&lines);
    for (idx, line) in lines.iter().enumerate() {
        if !has_token(line, "compare_exchange_weak") {
            continue;
        }
        let mut covered =
            has_token(line, "loop") || has_token(line, "while") || has_token(line, "for");
        let mut target = depths[idx];
        let mut i = idx;
        while !covered && i > 0 {
            i -= 1;
            if depths[i] < target {
                // Line `i` opens an enclosing block; is it a retry scope?
                if has_token(lines[i], "loop")
                    || has_token(lines[i], "while")
                    || has_token(lines[i], "for")
                {
                    covered = true;
                } else if has_token(lines[i], "fn") {
                    break;
                }
                target = depths[i];
            }
        }
        if !covered {
            out.push(Violation {
                rule: "weak-cas-without-retry",
                file: f.rel.clone(),
                line: idx + 1,
                message: "`compare_exchange_weak` outside a retry loop: the weak form \
                          may fail spuriously on LL/SC targets; wrap it in a \
                          loop/while, or use `compare_exchange`"
                    .into(),
            });
        }
    }
}

// ---- manifest checks ---------------------------------------------------

fn check_manifest(
    ws: &Workspace,
    site_counts: &[(&str, usize)],
    cas_files: &[(&str, usize)],
    out: &mut Vec<Violation>,
) {
    let manifest = match std::fs::read_to_string(ws.root.join(MANIFEST_PATH)) {
        Ok(text) => match manifest::parse(&text) {
            Ok(m) => m,
            Err(e) => {
                out.push(Violation {
                    rule: "invalid-manifest",
                    file: MANIFEST_PATH.to_string(),
                    line: e.line,
                    message: e.message,
                });
                return;
            }
        },
        Err(_) => manifest::Manifest::default(),
    };
    for p in &manifest.protocols {
        for file in &p.files {
            match site_counts.iter().find(|(rel, _)| rel == file) {
                None => out.push(Violation {
                    rule: "stale-manifest-file",
                    file: MANIFEST_PATH.to_string(),
                    line: p.line,
                    message: format!("protocol `{}` lists `{file}`, which does not exist", p.name),
                }),
                Some((_, 0)) => out.push(Violation {
                    rule: "stale-manifest-file",
                    file: MANIFEST_PATH.to_string(),
                    line: p.line,
                    message: format!(
                        "protocol `{}` lists `{file}`, which no longer has atomic \
                         sites; the entry is stale",
                        p.name
                    ),
                }),
                Some(_) => {}
            }
        }
        match p.loom_anchor() {
            None => out.push(Violation {
                rule: "stale-manifest-test",
                file: MANIFEST_PATH.to_string(),
                line: p.line,
                message: format!(
                    "protocol `{}` loom_test `{}` is not of the `path::test_fn` form",
                    p.name, p.loom_test
                ),
            }),
            Some((file, test_fn)) => {
                if !file.ends_with("race_model.rs") {
                    out.push(Violation {
                        rule: "stale-manifest-test",
                        file: MANIFEST_PATH.to_string(),
                        line: p.line,
                        message: format!(
                            "protocol `{}` loom_test must live in a race_model.rs \
                             suite, got `{file}`",
                            p.name
                        ),
                    });
                } else {
                    match ws.get(file) {
                        None => out.push(Violation {
                            rule: "stale-manifest-test",
                            file: MANIFEST_PATH.to_string(),
                            line: p.line,
                            message: format!(
                                "protocol `{}` loom_test file `{file}` does not exist",
                                p.name
                            ),
                        }),
                        Some(src) => {
                            let defines = src
                                .masked
                                .lines()
                                .any(|l| has_token(l, "fn") && has_token(l, test_fn));
                            if !defines {
                                out.push(Violation {
                                    rule: "stale-manifest-test",
                                    file: MANIFEST_PATH.to_string(),
                                    line: p.line,
                                    message: format!(
                                        "protocol `{}`: no test fn `{test_fn}` in \
                                         `{file}`; the model anchor is stale",
                                        p.name
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    for (rel, line) in cas_files {
        if is_exempt(rel) {
            continue;
        }
        if !manifest.covers(rel) {
            out.push(Violation {
                rule: "unmodeled-protocol",
                file: rel.to_string(),
                line: *line,
                message: format!(
                    "compare-exchange site in a file no manifest protocol claims; \
                     add (or extend) a [[protocol]] entry in {MANIFEST_PATH} naming \
                     the loom model that covers this claim protocol"
                ),
            });
        }
    }
}

// ---- rule: stale atomics allowlists ------------------------------------

/// Entries of the scanned tree's own `ATOMICS_ALLOWLIST`/`SEQCST_ALLOWLIST`
/// must still name existing files (mirrors the unsafe gate's staleness
/// rule; the lists are parsed from the tree so fixtures can go stale).
fn check_allowlist_staleness(ws: &Workspace, out: &mut Vec<Violation>) {
    const SELF_PATH: &str = "crates/xtask/src/audit_atomics.rs";
    let Some(src) = ws.get(SELF_PATH) else {
        return;
    };
    for list in ["ATOMICS_ALLOWLIST", "SEQCST_ALLOWLIST"] {
        let Some(entries) = scan::parse_const_string_list(&src.text, list) else {
            continue;
        };
        for entry in entries {
            if ws.get(&entry).is_none() {
                out.push(Violation {
                    rule: "stale-atomics-allowlist-entry",
                    file: SELF_PATH.to_string(),
                    line: 1,
                    message: format!(
                        "{list} entry `{entry}` names a file that no longer exists; \
                         remove the entry"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::mask_non_code;

    /// Run the per-file rules (not the manifest/staleness checks) on one
    /// synthetic source at `rel`.
    fn file_rules(rel: &str, src: &str) -> Vec<&'static str> {
        let f = SourceFile {
            rel: rel.to_string(),
            text: src.to_string(),
            masked: mask_non_code(src),
        };
        let sites = find_sites(&f.masked);
        let mut out = Vec::new();
        if !sites.is_empty() && !is_exempt(rel) && !ATOMICS_ALLOWLIST.contains(&rel) {
            out.push(Violation {
                rule: "atomics-outside-allowlist",
                file: rel.into(),
                line: sites[0].start_line + 1,
                message: String::new(),
            });
        }
        if !is_exempt(rel) {
            check_contracts(&f, &sites, &mut out);
            check_weak_cas(&f, &mut out);
        }
        out.into_iter().map(|v| v.rule).collect()
    }

    const ALLOWED: &str = "crates/semisort/src/scatter.rs"; // atomics + no SeqCst

    // ---- grammar accept/reject table -----------------------------------

    #[test]
    fn accept_block_contract_above_statement() {
        let src = "fn f(a: &A) -> u64 {\n    // ORDERING: Acquire pairs with the Release in set().\n    a.v.load(Ordering::Acquire)\n}\n";
        assert!(file_rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn accept_trailing_contract_on_statement_line() {
        let src =
            "fn f(a: &A) {\n    a.v.store(1, Ordering::Release); // ORDERING: publishes the slot; pairs with load in probe().\n}\n";
        assert!(file_rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn accept_relaxed_with_publishes_via_on_same_line() {
        let src = "fn f(a: &A) -> u64 {\n    // ORDERING: Relaxed; publishes-via: fork-join barrier.\n    a.v.load(Ordering::Relaxed)\n}\n";
        assert!(file_rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn accept_multi_line_contract_with_publishes_via_on_continuation() {
        let src = "fn f(a: &A) -> u64 {\n    // ORDERING: Relaxed — the claim cursor orders nothing itself;\n    // the claimed range is exclusive and the data is\n    // publishes-via: fork-join barrier (join precedes every read).\n    a.v.fetch_add(1, Ordering::Relaxed)\n}\n";
        assert!(file_rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn accept_one_contract_for_multi_line_compare_exchange() {
        // The CAS names two orderings across two lines; one contract on
        // the statement covers both (continuation lines join upward).
        let src = "fn f(a: &A) {\n    // ORDERING: AcqRel on success claims + publishes; Relaxed failure\n    // probe rereads; publishes-via: acquire of the winning CAS.\n    let _ = a\n        .v\n        .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed);\n}\n";
        assert!(file_rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn accept_attribute_between_contract_and_statement() {
        let src = "fn f(a: &A) -> u64 {\n    // ORDERING: Acquire pairs with Release store.\n    #[allow(unused)]\n    a.v.load(Ordering::Acquire)\n}\n";
        assert!(file_rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn reject_missing_contract() {
        let src = "fn f(a: &A) -> u64 {\n    a.v.load(Ordering::Acquire)\n}\n";
        assert_eq!(file_rules(ALLOWED, src), vec!["missing-ordering-contract"]);
    }

    #[test]
    fn reject_far_away_contract() {
        // A contract separated from the statement by a code line does not
        // bind — same adjacency discipline as `// SAFETY:`.
        let src = "fn f(a: &A) -> u64 {\n    // ORDERING: Acquire pairs with Release store.\n    let x = 1;\n    a.v.load(Ordering::Acquire) + x\n}\n";
        assert_eq!(file_rules(ALLOWED, src), vec!["missing-ordering-contract"]);
    }

    #[test]
    fn reject_relaxed_without_publishes_via() {
        let src = "fn f(a: &A) -> u64 {\n    // ORDERING: Relaxed is fine because fork/join publishes.\n    a.v.load(Ordering::Relaxed)\n}\n";
        assert_eq!(file_rules(ALLOWED, src), vec!["undocumented-relaxed"]);
    }

    #[test]
    fn reject_empty_publishes_via_edge() {
        let src = "fn f(a: &A) -> u64 {\n    // ORDERING: Relaxed; publishes-via:\n    a.v.load(Ordering::Relaxed)\n}\n";
        assert_eq!(file_rules(ALLOWED, src), vec!["undocumented-relaxed"]);
    }

    #[test]
    fn reject_contract_in_string_site_still_missing() {
        // An ORDERING marker inside a string literal is prose, but note
        // the *site* detection works on masked code, so the string's fake
        // `Ordering::Acquire` is not a site either: only the real load
        // needs (and here lacks) a contract.
        let src = "fn f(a: &A) -> u64 {\n    let _s = \"// ORDERING: Ordering::Acquire\";\n    a.v.load(Ordering::Acquire)\n}\n";
        assert_eq!(file_rules(ALLOWED, src), vec!["missing-ordering-contract"]);
    }

    #[test]
    fn ordering_in_comments_and_strings_is_not_a_site() {
        let src = "// prose about Ordering::SeqCst\nfn f() { let s = \"Ordering::Relaxed\"; let _ = s; }\n";
        assert!(file_rules("crates/semisort/src/driver.rs", src).is_empty());
    }

    // ---- allowlists ----------------------------------------------------

    #[test]
    fn atomics_outside_allowlist_is_flagged() {
        let src = "fn f(a: &A) -> u64 {\n    // ORDERING: Acquire pairs with Release store.\n    a.v.load(Ordering::Acquire)\n}\n";
        assert_eq!(
            file_rules("crates/semisort/src/driver.rs", src),
            vec!["atomics-outside-allowlist"]
        );
    }

    #[test]
    fn loom_shim_and_tests_are_exempt() {
        let src = "fn f(a: &A) -> u64 { a.v.load(Ordering::SeqCst) }\n";
        assert!(file_rules("crates/loom/src/sync.rs", src).is_empty());
        assert!(file_rules("crates/semisort/tests/race_model.rs", src).is_empty());
        assert!(file_rules("tests/scatter_differential.rs", src).is_empty());
    }

    #[test]
    fn seqcst_outside_allowlist_is_flagged() {
        let src = "fn f(a: &A) -> u64 {\n    // ORDERING: total order with the sleepers counter.\n    a.v.load(Ordering::SeqCst)\n}\n";
        assert_eq!(file_rules(ALLOWED, src), vec!["seqcst-outside-allowlist"]);
        let src_deque = src;
        assert!(file_rules("crates/rayon/src/deque.rs", src_deque).is_empty());
    }

    // ---- weak CAS ------------------------------------------------------

    #[test]
    fn weak_cas_inside_loop_is_clean() {
        let src = "fn f(a: &A) {\n    loop {\n        // ORDERING: AcqRel claim; Relaxed failure probe; publishes-via: winning CAS acquire.\n        if a.v.compare_exchange_weak(0, 1, Ordering::AcqRel, Ordering::Relaxed).is_ok() {\n            break;\n        }\n    }\n}\n";
        assert!(file_rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn weak_cas_in_while_condition_is_clean() {
        let src = "fn f(a: &A) {\n    // ORDERING: AcqRel claim; Relaxed failure probe; publishes-via: winning CAS acquire.\n    while a.v.compare_exchange_weak(0, 1, Ordering::AcqRel, Ordering::Relaxed).is_err() {}\n}\n";
        assert!(file_rules(ALLOWED, src).is_empty());
    }

    #[test]
    fn weak_cas_without_retry_is_flagged() {
        let src = "fn f(a: &A) {\n    // ORDERING: AcqRel claim; Relaxed failure probe; publishes-via: winning CAS acquire.\n    let _ = a.v.compare_exchange_weak(0, 1, Ordering::AcqRel, Ordering::Relaxed);\n}\n";
        assert_eq!(file_rules(ALLOWED, src), vec!["weak-cas-without-retry"]);
    }

    // ---- site grouping -------------------------------------------------

    #[test]
    fn sites_group_multi_line_statements() {
        let masked = mask_non_code(
            "fn f(a: &A) {\n    let _ = a\n        .v\n        .compare_exchange(0, 1, Ordering::AcqRel,\n            Ordering::Relaxed);\n    a.w.store(1, Ordering::Release);\n}\n",
        );
        let sites = find_sites(&masked);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].start_line, 1);
        assert_eq!(sites[0].orderings, vec!["AcqRel", "Relaxed"]);
        assert_eq!(sites[1].start_line, 5);
        assert_eq!(sites[1].orderings, vec!["Release"]);
    }

    #[test]
    fn fence_is_a_site() {
        let masked = mask_non_code("fn f() { fence(Ordering::SeqCst); }\n");
        assert_eq!(find_sites(&masked).len(), 1);
    }
}
