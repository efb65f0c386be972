//! `vmr-analyze` — the workspace invariant linter.
//!
//! This crate turns hard-won project invariants into a mechanical
//! static-analysis pass: a hand-rolled total lexer ([`lexer`]), a
//! scope tracker for test ranges and brace depth ([`scope`]), a lint
//! engine with stable IDs ([`rules`]), inline waivers ([`waiver`]) —
//! the one way to accept a finding — and human/JSON reports
//! ([`report`]). The binary (`vmr-analyze`) runs it over the whole
//! workspace in CI with `--deny`.
//!
//! The lint catalog:
//!
//! | ID | Invariant |
//! |------|-----------|
//! | D001 | plan determinism: no raw HashMap/HashSet iteration in plan-producing modules |
//! | P001 | panic safety: no `unwrap`/`expect`/panicking macros/unchecked indexing in serve request paths |
//! | A001 | atomics audit: `Relaxed` only in the audited allow-list; `SeqCst` flagged in hot paths |
//! | F001 | precision boundary: narrowing `as f32` only inside the `Scalar` impl |
//! | L001 | lock discipline: no file I/O lexically inside a held session-lock scope |
//! | H001 | hygiene: crate roots carry `#![forbid(unsafe_code)]` |
//! | W001 | waiver hygiene: malformed `vmr-analyze:` comment |
//! | W002 | waiver hygiene: stale waiver matching no finding |
//!
//! Design notes: the lexer is *total* (every byte lexes; spans
//! partition the source), so analysis never fails on weird input —
//! at worst it misclassifies and the fixture suites pin the cases that
//! matter. The rules are syntactic; their soundness comes from scoping
//! (per-path lists in [`config::Config`]) rather than type knowledge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod waiver;
pub mod walk;

use serde::Serialize;
use std::path::Path;

/// Stable lint catalog: (id, one-line description). `--list` prints
/// this; ARCHITECTURE.md's "Static analysis" section is the long form.
pub const CATALOG: &[(&str, &str)] = &[
    ("D001", "determinism: raw HashMap/HashSet iteration in plan-producing modules"),
    ("P001", "panic-safety: unwrap/expect/panics/unchecked indexing in serve request paths"),
    ("A001", "atomics: Relaxed outside allow-list; SeqCst in hot paths"),
    ("F001", "precision: narrowing `as f32` outside the `Scalar` impl"),
    ("L001", "locks: file I/O inside a held session-lock scope"),
    ("H001", "hygiene: crate root missing #![forbid(unsafe_code)]"),
    ("W001", "waivers: malformed vmr-analyze comment"),
    ("W002", "waivers: stale waiver matching no finding"),
];

/// One finding, after waiver processing.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Stable lint id from [`CATALOG`].
    pub lint: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What's wrong and what to do instead.
    pub message: String,
    /// Trimmed text of the offending line.
    pub snippet: String,
    /// Excused by an inline waiver.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub waive_reason: Option<String>,
}

/// Trimmed text of 1-based `line` in `src`.
fn line_snippet(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Analyzes one file's source under its workspace-relative path,
/// waivers applied.
pub fn analyze_file(path: &str, src: &str, cfg: &config::Config) -> Vec<Finding> {
    let tokens = lexer::lex(src);
    let scope = scope::build(src, &tokens);
    let mut waivers = waiver::collect(src, &tokens);
    let ctx = rules::Ctx { path, src, tokens: &tokens, scope: &scope, cfg };
    let raw = rules::run_all(&ctx);

    let mut findings = Vec::with_capacity(raw.len());
    for r in raw {
        let reason = waivers.claim(r.lint, r.line);
        findings.push(Finding {
            lint: r.lint.to_string(),
            path: path.to_string(),
            line: r.line,
            message: r.message,
            snippet: line_snippet(src, r.line),
            waived: reason.is_some(),
            waive_reason: reason,
        });
    }
    // Waiver hygiene: malformed comments and waivers that excused
    // nothing are findings themselves (never waivable).
    for (line, err) in &waivers.malformed {
        findings.push(Finding {
            lint: "W001".to_string(),
            path: path.to_string(),
            line: *line,
            message: format!("malformed waiver: {err}"),
            snippet: line_snippet(src, *line),
            waived: false,
            waive_reason: None,
        });
    }
    for w in waivers.waivers.iter().filter(|w| !w.used) {
        findings.push(Finding {
            lint: "W002".to_string(),
            path: path.to_string(),
            line: w.line,
            message: format!("stale waiver for {} matches no finding; remove it", w.ids.join(",")),
            snippet: line_snippet(src, w.line),
            waived: false,
            waive_reason: None,
        });
    }
    findings.sort_by(|a, b| (a.line, a.lint.as_str()).cmp(&(b.line, b.lint.as_str())));
    findings
}

/// Result of a workspace run.
pub struct Analysis {
    /// Files analyzed.
    pub files: usize,
    /// All findings across the workspace, waivers applied.
    pub findings: Vec<Finding>,
}

/// Walks and analyzes the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path, cfg: &config::Config) -> std::io::Result<Analysis> {
    let files = walk::workspace_files(root)?;
    let mut findings = Vec::new();
    for f in &files {
        let src = std::fs::read_to_string(&f.abs)?;
        findings.extend(analyze_file(&f.rel, &src, cfg));
    }
    Ok(Analysis { files: files.len(), findings })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waived_finding_is_marked() {
        let cfg = config::Config::workspace_default();
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // vmr-analyze: allow(P001) reason=\"demo\"\n}\n";
        let fs = analyze_file("crates/serve/src/proto.rs", src, &cfg);
        let p: Vec<_> = fs.iter().filter(|f| f.lint == "P001").collect();
        assert_eq!(p.len(), 1);
        assert!(p[0].waived);
        assert_eq!(p[0].waive_reason.as_deref(), Some("demo"));
        assert!(!fs.iter().any(|f| f.lint == "W002"));
    }

    #[test]
    fn stale_waiver_is_w002() {
        let cfg = config::Config::workspace_default();
        let src = "// vmr-analyze: allow(P001) reason=\"nothing here\"\nfn f() {}\n";
        let fs = analyze_file("crates/serve/src/proto.rs", src, &cfg);
        assert!(fs.iter().any(|f| f.lint == "W002"));
    }

    #[test]
    fn out_of_scope_file_is_clean() {
        let cfg = config::Config::workspace_default();
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let fs = analyze_file("crates/telemetry/src/hist.rs", src, &cfg);
        assert!(fs.is_empty(), "{fs:?}");
    }
}
