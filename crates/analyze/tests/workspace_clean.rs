//! The gate CI enforces: the real workspace has zero unwaived findings
//! (new debt must be waived in place with a reason, not silently
//! accrued).

use vmr_analyze::config::Config;
use vmr_analyze::{analyze_workspace, CATALOG};

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn workspace_has_no_unwaived_findings() {
    let root = repo_root();
    let cfg = Config::workspace_default();
    let analysis = analyze_workspace(&root, &cfg).expect("analyze workspace");
    assert!(analysis.files > 100, "walk looks truncated: {} files", analysis.files);
    let fresh: Vec<_> = analysis.findings.iter().filter(|f| !f.waived).collect();
    assert!(
        fresh.is_empty(),
        "unwaived findings in the workspace — fix them or waive with a reason:\n{}",
        fresh
            .iter()
            .map(|f| format!("  {}:{}: {} {}", f.path, f.line, f.lint, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_emitted_lint_is_in_catalog() {
    let root = repo_root();
    let cfg = Config::workspace_default();
    let analysis = analyze_workspace(&root, &cfg).expect("analyze workspace");
    for f in &analysis.findings {
        assert!(
            CATALOG.iter().any(|(id, _)| *id == f.lint),
            "finding uses unknown lint id {}",
            f.lint
        );
    }
}

#[test]
fn analyzer_is_fast_enough_for_ci() {
    // CI runs the release binary with --max-ms 5000. Debug builds are
    // slower, so the bound here is lenient — this catches accidental
    // quadratic blowups, not milliseconds.
    let root = repo_root();
    let cfg = Config::workspace_default();
    let start = std::time::Instant::now();
    let _ = analyze_workspace(&root, &cfg).expect("analyze workspace");
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs() < 30,
        "debug-build analysis took {elapsed:?}; something is quadratic"
    );
}
