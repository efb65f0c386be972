//! Per-lint fixture suites: each fixture under `fixtures/` is analyzed
//! under a synthetic in-scope workspace path so the path-scoped rules
//! engage, and the expected finding set is pinned exactly. The `_bad`
//! fixtures double as the deny-gate regression corpus: if one of them
//! stops failing, the analyzer has lost the invariant.

use vmr_analyze::config::Config;
use vmr_analyze::{analyze_file, Finding};

fn run(path: &str, src: &str) -> Vec<Finding> {
    analyze_file(path, src, &Config::workspace_default())
}

fn unwaived_of(findings: &[Finding], lint: &str) -> usize {
    findings.iter().filter(|f| f.lint == lint && !f.waived).count()
}

/// What `--deny` computes: any unwaived finding fails the run.
fn would_fail_deny(findings: &[Finding]) -> bool {
    findings.iter().any(|f| !f.waived)
}

#[test]
fn d001_hashmap_iteration_fires() {
    let f = run("crates/solver/src/pop.rs", include_str!("../fixtures/d001_hashmap.rs"));
    // by_pm.keys(), index.iter(), seen.iter(), `for x in &by_pm`,
    // grads.values() and marks.iter() through a borrow — and nothing for
    // the BTreeMap or `.len()`.
    assert_eq!(unwaived_of(&f, "D001"), 6, "{f:#?}");
    assert_eq!(f.len(), 6, "{f:#?}");
}

#[test]
fn d001_hash_ordered_gradient_norm_fires() {
    // The clip-scale bug of `vmr_nn::optim::global_norm`: a gradient norm
    // summed in a `HashMap`'s per-process order made every clipped update
    // depend on the process. The trainer is in scope; the revert fails.
    let f = run("crates/nn/src/optim.rs", include_str!("../fixtures/d001_global_norm.rs"));
    assert_eq!(unwaived_of(&f, "D001"), 1, "{f:#?}");
    assert!(would_fail_deny(&f));
}

#[test]
fn d001_out_of_scope_path_is_exempt() {
    // Same source under a non-plan-producing path: no findings.
    let f = run("crates/telemetry/src/hist.rs", include_str!("../fixtures/d001_hashmap.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn p001_panic_vectors_fire() {
    let f = run("crates/serve/src/proto.rs", include_str!("../fixtures/p001_bad.rs"));
    // unwrap, expect, panic!, steps[0], fields["name"], unreachable!,
    // assert!, assert_eq!, todo!
    assert_eq!(unwaived_of(&f, "P001"), 9, "{f:#?}");
    assert!(would_fail_deny(&f));
}

#[test]
fn p001_structured_errors_are_clean() {
    let f = run("crates/serve/src/proto.rs", include_str!("../fixtures/p001_ok.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn a001_orderings_outside_allowlist_fire() {
    // crates/sim/src/env.rs is SeqCst-hot but not Relaxed-allowed:
    // 1 Relaxed + 2 SeqCst findings.
    let f = run("crates/sim/src/env.rs", include_str!("../fixtures/a001_bad.rs"));
    assert_eq!(unwaived_of(&f, "A001"), 3, "{f:#?}");
}

#[test]
fn a001_acquire_release_is_clean() {
    let f = run("crates/sim/src/env.rs", include_str!("../fixtures/a001_ok.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn a001_relaxed_allowed_in_telemetry() {
    // The same source under the audited telemetry allow-list path
    // produces nothing: Relaxed is allowed there, and telemetry is not
    // in the SeqCst-hot set.
    let f = run("crates/telemetry/src/counters.rs", include_str!("../fixtures/a001_bad.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn f001_narrowing_casts_fire() {
    let f = run("crates/nn/src/layers.rs", include_str!("../fixtures/f001_bad.rs"));
    assert_eq!(unwaived_of(&f, "F001"), 2, "{f:#?}");
    assert!(would_fail_deny(&f));
}

#[test]
fn f001_widening_and_tests_are_clean() {
    let f = run("crates/nn/src/layers.rs", include_str!("../fixtures/f001_ok.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn f001_tier_files_may_narrow() {
    // The identical narrowing casts inside the `Scalar` impl are its
    // whole point.
    let f = run("crates/nn/src/scalar.rs", include_str!("../fixtures/f001_bad.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn l001_io_under_session_lock_fires() {
    let f = run("crates/serve/src/session.rs", include_str!("../fixtures/l001_bad.rs"));
    // File::create and sync_all, both inside the locked scope.
    assert_eq!(unwaived_of(&f, "L001"), 2, "{f:#?}");
}

#[test]
fn l001_narrowed_block_is_clean() {
    let f = run("crates/serve/src/session.rs", include_str!("../fixtures/l001_ok.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn h001_missing_forbid_fires() {
    let f = run("crates/fake/src/lib.rs", include_str!("../fixtures/h001_missing.rs"));
    assert_eq!(unwaived_of(&f, "H001"), 1, "{f:#?}");
    // The doc comment mentioning forbid(unsafe_code) must not satisfy
    // the check — it looks at code tokens only.
}

#[test]
fn h001_present_is_clean_and_non_roots_exempt() {
    let f = run("crates/fake/src/lib.rs", include_str!("../fixtures/h001_present.rs"));
    assert!(f.is_empty(), "{f:#?}");
    // A non-root file is exempt even without the attribute.
    let f = run("crates/fake/src/inner.rs", include_str!("../fixtures/h001_missing.rs"));
    assert!(f.is_empty(), "{f:#?}");
    // So is a bin target under src/bin/.
    let f = run("crates/fake/src/bin/tool.rs", include_str!("../fixtures/h001_missing.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn waiver_hygiene_w001_w002() {
    let f = run("crates/telemetry/src/hist.rs", include_str!("../fixtures/w001_malformed.rs"));
    assert_eq!(f.iter().filter(|x| x.lint == "W001").count(), 4, "{f:#?}");
    assert_eq!(f.iter().filter(|x| x.lint == "W002").count(), 1, "{f:#?}");
    // Waiver-hygiene findings are never waivable, so deny fails.
    assert!(would_fail_deny(&f));
}

#[test]
fn waived_finding_passes_deny() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    \
               x.unwrap() // vmr-analyze: allow(P001) reason=\"fixture: demo waiver\"\n}\n";
    let f = run("crates/serve/src/proto.rs", src);
    assert_eq!(f.len(), 1);
    assert!(f[0].waived);
    assert!(!would_fail_deny(&f));
}
