//! Per-lint fixture suites: each fixture under `fixtures/` is analyzed
//! under a synthetic in-scope workspace path so the path-scoped rules
//! engage, and the expected finding set is pinned exactly. The `_bad`
//! fixtures double as the deny-gate regression corpus: if one of them
//! stops failing, the analyzer has lost the invariant.

use vmr_analyze::config::{Config, Tombstone, TOMBSTONES};
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

/// The fixture cut from the parent of the commit that deleted a T001
/// row's spelling.
fn t001_fixture(commit: &str) -> &'static str {
    match commit {
        "f663b8c" => include_str!("../fixtures/t001_f663b8c.rs"),
        "c8d1387" => include_str!("../fixtures/t001_c8d1387.rs"),
        "a023415" => include_str!("../fixtures/t001_a023415.rs"),
        "8f97a2e" => include_str!("../fixtures/t001_8f97a2e.rs"),
        "65cdffe" => include_str!("../fixtures/t001_65cdffe.rs"),
        "0643101" => include_str!("../fixtures/t001_0643101.rs"),
        "0a2037a" => include_str!("../fixtures/t001_0a2037a.rs"),
        "6f233c8" => include_str!("../fixtures/t001_6f233c8.rs"),
        "1f10808" => include_str!("../fixtures/t001_1f10808.rs"),
        "754e7b8" => include_str!("../fixtures/t001_754e7b8.rs"),
        "eee8929" => include_str!("../fixtures/t001_eee8929.rs"),
        "0a13680" => include_str!("../fixtures/t001_0a13680.rs"),
        "a320dd1" => include_str!("../fixtures/t001_a320dd1.rs"),
        "dd160b6" => include_str!("../fixtures/t001_dd160b6.rs"),
        "05426e4" => include_str!("../fixtures/t001_05426e4.rs"),
        other => panic!("no T001 fixture for commit {other}"),
    }
}

/// A file path inside `scope`: its first entry, with a file name added
/// when the entry is a directory.
fn path_in(scope: &[&str]) -> String {
    let first = scope.iter().find(|s| !s.starts_with('!')).expect("a scope names a path");
    if first.ends_with('/') {
        format!("{first}scratch.rs")
    } else {
        first.to_string()
    }
}

/// `src` under `path`, analyzed with `rows` as the only tombstones:
/// the lines of the T001 findings.
fn t001_lines(rows: &'static [Tombstone], path: &str, src: &str) -> Vec<u32> {
    let cfg = Config { tombstones: rows, ..Config::workspace_default() };
    analyze_file(path, src, &cfg).iter().filter(|f| f.lint == "T001").map(|f| f.line).collect()
}

fn t001_hits(rows: &'static [Tombstone], path: &str, src: &str) -> usize {
    t001_lines(rows, path, src).len()
}

#[test]
fn t001_every_row_fires_on_its_parent_text() {
    for row in TOMBSTONES {
        let path = path_in(row.scope);
        let lines = t001_lines(std::slice::from_ref(row), &path, t001_fixture(row.commit));
        // Line 1 (a comment in every fixture) is where a missing expected
        // match is reported; a match of the parent's text is below it.
        assert!(
            lines.iter().any(|&l| l > 1),
            "T001 row `{}` does not fire on its fixture under {path}",
            row.pattern
        );
    }
}

#[test]
fn t001_deleted_names_are_flagged_in_code_only() {
    // One deleted spelling per replaced CI step, the path it is pasted
    // under, and whether the step's check covered test code.
    let names = [
        ("pub fn act_f32(&self) {}", "crates/core/src/eval.rs", true),
        ("let r = ha_solve(state, &cs, obj, mnl);", "crates/cli/src/main.rs", true),
        ("S::matmul_wide_rows(a, k, bd, n, out);", "crates/nn/src/kernels.rs", true),
        ("kernels::softmax_row_seq(&mut row);", "crates/nn/src/infer.rs", true),
        ("attention_rows(&head, q, tile, o);", "crates/nn/src/kernels.rs", true),
        ("let p = want_cross_probs;", "crates/core/src/eval.rs", true),
        ("probe.migrate(vm, pm, frag);", "crates/baselines/src/ha.rs", false),
        ("fn alloc_unchecked(pm: &mut Pm) {}", "tests/integration_sim.rs", true),
        ("pub fn audit_strict(&self) {}", "crates/sim/src/cluster.rs", true),
        ("pub fn vms_on_sorted(&self) {}", "crates/sim/src/cluster.rs", true),
        ("fn __serialize(&self) -> Value;", "shims/serde/src/lib.rs", true),
        ("t.reshape_reuse(2, 3);", "crates/nn/src/tensor.rs", true),
        ("let c = state.vms_on(pm);", "crates/sim/src/constraints.rs", true),
    ];
    for (name, path, covers_tests) in names {
        let code = format!("fn scratch() {{\n    {name}\n}}\n");
        assert!(t001_hits(TOMBSTONES, path, &code) > 0, "`{name}` under {path} is not flagged");
        let comment = format!("// {name}\n/* {name} */\nfn scratch() {{}}\n");
        assert_eq!(t001_hits(TOMBSTONES, path, &comment), 0, "`{name}` in a comment is flagged");
        let test =
            format!("#[cfg(test)]\nmod tests {{\n    fn t() {{\n        {name}\n    }}\n}}\n");
        assert_eq!(
            t001_hits(TOMBSTONES, path, &test) > 0,
            covers_tests,
            "`{name}` in a test module under {path}: flagged should be {covers_tests}"
        );
    }
}

#[test]
fn t001_expected_matches_are_counted() {
    // The one class search stays in model.rs: one call is clean, a second
    // is a finding, none is a finding.
    let model = "crates/core/src/model.rs";
    let call = "ctx.find_row_classes(vm_emb, n, tree);\n";
    assert_eq!(t001_hits(TOMBSTONES, model, call), 0);
    assert_eq!(t001_hits(TOMBSTONES, model, &call.repeat(2)), 1);
    assert_eq!(t001_hits(TOMBSTONES, model, "fn f() {}\n"), 1);
    // The same call in another vmr_core file is a second search.
    assert_eq!(t001_hits(TOMBSTONES, "crates/core/src/eval.rs", call), 1);
}

#[test]
fn t001_gap_spans_a_line_or_a_statement() {
    let rows: &'static [Tombstone] = &[Tombstone {
        pattern: "let mut probe = ... . clone ( )",
        scope: &["crates/baselines/src/"],
        tests_exempt: true,
        expect: &[],
        reason: "fixture",
        commit: "6f233c8",
    }];
    let path = "crates/baselines/src/ha.rs";
    assert_eq!(t001_hits(rows, path, "let mut probe = state.clone();\n"), 1);
    assert_eq!(t001_hits(rows, path, "let mut probe = state\n    .clone();\n"), 1);
    assert_eq!(t001_hits(rows, path, "let mut probe = a; let b = c.clone();\n"), 1);
    assert_eq!(t001_hits(rows, path, "let mut probe = a;\nlet b = c.clone();\n"), 0);
}
