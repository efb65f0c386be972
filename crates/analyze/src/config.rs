//! Lint scoping configuration.
//!
//! Every lint is scoped to the paths where its invariant actually
//! holds; the scope lists are part of the reviewed configuration (this
//! file), not per-file annotations, so widening or narrowing a lint's
//! reach shows up in diffs here. Paths are workspace-relative with
//! forward slashes; an entry ending in `/` is a prefix, otherwise an
//! exact file match, and an entry starting with `!` takes the paths it
//! names back out of the scope.
//!
//! [`TOMBSTONES`] is T001's table: one row per deleted spelling that
//! must not come back. A later change that deletes a name adds a row
//! here, with a fixture cut from its parent's text.

/// Scope configuration for all lints.
#[derive(Debug, Clone)]
pub struct Config {
    /// D001: plan-producing modules where raw HashMap/HashSet
    /// iteration order can leak into emitted plans, and the optimizer,
    /// where it leaks into the trained weights those plans come from.
    pub d001_paths: Vec<String>,
    /// P001: vmr-serve request-path modules bound by the zero-panic
    /// contract. `client.rs` is deliberately absent: it is a
    /// client-side test/tooling library whose process is not the
    /// daemon.
    pub p001_paths: Vec<String>,
    /// A001: files allowed to use `Ordering::Relaxed` (telemetry
    /// counters and other monotone stats whose readers tolerate
    /// staleness). `crates/nn/src/par.rs` is on the list for its
    /// idle-core ledger as well as its counters: the busy count only
    /// decides how many lanes a kernel starts and publishes no data —
    /// the rows a lane writes reach the caller through `thread::scope`'s
    /// join — so a stale read can mis-size one call by a lane and never
    /// change a result (rationale in the file's module docs).
    /// `crates/nn/src/classes.rs` holds two monotone row counters
    /// (`nn_rows_total` / `nn_rows_distinct`) that publish nothing.
    pub a001_relaxed_allow: Vec<String>,
    /// A001: hot-path files where `SeqCst` (a full fence on every
    /// access) is flagged — use Acquire/Release or move the atomic out
    /// of the loop.
    pub a001_seqcst_hot: Vec<String>,
    /// F001: crates participating in the f32/f64 precision-tier scheme.
    pub f001_paths: Vec<String>,
    /// F001: where narrowing `as f32` casts are the point — the `Scalar`
    /// impl, whose `from_f64`/`from_usize` are the only casts the generic
    /// inference stack goes through.
    pub f001_tier_files: Vec<String>,
    /// L001: crates holding session locks around durable state.
    pub l001_paths: Vec<String>,
    /// T001: the tombstone rows.
    pub tombstones: &'static [Tombstone],
}

/// Does `path` fall under a scope entry and under no `!` entry?
pub fn in_scope<S: AsRef<str>>(path: &str, scopes: &[S]) -> bool {
    let names = |s: &str| if s.ends_with('/') { path.starts_with(s) } else { path == s };
    let mut inside = false;
    for s in scopes {
        match s.as_ref().strip_prefix('!') {
            Some(out) if names(out) => return false,
            Some(_) => {}
            None => inside |= names(s.as_ref()),
        }
    }
    inside
}

/// One T001 row: a spelling a commit deleted, where it must not come
/// back, and why.
#[derive(Debug)]
pub struct Tombstone {
    /// Significant-token pattern, pieces separated by spaces: an
    /// identifier or number (`*` at either end matches any prefix or
    /// suffix, as a grep without a word boundary did), `"text"` (a
    /// string literal containing `text`), `...` (any tokens up to the
    /// end of the line or the next `;`, whichever comes last), or
    /// punctuation, one token per character.
    pub pattern: &'static str,
    /// Paths the row covers, in [`in_scope`] syntax.
    pub scope: &'static [&'static str],
    /// Matches inside test code (`#[cfg(test)]` / `#[test]` bodies and
    /// `tests/` files) do not count.
    pub tests_exempt: bool,
    /// The matches that must remain in each file of the scope, as a
    /// multiset of matched text (tokens joined by one space); empty for
    /// a spelling that is gone. Rows that expect matches name one file.
    pub expect: &'static [&'static str],
    /// What replaced the spelling.
    pub reason: &'static str,
    /// The commit that deleted it; a row added with its deletion names
    /// the parent its fixture is cut from.
    pub commit: &'static str,
}

/// A row for a spelling that must not match anywhere in `scope`, test
/// code included.
const fn gone(
    pattern: &'static str,
    scope: &'static [&'static str],
    reason: &'static str,
    commit: &'static str,
) -> Tombstone {
    Tombstone { pattern, scope, tests_exempt: false, expect: &[], reason, commit }
}

const CRATES: &[&str] = &["crates/"];
const CRATES_AND_TESTS: &[&str] = &["crates/", "tests/"];
const CLI: &[&str] = &["crates/cli/src/"];
const PLANNERS: &[&str] =
    &["crates/baselines/src/", "crates/solver/src/", "crates/sim/src/shard.rs"];
const ENV: &[&str] = &["crates/sim/src/env.rs"];
const DYNAMICS: &[&str] = &["crates/sim/src/dynamics.rs"];
const CLUSTER: &[&str] = &["crates/sim/src/cluster.rs"];

const PRECISION: &str = "precision is a type, not a suffix: vmr_core has one acting path, \
    generic over ActPolicy::S; write the function generic over P::S (act_core_f32 stays as \
    the frozen benchmark's forwarder)";
const PLANNER: &str = "a planner is a PlanPolicy: the CLI plans through \
    vmr_serve::policies::PolicyRegistry and Session::plan, never a planner directly";
const GEMM: &str = "one GEMM row: every dense product runs vmr_nn::kernels::matmul_tile";
const CLASS_SEARCH: &str = "one class search per forward: Vmr2lModel::stage1_from_embeds_fwd \
    finds the row classes once, right after the embedding";
const TREE_LOOP: &str = "one tree kernel: the tree stage runs once per class through \
    vmr_nn::kernels::tree_attention_into, not a per-member loop";
const HEAD: &str = "one fused head layout: vmr_nn::kernels::attention_head_into is key-major";
const CROSS: &str = "cross probabilities on demand: every cross stage runs the fused head and \
    stage 2 recomputes its one row (MultiHeadAttention::probs_rows)";
const SCORED: &str = "a move is scored, not made: Objective::move_gain / value_after_move / \
    value_after_swap and the one ranked move scan (Objective::ranked_moves)";
const BEST_FIT: &str = "a move is scored, not made: ClusterState::best_fit_placement is the \
    one best-fit rule, Objective::move_gain the one per-PM score";
const MCTS_SEED: &str = "a move is scored, not made: MCTS is deterministic and has no seed knob";
const CLUSTER_ONCE: &str = "one cluster, checked once: ReschedEnv holds one cluster and rewinds \
    through its undo log; ClusterState::new, load and audit share cluster::derive";
const PLACEMENT: &str = "one placement rule: Vm::check_spec, Vm::check_shape, best_fit_on / \
    best_fit and Pm::alloc_vm, the only caller of Numa::try_alloc";
const SHAPES: &str = "one placement rule: DynamicCluster places over one representative per \
    PM shape, never by a scan of every PM";
const REVERSE_INDEX: &str = "one reverse-index order: ClusterState keeps every vms_on list in \
    ascending VM id after every mutation";
const ENCODER: &str = "one encoder: serde::Serialize appends compact JSON to a String in one \
    pass; no Value tree is built before the text";
const LEGALITY: &str = "one legality rule: ConstraintSet's per-VM destination rule judges every \
    move, capacity by dest_capacity_ok and conflicts by each partner's host in the placement \
    table; the vms_on scan lives on only as the proptest's reference";
const ALLOCATION: &str = "one checked allocation: Pm::alloc_vm checks and allocates in one call, \
    Pm::release_vm refuses a release larger than a node's usage (Numa::release)";
const ARENA: &str = "one arena discipline: a reused slot is a view of a buffer that keeps its \
    longest length (Tensor::reuse_as), zero-filled only past it";

/// T001's rows, grouped by the commit that deleted their spelling.
/// Test code is exempt only where the check a row replaced exempted
/// it: the probe rows and the experiments' `undo` row.
pub const TOMBSTONES: &[Tombstone] = &[
    // f663b8c: precision is a type, not a suffix.
    gone(
        "fn *_f32",
        &[
            "crates/core/src/",
            "crates/serve/src/",
            "crates/cli/src/",
            "crates/baselines/src/",
            "crates/bench/src/",
            "!crates/core/src/agent.rs",
        ],
        PRECISION,
        "f663b8c",
    ),
    Tombstone {
        expect: &["fn act_core_f32"],
        ..gone("fn *_f32", &["crates/core/src/agent.rs"], PRECISION, "f663b8c")
    },
    // c8d1387: a planner is a PlanPolicy.
    gone("ha_solve (", CLI, PLANNER, "c8d1387"),
    gone("mcts_solve (", CLI, PLANNER, "c8d1387"),
    gone("vbpp_solve (", CLI, PLANNER, "c8d1387"),
    gone("pop_solve (", CLI, PLANNER, "c8d1387"),
    gone("swap_search_solve (", CLI, PLANNER, "c8d1387"),
    gone("neuplan_solve (", CLI, PLANNER, "c8d1387"),
    gone("*branch_and_bound (", CLI, PLANNER, "c8d1387"),
    gone("*fleet_plan (", CLI, PLANNER, "c8d1387"),
    // a023415: one GEMM row.
    gone("*matmul_wide_rows*", CRATES, GEMM, "a023415"),
    gone("*matmul_wide_plain*", CRATES, GEMM, "a023415"),
    gone("*matmul_wide_blocked*", CRATES, GEMM, "a023415"),
    gone("*matmul_narrow_dyn*", CRATES, GEMM, "a023415"),
    // 8f97a2e: one class search per forward, one tree kernel.
    Tombstone {
        expect: &["find_row_classes ("],
        ..gone("*find_row_classes (", &["crates/core/src/model.rs"], CLASS_SEARCH, "8f97a2e")
    },
    gone(
        "*find_row_classes (",
        &["crates/core/src/", "!crates/core/src/model.rs"],
        CLASS_SEARCH,
        "8f97a2e",
    ),
    gone("*softmax_row_seq*", CRATES, TREE_LOOP, "8f97a2e"),
    gone("for ( j , & b ) in members*", CRATES, TREE_LOOP, "8f97a2e"),
    // 65cdffe: one fused head layout.
    gone("*attention_rows*", CRATES, HEAD, "65cdffe"),
    gone("*striped_sum_by_class*", CRATES, HEAD, "65cdffe"),
    // 0643101: cross probabilities on demand.
    gone("*attention_probs_into*", CRATES, CROSS, "0643101"),
    gone("*attention_head_probs*", CRATES, CROSS, "0643101"),
    gone("*scores_want_transpose*", CRATES, CROSS, "0643101"),
    gone("*want_cross_probs*", CRATES, CROSS, "0643101"),
    // 0a2037a: a move is scored, not made (HA, the fleet refinement).
    gone("feasible_placements", CRATES, BEST_FIT, "0a2037a"),
    gone("fragment_after_move", CRATES, BEST_FIT, "0a2037a"),
    gone("fn pm_score_of*", CRATES, BEST_FIT, "0a2037a"),
    // 6f233c8: a move is scored, not made (VBPP, MCTS, swap, B&B).
    Tombstone { tests_exempt: true, ..gone("*probe . migrate", PLANNERS, SCORED, "6f233c8") },
    Tombstone { tests_exempt: true, ..gone("*probe . undo", PLANNERS, SCORED, "6f233c8") },
    Tombstone { tests_exempt: true, ..gone("*probe . swap", PLANNERS, SCORED, "6f233c8") },
    Tombstone { tests_exempt: true, ..gone("*probe . undo_swap", PLANNERS, SCORED, "6f233c8") },
    Tombstone {
        tests_exempt: true,
        ..gone("let mut probe = ... . clone ( )", PLANNERS, SCORED, "6f233c8")
    },
    Tombstone { tests_exempt: true, ..gone("\"probe undo\"", PLANNERS, SCORED, "6f233c8") },
    Tombstone { tests_exempt: true, ..gone("\"undo probe\"", PLANNERS, SCORED, "6f233c8") },
    gone("fn top_moves", CRATES, SCORED, "6f233c8"),
    gone("fn best_single_move", CRATES, SCORED, "6f233c8"),
    gone("fn best_single", CRATES, SCORED, "6f233c8"),
    gone("fn enumerate_moves", CRATES, SCORED, "6f233c8"),
    gone("pub seed", &["crates/baselines/src/mcts.rs"], MCTS_SEED, "6f233c8"),
    // 1f10808: one cluster, checked once; the experiments score
    // without undo.
    Tombstone { tests_exempt: true, ..gone(". undo (", &["crates/bench/src/"], SCORED, "1f10808") },
    gone("*initial . clone_from*", ENV, CLUSTER_ONCE, "1f10808"),
    gone("fn reset", ENV, CLUSTER_ONCE, "1f10808"),
    gone("fn reset_to", ENV, CLUSTER_ONCE, "1f10808"),
    gone("fn initial_state", ENV, CLUSTER_ONCE, "1f10808"),
    gone("fn mark_stale", &["crates/sim/src/"], CLUSTER_ONCE, "1f10808"),
    gone("fn audit_strict", &["crates/sim/src/"], CLUSTER_ONCE, "1f10808"),
    // 754e7b8: one placement rule.
    gone("fn alloc_unchecked", CRATES_AND_TESTS, PLACEMENT, "754e7b8"),
    gone("fn release_unchecked", CRATES_AND_TESTS, PLACEMENT, "754e7b8"),
    gone("fn fill_and_churn", CRATES_AND_TESTS, PLACEMENT, "754e7b8"),
    gone(
        "*seed_from_u64 ( 0 )",
        &["crates/sim/src/env.rs", "crates/sim/src/dynamics.rs"],
        PLACEMENT,
        "754e7b8",
    ),
    gone(
        "*try_alloc (",
        &["crates/", "tests/", "!crates/sim/src/machine.rs"],
        PLACEMENT,
        "754e7b8",
    ),
    // eee8929: placement over PM shapes.
    gone("*best_fit ( & self . pms*", DYNAMICS, SHAPES, "eee8929"),
    gone("*choose_placement ( & self . pms*", DYNAMICS, SHAPES, "eee8929"),
    gone("*schedule_vm ( & self . pms*", DYNAMICS, SHAPES, "eee8929"),
    // 0a13680: one reverse-index order.
    gone("fn vms_on_sorted", CRATES, REVERSE_INDEX, "0a13680"),
    gone("fn sort_reverse_index", CRATES, REVERSE_INDEX, "0a13680"),
    gone("fn undo_swap", CRATES, REVERSE_INDEX, "0a13680"),
    gone("fn note_swap", CRATES, REVERSE_INDEX, "0a13680"),
    gone("fn note_swap_undo", CRATES, REVERSE_INDEX, "0a13680"),
    gone("*swap_remove ( pos )", CLUSTER, REVERSE_INDEX, "0a13680"),
    // a320dd1: one encoder. The derive shim writes the code it
    // generates as string literals, so the shims are searched there too.
    gone("fn __serialize (", &["crates/", "shims/"], ENCODER, "a320dd1"),
    gone("\"fn __serialize(\"", &["shims/"], ENCODER, "a320dd1"),
    // dd160b6: one arena discipline.
    gone("*reshape_reuse*", CRATES, ARENA, "dd160b6"),
    gone("*data . resize ( rows * cols*", CRATES, ARENA, "dd160b6"),
    // Deleted by the child of 05426e4: one legality rule, one checked
    // allocation.
    gone("fn check_fits", CRATES_AND_TESTS, ALLOCATION, "05426e4"),
    gone("*saturating_sub", &["crates/sim/src/machine.rs"], ALLOCATION, "05426e4"),
    gone("fn conflict_on_pm", CRATES_AND_TESTS, LEGALITY, "05426e4"),
    gone("vms_on (", &["crates/sim/src/constraints.rs"], LEGALITY, "05426e4"),
];

fn v(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

impl Config {
    /// The scope map for this workspace. Rationale for each exclusion
    /// lives in ARCHITECTURE.md's lint catalog.
    pub fn workspace_default() -> Self {
        Config {
            d001_paths: v(&[
                "crates/baselines/src/",
                "crates/solver/src/",
                "crates/sim/src/shard.rs",
                "crates/sim/src/env.rs",
                "crates/sim/src/migration.rs",
                "crates/sim/src/scheduler.rs",
                "crates/sim/src/interference.rs",
                "crates/serve/src/policies.rs",
                "crates/nn/src/optim.rs",
            ]),
            p001_paths: v(&[
                "crates/serve/src/server.rs",
                "crates/serve/src/proto.rs",
                "crates/serve/src/session.rs",
                "crates/serve/src/wal.rs",
                "crates/serve/src/policies.rs",
                "crates/serve/src/recovery.rs",
            ]),
            a001_relaxed_allow: v(&[
                "crates/telemetry/src/",
                "crates/serve/src/server.rs",
                "crates/sim/src/shard.rs",
                "crates/solver/src/pop.rs",
                "crates/nn/src/par.rs",
                "crates/nn/src/classes.rs",
            ]),
            a001_seqcst_hot: v(&["crates/sim/src/", "crates/nn/src/"]),
            f001_paths: v(&["crates/nn/src/", "crates/core/src/", "crates/rl/src/"]),
            f001_tier_files: v(&["crates/nn/src/scalar.rs"]),
            l001_paths: v(&["crates/serve/src/"]),
            tombstones: TOMBSTONES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_and_exact_matching() {
        let scopes = v(&["crates/sim/src/", "crates/serve/src/policies.rs"]);
        assert!(in_scope("crates/sim/src/env.rs", &scopes));
        assert!(in_scope("crates/serve/src/policies.rs", &scopes));
        assert!(!in_scope("crates/serve/src/server.rs", &scopes));
        assert!(!in_scope("crates/sim/tests/prop_cluster.rs", &scopes));
        let but = ["crates/", "!crates/sim/src/machine.rs"];
        assert!(in_scope("crates/sim/src/env.rs", &but));
        assert!(!in_scope("crates/sim/src/machine.rs", &but));
    }

    /// A row that expects matches counts them per file, so it names
    /// exactly one file.
    #[test]
    fn counted_rows_name_one_file() {
        for t in TOMBSTONES.iter().filter(|t| !t.expect.is_empty()) {
            assert!(
                matches!(t.scope, [one] if !one.ends_with('/') && !one.starts_with('!')),
                "T001 row `{}` expects matches but its scope is {:?}",
                t.pattern,
                t.scope
            );
        }
    }

    /// A deleted or renamed file must not leave a lint scoped to nothing.
    #[test]
    fn every_configured_path_exists() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let c = Config::workspace_default();
        let scopes = [
            &c.d001_paths,
            &c.p001_paths,
            &c.a001_relaxed_allow,
            &c.a001_seqcst_hot,
            &c.f001_paths,
            &c.f001_tier_files,
            &c.l001_paths,
        ];
        let rows = c.tombstones.iter().flat_map(|t| t.scope.iter().copied());
        let paths = scopes.into_iter().flatten().map(String::as_str).chain(rows);
        for path in paths {
            let on_disk = root.join(path.trim_start_matches('!'));
            let ok = if path.ends_with('/') { on_disk.is_dir() } else { on_disk.is_file() };
            assert!(ok, "lint scope entry `{path}` names nothing in the workspace");
        }
    }
}
