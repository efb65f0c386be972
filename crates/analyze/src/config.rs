//! Lint scoping configuration.
//!
//! Every lint is scoped to the paths where its invariant actually
//! holds; the scope lists are part of the reviewed configuration (this
//! file), not per-file annotations, so widening or narrowing a lint's
//! reach shows up in diffs here. Paths are workspace-relative with
//! forward slashes; an entry ending in `/` is a prefix, otherwise an
//! exact file match.

/// Scope configuration for all lints.
#[derive(Debug, Clone)]
pub struct Config {
    /// D001: plan-producing modules where raw `vms_on`/HashMap
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
}

/// Does `path` fall under any scope entry?
pub fn in_scope(path: &str, scopes: &[String]) -> bool {
    scopes.iter().any(|s| if s.ends_with('/') { path.starts_with(s.as_str()) } else { path == s })
}

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
        for path in scopes.into_iter().flatten() {
            let on_disk = root.join(path);
            let ok = if path.ends_with('/') { on_disk.is_dir() } else { on_disk.is_file() };
            assert!(ok, "lint scope entry `{path}` names nothing in the workspace");
        }
    }
}
