//! Workspace file discovery.
//!
//! Walks `crates/*/src/**` and `crates/*/tests/**` plus the top-level
//! `tests/*.rs` integration suites, in sorted order so reports are
//! stable across filesystems. The `shims/` crates are
//! vendored stand-ins for crates.io and are not held to workspace
//! invariants; `crates/analyze/fixtures/` holds deliberately-bad lint
//! fixtures (not cargo targets) and is likewise excluded — the fixture
//! tests feed them to the engine under synthetic paths instead.

use std::io;
use std::path::{Path, PathBuf};

/// A discovered file: workspace-relative path (forward slashes) plus
/// the absolute path to read.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (the lint-scope key).
    pub rel: String,
    /// Absolute path on disk.
    pub abs: PathBuf,
}

/// Recursively collects `.rs` files under `dir`, tagging each with its
/// path relative to `root`.
fn collect(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push(SourceFile { rel, abs: path });
        }
    }
    Ok(())
}

/// All lintable files in the workspace rooted at `root`.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let krate = entry?.path();
            if !krate.is_dir() {
                continue;
            }
            collect(root, &krate.join("src"), &mut out)?;
            collect(root, &krate.join("tests"), &mut out)?;
        }
    }
    // Top-level integration tests (non-recursive by convention, but a
    // recursive walk is harmless and future-proof).
    collect(root, &root.join("tests"), &mut out)?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_crate() {
        // When run from the crate dir, the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).unwrap();
        assert!(files.iter().any(|f| f.rel == "crates/analyze/src/walk.rs"));
        assert!(files.iter().any(|f| f.rel.starts_with("tests/")));
        assert!(
            !files.iter().any(|f| f.rel.contains("fixtures/") || f.rel.starts_with("shims/")),
            "fixtures and shims must not be walked"
        );
        let mut sorted = files.iter().map(|f| f.rel.clone()).collect::<Vec<_>>();
        sorted.sort();
        assert_eq!(sorted, files.iter().map(|f| f.rel.clone()).collect::<Vec<_>>());
    }
}
