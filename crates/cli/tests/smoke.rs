//! Workspace smoke test: `vmr gen → train → eval` end-to-end on a tiny
//! preset. This is the one test that exercises the whole stack through
//! the operator CLI — dataset synthesis (vmr-sim), PPO training and
//! checkpointing (vmr-core / vmr-nn), and risk-seeking evaluation —
//! wired exactly the way an operator would run it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn vmr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vmr")).args(args).output().expect("spawn vmr")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vmr-smoke-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

#[test]
fn gen_train_eval_pipeline() {
    let ds = tmp("pipeline-ds.json");
    let agent = tmp("pipeline-agent.json");
    let ds_path = ds.to_str().unwrap();
    let agent_path = agent.to_str().unwrap();

    // gen: synthesize a tiny dataset with train/val/test splits.
    let out = vmr(&["gen", "--preset", "tiny", "--count", "6", "--seed", "7", "--out", ds_path]);
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(ds.exists(), "gen did not write the dataset");

    // train: two PPO updates are enough to prove the loop turns over
    // and produces a loadable checkpoint.
    let out = vmr(&[
        "train",
        "--dataset",
        ds_path,
        "--updates",
        "2",
        "--mnl",
        "4",
        "--seed",
        "0",
        "--out",
        agent_path,
    ]);
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("trained 2 updates"), "unexpected train output: {text}");
    assert!(agent.exists(), "train did not write the checkpoint");

    // eval: risk-seeking evaluation of the fresh agent on the test
    // split; FR values must be sane rates.
    let out = vmr(&[
        "eval",
        "--dataset",
        ds_path,
        "--agent",
        agent_path,
        "--mnl",
        "4",
        "--trajectories",
        "4",
    ]);
    assert!(out.status.success(), "eval failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mean over"), "eval printed no summary: {text}");
    for line in text.lines().filter(|l| l.starts_with("mapping ")) {
        // `mapping N: FR <before> -> <after>  (M moves, T.TTs)` — the
        // two bare floats are the fragment rates; they must be rates.
        let frs: Vec<f64> = line
            .split_whitespace()
            .filter_map(|w| w.trim_end_matches(',').parse::<f64>().ok())
            .collect();
        assert_eq!(frs.len(), 2, "expected two FR values in eval line: {line}");
        assert!(
            frs.iter().all(|fr| (0.0..=1.0).contains(fr)),
            "FR outside [0, 1] in eval line: {line}"
        );
    }
}

/// An empty dataset is a usage error, refused before anything is
/// generated or written; it used to panic indexing the first mapping.
#[test]
fn gen_refuses_count_zero() {
    let ds = tmp("count-zero-ds.json");
    let _ = std::fs::remove_file(&ds);
    let out = vmr(&["gen", "--preset", "tiny", "--count", "0", "--out", ds.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: --count must be at least 1"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!ds.exists(), "nothing is written for an empty dataset");
}
