//! End-to-end tests of the `vmr` operator CLI: every subcommand is
//! exercised against a freshly generated dataset in a temp directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn vmr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vmr")).args(args).output().expect("spawn vmr")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vmr-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

fn gen_dataset(name: &str) -> String {
    let path = tmp(name);
    let out = vmr(&[
        "gen",
        "--preset",
        "tiny",
        "--count",
        "3",
        "--seed",
        "5",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));
    path.to_str().unwrap().to_string()
}

#[test]
fn help_lists_all_subcommands() {
    let out = vmr(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "gen",
        "inspect",
        "train",
        "eval",
        "solve",
        "cost",
        "interfere",
        "simulate",
        "serve",
        "request",
    ] {
        assert!(text.contains(cmd), "help is missing {cmd}");
    }
}

#[test]
fn serve_and_request_round_trip() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // Start the daemon on an ephemeral port and parse the bound address
    // from its first stdout line.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_vmr"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    // Keep the reader alive for the daemon's lifetime: dropping it would
    // close the pipe and break the daemon's later prints.
    let mut daemon_stdout = BufReader::new(daemon.stdout.take().expect("stdout piped"));
    let mut first_line = String::new();
    daemon_stdout.read_line(&mut first_line).expect("daemon announces its address");
    let addr = first_line.trim().rsplit(' ').next().expect("address token").to_string();

    let run = |args: &[&str]| -> Output {
        let mut full = vec!["request", "--addr", &addr];
        full.extend_from_slice(args);
        vmr(&full)
    };
    let out = run(&[
        "--op",
        "create_session",
        "--session",
        "ops",
        "--preset",
        "tiny",
        "--seed",
        "3",
        "--mnl",
        "6",
    ]);
    assert!(out.status.success(), "create: {}", String::from_utf8_lossy(&out.stderr));
    let out = run(&[
        "--op",
        "apply_delta",
        "--session",
        "ops",
        "--delta",
        "vm_create",
        "--cpu",
        "4",
        "--mem",
        "8",
    ]);
    assert!(out.status.success(), "delta: {}", String::from_utf8_lossy(&out.stderr));
    let out = run(&["--op", "plan", "--session", "ops", "--policy", "ha", "--mnl", "4", "--json"]);
    assert!(out.status.success(), "plan: {}", String::from_utf8_lossy(&out.stderr));
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(body["policy"], "ha");
    assert!(
        body["objective_after"].as_f64().unwrap() <= body["objective_before"].as_f64().unwrap()
    );
    let out = run(&["--op", "stats", "--session", "ops"]);
    assert!(out.status.success(), "stats: {}", String::from_utf8_lossy(&out.stderr));
    // One `top` frame: the inference lines are there even before any
    // agent plan (nothing shared yet reads as 0 of 0, 100 %).
    let out = vmr(&["top", "--addr", &addr, "--once"]);
    let frame = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "top: {}", String::from_utf8_lossy(&out.stderr));
    assert!(frame.contains("attention lanes:"), "{frame}");
    assert!(frame.contains("row classes: 0 of 0 (100 %)"), "{frame}");
    // The daemon is this build on this host, so its tier line is ours.
    let tier = format!(
        "simd tier: {} (compiled) / {} (cpu)",
        vmr_nn::tier::compiled(),
        vmr_nn::tier::cpu()
    );
    assert!(frame.contains(&tier), "{frame}");
    // Snapshot to a file, then restore from it.
    let snap = tmp("cli-snap.json");
    let out = run(&["--op", "snapshot", "--session", "ops", "--out", snap.to_str().unwrap()]);
    assert!(out.status.success(), "snapshot: {}", String::from_utf8_lossy(&out.stderr));
    let out = run(&["--op", "restore", "--session", "ops", "--snapshot", snap.to_str().unwrap()]);
    assert!(out.status.success(), "restore: {}", String::from_utf8_lossy(&out.stderr));

    daemon.kill().expect("stop daemon");
    let _ = daemon.wait();
}

#[test]
fn simulate_runs_the_daily_loop() {
    let ds = gen_dataset("simulate.json");
    let out = vmr(&["simulate", "--dataset", &ds, "--days", "1", "--mnl", "4", "--json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(body["days"], 1);
    assert_eq!(body["windows"].as_array().unwrap().len(), 1);
    let fr = body["mean_fr"].as_f64().unwrap();
    assert!((0.0..=1.0).contains(&fr));
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    let out = vmr(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn gen_then_inspect() {
    let ds = gen_dataset("inspect.json");
    let out = vmr(&["inspect", "--dataset", &ds, "--index", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FR (16-core)"));
    assert!(text.contains("CPU utilization"));
}

#[test]
fn solve_ha_and_swap_report_fr() {
    let ds = gen_dataset("solve.json");
    for method in ["ha", "swap"] {
        let out = vmr(&["solve", "--dataset", &ds, "--method", method, "--mnl", "4"]);
        assert!(out.status.success(), "{method}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("FR"), "{method} output: {text}");
    }
}

#[test]
fn solve_json_output_is_parseable() {
    let ds = gen_dataset("solve_json.json");
    let out = vmr(&["solve", "--dataset", &ds, "--method", "ha", "--mnl", "3", "--json"]);
    assert!(out.status.success());
    let body: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON plan output");
    assert_eq!(body["method"], "ha");
    assert!(body["plan"].is_array());
    assert!(body["final_fr"].as_f64().unwrap() <= body["initial_fr"].as_f64().unwrap() + 1e-12);
}

#[test]
fn cost_prices_a_plan() {
    let ds = gen_dataset("cost.json");
    let out = vmr(&["cost", "--dataset", &ds, "--mnl", "4", "--streams", "2", "--json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let makespan = body["makespan_s"].as_f64().unwrap();
    let sequential = body["sequential_s"].as_f64().unwrap();
    assert!(makespan <= sequential + 1e-9);
    assert!(body["transferred_gib"].as_f64().unwrap() >= 0.0);
}

#[test]
fn interfere_reports_score() {
    let ds = gen_dataset("interfere.json");
    let out = vmr(&[
        "interfere",
        "--dataset",
        &ds,
        "--noisy-frac",
        "0.4",
        "--threshold",
        "0.3",
        "--json",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(body["cluster_score"].as_f64().unwrap() >= 0.0);
    assert!(body["noisiest"].is_array());
}

#[test]
fn missing_dataset_flag_is_an_error() {
    let out = vmr(&["inspect"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("dataset"));
}
