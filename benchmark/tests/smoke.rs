//! `--scale smoke`: every workload, traced and untraced, through the real
//! binary on the `tiny` preset — the printed metric names are exactly the
//! names in `BENCHMARK.json`, every output check runs, and plans repeat
//! for a repeated seed.

use std::path::PathBuf;
use std::process::{Command, Output};

use serde_json::Value;

use vmr_benchmark::report::{END_TO_END, PER_LAYER, WIRE};
use vmr_benchmark::workload::WORKLOADS;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    let list = list.as_array().expect("a list");
    list.iter()
        .map(|e| e.get("name").and_then(Value::as_str).expect("a name").to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vmr-benchmark")).args(args).output().expect("binary runs")
}

fn smoke(workload: &str, seed: &str, trace: &str) -> (String, Value) {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.3",
        "--trace",
        trace,
        "--scale",
        "smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    (stdout, result)
}

fn fingerprints(stdout: &str) -> Vec<&str> {
    stdout.lines().filter(|l| l.starts_with("plan_fingerprint ")).collect()
}

#[test]
fn benchmark_json_states_what_the_code_measures() {
    let bench = benchmark_json();
    let keys: Vec<&String> = bench.as_object().expect("an object").keys().collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert_eq!(names(bench.get("workloads").unwrap()), WORKLOADS.map(|(n, _)| n.to_string()));
    for (entry, (_, why)) in
        bench.get("workloads").unwrap().as_array().unwrap().iter().zip(WORKLOADS)
    {
        assert_eq!(entry.get("why").and_then(Value::as_str), Some(why));
    }

    let e2e = bench.get("end_to_end").unwrap().as_array().unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    let mut bounds = Vec::new();
    for (entry, (name, unit, better, default)) in e2e.iter().zip(END_TO_END) {
        assert!(well_formed(name), "{name}");
        let field = |k: &str| entry.get(k).and_then(Value::as_str).map(str::to_string);
        assert_eq!(field("name").as_deref(), Some(name));
        assert_eq!(field("unit").as_deref(), Some(unit));
        assert_eq!(field("better").as_deref(), Some(better));
        let bound = entry.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!(
            (default..=0.25).contains(&bound),
            "{name}: bound {bound} outside [{default}, 0.25]"
        );
        bounds.push((name, bound));
    }
    let setup = bounds.iter().find(|(n, _)| *n == "setup_s").expect("setup_s is reported").1;
    assert!(bounds.iter().all(|&(_, b)| b <= setup), "setup_s carries the largest bound");

    let layer = bench.get("per_layer").unwrap().as_array().unwrap();
    assert_eq!(layer.len(), PER_LAYER.len());
    for (entry, (name, unit, better)) in layer.iter().zip(PER_LAYER) {
        assert!(well_formed(name), "{name}");
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(name));
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(unit));
        assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
    }
    let mut all: Vec<&str> =
        END_TO_END.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0)).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len(), "a metric name is used once");

    let seconds = bench.get("run_seconds").and_then(Value::as_u64).expect("run_seconds");
    assert!((1..=60).contains(&seconds));
    let command = bench.get("command").unwrap().as_array().unwrap();
    assert!(command.iter().any(|a| a.as_str() == Some("benchmark/Cargo.toml")));
    assert_eq!(bench.get("paths").unwrap().as_array().unwrap().len(), 1);
}

#[test]
fn every_workload_smokes_untraced_and_traced_with_exactly_the_stated_metrics() {
    for (workload, _) in WORKLOADS {
        for (trace, expected) in [
            ("0", END_TO_END.iter().map(|m| (m.0, m.1)).collect::<Vec<_>>()),
            ("1", PER_LAYER.iter().map(|m| (m.0, m.1)).collect::<Vec<_>>()),
        ] {
            let (stdout, result) = smoke(workload, "1", trace);
            let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{workload}");
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{stdout}");
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
            let printed: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite));
                    (name.as_str(), m.get("unit").and_then(Value::as_str).unwrap())
                })
                .collect();
            assert_eq!(printed, expected, "{workload} trace {trace}");
            for name in expected.iter().map(|e| e.0).chain(WIRE.iter().map(|m| m.0)) {
                let printed = stdout.lines().any(|l| l.split_whitespace().next() == Some(name));
                assert!(printed, "{workload} trace {trace}: {name} is printed by name");
            }
            // Every check ran: replies, final stats and snapshot, recoveries.
            assert!(stdout.contains("failed 0"), "{stdout}");
            assert!(!fingerprints(&stdout).is_empty());
            if trace == "0" {
                for (name, m) in metrics.iter() {
                    let value = m.get("value").and_then(Value::as_f64).unwrap();
                    assert!(value > 0.0, "{workload}: end-to-end metric {name} is never 0");
                }
            } else {
                assert!(stdout.contains("plans equal the served plans"), "{stdout}");
                assert!(stdout.contains("session logs equal the daemon's"), "{stdout}");
                assert!(stdout.contains("budget of one computed plan request"), "{stdout}");
                assert!(!stdout.contains("differ"), "{stdout}");
                let spans = vmr_benchmark::data_root().join(format!("trace-{workload}.json"));
                let spans = std::fs::read_to_string(spans).expect("the spans were written");
                assert!(spans.starts_with('[') && spans.contains("\"parent\""));
            }
        }
    }
}

#[test]
fn a_seed_fixes_the_committed_plans() {
    // The three workloads whose sessions have a single writer and no
    // concurrent reader; the fingerprint covers the floor cycles, which
    // every run completes whatever its length.
    for workload in ["medium_agent_f64", "small_pair_f32", "large_fleet_f32"] {
        let (first, _) = smoke(workload, "5", "0");
        let (again, _) = smoke(workload, "5", "0");
        let (other, _) = smoke(workload, "6", "0");
        assert_eq!(fingerprints(&first), fingerprints(&again), "{workload}");
        assert_ne!(fingerprints(&first), fingerprints(&other), "{workload}");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--seed", "1"][..],
        &["--workload", "small_pair_f32", "--trace", "2"][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.lines().any(|l| l.starts_with('{')), "{args:?} printed a result");
    }
}
