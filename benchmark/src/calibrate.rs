//! `--calibrate`: measures this host's run-to-run spread and writes the
//! regression bounds it justifies into `BENCHMARK.json`, with the
//! numbers behind each bound beside them in `calibration.json`.
//!
//! Two sets of runs, one after the other, as the bounds are later
//! checked: within a set every run is a fresh process (own data dir, own
//! peak RSS, own telemetry registries) with its own seed; the second set
//! repeats the first one's seeds, and its medians must agree with the
//! first's within the bounds.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{json, Map, Value};

use crate::report::{END_TO_END, WIRE};
use crate::stats::{spread, Spread};
use crate::workload::WORKLOADS;

/// Runs per workload and set.
const RUNS: usize = 10;
/// Sets of runs.
const SETS: usize = 2;
/// A bound is at least this many times the widest spread measured, so
/// that run-to-run noise alone stays well inside it.
const SPREAD_MARGIN: f64 = 3.0;
/// The contract's ceiling on any bound.
const MAX_BOUND: f64 = 0.25;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The [`WIRE`] metrics a run printed by name (gated or not), after
/// checking that its last line is a result without failures.
fn parse_run(stdout: &str) -> io::Result<Vec<f64>> {
    let line = stdout.lines().last().unwrap_or_default();
    let value: Value = serde_json::from_str(line)
        .map_err(|e| invalid(format!("last line is not a result: {e:?}: {line}")))?;
    if value.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(invalid(format!("run reported failures: {line}")));
    }
    WIRE.iter()
        .map(|(name, ..)| {
            stdout
                .lines()
                .find_map(|l| {
                    let mut words = l.split_whitespace();
                    (words.next() == Some(name)).then(|| words.next()?.parse::<f64>().ok())?
                })
                .ok_or_else(|| invalid(format!("the run did not print {name}")))
        })
        .collect()
}

/// By what share of the first set's median the second set's is worse
/// (negative: better).
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    let worse_by = if better == "higher" { first - second } else { second - first };
    if first == 0.0 {
        0.0
    } else {
        worse_by / first.abs()
    }
}

/// One metric over the runs of one set: its values and their spread.
type Column = (Vec<f64>, Spread);

/// One set: every workload [`RUNS`] times, a fresh process each; one
/// [`Column`] per workload and wire metric, printed as they complete.
fn run_set(exe: &Path, seconds: u64, first_seed: u64, set: usize) -> io::Result<Vec<Vec<Column>>> {
    let mut of_set = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); WIRE.len()];
        for r in 0..RUNS {
            let seed = first_seed + 1 + r as u64;
            let out = Command::new(exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()?;
            if !out.status.success() {
                return Err(io::Error::other(format!(
                    "{workload} seed {seed} exited with {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )));
            }
            let values = parse_run(&String::from_utf8_lossy(&out.stdout))?;
            for (column, value) in columns.iter_mut().zip(values) {
                column.push(value);
            }
            eprintln!("calibrate: set {} {workload} run {}/{RUNS} done", set + 1, r + 1);
        }
        println!(
            "set {} {workload}: {RUNS} runs of {seconds} s, seeds {}..={}",
            set + 1,
            first_seed + 1,
            first_seed + RUNS as u64
        );
        println!(
            "  {:<16} {:>12} {:>12} {:>12} {:>9} {:>9}",
            "metric", "median", "q1", "q3", "iqr/med", "range/med"
        );
        let mut of_workload = Vec::new();
        for (column, (name, unit, _)) in columns.into_iter().zip(WIRE) {
            let s = spread(&column);
            println!(
                "  {name:<16} {:>12.4} {:>12.4} {:>12.4} {:>8.2}% {:>8.2}%  {unit}",
                s.median,
                s.q1,
                s.q3,
                s.iqr_share * 100.0,
                s.range_share * 100.0
            );
            of_workload.push((column, s));
        }
        of_set.push(of_workload);
    }
    Ok(of_set)
}

/// Runs every workload [`RUNS`] times on seeds `first_seed + 1 ..`, then
/// all of it again; prints median / quartiles / spreads per wire metric
/// and set, rewrites the bounds in `BENCHMARK.json`, and reports whether
/// the two sets agree within them.
pub fn calibrate(first_seed: u64) -> io::Result<()> {
    let bench_path = manifest_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&bench_path)?;
    let mut bench: Value =
        serde_json::from_str(&text).map_err(|e| invalid(format!("BENCHMARK.json: {e:?}")))?;
    let seconds = bench.get("run_seconds").and_then(Value::as_u64).unwrap_or(20);
    let exe = std::env::current_exe()?;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());

    let runs = (0..SETS)
        .map(|set| run_set(&exe, seconds, first_seed, set))
        .collect::<io::Result<Vec<_>>>()?;
    let mut record = Map::new();
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        let mut per_metric = Map::new();
        for (m, (name, unit, _)) in WIRE.iter().enumerate() {
            let sets: Vec<Value> = runs
                .iter()
                .map(|set| {
                    let (values, s) = &set[w][m];
                    json!({
                        "median": s.median, "q1": s.q1, "q3": s.q3,
                        "iqr_share": s.iqr_share, "range_share": s.range_share, "values": values
                    })
                })
                .collect();
            per_metric.insert(
                name.to_string(),
                json!({
                    "unit": unit, "gated": END_TO_END.iter().any(|e| e.0 == *name), "sets": sets
                }),
            );
        }
        record.insert(workload.to_string(), Value::Object(per_metric));
    }

    // The bound of a metric is its default or SPREAD_MARGIN times the
    // widest spread any workload showed in any set, whichever is larger.
    // The sets agree when no workload's second median is worse than its
    // first by more than that.
    let mut bounds = Map::new();
    let entries = bench.get("end_to_end").and_then(Value::as_array).cloned().unwrap_or_default();
    let mut rewritten = Vec::with_capacity(entries.len());
    let mut agree = true;
    println!(
        "bounds (default, or {SPREAD_MARGIN} x the widest iqr/median over workloads and sets):"
    );
    for entry in entries {
        let name = entry.get("name").and_then(Value::as_str).unwrap_or_default().to_string();
        let gate = END_TO_END.iter().find(|(n, ..)| *n == name);
        let &(_, unit, better, default) =
            gate.ok_or_else(|| invalid(format!("BENCHMARK.json names unknown metric {name}")))?;
        let at =
            WIRE.iter().position(|(n, ..)| *n == name).expect("gated metrics are wire metrics");
        let widest = runs.iter().flatten().map(|w| w[at].1.iqr_share).fold(0.0, f64::max);
        let drift = (0..WORKLOADS.len())
            .map(|w| worsening(runs[0][w][at].1.median, runs[SETS - 1][w][at].1.median, better))
            .fold(f64::MIN, f64::max);
        let needed = (widest * SPREAD_MARGIN * 100.0).ceil() / 100.0;
        let bound = default.max(needed).min(MAX_BOUND);
        let capped = needed > MAX_BOUND;
        agree &= drift <= bound;
        println!(
            "  {name:<16} default {default:.2} widest spread {widest:.4} -> bound {bound:.2}{}; second set worse by at most {:.2} %",
            if capped { " (capped: below 3 x the spread on this host)" } else { "" },
            drift * 100.0
        );
        bounds.insert(
            name.clone(),
            json!({
                "default": default, "widest_iqr_share": widest, "bound": bound, "capped": capped,
                "second_set_worse_by": drift
            }),
        );
        rewritten.push(json!({ "name": name, "unit": unit, "better": better, "bound": bound }));
    }
    println!("the two sets {} within the bounds", if agree { "agree" } else { "DO NOT agree" });
    if let Some(map) = bench.as_object_mut() {
        map.insert("end_to_end".to_string(), Value::Array(rewritten));
    }
    std::fs::write(&bench_path, bench.pretty() + "\n")?;
    let calibration = json!({
        "runs_per_workload_and_set": RUNS,
        "sets": SETS,
        "run_seconds": seconds,
        "first_seed": first_seed + 1,
        "cores": cores,
        "spread_margin": SPREAD_MARGIN,
        "sets_agree_within_bounds": agree,
        "bounds": Value::Object(bounds),
        "workloads": Value::Object(record)
    });
    std::fs::write(manifest_dir().join("calibration.json"), calibration.pretty() + "\n")?;
    println!(
        "wrote {} and {}",
        bench_path.display(),
        manifest_dir().join("calibration.json").display()
    );
    if agree {
        Ok(())
    } else {
        Err(io::Error::other("the second set of runs is worse than the first by more than a bound"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_parse_by_printed_name_and_failures_are_refused() {
        let lines: String = WIRE
            .iter()
            .enumerate()
            .map(|(i, (n, u, _))| format!("{n:<34} {i}.5 {u} note\n"))
            .collect();
        let ok = format!(
            "header\n{lines}{{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{{}}}}"
        );
        let values = parse_run(&ok).unwrap();
        assert_eq!(values, (0..WIRE.len()).map(|i| i as f64 + 0.5).collect::<Vec<_>>());
        let failed =
            format!("{lines}{{\"correct\":false,\"attempted\":3,\"failed\":1,\"metrics\":{{}}}}");
        assert!(parse_run(&failed).is_err());
        assert!(
            parse_run("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}").is_err()
        );
        assert!(parse_run("not json").is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, "higher") - 0.2).abs() < 1e-12);
    }
}
