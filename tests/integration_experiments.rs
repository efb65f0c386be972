//! Smoke-runs every registered experiment in-process (`--smoke` scale:
//! tiny clusters, 1–2 PPO updates per trained agent) so the full harness
//! — every table and figure of the paper — stays executable, and asserts
//! on the `Report` each returns.
//!
//! `tests/golden/<id>.json` are the outputs of the former per-experiment
//! binaries at `--smoke --seed 0`, captured before those were folded
//! into `vmr-experiments`, for the experiments whose rows are
//! reproducible run to run.

use std::collections::HashSet;
use std::path::PathBuf;

use serde_json::Value;
use vmr_bench::experiments::{self, Experiment, REGISTRY};
use vmr_bench::{cli, Ctx, Report, RunMode};
use vmr_sim::error::{SimError, SimResult};

fn smoke_report(id: &str) -> Report {
    let ctx = Ctx::new(RunMode::Smoke, 0);
    let report = experiments::run(id, &ctx)
        .unwrap_or_else(|| panic!("{id} is not registered"))
        .unwrap_or_else(|e| panic!("{id} --smoke failed: {e}"));
    assert!(!report.rows().is_empty(), "{id} produced no rows");
    for row in report.rows() {
        assert_eq!(row.len(), report.columns().len(), "{id}: row width");
    }
    let text = serde_json::to_string_pretty(&report.to_json()).unwrap();
    let parsed: Value = serde_json::from_str(&text).expect("report JSON parses");
    assert_eq!(serde_json::to_string_pretty(&parsed).unwrap(), text, "{id}: JSON round-trip");
    assert_eq!(parsed["title"], report.title());
    assert_eq!(parsed["rows"].as_array().map(Vec::len), Some(report.rows().len()));
    assert!(report.render().contains(report.title()));
    report
}

macro_rules! smoke {
    ($test:ident, $id:literal) => {
        #[test]
        fn $test() {
            smoke_report($id);
        }
    };
    ($test:ident, $id:literal, golden) => {
        #[test]
        fn $test() {
            let report = smoke_report($id);
            let golden: Value =
                serde_json::from_str(include_str!(concat!("golden/", $id, ".json"))).unwrap();
            assert_eq!(golden["title"], report.title());
            assert_eq!(golden["columns"], report.to_json()["columns"]);
            // Compared as text: a NaN cell is `null` on both sides.
            assert_eq!(
                golden["rows"].to_string(),
                report.to_json()["rows"].to_string(),
                "{} rows differ from the captured parent output",
                $id
            );
        }
    };
}

smoke!(fig01_smoke, "fig01_trace", golden);
smoke!(fig04_smoke, "fig04_mip_vs_ha");
smoke!(fig05_smoke, "fig05_staleness", golden);
smoke!(fig09_smoke, "fig09_overall");
smoke!(fig11_smoke, "fig11_probability_hist");
smoke!(fig12_smoke, "fig12_risk_seeking");
smoke!(fig15_smoke, "fig15_workload_cdf", golden);
smoke!(fig16_smoke, "fig16_mnl_generalization");
smoke!(fig17_smoke, "fig17_cluster_generalization");
smoke!(fig21_smoke, "fig21_casestudy");
smoke!(table2_smoke, "table2_affinity");
smoke!(sec53_smoke, "sec53_decomposition");
// The heavier training sweeps.
smoke!(fig10_smoke, "fig10_attention_ablation");
smoke!(fig13_smoke, "fig13_constraints");
smoke!(fig14_smoke, "fig14_mnl_goal");
smoke!(fig18_smoke, "fig18_large");
smoke!(fig19_smoke, "fig19_workload_mnl");
smoke!(fig20_smoke, "fig20_convergence");
smoke!(table3_smoke, "table3_mixed_vmtype");
smoke!(table4_smoke, "table4_mixed_resource");
smoke!(table5_smoke, "table5_workloads");
// Extension experiments (paper §7/§8 discussion and future work).
smoke!(ext01_smoke, "ext01_migration_overhead", golden);
smoke!(ext02_smoke, "ext02_swap_search");
smoke!(ext03_smoke, "ext03_scheduler_policies", golden);
smoke!(ext04_smoke, "ext04_risk_training");
smoke!(ext05_smoke, "ext05_finetune");
smoke!(ext06_smoke, "ext06_interference", golden);
smoke!(ext07_smoke, "ext07_runtime_aware", golden);
smoke!(ext08_smoke, "ext08_warmstart");
smoke!(ext09_smoke, "ext09_day_cycle");

/// The ids are the names of the 30 binaries this registry replaced.
const FORMER_BINS: [&str; 30] = [
    "fig01_trace",
    "fig04_mip_vs_ha",
    "fig05_staleness",
    "fig09_overall",
    "fig10_attention_ablation",
    "fig11_probability_hist",
    "fig12_risk_seeking",
    "fig13_constraints",
    "fig14_mnl_goal",
    "fig15_workload_cdf",
    "fig16_mnl_generalization",
    "fig17_cluster_generalization",
    "fig18_large",
    "fig19_workload_mnl",
    "fig20_convergence",
    "fig21_casestudy",
    "table2_affinity",
    "table3_mixed_vmtype",
    "table4_mixed_resource",
    "table5_workloads",
    "sec53_decomposition",
    "ext01_migration_overhead",
    "ext02_swap_search",
    "ext03_scheduler_policies",
    "ext04_risk_training",
    "ext05_finetune",
    "ext06_interference",
    "ext07_runtime_aware",
    "ext08_warmstart",
    "ext09_day_cycle",
];

#[test]
fn registry_is_exactly_the_former_bins() {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(ids, FORMER_BINS);
    assert_eq!(ids.iter().collect::<HashSet<_>>().len(), ids.len(), "duplicate id");
    let listing = experiments::list(REGISTRY);
    assert_eq!(listing.lines().count(), REGISTRY.len());
    for (line, e) in listing.lines().zip(REGISTRY) {
        assert!(line.starts_with(e.id) && line.ends_with(e.title), "{line}");
    }
    assert!(experiments::run("fig99_nothing", &Ctx::new(RunMode::Smoke, 0)).is_none());
}

fn failing(_: &Ctx) -> SimResult<Report> {
    Err(SimError::InvalidMapping("injected failure".into()))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmr-experiments-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn invoke(args: &[&str], registry: &[Experiment]) -> u8 {
    cli::main(args.iter().map(|s| s.to_string()), registry)
}

#[test]
fn all_carries_on_past_a_failure_and_exits_non_zero() {
    let pick = |id: &str| *REGISTRY.iter().find(|e| e.id == id).unwrap();
    let broken = Experiment { id: "broken", title: "always fails", body: failing };
    let registry = [pick("fig01_trace"), broken, pick("fig15_workload_cdf")];
    let out = scratch_dir("all");
    let dir = out.to_str().unwrap();

    assert_eq!(invoke(&["all", "--smoke", "--seed", "4", "--out", dir], &registry), 1);
    let summary: Value =
        serde_json::from_str(&std::fs::read_to_string(out.join("summary.json")).unwrap()).unwrap();
    let rows = summary["experiments"].as_array().unwrap();
    assert_eq!(rows.len(), 3);
    for (row, (id, status, n)) in rows.iter().zip([
        ("fig01_trace", "ok", 48),
        ("broken", "failed", 0),
        ("fig15_workload_cdf", "ok", 11),
    ]) {
        assert_eq!(row["id"], id);
        assert_eq!(row["status"], status);
        assert_eq!(row["rows"], n);
        assert_eq!(row["seed"], 4);
        assert_eq!(row["mode"], "Smoke");
        assert!(row["seconds"].as_f64().unwrap() >= 0.0);
    }
    assert!(rows[1]["error"].as_str().unwrap().contains("injected failure"));
    assert!(rows[0]["error"].is_null());
    // The rows after the failure still ran and were written.
    assert!(out.join("fig15_workload_cdf.json").exists());
    assert!(!out.join("broken.json").exists());

    // Without the failing row the same command succeeds.
    assert_eq!(invoke(&["all", "--smoke", "--out", dir], &[registry[0], registry[2]]), 0);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn single_id_writes_its_report_and_bad_invocations_are_usage_errors() {
    let out = scratch_dir("one");
    let dir = out.to_str().unwrap();
    assert_eq!(invoke(&["fig01_trace", "--smoke", "--out", dir], REGISTRY), 0);
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(out.join("fig01_trace.json")).unwrap())
            .unwrap();
    assert_eq!(doc["columns"].as_array().map(Vec::len), Some(4));
    assert!(!out.join("summary.json").exists(), "summary.json belongs to `all`");
    assert_eq!(invoke(&["list"], REGISTRY), 0);
    assert_eq!(invoke(&["fig99_nothing", "--out", dir], REGISTRY), 2);
    assert_eq!(invoke(&["--smoke"], REGISTRY), 2);
    assert_eq!(invoke(&["all", "--threshold", "300"], REGISTRY), 2);
    let broken = Experiment { id: "broken", title: "always fails", body: failing };
    assert_eq!(invoke(&["broken", "--out", dir], &[broken]), 1);
    let _ = std::fs::remove_dir_all(&out);
}
