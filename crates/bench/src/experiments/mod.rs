//! The experiment registry — one row per figure, table and extension —
//! and the runner behind `vmr-experiments`.
//!
//! An experiment is a plain function from a [`Ctx`] to a [`Report`]; it
//! returns the report (the binary emits it, the tests assert on it) and
//! propagates errors, so `all` carries on past a failing row and records
//! it in `summary.json`.

mod extensions;
mod figures;
mod tables;

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value};
use vmr_sim::error::SimResult;

use crate::ctx::Ctx;
use crate::report::Report;

/// One registry row.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id: the positional argument and the JSON file stem.
    pub id: &'static str,
    /// The report title.
    pub title: &'static str,
    /// The experiment body.
    pub body: fn(&Ctx) -> SimResult<Report>,
}

impl Experiment {
    /// Runs the body and titles its report.
    pub fn run(&self, ctx: &Ctx) -> SimResult<Report> {
        Ok((self.body)(ctx)?.titled(self.title))
    }
}

macro_rules! registry {
    ($( $module:ident :: $id:ident => $title:literal, )*) => {
        &[ $( Experiment { id: stringify!($id), title: $title, body: $module::$id } ),* ]
    };
}

/// Every experiment, in paper order.
pub const REGISTRY: &[Experiment] = registry![
    figures::fig01_trace => "Fig. 1: VM arrivals/exits per minute (30-min buckets)",
    figures::fig04_mip_vs_ha => "Fig. 4: FR and inference time at different MNLs (MIP vs HA)",
    figures::fig05_staleness => "Fig. 5: effect of inference time on achieved FR (plan staleness)",
    figures::fig09_overall => "Fig. 9: FR and inference time, all methods, across MNLs",
    figures::fig10_attention_ablation => "Fig. 10: test FR during training — sparse vs vanilla vs MLP",
    figures::fig11_probability_hist => "Fig. 11: VM selection probability distribution",
    figures::fig12_risk_seeking => "Fig. 12: FR vs #sampled trajectories, baseline vs thresholded",
    figures::fig13_constraints => "Fig. 13: constraint handling — Two-Stage vs Penalty vs Full-Mask",
    figures::fig14_mnl_goal => "Fig. 14: migrations used and FR achieved per FR goal",
    figures::fig15_workload_cdf => "Fig. 15: CPU usage CDF across PMs per workload level",
    figures::fig16_mnl_generalization => "Fig. 16: single agent (trained at max MNL) vs per-MNL agents",
    figures::fig17_cluster_generalization => "Fig. 17: potential-FR ratio on clusters of different sizes",
    figures::fig18_large => "Fig. 18: Large dataset — FR and time at high MNLs",
    figures::fig19_workload_mnl => "Fig. 19: FR on low/middle workloads across MNLs",
    figures::fig20_convergence => "Fig. 20: convergence on Medium vs Large clusters (test FR per update)",
    figures::fig21_casestudy => "Fig. 21: per-step migration details (case study)",
    tables::table2_affinity => "Table 2: FR under different anti-affinity levels",
    tables::table3_mixed_vmtype => "Table 3: mixed objective λ·FR64 + (1−λ)·FR16",
    tables::table4_mixed_resource => "Table 4: mixed objective λ·Mem64 + (1−λ)·FR16",
    tables::table5_workloads => "Table 5: generalization to abnormal workloads (FR on L/M/H)",
    tables::sec53_decomposition => "Sec 5.3: component decomposition (fraction of potential achieved)",
    extensions::ext01_migration_overhead => "Ext. 1: live-migration cost of HA plans (pre-copy model)",
    extensions::ext02_swap_search => "Ext. 2: swap-aware local search vs single-move methods",
    extensions::ext03_scheduler_policies => "Ext. 3: initial FR produced by each VMS placement policy",
    extensions::ext04_risk_training => "Ext. 4: standard PPO vs risk-seeking (elite-filtered) training",
    extensions::ext05_finetune => "Ext. 5: adapting a Low-workload agent to High workloads",
    extensions::ext06_interference => "Ext. 6: rescheduling with interference-derived anti-affinity",
    extensions::ext07_runtime_aware => "Ext. 7: runtime-aware rescheduling (pin VMs about to exit)",
    extensions::ext08_warmstart => "Ext. 8: cold vs HA-warm-started branch-and-bound",
    extensions::ext09_day_cycle => "Ext. 9: daily VMS churn + off-peak VMR windows",
];

/// Runs the registered experiment `id`; `None` when there is none.
pub fn run(id: &str, ctx: &Ctx) -> Option<SimResult<Report>> {
    REGISTRY.iter().find(|e| e.id == id).map(|e| e.run(ctx))
}

/// What `list` prints: one `id  title` line per row.
pub fn list(registry: &[Experiment]) -> String {
    registry.iter().map(|e| format!("{:<30}  {}\n", e.id, e.title)).collect()
}

/// Runs one experiment, prints its table and writes `<out>/<id>.json`.
/// `Ok` is the row count; `Err` is the message `summary.json` records.
pub fn run_and_emit(e: &Experiment, ctx: &Ctx, out: &Path) -> Result<usize, String> {
    let report = e.run(ctx).map_err(|err| err.to_string())?;
    println!("{}", report.render());
    let path = report.write(out, e.id).map_err(|err| format!("cannot write report: {err}"))?;
    eprintln!("(wrote {})", path.display());
    Ok(report.rows().len())
}

/// Runs every experiment of `registry` in order, carrying on past
/// failures, and writes `<out>/summary.json` — per id: status, rows,
/// seconds, seed, mode, and the error (`null` unless the row failed).
/// Returns how many rows failed.
pub fn run_all(registry: &[Experiment], ctx: &Ctx, out: &Path) -> io::Result<usize> {
    let mut rows: Vec<Value> = Vec::new();
    let mut failed = 0;
    for e in registry {
        eprintln!("== {} ==", e.id);
        let start = Instant::now();
        let (status, row_count, error) = match run_and_emit(e, ctx, out) {
            Ok(n) => ("ok", n, Value::Null),
            Err(message) => {
                eprintln!("{} failed: {message}", e.id);
                failed += 1;
                ("failed", 0, json!(message))
            }
        };
        rows.push(json!({
            "id": e.id,
            "status": status,
            "rows": row_count,
            "seconds": start.elapsed().as_secs_f64(),
            "seed": ctx.seed,
            "mode": format!("{:?}", ctx.mode),
            "error": error,
        }));
    }
    fs::create_dir_all(out)?;
    let summary = json!({ "experiments": rows });
    let body = serde_json::to_string_pretty(&summary).map_err(io::Error::other)?;
    fs::write(out.join("summary.json"), body)?;
    eprintln!("{} of {} experiments ok", registry.len() - failed, registry.len());
    Ok(failed)
}
