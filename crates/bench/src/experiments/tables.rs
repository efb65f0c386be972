//! Tables 2–5 and the §5.3 decomposition.

use serde_json::json;
use vmr_core::config::ExtractorKind;
use vmr_sim::cluster::ClusterState;
use vmr_sim::dataset::ClusterConfig;
use vmr_sim::error::SimResult;
use vmr_sim::objective::Objective;

use crate::ctx::{mean_over, Ctx};
use crate::methods::{self, Case, MipBudget, Outcome};
use crate::report::Report;
use crate::setup::{scaled_config, synthesize_affinity, train_cluster_config};

/// Table 2 — FR under increasing hard anti-affinity levels (0 → 38.3%).
/// The two-stage framework absorbs the constraint in the stage-2 mask;
/// the exact solver respects it inside legality checks — at the extreme
/// level its search space collapses and it times out ("OOT" in the
/// paper).
pub(super) fn table2_affinity(ctx: &Ctx) -> SimResult<Report> {
    let cfg = train_cluster_config(ctx.mode);
    let train_states = ctx.states(&cfg, 6, 0)?;
    let eval_states: Vec<_> = ctx.eval_states(&cfg, 3)?.into_iter().enumerate().collect();
    let mnl = ctx.mnl_or(3, 8);
    // The paper's Table 2 target ratio per level.
    let levels = ctx.smoke_or(
        vec![(0, 0.0), (4, 0.065)],
        vec![(0, 0.0), (1, 0.0112), (2, 0.0186), (3, 0.0346), (4, 0.065), (8, 0.383)],
    );

    // Train once with moderate affinity so the policy has seen masks.
    let mut spec = ctx.spec();
    spec.train.mnl = mnl;
    let train_cs = train_states
        .iter()
        .enumerate()
        .map(|(i, s)| synthesize_affinity(s, 0.02, ctx.seed + i as u64))
        .collect();
    eprintln!("training VMR2L under affinity constraints...");
    let agent = ctx.train_constrained(&spec, train_states, train_cs)?;

    let mut report =
        Report::new(&["level", "target_ratio", "actual_ratio", "vmr2l_fr", "mip_fr", "mip_status"]);
    report.meta("mnl", mnl);
    for (level, ratio) in levels {
        let mut out_of_time = false;
        let [actual, vmr_fr, mip_fr] = mean_over(&eval_states, |(i, state)| {
            let cs = synthesize_affinity(state, ratio, ctx.seed + 77 + *i as u64);
            let actual = cs.affinity_ratio();
            let case = Case { cs, ..Case::new(ctx, state, mnl) };
            let mip = methods::mip_solve(&case, MipBudget::Reference);
            out_of_time |= !mip.proved_optimal;
            Ok([actual, methods::vmr2l(&agent, &case)?.objective, mip.objective])
        })?;
        report.row(vec![
            json!(level),
            json!(ratio),
            json!(actual),
            json!(vmr_fr),
            json!(mip_fr),
            json!(if out_of_time { "OOT/budget" } else { "ok" }),
        ]);
        eprintln!("level {level} done");
    }
    Ok(report)
}

/// Tables 3 and 4 share everything but the objective family and the
/// second fragment metric: on the Multi-Resource cluster, per λ, an
/// agent trained on the mixed objective against POP — the two FR
/// components recovered by replaying each best plan.
fn mixed_objective_table(
    ctx: &Ctx,
    second_metric: &str,
    objective: fn(f64) -> Objective,
    second: fn(&ClusterState) -> f64,
) -> SimResult<Report> {
    let cfg = scaled_config(&ClusterConfig::multi_resource(), ctx.mode);
    let train_states = ctx.states(&cfg, 6, 0)?;
    let eval_states = ctx.eval_states(&cfg, 3)?;
    let mnl = ctx.mnl_or(3, 8);

    let mut report = Report::new(&["lambda", "method", "fr16", second_metric, "obj"]);
    report.meta("mnl", mnl);
    report.meta("pms", eval_states[0].num_pms());
    for lambda in ctx.smoke_or(vec![0.0, 1.0], vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0]) {
        let obj = objective(lambda);
        // A (small) agent per λ — the reward shape changes with λ.
        let mut spec = ctx.half_spec();
        spec.train.objective = obj;
        spec.train.mnl = mnl;
        eprintln!("training VMR2L for λ={lambda}...");
        let agent = ctx.train(&spec, train_states.clone())?;

        let components = |case: &Case, o: Outcome| -> SimResult<[f64; 3]> {
            let after = methods::replay(case, &o.plan)?;
            Ok([after.fragment_rate(16), second(&after), o.objective])
        };
        let [v16, v2, vobj, p16, p2, pobj] = mean_over(&eval_states, |s| {
            let case = Case { obj, ..Case::new(ctx, s, mnl) };
            let [v16, v2, vobj] = components(&case, methods::vmr2l(&agent, &case)?)?;
            let [p16, p2, pobj] = components(&case, methods::pop(&case))?;
            Ok([v16, v2, vobj, p16, p2, pobj])
        })?;
        report.row(vec![json!(lambda), json!("VMR2L"), json!(v16), json!(v2), json!(vobj)]);
        report.row(vec![json!(lambda), json!("POP"), json!(p16), json!(p2), json!(pobj)]);
        eprintln!("lambda {lambda} done");
    }
    Ok(report)
}

/// Table 3 — mixed multi-VM-type objective λ·FR64 + (1−λ)·FR16 (§5.5.2).
pub(super) fn table3_mixed_vmtype(ctx: &Ctx) -> SimResult<Report> {
    mixed_objective_table(
        ctx,
        "fr64",
        |lambda| Objective::MixedVmType { lambda, small_cores: 16, large_cores: 64 },
        |s| s.fragment_rate_double(64),
    )
}

/// Table 4 — mixed multi-resource objective λ·Mem64 + (1−λ)·FR16
/// (§5.5.3).
pub(super) fn table4_mixed_resource(ctx: &Ctx) -> SimResult<Report> {
    mixed_objective_table(
        ctx,
        "mem64",
        |lambda| Objective::MixedResource { lambda, cpu_cores: 16, mem_gib: 64 },
        |s| s.mem_fragment_rate(64),
    )
}

/// Table 5 — generalization to abnormal workloads (§5.6.1): agents
/// trained on Low, Middle, High and the L+H mix are each evaluated on
/// all three levels, against HA and POP. The paper's headline: the (L,H)
/// agent generalizes to M without ever seeing middle workloads.
pub(super) fn table5_workloads(ctx: &Ctx) -> SimResult<Report> {
    // PM counts scale with the mode; the three utilization levels stay.
    let cfgs = [
        scaled_config(&ClusterConfig::workload_low(), ctx.mode),
        scaled_config(&ClusterConfig::workload_mid(), ctx.mode),
        scaled_config(&ClusterConfig::workload_high(), ctx.mode),
    ];
    let mnl = ctx.mnl_or(3, 12);
    let mut train_sets = Vec::new();
    let mut eval_sets = Vec::new();
    for cfg in &cfgs {
        train_sets.push(ctx.states(cfg, ctx.smoke_or(2, 6), 0)?);
        eval_sets.push(ctx.eval_states(cfg, 3)?);
    }

    let mut report = Report::new(&["method", "L", "M", "H"]);
    report.meta("mnl", mnl);
    let mut row = |name: &str, fr: &dyn Fn(&Case) -> SimResult<f64>| -> SimResult<()> {
        let mut cells = vec![json!(name)];
        for set in &eval_sets {
            let [mean] = mean_over(set, |s| Ok([fr(&Case::new(ctx, s, mnl))?]))?;
            cells.push(json!(mean));
        }
        report.row(cells);
        Ok(())
    };

    row("HA", &|c| Ok(methods::ha(c).objective))?;
    let trained_on: [(&str, &[usize]); 4] =
        [("VMR2L(L)", &[0]), ("VMR2L(M)", &[1]), ("VMR2L(H)", &[2]), ("VMR2L(L,H)", &[0, 2])];
    for (name, sets) in trained_on {
        let mut spec = ctx.half_spec();
        spec.train.mnl = mnl;
        let train = sets.iter().flat_map(|&i| train_sets[i].iter().cloned()).collect();
        eprintln!("training {name}...");
        let agent = ctx.train(&spec, train)?;
        row(name, &|c| Ok(methods::vmr2l(&agent, c)?.objective))?;
    }
    row("POP", &|c| Ok(methods::pop(c).objective))?;
    Ok(report)
}

/// §5.3 — performance decomposition: how much each VMR2L component
/// contributes, measured as the fraction of the (variant − MIP) room the
/// full model closes when sparse attention and risk-seeking are added.
pub(super) fn sec53_decomposition(ctx: &Ctx) -> SimResult<Report> {
    let cfg = train_cluster_config(ctx.mode);
    let train_states = ctx.states(&cfg, 8, 0)?;
    let eval_states = ctx.eval_states(&cfg, 3)?;
    let mnl = ctx.mnl_or(3, 8);

    let mut spec = ctx.spec();
    spec.train.mnl = mnl;
    eprintln!("training sparse-attention agent...");
    let sparse = ctx.train(&spec, train_states.clone())?;
    let mut vspec = spec.clone();
    vspec.extractor = ExtractorKind::VanillaAttention;
    eprintln!("training vanilla-attention agent...");
    let vanilla = ctx.train(&vspec, train_states)?;

    let variants =
        ["initial", "MIP (reference)", "VMR2L (full)", "w/o sparse attention", "w/o risk-seeking"];
    let frs = mean_over(&eval_states, |s| {
        let case = Case::new(ctx, s, mnl);
        Ok([
            s.fragment_rate(16),
            methods::mip(&case, MipBudget::Reference).objective,
            methods::vmr2l(&sparse, &case)?.objective,
            methods::vmr2l(&vanilla, &case)?.objective,
            methods::greedy(&sparse, &case)?.objective,
        ])
    })?;
    let (mip, full) = (frs[1], frs[2]);
    let mut report = Report::new(&["variant", "fr", "room_to_mip_pct"]);
    report.meta("mnl", mnl);
    for (i, (name, fr)) in variants.into_iter().zip(frs).enumerate() {
        // "Room" as in §5.3: of the gap between this variant and MIP, the
        // share the full model closes — undefined for those two rows.
        let room = if (fr - mip).abs() > 1e-9 && i != 1 && i != 2 {
            ((fr - full) / (fr - mip) * 1000.0).round() / 10.0
        } else {
            f64::NAN
        };
        report.row(vec![json!(name), json!(fr), json!(room)]);
    }
    Ok(report)
}
