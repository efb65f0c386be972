//! Figs. 1–21 of the paper.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use vmr_core::ablate::MlpPolicy;
use vmr_core::agent::{DecideOpts, InferCtx, Policy, Vmr2lAgent};
use vmr_core::config::{ActionMode, ExtractorKind};
use vmr_core::eval::RiskSeekingConfig;
use vmr_core::train::{TrainConfig, Trainer};
use vmr_sim::cluster::ClusterState;
use vmr_sim::dataset::{ClusterConfig, VmMix};
use vmr_sim::dynamics::staleness_experiment;
use vmr_sim::env::ReschedEnv;
use vmr_sim::error::SimResult;
use vmr_sim::objective::Objective;
use vmr_sim::trace::{generate_day_trace, DiurnalModel, MINUTES_PER_DAY};
use vmr_sim::types::PmId;

use crate::ctx::{mean_over, Ctx};
use crate::methods::{self, Case, MipBudget, Outcome};
use crate::report::Report;
use crate::setup::{build_agent, scaled_config, train_cluster_config, Agent, AgentSpec};

const GREEDY: DecideOpts = DecideOpts { greedy: true, vm_quantile: None, pm_quantile: None };

/// A compared method under its display name.
type Lineup<'a> = Vec<(&'static str, Box<dyn Fn(&Case) -> SimResult<Outcome> + 'a>)>;

/// One `mnl, method, fr, time_s` row per MNL and method of the lineup,
/// each averaged over the evaluation states (Figs. 9 and 18).
fn compare(
    ctx: &Ctx,
    report: &mut Report,
    eval_states: &[ClusterState],
    mnls: &[usize],
    lineup: &Lineup,
) -> SimResult<()> {
    for &mnl in mnls {
        for (name, method) in lineup {
            let [fr, secs] = mean_over(eval_states, |s| {
                let o = method(&Case::new(ctx, s, mnl))?;
                Ok([o.objective, o.secs])
            })?;
            report.row(vec![json!(mnl), json!(name), json!(fr), json!(secs)]);
        }
        eprintln!("mnl {mnl} done");
    }
    Ok(())
}

/// VMR2L plus the Decima baseline (vanilla attention over a PM subset),
/// trained on the same mappings with the same recipe.
fn train_vmr2l_and_decima(
    ctx: &Ctx,
    spec: &AgentSpec,
    train_states: Vec<ClusterState>,
) -> SimResult<(Agent, Agent)> {
    eprintln!("training VMR2L...");
    let vmr2l = ctx.train(spec, train_states.clone())?;
    let mut dspec = spec.clone();
    dspec.extractor = ExtractorKind::VanillaAttention;
    dspec.pm_subset = Some(8);
    eprintln!("training Decima baseline...");
    Ok((vmr2l, ctx.train(&dspec, train_states)?))
}

/// Trains `agent` and returns its test-FR curve: `(update, eval FR)` at
/// every evaluated update.
fn eval_curve<P: Policy + Sync>(
    agent: Vmr2lAgent<P>,
    train_states: &[ClusterState],
    eval_states: &[ClusterState],
    cfg: TrainConfig,
) -> SimResult<Vec<(usize, f64)>> {
    let mut trainer = Trainer::new(agent, train_states.to_vec(), eval_states.to_vec(), cfg)?;
    let history = trainer.train(|_| {})?;
    Ok(history
        .iter()
        .filter(|h| !h.eval_objective.is_nan())
        .map(|h| (h.update, h.eval_objective))
        .collect())
}

/// One row `prefix ++ [update, curve 0, curve 1, ...]` per evaluated
/// update of the first curve.
fn curve_rows(report: &mut Report, prefix: &[Value], curves: &[Vec<(usize, f64)>]) {
    for (i, (update, _)) in curves[0].iter().enumerate() {
        let mut row = prefix.to_vec();
        row.push(json!(update));
        row.extend(curves.iter().map(|c| json!(c.get(i).map_or(f64::NAN, |p| p.1))));
        report.row(row);
    }
}

/// Fig. 1 — VM arrivals and exits per minute over 24 hours: the diurnal
/// churn trace that motivates running VMR in the off-peak window, in
/// half-hour buckets.
pub(super) fn fig01_trace(ctx: &Ctx) -> SimResult<Report> {
    let model = DiurnalModel::default();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let trace = generate_day_trace(&model, 2000, 0.012, &mut rng);

    let mut report = Report::new(&["hour", "arrivals_per_min", "exits_per_min", "note"]);
    report.meta("off_peak_minute", model.off_peak_minute());
    report.meta("seed", ctx.seed);
    let bucket = 30u32;
    for start in (0..MINUTES_PER_DAY).step_by(bucket as usize) {
        let slice: Vec<_> =
            trace.iter().filter(|c| c.minute >= start && c.minute < start + bucket).collect();
        let arr: f64 = slice.iter().map(|c| c.arrivals as f64).sum::<f64>() / slice.len() as f64;
        let ex: f64 = slice.iter().map(|c| c.exits as f64).sum::<f64>() / slice.len() as f64;
        let off_peak = model.off_peak_minute() >= start && model.off_peak_minute() < start + bucket;
        report.row(vec![
            json!(format!("{:02}:{:02}", start / 60, start % 60)),
            json!((arr * 100.0).round() / 100.0),
            json!((ex * 100.0).round() / 100.0),
            json!(if off_peak { "<- off-peak VMR window" } else { "" }),
        ]);
    }
    Ok(report)
}

/// Fig. 4 — the motivation experiment (§2.2): the exact solver reaches a
/// lower FR than the greedy heuristic and the gap widens with MNL, but
/// its runtime explodes past the five-second limit.
pub(super) fn fig04_mip_vs_ha(ctx: &Ctx) -> SimResult<Report> {
    let cfg = scaled_config(&ClusterConfig::medium(), ctx.mode);
    let state = &ctx.states(&cfg, 1, 0)?[0];
    let mnls = ctx.pick(vec![2, 4], vec![5, 10, 15, 20, 25], vec![10, 20, 30, 40, 50]);

    let mut report = Report::new(&[
        "mnl",
        "initial_fr",
        "ha_fr",
        "ha_time_s",
        "mip_fr",
        "mip_time_s",
        "mip_optimal",
    ]);
    report.meta("pms", state.num_pms());
    report.meta("vms", state.num_vms());
    report.meta("mode", format!("{:?}", ctx.mode));
    let initial = Objective::default().value(state);
    for mnl in mnls {
        let case = Case::new(ctx, state, mnl);
        let ha = methods::ha(&case);
        let mip = methods::mip_solve(&case, MipBudget::Times(mnl as u32));
        report.row(vec![
            json!(mnl),
            json!(initial),
            json!(ha.objective),
            json!(ha.secs),
            json!(mip.objective),
            json!(mip.elapsed.as_secs_f64()),
            json!(mip.proved_optimal),
        ]);
    }
    Ok(report)
}

/// Fig. 5 — achieved FR as a function of solver inference time: while a
/// plan is computed the cluster keeps churning and stale actions are
/// dropped at deploy time. One good plan is replayed after increasing
/// delays to reproduce the elbow the paper finds around five seconds.
pub(super) fn fig05_staleness(ctx: &Ctx) -> SimResult<Report> {
    let cfg = scaled_config(&ClusterConfig::medium(), ctx.mode);
    let state = &ctx.states(&cfg, 1, 0)?[0];
    let plan = methods::mip(&Case::new(ctx, state, ctx.mnl_or(3, 20)), MipBudget::Times(4));

    // Churn model scaled to the cluster size so the elbow is visible.
    let model = DiurnalModel {
        base_rate: (state.num_vms() as f64 * 0.01).max(1.0),
        ..DiurnalModel::default()
    };
    let mix = VmMix::standard();
    let delays: &[u32] = ctx.smoke_or(&[0, 5, 60], &[0, 1, 2, 5, 10, 30, 60, 120, 240]);
    // Average over several churn seeds for a stable curve.
    let churn_seeds: Vec<u64> = (0..ctx.smoke_or(2, 8)).map(|s| ctx.seed + s).collect();

    let mut report = Report::new(&["delay_min", "achieved_fr", "applied", "dropped"]);
    report.meta("planned_fr", plan.objective);
    report.meta("initial_fr", Objective::default().value(state));
    report.meta("plan_len", plan.plan.len());
    for &delay in delays {
        let [fr, applied, dropped] = mean_over(&churn_seeds, |&seed| {
            let out = staleness_experiment(state, &plan.plan, delay, &model, 0.004, &mix, seed);
            Ok([out.achieved_fr, out.applied as f64, out.dropped as f64])
        })?;
        report.row(vec![json!(delay), json!(fr), json!(applied), json!(dropped)]);
    }
    Ok(report)
}

/// Fig. 9 — overall comparison: FR and inference time of all eight
/// methods across MNLs. The VMR2L and Decima agents are PPO-trained
/// (checkpoint-cached across invocations).
pub(super) fn fig09_overall(ctx: &Ctx) -> SimResult<Report> {
    let cfg = train_cluster_config(ctx.mode);
    let eval_states = ctx.eval_states(&cfg, 3)?;
    let (vmr2l, decima) = train_vmr2l_and_decima(ctx, &ctx.spec(), ctx.states(&cfg, 8, 0)?)?;
    let mnls = ctx.pick(vec![2, 3], vec![2, 4, 8, 12], vec![10, 20, 30, 40, 50]);

    let mut report = Report::new(&["mnl", "method", "fr", "time_s"]);
    report.meta("pms", eval_states[0].num_pms());
    report.meta("vms", eval_states[0].num_vms());
    let [initial] = mean_over(&eval_states, |s| Ok([Objective::default().value(s)]))?;
    report.meta("initial_fr", initial);
    report.meta("mode", format!("{:?}", ctx.mode));
    let lineup: Lineup = vec![
        ("HA", Box::new(|c| Ok(methods::ha(c)))),
        ("MIP", Box::new(|c| Ok(methods::mip(c, MipBudget::Times(c.mnl as u32))))),
        ("POP", Box::new(|c| Ok(methods::pop(c)))),
        ("a-VBPP", Box::new(|c| Ok(methods::vbpp(c)))),
        ("MCTS", Box::new(|c| Ok(methods::mcts(c)))),
        ("Decima", Box::new(|c| methods::greedy(&decima, c))),
        ("NeuPlan", Box::new(|c| methods::neuplan(&vmr2l, c))),
        ("VMR2L", Box::new(|c| methods::vmr2l(&vmr2l, c))),
    ];
    compare(ctx, &mut report, &eval_states, &mnls, &lineup)?;
    Ok(report)
}

/// Fig. 10 — feature-extractor ablation: test-FR convergence of sparse
/// tree-attention, vanilla attention and a flat MLP (whose parameter
/// count scales with the cluster and which the paper finds fails to
/// converge).
pub(super) fn fig10_attention_ablation(ctx: &Ctx) -> SimResult<Report> {
    let cfg = train_cluster_config(ctx.mode);
    let train_states = ctx.states(&cfg, 8, 0)?;
    let eval_states = ctx.states(&cfg, 3, 500)?;
    let mut spec = ctx.spec();
    spec.train.eval_every = 2;
    spec.train.eval_episodes = 3;

    let mut curves = Vec::new();
    for kind in [ExtractorKind::SparseAttention, ExtractorKind::VanillaAttention] {
        eprintln!("training {kind:?}...");
        let mut s = spec.clone();
        s.extractor = kind;
        curves.push(eval_curve(build_agent(&s), &train_states, &eval_states, s.train)?);
    }
    eprintln!("training Mlp extractor...");
    let max_vms = train_states.iter().map(|s| s.num_vms()).max().unwrap_or(0) + 16;
    let max_pms = train_states.iter().map(|s| s.num_pms()).max().unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mlp = Vmr2lAgent::new(MlpPolicy::new(max_vms, max_pms, 64, &mut rng), ActionMode::TwoStage);
    curves.push(eval_curve(mlp, &train_states, &eval_states, spec.train)?);

    let mut report = Report::new(&["update", "sparse_fr", "vanilla_fr", "mlp_fr"]);
    report.meta("mode", format!("{:?}", ctx.mode));
    report.meta("updates", spec.train.updates);
    curve_rows(&mut report, &[], &curves);
    Ok(report)
}

/// Fig. 11 — distribution of stage-1 VM-selection probabilities along
/// greedy trajectories: the trained policy concentrates, which motivates
/// the quantile thresholding of risk-seeking evaluation.
pub(super) fn fig11_probability_hist(ctx: &Ctx) -> SimResult<Report> {
    let cfg = train_cluster_config(ctx.mode);
    let spec = ctx.spec();
    let agent = ctx.train(&spec, ctx.states(&cfg, 8, 0)?)?;

    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut probs: Vec<f64> = Vec::new();
    let mut ictx = InferCtx::new();
    for state in ctx.eval_states(&cfg, usize::MAX)? {
        let mut env = ReschedEnv::unconstrained(state, Objective::default(), spec.train.mnl)?;
        while !env.is_done() {
            let Some(d) = agent.decide_in(&mut env, &mut ictx, &mut rng, &GREEDY)? else {
                break;
            };
            probs.extend(d.vm_probs.iter().copied());
            if env.step(d.action).is_err() {
                break;
            }
        }
    }

    let buckets = [
        ("<1e-5", 0.0, 1e-5),
        ("1e-5..1e-4", 1e-5, 1e-4),
        ("1e-4..1e-3", 1e-4, 1e-3),
        ("1e-3..1e-2", 1e-3, 1e-2),
        ("1e-2..1e-1", 1e-2, 1e-1),
        (">=1e-1", 1e-1, f64::INFINITY),
    ];
    let mut report = Report::new(&["bucket", "count", "fraction"]);
    let total = probs.len().max(1) as f64;
    let above_1pct = probs.iter().filter(|&&p| p > 0.01).count() as f64 / total;
    report.meta("total_probs", probs.len());
    report.meta("fraction_above_1pct", above_1pct);
    for (label, lo, hi) in buckets {
        let count = probs.iter().filter(|&&p| p >= lo && p < hi).count();
        report.row(vec![json!(label), json!(count), json!(count as f64 / total)]);
    }
    Ok(report)
}

/// Fig. 12 — risk-seeking evaluation: test FR vs number of sampled
/// trajectories, with and without quantile action-thresholding (§3.4).
pub(super) fn fig12_risk_seeking(ctx: &Ctx) -> SimResult<Report> {
    let cfg = train_cluster_config(ctx.mode);
    let spec = ctx.spec();
    let agent = ctx.train(&spec, ctx.states(&cfg, 8, 0)?)?;
    let eval_states: Vec<_> = ctx.eval_states(&cfg, usize::MAX)?.into_iter().enumerate().collect();
    let mnl = ctx.mnl.unwrap_or(spec.train.mnl);

    let mut report = Report::new(&["trajectories", "fr_baseline", "fr_thresholded", "time_s"]);
    report.meta("mnl", mnl);
    report.meta("mode", format!("{:?}", ctx.mode));
    for trajectories in ctx.smoke_or(vec![1, 2], vec![1, 2, 4, 8, 16, 32]) {
        let row = mean_over(&eval_states, |(i, state)| {
            let case = Case::new(ctx, state, mnl);
            let thresholded = RiskSeekingConfig {
                trajectories,
                ..methods::risk_seeking(ctx.mode, ctx.seed + *i as u64)
            };
            let plain = RiskSeekingConfig { vm_quantile: None, pm_quantile: None, ..thresholded };
            let base = methods::vmr2l_with(&agent, &case, &plain)?;
            let thr = methods::vmr2l_with(&agent, &case, &thresholded)?;
            Ok([base.objective, thr.objective, thr.secs])
        })?;
        report.row(vec![json!(trajectories), json!(row[0]), json!(row[1]), json!(row[2])]);
        eprintln!("trajectories {trajectories} done");
    }
    Ok(report)
}

/// Fig. 13 — constraint-handling ablation: Two-Stage vs Penalty vs
/// Full-Mask convergence on the Medium-style cluster and on the
/// Multi-Resource cluster. Expected shape per the paper: Penalty
/// converges slowly to a worse level, Full-Mask fails to converge (M×N
/// action space), Two-Stage converges fastest.
pub(super) fn fig13_constraints(ctx: &Ctx) -> SimResult<Report> {
    // The multi-resource panel is scaled off --full to stay affordable.
    let datasets = [
        ("medium", train_cluster_config(ctx.mode)),
        ("multi_resource", scaled_config(&ClusterConfig::multi_resource(), ctx.mode)),
    ];
    let mut report =
        Report::new(&["dataset", "update", "two_stage_fr", "penalty_fr", "full_mask_fr"]);
    report.meta("mode", format!("{:?}", ctx.mode));
    for (name, cfg) in datasets {
        let train_states = ctx.states(&cfg, 6, 0)?;
        let eval_states = ctx.states(&cfg, 2, 500)?;
        let mut curves = Vec::new();
        for mode in [ActionMode::TwoStage, ActionMode::Penalty, ActionMode::FullMask] {
            eprintln!("[{name}] training {mode:?}...");
            let mut spec = ctx.spec();
            spec.mode = mode;
            spec.train.eval_every = 2;
            spec.train.eval_episodes = 2;
            curves.push(eval_curve(build_agent(&spec), &train_states, &eval_states, spec.train)?);
        }
        curve_rows(&mut report, &[json!(name)], &curves);
    }
    Ok(report)
}

/// A method under an FR goal: migrations used and FR achieved on a state.
type GoalPlanner<'a> = &'a dyn Fn(&ClusterState) -> SimResult<(usize, f64)>;

/// Migrations a monotone plan needs to reach `goal`, and the FR where it
/// stops: the plan is cut at the first prefix at or below the goal.
fn truncate_at_goal(case: &Case, outcome: &Outcome, goal: f64) -> SimResult<(usize, f64)> {
    let mut replay = case.state.clone();
    for (i, a) in outcome.plan.iter().enumerate() {
        replay.migrate(a.vm, a.pm, 16)?;
        if replay.fragment_rate(16) <= goal {
            return Ok((i + 1, replay.fragment_rate(16)));
        }
    }
    Ok((outcome.plan.len(), outcome.objective))
}

/// Fig. 14 — minimize migrations given an FR goal (§5.5.1): reward −1
/// per step above the goal, +10 on reaching it (Eq. 10–11). HA and the
/// exact solver plan for the full budget and are cut at the goal; VMR2L
/// is trained with the goal-shaped reward and its episodes end there.
pub(super) fn fig14_mnl_goal(ctx: &Ctx) -> SimResult<Report> {
    let cfg = train_cluster_config(ctx.mode);
    let eval_states = ctx.eval_states(&cfg, usize::MAX)?;
    let max_mnl = ctx.mnl_or(4, 16);
    let [initial] = mean_over(&eval_states, |s| Ok([s.fragment_rate(16)]))?;
    // Sweep goals from just-below-initial downwards (paper: 0.55 → 0.25).
    let goals: Vec<f64> = ctx.smoke_or(
        vec![initial * 0.9, initial * 0.7],
        (1..=6).map(|i| initial * (1.0 - 0.1 * i as f64)).collect(),
    );

    // One agent, trained with the goal-shaped reward at the median goal.
    let median_goal = goals[goals.len() / 2];
    let mut spec = ctx.spec();
    spec.train.objective = Objective::MnlToGoal { fr_goal: median_goal, cores: 16 };
    spec.train.mnl = max_mnl;
    eprintln!("training VMR2L with goal-shaped reward (goal {median_goal:.3})...");
    let agent = ctx.train(&spec, ctx.states(&cfg, 6, 0)?)?;

    let mut report = Report::new(&["fr_goal", "method", "used_mnl", "achieved_fr", "reached"]);
    report.meta("initial_fr", initial);
    report.meta("max_mnl", max_mnl);
    for &goal in &goals {
        let planners: [(&str, GoalPlanner); 3] = [
            ("HA", &|s| {
                let case = Case::new(ctx, s, max_mnl);
                truncate_at_goal(&case, &methods::ha(&case), goal)
            }),
            ("MIP", &|s| {
                let case = Case::new(ctx, s, max_mnl);
                truncate_at_goal(&case, &methods::mip(&case, MipBudget::Reference), goal)
            }),
            ("VMR2L", &|s| {
                let obj = Objective::MnlToGoal { fr_goal: goal, cores: 16 };
                let o = methods::greedy(&agent, &Case { obj, ..Case::new(ctx, s, max_mnl) })?;
                Ok((o.plan.len(), o.objective))
            }),
        ];
        for (name, plan) in planners {
            let mut reached = 0;
            let [used, fr] = mean_over(&eval_states, |s| {
                let (used, fr) = plan(s)?;
                reached += usize::from(fr <= goal);
                Ok([used as f64, fr])
            })?;
            report.row(vec![
                json!((goal * 1e4).round() / 1e4),
                json!(name),
                json!(used),
                json!(fr),
                json!(format!("{reached}/{}", eval_states.len())),
            ]);
        }
        eprintln!("goal {goal:.3} done");
    }
    Ok(report)
}

/// Fig. 15 — CDF of per-PM CPU usage under the Low/Middle/High workload
/// datasets (§5.6.1): the three distributions do not overlap in
/// aggregate utilization.
pub(super) fn fig15_workload_cdf(ctx: &Ctx) -> SimResult<Report> {
    let mut report = Report::new(&["percentile", "low", "mid", "high"]);
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for base in [
        ClusterConfig::workload_low(),
        ClusterConfig::workload_mid(),
        ClusterConfig::workload_high(),
    ] {
        let state = &ctx.states(&scaled_config(&base, ctx.mode), 1, 0)?[0];
        let mut usages: Vec<f64> = state
            .pms()
            .iter()
            .map(|pm| 1.0 - pm.free_cpu() as f64 / pm.cpu_total() as f64)
            .collect();
        usages.sort_by(f64::total_cmp);
        columns.push(usages);
    }
    for pct in (0..=100).step_by(10) {
        let mut row = vec![json!(pct)];
        row.extend(columns.iter().map(|usages| json!(usages[((usages.len() - 1) * pct) / 100])));
        report.row(row);
    }
    report.meta("mode", format!("{:?}", ctx.mode));
    Ok(report)
}

/// Fig. 16 — MNL generalization (§5.6.2): one agent trained at the
/// largest MNL, evaluated across smaller MNLs, against per-MNL agents
/// (VMR2L_SEP). The paper reports an average gap of ~1.16%.
pub(super) fn fig16_mnl_generalization(ctx: &Ctx) -> SimResult<Report> {
    let cfg = train_cluster_config(ctx.mode);
    let train_states = ctx.states(&cfg, 6, 0)?;
    let eval_states = ctx.eval_states(&cfg, 3)?;
    let mnls = ctx.smoke_or(vec![2, 3], vec![2, 4, 6, 8, 10, 12]);
    let max_mnl = mnls[mnls.len() - 1];

    let mut spec = ctx.spec();
    spec.train.mnl = max_mnl;
    eprintln!("training shared agent at MNL {max_mnl}...");
    let shared = ctx.train(&spec, train_states.clone())?;

    let mut report = Report::new(&["mnl", "vmr2l_fr", "vmr2l_sep_fr", "gap_pct"]);
    report.meta("max_mnl", max_mnl);
    for &mnl in &mnls {
        // A separate agent trained at exactly this MNL (fewer updates each).
        let mut sep_spec = spec.clone();
        sep_spec.train.mnl = mnl;
        sep_spec.train.updates = (spec.train.updates / 2).max(1);
        eprintln!("training SEP agent at MNL {mnl}...");
        let sep = ctx.train(&sep_spec, train_states.clone())?;
        let [a, b] = mean_over(&eval_states, |s| {
            let case = Case { seed: ctx.seed + mnl as u64, ..Case::new(ctx, s, mnl) };
            Ok([methods::vmr2l(&shared, &case)?.objective, methods::vmr2l(&sep, &case)?.objective])
        })?;
        let gap_pct = ((a - b) / b.max(1e-9) * 1e4).round() / 100.0;
        report.row(vec![json!(mnl), json!(a), json!(b), json!(gap_pct)]);
        eprintln!("mnl {mnl} done");
    }
    Ok(report)
}

/// Fig. 17 — generalization to different cluster sizes (§5.6.3): the
/// agent trained on one cluster is deployed on clusters with ±PM-count
/// deltas; reported as the ratio of "potential FR" achieved,
/// (initial − achieved) / (initial − MIP), against POP.
pub(super) fn fig17_cluster_generalization(ctx: &Ctx) -> SimResult<Report> {
    let base_cfg = train_cluster_config(ctx.mode);
    let mnl = ctx.mnl_or(3, 8);
    let mut spec = ctx.spec();
    spec.train.mnl = mnl;
    eprintln!("training on {} PMs...", base_cfg.num_pms());
    let agent = ctx.train(&spec, ctx.states(&base_cfg, 6, 0)?)?;

    let mut report =
        Report::new(&["pm_factor", "pms", "initial_fr", "mip_fr", "vmr2l_ratio", "pop_ratio"]);
    report.meta("trained_pms", base_cfg.num_pms());
    report.meta("mnl", mnl);
    for f in ctx.smoke_or(vec![1.0, 1.3], vec![0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.4]) {
        let cfg = base_cfg.scaled_pms(f);
        let states = ctx.states(&cfg, 2, 2000 + (f * 100.0) as u64)?;
        let [init, mip, vmr, pop] = mean_over(&states, |s| {
            let case = Case::new(ctx, s, mnl);
            Ok([
                s.fragment_rate(16),
                methods::mip(&case, MipBudget::Reference).objective,
                methods::vmr2l(&agent, &case)?.objective,
                methods::pop(&case).objective,
            ])
        })?;
        let potential = (init - mip).max(1e-9);
        report.row(vec![
            json!(f),
            json!(cfg.num_pms()),
            json!(init),
            json!(mip),
            json!(((init - vmr) / potential * 1000.0).round() / 1000.0),
            json!(((init - pop) / potential * 1000.0).round() / 1000.0),
        ]);
        eprintln!("factor {f} done");
    }
    Ok(report)
}

/// Fig. 18 — the Large dataset (§5.6.4): FR and inference time at high
/// MNLs for HA, POP, Decima, NeuPlan and VMR2L. The exact solver is
/// excluded, as in the paper (it exceeds an hour per mapping).
pub(super) fn fig18_large(ctx: &Ctx) -> SimResult<Report> {
    let cfg = scaled_config(&ClusterConfig::large(), ctx.mode);
    let eval_states = ctx.states(&cfg, 2, 1000)?;
    let mnls = ctx.pick(vec![3], vec![10, 20, 30], vec![50, 100, 150, 200]);

    let mut spec = ctx.half_spec();
    spec.train.mnl = mnls[mnls.len() - 1].min(16);
    eprintln!("training on the large cluster ({} PMs)...", cfg.num_pms());
    let (vmr2l, decima) = train_vmr2l_and_decima(ctx, &spec, ctx.states(&cfg, 4, 0)?)?;

    let mut report = Report::new(&["mnl", "method", "fr", "time_s"]);
    report.meta("pms", eval_states[0].num_pms());
    report.meta("vms", eval_states[0].num_vms());
    let [initial] = mean_over(&eval_states, |s| Ok([s.fragment_rate(16)]))?;
    report.meta("initial_fr", initial);
    let lineup: Lineup = vec![
        ("HA", Box::new(|c| Ok(methods::ha(c)))),
        ("POP", Box::new(|c| Ok(methods::pop(c)))),
        ("Decima", Box::new(|c| methods::greedy(&decima, c))),
        ("NeuPlan", Box::new(|c| methods::neuplan(&vmr2l, c))),
        ("VMR2L", Box::new(|c| methods::vmr2l(&vmr2l, c))),
    ];
    compare(ctx, &mut report, &eval_states, &mnls, &lineup)?;
    Ok(report)
}

/// Fig. 19 — FR on the Low and Middle workload datasets across MNLs
/// (§5.6.5): HA plateaus at high MNL while POP and VMR2L keep improving.
pub(super) fn fig19_workload_mnl(ctx: &Ctx) -> SimResult<Report> {
    let panels = [
        ("low", scaled_config(&ClusterConfig::workload_low(), ctx.mode)),
        ("mid", scaled_config(&ClusterConfig::workload_mid(), ctx.mode)),
    ];
    let mnls = ctx.pick(vec![2, 4], vec![5, 10, 15, 20], vec![25, 50, 75, 100]);
    let mut report = Report::new(&["workload", "mnl", "ha_fr", "pop_fr", "vmr2l_fr"]);
    for (name, cfg) in panels {
        let eval_states = ctx.states(&cfg, 2, 1000)?;
        let mut spec = ctx.half_spec();
        spec.train.mnl = mnls[mnls.len() - 1].min(16);
        eprintln!("training on {name} workload...");
        let agent = ctx.train(&spec, ctx.states(&cfg, 4, 0)?)?;
        for &mnl in &mnls {
            let [ha, pop, vmr] = mean_over(&eval_states, |s| {
                let case = Case::new(ctx, s, mnl);
                Ok([
                    methods::ha(&case).objective,
                    methods::pop(&case).objective,
                    methods::vmr2l(&agent, &case)?.objective,
                ])
            })?;
            report.row(vec![json!(name), json!(mnl), json!(ha), json!(pop), json!(vmr)]);
            eprintln!("{name} mnl {mnl} done");
        }
    }
    Ok(report)
}

/// Fig. 20 — convergence speed on different cluster sizes (§5.7): the
/// same spec trained on the Medium-style and Large-style clusters, test
/// FR per update.
pub(super) fn fig20_convergence(ctx: &Ctx) -> SimResult<Report> {
    let panels = [
        ("medium", train_cluster_config(ctx.mode)),
        ("large", scaled_config(&ClusterConfig::large(), ctx.mode)),
    ];
    let mut report = Report::new(&["update", "medium_fr", "large_fr"]);
    report.meta("mode", format!("{:?}", ctx.mode));
    let mut curves = Vec::new();
    for (name, cfg) in panels {
        eprintln!("training on {name} ({} PMs)...", cfg.num_pms());
        let mut spec = ctx.spec();
        spec.train.eval_every = 2;
        spec.train.eval_episodes = 2;
        let (train, eval) = (ctx.states(&cfg, 6, 0)?, ctx.states(&cfg, 2, 500)?);
        curves.push(eval_curve(build_agent(&spec), &train, &eval, spec.train)?);
    }
    curve_rows(&mut report, &[], &curves);
    Ok(report)
}

/// One-line occupancy bar for a PM: per NUMA, `#` = 4 used cores, `.` = 4
/// free cores, with the 16-core fragment size annotated.
fn bar(state: &ClusterState, pm: PmId) -> String {
    let p = state.pm(pm);
    let mut s = format!("PM{:<4}", pm.0);
    for (j, n) in p.numas.iter().enumerate() {
        let used = (n.cpu_used as usize).div_ceil(4);
        let free = (n.free_cpu() as usize) / 4;
        s.push_str(&format!(
            " numa{j}[{}{}] frag={:<2}",
            "#".repeat(used),
            ".".repeat(free),
            n.cpu_fragment(16)
        ));
    }
    s
}

/// Fig. 21 — case study (§5.8): replays a trained agent on one mapping
/// and renders, per step, the NUMA occupancy of the source and
/// destination PMs before and after the migration — the ASCII analogue
/// of the paper's color-bar tool.
pub(super) fn fig21_casestudy(ctx: &Ctx) -> SimResult<Report> {
    let cfg = train_cluster_config(ctx.mode);
    let mnl = ctx.mnl_or(3, 8);
    let mut spec = ctx.spec();
    spec.train.mnl = mnl;
    let agent = ctx.train(&spec, ctx.states(&cfg, 6, 0)?)?;

    let state = ctx.states(&cfg, 1, 4242)?.remove(0);
    let mut env = ReschedEnv::unconstrained(state, Objective::default(), mnl)?;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut report = Report::new(&["step", "vm", "cpu", "src_pm", "dst_pm", "reward", "fr_after"]);
    report.note(format!("initial FR = {:.4}\n", env.objective_value()));
    let mut step = 0;
    let mut ictx = InferCtx::new();
    while !env.is_done() {
        let Some(d) = agent.act(&mut env, &mut ictx, &mut rng, &GREEDY)? else {
            break;
        };
        let vm = d.action.vm;
        let cpu = env.state().vm(vm).cpu;
        let (src, dst) = (env.state().placement(vm).pm, d.action.pm);
        let before = format!("{}\n          {}", bar(env.state(), src), bar(env.state(), dst));
        let Ok(out) = env.step(d.action) else {
            break;
        };
        report.note(format!(
            "step {step}: migrate VM{} ({cpu} cores) PM{} -> PM{}",
            vm.0, src.0, dst.0
        ));
        report.note(format!("  before: {before}"));
        report.note(format!(
            "  after:  {}\n          {}",
            bar(env.state(), src),
            bar(env.state(), dst)
        ));
        report.note(format!("  reward {:+.4}  FR {:.4}\n", out.reward, out.objective));
        report.row(vec![
            json!(step),
            json!(vm.0),
            json!(cpu),
            json!(src.0),
            json!(dst.0),
            json!(out.reward),
            json!(out.objective),
        ]);
        step += 1;
    }
    report.note(format!("final FR = {:.4}", env.objective_value()));
    report.meta("final_fr", env.objective_value());
    Ok(report)
}
