//! Extension experiments: the paper's §1/§2 premises and its §7/§8
//! discussion and future work, made runnable.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use vmr_baselines::swap::{swap_search_solve, SwapMove, SwapSearchConfig};
use vmr_core::eval::RiskSeekingConfig;
use vmr_core::train::Trainer;
use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{populate, ClusterConfig, VmMix};
use vmr_sim::daycycle::{run_day_cycle, DayCycleConfig};
use vmr_sim::dynamics::DynamicCluster;
use vmr_sim::env::Action;
use vmr_sim::error::SimResult;
use vmr_sim::interference::{InterferenceModel, UsageProfiles};
use vmr_sim::lifetime::LifetimeModel;
use vmr_sim::migration::{schedule_plan, NicLimits, PrecopyModel};
use vmr_sim::objective::Objective;
use vmr_sim::scheduler::VmsPolicy;
use vmr_sim::trace::DiurnalModel;
use vmr_sim::types::{PmId, VmId};
use vmr_solver::bnb::{branch_and_bound, branch_and_bound_warmstart};

use crate::ctx::{mean_over, Ctx};
use crate::methods::{self, Case};
use crate::report::Report;
use crate::setup::{build_agent, scaled_config, train_agent, train_cluster_config, Agent};

/// The Medium-shaped evaluation mappings most extensions run on.
fn medium_states(ctx: &Ctx) -> SimResult<Vec<ClusterState>> {
    ctx.states(&scaled_config(&ClusterConfig::medium(), ctx.mode), ctx.mode.eval_mappings(), 0)
}

/// Ext. 1 — live-migration execution cost of rescheduling plans (§1):
/// HA plans at increasing MNL are scheduled under the pre-copy cost
/// model with per-PM NIC stream limits, reporting the execution window
/// (makespan), cumulative VM downtime, and the parallel speedup over
/// strictly sequential execution.
pub(super) fn ext01_migration_overhead(ctx: &Ctx) -> SimResult<Report> {
    let states = medium_states(ctx)?;
    let model = PrecopyModel::default();
    let mut report = Report::new(&[
        "mnl",
        "plan_len",
        "streams",
        "makespan_s",
        "sequential_s",
        "speedup",
        "downtime_ms_per_vm",
        "transferred_gib",
    ]);
    report.meta("mode", format!("{:?}", ctx.mode));
    report.meta("bandwidth_gib_s", model.bandwidth_gib_s);
    report.meta("dirty_rate_gib_s", model.dirty_rate_gib_s);
    for mnl in ctx.smoke_or(vec![2, 5], vec![5, 10, 25, 50]) {
        for streams in [1u32, 2, 4] {
            let limits = NicLimits { streams_per_pm: streams };
            let m = mean_over(&states, |state| {
                let plan = methods::ha(&Case::new(ctx, state, mnl)).plan;
                let sched = schedule_plan(state, &plan, &model, limits)?;
                let per_vm =
                    if plan.is_empty() { 0.0 } else { sched.total_downtime_ms / plan.len() as f64 };
                Ok([
                    plan.len() as f64,
                    sched.makespan_secs,
                    sched.sequential_secs,
                    sched.speedup(),
                    per_vm,
                    sched.total_transferred_gib,
                ])
            })?;
            report.row(vec![
                json!(mnl),
                json!(m[0]),
                json!(streams),
                json!(m[1]),
                json!(m[2]),
                json!(m[3]),
                json!(m[4]),
                json!(m[5]),
            ]);
        }
        eprintln!("mnl {mnl} done");
    }
    Ok(report)
}

/// Ext. 2 — swap-aware local search vs single-move baselines (§8): HA,
/// single-move steepest descent and the full swap-aware search under
/// the same migration budget (a swap consumes two units), on the
/// standard Medium-shaped cluster and on a tightly packed one (95%
/// target utilization) where single migrations often have nowhere to go.
pub(super) fn ext02_swap_search(ctx: &Ctx) -> SimResult<Report> {
    let single_only = SwapSearchConfig { pair_candidates: 0, ..Default::default() };
    let with_swaps = SwapSearchConfig::default();
    let normal = scaled_config(&ClusterConfig::medium(), ctx.mode);
    let mut tight = normal.clone();
    tight.target_util = 0.95;
    tight.name = format!("{}_tight", tight.name);

    let mut report = Report::new(&[
        "cluster",
        "mnl",
        "fr_initial",
        "fr_ha",
        "fr_single_descent",
        "fr_swap_search",
        "swaps_used",
        "time_s",
    ]);
    report.meta("mode", format!("{:?}", ctx.mode));
    for (label, cfg) in [("normal", normal), ("tight", tight)] {
        let states = ctx.states(&cfg, ctx.mode.eval_mappings(), 0)?;
        for mnl in ctx.smoke_or(vec![2, 4], vec![5, 10, 25, 50]) {
            let m = mean_over(&states, |state| {
                let c = Case::new(ctx, state, mnl);
                let single = swap_search_solve(state, &c.cs, c.obj, mnl, &single_only);
                let full = swap_search_solve(state, &c.cs, c.obj, mnl, &with_swaps);
                let swaps = full.moves.iter().filter(|m| matches!(m, SwapMove::Swap(..))).count();
                Ok([
                    c.obj.value(state),
                    methods::ha(&c).objective,
                    single.objective,
                    full.objective,
                    swaps as f64,
                    full.elapsed.as_secs_f64(),
                ])
            })?;
            let mut row = vec![json!(label), json!(mnl)];
            row.extend(m.map(|v| json!(v)));
            report.row(row);
            eprintln!("{label} mnl {mnl} done");
        }
    }
    Ok(report)
}

/// Ext. 3 — how the VMS placement policy shapes initial fragmentation
/// (§1): the same cluster filled to the same utilization under each
/// policy with identical churn — how much of the problem is created
/// upstream of rescheduling.
pub(super) fn ext03_scheduler_policies(ctx: &Ctx) -> SimResult<Report> {
    let cfg = scaled_config(&ClusterConfig::medium(), ctx.mode);
    let trials: usize = ctx.pick(2, 8, 20);
    let mut report = Report::new(&["policy", "fr_16_mean", "fr_16_min", "fr_16_max", "vms_placed"]);
    report.meta("mode", format!("{:?}", ctx.mode));
    report.meta("pms", cfg.num_pms());
    report.meta("trials", trials);
    for policy in VmsPolicy::ALL {
        let mut frs = Vec::with_capacity(trials);
        let mut placed = 0.0;
        for t in 0..trials {
            let cluster = populate(&cfg, policy, &mut StdRng::seed_from_u64(ctx.seed + t as u64));
            frs.push(cluster.fragment_rate(16));
            placed += cluster.alive_count() as f64;
        }
        report.row(vec![
            json!(policy.name()),
            json!(frs.iter().sum::<f64>() / frs.len() as f64),
            json!(frs.iter().cloned().fold(f64::INFINITY, f64::min)),
            json!(frs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)),
            json!(placed / trials as f64),
        ]);
        eprintln!("{} done", policy.name());
    }
    Ok(report)
}

/// Ext. 4 — risk-seeking *training* ablation (§8 future work): two
/// otherwise-identical agents — standard PPO vs elite-episode-filtered
/// PPO (Petersen et al.) — compared on greedy and risk-seeking
/// evaluation FR. Trains without the cache: the last update's reward is
/// a column.
pub(super) fn ext04_risk_training(ctx: &Ctx) -> SimResult<Report> {
    let cfg = train_cluster_config(ctx.mode);
    let train_states = ctx.states(&cfg, 8, 0)?;
    let eval_states: Vec<_> = ctx.eval_states(&cfg, usize::MAX)?.into_iter().enumerate().collect();

    let mut report = Report::new(&["variant", "fr_greedy", "fr_risk_eval_k8", "final_mean_reward"]);
    report.meta("mode", format!("{:?}", ctx.mode));
    for (label, quantile) in [("ppo", None), ("risk_q0.5", Some(0.5)), ("risk_q0.75", Some(0.75))] {
        let mut spec = ctx.spec();
        spec.train.risk_quantile = quantile;
        let free = train_states.iter().map(|s| ConstraintSet::new(s.num_vms())).collect();
        let (agent, history) = train_agent(&spec, train_states.clone(), free, None)?;
        let mnl = ctx.mnl.unwrap_or(spec.train.mnl);
        let [greedy, risky] = mean_over(&eval_states, |(i, state)| {
            let case = Case::new(ctx, state, mnl);
            let k8 = RiskSeekingConfig {
                trajectories: 8,
                ..methods::risk_seeking(ctx.mode, ctx.seed + *i as u64)
            };
            Ok([
                methods::greedy(&agent, &case)?.objective,
                methods::vmr2l_with(&agent, &case, &k8)?.objective,
            ])
        })?;
        let final_reward = history.last().map_or(f64::NAN, |h| h.mean_reward);
        report.row(vec![json!(label), json!(greedy), json!(risky), json!(final_reward)]);
        eprintln!("{label} done");
    }
    Ok(report)
}

/// Ext. 5 — adapting a trained agent to a shifted workload (§7): train
/// on the Low-workload cluster, then adapt to High four ways under the
/// same small update budget — zero-shot, top-layer fine-tuning (frozen
/// extractor), full fine-tuning, from scratch — reporting greedy FR on
/// held-out High-workload mappings.
pub(super) fn ext05_finetune(ctx: &Ctx) -> SimResult<Report> {
    let low_cfg = scaled_config(&ClusterConfig::workload_low(), ctx.mode);
    let high_cfg = scaled_config(&ClusterConfig::workload_high(), ctx.mode);
    let high_train = ctx.states(&high_cfg, 8, 500)?;
    let high_eval = ctx.eval_states(&high_cfg, usize::MAX)?;

    let spec = ctx.spec();
    let mut adapt_cfg = spec.train;
    adapt_cfg.updates = ctx.smoke_or(1, (spec.train.updates / 3).max(1));
    let mnl = ctx.mnl.unwrap_or(spec.train.mnl);
    let pretrained = ctx.train(&spec, ctx.states(&low_cfg, 8, 0)?)?;

    let mut report = Report::new(&["variant", "updates_on_high", "fr_high_eval"]);
    report.meta("mode", format!("{:?}", ctx.mode));
    report.meta("mnl", mnl);
    // (variant, start from the pretrained agent?, parameter prefixes frozen)
    let variants: [(&str, bool, Option<&[&str]>); 4] = [
        ("zero_shot", true, None),
        ("top_layer", true, Some(&["vm_embed", "pm_embed", "block"])),
        ("full_finetune", true, Some(&[])),
        ("from_scratch", false, Some(&[])),
    ];
    for (label, from_pretrained, adapt) in variants {
        let start = if from_pretrained { pretrained.clone() } else { build_agent(&spec) };
        let (agent, updates): (Agent, usize) = match adapt {
            None => (start, 0),
            Some(frozen) => {
                let mut trainer = Trainer::new(start, high_train.clone(), vec![], adapt_cfg)?;
                trainer.freeze_prefixes(frozen);
                trainer.train(|_| {})?;
                (trainer.into_agent(), adapt_cfg.updates)
            }
        };
        let [fr] = mean_over(&high_eval, |s| {
            Ok([methods::greedy(&agent, &Case::new(ctx, s, mnl))?.objective])
        })?;
        report.row(vec![json!(label), json!(updates), json!(fr)]);
        eprintln!("{label} done");
    }
    Ok(report)
}

/// Ext. 6 — noisy-neighbor mitigation via derived anti-affinity (§7): a
/// bimodal utilization population, a hard anti-affinity group over the
/// noisiest VMs, and HA under (a) no constraints, (b) the derived
/// constraints, (c) the constraints plus an eviction pre-pass that
/// separates already-colocated noisy pairs — fragment rate *and*
/// interference score, the trade-off an operator buys. Constraints alone
/// only prevent *new* colocations; separating existing ones costs
/// migration budget.
pub(super) fn ext06_interference(ctx: &Ctx) -> SimResult<Report> {
    let states: Vec<_> = medium_states(ctx)?.into_iter().enumerate().collect();
    let obj = Objective::default();
    let model = InterferenceModel { threshold: 0.55, use_burst: true };
    let mnl = ctx.mnl_or(4, 25);
    let group_size = ctx.smoke_or(4, 12);

    let mut report = Report::new(&[
        "variant",
        "fr_after",
        "interference_before",
        "interference_after",
        "noisy_pairs_colocated",
    ]);
    report.meta("mode", format!("{:?}", ctx.mode));
    report.meta("mnl", mnl);
    report.meta("noisy_group", group_size);

    // Three variants × (fr_after, interference_after, colocated pairs),
    // then the shared interference_before.
    let m = mean_over(&states, |(i, state)| {
        let profiles = UsageProfiles::generate(state, 0.2, ctx.seed + 77 + *i as u64);
        let noisy: Vec<VmId> =
            model.noisiest_vms(state, &profiles, group_size).into_iter().map(|(v, _)| v).collect();
        let pairs = || {
            noisy.iter().enumerate().flat_map(|(j, &a)| noisy[j + 1..].iter().map(move |&b| (a, b)))
        };
        let score = |case: &Case, plan: &[Action]| -> SimResult<[f64; 2]> {
            let after = methods::replay(case, plan)?;
            let colocated =
                pairs().filter(|&(a, b)| after.placement(a).pm == after.placement(b).pm);
            Ok([model.cluster_score(&after, &profiles), colocated.count() as f64])
        };

        let free_case = Case::new(ctx, state, mnl);
        let free = methods::ha(&free_case);
        let [free_score, free_pairs] = score(&free_case, &free.plan)?;

        let cs = model.derive_anti_affinity(state, &profiles, group_size)?;
        let bound_case = Case { cs: cs.clone(), ..Case::new(ctx, state, mnl) };
        let bound = methods::ha(&bound_case);
        let [bound_score, bound_pairs] = score(&bound_case, &bound.plan)?;

        // Eviction pre-pass: while budget remains, migrate one VM of each
        // colocated noisy pair to the legal destination that least hurts
        // the objective, then spend the remainder on HA under the same
        // constraints.
        let mut evicted = state.clone();
        let mut used = 0usize;
        for (a, b) in pairs() {
            if used >= mnl {
                break;
            }
            if evicted.placement(a).pm != evicted.placement(b).pm {
                continue;
            }
            let mass = obj.mass(&evicted);
            let mut best: Option<(PmId, f64)> = None;
            for p in 0..evicted.num_pms() {
                let pm = PmId(p as u32);
                if cs.migration_legal(&evicted, a, pm).is_err() {
                    continue;
                }
                let Some(value) = obj.value_after_move(&evicted, &mass, a, pm) else {
                    continue;
                };
                if best.is_none_or(|(_, s)| value < s) {
                    best = Some((pm, value));
                }
            }
            if let Some((pm, _)) = best {
                evicted.migrate(a, pm, obj.frag_cores())?;
                used += 1;
            }
        }
        let evict_case = Case { cs, ..Case::new(ctx, &evicted, mnl.saturating_sub(used)) };
        let rest = methods::ha(&evict_case);
        let [evict_score, evict_pairs] = score(&evict_case, &rest.plan)?;
        eprintln!("mapping {i} done");
        Ok([
            free.objective,
            free_score,
            free_pairs,
            bound.objective,
            bound_score,
            bound_pairs,
            rest.objective,
            evict_score,
            evict_pairs,
            model.cluster_score(state, &profiles),
        ])
    })?;
    let before = m[9];
    for (label, v) in
        ["unconstrained", "anti_affinity", "evict_then_ha"].into_iter().zip(m.chunks(3))
    {
        report.row(vec![json!(label), json!(v[0]), json!(before), json!(v[1]), json!(v[2])]);
    }
    Ok(report)
}

/// Ext. 7 — runtime-aware rescheduling (§8 future work): migrating a VM
/// that exits soon wastes budget, and its departure reopens the hole
/// anyway. On the same mappings and lifetime draws, **oblivious** HA
/// plans over all VMs while **runtime_aware** pins the VMs expected to
/// exit within the payback horizon. FR is measured *after* the
/// short-lived VMs have exited — the state an operator lives with.
pub(super) fn ext07_runtime_aware(ctx: &Ctx) -> SimResult<Report> {
    let states: Vec<_> = medium_states(ctx)?.into_iter().enumerate().collect();
    let mnl = ctx.mnl_or(4, 25);
    // Payback horizon: a migration must buy at least this much placement
    // lifetime to be worth its bandwidth. Median VM lifetime is 2 h.
    let horizon_secs = 1800.0;
    let median_secs = 7200.0;

    let mut report = Report::new(&[
        "variant",
        "fr_after_exits",
        "migrations",
        "wasted_migrations",
        "exiting_vms",
    ]);
    report.meta("mode", format!("{:?}", ctx.mode));
    report.meta("mnl", mnl);
    report.meta("horizon_secs", horizon_secs);
    report.meta("median_lifetime_secs", median_secs);

    // Per variant (fr after exits, plan length, wasted steps), then the
    // shared count of exiting VMs.
    let m = mean_over(&states, |(i, state)| {
        let lifetimes = LifetimeModel::generate(state, median_secs, ctx.seed + 31 + *i as u64);
        let exiting: Vec<VmId> = (0..state.num_vms())
            .map(|k| VmId(k as u32))
            .filter(|&v| lifetimes.remaining(v) <= horizon_secs)
            .collect();
        let run = |case: &Case| -> SimResult<[f64; 3]> {
            let plan = methods::ha(case).plan;
            let mut after = DynamicCluster::from_state(&methods::replay(case, &plan)?);
            for &v in &exiting {
                after.exit(v)?;
            }
            let wasted = plan.iter().filter(|a| exiting.contains(&a.vm)).count();
            Ok([after.fragment_rate(case.obj.frag_cores()), plan.len() as f64, wasted as f64])
        };
        let oblivious = Case::new(ctx, state, mnl);
        let mut aware = oblivious.clone();
        for &v in &exiting {
            aware.cs.pin(v)?;
        }
        let ([fr_o, len_o, wasted_o], [fr_a, len_a, wasted_a]) = (run(&oblivious)?, run(&aware)?);
        eprintln!("mapping {i} done ({} exiting)", exiting.len());
        Ok([fr_o, len_o, wasted_o, fr_a, len_a, wasted_a, exiting.len() as f64])
    })?;
    let exiting = m[6];
    for (label, v) in ["oblivious", "runtime_aware"].into_iter().zip(m.chunks(3)) {
        report.row(vec![json!(label), json!(v[0]), json!(v[1]), json!(v[2]), json!(exiting)]);
    }
    Ok(report)
}

/// Ext. 8 — warm-starting the exact solver with the heuristic (§2):
/// production MIP deployments estimate a feasible solution before
/// branch-and-cut. Cold start vs HA-warm-started B&B under the same
/// wall-clock budgets, reporting FR and nodes expanded.
pub(super) fn ext08_warmstart(ctx: &Ctx) -> SimResult<Report> {
    let states = medium_states(ctx)?;
    let mnl = ctx.mnl_or(4, 15);
    let mut report =
        Report::new(&["budget_ms", "fr_ha", "fr_cold", "fr_warm", "nodes_cold", "nodes_warm"]);
    report.meta("mode", format!("{:?}", ctx.mode));
    report.meta("mnl", mnl);
    for ms in ctx.pick(vec![50, 200], vec![250, 1000, 5000], vec![1000, 5000, 30000]) {
        // The budget is the swept variable here, not the mode's.
        let cfg = methods::solver_config(Duration::from_millis(ms), 48);
        let m = mean_over(&states, |state| {
            let c = Case::new(ctx, state, mnl);
            let ha = methods::ha(&c);
            let cold = branch_and_bound(state, &c.cs, c.obj, mnl, &cfg);
            let warm = branch_and_bound_warmstart(state, &c.cs, c.obj, mnl, &cfg, &ha.plan);
            Ok([
                ha.objective,
                cold.objective,
                warm.objective,
                cold.nodes_expanded as f64,
                warm.nodes_expanded as f64,
            ])
        })?;
        let mut row = vec![json!(ms)];
        row.extend(m.map(|v| json!(v)));
        report.row(row);
        eprintln!("budget {ms} ms done");
    }
    Ok(report)
}

/// Ext. 9 — the full daily operational loop (Figs. 1–3, end to end):
/// continuous best-fit VMS under diurnal churn with one off-peak VMR
/// window per day, comparing planners — none (fragments accumulate), HA,
/// and a trained VMR2L agent deployed greedily.
pub(super) fn ext09_day_cycle(ctx: &Ctx) -> SimResult<Report> {
    let cluster_cfg = train_cluster_config(ctx.mode);
    let initial = &ctx.states(&cluster_cfg, 1, 0)?[0];
    let agent = ctx.train(&ctx.spec(), ctx.states(&cluster_cfg, 8, 0)?)?;

    let mut cycle_cfg = DayCycleConfig::new(VmMix::standard());
    cycle_cfg.mnl = ctx.mnl_or(4, 15);
    // Churn scaled to the 40-PM training cluster: the exit rate is
    // proportional to population, so the equilibrium sits at base_rate /
    // exit_frac ≈ 285 VMs — the cluster neither drains nor saturates
    // over the simulated days.
    let churn = DiurnalModel { base_rate: 1.0, amplitude: 0.6, peak_minute: 840 };
    let smoke_churn = DiurnalModel { base_rate: 0.5, amplitude: 0.5, peak_minute: 840 };
    (cycle_cfg.days, cycle_cfg.sample_every, cycle_cfg.model, cycle_cfg.exit_frac) =
        ctx.smoke_or((1, 120, smoke_churn, 0.0005), (3, 30, churn, 0.0035));
    let trials: u64 = ctx.smoke_or(1, 5);

    let mut report = Report::new(&[
        "planner",
        "mean_fr",
        "mean_population",
        "mean_window_drop",
        "applied_per_window",
        "dropped_per_window",
    ]);
    report.meta("mode", format!("{:?}", ctx.mode));
    report.meta("days", cycle_cfg.days);
    report.meta("mnl", cycle_cfg.mnl);
    report.meta("trials", trials);

    type Planner<'a> = Box<dyn FnMut(&ClusterState, usize) -> Vec<Action> + 'a>;
    let planners: [(&str, Planner); 3] = [
        ("none", Box::new(|_, _| Vec::new())),
        ("ha", Box::new(|s, mnl| methods::ha(&Case::new(ctx, s, mnl)).plan)),
        (
            "vmr2l",
            // A window whose rollout fails deploys nothing.
            Box::new(|s, mnl| {
                methods::greedy(&agent, &Case::new(ctx, s, mnl)).map(|o| o.plan).unwrap_or_default()
            }),
        ),
    ];
    for (label, mut planner) in planners {
        let seeds: Vec<u64> = (0..trials).map(|t| ctx.seed ^ 0xda11 ^ (t * 7919)).collect();
        let m = mean_over(&seeds, |&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = run_day_cycle(initial, &mut planner, &cycle_cfg, &mut rng)?;
            let windows = out.windows.len().max(1) as f64;
            let applied: usize = out.windows.iter().map(|w| w.applied).sum();
            let dropped: usize = out.windows.iter().map(|w| w.dropped).sum();
            // A defragmented cluster admits more arrivals, so its
            // population (and utilization) runs higher — which
            // mechanically raises the FR ratio. Population is reported
            // alongside FR so the comparison is read correctly: the
            // business win is VMs hosted, not raw FR.
            let population = out.samples.iter().map(|s| s.population as f64).sum::<f64>()
                / out.samples.len().max(1) as f64;
            Ok([
                out.mean_fr(),
                population,
                out.mean_window_drop(),
                applied as f64 / windows,
                dropped as f64 / windows,
            ])
        })?;
        let mut row = vec![json!(label)];
        row.extend(m.map(|v| json!(v)));
        report.row(row);
        eprintln!("{label} done (mean FR {:.4})", m[0]);
    }
    Ok(report)
}
