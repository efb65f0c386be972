//! Branch-and-bound search over migration sequences — the in-repo
//! replacement for the Gurobi MIP baseline (ARCHITECTURE.md, crate map).
//!
//! The paper solves Eq. 1–7 with a commercial MIP solver; this module
//! searches the same solution space directly: a depth-≤MNL sequence of
//! single-VM migrations. Depth-first search with
//!
//! * an **admissible bound** (each move can reduce the fragment mass by at
//!   most a constant, so `F − r·G` bounds any completion of a node),
//! * **move ordering** by immediate fragment drop,
//! * optional **beam capping** of children (anytime mode), and
//! * a **deadline** / node budget, after which the incumbent is returned
//!   with `proved_optimal = false`.
//!
//! With no beam cap and no deadline the search is exhaustive, which the
//! test suite exploits to verify optimality against brute force on tiny
//! instances. With a cap it reproduces the paper's observed MIP behaviour:
//! excellent objective, runtime exploding with MNL.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::env::Action;
use vmr_sim::objective::Objective;

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Wall-clock budget. The search stops expanding at the deadline.
    pub time_limit: Duration,
    /// Maximum nodes expanded.
    pub node_limit: usize,
    /// Children kept per node (ordered by immediate gain); `None` = all.
    pub beam_width: Option<usize>,
    /// Skip children whose immediate gain is negative. Keeps the search
    /// monotone (good anytime behaviour) at the cost of missing
    /// sacrifice-now-win-later plans; exact runs should disable this.
    pub improving_only: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            time_limit: Duration::from_secs(5),
            node_limit: 2_000_000,
            beam_width: Some(64),
            improving_only: false,
        }
    }
}

impl SolverConfig {
    /// Exhaustive configuration (tests, tiny instances).
    pub fn exact() -> Self {
        SolverConfig {
            time_limit: Duration::from_secs(3600),
            node_limit: usize::MAX,
            beam_width: None,
            improving_only: false,
        }
    }
}

/// Solver outcome.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Best migration plan found (may be shorter than MNL).
    pub plan: Vec<Action>,
    /// Objective value after applying `plan` to the initial state.
    pub objective: f64,
    /// Nodes expanded during the search.
    pub nodes_expanded: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Whether the search completed without hitting a budget (and the
    /// returned plan is therefore optimal within the search space).
    pub proved_optimal: bool,
}

struct SearchCtx<'a> {
    state: ClusterState,
    constraints: &'a ConstraintSet,
    objective: Objective,
    cfg: SolverConfig,
    deadline: Instant,
    nodes: usize,
    budget_hit: bool,
    max_gain_per_move: f64,
    best_obj: f64,
    best_plan: Vec<Action>,
    path: Vec<Action>,
    visited: HashSet<u64>,
}

/// Solves a rescheduling instance by branch-and-bound.
pub fn branch_and_bound(
    initial: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    mnl: usize,
    cfg: &SolverConfig,
) -> SolveResult {
    branch_and_bound_warmstart(initial, constraints, objective, mnl, cfg, &[])
}

/// Branch-and-bound seeded with a heuristic incumbent (warm start).
///
/// Production MIP deployments rarely start cold: the paper's §2 notes
/// that current methods "rely on estimating feasible solutions using
/// proprietary heuristic methods" before branch-and-cut. Passing a plan
/// (e.g. from HA) installs its objective as the initial incumbent, so
/// the admissible bound prunes from the first node — same optimum,
/// often far fewer nodes.
///
/// Incumbent steps that do not replay (illegal under `constraints` or
/// beyond `mnl`) are skipped, mirroring footnote 7's drop semantics.
pub fn branch_and_bound_warmstart(
    initial: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    mnl: usize,
    cfg: &SolverConfig,
    incumbent: &[Action],
) -> SolveResult {
    let start = Instant::now();
    let max_gain = max_gain_per_move(initial, objective);
    let mut ctx = SearchCtx {
        state: initial.clone(),
        constraints,
        objective,
        cfg: *cfg,
        deadline: start + cfg.time_limit,
        nodes: 0,
        budget_hit: false,
        max_gain_per_move: max_gain,
        best_obj: objective.value(initial),
        best_plan: Vec::new(),
        path: Vec::new(),
        visited: HashSet::new(),
    };
    ctx.visited.insert(hash_state(&ctx.state));

    // Replay the incumbent on a scratch state; adopt it if it improves.
    if !incumbent.is_empty() {
        let mut scratch = initial.clone();
        let mut applied = Vec::new();
        for &a in incumbent.iter().take(mnl) {
            if constraints.migration_legal(&scratch, a.vm, a.pm).is_ok()
                && scratch.migrate(a.vm, a.pm, objective.frag_cores()).is_ok()
            {
                applied.push(a);
            }
        }
        let obj = objective.value(&scratch);
        if obj < ctx.best_obj - 1e-12 {
            ctx.best_obj = obj;
            ctx.best_plan = applied;
        }
    }

    dfs(&mut ctx, mnl);
    SolveResult {
        plan: ctx.best_plan,
        objective: ctx.best_obj,
        nodes_expanded: ctx.nodes,
        elapsed: start.elapsed(),
        proved_optimal: !ctx.budget_hit,
    }
}

fn dfs(ctx: &mut SearchCtx<'_>, remaining: usize) {
    if remaining == 0 || budget_spent(ctx) {
        return;
    }
    let current = ctx.objective.value(&ctx.state);
    // Admissible bound: even if every remaining move achieved the maximum
    // possible gain, could this subtree beat the incumbent?
    let bound = (current - remaining as f64 * ctx.max_gain_per_move).max(0.0);
    if bound >= ctx.best_obj - 1e-12 {
        return;
    }
    let cap = ctx.cfg.beam_width.unwrap_or(usize::MAX);
    let children = ctx.objective.ranked_moves(&ctx.state, ctx.constraints, cap, Some(ctx.deadline));
    // A scan the deadline cut short has not seen every child: expand none.
    if budget_spent(ctx) {
        return;
    }
    for (action, gain) in children {
        if ctx.cfg.improving_only && gain < 0.0 {
            continue;
        }
        if budget_spent(ctx) {
            return;
        }
        let Ok(rec) = ctx.state.migrate(action.vm, action.pm, ctx.objective.frag_cores()) else {
            continue; // raced legality (shouldn't happen; moves pre-checked)
        };
        ctx.nodes += 1;
        let h = hash_state(&ctx.state);
        if ctx.visited.insert(h) {
            ctx.path.push(action);
            let obj = ctx.objective.value(&ctx.state);
            if obj < ctx.best_obj - 1e-12 {
                ctx.best_obj = obj;
                ctx.best_plan = ctx.path.clone();
            }
            dfs(ctx, remaining - 1);
            ctx.path.pop();
        }
        ctx.state.undo(&rec).expect("undo of a just-applied migration");
    }
}

/// Whether the node or time budget is spent (for good), recording it.
fn budget_spent(ctx: &mut SearchCtx<'_>) -> bool {
    ctx.budget_hit |= ctx.nodes >= ctx.cfg.node_limit || Instant::now() >= ctx.deadline;
    ctx.budget_hit
}

/// Maximum objective drop any single migration can achieve, used as the
/// admissible per-move bound. Fragment mass on each touched NUMA can drop
/// by at most `X − 1` (single-NUMA granularity) and a move touches at most
/// four NUMAs; rates divide by the total free capacity, which is invariant
/// under migrations.
pub fn max_gain_per_move(state: &ClusterState, objective: Objective) -> f64 {
    let free_cpu = state.total_free_cpu().max(1) as f64;
    let free_mem = state.total_free_mem().max(1) as f64;
    match objective {
        Objective::FragRate { cores } | Objective::MnlToGoal { cores, .. } => {
            4.0 * (cores.saturating_sub(1)) as f64 / free_cpu
        }
        Objective::MixedVmType { lambda, small_cores, large_cores } => {
            // Double-NUMA fragment on one PM is bounded by the PM's free
            // CPU; a conservative per-move bound uses the largest PM.
            let max_pm_free = state.pms().iter().map(|p| p.free_cpu()).max().unwrap_or(0) as f64;
            lambda * 2.0 * max_pm_free.max((large_cores - 1) as f64 * 4.0) / free_cpu
                + (1.0 - lambda) * 4.0 * (small_cores.saturating_sub(1)) as f64 / free_cpu
        }
        Objective::MixedResource { lambda, cpu_cores, mem_gib } => {
            lambda * 4.0 * (mem_gib.saturating_sub(1)) as f64 / free_mem
                + (1.0 - lambda) * 4.0 * (cpu_cores.saturating_sub(1)) as f64 / free_cpu
        }
    }
}

/// Order-sensitive 64-bit hash of the placement vector (FNV-1a).
fn hash_state(state: &ClusterState) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    for pl in state.placements() {
        mix(pl.pm.0 as u64 + 1);
        let numa_code = match pl.numa {
            vmr_sim::types::NumaPlacement::Single(j) => j as u64 + 1,
            vmr_sim::types::NumaPlacement::Double => 3,
        };
        mix(numa_code);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
    use vmr_sim::env::ReschedEnv;
    use vmr_sim::types::{PmId, VmId};

    fn tiny_state(seed: u64) -> ClusterState {
        let cfg = ClusterConfig {
            pm_groups: vec![PmGroup { count: 4, cpu_per_numa: 44, mem_per_numa: 128 }],
            ..ClusterConfig::tiny()
        };
        generate_mapping(&cfg, seed).unwrap()
    }

    #[test]
    fn bnb_never_worse_than_initial() {
        let s = tiny_state(1);
        let cs = ConstraintSet::new(s.num_vms());
        let res = branch_and_bound(
            &s,
            &cs,
            Objective::default(),
            3,
            &SolverConfig { time_limit: Duration::from_millis(500), ..Default::default() },
        );
        assert!(res.objective <= s.fragment_rate(16) + 1e-12);
        assert!(res.plan.len() <= 3);
    }

    #[test]
    fn plan_replays_to_reported_objective() {
        let s = tiny_state(2);
        let cs = ConstraintSet::new(s.num_vms());
        let res = branch_and_bound(
            &s,
            &cs,
            Objective::default(),
            4,
            &SolverConfig { time_limit: Duration::from_millis(500), ..Default::default() },
        );
        let mut env = ReschedEnv::new(s, cs, Objective::default(), 4).unwrap();
        for &a in &res.plan {
            env.step(a).unwrap();
        }
        assert!(
            (env.objective_value() - res.objective).abs() < 1e-12,
            "replayed {} vs reported {}",
            env.objective_value(),
            res.objective
        );
    }

    /// Exhaustive B&B must match plain brute-force enumeration on a tiny
    /// instance with MNL 2.
    #[test]
    fn exact_matches_brute_force() {
        let s = tiny_state(3);
        let cs = ConstraintSet::new(s.num_vms());
        let obj = Objective::default();
        let res = branch_and_bound(&s, &cs, obj, 2, &SolverConfig::exact());
        assert!(res.proved_optimal);

        // Brute force over all (≤2)-step sequences.
        let mut best = obj.value(&s);
        let mut state = s.clone();
        let n_vms = state.num_vms();
        let n_pms = state.num_pms();
        for k1 in 0..n_vms {
            for i1 in 0..n_pms {
                let a1 = Action { vm: VmId(k1 as u32), pm: PmId(i1 as u32) };
                if cs.migration_legal(&state, a1.vm, a1.pm).is_err() {
                    continue;
                }
                let Ok(r1) = state.migrate(a1.vm, a1.pm, 16) else { continue };
                best = best.min(obj.value(&state));
                for k2 in 0..n_vms {
                    for i2 in 0..n_pms {
                        let a2 = Action { vm: VmId(k2 as u32), pm: PmId(i2 as u32) };
                        if cs.migration_legal(&state, a2.vm, a2.pm).is_err() {
                            continue;
                        }
                        let Ok(r2) = state.migrate(a2.vm, a2.pm, 16) else { continue };
                        best = best.min(obj.value(&state));
                        state.undo(&r2).unwrap();
                    }
                }
                state.undo(&r1).unwrap();
            }
        }
        assert!(
            (res.objective - best).abs() < 1e-12,
            "bnb {} vs brute force {}",
            res.objective,
            best
        );
    }

    #[test]
    fn deadline_is_respected() {
        let s = generate_mapping(&ClusterConfig::tiny(), 8).unwrap();
        let cs = ConstraintSet::new(s.num_vms());
        let budget = Duration::from_millis(100);
        let res = branch_and_bound(
            &s,
            &cs,
            Objective::default(),
            20,
            &SolverConfig { time_limit: budget, beam_width: None, ..Default::default() },
        );
        assert!(res.elapsed < budget + Duration::from_millis(300), "overran deadline");
    }

    /// The served `solver` setting on Medium: the first candidate scan
    /// outlasts a 50 ms budget, so the deadline must hold inside it.
    #[test]
    fn deadline_holds_inside_the_candidate_scan() {
        let s = generate_mapping(&ClusterConfig::medium(), 1).unwrap();
        let cs = ConstraintSet::new(s.num_vms());
        let budget = Duration::from_millis(50);
        let cfg = SolverConfig { time_limit: budget, beam_width: Some(24), ..Default::default() };
        let t0 = Instant::now();
        let res = branch_and_bound(&s, &cs, Objective::default(), 50, &cfg);
        let took = t0.elapsed();
        assert!(took < budget + Duration::from_millis(300), "overran deadline: {took:?}");
        assert!(!res.proved_optimal);
    }

    #[test]
    fn more_mnl_never_hurts() {
        let s = tiny_state(5);
        let cs = ConstraintSet::new(s.num_vms());
        let cfg = SolverConfig {
            time_limit: Duration::from_millis(400),
            beam_width: Some(16),
            ..Default::default()
        };
        let r1 = branch_and_bound(&s, &cs, Objective::default(), 1, &cfg);
        let r3 = branch_and_bound(&s, &cs, Objective::default(), 3, &cfg);
        assert!(r3.objective <= r1.objective + 1e-9);
    }

    #[test]
    fn warmstart_never_worse_than_incumbent() {
        let s = tiny_state(7);
        let cs = ConstraintSet::new(s.num_vms());
        let obj = Objective::default();
        // A greedy incumbent: the single best immediate move, repeated.
        let mut scratch = s.clone();
        let mut incumbent = Vec::new();
        for _ in 0..3 {
            let mut best: Option<(Action, f64)> = None;
            let before = obj.value(&scratch);
            for k in 0..scratch.num_vms() {
                for i in 0..scratch.num_pms() {
                    let a = Action { vm: VmId(k as u32), pm: PmId(i as u32) };
                    let Ok(rec) = scratch.migrate(a.vm, a.pm, 16) else { continue };
                    let gain = before - obj.value(&scratch);
                    scratch.undo(&rec).unwrap();
                    if best.is_none_or(|(_, g)| gain > g) {
                        best = Some((a, gain));
                    }
                }
            }
            let Some((a, _)) = best else { break };
            scratch.migrate(a.vm, a.pm, 16).unwrap();
            incumbent.push(a);
        }
        let incumbent_obj = obj.value(&scratch);

        // Zero search budget: the result must still be the incumbent.
        let cold = SolverConfig {
            time_limit: Duration::from_millis(0),
            node_limit: 0,
            ..Default::default()
        };
        let seeded = branch_and_bound_warmstart(&s, &cs, obj, 3, &cold, &incumbent);
        assert!(seeded.objective <= incumbent_obj + 1e-12);
        assert_eq!(seeded.plan, incumbent);

        // With real budget the warm-started search can only improve.
        let warm = branch_and_bound_warmstart(
            &s,
            &cs,
            obj,
            3,
            &SolverConfig { time_limit: Duration::from_millis(400), ..Default::default() },
            &incumbent,
        );
        assert!(warm.objective <= incumbent_obj + 1e-12);
    }

    #[test]
    fn warmstart_matches_exact_optimum() {
        let s = tiny_state(3);
        let cs = ConstraintSet::new(s.num_vms());
        let obj = Objective::default();
        let cold = branch_and_bound(&s, &cs, obj, 2, &SolverConfig::exact());
        // Seed with cold's own plan: the optimum must be unchanged and
        // still proved.
        let warm = branch_and_bound_warmstart(&s, &cs, obj, 2, &SolverConfig::exact(), &cold.plan);
        assert!(warm.proved_optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-12);
    }

    #[test]
    fn warmstart_skips_illegal_incumbent_steps() {
        let s = tiny_state(4);
        let cs = ConstraintSet::new(s.num_vms());
        let bogus = Action { vm: VmId(0), pm: PmId(s.num_pms() as u32) };
        let cold = SolverConfig {
            time_limit: Duration::from_millis(0),
            node_limit: 0,
            ..Default::default()
        };
        let res = branch_and_bound_warmstart(&s, &cs, Objective::default(), 3, &cold, &[bogus]);
        assert!(res.plan.is_empty(), "illegal incumbent step must be dropped");
        assert!((res.objective - s.fragment_rate(16)).abs() < 1e-12);
    }

    #[test]
    fn respects_pinned_vms() {
        let s = tiny_state(6);
        let mut cs = ConstraintSet::new(s.num_vms());
        for k in 0..s.num_vms() {
            cs.pin(VmId(k as u32)).unwrap();
        }
        let res = branch_and_bound(&s, &cs, Objective::default(), 5, &SolverConfig::default());
        assert!(res.plan.is_empty(), "all VMs pinned: no legal plan");
        assert!((res.objective - s.fragment_rate(16)).abs() < 1e-12);
    }
}
