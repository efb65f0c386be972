//! NeuPlan-like hybrid baseline (§5.1; Zhu et al., SIGCOMM '21).
//!
//! NeuPlan splits the plan between learning and optimization: an RL agent
//! emits the first few migrations to prune the search space, then an exact
//! solver finishes the remaining budget. A relax factor β controls how
//! much of the MNL the solver explores — large β exceeds the latency
//! limit, small β leaves the solver too little room, which is why NeuPlan
//! trails VMR2L at high MNLs in Fig. 9.

use std::time::{Duration, Instant};

use rand::Rng;

use vmr_core::agent::{roll_out, ActPolicy, DecideOpts, InferCtx, Vmr2lAgent};
use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::env::{Action, ReschedEnv};
use vmr_sim::error::SimResult;
use vmr_sim::objective::Objective;
use vmr_solver::bnb::{branch_and_bound, SolverConfig};

/// NeuPlan configuration.
#[derive(Debug, Clone, Copy)]
pub struct NeuPlanConfig {
    /// Relax factor β: how many trailing migrations the exact solver owns.
    pub beta: usize,
    /// Solver budget for the suffix.
    pub solver: SolverConfig,
}

impl Default for NeuPlanConfig {
    fn default() -> Self {
        NeuPlanConfig {
            beta: 4,
            solver: SolverConfig {
                time_limit: Duration::from_secs(3),
                beam_width: Some(24),
                ..Default::default()
            },
        }
    }
}

/// Result of a NeuPlan run.
#[derive(Debug, Clone)]
pub struct NeuPlanResult {
    /// Combined plan: RL prefix then solver suffix.
    pub plan: Vec<Action>,
    /// Final objective.
    pub objective: f64,
    /// Length of the RL prefix.
    pub prefix_len: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Runs the hybrid: RL greedy prefix of `mnl − β` steps, then
/// branch-and-bound over the final β migrations.
pub fn neuplan_solve<P: ActPolicy, R: Rng + ?Sized>(
    agent: &Vmr2lAgent<P>,
    initial: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    mnl: usize,
    cfg: &NeuPlanConfig,
    rng: &mut R,
) -> SimResult<NeuPlanResult> {
    let start = Instant::now();
    let beta = cfg.beta.min(mnl);
    let prefix_budget = mnl - beta;
    let mut env = ReschedEnv::new(initial.clone(), constraints.clone(), objective, prefix_budget)?;
    let opts = DecideOpts { greedy: true, ..Default::default() };
    let mut plan = roll_out(agent, &mut env, &mut InferCtx::new(), rng, &opts)?;
    let prefix_len = plan.len();
    let mid_state = env.state().clone();
    let suffix = branch_and_bound(&mid_state, constraints, objective, beta, &cfg.solver);
    plan.extend(suffix.plan.iter().copied());
    Ok(NeuPlanResult { objective: suffix.objective, plan, prefix_len, elapsed: start.elapsed() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
    use vmr_core::model::Vmr2lModel;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig};

    fn agent() -> Vmr2lAgent<Vmr2lModel> {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 };
        Vmr2lAgent::new(
            Vmr2lModel::new(cfg, ExtractorKind::SparseAttention, &mut rng),
            ActionMode::TwoStage,
        )
    }

    #[test]
    fn neuplan_combines_prefix_and_suffix() {
        let s = generate_mapping(&ClusterConfig::tiny(), 71).unwrap();
        let cs = ConstraintSet::new(s.num_vms());
        let a = agent();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = NeuPlanConfig {
            beta: 2,
            solver: SolverConfig {
                time_limit: Duration::from_millis(400),
                beam_width: Some(8),
                ..Default::default()
            },
        };
        let res = neuplan_solve(&a, &s, &cs, Objective::default(), 5, &cfg, &mut rng).unwrap();
        assert!(res.plan.len() <= 5);
        assert!(res.prefix_len <= 3);
        // Replay to verify the reported objective.
        let mut replay = s.clone();
        for act in &res.plan {
            replay.migrate(act.vm, act.pm, 16).unwrap();
        }
        assert!((replay.fragment_rate(16) - res.objective).abs() < 1e-12);
    }

    #[test]
    fn beta_capped_at_mnl() {
        let s = generate_mapping(&ClusterConfig::tiny(), 72).unwrap();
        let cs = ConstraintSet::new(s.num_vms());
        let a = agent();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = NeuPlanConfig {
            beta: 50,
            solver: SolverConfig {
                time_limit: Duration::from_millis(300),
                beam_width: Some(8),
                ..Default::default()
            },
        };
        let res = neuplan_solve(&a, &s, &cs, Objective::default(), 3, &cfg, &mut rng).unwrap();
        assert_eq!(res.prefix_len, 0, "β ≥ MNL means the solver owns the whole plan");
        assert!(res.plan.len() <= 3);
    }

    #[test]
    fn neuplan_never_worse_than_initial() {
        let s = generate_mapping(&ClusterConfig::tiny(), 73).unwrap();
        let cs = ConstraintSet::new(s.num_vms());
        let a = agent();
        let mut rng = StdRng::seed_from_u64(3);
        let res = neuplan_solve(
            &a,
            &s,
            &cs,
            Objective::default(),
            4,
            &NeuPlanConfig {
                beta: 2,
                solver: SolverConfig {
                    time_limit: Duration::from_millis(300),
                    beam_width: Some(8),
                    ..Default::default()
                },
            },
            &mut rng,
        )
        .unwrap();
        assert!(res.objective <= s.fragment_rate(16) + 1e-12);
    }
}
