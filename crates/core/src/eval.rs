//! Risk-seeking evaluation (§3.4): exploit the deterministic simulator by
//! sampling many trajectories from the stochastic policy and deploying
//! only the best one, with quantile action-thresholding to keep sampled
//! trajectories away from low-probability (likely sub-optimal) actions.
//!
//! Trajectories are embarrassingly parallel: they are spread over one
//! scoped worker per available core (never more than there are
//! trajectories) — the CPU analogue of the paper's multi-GPU generation.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::env::{Action, ReschedEnv};
use vmr_sim::error::SimResult;
use vmr_sim::objective::Objective;

use crate::agent::{rollout_episode, ActPolicy, DecideOpts, Vmr2lAgent};

/// Risk-seeking evaluation configuration.
#[derive(Debug, Clone, Copy)]
pub struct RiskSeekingConfig {
    /// Number of trajectories to sample.
    pub trajectories: usize,
    /// Quantile threshold over VM probabilities (`None` = no threshold).
    pub vm_quantile: Option<f64>,
    /// Quantile threshold over PM probabilities.
    pub pm_quantile: Option<f64>,
    /// Base RNG seed (trajectory `t` uses `seed + t`).
    pub seed: u64,
}

impl Default for RiskSeekingConfig {
    fn default() -> Self {
        RiskSeekingConfig {
            trajectories: 16,
            vm_quantile: Some(0.98),
            pm_quantile: Some(0.95),
            seed: 0,
        }
    }
}

/// Outcome of a risk-seeking evaluation.
#[derive(Debug, Clone)]
pub struct RiskSeekingOutcome {
    /// Objective of the best trajectory.
    pub best_objective: f64,
    /// Plan of the best trajectory.
    pub best_plan: Vec<Action>,
    /// Final objectives of all sampled trajectories.
    pub all_objectives: Vec<f64>,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Samples `cfg.trajectories` episodes and returns the best. Forwards
/// run in the agent's own precision: an f32 agent's trajectories are
/// tolerance-equivalent (not bit-identical) to its f64 original's under
/// the same seeds.
pub fn risk_seeking_eval<P: ActPolicy + Sync>(
    agent: &Vmr2lAgent<P>,
    initial: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    mnl: usize,
    cfg: &RiskSeekingConfig,
) -> SimResult<RiskSeekingOutcome> {
    let start = Instant::now();
    let opts =
        DecideOpts { greedy: false, vm_quantile: cfg.vm_quantile, pm_quantile: cfg.pm_quantile };
    let run_one = |t: usize| -> SimResult<(f64, Vec<Action>)> {
        let mut env = ReschedEnv::new(initial.clone(), constraints.clone(), objective, mnl)?;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(t as u64));
        rollout_episode(agent, &mut env, &mut rng, &opts)
    };

    // Each worker runs one contiguous chunk of trajectory indices, so
    // the results stay in index order.
    type TrajResult = SimResult<(f64, Vec<Action>)>;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(cfg.trajectories);
    let results: Vec<TrajResult> = if workers <= 1 {
        (0..cfg.trajectories).map(run_one).collect()
    } else {
        let chunk = cfg.trajectories.div_ceil(workers);
        let mut slots: Vec<Option<TrajResult>> = (0..cfg.trajectories).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (worker, slots) in slots.chunks_mut(chunk).enumerate() {
                let run_one = &run_one;
                scope.spawn(move || {
                    for (off, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(run_one(worker * chunk + off));
                    }
                });
            }
        });
        slots.into_iter().map(|s| s.expect("all slots filled")).collect()
    };

    let mut best: Option<(f64, Vec<Action>)> = None;
    let mut all = Vec::with_capacity(results.len());
    for r in results {
        let (obj, plan) = r?;
        all.push(obj);
        if best.as_ref().is_none_or(|(b, _)| obj < *b) {
            best = Some((obj, plan));
        }
    }
    let (best_objective, best_plan) = best.expect("at least one trajectory");
    Ok(RiskSeekingOutcome {
        best_objective,
        best_plan,
        all_objectives: all,
        elapsed: start.elapsed(),
    })
}

/// Greedy (argmax) single-trajectory evaluation.
pub fn greedy_eval<P: ActPolicy>(
    agent: &Vmr2lAgent<P>,
    initial: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    mnl: usize,
) -> SimResult<(f64, Vec<Action>)> {
    let mut env = ReschedEnv::new(initial.clone(), constraints.clone(), objective, mnl)?;
    let mut rng = StdRng::seed_from_u64(0);
    rollout_episode(agent, &mut env, &mut rng, &DecideOpts { greedy: true, ..Default::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Vmr2lAgent;
    use crate::config::{ActionMode, ExtractorKind, ModelConfig};
    use crate::model::Vmr2lModel;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig};

    fn setup() -> (Vmr2lAgent<Vmr2lModel>, ClusterState, ConstraintSet) {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 };
        let agent = Vmr2lAgent::new(
            Vmr2lModel::new(cfg, ExtractorKind::SparseAttention, &mut rng),
            ActionMode::TwoStage,
        );
        let state = generate_mapping(&ClusterConfig::tiny(), 23).unwrap();
        let cs = ConstraintSet::new(state.num_vms());
        (agent, state, cs)
    }

    #[test]
    fn best_is_min_of_all() {
        let (agent, state, cs) = setup();
        let cfg = RiskSeekingConfig {
            trajectories: 6,
            vm_quantile: None,
            pm_quantile: None,
            ..Default::default()
        };
        let out = risk_seeking_eval(&agent, &state, &cs, Objective::default(), 3, &cfg).unwrap();
        assert_eq!(out.all_objectives.len(), 6);
        let min = out.all_objectives.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((out.best_objective - min).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_serial() {
        let (agent, state, cs) = setup();
        let opts = DecideOpts { greedy: false, vm_quantile: None, pm_quantile: None };
        for trajectories in [1, 3, 5] {
            let cfg =
                RiskSeekingConfig { trajectories, vm_quantile: None, pm_quantile: None, seed: 9 };
            let out =
                risk_seeking_eval(&agent, &state, &cs, Objective::default(), 3, &cfg).unwrap();
            let mut serial = Vec::new();
            for t in 0..trajectories {
                let mut env =
                    ReschedEnv::new(state.clone(), cs.clone(), Objective::default(), 3).unwrap();
                let mut rng = StdRng::seed_from_u64(9 + t as u64);
                serial.push(rollout_episode(&agent, &mut env, &mut rng, &opts).unwrap());
            }
            let objectives: Vec<f64> = serial.iter().map(|(obj, _)| *obj).collect();
            assert_eq!(
                out.all_objectives, objectives,
                "the workers must return the plain loop's trajectories in index order"
            );
            let best = serial.iter().min_by(|a, b| a.0.total_cmp(&b.0)).unwrap();
            assert_eq!((out.best_objective, &out.best_plan), (best.0, &best.1));
        }
    }

    #[test]
    fn more_trajectories_never_hurt() {
        let (agent, state, cs) = setup();
        let mk = |t: usize| RiskSeekingConfig {
            trajectories: t,
            vm_quantile: None,
            pm_quantile: None,
            seed: 4,
        };
        let few = risk_seeking_eval(&agent, &state, &cs, Objective::default(), 3, &mk(2)).unwrap();
        let many = risk_seeking_eval(&agent, &state, &cs, Objective::default(), 3, &mk(8)).unwrap();
        // Trajectory t uses seed+t, so the first 2 of `many` equal `few`.
        assert!(many.best_objective <= few.best_objective + 1e-12);
    }

    #[test]
    fn f32_eval_tracks_f64_eval() {
        let (agent, state, cs) = setup();
        let agent32 = agent.cast::<f32>();
        let (obj64, plan64) = greedy_eval(&agent, &state, &cs, Objective::default(), 3).unwrap();
        let (obj32, plan32) = greedy_eval(&agent32, &state, &cs, Objective::default(), 3).unwrap();
        assert_eq!(plan64, plan32, "greedy plans diverged between precisions");
        assert!((obj64 - obj32).abs() < 1e-12);

        let cfg =
            RiskSeekingConfig { trajectories: 4, vm_quantile: None, pm_quantile: None, seed: 31 };
        let out = risk_seeking_eval(&agent32, &state, &cs, Objective::default(), 3, &cfg).unwrap();
        assert_eq!(out.all_objectives.len(), 4);
        let min = out.all_objectives.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((out.best_objective - min).abs() < 1e-12);
    }

    #[test]
    fn greedy_eval_returns_plan_and_objective() {
        let (agent, state, cs) = setup();
        let (obj, plan) = greedy_eval(&agent, &state, &cs, Objective::default(), 3).unwrap();
        assert!((0.0..=1.0).contains(&obj));
        assert!(plan.len() <= 3);
        // Replay the plan: objectives must agree.
        let mut replay = state.clone();
        for a in &plan {
            replay.migrate(a.vm, a.pm, 16).unwrap();
        }
        assert!((replay.fragment_rate(16) - obj).abs() < 1e-12);
    }
}
