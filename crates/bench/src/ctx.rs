//! What every experiment is handed: the run mode, the seed, the two
//! command-line overrides, and the prologue they all used to spell out
//! (generate mappings, build the spec, train or restore the agent,
//! average a metric over the evaluation states).

use std::path::PathBuf;

use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::ClusterConfig;
use vmr_sim::error::SimResult;

use crate::cli::RunMode;
use crate::setup::{mappings, train_agent, Agent, AgentSpec};

/// Seed offset of the evaluation mappings relative to the training ones.
const EVAL_SEED_OFFSET: u64 = 1000;

/// The context of one experiment run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Run mode.
    pub mode: RunMode,
    /// Base RNG seed.
    pub seed: u64,
    /// Override for training updates (`--updates N`).
    pub updates: Option<usize>,
    /// Override for the experiment's MNL (`--mnl N`).
    pub mnl: Option<usize>,
    /// Where trained agents are checkpointed for reuse across
    /// experiments and invocations; `None` always trains.
    pub cache_dir: Option<PathBuf>,
}

impl Ctx {
    /// A context with no overrides and no agent cache.
    pub fn new(mode: RunMode, seed: u64) -> Self {
        Ctx { mode, seed, updates: None, mnl: None, cache_dir: None }
    }

    /// Picks a per-mode value.
    pub fn pick<T>(&self, smoke: T, default: T, full: T) -> T {
        match self.mode {
            RunMode::Smoke => smoke,
            RunMode::Default => default,
            RunMode::Full => full,
        }
    }

    /// `smoke` in smoke mode, `other` in the two real modes.
    pub fn smoke_or<T>(&self, smoke: T, other: T) -> T {
        if self.mode == RunMode::Smoke {
            smoke
        } else {
            other
        }
    }

    /// `--mnl` if given, else `smoke` in smoke mode and `other` otherwise.
    pub fn mnl_or(&self, smoke: usize, other: usize) -> usize {
        self.mnl.unwrap_or(self.smoke_or(smoke, other))
    }

    /// The standard VMR2L spec with `--updates` applied.
    pub fn spec(&self) -> AgentSpec {
        let mut spec = AgentSpec::vmr2l(self.mode, self.seed);
        if let Some(u) = self.updates {
            spec.train.updates = u;
        }
        spec
    }

    /// [`Ctx::spec`] at half the mode's update count (experiments that
    /// train several agents); `--updates` still wins.
    pub fn half_spec(&self) -> AgentSpec {
        let mut spec = AgentSpec::vmr2l(self.mode, self.seed);
        spec.train.updates = self.updates.unwrap_or(spec.train.updates / 2).max(1);
        spec
    }

    /// `count` mappings of `cfg` from seed `self.seed + offset`.
    pub fn states(
        &self,
        cfg: &ClusterConfig,
        count: usize,
        offset: u64,
    ) -> SimResult<Vec<ClusterState>> {
        mappings(cfg, count, self.seed + offset)
    }

    /// The mode's evaluation mappings of `cfg`, at most `cap` of them.
    pub fn eval_states(&self, cfg: &ClusterConfig, cap: usize) -> SimResult<Vec<ClusterState>> {
        self.states(cfg, self.mode.eval_mappings().min(cap), EVAL_SEED_OFFSET)
    }

    /// Trains (or restores from the cache) an agent on unconstrained
    /// mappings.
    pub fn train(&self, spec: &AgentSpec, states: Vec<ClusterState>) -> SimResult<Agent> {
        let constraints = states.iter().map(|s| ConstraintSet::new(s.num_vms())).collect();
        self.train_constrained(spec, states, constraints)
    }

    /// [`Ctx::train`] with one constraint set per training mapping.
    pub fn train_constrained(
        &self,
        spec: &AgentSpec,
        states: Vec<ClusterState>,
        constraints: Vec<ConstraintSet>,
    ) -> SimResult<Agent> {
        Ok(train_agent(spec, states, constraints, self.cache_dir.as_deref())?.0)
    }
}

/// Averages `N` metrics over `items`: the "mean over eval states"
/// accumulator. An empty slice yields NaNs.
pub fn mean_over<T, const N: usize>(
    items: &[T],
    mut metrics: impl FnMut(&T) -> SimResult<[f64; N]>,
) -> SimResult<[f64; N]> {
    let mut sum = [0.0; N];
    for item in items {
        for (acc, v) in sum.iter_mut().zip(metrics(item)?) {
            *acc += v;
        }
    }
    Ok(sum.map(|s| s / items.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_reach_the_spec() {
        let mut ctx = Ctx::new(RunMode::Smoke, 3);
        assert_eq!(ctx.spec().train.updates, RunMode::Smoke.train_updates());
        assert_eq!(ctx.half_spec().train.updates, 1);
        assert_eq!(ctx.mnl_or(3, 8), 3);
        ctx.updates = Some(7);
        ctx.mnl = Some(5);
        assert_eq!(ctx.spec().train.updates, 7);
        assert_eq!(ctx.half_spec().train.updates, 7);
        assert_eq!(ctx.mnl_or(3, 8), 5);
        assert_eq!(ctx.spec().train.seed, 3);
    }

    #[test]
    fn mean_over_averages_each_column_and_propagates_errors() {
        let m = mean_over(&[1.0, 3.0], |&x| Ok([x, 10.0 * x])).unwrap();
        assert_eq!(m, [2.0, 20.0]);
        let e = mean_over(&[1.0], |_| -> SimResult<[f64; 1]> {
            Err(vmr_sim::error::SimError::InvalidMapping("boom".into()))
        });
        assert!(e.is_err());
    }
}
