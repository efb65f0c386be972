//! Rescheduling objectives and the dense per-step reward (Eq. 8–11).
//!
//! All paper objectives are supported:
//! * 16-core fragment rate (the default, §2.1),
//! * mixed multi-VM-type FR — `λ·FR_64 + (1−λ)·FR_16` (§5.5.2),
//! * mixed multi-resource FR — `λ·Mem_64 + (1−λ)·FR_16` (§5.5.3),
//! * minimize migrations to a target FR (§5.5.1, Eq. 10–11).
//!
//! The dense reward is the drop of a per-PM *score* on the source and
//! destination PMs of a migration, rescaled by the constant `c = 64`
//! (Eq. 8). Because the score is additive over PMs, episode rewards
//! telescope to the total drop of the global objective — a property the
//! test suite checks.

use serde::{Deserialize, Serialize};

use crate::cluster::ClusterState;
use crate::machine::Pm;
use crate::types::{PmId, VmId, DEFAULT_FRAGMENT_CORES, REWARD_SCALE};

/// The optimization target of a rescheduling request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize the X-core CPU fragment rate (paper default: X = 16).
    FragRate {
        /// Fragment granularity in cores.
        cores: u32,
    },
    /// Minimize `λ·FR_large + (1−λ)·FR_small` where the large flavor is a
    /// double-NUMA type (§5.5.2's FR16/FR64 mix).
    MixedVmType {
        /// Weight on the large (double-NUMA) flavor's FR.
        lambda: f64,
        /// Small flavor granularity (cores, single NUMA).
        small_cores: u32,
        /// Large flavor granularity (cores, double NUMA).
        large_cores: u32,
    },
    /// Minimize `λ·Mem_X + (1−λ)·FR_small` (§5.5.3's FR16/Mem64 mix).
    MixedResource {
        /// Weight on the memory fragment rate.
        lambda: f64,
        /// CPU fragment granularity (cores).
        cpu_cores: u32,
        /// Memory fragment granularity (GiB).
        mem_gib: u32,
    },
    /// Reach `fr_goal` with as few migrations as possible (§5.5.1). The
    /// reward adds −1 per step while above the goal and +10 on reaching it.
    MnlToGoal {
        /// Target fragment rate.
        fr_goal: f64,
        /// Fragment granularity in cores.
        cores: u32,
    },
}

impl Default for Objective {
    fn default() -> Self {
        Objective::FragRate { cores: DEFAULT_FRAGMENT_CORES }
    }
}

impl Objective {
    /// The CPU granularity used for best-fit NUMA selection during
    /// migrations under this objective.
    pub fn frag_cores(&self) -> u32 {
        match *self {
            Objective::FragRate { cores } => cores,
            Objective::MixedVmType { small_cores, .. } => small_cores,
            Objective::MixedResource { cpu_cores, .. } => cpu_cores,
            Objective::MnlToGoal { cores, .. } => cores,
        }
    }

    /// Global objective value (lower is better). For fragment-rate style
    /// objectives this is the (mixed) fragment rate in `[0, 1]`.
    pub fn value(&self, state: &ClusterState) -> f64 {
        match *self {
            Objective::FragRate { cores } => state.fragment_rate(cores),
            Objective::MixedVmType { lambda, small_cores, large_cores } => {
                lambda * state.fragment_rate_double(large_cores)
                    + (1.0 - lambda) * state.fragment_rate(small_cores)
            }
            Objective::MixedResource { lambda, cpu_cores, mem_gib } => {
                lambda * state.mem_fragment_rate(mem_gib)
                    + (1.0 - lambda) * state.fragment_rate(cpu_cores)
            }
            Objective::MnlToGoal { cores, .. } => state.fragment_rate(cores),
        }
    }

    /// Per-PM score `S_i` (Eq. 8): the PM's fragment mass under this
    /// objective, rescaled by `c`. The global fragment mass is the sum of
    /// scores over all PMs, so per-step score drops telescope.
    pub fn pm_score(&self, state: &ClusterState, pm: PmId) -> f64 {
        self.score_pm(state.pm(pm))
    }

    /// [`Self::pm_score`] of a detached PM value — the one copy of the
    /// Eq. 8 per-PM formulas.
    pub fn score_pm(&self, p: &Pm) -> f64 {
        match *self {
            Objective::FragRate { cores } | Objective::MnlToGoal { cores, .. } => {
                p.cpu_fragment(cores) as f64 / REWARD_SCALE
            }
            Objective::MixedVmType { lambda, small_cores, large_cores } => {
                (lambda * p.cpu_fragment_double(large_cores) as f64
                    + (1.0 - lambda) * p.cpu_fragment(small_cores) as f64)
                    / REWARD_SCALE
            }
            Objective::MixedResource { lambda, cpu_cores, mem_gib } => {
                (lambda * p.mem_fragment(mem_gib) as f64
                    + (1.0 - lambda) * p.cpu_fragment(cpu_cores) as f64)
                    / REWARD_SCALE
            }
        }
    }

    /// The drop in summed source + destination score that
    /// [`ClusterState::migrate`]`(vm, pm, self.frag_cores())` would
    /// cause, computed without making the move (the PM is counted once on
    /// a same-PM NUMA flip). `None` exactly when that migrate would fail.
    pub fn move_gain(&self, state: &ClusterState, vm: VmId, pm: PmId) -> Option<f64> {
        let (src_after, dest_after) = state.pms_after_move(vm, pm, self.frag_cores())?;
        let src = state.placement(vm).pm;
        let before =
            self.pm_score(state, src) + if pm != src { self.pm_score(state, pm) } else { 0.0 };
        let after =
            self.score_pm(&src_after) + if pm != src { self.score_pm(&dest_after) } else { 0.0 };
        Some(before - after)
    }

    /// Dense reward for a migration that touched `src` and `dest`
    /// (Eq. 9): score drops on both PMs. `before` are the scores captured
    /// before the migration. When `src == dest` (same-PM NUMA flip) the PM
    /// is counted once.
    pub fn step_reward(
        &self,
        state_after: &ClusterState,
        src: PmId,
        dest: PmId,
        src_score_before: f64,
        dest_score_before: f64,
    ) -> f64 {
        if src == dest {
            return src_score_before - self.pm_score(state_after, src);
        }
        (src_score_before - self.pm_score(state_after, src))
            + (dest_score_before - self.pm_score(state_after, dest))
    }

    /// Goal-shaping term for [`Objective::MnlToGoal`] (Eq. 11): −1 while
    /// above the goal, +10 upon reaching it. Zero for other objectives.
    pub fn goal_bonus(&self, fr_after: f64) -> f64 {
        match *self {
            Objective::MnlToGoal { fr_goal, .. } => {
                if fr_after > fr_goal {
                    -1.0
                } else {
                    10.0
                }
            }
            _ => 0.0,
        }
    }

    /// Whether the episode should terminate early because the goal has
    /// been reached (only for [`Objective::MnlToGoal`]).
    pub fn reached_goal(&self, fr_after: f64) -> bool {
        matches!(*self, Objective::MnlToGoal { fr_goal, .. } if fr_after <= fr_goal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Placement, Vm};
    use crate::types::{NumaPlacement, NumaPolicy};

    fn state() -> ClusterState {
        let pms = vec![Pm::symmetric(PmId(0), 44, 128), Pm::symmetric(PmId(1), 44, 128)];
        let vms = vec![
            Vm { id: VmId(0), cpu: 16, mem: 32, numa: NumaPolicy::Single },
            Vm { id: VmId(1), cpu: 8, mem: 16, numa: NumaPolicy::Single },
        ];
        let placements = vec![
            Placement { pm: PmId(0), numa: NumaPlacement::Single(0) },
            Placement { pm: PmId(1), numa: NumaPlacement::Single(0) },
        ];
        ClusterState::new(pms, vms, placements).unwrap()
    }

    #[test]
    fn frag_rate_objective_matches_cluster_metric() {
        let s = state();
        let obj = Objective::default();
        assert!((obj.value(&s) - s.fragment_rate(16)).abs() < 1e-15);
    }

    #[test]
    fn mixed_vm_type_blends() {
        let s = state();
        let obj = Objective::MixedVmType { lambda: 0.25, small_cores: 16, large_cores: 64 };
        let expect = 0.25 * s.fragment_rate_double(64) + 0.75 * s.fragment_rate(16);
        assert!((obj.value(&s) - expect).abs() < 1e-15);
    }

    #[test]
    fn mixed_resource_blends() {
        let s = state();
        let obj = Objective::MixedResource { lambda: 0.5, cpu_cores: 16, mem_gib: 64 };
        let expect = 0.5 * s.mem_fragment_rate(64) + 0.5 * s.fragment_rate(16);
        assert!((obj.value(&s) - expect).abs() < 1e-15);
    }

    #[test]
    fn pm_scores_sum_to_global_fragment_mass() {
        let s = state();
        let obj = Objective::default();
        let total: f64 = (0..s.num_pms()).map(|i| obj.pm_score(&s, PmId(i as u32))).sum();
        assert!((total * REWARD_SCALE - s.total_cpu_fragment(16) as f64).abs() < 1e-9);
    }

    #[test]
    fn reward_telescopes_to_fragment_drop() {
        let mut s = state();
        let obj = Objective::default();
        let src = PmId(1);
        let dest = PmId(0);
        let sb = obj.pm_score(&s, src);
        let db = obj.pm_score(&s, dest);
        let total_before = s.total_cpu_fragment(16) as f64;
        s.migrate(VmId(1), dest, 16).unwrap();
        let r = obj.step_reward(&s, src, dest, sb, db);
        let total_after = s.total_cpu_fragment(16) as f64;
        assert!((r - (total_before - total_after) / REWARD_SCALE).abs() < 1e-9);
    }

    #[test]
    fn goal_bonus_and_termination() {
        let obj = Objective::MnlToGoal { fr_goal: 0.3, cores: 16 };
        assert_eq!(obj.goal_bonus(0.45), -1.0);
        assert_eq!(obj.goal_bonus(0.25), 10.0);
        assert!(obj.reached_goal(0.25));
        assert!(!obj.reached_goal(0.31));
        assert_eq!(Objective::default().goal_bonus(0.1), 0.0);
    }
}
