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

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::cluster::{fragment_ratio, ClusterState};
use crate::constraints::ConstraintSet;
use crate::env::Action;
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

/// The integer sums an [`Objective`]'s value divides: one or two
/// fragment numerators (the second a mixed objective's double-NUMA CPU or
/// memory fragment) and the total free CPU and memory, each a sum of
/// per-PM terms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mass {
    fragment: u64,
    fragment2: u64,
    free_cpu: u64,
    free_mem: u64,
}

/// A move scored by [`Objective::ranked_moves`], ordered best first: the
/// larger gain, then the earlier action. Gains are finite and never −0.0,
/// so `total_cmp` orders them as `<` does.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ranked {
    gain: f64,
    action: Action,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other.gain.total_cmp(&self.gain).then(self.action.cmp(&other.action))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for Ranked {}

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
        self.value_of(&self.mass(state))
    }

    /// The sums [`Self::value`] divides, in one pass over the PMs.
    pub fn mass(&self, state: &ClusterState) -> Mass {
        let zero = Mass::default();
        state.pms().iter().fold(zero, |m, p| Self::replace(m, zero, self.pm_mass(p)))
    }

    /// One PM's terms of [`Self::mass`].
    fn pm_mass(&self, p: &Pm) -> Mass {
        let fragment2 = match *self {
            Objective::FragRate { .. } | Objective::MnlToGoal { .. } => 0,
            Objective::MixedVmType { large_cores, .. } => p.cpu_fragment_double(large_cores),
            Objective::MixedResource { mem_gib, .. } => p.mem_fragment(mem_gib),
        };
        Mass {
            fragment: p.cpu_fragment(self.frag_cores()) as u64,
            fragment2: fragment2 as u64,
            free_cpu: p.free_cpu() as u64,
            free_mem: p.free_mem() as u64,
        }
    }

    /// The value of a cluster whose sums are `m`: the one formula.
    pub fn value_of(&self, m: &Mass) -> f64 {
        let cpu_rate = fragment_ratio(m.fragment, m.free_cpu);
        match *self {
            Objective::FragRate { .. } | Objective::MnlToGoal { .. } => cpu_rate,
            Objective::MixedVmType { lambda, .. } => {
                lambda * fragment_ratio(m.fragment2, m.free_cpu) + (1.0 - lambda) * cpu_rate
            }
            Objective::MixedResource { lambda, .. } => {
                lambda * fragment_ratio(m.fragment2, m.free_mem) + (1.0 - lambda) * cpu_rate
            }
        }
    }

    /// [`Self::value`] after [`ClusterState::migrate`]`(vm, pm,
    /// self.frag_cores())`, without making it: `m` is `self.mass(state)`
    /// with the source and destination PMs' terms replaced, so the sums,
    /// and so the bits, are the migrated cluster's. `None` exactly when
    /// that migrate would fail.
    pub fn value_after_move(
        &self,
        state: &ClusterState,
        m: &Mass,
        vm: VmId,
        pm: PmId,
    ) -> Option<f64> {
        let (src_after, dest_after) = state.pms_after_move(vm, pm, self.frag_cores())?;
        let src = state.placement(vm).pm;
        let term = |id: PmId| self.pm_mass(state.pm(id));
        let m = Self::replace(*m, term(src), self.pm_mass(&src_after));
        let m = if pm == src { m } else { Self::replace(m, term(pm), self.pm_mass(&dest_after)) };
        Some(self.value_of(&m))
    }

    /// [`Self::value`] after [`ClusterState::swap`]`(a, b,
    /// self.frag_cores())`, without making it, as
    /// [`Self::value_after_move`] does. `None` exactly when it would fail.
    pub fn value_after_swap(
        &self,
        state: &ClusterState,
        m: &Mass,
        a: VmId,
        b: VmId,
    ) -> Option<f64> {
        let (a_host, b_host) = state.pms_after_swap(a, b, self.frag_cores())?;
        let term = |vm: VmId| self.pm_mass(state.pm(state.placement(vm).pm));
        let m = Self::replace(*m, term(a), self.pm_mass(&a_host));
        Some(self.value_of(&Self::replace(m, term(b), self.pm_mass(&b_host))))
    }

    /// The sums `m` with one PM's terms `out` replaced by `into`.
    fn replace(m: Mass, out: Mass, into: Mass) -> Mass {
        Mass {
            fragment: m.fragment - out.fragment + into.fragment,
            fragment2: m.fragment2 - out.fragment2 + into.fragment2,
            free_cpu: m.free_cpu - out.free_cpu + into.free_cpu,
            free_mem: m.free_mem - out.free_mem + into.free_mem,
        }
    }

    /// The `cap` legal migrations of largest gain (`value` before minus
    /// after) best first, ties in `(vm, pm)` order — a stable sort of
    /// every move [`ConstraintSet::pm_mask_into`] allows, truncated to
    /// `cap` — holding at most `cap` while scanning. Once `deadline` has
    /// passed the scan stops between VMs and ranks what it has seen.
    pub fn ranked_moves(
        &self,
        state: &ClusterState,
        constraints: &ConstraintSet,
        cap: usize,
        deadline: Option<Instant>,
    ) -> Vec<(Action, f64)> {
        let mass = self.mass(state);
        let base = self.value_of(&mass);
        let mut kept = BinaryHeap::new(); // the worst move kept on top
        let mut mask = Vec::new();
        for k in 0..state.num_vms() {
            if deadline.is_some_and(|at| Instant::now() >= at) {
                break;
            }
            let vm = VmId(k as u32);
            constraints.pm_mask_into(state, vm, &mut mask);
            for (i, _) in mask.iter().enumerate().filter(|&(_, &legal)| legal) {
                let pm = PmId(i as u32);
                let Some(after) = self.value_after_move(state, &mass, vm, pm) else { continue };
                let scored = Ranked { gain: base - after, action: Action { vm, pm } };
                if kept.len() < cap {
                    kept.push(scored);
                } else if let Some(mut worst) = kept.peek_mut() {
                    if scored < *worst {
                        *worst = scored;
                    }
                }
            }
        }
        kept.into_sorted_vec().into_iter().map(|r| (r.action, r.gain)).collect()
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
        assert_eq!(obj.value(&s).to_bits(), s.fragment_rate(16).to_bits());
    }

    #[test]
    fn mixed_vm_type_blends() {
        let s = state();
        let obj = Objective::MixedVmType { lambda: 0.25, small_cores: 16, large_cores: 64 };
        let expect = 0.25 * s.fragment_rate_double(64) + 0.75 * s.fragment_rate(16);
        assert_eq!(obj.value(&s).to_bits(), expect.to_bits());
    }

    #[test]
    fn mixed_resource_blends() {
        let s = state();
        let obj = Objective::MixedResource { lambda: 0.5, cpu_cores: 16, mem_gib: 64 };
        let expect = 0.5 * s.mem_fragment_rate(64) + 0.5 * s.fragment_rate(16);
        assert_eq!(obj.value(&s).to_bits(), expect.to_bits());
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
