//! The Filtering-Based Heuristic Algorithm (HA) of §2.1 — the kind of
//! two-phase (filter, score) greedy heuristic industry schedulers run.
//!
//! Each iteration:
//! 1. **Filtering** — compute, for every eligible VM, the fragment drop on
//!    its source PM if it were removed, and pick the VM with the largest
//!    drop (that has at least one legal destination).
//! 2. **Scoring** — compute the total fragment drop of moving that VM to
//!    every legal destination PM and greedily take the best.
//!
//! The algorithm stops when the selected move no longer lowers the
//! objective — the paper observes this happens around 25 migrations on the
//! Medium dataset, after which HA plateaus while MIP keeps improving.

use std::time::{Duration, Instant};

use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::env::Action;
use vmr_sim::objective::Objective;
use vmr_sim::types::{PmId, VmId};

/// Outcome of a heuristic run.
#[derive(Debug, Clone)]
pub struct HaResult {
    /// The migration plan (may be shorter than MNL if HA plateaus).
    pub plan: Vec<Action>,
    /// Final objective value.
    pub objective: f64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Runs HA for up to `mnl` migrations.
pub fn ha_solve(
    initial: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    mnl: usize,
) -> HaResult {
    let start = Instant::now();
    let mut state = initial.clone();
    let mut plan = Vec::new();
    for _ in 0..mnl {
        let Some(vm) = best_removal_candidate(&state, constraints, objective) else {
            break;
        };
        let Some((pm, total_gain)) = best_destination(&state, constraints, objective, vm) else {
            break;
        };
        if total_gain <= 1e-12 {
            break; // no improving move for the filtered candidate
        }
        if state.migrate(vm, pm, objective.frag_cores()).is_err() {
            break; // defensive: legality was already checked
        }
        plan.push(Action { vm, pm });
    }
    HaResult { objective: objective.value(&state), plan, elapsed: start.elapsed() }
}

/// Filtering stage: the eligible VM whose removal most lowers its source
/// PM's fragment score. Only VMs with ≥1 legal destination are candidates.
fn best_removal_candidate(
    state: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
) -> Option<VmId> {
    let mut best: Option<(VmId, f64)> = None;
    for k in 0..state.num_vms() {
        let vm = VmId(k as u32);
        if constraints.is_pinned(vm) {
            continue;
        }
        let pl = state.placement(vm);
        let mut host = state.pm(pl.pm).clone();
        host.release_vm(state.vm(vm), pl.numa);
        let gain = objective.pm_score(state, pl.pm) - objective.score_pm(&host);
        let candidate_better = best.is_none_or(|(_, bg)| gain > bg);
        if candidate_better && constraints.has_legal_destination(state, vm) {
            best = Some((vm, gain));
        }
    }
    best.map(|(vm, _)| vm)
}

/// Scoring stage: the legal destination PM with the largest drop in
/// summed (source, destination) score — each candidate scored, not
/// made ([`Objective::move_gain`]); returns that drop.
fn best_destination(
    state: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    vm: VmId,
) -> Option<(PmId, f64)> {
    let mut best: Option<(PmId, f64)> = None;
    let mut mask = Vec::new();
    constraints.pm_mask_into(state, vm, &mut mask);
    for (i, &legal) in mask.iter().enumerate() {
        let pm = PmId(i as u32);
        if !legal {
            continue;
        }
        let Some(gain) = objective.move_gain(state, vm, pm) else {
            continue;
        };
        if best.is_none_or(|(_, bg)| gain > bg) {
            best = Some((pm, gain));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig};

    fn state(seed: u64) -> ClusterState {
        generate_mapping(&ClusterConfig::tiny(), seed).unwrap()
    }

    #[test]
    fn ha_never_increases_objective() {
        let s = state(31);
        let cs = ConstraintSet::new(s.num_vms());
        let res = ha_solve(&s, &cs, Objective::default(), 10);
        assert!(res.objective <= s.fragment_rate(16) + 1e-12);
        assert!(res.plan.len() <= 10);
    }

    #[test]
    fn ha_plan_replays() {
        let s = state(32);
        let cs = ConstraintSet::new(s.num_vms());
        let res = ha_solve(&s, &cs, Objective::default(), 8);
        let mut replay = s.clone();
        for a in &res.plan {
            replay.migrate(a.vm, a.pm, 16).unwrap();
        }
        assert!((replay.fragment_rate(16) - res.objective).abs() < 1e-12);
    }

    #[test]
    fn ha_monotone_improvement_each_step() {
        let s = state(33);
        let cs = ConstraintSet::new(s.num_vms());
        let res = ha_solve(&s, &cs, Objective::default(), 12);
        let mut replay = s.clone();
        let mut prev = Objective::default().value(&replay);
        for a in &res.plan {
            replay.migrate(a.vm, a.pm, 16).unwrap();
            let now = Objective::default().value(&replay);
            assert!(now <= prev + 1e-12, "HA executed a non-improving move");
            prev = now;
        }
    }

    #[test]
    fn ha_plateaus_instead_of_thrashing() {
        let s = state(34);
        let cs = ConstraintSet::new(s.num_vms());
        let res_small = ha_solve(&s, &cs, Objective::default(), 5);
        let res_large = ha_solve(&s, &cs, Objective::default(), 500);
        // With an extreme MNL the heuristic must terminate on its own.
        assert!(res_large.plan.len() < 500);
        assert!(res_large.objective <= res_small.objective + 1e-12);
    }

    #[test]
    fn ha_respects_constraints() {
        let s = state(35);
        let mut cs = ConstraintSet::new(s.num_vms());
        for k in 0..s.num_vms() {
            cs.pin(VmId(k as u32)).unwrap();
        }
        let res = ha_solve(&s, &cs, Objective::default(), 10);
        assert!(res.plan.is_empty());
    }

    #[test]
    fn ha_works_with_mixed_objective() {
        let s = state(36);
        let cs = ConstraintSet::new(s.num_vms());
        let obj = Objective::MixedVmType { lambda: 0.4, small_cores: 16, large_cores: 64 };
        let res = ha_solve(&s, &cs, obj, 6);
        assert!(res.objective <= obj.value(&s) + 1e-12);
    }
}
