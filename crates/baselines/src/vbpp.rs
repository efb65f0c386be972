//! α-VBPP: the staged evict-and-repack baseline (§5.1).
//!
//! The Vector Bin Packing Problem heuristic is generalized to
//! *re*-scheduling: the episode is divided into `MNL / α` stages; each
//! stage greedily selects the `α` VMs contributing the most fragments and
//! repacks them with the classic VBPP first/best-fit-decreasing rule.
//! Because every stage optimizes a single snapshot without considering
//! future opportunities to move VMs back, α-VBPP underperforms at large
//! MNL — the behaviour Fig. 9 shows.

use std::time::{Duration, Instant};

use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::env::Action;
use vmr_sim::objective::Objective;
use vmr_sim::types::{PmId, VmId};

/// Result of an α-VBPP run.
#[derive(Debug, Clone)]
pub struct VbppResult {
    /// Migration plan (≤ MNL actions).
    pub plan: Vec<Action>,
    /// Final objective value.
    pub objective: f64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Runs α-VBPP. `alpha` is the per-stage eviction count (the paper tunes
/// it to 10 on the Medium dataset).
pub fn vbpp_solve(
    initial: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    mnl: usize,
    alpha: usize,
) -> VbppResult {
    let start = Instant::now();
    let alpha = alpha.max(1);
    let mut state = initial.clone();
    let mut plan = Vec::new();
    let mut mask = Vec::new();
    let stages = mnl.div_ceil(alpha);
    'stages: for stage in 0..stages {
        let budget = alpha.min(mnl - stage * alpha);
        if budget == 0 {
            break;
        }
        // Select the `budget` eligible VMs whose source NUMAs carry the
        // most fragment mass per VM (worst offenders first).
        let mut scored: Vec<(f64, VmId)> = (0..state.num_vms())
            .map(|k| VmId(k as u32))
            .filter(|&vm| !constraints.is_pinned(vm))
            .map(|vm| {
                let src = state.placement(vm).pm;
                (objective.pm_score(&state, src), vm)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        let victims: Vec<VmId> = scored.into_iter().take(budget).map(|(_, v)| v).collect();
        // Repack in decreasing CPU-size order (best-fit-decreasing).
        let mut ordered = victims;
        ordered.sort_by_key(|&vm| std::cmp::Reverse(state.vm(vm).cpu));
        let mut moved_any = false;
        for vm in ordered {
            if plan.len() >= mnl {
                break 'stages;
            }
            // Best-fit destination: the legal PM minimizing the resulting
            // objective.
            let mass = objective.mass(&state);
            constraints.pm_mask_into(&state, vm, &mut mask);
            let mut best: Option<(PmId, f64)> = None;
            for (i, _) in mask.iter().enumerate().filter(|&(_, &legal)| legal) {
                let pm = PmId(i as u32);
                let Some(val) = objective.value_after_move(&state, &mass, vm, pm) else { continue };
                if best.is_none_or(|(_, bv)| val < bv) {
                    best = Some((pm, val));
                }
            }
            let current = objective.value_of(&mass);
            if let Some((pm, val)) = best {
                if val < current - 1e-12 {
                    state.migrate(vm, pm, objective.frag_cores()).expect("scored move");
                    plan.push(Action { vm, pm });
                    moved_any = true;
                }
            }
        }
        if !moved_any {
            break; // stage made no progress; later stages repeat the same picks
        }
    }
    VbppResult { objective: objective.value(&state), plan, elapsed: start.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig};

    fn state(seed: u64) -> ClusterState {
        generate_mapping(&ClusterConfig::tiny(), seed).unwrap()
    }

    #[test]
    fn vbpp_improves_or_holds() {
        let s = state(41);
        let cs = ConstraintSet::new(s.num_vms());
        let res = vbpp_solve(&s, &cs, Objective::default(), 10, 3);
        assert!(res.objective <= s.fragment_rate(16) + 1e-12);
        assert!(res.plan.len() <= 10);
    }

    #[test]
    fn vbpp_plan_replays() {
        let s = state(42);
        let cs = ConstraintSet::new(s.num_vms());
        let res = vbpp_solve(&s, &cs, Objective::default(), 8, 4);
        let mut replay = s.clone();
        for a in &res.plan {
            replay.migrate(a.vm, a.pm, 16).unwrap();
        }
        assert!((replay.fragment_rate(16) - res.objective).abs() < 1e-12);
    }

    #[test]
    fn vbpp_respects_mnl() {
        let s = state(43);
        let cs = ConstraintSet::new(s.num_vms());
        for mnl in [1usize, 3, 7] {
            let res = vbpp_solve(&s, &cs, Objective::default(), mnl, 10);
            assert!(res.plan.len() <= mnl);
        }
    }

    #[test]
    fn vbpp_terminates_on_stagnation() {
        let s = state(44);
        let cs = ConstraintSet::new(s.num_vms());
        let res = vbpp_solve(&s, &cs, Objective::default(), 1000, 5);
        assert!(res.plan.len() < 1000, "must stop when stages stop improving");
    }

    #[test]
    fn alpha_zero_treated_as_one() {
        let s = state(45);
        let cs = ConstraintSet::new(s.num_vms());
        let res = vbpp_solve(&s, &cs, Objective::default(), 4, 0);
        assert!(res.plan.len() <= 4);
    }
}
