//! VM *scheduling* (VMS) placement policies.
//!
//! The paper distinguishes scheduling — placing each arriving VM onto a
//! PM under strict latency (§1, green path in Fig. 2) — from
//! *re*scheduling. Production uses best-fit because VMS must answer in
//! microseconds; best-fit under churn is precisely the process that
//! scatters fragments and motivates VMR. This module implements the
//! best-fit policy the paper names plus the classic alternatives
//! (first-fit, worst-fit, random) so the trace generator and benches can
//! quantify how the *initial* placement policy shapes fragmentation.
//!
//! All policies are pure functions over a PM slice: callers (the dynamic
//! cluster, dataset generation) own the mutation.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::{SimError, SimResult};
use crate::machine::{placement_fits, Pm, Vm};
use crate::types::{NumaPlacement, PmId};

/// Placement policy used by the VM scheduler for arriving VMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VmsPolicy {
    /// Choose the feasible PM/NUMA that minimizes the resulting X-core
    /// fragment on that PM — what ByteDance runs in production.
    BestFit,
    /// Choose the first feasible PM in id order (lowest NUMA first).
    FirstFit,
    /// Choose the feasible PM with the most free CPU after placement —
    /// spreads load, classically the worst for fragmentation.
    WorstFit,
    /// Choose uniformly at random among all feasible (PM, NUMA) slots.
    Random,
}

impl VmsPolicy {
    /// All policies, for sweeps.
    pub const ALL: [VmsPolicy; 4] =
        [VmsPolicy::BestFit, VmsPolicy::FirstFit, VmsPolicy::WorstFit, VmsPolicy::Random];

    /// Human-readable policy name.
    pub fn name(self) -> &'static str {
        match self {
            VmsPolicy::BestFit => "best-fit",
            VmsPolicy::FirstFit => "first-fit",
            VmsPolicy::WorstFit => "worst-fit",
            VmsPolicy::Random => "random",
        }
    }
}

/// The X-core fragment PM `pm` would have after hosting `vm` at `pl`.
///
/// Used as the best-fit score. Assumes `placement_fits` already held.
fn fragment_after(pm: &Pm, vm: &Vm, pl: NumaPlacement, frag_cores: u32) -> u32 {
    let mut fragment = 0;
    for (j, numa) in pm.numas.iter().enumerate() {
        let hosts = match pl {
            NumaPlacement::Single(k) => k as usize == j,
            NumaPlacement::Double => true,
        };
        let free = numa.free_cpu() - if hosts { vm.cpu_per_numa() } else { 0 };
        fragment += free % frag_cores;
    }
    fragment
}

/// Chooses where to place an arriving VM under `policy`.
///
/// Returns `None` when no PM can host the VM. `frag_cores` is the
/// fragment granularity best-fit scores against (16 in the paper). The
/// RNG is only consulted by [`VmsPolicy::Random`].
pub fn choose_placement<R: Rng + ?Sized>(
    pms: &[Pm],
    vm: &Vm,
    policy: VmsPolicy,
    frag_cores: u32,
    rng: &mut R,
) -> Option<(PmId, NumaPlacement)> {
    let feasible = || {
        pms.iter().flat_map(|pm| {
            vm.candidate_placements()
                .iter()
                .filter(move |&&pl| placement_fits(pm, vm, pl))
                .map(move |&pl| (pm, pl))
        })
    };
    match policy {
        VmsPolicy::FirstFit => feasible().next().map(|(pm, pl)| (pm.id, pl)),
        // A plain scan, not `feasible().min_by_key(..)` scoring a cloned
        // PM: this is the inner loop of dataset generation (so of every
        // session set-up) and of every `vm_create` delta, and the
        // iterator form was the one piece of scalar code the x86-64-v3
        // build made slower (filling a Large cluster: 52 ms on SSE2,
        // 70 ms on v3; this loop is 23 ms on either). Same choice: the
        // smallest (fragment, PM id), the first placement on a tie.
        VmsPolicy::BestFit => {
            let mut best: Option<(u32, PmId, NumaPlacement)> = None;
            for pm in pms {
                for &pl in vm.candidate_placements() {
                    if placement_fits(pm, vm, pl) {
                        let fragment = fragment_after(pm, vm, pl, frag_cores);
                        if best.is_none_or(|(f, id, _)| (fragment, pm.id) < (f, id)) {
                            best = Some((fragment, pm.id, pl));
                        }
                    }
                }
            }
            best.map(|(_, id, pl)| (id, pl))
        }
        VmsPolicy::WorstFit => feasible()
            // Most free CPU post-placement = most free pre-placement,
            // since the VM subtracts the same amount everywhere; break
            // ties toward the lower PM id for determinism.
            .max_by_key(|(pm, _)| (pm.free_cpu(), std::cmp::Reverse(pm.id)))
            .map(|(pm, pl)| (pm.id, pl)),
        VmsPolicy::Random => {
            let slots: Vec<(PmId, NumaPlacement)> =
                feasible().map(|(pm, pl)| (pm.id, pl)).collect();
            if slots.is_empty() {
                None
            } else {
                Some(slots[rng.gen_range(0..slots.len())])
            }
        }
    }
}

/// Fallible form of [`choose_placement`]: an admission decision that
/// reports "nothing fits" as a typed [`SimError::NoFeasiblePlacement`]
/// instead of `None`, so daemon-facing callers (cluster deltas, drain)
/// can propagate a structured error rather than panic or silently drop.
pub fn schedule_vm<R: Rng + ?Sized>(
    pms: &[Pm],
    vm: &Vm,
    policy: VmsPolicy,
    frag_cores: u32,
    rng: &mut R,
) -> SimResult<(PmId, NumaPlacement)> {
    choose_placement(pms, vm, policy, frag_cores, rng).ok_or(SimError::NoFeasiblePlacement(vm.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{NumaPolicy, VmId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pm(id: u32, cpu: u32, mem: u32) -> Pm {
        Pm::symmetric(PmId(id), cpu, mem)
    }

    fn vm(cpu: u32, mem: u32, numa: NumaPolicy) -> Vm {
        Vm { id: VmId(0), cpu, mem, numa }
    }

    /// Three PMs with staged occupancy.
    fn cluster() -> Vec<Pm> {
        let mut pms = vec![pm(0, 44, 128), pm(1, 44, 128), pm(2, 44, 128)];
        assert!(pms[0].numas[0].try_alloc(40, 80)); // 4 CPUs free on NUMA 0
        assert!(pms[0].numas[1].try_alloc(26, 48)); // 18 CPUs free on NUMA 1
        assert!(pms[1].numas[0].try_alloc(24, 48)); // 20 CPUs free
        pms
    }

    #[test]
    fn all_policies_return_feasible_slots() {
        let pms = cluster();
        let v = vm(4, 8, NumaPolicy::Single);
        let mut rng = StdRng::seed_from_u64(1);
        for policy in VmsPolicy::ALL {
            let scheduled = schedule_vm(&pms, &v, policy, 16, &mut rng);
            let (pm_id, pl) = scheduled.unwrap();
            assert!(placement_fits(&pms[pm_id.0 as usize], &v, pl));
        }
    }

    #[test]
    fn best_fit_minimizes_resulting_fragment() {
        let pms = cluster();
        // A 4-core VM exactly plugs PM 0's 4-core hole on NUMA 0,
        // leaving fragments {0, 2} — strictly lower than every other
        // feasible slot (PM 0 NUMA 1 leaves {4, 14}; PM 1 leaves 12).
        let v = vm(4, 8, NumaPolicy::Single);
        let mut rng = StdRng::seed_from_u64(1);
        let (pm_id, pl) = choose_placement(&pms, &v, VmsPolicy::BestFit, 16, &mut rng).unwrap();
        assert_eq!(pm_id, PmId(0));
        assert_eq!(pl, NumaPlacement::Single(0));
    }

    #[test]
    fn first_fit_takes_lowest_feasible() {
        let pms = cluster();
        // An 8-core VM cannot fit PM 0's NUMA 0 (4 free) but fits its
        // NUMA 1 — first-fit picks PM 0 / NUMA 1.
        let v = vm(8, 16, NumaPolicy::Single);
        let mut rng = StdRng::seed_from_u64(1);
        let (pm_id, pl) = choose_placement(&pms, &v, VmsPolicy::FirstFit, 16, &mut rng).unwrap();
        assert_eq!(pm_id, PmId(0));
        assert_eq!(pl, NumaPlacement::Single(1));
    }

    #[test]
    fn worst_fit_prefers_emptiest_pm() {
        let pms = cluster();
        let v = vm(8, 16, NumaPolicy::Single);
        let mut rng = StdRng::seed_from_u64(1);
        let (pm_id, _) = choose_placement(&pms, &v, VmsPolicy::WorstFit, 16, &mut rng).unwrap();
        assert_eq!(pm_id, PmId(2), "PM 2 is fully free");
    }

    #[test]
    fn random_is_seed_deterministic_and_feasible() {
        let pms = cluster();
        let v = vm(2, 4, NumaPolicy::Single);
        let a = choose_placement(&pms, &v, VmsPolicy::Random, 16, &mut StdRng::seed_from_u64(7));
        let b = choose_placement(&pms, &v, VmsPolicy::Random, 16, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let (pm_id, pl) = choose_placement(&pms, &v, VmsPolicy::Random, 16, &mut rng).unwrap();
            assert!(placement_fits(&pms[pm_id.0 as usize], &v, pl));
        }
    }

    #[test]
    fn double_numa_requires_both_nodes() {
        let pms = cluster();
        // 32-core double-NUMA VM needs 16 per NUMA: PM 0 NUMA 0 has only
        // 4 free, so PM 0 is infeasible; first-fit lands on PM 1 (20/44
        // free on NUMA 0, 44 on NUMA 1).
        let v = vm(32, 64, NumaPolicy::Double);
        let mut rng = StdRng::seed_from_u64(1);
        let (pm_id, pl) = choose_placement(&pms, &v, VmsPolicy::FirstFit, 16, &mut rng).unwrap();
        assert_eq!(pm_id, PmId(1));
        assert_eq!(pl, NumaPlacement::Double);
    }

    #[test]
    fn no_capacity_returns_none() {
        let mut pms = vec![pm(0, 8, 16)];
        assert!(pms[0].numas[0].try_alloc(8, 16));
        assert!(pms[0].numas[1].try_alloc(8, 16));
        let v = vm(2, 4, NumaPolicy::Single);
        let mut rng = StdRng::seed_from_u64(1);
        for policy in VmsPolicy::ALL {
            assert!(choose_placement(&pms, &v, policy, 16, &mut rng).is_none());
            assert_eq!(
                schedule_vm(&pms, &v, policy, 16, &mut rng),
                Err(crate::error::SimError::NoFeasiblePlacement(v.id)),
                "{}: a full cluster must yield the typed error",
                policy.name()
            );
        }
    }
}
