//! Dynamic cluster: arrivals, exits, and the solution-staleness replay
//! behind Fig. 5 of the paper.
//!
//! While a rescheduling algorithm "thinks", production VMS keeps placing
//! new VMs and finished VMs exit; a plan computed against a stale snapshot
//! partially fails to deploy (paper footnote 7: a migration is dropped if
//! the VM exited or the destination no longer fits). [`DynamicCluster`]
//! models exactly that process, and [`staleness_experiment`] measures the
//! achieved fragment rate as a function of solver latency.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{fragment_ratio, ClusterState};
use crate::dataset::VmMix;
use crate::env::Action;
use crate::error::{SimError, SimResult};
use crate::machine::{Placement, Pm, Vm};
use crate::scheduler::{best_fit, best_fit_on, choose_placement, schedule_vm, VmsPolicy};
use crate::trace::DiurnalModel;
use crate::types::{NumaPlacement, NumaPolicy, PmId, VmId};

/// A cluster whose VM population changes over time.
///
/// Unlike [`ClusterState`] (a fixed snapshot), slots here may be vacated by
/// exits and extended by arrivals. VM ids are stable for the lifetime of
/// the simulation, so a plan computed against an earlier snapshot can be
/// replayed against the mutated cluster.
#[derive(Debug, Clone)]
pub struct DynamicCluster {
    pms: Vec<Pm>,
    /// `None` = the VM exited (or the slot was never filled).
    vms: Vec<Option<(Vm, Placement)>>,
    alive: usize,
}

impl DynamicCluster {
    /// An empty dynamic cluster over the given PMs.
    pub fn from_pms(pms: Vec<Pm>) -> Self {
        let mut pms = pms;
        for pm in &mut pms {
            for numa in &mut pm.numas {
                numa.cpu_used = 0;
                numa.mem_used = 0;
            }
        }
        DynamicCluster { pms, vms: Vec::new(), alive: 0 }
    }

    /// Seeds a dynamic cluster from a static snapshot.
    pub fn from_state(state: &ClusterState) -> Self {
        let pms = state.pms().to_vec();
        let vms = state
            .vms()
            .iter()
            .zip(state.placements())
            .map(|(vm, pl)| Some((*vm, *pl)))
            .collect::<Vec<_>>();
        let alive = vms.len();
        DynamicCluster { pms, vms, alive }
    }

    /// Number of alive VMs.
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Total CPU currently allocated.
    pub fn used_cpu(&self) -> u64 {
        self.pms.iter().map(|p| p.numas.iter().map(|n| n.cpu_used as u64).sum::<u64>()).sum()
    }

    /// Whether a VM id refers to an alive VM.
    pub fn is_alive(&self, vm: VmId) -> bool {
        self.vms.get(vm.0 as usize).map(|slot| slot.is_some()).unwrap_or(false)
    }

    /// X-core fragment rate over the current PM population.
    pub fn fragment_rate(&self, x: u32) -> f64 {
        let free: u64 = self.pms.iter().map(|p| p.free_cpu() as u64).sum();
        let frag: u64 = self.pms.iter().map(|p| p.cpu_fragment(x) as u64).sum();
        fragment_ratio(frag, free)
    }

    /// Places a new VM with best-fit (the production VMS algorithm: choose
    /// the feasible PM/NUMA minimizing the resulting 16-core fragment).
    /// Returns the new VM's id, or [`SimError::NoFeasiblePlacement`] if
    /// nothing fits (production rejects the request).
    pub fn best_fit_arrival(&mut self, cpu: u32, mem: u32, numa: NumaPolicy) -> SimResult<VmId> {
        self.admit(cpu, mem, numa, |pms, vm| {
            best_fit(pms, vm, 16).ok_or(SimError::NoFeasiblePlacement(vm.id))
        })
    }

    /// Places a new VM under an arbitrary [`VmsPolicy`]. Returns the new
    /// VM's id, or [`SimError::NoFeasiblePlacement`] if no PM can host it.
    pub fn arrival_with_policy<R: Rng + ?Sized>(
        &mut self,
        cpu: u32,
        mem: u32,
        numa: NumaPolicy,
        policy: VmsPolicy,
        rng: &mut R,
    ) -> SimResult<VmId> {
        self.admit(cpu, mem, numa, |pms, vm| schedule_vm(pms, vm, policy, 16, rng))
    }

    /// Admits a new VM that passes [`Vm::check_spec`] where `place` puts
    /// it: the one admission path of both arrival kinds.
    fn admit(
        &mut self,
        cpu: u32,
        mem: u32,
        numa: NumaPolicy,
        place: impl FnOnce(&[Pm], &Vm) -> SimResult<(PmId, NumaPlacement)>,
    ) -> SimResult<VmId> {
        Vm::check_spec(cpu, mem, numa)?;
        let id = VmId(self.vms.len() as u32);
        let vm = Vm { id, cpu, mem, numa };
        let (pm, pl) = place(&self.pms, &vm)?;
        self.pms[pm.0 as usize].alloc_vm(&vm, pl);
        self.vms.push(Some((vm, Placement { pm, numa: pl })));
        self.alive += 1;
        Ok(id)
    }

    /// Removes a specific VM, freeing its resources.
    pub fn exit(&mut self, vm: VmId) -> SimResult<()> {
        let slot = self.vms.get_mut(vm.0 as usize).ok_or(SimError::UnknownVm(vm))?;
        let (v, pl) = slot.take().ok_or(SimError::UnknownVm(vm))?;
        self.pms[pl.pm.0 as usize].release_vm(&v, pl.numa);
        self.alive -= 1;
        Ok(())
    }

    /// Removes a uniformly random alive VM. Returns its id.
    pub fn exit_random<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<VmId> {
        if self.alive == 0 {
            return None;
        }
        // Rejection-sample an alive slot (alive/total stays high in practice).
        for _ in 0..self.vms.len() * 4 {
            let idx = rng.gen_range(0..self.vms.len());
            if self.vms[idx].is_some() {
                let id = VmId(idx as u32);
                self.exit(id).expect("slot checked alive");
                return Some(id);
            }
        }
        // Fall back to a scan (pathological occupancy).
        let idx = self.vms.iter().position(|s| s.is_some())?;
        let id = VmId(idx as u32);
        self.exit(id).expect("slot checked alive");
        Some(id)
    }

    /// Redeploys `frac` of alive VMs onto uniformly random feasible PMs
    /// (the dataset anonymization step).
    pub fn random_redeploy<R: Rng + ?Sized>(&mut self, frac: f64, rng: &mut R) {
        let ids: Vec<usize> =
            self.vms.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|_| i)).collect();
        for &idx in &ids {
            if rng.gen::<f64>() >= frac {
                continue;
            }
            let (vm, old_pl) = self.vms[idx].expect("listed alive");
            self.pms[old_pl.pm.0 as usize].release_vm(&vm, old_pl.numa);
            let (pm, pl) = choose_placement(&self.pms, &vm, VmsPolicy::Random, 16, rng)
                .unwrap_or((old_pl.pm, old_pl.numa)); // put it back
            self.pms[pm.0 as usize].alloc_vm(&vm, pl);
            self.vms[idx] = Some((vm, Placement { pm, numa: pl }));
        }
    }

    /// Attempts to apply one planned migration against the *current*
    /// state. Returns `true` if deployed; `false` if dropped because the
    /// VM exited, the move is now a no-op, or the destination no longer
    /// fits (paper footnote 7).
    pub fn try_apply(&mut self, action: Action) -> bool {
        let slot = match self.vms.get(action.vm.0 as usize) {
            Some(Some(s)) => *s,
            _ => return false,
        };
        let (vm, old_pl) = slot;
        if old_pl.pm == action.pm {
            return false;
        }
        let Some(pl) = best_fit_on(&self.pms[action.pm.0 as usize], &vm, None, 16) else {
            return false;
        };
        self.pms[old_pl.pm.0 as usize].release_vm(&vm, old_pl.numa);
        self.pms[action.pm.0 as usize].alloc_vm(&vm, pl);
        self.vms[action.vm.0 as usize] = Some((vm, Placement { pm: action.pm, numa: pl }));
        true
    }

    /// Advances the cluster by `minutes` of churn under a diurnal model,
    /// starting at `start_minute`. Arrivals are placed by best-fit; VMs
    /// that cannot be placed are rejected (as in production).
    pub fn churn<R: Rng + ?Sized>(
        &mut self,
        start_minute: u32,
        minutes: u32,
        model: &DiurnalModel,
        exit_frac: f64,
        mix: &VmMix,
        rng: &mut R,
    ) {
        for dt in 0..minutes {
            let minute = start_minute + dt;
            let exits = model.sample_exits(minute, self.alive, exit_frac, rng);
            for _ in 0..exits {
                self.exit_random(rng);
            }
            let arrivals = model.sample_arrivals(minute, rng);
            for _ in 0..arrivals {
                let f = mix.sample(rng);
                // Production VMS rejects unplaceable requests.
                let _ = self.best_fit_arrival(f.cpu, f.mem, f.numa).ok();
            }
        }
    }

    /// Dynamic ids of the alive VMs, in the iteration order
    /// [`DynamicCluster::freeze`] uses for re-indexing: `alive_ids()[k]`
    /// is the dynamic id of the VM that becomes `VmId(k)` in the frozen
    /// snapshot. Lets callers translate plans computed on a snapshot
    /// back onto the live cluster.
    pub fn alive_ids(&self) -> Vec<VmId> {
        self.vms.iter().flatten().map(|(vm, _)| vm.id).collect()
    }

    /// Freezes the dynamic cluster into a static [`ClusterState`]: alive
    /// VMs are re-indexed densely in id order.
    pub fn freeze(&self) -> SimResult<ClusterState> {
        let mut vms = Vec::with_capacity(self.alive);
        let mut placements = Vec::with_capacity(self.alive);
        for slot in self.vms.iter().flatten() {
            let (mut vm, pl) = *slot;
            vm.id = VmId(vms.len() as u32);
            vms.push(vm);
            placements.push(pl);
        }
        ClusterState::new(self.pms.clone(), vms, placements)
    }
}

/// Outcome of replaying a plan against a churned cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessOutcome {
    /// Fragment rate achieved after deploying the surviving actions.
    pub achieved_fr: f64,
    /// Planned actions that deployed successfully.
    pub applied: usize,
    /// Planned actions dropped as infeasible.
    pub dropped: usize,
}

/// Fig. 5 experiment: replay `plan` (computed against `initial`) after
/// `delay_minutes` of churn, dropping infeasible actions, and report the
/// achieved FR. Churn starts at the off-peak minute, as VMR does.
pub fn staleness_experiment(
    initial: &ClusterState,
    plan: &[Action],
    delay_minutes: u32,
    model: &DiurnalModel,
    exit_frac: f64,
    mix: &VmMix,
    seed: u64,
) -> StalenessOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cluster = DynamicCluster::from_state(initial);
    cluster.churn(model.off_peak_minute(), delay_minutes, model, exit_frac, mix, &mut rng);
    let mut applied = 0;
    let mut dropped = 0;
    for &a in plan {
        if cluster.try_apply(a) {
            applied += 1;
        } else {
            dropped += 1;
        }
    }
    StalenessOutcome { achieved_fr: cluster.fragment_rate(16), applied, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_mapping, ClusterConfig};
    use crate::machine::placement_fits;

    fn snapshot() -> ClusterState {
        generate_mapping(&ClusterConfig::tiny(), 77).unwrap()
    }

    #[test]
    fn from_state_preserves_fragment_rate() {
        let s = snapshot();
        let d = DynamicCluster::from_state(&s);
        assert!((d.fragment_rate(16) - s.fragment_rate(16)).abs() < 1e-12);
        assert_eq!(d.alive_count(), s.num_vms());
    }

    #[test]
    fn freeze_roundtrip_preserves_metrics() {
        let s = snapshot();
        let d = DynamicCluster::from_state(&s);
        let back = d.freeze().unwrap();
        assert!((back.fragment_rate(16) - s.fragment_rate(16)).abs() < 1e-12);
        assert_eq!(back.num_vms(), s.num_vms());
        back.audit().unwrap();
    }

    #[test]
    fn exit_frees_resources() {
        let s = snapshot();
        let mut d = DynamicCluster::from_state(&s);
        let used_before = d.used_cpu();
        let vm = s.vm(VmId(0));
        d.exit(VmId(0)).unwrap();
        assert_eq!(d.used_cpu(), used_before - vm.cpu as u64);
        assert!(!d.is_alive(VmId(0)));
        assert!(d.exit(VmId(0)).is_err(), "double exit must fail");
    }

    #[test]
    fn try_apply_drops_exited_vm() {
        let s = snapshot();
        let mut d = DynamicCluster::from_state(&s);
        d.exit(VmId(1)).unwrap();
        assert!(!d.try_apply(Action { vm: VmId(1), pm: PmId(0) }));
    }

    #[test]
    fn try_apply_moves_alive_vm() {
        let s = snapshot();
        let mut d = DynamicCluster::from_state(&s);
        // Find a VM and a destination with room.
        let vm = VmId(0);
        let src = s.placement(vm).pm;
        let dest = (0..s.num_pms() as u32).map(PmId).find(|&p| {
            p != src && {
                let pm = &d.pms[p.0 as usize];
                let v = s.vm(vm);
                v.candidate_placements().iter().any(|&pl| placement_fits(pm, v, pl))
            }
        });
        if let Some(dest) = dest {
            assert!(d.try_apply(Action { vm, pm: dest }));
            let (_, pl) = d.vms[0].unwrap();
            assert_eq!(pl.pm, dest);
        }
    }

    #[test]
    fn churn_changes_population() {
        let s = snapshot();
        let mut d = DynamicCluster::from_state(&s);
        let model = DiurnalModel { base_rate: 5.0, amplitude: 0.3, peak_minute: 840 };
        let mix = VmMix::standard();
        let mut rng = StdRng::seed_from_u64(1);
        let before = d.alive_count();
        d.churn(0, 30, &model, 0.01, &mix, &mut rng);
        assert_ne!(d.alive_count(), before, "30 min of churn should change population");
    }

    #[test]
    fn staleness_monotone_dropping() {
        let s = snapshot();
        // A plan of a few arbitrary legal moves.
        let mut plan = Vec::new();
        let d0 = DynamicCluster::from_state(&s);
        for k in 0..s.num_vms().min(5) {
            let vm = VmId(k as u32);
            let src = s.placement(vm).pm;
            for p in 0..s.num_pms() as u32 {
                let pm = PmId(p);
                if pm != src {
                    let v = s.vm(vm);
                    let fits = v
                        .candidate_placements()
                        .iter()
                        .any(|&pl| placement_fits(&d0.pms[p as usize], v, pl));
                    if fits {
                        plan.push(Action { vm, pm });
                        break;
                    }
                }
            }
        }
        let model = DiurnalModel { base_rate: 8.0, amplitude: 0.4, peak_minute: 840 };
        let mix = VmMix::standard();
        let fresh = staleness_experiment(&s, &plan, 0, &model, 0.004, &mix, 5);
        assert_eq!(fresh.dropped, 0, "no churn -> nothing dropped");
        let stale = staleness_experiment(&s, &plan, 240, &model, 0.004, &mix, 5);
        assert!(stale.applied <= fresh.applied);
    }

    #[test]
    fn arrivals_under_every_policy_stay_feasible() {
        use crate::scheduler::VmsPolicy;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let s = snapshot();
        for policy in VmsPolicy::ALL {
            let mut d = DynamicCluster::from_state(&s);
            let mut rng = StdRng::seed_from_u64(5);
            let mut placed = 0;
            for _ in 0..20 {
                if d.arrival_with_policy(4, 8, NumaPolicy::Single, policy, &mut rng).is_ok() {
                    placed += 1;
                }
            }
            assert!(placed > 0, "{}: tiny cluster should admit small VMs", policy.name());
            d.freeze().unwrap().audit().unwrap();
        }
    }

    #[test]
    fn best_fit_arrival_matches_best_fit_policy() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let s = snapshot();
        let mut via_shorthand = DynamicCluster::from_state(&s);
        let mut via_policy = DynamicCluster::from_state(&s);
        for _ in 0..10 {
            let a = via_shorthand.best_fit_arrival(8, 16, NumaPolicy::Single);
            // Best-fit ignores the RNG, so any seed gives the same slot.
            let mut throwaway = StdRng::seed_from_u64(99);
            let b = via_policy.arrival_with_policy(
                8,
                16,
                NumaPolicy::Single,
                crate::scheduler::VmsPolicy::BestFit,
                &mut throwaway,
            );
            assert_eq!(a, b);
            if a.is_err() {
                break;
            }
        }
        assert_eq!(via_shorthand.freeze().unwrap(), via_policy.freeze().unwrap());
    }
}
