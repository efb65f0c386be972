//! Service constraints: hard anti-affinity and migration eligibility.
//!
//! The paper's two-stage framework exists precisely to make these cheap to
//! enforce: after the VM actor picks a candidate, stage 2 masks out every
//! PM that cannot legally host it ([`ConstraintSet::pm_mask`]). The mask is
//! also what the MIP/heuristic baselines consult, so all methods face the
//! same feasible set.

use serde::{Deserialize, Serialize};

use crate::cluster::ClusterState;
use crate::error::{SimError, SimResult};
use crate::machine::{Placement, Pm};
use crate::types::{NumaPlacement, PmId, VmId, DEFAULT_FRAGMENT_CORES};

/// Hard constraints layered on top of raw capacity.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConstraintSet {
    /// `conflicts[k]` lists the VM ids that may never share a PM with VM
    /// `k` (hard anti-affinity, §5.4). The relation is kept symmetric by
    /// [`ConstraintSet::add_conflict`].
    conflicts: Vec<Vec<VmId>>,
    /// VMs that must not be migrated at all (e.g. latency-critical
    /// services pinned by their owners).
    pinned: Vec<bool>,
}

impl ConstraintSet {
    /// An empty constraint set sized for `num_vms` VMs.
    pub fn new(num_vms: usize) -> Self {
        ConstraintSet { conflicts: vec![Vec::new(); num_vms], pinned: vec![false; num_vms] }
    }

    /// Number of VMs this constraint set covers.
    pub fn num_vms(&self) -> usize {
        self.conflicts.len()
    }

    /// The one rule pairing a constraint set with a cluster: it covers
    /// exactly the cluster's VMs.
    pub fn check_covers(&self, state: &ClusterState) -> SimResult<()> {
        if self.num_vms() != state.num_vms() {
            return Err(SimError::InvalidMapping(format!(
                "constraint set covers {} VMs but the cluster has {}",
                self.num_vms(),
                state.num_vms()
            )));
        }
        Ok(())
    }

    /// Grows the set by one unconstrained VM (follows a
    /// [`crate::cluster::ClusterState::add_vm`] delta). Returns its id.
    pub fn push_vm(&mut self) -> VmId {
        self.conflicts.push(Vec::new());
        self.pinned.push(false);
        VmId((self.conflicts.len() - 1) as u32)
    }

    /// Shrinks the set after a [`crate::cluster::ClusterState::remove_vm`]
    /// delta, mirroring its swap-remove renumbering: `vm`'s constraints
    /// are dropped and, unless `vm` was last, the last VM's constraints
    /// move into the freed slot with every reference renamed.
    pub fn swap_remove_vm(&mut self, vm: VmId) -> SimResult<()> {
        let idx = vm.0 as usize;
        if idx >= self.conflicts.len() {
            return Err(SimError::UnknownVm(vm));
        }
        let last = self.conflicts.len() - 1;
        // Detach the removed VM from every partner's list.
        let partners = std::mem::take(&mut self.conflicts[idx]);
        for p in partners {
            self.conflicts[p.0 as usize].retain(|&x| x != vm);
        }
        self.conflicts.swap_remove(idx);
        self.pinned.swap_remove(idx);
        if idx != last {
            // The previously-last VM is now `vm`: rename it in the lists
            // of all of its partners.
            let moved_old = VmId(last as u32);
            let moved_partners = self.conflicts[idx].clone();
            for p in moved_partners {
                for x in &mut self.conflicts[p.0 as usize] {
                    if *x == moved_old {
                        *x = vm;
                    }
                }
            }
        }
        Ok(())
    }

    /// Declares a symmetric anti-affinity pair: `a` and `b` may never share
    /// a PM. Self-conflicts are ignored. Duplicate declarations are
    /// deduplicated.
    pub fn add_conflict(&mut self, a: VmId, b: VmId) -> SimResult<()> {
        if a == b {
            return Ok(());
        }
        let n = self.conflicts.len() as u32;
        if a.0 >= n {
            return Err(SimError::UnknownVm(a));
        }
        if b.0 >= n {
            return Err(SimError::UnknownVm(b));
        }
        let la = &mut self.conflicts[a.0 as usize];
        if !la.contains(&b) {
            la.push(b);
        }
        let lb = &mut self.conflicts[b.0 as usize];
        if !lb.contains(&a) {
            lb.push(a);
        }
        Ok(())
    }

    /// Declares an anti-affinity *group*: all member pairs conflict.
    /// Models "backup replicas of one service must spread across PMs".
    pub fn add_conflict_group(&mut self, group: &[VmId]) -> SimResult<()> {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                self.add_conflict(a, b)?;
            }
        }
        Ok(())
    }

    /// Pins a VM so it is never selected for migration.
    pub fn pin(&mut self, vm: VmId) -> SimResult<()> {
        let slot = self.pinned.get_mut(vm.0 as usize).ok_or(SimError::UnknownVm(vm))?;
        *slot = true;
        Ok(())
    }

    /// Whether the VM is pinned (ineligible for migration).
    pub fn is_pinned(&self, vm: VmId) -> bool {
        self.pinned.get(vm.0 as usize).copied().unwrap_or(false)
    }

    /// The conflict list of a VM.
    pub fn conflicts_of(&self, vm: VmId) -> &[VmId] {
        self.conflicts.get(vm.0 as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Affinity ratio as the paper defines it: the average fraction of all
    /// *other* VMs that a given VM conflicts with.
    pub fn affinity_ratio(&self) -> f64 {
        let n = self.conflicts.len();
        if n <= 1 {
            return 0.0;
        }
        let total: usize = self.conflicts.iter().map(Vec::len).sum();
        total as f64 / (n as f64 * (n as f64 - 1.0))
    }

    /// Returns the smallest-id conflicting VM already hosted on `pm`, if
    /// any.
    /// When migrating, the VM's own presence on the PM is ignored.
    pub fn conflict_on_pm(&self, state: &ClusterState, vm: VmId, pm: PmId) -> Option<VmId> {
        let mine = self.conflicts_of(vm);
        if mine.is_empty() {
            return None;
        }
        state.vms_on(pm).iter().copied().find(|other| *other != vm && mine.contains(other))
    }

    /// Full legality check for migrating `vm` to `pm`: capacity (some NUMA
    /// placement fits), anti-affinity, pinning, and not a no-op.
    pub fn migration_legal(&self, state: &ClusterState, vm: VmId, pm: PmId) -> SimResult<()> {
        let v = state.check_vm(vm)?;
        state.check_pm(pm)?;
        if self.is_pinned(vm) {
            return Err(SimError::NumaPolicyViolation(vm)); // pinned: no legal placement
        }
        // Whether some non-no-op placement fits does not depend on the
        // fragment granularity the best-fit rule ranks them by.
        if state.best_fit_placement(vm, pm, DEFAULT_FRAGMENT_CORES)?.is_none() {
            if state.placement(vm).pm == pm {
                return Err(SimError::NoOpMigration(vm));
            }
            return Err(SimError::InsufficientResources { pm, numa: 0 });
        }
        if let Some(conflicting) = self.conflict_on_pm(state, vm, pm) {
            return Err(SimError::AntiAffinityViolation { vm: v.id, conflicting });
        }
        Ok(())
    }

    /// Stage-2 mask: `mask[i] == true` iff PM `i` can legally receive `vm`.
    /// This is the operation the paper highlights as cheap (O(N) per chosen
    /// VM rather than O(M·N) for the joint action space).
    pub fn pm_mask(&self, state: &ClusterState, vm: VmId) -> Vec<bool> {
        let mut mask = Vec::new();
        self.pm_mask_into(state, vm, &mut mask);
        mask
    }

    /// Allocation-free stage-2 mask into a caller-owned buffer.
    ///
    /// Produces exactly the same mask as checking
    /// [`ConstraintSet::migration_legal`] per PM (the proptest suite
    /// asserts this), but in one tight O(N) capacity sweep plus an
    /// O(conflicts) pass that marks the host PM of each conflicting VM
    /// directly via the placement table — instead of the old per-PM scan
    /// over every hosted VM's conflict list.
    pub fn pm_mask_into(&self, state: &ClusterState, vm: VmId, out: &mut Vec<bool>) {
        out.clear();
        let n = state.num_pms();
        if state.check_vm(vm).is_err() || self.is_pinned(vm) {
            out.resize(n, false);
            return;
        }
        let v = state.vm(vm);
        let (cpu, mem) = (v.cpu_per_numa(), v.mem_per_numa());
        let cur = state.placement(vm);
        out.extend(state.pms().iter().map(|p| dest_capacity_ok(p, cpu, mem, cur)));
        for &other in self.conflicts_of(vm) {
            // A conflicting id outside the cluster is hosted nowhere.
            if other != vm {
                if let Some(pl) = state.placements().get(other.0 as usize) {
                    out[pl.pm.0 as usize] = false;
                }
            }
        }
    }

    /// Whether `vm` has at least one legal destination PM. Equivalent to
    /// `pm_mask(..).iter().any(..)` but allocation-free and early-exiting
    /// at the first legal PM.
    pub fn has_legal_destination(&self, state: &ClusterState, vm: VmId) -> bool {
        if state.check_vm(vm).is_err() || self.is_pinned(vm) {
            return false;
        }
        let v = state.vm(vm);
        let (cpu, mem) = (v.cpu_per_numa(), v.mem_per_numa());
        let cur = state.placement(vm);
        let conflicts = self.conflicts_of(vm);
        let blocked = |pm: PmId| {
            !conflicts.is_empty()
                && state.vms_on(pm).iter().any(|&o| o != vm && conflicts.contains(&o))
        };
        state.pms().iter().any(|p| dest_capacity_ok(p, cpu, mem, cur) && !blocked(p.id))
    }

    /// Stage-1 mask: `mask[k] == true` iff VM `k` is eligible for migration
    /// (not pinned) and has at least one legal destination PM.
    ///
    /// `require_destination` controls whether the (more expensive) existence
    /// check of a destination is performed; the RL agent uses `false` and
    /// relies on the stage-2 mask, while exhaustive searches use `true`.
    pub fn vm_mask(&self, state: &ClusterState, require_destination: bool) -> Vec<bool> {
        let mut mask = Vec::new();
        self.vm_mask_into(state, require_destination, &mut mask);
        mask
    }

    /// Allocation-free stage-1 mask into a caller-owned buffer.
    pub fn vm_mask_into(
        &self,
        state: &ClusterState,
        require_destination: bool,
        out: &mut Vec<bool>,
    ) {
        out.clear();
        out.extend((0..state.num_vms()).map(|k| {
            let vm = VmId(k as u32);
            if self.is_pinned(vm) {
                return false;
            }
            if !require_destination {
                return true;
            }
            self.has_legal_destination(state, vm)
        }));
    }
}

/// Capacity-only destination legality shared by [`ConstraintSet::pm_mask_into`]
/// and [`ConstraintSet::has_legal_destination`]: whether a VM demanding
/// `cpu`/`mem` per NUMA, currently placed at `cur`, has some non-no-op
/// placement on `p`. Agrees with the capacity clause of
/// [`ConstraintSet::migration_legal`] (the best-fit rule's same-PM release
/// and no-op skip):
///
/// * Single-NUMA VM — fits wherever either NUMA has room; on its own PM
///   only the *other* NUMA counts (its current slot is a no-op, and
///   releasing its own allocation never helps the other NUMA).
/// * Double-NUMA VM — needs room on both NUMAs; its own PM is always a
///   no-op.
#[inline]
fn dest_capacity_ok(p: &Pm, cpu: u32, mem: u32, cur: Placement) -> bool {
    match cur.numa {
        NumaPlacement::Single(j) => {
            if p.id == cur.pm {
                p.numas[1 - j as usize].fits(cpu, mem)
            } else {
                p.numas.iter().any(|numa| numa.fits(cpu, mem))
            }
        }
        NumaPlacement::Double => p.id != cur.pm && p.numas.iter().all(|numa| numa.fits(cpu, mem)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Vm;
    use crate::types::NumaPolicy;

    fn cluster() -> ClusterState {
        let pms = vec![
            Pm::symmetric(PmId(0), 44, 128),
            Pm::symmetric(PmId(1), 44, 128),
            Pm::symmetric(PmId(2), 8, 16),
        ];
        let vms = vec![
            Vm { id: VmId(0), cpu: 16, mem: 32, numa: NumaPolicy::Single },
            Vm { id: VmId(1), cpu: 16, mem: 32, numa: NumaPolicy::Single },
            Vm { id: VmId(2), cpu: 4, mem: 8, numa: NumaPolicy::Single },
        ];
        let placements = vec![
            Placement { pm: PmId(0), numa: NumaPlacement::Single(0) },
            Placement { pm: PmId(1), numa: NumaPlacement::Single(0) },
            Placement { pm: PmId(0), numa: NumaPlacement::Single(1) },
        ];
        ClusterState::new(pms, vms, placements).unwrap()
    }

    #[test]
    fn conflicts_are_symmetric_and_deduped() {
        let mut cs = ConstraintSet::new(3);
        cs.add_conflict(VmId(0), VmId(1)).unwrap();
        cs.add_conflict(VmId(1), VmId(0)).unwrap();
        assert_eq!(cs.conflicts_of(VmId(0)), &[VmId(1)]);
        assert_eq!(cs.conflicts_of(VmId(1)), &[VmId(0)]);
        cs.add_conflict(VmId(2), VmId(2)).unwrap(); // self: ignored
        assert!(cs.conflicts_of(VmId(2)).is_empty());
    }

    #[test]
    fn affinity_ratio_matches_definition() {
        let mut cs = ConstraintSet::new(4);
        cs.add_conflict_group(&[VmId(0), VmId(1), VmId(2)]).unwrap();
        // 3 VMs each conflict with 2 others, 1 VM with none: avg = (2+2+2+0)/(4*3).
        assert!((cs.affinity_ratio() - 6.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn anti_affinity_blocks_destination() {
        let state = cluster();
        let mut cs = ConstraintSet::new(3);
        cs.add_conflict(VmId(0), VmId(1)).unwrap();
        // VM0 (on PM0) cannot move to PM1 where VM1 lives.
        assert!(matches!(
            cs.migration_legal(&state, VmId(0), PmId(1)),
            Err(SimError::AntiAffinityViolation { .. })
        ));
        // But VM2 (no conflicts) can.
        assert!(cs.migration_legal(&state, VmId(2), PmId(1)).is_ok());
    }

    #[test]
    fn pm_mask_excludes_capacity_and_affinity() {
        let state = cluster();
        let mut cs = ConstraintSet::new(3);
        cs.add_conflict(VmId(0), VmId(1)).unwrap();
        let mask = cs.pm_mask(&state, VmId(0));
        // PM0 hosts it already but a NUMA flip is legal -> true;
        // PM1 blocked by affinity; PM2 too small (8 cores total/numa? 8 per numa
        // but VM0 needs 16) -> false.
        assert_eq!(mask, vec![true, false, false]);
    }

    #[test]
    fn pinned_vm_never_eligible() {
        let state = cluster();
        let mut cs = ConstraintSet::new(3);
        cs.pin(VmId(2)).unwrap();
        assert!(!cs.vm_mask(&state, false)[2]);
        assert!(cs.migration_legal(&state, VmId(2), PmId(1)).is_err());
    }

    #[test]
    fn vm_mask_with_destination_check() {
        let state = cluster();
        let cs = ConstraintSet::new(3);
        let mask = cs.vm_mask(&state, true);
        assert_eq!(mask, vec![true, true, true]);
    }

    #[test]
    fn unknown_ids_error() {
        let mut cs = ConstraintSet::new(2);
        assert!(cs.add_conflict(VmId(0), VmId(9)).is_err());
        assert!(cs.pin(VmId(5)).is_err());
    }

    #[test]
    fn push_vm_grows_unconstrained() {
        let mut cs = ConstraintSet::new(2);
        let id = cs.push_vm();
        assert_eq!(id, VmId(2));
        assert_eq!(cs.num_vms(), 3);
        assert!(cs.conflicts_of(id).is_empty());
        assert!(!cs.is_pinned(id));
        cs.add_conflict(VmId(0), id).unwrap();
        assert_eq!(cs.conflicts_of(id), &[VmId(0)]);
    }

    #[test]
    fn swap_remove_vm_renames_last() {
        // 0-3, with conflicts {0,3} and {1,3} and {1,2}; 3 pinned.
        let mut cs = ConstraintSet::new(4);
        cs.add_conflict(VmId(0), VmId(3)).unwrap();
        cs.add_conflict(VmId(1), VmId(3)).unwrap();
        cs.add_conflict(VmId(1), VmId(2)).unwrap();
        cs.pin(VmId(3)).unwrap();
        // Remove VM 0: VM 3 becomes VM 0 and keeps its relations.
        cs.swap_remove_vm(VmId(0)).unwrap();
        assert_eq!(cs.num_vms(), 3);
        assert!(cs.is_pinned(VmId(0)), "moved VM keeps its pin");
        // Old {1,3} is now {1,0}; old {0,3} died with VM 0.
        assert_eq!(cs.conflicts_of(VmId(0)), &[VmId(1)]);
        assert!(cs.conflicts_of(VmId(1)).contains(&VmId(0)));
        assert!(cs.conflicts_of(VmId(1)).contains(&VmId(2)));
        // Removing the last VM renames nothing.
        cs.swap_remove_vm(VmId(2)).unwrap();
        assert_eq!(cs.conflicts_of(VmId(1)), &[VmId(0)]);
        assert!(cs.swap_remove_vm(VmId(9)).is_err());
    }
}
