//! Cluster state: the authoritative VM→PM mapping with incremental
//! fragment accounting, migration apply/undo, and objective metrics.
//!
//! [`ClusterState`] is the deterministic world model the paper's RL agent
//! trains against: given a state and an action the next state is exact,
//! which is what makes offline training and risk-seeking evaluation sound.

use serde::{Deserialize, Serialize};

use crate::error::{SimError, SimResult};
use crate::machine::{Placement, Pm, Vm};
use crate::scheduler::best_fit_on;
use crate::types::{NumaPlacement, NumaPolicy, PmId, VmId};

/// Full cluster state: machines plus the current assignment.
///
/// # Invariants
/// * Every VM has exactly one [`Placement`]; double-NUMA VMs occupy both
///   NUMA nodes of a single PM (Eq. 4 & 6 of the paper).
/// * Per-NUMA `cpu_used`/`mem_used` equal the sum of demands of the VMs
///   placed there ([`ClusterState::audit`] verifies this from scratch).
/// * Each PM's reverse index lists the VMs placed on it in ascending id,
///   after every mutation: the state is a function of its placements, so
///   an undone migration leaves a state `==` to the one before it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterState {
    pms: Vec<Pm>,
    vms: Vec<Vm>,
    placements: Vec<Placement>,
    /// Reverse index: VMs hosted by each PM, in ascending id.
    vms_on_pm: Vec<Vec<VmId>>,
}

/// Undo record for a single migration, returned by [`ClusterState::migrate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// The VM that moved.
    pub vm: VmId,
    /// Where it came from.
    pub from: Placement,
    /// Where it went.
    pub to: Placement,
}

/// Outcome of [`ClusterState::remove_vm`]: what left and which VM (if
/// any) was renumbered to keep ids dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmRemoval {
    /// The removed VM record (with its original id).
    pub vm: Vm,
    /// Where it was placed.
    pub placement: Placement,
    /// When the removed VM was not the last one, the previously-last VM
    /// is moved into the freed id slot: this is its *old* id (its new id
    /// is the removed VM's id).
    pub renumbered: Option<VmId>,
}

/// Undo record for an atomic two-VM exchange, returned by
/// [`ClusterState::swap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapRecord {
    /// The first VM's move (onto the second VM's former PM).
    pub a: MigrationRecord,
    /// The second VM's move (onto the first VM's former PM).
    pub b: MigrationRecord,
}

impl ClusterState {
    /// Builds a cluster state from machines and an initial assignment.
    ///
    /// Validates it with the one cluster rule (`derive`: ids dense, every
    /// PM passes [`Pm::check_spec`] and every VM [`Vm::check_spec`],
    /// placements exist, fit and match the NUMA policy) and installs the
    /// usage and reverse index that rule computes from scratch.
    pub fn new(pms: Vec<Pm>, vms: Vec<Vm>, placements: Vec<Placement>) -> SimResult<Self> {
        let (pms, vms_on_pm) = derive(pms, &vms, &placements)?;
        Ok(ClusterState { pms, vms, placements, vms_on_pm })
    }

    /// Number of PMs.
    #[inline]
    pub fn num_pms(&self) -> usize {
        self.pms.len()
    }

    /// Number of VMs.
    #[inline]
    pub fn num_vms(&self) -> usize {
        self.vms.len()
    }

    /// Immutable PM accessor.
    #[inline]
    pub fn pm(&self, id: PmId) -> &Pm {
        &self.pms[id.0 as usize]
    }

    /// Immutable VM accessor.
    #[inline]
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.0 as usize]
    }

    /// All PMs in id order.
    #[inline]
    pub fn pms(&self) -> &[Pm] {
        &self.pms
    }

    /// All VMs in id order.
    #[inline]
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// Current placement of a VM.
    #[inline]
    pub fn placement(&self, id: VmId) -> Placement {
        self.placements[id.0 as usize]
    }

    /// All placements in VM-id order.
    #[inline]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The VMs currently hosted on a PM, in ascending id: a function of
    /// the placements alone, whatever migrations and undos led to them.
    #[inline]
    pub fn vms_on(&self, pm: PmId) -> &[VmId] {
        &self.vms_on_pm[pm.0 as usize]
    }

    /// Checks a VM id, returning the VM or an error.
    pub fn check_vm(&self, id: VmId) -> SimResult<&Vm> {
        self.vms.get(id.0 as usize).ok_or(SimError::UnknownVm(id))
    }

    /// Checks a PM id, returning the PM or an error.
    pub fn check_pm(&self, id: PmId) -> SimResult<&Pm> {
        self.pms.get(id.0 as usize).ok_or(SimError::UnknownPm(id))
    }

    /// Picks the best-fit NUMA placement for `vm` on `pm`: the one
    /// best-fit rule (`best_fit_on`) against `pm` with the VM's own
    /// allocation released when `pm` is its host, never the no-op
    /// placement. Mirrors the production best-fit rule the paper
    /// describes for VMS. `Ok(None)` when no non-no-op placement fits.
    /// Behind [`Self::migrate`] and [`Self::pms_after_move`].
    pub fn best_fit_placement(
        &self,
        vm: VmId,
        pm: PmId,
        frag_cores: u32,
    ) -> SimResult<Option<NumaPlacement>> {
        let v = self.check_vm(vm)?;
        let dest = self.check_pm(pm)?;
        let current = self.placements[vm.0 as usize];
        if current.pm != pm {
            return Ok(best_fit_on(dest, v, None, frag_cores));
        }
        let mut host = dest.clone();
        host.release_vm(v, current.numa)?;
        Ok(best_fit_on(&host, v, Some(current.numa), frag_cores))
    }

    /// The source and destination PMs exactly as [`Self::migrate`]`(vm,
    /// pm, frag_cores)` would leave them, without making the move: a
    /// candidate is scored, not applied. For a same-PM NUMA flip both are
    /// the flipped PM. `None` exactly when `migrate` would return `Err`.
    pub fn pms_after_move(&self, vm: VmId, pm: PmId, frag_cores: u32) -> Option<(Pm, Pm)> {
        let numa = self.best_fit_placement(vm, pm, frag_cores).ok()??;
        self.moved_pms(vm, Placement { pm, numa }).ok()
    }

    /// The source and destination PMs after `vm` moves to `to`, computed
    /// on copies (a refusal changes nothing); both the one PM if same-PM.
    fn moved_pms(&self, vm: VmId, to: Placement) -> SimResult<(Pm, Pm)> {
        let (v, from) = (&self.vms[vm.0 as usize], self.placements[vm.0 as usize]);
        let mut src = self.pms[from.pm.0 as usize].clone();
        src.release_vm(v, from.numa)?;
        if from.pm == to.pm {
            src.alloc_vm(v, to.numa)?;
            return Ok((src.clone(), src));
        }
        let mut dest = self.pms[to.pm.0 as usize].clone();
        dest.alloc_vm(v, to.numa)?;
        Ok((src, dest))
    }

    /// Migrates `vm` onto `pm` with an explicit NUMA placement.
    ///
    /// Returns an undo record. Fails without mutating state if the
    /// destination lacks capacity or the placement shape is illegal.
    pub fn migrate_exact(
        &mut self,
        vm: VmId,
        pm: PmId,
        numa: NumaPlacement,
    ) -> SimResult<MigrationRecord> {
        let v = *self.check_vm(vm)?;
        self.check_pm(pm)?;
        let (from, to) = (self.placements[vm.0 as usize], Placement { pm, numa });
        if from == to {
            return Err(SimError::NoOpMigration(vm));
        }
        v.check_shape(numa)?;
        let (src, dest) = self.moved_pms(vm, to)?;
        self.pms[from.pm.0 as usize] = src;
        self.pms[pm.0 as usize] = dest;
        self.placements[vm.0 as usize] = to;
        if from.pm != pm {
            unhost(&mut self.vms_on_pm[from.pm.0 as usize], vm);
            host(&mut self.vms_on_pm[pm.0 as usize], vm);
        }
        Ok(MigrationRecord { vm, from, to })
    }

    /// Migrates `vm` onto `pm`, choosing the NUMA placement by best fit
    /// (minimum resulting fragment). This matches the paper's action space,
    /// which is the 2-tuple `(vm, destination pm)`.
    pub fn migrate(&mut self, vm: VmId, pm: PmId, frag_cores: u32) -> SimResult<MigrationRecord> {
        match self.best_fit_placement(vm, pm, frag_cores)? {
            Some(pl) => self.migrate_exact(vm, pm, pl),
            None => Err(no_fit(vm, self.placements[vm.0 as usize], pm)),
        }
    }

    /// Reverts a migration produced by [`ClusterState::migrate`] /
    /// [`ClusterState::migrate_exact`]. Records must be undone in LIFO
    /// order relative to other mutations touching the same machines; the
    /// state after the undo is `==` to the state before the migration.
    pub fn undo(&mut self, rec: &MigrationRecord) -> SimResult<()> {
        // The inverse move; capacity is guaranteed because we just vacated it,
        // but migrate_exact re-checks anyway for safety.
        self.migrate_exact(rec.vm, rec.from.pm, rec.from.numa).map(|_| ())
    }

    /// Atomically exchanges two VMs between their host PMs (§8 of the
    /// paper: allowing multi-VM swaps "could simplify the identification
    /// of a feasible migration path"). Both VMs are conceptually removed
    /// first, then each is best-fit placed onto the other's PM — so a
    /// swap can succeed even when neither single migration is feasible
    /// on its own (each VM fits only into the space the other vacates).
    ///
    /// Counts as **two** migrations against any MNL budget the caller
    /// tracks. Fails without mutating state if the VMs share a PM or
    /// either side lacks capacity after the exchange.
    pub fn swap(&mut self, a: VmId, b: VmId, frag_cores: u32) -> SimResult<SwapRecord> {
        let (rec, pm_a, pm_b) = self.swap_outcome(a, b, frag_cores)?;
        self.pms[rec.a.from.pm.0 as usize] = pm_a;
        self.pms[rec.b.from.pm.0 as usize] = pm_b;
        for m in [rec.a, rec.b] {
            self.placements[m.vm.0 as usize] = m.to;
            unhost(&mut self.vms_on_pm[m.from.pm.0 as usize], m.vm);
            host(&mut self.vms_on_pm[m.to.pm.0 as usize], m.vm);
        }
        Ok(rec)
    }

    /// The two host PMs exactly as [`Self::swap`]`(a, b, frag_cores)`
    /// would leave them, `a`'s former host first, without making the
    /// swap. `None` exactly when `swap` would return `Err`.
    pub fn pms_after_swap(&self, a: VmId, b: VmId, frag_cores: u32) -> Option<(Pm, Pm)> {
        self.swap_outcome(a, b, frag_cores).ok().map(|(_, pm_a, pm_b)| (pm_a, pm_b))
    }

    /// The one swap rule behind [`Self::swap`] and [`Self::pms_after_swap`]:
    /// the swap's record and `a`'s and `b`'s former hosts after it.
    fn swap_outcome(&self, a: VmId, b: VmId, frag_cores: u32) -> SimResult<(SwapRecord, Pm, Pm)> {
        if a == b {
            return Err(SimError::NoOpMigration(a));
        }
        let va = *self.check_vm(a)?;
        let vb = *self.check_vm(b)?;
        let pla = self.placements[a.0 as usize];
        let plb = self.placements[b.0 as usize];
        if pla.pm == plb.pm {
            return Err(SimError::NoOpMigration(a));
        }
        let mut pm_a = self.pm(pla.pm).clone();
        let mut pm_b = self.pm(plb.pm).clone();
        pm_a.release_vm(&va, pla.numa)?;
        pm_b.release_vm(&vb, plb.numa)?;
        let Some(new_a) = best_fit_on(&pm_b, &va, None, frag_cores) else {
            return Err(SimError::InsufficientResources { pm: plb.pm, numa: 0 });
        };
        let Some(new_b) = best_fit_on(&pm_a, &vb, None, frag_cores) else {
            return Err(SimError::InsufficientResources { pm: pla.pm, numa: 0 });
        };
        pm_b.alloc_vm(&va, new_a)?;
        pm_a.alloc_vm(&vb, new_b)?;
        let to_a = Placement { pm: plb.pm, numa: new_a };
        let to_b = Placement { pm: pla.pm, numa: new_b };
        let rec = SwapRecord {
            a: MigrationRecord { vm: a, from: pla, to: to_a },
            b: MigrationRecord { vm: b, from: plb, to: to_b },
        };
        Ok((rec, pm_a, pm_b))
    }

    /// Appends a new VM at an explicit placement (an online *create*
    /// delta). The new VM takes the next dense id. Fails without mutating
    /// state if the placement shape is illegal or lacks capacity.
    pub fn add_vm(
        &mut self,
        cpu: u32,
        mem: u32,
        policy: NumaPolicy,
        placement: Placement,
    ) -> SimResult<VmId> {
        Vm::check_spec(cpu, mem, policy)?;
        let id = VmId(self.vms.len() as u32);
        let vm = Vm { id, cpu, mem, numa: policy };
        vm.check_shape(placement.numa)?;
        let pm_idx = placement.pm.0 as usize;
        let pm = self.pms.get_mut(pm_idx).ok_or(SimError::UnknownPm(placement.pm))?;
        pm.alloc_vm(&vm, placement.numa)?;
        self.vms.push(vm);
        self.placements.push(placement);
        // The largest id so far: its place in the ascending index is last.
        self.vms_on_pm[pm_idx].push(id);
        Ok(id)
    }

    /// Removes a VM (an online *delete* delta), freeing its resources.
    ///
    /// VM ids stay dense: unless the removed VM was the last one, the
    /// last VM is renumbered into the freed slot (swap-remove) and moves
    /// to its new id's place in its host's reverse index. The returned
    /// [`VmRemoval`] reports that renumbering so callers with external id
    /// maps (sessions, constraint sets) can follow it.
    pub fn remove_vm(&mut self, vm: VmId) -> SimResult<VmRemoval> {
        self.check_vm(vm)?;
        let idx = vm.0 as usize;
        let last = self.vms.len() - 1;
        let removed = self.vms[idx];
        let placement = self.placements[idx];
        self.pms[placement.pm.0 as usize].release_vm(&removed, placement.numa)?;
        unhost(&mut self.vms_on_pm[placement.pm.0 as usize], vm);
        self.vms.swap_remove(idx);
        self.placements.swap_remove(idx);
        let renumbered = if idx != last {
            let moved_old = VmId(last as u32);
            self.vms[idx].id = vm;
            let moved_host = &mut self.vms_on_pm[self.placements[idx].pm.0 as usize];
            unhost(moved_host, moved_old);
            host(moved_host, vm);
            Some(moved_old)
        } else {
            None
        };
        Ok(VmRemoval { vm: removed, placement, renumbered })
    }

    /// Changes a VM's resource request in place (an online *resize*
    /// delta). The VM keeps its placement; fails without mutating state
    /// if the host NUMA node(s) cannot absorb the growth.
    pub fn resize_vm(&mut self, vm: VmId, cpu: u32, mem: u32) -> SimResult<()> {
        let old = *self.check_vm(vm)?;
        Vm::check_spec(cpu, mem, old.numa)?;
        let pl = self.placements[vm.0 as usize];
        let new = Vm { id: vm, cpu, mem, numa: old.numa };
        let mut host = self.pms[pl.pm.0 as usize].clone();
        host.release_vm(&old, pl.numa)?;
        host.alloc_vm(&new, pl.numa)?;
        self.pms[pl.pm.0 as usize] = host;
        self.vms[vm.0 as usize] = new;
        Ok(())
    }

    /// Appends a new empty PM with symmetric NUMA nodes (an online
    /// *add-capacity* delta). Returns its dense id. A PM failing
    /// [`Pm::check_spec`] is rejected.
    pub fn add_pm(&mut self, cpu_per_numa: u32, mem_per_numa: u32) -> SimResult<PmId> {
        let id = PmId(self.pms.len() as u32);
        let pm = Pm::symmetric(id, cpu_per_numa, mem_per_numa);
        pm.check_spec()?;
        self.pms.push(pm);
        self.vms_on_pm.push(Vec::new());
        Ok(id)
    }

    /// Total X-core CPU fragment across all PMs (numerator of FR).
    pub fn total_cpu_fragment(&self, x: u32) -> u64 {
        self.pms.iter().map(|p| p.cpu_fragment(x) as u64).sum()
    }

    /// Total free CPU across all PMs (denominator of FR).
    pub fn total_free_cpu(&self) -> u64 {
        self.pms.iter().map(|p| p.free_cpu() as u64).sum()
    }

    /// Total free memory across all PMs.
    pub fn total_free_mem(&self) -> u64 {
        self.pms.iter().map(|p| p.free_mem() as u64).sum()
    }

    /// X-core fragment rate: unusable free CPU / total free CPU (§1).
    /// Returns 0 when the cluster has no free CPU at all.
    pub fn fragment_rate(&self, x: u32) -> f64 {
        fragment_ratio(self.total_cpu_fragment(x), self.total_free_cpu())
    }

    /// Fragment rate for double-NUMA X-core flavors (e.g. `FR_64`).
    pub fn fragment_rate_double(&self, x: u32) -> f64 {
        let fragment = self.pms.iter().map(|p| p.cpu_fragment_double(x) as u64).sum();
        fragment_ratio(fragment, self.total_free_cpu())
    }

    /// X-GiB memory fragment rate (e.g. `Mem_64`).
    pub fn mem_fragment_rate(&self, x: u32) -> f64 {
        let fragment = self.pms.iter().map(|p| p.mem_fragment(x) as u64).sum();
        fragment_ratio(fragment, self.total_free_mem())
    }

    /// Overall CPU utilization: used / total.
    pub fn cpu_utilization(&self) -> f64 {
        let total: u64 = self.pms.iter().map(|p| p.cpu_total() as u64).sum();
        if total == 0 {
            return 0.0;
        }
        let used: u64 =
            self.pms.iter().map(|p| p.numas.iter().map(|n| n.cpu_used as u64).sum::<u64>()).sum();
        used as f64 / total as f64
    }

    /// The one load step for a stored state, trusted or not (a
    /// deserialized snapshot or dataset): the one cluster rule that
    /// [`Self::new`] applies must accept its machines, VMs and
    /// placements, the stored usage must equal the usage that rule
    /// computes, and each PM's stored reverse index must list exactly the
    /// VMs placed on it, in any order (a state stored before the index
    /// was kept ascending holds its migration history's order). Returns
    /// the state as the rule builds it, index ascending. Never panics,
    /// whatever the fields hold. O(N + M).
    pub fn load(self) -> SimResult<Self> {
        let (pms, vms_on_pm) = derive(self.pms.clone(), &self.vms, &self.placements)?;
        if let Some((pm, _)) = pms.iter().zip(&self.pms).find(|(fresh, stored)| fresh != stored) {
            return Err(SimError::InvalidMapping(format!(
                "PM {} usage differs from its placements",
                pm.id.0
            )));
        }
        if self.vms_on_pm.len() != vms_on_pm.len() {
            return Err(SimError::InvalidMapping(format!(
                "reverse index covers {} PMs, expected {}",
                self.vms_on_pm.len(),
                vms_on_pm.len()
            )));
        }
        // A permutation check without a sort: each PM lists as many VMs
        // as are placed on it, and every entry is a VM placed there,
        // named once in the whole index.
        let mut named = vec![false; self.vms.len()];
        for (idx, (expect, stored)) in vms_on_pm.iter().zip(&self.vms_on_pm).enumerate() {
            let mut placed_here = |vm: &VmId| match named.get_mut(vm.0 as usize) {
                Some(seen) if !*seen && self.placements[vm.0 as usize].pm.0 as usize == idx => {
                    *seen = true;
                    true
                }
                _ => false,
            };
            if stored.len() != expect.len() || !stored.iter().all(&mut placed_here) {
                return Err(SimError::InvalidMapping(format!(
                    "reverse index of PM {idx} disagrees with the placements"
                )));
            }
        }
        Ok(ClusterState { pms, vms: self.vms, placements: self.placements, vms_on_pm })
    }

    /// Checks that a state is exactly what the one cluster rule builds
    /// from its own placements: [`Self::load`] accepts it and gives it
    /// back unchanged, every reverse index ascending. Never panics.
    /// O(N + M).
    pub fn audit(&self) -> SimResult<()> {
        let built = self.clone().load()?;
        match built.vms_on_pm.iter().zip(&self.vms_on_pm).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(idx) => Err(SimError::InvalidMapping(format!(
                "reverse index of PM {idx} is not in ascending order"
            ))),
        }
    }
}

/// The refusal of a move no non-no-op placement admits, for `migrate` and
/// `migration_legal`: a no-op on the VM's host, short capacity elsewhere.
pub(crate) fn no_fit(vm: VmId, from: Placement, pm: PmId) -> SimError {
    if from.pm == pm {
        SimError::NoOpMigration(vm)
    } else {
        SimError::InsufficientResources { pm, numa: 0 }
    }
}

/// Drops `vm` from a PM's ascending reverse index.
fn unhost(hosted: &mut Vec<VmId>, vm: VmId) {
    let pos = hosted.binary_search(&vm).expect("reverse index corrupt");
    hosted.remove(pos);
}

/// Puts `vm` into a PM's ascending reverse index, at its place.
fn host(hosted: &mut Vec<VmId>, vm: VmId) {
    let pos = hosted.binary_search(&vm).expect_err("reverse index corrupt");
    hosted.insert(pos, vm);
}

/// The one cluster rule behind [`ClusterState::new`] and
/// [`ClusterState::audit`]: checks `(pms, vms, placements)` and returns
/// the PMs with their usage recomputed from the placements, and the
/// reverse index (each PM's VMs in ascending id order). Indexes nothing
/// it has not bounds-checked, so untrusted input yields `Err`, never a
/// panic.
fn derive(
    mut pms: Vec<Pm>,
    vms: &[Vm],
    placements: &[Placement],
) -> SimResult<(Vec<Pm>, Vec<Vec<VmId>>)> {
    if vms.len() != placements.len() {
        return Err(SimError::InvalidMapping(format!(
            "{} VMs but {} placements",
            vms.len(),
            placements.len()
        )));
    }
    for (idx, pm) in pms.iter_mut().enumerate() {
        if pm.id.0 as usize != idx {
            return Err(SimError::InvalidMapping(format!(
                "PM ids must be dense: slot {idx} holds id {}",
                pm.id.0
            )));
        }
        pm.check_spec()?;
        for numa in &mut pm.numas {
            numa.cpu_used = 0;
            numa.mem_used = 0;
        }
    }
    let mut vms_on_pm = vec![Vec::new(); pms.len()];
    for (idx, (vm, pl)) in vms.iter().zip(placements).enumerate() {
        if vm.id.0 as usize != idx {
            return Err(SimError::InvalidMapping(format!(
                "VM ids must be dense: slot {idx} holds id {}",
                vm.id.0
            )));
        }
        Vm::check_spec(vm.cpu, vm.mem, vm.numa)?;
        vm.check_shape(pl.numa)?;
        let pm = pms.get_mut(pl.pm.0 as usize).ok_or(SimError::UnknownPm(pl.pm))?;
        pm.alloc_vm(vm, pl.numa).map_err(|_| {
            SimError::InvalidMapping(format!(
                "VM {} overflows PM {} at {:?}",
                vm.id.0, pl.pm.0, pl.numa
            ))
        })?;
        vms_on_pm[pl.pm.0 as usize].push(vm.id);
    }
    Ok((pms, vms_on_pm))
}

/// A fragment sum over the free capacity it is a share of: the one
/// division behind every fragment rate, 0 when nothing is free at all.
pub fn fragment_ratio(fragment: u64, free: u64) -> f64 {
    if free == 0 {
        return 0.0;
    }
    fragment as f64 / free as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NumaPolicy;

    fn small_cluster() -> ClusterState {
        // Two PMs with 44 cores / 128 GiB per NUMA; three VMs.
        let pms = vec![Pm::symmetric(PmId(0), 44, 128), Pm::symmetric(PmId(1), 44, 128)];
        let vms = vec![
            Vm { id: VmId(0), cpu: 16, mem: 32, numa: NumaPolicy::Single },
            Vm { id: VmId(1), cpu: 8, mem: 16, numa: NumaPolicy::Single },
            Vm { id: VmId(2), cpu: 64, mem: 128, numa: NumaPolicy::Double },
        ];
        let placements = vec![
            Placement { pm: PmId(0), numa: NumaPlacement::Single(0) },
            Placement { pm: PmId(0), numa: NumaPlacement::Single(1) },
            Placement { pm: PmId(1), numa: NumaPlacement::Double },
        ];
        ClusterState::new(pms, vms, placements).unwrap()
    }

    #[test]
    fn construction_computes_usage() {
        let c = small_cluster();
        assert_eq!(c.pm(PmId(0)).numas[0].cpu_used, 16);
        assert_eq!(c.pm(PmId(0)).numas[1].cpu_used, 8);
        assert_eq!(c.pm(PmId(1)).numas[0].cpu_used, 32);
        assert_eq!(c.pm(PmId(1)).numas[1].cpu_used, 32);
        c.audit().unwrap();
    }

    type Corruption = Box<dyn Fn(&mut ClusterState)>;

    #[test]
    fn audit_strict_rejects_hostile_deserialized_states() {
        // A healthy state passes.
        small_cluster().audit().unwrap();
        // Each corruption below is representable by deserializing a
        // hostile snapshot blob (the fields are plain data on the wire);
        // audit must reject every one with an error, never panic.
        let corrupt: Vec<Corruption> = vec![
            // Zero-resource VM (consistent accounting, so audit() alone
            // would pass it after usage is zeroed too).
            Box::new(|c| {
                c.pms[0].numas[0].cpu_used -= c.vms[0].cpu;
                c.pms[0].numas[0].mem_used -= c.vms[0].mem;
                c.vms[0].cpu = 0;
                c.vms[0].mem = 0;
            }),
            // Odd double-NUMA split (cpu_per_numa truncates).
            Box::new(|c| c.vms[2].cpu = 63),
            // Out-of-range host PM: audit() would panic indexing usage.
            Box::new(|c| c.placements[0].pm = PmId(999)),
            // Out-of-range NUMA index: alloc paths would panic.
            Box::new(|c| c.placements[0].numa = NumaPlacement::Single(7)),
            // Placement shape disagreeing with the NUMA policy.
            Box::new(|c| c.placements[2].numa = NumaPlacement::Single(0)),
            // Zero-capacity PM.
            Box::new(|c| {
                c.pms[1].numas[0].cpu_total = 0;
                c.pms[1].numas[0].cpu_used = 0;
                c.vms.truncate(2);
                c.placements.truncate(2);
                c.vms_on_pm[1].clear();
            }),
            // Non-dense VM ids.
            Box::new(|c| c.vms[1].id = VmId(5)),
            // Reverse index naming an unknown VM.
            Box::new(|c| c.vms_on_pm[0].push(VmId(42))),
            // Reverse index shorter than the PM list.
            Box::new(|c| {
                c.vms_on_pm.pop();
            }),
        ];
        for (i, f) in corrupt.iter().enumerate() {
            let mut c = small_cluster();
            f(&mut c);
            assert!(c.audit().is_err(), "corruption {i} must be rejected");
            assert!(c.load().is_err(), "corruption {i} must not load");
        }
    }

    /// A stored index in another order (a state written before the index
    /// was kept ascending) loads, and comes out ascending; `audit` holds a
    /// state to that order.
    #[test]
    fn load_puts_a_permuted_index_in_ascending_order() {
        let canonical = small_cluster();
        let mut stored = canonical.clone();
        stored.vms_on_pm[0].reverse();
        assert_eq!(stored.vms_on_pm[0], vec![VmId(1), VmId(0)]);
        assert!(stored.audit().is_err(), "a live index out of order is a fault");
        assert_eq!(stored.load().unwrap(), canonical);
        // A permutation only: a VM named twice is refused.
        let mut twice = canonical.clone();
        twice.vms_on_pm[0] = vec![VmId(0), VmId(0)];
        assert!(twice.load().is_err());
    }

    #[test]
    fn construction_rejects_overflow() {
        let pms = vec![Pm::symmetric(PmId(0), 8, 16)];
        let vms = vec![Vm { id: VmId(0), cpu: 16, mem: 32, numa: NumaPolicy::Single }];
        let placements = vec![Placement { pm: PmId(0), numa: NumaPlacement::Single(0) }];
        assert!(matches!(
            ClusterState::new(pms, vms, placements),
            Err(SimError::InvalidMapping(_))
        ));
    }

    /// Construction enforces the same VM spec rule as `add_vm`,
    /// `resize_vm` and `audit`, and refuses a NUMA index that does
    /// not exist instead of indexing past the PM's nodes.
    #[test]
    fn construction_rejects_degenerate_specs() {
        let pms = vec![Pm::symmetric(PmId(0), 44, 128)];
        let single = NumaPlacement::Single(0);
        let cases = [
            (4, 0, NumaPolicy::Single, single),
            (0, 8, NumaPolicy::Single, single),
            (33, 64, NumaPolicy::Double, NumaPlacement::Double),
            (32, 63, NumaPolicy::Double, NumaPlacement::Double),
            (4, 8, NumaPolicy::Single, NumaPlacement::Single(2)),
        ];
        for (cpu, mem, numa, pl) in cases {
            let vms = vec![Vm { id: VmId(0), cpu, mem, numa }];
            let placements = vec![Placement { pm: PmId(0), numa: pl }];
            assert!(
                matches!(
                    ClusterState::new(pms.clone(), vms, placements),
                    Err(SimError::InvalidMapping(_))
                ),
                "({cpu}, {mem}, {numa:?}) at {pl:?} must be rejected"
            );
        }
    }

    /// Construction refuses a PM with a zero-capacity NUMA node, as
    /// `add_pm` and `audit` do: one PM spec rule.
    #[test]
    fn construction_rejects_zero_capacity_pms() {
        let vms = vec![Vm { id: VmId(0), cpu: 4, mem: 8, numa: NumaPolicy::Single }];
        let placements = vec![Placement { pm: PmId(0), numa: NumaPlacement::Single(0) }];
        for (numa, cpu, mem) in [(1, 0, 128), (1, 44, 0), (0, 0, 0)] {
            let mut pms = vec![Pm::symmetric(PmId(0), 44, 128), Pm::symmetric(PmId(1), 44, 128)];
            pms[1].numas[numa].cpu_total = cpu;
            pms[1].numas[numa].mem_total = mem;
            assert!(
                matches!(
                    ClusterState::new(pms, vms.clone(), placements.clone()),
                    Err(SimError::InvalidMapping(_))
                ),
                "NUMA {numa} of ({cpu}, {mem}) must be rejected"
            );
        }
        let mut c = small_cluster();
        assert!(matches!(c.add_pm(0, 128), Err(SimError::InvalidMapping(_))));
        assert_eq!(c.num_pms(), 2);
    }

    #[test]
    fn construction_rejects_policy_mismatch() {
        let pms = vec![Pm::symmetric(PmId(0), 44, 128)];
        let vms = vec![Vm { id: VmId(0), cpu: 64, mem: 128, numa: NumaPolicy::Double }];
        let placements = vec![Placement { pm: PmId(0), numa: NumaPlacement::Single(0) }];
        assert!(matches!(
            ClusterState::new(pms, vms, placements),
            Err(SimError::NumaPolicyViolation(_))
        ));
    }

    #[test]
    fn migrate_and_undo_restore_state() {
        let mut c = small_cluster();
        let before = c.clone();
        // VM1 (8 cores) fits on PM1's 12-free NUMAs; VM0 (16 cores) would not.
        let rec = c.migrate(VmId(1), PmId(1), 16).unwrap();
        assert_ne!(c, before);
        c.audit().unwrap();
        // VM 1 lands after VM 2 on PM 1 in id order, whatever order it came in.
        assert_eq!(c.vms_on(PmId(1)), &[VmId(1), VmId(2)]);
        c.undo(&rec).unwrap();
        assert_eq!(c, before);
    }

    #[test]
    fn migrate_rejects_noop() {
        let mut c = small_cluster();
        // VM 1 could flip NUMA within PM 0, so same-PM is not always a no-op;
        // but migrating exactly onto its own placement must fail.
        assert!(matches!(
            c.migrate_exact(VmId(1), PmId(0), NumaPlacement::Single(1)),
            Err(SimError::NoOpMigration(_))
        ));
    }

    #[test]
    fn swap_exchanges_hosts() {
        let mut c = small_cluster();
        let rec = c.swap(VmId(0), VmId(2), 16).unwrap();
        assert_eq!((rec.a.to.pm, rec.b.to.pm), (PmId(1), PmId(0)));
        assert_eq!(c.placement(VmId(0)).pm, PmId(1));
        assert_eq!(c.placement(VmId(2)).pm, PmId(0));
        assert_eq!(c.vms_on(PmId(0)), &[VmId(1), VmId(2)]);
        assert_eq!(c.vms_on(PmId(1)), &[VmId(0)]);
        c.audit().unwrap();
    }

    /// The §8 motivation: a swap can be legal when neither individual
    /// migration is — each VM only fits into the hole the other vacates.
    #[test]
    fn swap_feasible_when_no_sequential_path_exists() {
        let pms = vec![Pm::symmetric(PmId(0), 16, 32), Pm::symmetric(PmId(1), 16, 32)];
        let mk = |id: u32| Vm { id: VmId(id), cpu: 16, mem: 32, numa: NumaPolicy::Single };
        let vms = vec![mk(0), mk(1), mk(2), mk(3)];
        let placements = vec![
            Placement { pm: PmId(0), numa: NumaPlacement::Single(0) },
            Placement { pm: PmId(0), numa: NumaPlacement::Single(1) },
            Placement { pm: PmId(1), numa: NumaPlacement::Single(0) },
            Placement { pm: PmId(1), numa: NumaPlacement::Single(1) },
        ];
        let mut c = ClusterState::new(pms, vms, placements).unwrap();
        // Fully packed: no single migration is feasible in any direction.
        assert!(c.migrate(VmId(0), PmId(1), 16).is_err());
        assert!(c.migrate(VmId(2), PmId(0), 16).is_err());
        // But the atomic exchange is.
        c.swap(VmId(0), VmId(2), 16).unwrap();
        assert_eq!(c.placement(VmId(0)).pm, PmId(1));
        assert_eq!(c.placement(VmId(2)).pm, PmId(0));
        c.audit().unwrap();
    }

    #[test]
    fn swap_rejects_self_and_same_pm() {
        let mut c = small_cluster();
        assert!(matches!(c.swap(VmId(0), VmId(0), 16), Err(SimError::NoOpMigration(_))));
        // VMs 0 and 1 share PM 0.
        assert!(matches!(c.swap(VmId(0), VmId(1), 16), Err(SimError::NoOpMigration(_))));
    }

    #[test]
    fn swap_rejects_capacity_overflow_without_mutation() {
        // PM 1 is too small to receive the 16-core VM even after the
        // 2-core VM leaves.
        let pms = vec![Pm::symmetric(PmId(0), 44, 128), Pm::symmetric(PmId(1), 8, 16)];
        let vms = vec![
            Vm { id: VmId(0), cpu: 16, mem: 32, numa: NumaPolicy::Single },
            Vm { id: VmId(1), cpu: 2, mem: 4, numa: NumaPolicy::Single },
        ];
        let placements = vec![
            Placement { pm: PmId(0), numa: NumaPlacement::Single(0) },
            Placement { pm: PmId(1), numa: NumaPlacement::Single(0) },
        ];
        let mut c = ClusterState::new(pms, vms, placements).unwrap();
        let before = c.clone();
        assert!(matches!(
            c.swap(VmId(0), VmId(1), 16),
            Err(SimError::InsufficientResources { .. })
        ));
        assert_eq!(c, before, "failed swap must not mutate state");
    }

    #[test]
    fn same_pm_numa_flip_is_legal() {
        let mut c = small_cluster();
        let rec = c.migrate_exact(VmId(1), PmId(0), NumaPlacement::Single(0)).unwrap();
        assert_eq!(rec.to.numa, NumaPlacement::Single(0));
        c.audit().unwrap();
        assert_eq!(c.pm(PmId(0)).numas[0].cpu_used, 24);
        assert_eq!(c.pm(PmId(0)).numas[1].cpu_used, 0);
    }

    #[test]
    fn migrate_rejects_insufficient_capacity() {
        let mut c = small_cluster();
        // PM 1 has 12 cores free per NUMA (44-32); a 16-core single VM fails.
        assert!(matches!(
            c.migrate_exact(VmId(0), PmId(1), NumaPlacement::Single(0)),
            Err(SimError::InsufficientResources { .. })
        ));
        c.audit().unwrap();
    }

    #[test]
    fn fragment_rate_tracks_migrations() {
        let mut c = small_cluster();
        let fr_before = c.fragment_rate(16);
        // PM0: numa0 free 28 (frag 12), numa1 free 36 (frag 4);
        // PM1: 12 free per NUMA (frag 12 each).
        assert_eq!(c.total_cpu_fragment(16), (28 % 16 + 36 % 16 + 12 + 12) as u64);
        let rec = c.migrate(VmId(1), PmId(0), 16); // NUMA flip may help
        if let Ok(rec) = rec {
            let _ = c.undo(&rec);
        }
        assert!((c.fragment_rate(16) - fr_before).abs() < 1e-12);
    }

    #[test]
    fn best_fit_placement_minimizes_fragment() {
        let c = small_cluster();
        // Moving VM1 (8 cores) to PM0 NUMA0 leaves free (20, 36): frags (4, 4)=8.
        // To NUMA1 it's where it already is -> skipped.
        let pl = c.best_fit_placement(VmId(1), PmId(0), 16).unwrap();
        assert_eq!(pl, Some(NumaPlacement::Single(0)));
    }

    #[test]
    fn double_vm_migration_uses_both_numas() {
        let mut c = small_cluster();
        // Free PM0 by moving VM0 & VM1 to PM1's leftover? Not enough room;
        // instead move the double VM2 from PM1 to PM0 (28/36 free, needs 32/32).
        let err = c.migrate(VmId(2), PmId(0), 16);
        assert!(err.is_err()); // numa0 only has 28 free
        let rec = c.migrate(VmId(0), PmId(0), 16); // flip VM0 to numa1? no-op check
        drop(rec);
        // Move VM0 off to PM1 numa0 fails (12 free), so free numa0 via VM1:
        // (documented behaviour: errors leave state untouched)
        c.audit().unwrap();
    }

    #[test]
    fn add_vm_appends_and_accounts() {
        let mut c = small_cluster();
        let pl = Placement { pm: PmId(1), numa: NumaPlacement::Single(0) };
        let id = c.add_vm(4, 8, NumaPolicy::Single, pl).unwrap();
        assert_eq!(id, VmId(3));
        assert_eq!(c.num_vms(), 4);
        assert_eq!(c.placement(id), pl);
        assert!(c.vms_on(PmId(1)).contains(&id));
        c.audit().unwrap();
        // Shape and capacity violations leave state untouched.
        assert!(matches!(
            c.add_vm(4, 8, NumaPolicy::Double, pl),
            Err(SimError::NumaPolicyViolation(_))
        ));
        assert!(matches!(
            c.add_vm(400, 8, NumaPolicy::Single, pl),
            Err(SimError::InsufficientResources { .. })
        ));
        assert!(matches!(c.add_vm(0, 8, NumaPolicy::Single, pl), Err(SimError::InvalidMapping(_))));
        assert_eq!(c.num_vms(), 4);
        c.audit().unwrap();
    }

    #[test]
    fn remove_vm_swap_renumbers_last() {
        let mut c = small_cluster();
        // Remove VM 0: VM 2 (the last) must take id 0.
        let out = c.remove_vm(VmId(0)).unwrap();
        assert_eq!(out.vm.cpu, 16);
        assert_eq!(out.renumbered, Some(VmId(2)));
        assert_eq!(c.num_vms(), 2);
        assert_eq!(c.vm(VmId(0)).cpu, 64, "renumbered VM keeps its record");
        assert_eq!(c.placement(VmId(0)).pm, PmId(1));
        assert_eq!(c.vms_on(PmId(0)), &[VmId(1)]);
        assert_eq!(c.vms_on(PmId(1)), &[VmId(0)]);
        c.audit().unwrap();
        // Removing the (new) last VM renumbers nothing.
        let out = c.remove_vm(VmId(1)).unwrap();
        assert_eq!(out.renumbered, None);
        c.audit().unwrap();
        assert!(matches!(c.remove_vm(VmId(5)), Err(SimError::UnknownVm(_))));
    }

    #[test]
    fn resize_vm_checks_capacity_and_rolls_back() {
        let mut c = small_cluster();
        c.resize_vm(VmId(1), 12, 24).unwrap();
        assert_eq!(c.vm(VmId(1)).cpu, 12);
        assert_eq!(c.pm(PmId(0)).numas[1].cpu_used, 12);
        c.audit().unwrap();
        let before = c.clone();
        assert!(matches!(
            c.resize_vm(VmId(1), 100, 24),
            Err(SimError::InsufficientResources { .. })
        ));
        assert_eq!(c, before, "failed resize must not mutate state");
        assert!(matches!(c.resize_vm(VmId(2), 65, 128), Err(SimError::InvalidMapping(_))));
    }

    #[test]
    fn add_pm_extends_cluster() {
        let mut c = small_cluster();
        let id = c.add_pm(44, 128).unwrap();
        assert_eq!(id, PmId(2));
        assert_eq!(c.num_pms(), 3);
        assert!(c.vms_on(id).is_empty());
        // The new capacity is usable immediately.
        c.migrate(VmId(0), id, 16).unwrap();
        c.audit().unwrap();
    }

    #[test]
    fn serde_roundtrip() {
        let c = small_cluster();
        let json = serde_json::to_string(&c).unwrap();
        let back: ClusterState = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
        back.audit().unwrap();
    }
}
