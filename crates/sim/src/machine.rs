//! Physical and virtual machine records and NUMA-node resource accounting.
//!
//! A [`Numa`] node tracks total and used CPU/memory; a [`Pm`] is two NUMA
//! nodes. Fragment arithmetic (`free_cpu % X`) lives here because both the
//! objective (Eq. 1) and the dense reward (Eq. 8) are sums of per-NUMA
//! fragments.

use serde::{Deserialize, Serialize};

use crate::error::{SimError, SimResult};
use crate::types::{NumaPlacement, NumaPolicy, PmId, VmId, NUMA_PER_PM};

/// One NUMA node: capacity and current usage.
///
/// Invariant: `cpu_used <= cpu_total` and `mem_used <= mem_total`. The
/// mutation methods preserve this; [`Numa::try_alloc`] refuses allocations
/// that would break it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Numa {
    /// Total CPU cores provided by this NUMA node (`U_{i,j}`).
    pub cpu_total: u32,
    /// Total memory (GiB) provided by this NUMA node (`V_{i,j}`).
    pub mem_total: u32,
    /// CPU cores currently allocated to VMs.
    pub cpu_used: u32,
    /// Memory (GiB) currently allocated to VMs.
    pub mem_used: u32,
}

impl Numa {
    /// Creates an empty NUMA node with the given capacity.
    pub fn new(cpu_total: u32, mem_total: u32) -> Self {
        Numa { cpu_total, mem_total, cpu_used: 0, mem_used: 0 }
    }

    /// Free CPU cores (`~U_{i,j}` in the paper).
    #[inline]
    pub fn free_cpu(&self) -> u32 {
        self.cpu_total - self.cpu_used
    }

    /// Free memory in GiB.
    #[inline]
    pub fn free_mem(&self) -> u32 {
        self.mem_total - self.mem_used
    }

    /// X-core CPU fragment of this node: `free_cpu % X` — the CPUs that
    /// cannot serve an additional X-core (per-NUMA) request.
    #[inline]
    pub fn cpu_fragment(&self, x: u32) -> u32 {
        debug_assert!(x > 0, "fragment granularity must be positive");
        self.free_cpu() % x
    }

    /// X-GiB memory fragment of this node: `free_mem % X`.
    #[inline]
    pub fn mem_fragment(&self, x: u32) -> u32 {
        debug_assert!(x > 0, "fragment granularity must be positive");
        self.free_mem() % x
    }

    /// Whether the node can host an additional demand of (`cpu`, `mem`).
    #[inline]
    pub fn fits(&self, cpu: u32, mem: u32) -> bool {
        self.free_cpu() >= cpu && self.free_mem() >= mem
    }

    /// Allocates (`cpu`, `mem`) if it fits; returns `false` otherwise.
    #[must_use]
    pub fn try_alloc(&mut self, cpu: u32, mem: u32) -> bool {
        if !self.fits(cpu, mem) {
            return false;
        }
        self.cpu_used += cpu;
        self.mem_used += mem;
        true
    }

    /// Releases a previous allocation.
    ///
    /// # Panics
    /// Panics in debug builds if the release exceeds current usage, which
    /// would indicate corrupted bookkeeping (a bug, not a caller error).
    pub fn release(&mut self, cpu: u32, mem: u32) {
        debug_assert!(self.cpu_used >= cpu && self.mem_used >= mem, "release exceeds usage");
        self.cpu_used = self.cpu_used.saturating_sub(cpu);
        self.mem_used = self.mem_used.saturating_sub(mem);
    }
}

/// A physical machine: two NUMA nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pm {
    /// Dense PM identifier.
    pub id: PmId,
    /// The two NUMA nodes.
    pub numas: [Numa; NUMA_PER_PM],
}

impl Pm {
    /// Creates a PM with symmetric NUMA nodes of the given per-NUMA capacity.
    pub fn symmetric(id: PmId, cpu_per_numa: u32, mem_per_numa: u32) -> Self {
        Pm { id, numas: [Numa::new(cpu_per_numa, mem_per_numa); NUMA_PER_PM] }
    }

    /// The one PM spec rule every constructed, restored or added PM
    /// passes: each NUMA node has non-zero CPU and memory (a zero-capacity
    /// node would distort fragment-rate denominators and feature
    /// normalization).
    pub fn check_spec(&self) -> SimResult<()> {
        if self.numas.iter().any(|n| n.cpu_total == 0 || n.mem_total == 0) {
            return Err(SimError::InvalidMapping(format!(
                "PM {} has a zero-capacity NUMA node",
                self.id.0
            )));
        }
        Ok(())
    }

    /// Total X-core CPU fragment over both NUMA nodes (`S_i · c` before
    /// rescaling; Eq. 8).
    #[inline]
    pub fn cpu_fragment(&self, x: u32) -> u32 {
        self.numas.iter().map(|n| n.cpu_fragment(x)).sum()
    }

    /// Total X-GiB memory fragment over both NUMA nodes.
    #[inline]
    pub fn mem_fragment(&self, x: u32) -> u32 {
        self.numas.iter().map(|n| n.mem_fragment(x)).sum()
    }

    /// Fragment for *double-NUMA* X-core flavors: such a flavor needs `X/2`
    /// cores on **each** NUMA simultaneously, so the usable cores are
    /// `2·(X/2)·min_j(free_j / (X/2))` and the rest of the free cores are
    /// fragments.
    pub fn cpu_fragment_double(&self, x: u32) -> u32 {
        debug_assert!(x >= 2 && x.is_multiple_of(2), "double-NUMA flavor needs an even core count");
        let half = x / 2;
        let pairs = self.numas.iter().map(|n| n.free_cpu() / half).min().unwrap_or(0);
        let free: u32 = self.numas.iter().map(Numa::free_cpu).sum();
        free - pairs * x
    }

    /// Total free CPU over both NUMA nodes.
    #[inline]
    pub fn free_cpu(&self) -> u32 {
        self.numas.iter().map(Numa::free_cpu).sum()
    }

    /// Total free memory over both NUMA nodes.
    #[inline]
    pub fn free_mem(&self) -> u32 {
        self.numas.iter().map(Numa::free_mem).sum()
    }

    /// Total CPU capacity over both NUMA nodes.
    #[inline]
    pub fn cpu_total(&self) -> u32 {
        self.numas.iter().map(|n| n.cpu_total).sum()
    }

    /// Total memory capacity over both NUMA nodes.
    #[inline]
    pub fn mem_total(&self) -> u32 {
        self.numas.iter().map(|n| n.mem_total).sum()
    }

    /// Releases `vm`'s allocation at `numa`.
    pub fn release_vm(&mut self, vm: &Vm, numa: NumaPlacement) {
        match numa {
            NumaPlacement::Single(j) => {
                self.numas[j as usize].release(vm.cpu_per_numa(), vm.mem_per_numa())
            }
            NumaPlacement::Double => {
                for n in &mut self.numas {
                    n.release(vm.cpu_per_numa(), vm.mem_per_numa());
                }
            }
        }
    }

    /// Allocates `vm` at `numa`; the caller has checked [`placement_fits`].
    /// The one allocation: nothing else in the simulator calls
    /// [`Numa::try_alloc`].
    pub(crate) fn alloc_vm(&mut self, vm: &Vm, numa: NumaPlacement) {
        let ok = match numa {
            NumaPlacement::Single(j) => {
                self.numas[j as usize].try_alloc(vm.cpu_per_numa(), vm.mem_per_numa())
            }
            NumaPlacement::Double => {
                self.numas.iter_mut().all(|n| n.try_alloc(vm.cpu_per_numa(), vm.mem_per_numa()))
            }
        };
        debug_assert!(ok, "alloc_vm called without a prior capacity check");
    }
}

/// A virtual machine instance: a flavor plus identity.
///
/// The flavor's static data is denormalized into the record so that custom
/// (non-Table-1) sizes — e.g. the memory-boosted VMs of the Multi-Resource
/// dataset whose CPU:mem ratio reaches 1:8 — are representable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vm {
    /// Dense VM identifier.
    pub id: VmId,
    /// Total requested CPU cores (`u_k`).
    pub cpu: u32,
    /// Total requested memory GiB (`v_k`).
    pub mem: u32,
    /// Single- or double-NUMA deployment policy (`w_k`).
    pub numa: NumaPolicy,
}

impl Vm {
    /// The one VM spec rule every created, resized, restored or sampled
    /// VM passes: a non-zero CPU and memory request, even on a
    /// double-NUMA VM (`cpu_per_numa` / `mem_per_numa` halve by
    /// truncation, so an odd request would silently lose a core or GiB;
    /// a zero request would distort fragment accounting).
    pub fn check_spec(cpu: u32, mem: u32, numa: NumaPolicy) -> SimResult<()> {
        if cpu == 0 || mem == 0 {
            return Err(SimError::InvalidMapping(format!(
                "VM requests zero CPU or memory ({cpu} CPU, {mem} GiB)"
            )));
        }
        if numa == NumaPolicy::Double && (!cpu.is_multiple_of(2) || !mem.is_multiple_of(2)) {
            return Err(SimError::InvalidMapping(format!(
                "double-NUMA VM needs even CPU and memory ({cpu} CPU, {mem} GiB)"
            )));
        }
        Ok(())
    }

    /// The one placement-shape rule (Eq. 4 + Eq. 6): a single-NUMA VM
    /// sits on one existing NUMA node, a double-NUMA VM on both.
    pub fn check_shape(&self, numa: NumaPlacement) -> SimResult<()> {
        match (self.numa, numa) {
            (NumaPolicy::Single, NumaPlacement::Single(j)) if (j as usize) < NUMA_PER_PM => Ok(()),
            (NumaPolicy::Single, NumaPlacement::Single(j)) => Err(SimError::InvalidMapping(
                format!("VM {} placed on NUMA index {j} (only {NUMA_PER_PM} exist)", self.id.0),
            )),
            (NumaPolicy::Double, NumaPlacement::Double) => Ok(()),
            _ => Err(SimError::NumaPolicyViolation(self.id)),
        }
    }

    /// CPU demanded from each NUMA node the VM occupies.
    #[inline]
    pub fn cpu_per_numa(&self) -> u32 {
        self.cpu / self.numa.numa_count()
    }

    /// Memory demanded from each NUMA node the VM occupies.
    #[inline]
    pub fn mem_per_numa(&self) -> u32 {
        self.mem / self.numa.numa_count()
    }

    /// Enumerates the placements this VM could use on *some* PM:
    /// `Single(0) | Single(1)` for single-NUMA flavors, `Double` otherwise.
    pub fn candidate_placements(&self) -> &'static [NumaPlacement] {
        match self.numa {
            NumaPolicy::Single => &[NumaPlacement::Single(0), NumaPlacement::Single(1)],
            NumaPolicy::Double => &[NumaPlacement::Double],
        }
    }
}

/// Where a VM currently lives: host PM plus NUMA placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Placement {
    /// Host PM.
    pub pm: PmId,
    /// NUMA node(s) occupied on the host.
    pub numa: NumaPlacement,
}

/// Checks whether a PM can host a VM under a specific NUMA placement,
/// considering only capacity (no service constraints).
pub fn placement_fits(pm: &Pm, vm: &Vm, placement: NumaPlacement) -> bool {
    match (vm.numa, placement) {
        (NumaPolicy::Single, NumaPlacement::Single(j)) => {
            pm.numas[j as usize].fits(vm.cpu_per_numa(), vm.mem_per_numa())
        }
        (NumaPolicy::Double, NumaPlacement::Double) => {
            pm.numas.iter().all(|n| n.fits(vm.cpu_per_numa(), vm.mem_per_numa()))
        }
        // Placement shape must match the policy (Eq. 4 + Eq. 6).
        _ => false,
    }
}

/// [`placement_fits`] as the one error a refused placement reports:
/// [`SimError::InsufficientResources`] naming `pm` and the (first) NUMA
/// node the placement asks for.
pub(crate) fn check_fits(pm: &Pm, vm: &Vm, numa: NumaPlacement) -> SimResult<()> {
    if placement_fits(pm, vm, numa) {
        return Ok(());
    }
    let numa = match numa {
        NumaPlacement::Single(j) => j as usize,
        NumaPlacement::Double => 0,
    };
    Err(SimError::InsufficientResources { pm: pm.id, numa })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct _AssertSend;

#[cfg(test)]
mod tests {
    use super::*;

    fn pm(cpu: u32, mem: u32) -> Pm {
        Pm::symmetric(PmId(0), cpu, mem)
    }

    #[test]
    fn numa_alloc_and_release_roundtrip() {
        let mut n = Numa::new(44, 128);
        assert!(n.try_alloc(16, 32));
        assert_eq!(n.free_cpu(), 28);
        assert_eq!(n.free_mem(), 96);
        n.release(16, 32);
        assert_eq!(n.free_cpu(), 44);
        assert_eq!(n.free_mem(), 128);
    }

    #[test]
    fn alloc_refuses_overflow() {
        let mut n = Numa::new(8, 16);
        assert!(!n.try_alloc(9, 4));
        assert!(!n.try_alloc(4, 17));
        assert_eq!(n.cpu_used, 0);
        assert_eq!(n.mem_used, 0);
    }

    #[test]
    fn fragment_matches_paper_example() {
        // Paper §1: PM1 has 12 CPUs free, PM2 has 20 free. Fragments w.r.t.
        // 16-core VMs are 12 and 4; FR = 16/32 = 50%.
        let mut pm1 = pm(6, 128); // 2 NUMAs x 6 = 12 free
        let mut pm2 = pm(10, 128); // 2 NUMAs x 10 = 20 free
                                   // Single-NUMA fragment accounting: 6%16=6 per numa -> 12; 10%16=10 per numa -> 20?
                                   // The paper's example ignores NUMA; emulate by concentrating free CPU.
        pm1.numas[0] = Numa::new(12, 128);
        pm1.numas[1] = Numa { cpu_total: 12, mem_total: 128, cpu_used: 12, mem_used: 0 };
        pm2.numas[0] = Numa::new(20, 128);
        pm2.numas[1] = Numa { cpu_total: 20, mem_total: 128, cpu_used: 20, mem_used: 0 };
        assert_eq!(pm1.cpu_fragment(16), 12);
        assert_eq!(pm2.cpu_fragment(16), 4);
        let frag = pm1.cpu_fragment(16) + pm2.cpu_fragment(16);
        let free = pm1.free_cpu() + pm2.free_cpu();
        assert_eq!(frag, 16);
        assert_eq!(free, 32);
    }

    #[test]
    fn double_numa_fragment_counts_pairs() {
        let mut p = pm(44, 128);
        // 44 free per NUMA; a 64-core double flavor needs 32 per NUMA:
        // pairs = min(44/32, 44/32) = 1 -> usable 64, fragment 88-64 = 24.
        assert_eq!(p.cpu_fragment_double(64), 24);
        assert!(p.numas[0].try_alloc(20, 0));
        // NUMA0 has 24 free (<32): pairs=0, fragment = 24+44 = 68.
        assert_eq!(p.cpu_fragment_double(64), 68);
    }

    #[test]
    fn placement_fits_enforces_policy_shape() {
        let p = pm(44, 128);
        let single = Vm { id: VmId(0), cpu: 16, mem: 32, numa: NumaPolicy::Single };
        let double = Vm { id: VmId(1), cpu: 64, mem: 128, numa: NumaPolicy::Double };
        assert!(placement_fits(&p, &single, NumaPlacement::Single(0)));
        assert!(!placement_fits(&p, &single, NumaPlacement::Double));
        assert!(placement_fits(&p, &double, NumaPlacement::Double));
        assert!(!placement_fits(&p, &double, NumaPlacement::Single(1)));
    }

    #[test]
    fn double_placement_needs_both_numas() {
        let mut p = pm(44, 128);
        let double = Vm { id: VmId(1), cpu: 64, mem: 128, numa: NumaPolicy::Double };
        assert!(p.numas[1].try_alloc(20, 0)); // leaves 24 < 32 on NUMA 1
        assert!(!placement_fits(&p, &double, NumaPlacement::Double));
    }

    #[test]
    fn vm_candidate_placements() {
        let single = Vm { id: VmId(0), cpu: 4, mem: 8, numa: NumaPolicy::Single };
        let double = Vm { id: VmId(1), cpu: 32, mem: 64, numa: NumaPolicy::Double };
        assert_eq!(single.candidate_placements().len(), 2);
        assert_eq!(double.candidate_placements(), &[NumaPlacement::Double]);
    }
}
