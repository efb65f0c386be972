//! State featurization (§3.1, "State Representation").
//!
//! Per the paper, the observation has two feature families:
//! * **PM features** — for each of the two NUMA nodes: remaining CPU,
//!   remaining memory, current FR (fragment / free CPU), and fragment size
//!   → 4 × 2 = 8 features per PM.
//! * **VM features** — requested CPU and memory per NUMA (zeros pad the
//!   unused NUMA of single-NUMA flavors), the fragment-size delta its
//!   removal would cause on each source NUMA, concatenated with the source
//!   PM's 8 features → 14 features per VM.
//!
//! Every feature dimension is min-max normalized over the entities in the
//! observation, exactly as the paper prescribes, so features stay in
//! `[0, 1]` regardless of cluster scale.

use serde::{Deserialize, Serialize};

use crate::cluster::ClusterState;
use crate::types::{NumaPlacement, PmId, NUMA_PER_PM};

/// Number of features per PM.
pub const PM_FEAT: usize = 4 * NUMA_PER_PM;
/// Number of features per VM.
pub const VM_FEAT: usize = 6 + PM_FEAT;

/// A dense observation of the cluster, ready for the feature extractor.
///
/// Feature matrices are row-major: `pm_feats[i * PM_FEAT + f]` and
/// `vm_feats[k * VM_FEAT + f]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Number of PMs (rows of `pm_feats`).
    pub num_pms: usize,
    /// Number of VMs (rows of `vm_feats`).
    pub num_vms: usize,
    /// Normalized PM feature matrix, `num_pms × PM_FEAT`.
    pub pm_feats: Vec<f32>,
    /// Normalized VM feature matrix, `num_vms × VM_FEAT`.
    pub vm_feats: Vec<f32>,
    /// `vm_src_pm[k]` = index of the PM hosting VM `k` (the tree edge used
    /// by sparse local attention).
    pub vm_src_pm: Vec<u32>,
}

impl Observation {
    /// An empty observation, ready to be filled by
    /// [`Observation::extract_into`] (the zero-allocation path).
    pub fn empty() -> Self {
        Observation {
            num_pms: 0,
            num_vms: 0,
            pm_feats: Vec::new(),
            vm_feats: Vec::new(),
            vm_src_pm: Vec::new(),
        }
    }

    /// Extracts and normalizes an observation from a cluster state.
    ///
    /// `frag_cores` is the fragment granularity of the active objective
    /// (16 for the default FR-16 objective).
    pub fn extract(state: &ClusterState, frag_cores: u32) -> Self {
        let mut obs = Observation::empty();
        Self::extract_into(state, frag_cores, &mut obs);
        obs
    }

    /// Like [`Observation::extract`] but reuses the buffers of `out`: in
    /// steady state (same cluster shape) no allocation happens. This is the
    /// full-rebuild path; the incremental per-step path lives in
    /// [`crate::obs_cache::ObsEngine`].
    pub fn extract_into(state: &ClusterState, frag_cores: u32, out: &mut Observation) {
        let n = state.num_pms();
        let m = state.num_vms();
        out.num_pms = n;
        out.num_vms = m;
        out.pm_feats.clear();
        out.pm_feats.resize(n * PM_FEAT, 0.0);
        out.vm_feats.clear();
        out.vm_feats.resize(m * VM_FEAT, 0.0);
        out.vm_src_pm.clear();
        out.vm_src_pm.resize(m, 0);

        for i in 0..n {
            fill_pm_row(state, i, frag_cores, &mut out.pm_feats[i * PM_FEAT..(i + 1) * PM_FEAT]);
        }
        for k in 0..m {
            let src = state.placement(crate::types::VmId(k as u32)).pm.0 as usize;
            out.vm_src_pm[k] = src as u32;
            let pm_base = src * PM_FEAT;
            fill_vm_row(
                state,
                k,
                frag_cores,
                &out.pm_feats[pm_base..pm_base + PM_FEAT],
                &mut out.vm_feats[k * VM_FEAT..(k + 1) * VM_FEAT],
            );
        }

        min_max_normalize(&mut out.pm_feats, PM_FEAT);
        min_max_normalize(&mut out.vm_feats, VM_FEAT);
    }

    /// Feature row of PM `i`.
    pub fn pm_row(&self, i: usize) -> &[f32] {
        &self.pm_feats[i * PM_FEAT..(i + 1) * PM_FEAT]
    }

    /// Feature row of VM `k`.
    pub fn vm_row(&self, k: usize) -> &[f32] {
        &self.vm_feats[k * VM_FEAT..(k + 1) * VM_FEAT]
    }
}

/// Writes the *raw* (un-normalized) feature row of PM `i` into `out`
/// (length [`PM_FEAT`]). Shared by the full extraction above and the
/// incremental [`crate::obs_cache::ObsEngine`], so both produce
/// bit-identical values by construction. Its and [`fill_vm_row`]'s length
/// checks are debug-only: a short buffer panics at its first write anyway.
pub(crate) fn fill_pm_row(state: &ClusterState, i: usize, frag_cores: u32, out: &mut [f32]) {
    debug_assert_eq!(out.len(), PM_FEAT);
    let pm = state.pm(PmId(i as u32));
    for (j, numa) in pm.numas.iter().enumerate() {
        let free_cpu = numa.free_cpu() as f32;
        let free_mem = numa.free_mem() as f32;
        let frag = numa.cpu_fragment(frag_cores) as f32;
        let fr = if free_cpu > 0.0 { frag / free_cpu } else { 0.0 };
        let base = j * 4;
        out[base] = free_cpu;
        out[base + 1] = free_mem;
        out[base + 2] = fr;
        out[base + 3] = frag;
    }
}

/// Writes the *raw* feature row of VM `k` into `out` (length [`VM_FEAT`]).
/// `host_raw` must be the raw feature row of the VM's current host PM.
pub(crate) fn fill_vm_row(
    state: &ClusterState,
    k: usize,
    frag_cores: u32,
    host_raw: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), VM_FEAT);
    debug_assert_eq!(host_raw.len(), PM_FEAT);
    let vm = state.vm(crate::types::VmId(k as u32));
    let pl = state.placement(vm.id);
    out[..6].fill(0.0);
    // Requested CPU/memory per NUMA with zero padding (paper: "If a
    // single NUMA is requested, zeros are used as placeholders").
    match pl.numa {
        NumaPlacement::Single(j) => {
            let j = j as usize;
            out[j] = vm.cpu_per_numa() as f32;
            out[2 + j] = vm.mem_per_numa() as f32;
        }
        NumaPlacement::Double => {
            for j in 0..NUMA_PER_PM {
                out[j] = vm.cpu_per_numa() as f32;
                out[2 + j] = vm.mem_per_numa() as f32;
            }
        }
    }
    // Fragment-size delta on each source NUMA if this VM departed:
    // (free + demand) % X − free % X, per NUMA it occupies.
    let pm = state.pm(pl.pm);
    for j in 0..NUMA_PER_PM {
        if pl.numa.uses_numa(j) {
            let free = pm.numas[j].free_cpu();
            let after = (free + vm.cpu_per_numa()) % frag_cores;
            let now = free % frag_cores;
            out[4 + j] = after as f32 - now as f32;
        }
    }
    // Source PM features (raw; normalized jointly with the other VM rows).
    out[6..6 + PM_FEAT].copy_from_slice(host_raw);
}

/// In-place per-column min-max normalization of a row-major matrix.
/// Columns with zero range become all-zeros (constant features carry no
/// information and must not divide by zero).
fn min_max_normalize(data: &mut [f32], width: usize) {
    if data.is_empty() {
        return;
    }
    let rows = data.len() / width;
    for col in 0..width {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for r in 0..rows {
            let v = data[r * width + col];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let range = hi - lo;
        for r in 0..rows {
            let v = &mut data[r * width + col];
            *v = if range > 0.0 { (*v - lo) / range } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Placement, Pm, Vm};
    use crate::types::{NumaPolicy, VmId};

    fn state() -> ClusterState {
        let pms = vec![
            Pm::symmetric(PmId(0), 44, 128),
            Pm::symmetric(PmId(1), 44, 128),
            Pm::symmetric(PmId(2), 64, 256),
        ];
        let vms = vec![
            Vm { id: VmId(0), cpu: 16, mem: 32, numa: NumaPolicy::Single },
            Vm { id: VmId(1), cpu: 64, mem: 128, numa: NumaPolicy::Double },
            Vm { id: VmId(2), cpu: 2, mem: 4, numa: NumaPolicy::Single },
        ];
        let placements = vec![
            Placement { pm: PmId(0), numa: NumaPlacement::Single(0) },
            Placement { pm: PmId(1), numa: NumaPlacement::Double },
            Placement { pm: PmId(0), numa: NumaPlacement::Single(0) },
        ];
        ClusterState::new(pms, vms, placements).unwrap()
    }

    #[test]
    fn shapes_match_constants() {
        let obs = Observation::extract(&state(), 16);
        assert_eq!(obs.pm_feats.len(), 3 * PM_FEAT);
        assert_eq!(obs.vm_feats.len(), 3 * VM_FEAT);
        assert_eq!(obs.vm_src_pm, vec![0, 1, 0]);
        assert_eq!(VM_FEAT, 14, "paper specifies 14 VM features");
        assert_eq!(PM_FEAT, 8, "paper specifies 4 features x 2 NUMAs");
    }

    #[test]
    fn features_are_normalized() {
        let obs = Observation::extract(&state(), 16);
        for &v in obs.pm_feats.iter().chain(obs.vm_feats.iter()) {
            assert!((0.0..=1.0).contains(&v), "feature {v} outside [0,1]");
            assert!(v.is_finite());
        }
    }

    #[test]
    fn single_numa_padding_is_zero() {
        let s = state();
        // Pre-normalization check on raw construction: re-extract with a
        // cluster where ranges keep zeros at zero (min is 0 for cpu cols).
        let obs = Observation::extract(&s, 16);
        // VM0 occupies NUMA 0, so its NUMA-1 request columns must be the
        // column minimum (0 raw). VM1 is double so both are positive.
        let row0 = obs.vm_row(0);
        let row1 = obs.vm_row(1);
        assert_eq!(row0[1], 0.0, "unused NUMA cpu slot should normalize to 0");
        assert_eq!(row0[3], 0.0, "unused NUMA mem slot should normalize to 0");
        assert!(row1[0] > 0.0 && row1[1] > 0.0);
    }

    #[test]
    fn src_pm_features_are_embedded() {
        let obs = Observation::extract(&state(), 16);
        // VM2 lives on PM0: its trailing 8 features equal PM0's row.
        let row = obs.vm_row(2);
        // VM features and PM features are normalized over different entity
        // sets, so compare against a fresh un-normalized extraction instead:
        // here we simply assert the tree index is right and the slot count.
        assert_eq!(row.len(), VM_FEAT);
        assert_eq!(obs.vm_src_pm[2], 0);
    }

    #[test]
    fn constant_columns_become_zero() {
        // One PM, one VM: every column has zero range.
        let pms = vec![Pm::symmetric(PmId(0), 44, 128)];
        let vms = vec![Vm { id: VmId(0), cpu: 4, mem: 8, numa: NumaPolicy::Single }];
        let placements = vec![Placement { pm: PmId(0), numa: NumaPlacement::Single(0) }];
        let s = ClusterState::new(pms, vms, placements).unwrap();
        let obs = Observation::extract(&s, 16);
        assert!(obs.pm_feats.iter().all(|&v| v == 0.0));
        assert!(obs.vm_feats.iter().all(|&v| v == 0.0));
    }
}
