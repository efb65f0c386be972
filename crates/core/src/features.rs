//! Bridging simulator observations into model tensors and masks.
//!
//! The tree structure (which VMs live on which PM) becomes the additive
//! attention mask of the sparse local-attention stage: entity order is
//! `[PM_0 … PM_{N−1}, VM_0 … VM_{M−1}]`, and positions attend to each
//! other iff they belong to the same PM-tree (the PM is the root, its
//! hosted VMs the leaves; every entity also attends to itself).

use vmr_nn::graph::MASK_OFF;
use vmr_nn::infer::TreeGroups;
use vmr_nn::tensor::Tensor;
use vmr_sim::obs::{Observation, PM_FEAT, VM_FEAT};

/// Tensors and metadata for one state.
#[derive(Debug, Clone)]
pub struct FeatureTensors {
    /// `N × PM_FEAT` PM features.
    pub pm: Tensor,
    /// `M × VM_FEAT` VM features.
    pub vm: Tensor,
    /// Host PM index of each VM.
    pub vm_src_pm: Vec<u32>,
    /// Number of PMs.
    pub num_pms: usize,
    /// Number of VMs.
    pub num_vms: usize,
}

impl Default for FeatureTensors {
    fn default() -> Self {
        Self::empty()
    }
}

impl FeatureTensors {
    /// An empty instance, ready to be filled by
    /// [`FeatureTensors::refill_from`] (the zero-allocation path).
    pub fn empty() -> Self {
        FeatureTensors {
            pm: Tensor::zeros(0, PM_FEAT),
            vm: Tensor::zeros(0, VM_FEAT),
            vm_src_pm: Vec::new(),
            num_pms: 0,
            num_vms: 0,
        }
    }

    /// Converts a simulator observation (f32) into model tensors (f64).
    pub fn from_observation(obs: &Observation) -> Self {
        let mut out = Self::empty();
        out.refill_from(obs);
        out
    }

    /// Overwrites this instance from an observation, reusing the existing
    /// buffers — no allocation once the buffers have grown to the cluster
    /// size. This is the per-decision path: the agent borrows the
    /// environment's cached [`Observation`] and refills instead of
    /// rebuilding.
    pub fn refill_from(&mut self, obs: &Observation) {
        self.pm.reuse_as(obs.num_pms, PM_FEAT);
        for (dst, &src) in self.pm.data_mut().iter_mut().zip(&obs.pm_feats) {
            *dst = src as f64;
        }
        self.vm.reuse_as(obs.num_vms, VM_FEAT);
        for (dst, &src) in self.vm.data_mut().iter_mut().zip(&obs.vm_feats) {
            *dst = src as f64;
        }
        self.vm_src_pm.clear();
        self.vm_src_pm.extend_from_slice(&obs.vm_src_pm);
        self.num_pms = obs.num_pms;
        self.num_vms = obs.num_vms;
    }

    /// Builds the `(N+M) × (N+M)` additive tree mask for sparse local
    /// attention: entry `(a, b)` is 0 when `a` and `b` share a tree and
    /// `MASK_OFF` otherwise.
    pub fn tree_mask(&self) -> Tensor {
        let n = self.num_pms;
        let m = self.num_vms;
        let total = n + m;
        let mut mask = Tensor::full(total, total, MASK_OFF);
        // Self-attention always allowed.
        for a in 0..total {
            mask.set(a, a, 0.0);
        }
        // Group VMs by host PM.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, &pm) in self.vm_src_pm.iter().enumerate() {
            members[pm as usize].push(n + k);
        }
        for (pm_idx, group) in members.iter().enumerate() {
            // PM ↔ its VMs.
            for &v in group {
                mask.set(pm_idx, v, 0.0);
                mask.set(v, pm_idx, 0.0);
            }
            // VM ↔ VM within the tree.
            for (i, &a) in group.iter().enumerate() {
                for &b in group.iter().skip(i + 1) {
                    mask.set(a, b, 0.0);
                    mask.set(b, a, 0.0);
                }
            }
        }
        mask
    }
}

/// Converts a boolean legality mask into a `1 × n` additive mask row.
pub fn bool_mask_row(mask: &[bool]) -> Tensor {
    Tensor::row(mask.iter().map(|&ok| if ok { 0.0 } else { MASK_OFF }).collect())
}

/// The PM-tree topology as reusable CSR groups for block-sparse local
/// attention: group `p` = `[PM_p, its hosted VMs…]`, all indices into the
/// combined `[PM_0…PM_{N−1}, VM_0…VM_{M−1}]` sequence, ascending. The
/// clique union equals [`FeatureTensors::tree_mask`] — the dense mask is
/// never materialized on the inference path.
#[derive(Debug, Clone, Default)]
pub struct TreeIndex {
    /// CSR groups handed to [`vmr_nn::layers::MultiHeadAttention::fwd_tree`].
    pub groups: TreeGroups,
    /// Scratch: per-PM member cursor.
    cursors: Vec<usize>,
}

impl TreeIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the groups from the current featurization, reusing the
    /// existing buffers (no allocation at steady state).
    pub fn rebuild(&mut self, feats: &FeatureTensors) {
        let n = feats.num_pms;
        let m = feats.num_vms;
        let starts = &mut self.groups.starts;
        starts.clear();
        starts.resize(n + 1, 0);
        // Group sizes: the PM itself plus its hosted VMs.
        for &pm in &feats.vm_src_pm {
            starts[pm as usize + 1] += 1;
        }
        let mut acc = 0;
        for (p, s) in starts.iter_mut().enumerate() {
            if p > 0 {
                acc += *s + 1; // previous group: its VMs plus the PM itself
            }
            *s = acc;
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&starts[..n]);
        let members = &mut self.groups.members;
        members.clear();
        members.resize(n + m, 0);
        // The PM leads its group; VMs follow in ascending index order, so
        // each group's member list is strictly ascending.
        for (p, cursor) in self.cursors.iter_mut().enumerate() {
            members[*cursor] = p;
            *cursor += 1;
        }
        for (k, &pm) in feats.vm_src_pm.iter().enumerate() {
            let cursor = &mut self.cursors[pm as usize];
            members[*cursor] = n + k;
            *cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig};
    use vmr_sim::obs::Observation;

    fn feats() -> FeatureTensors {
        let state = generate_mapping(&ClusterConfig::tiny(), 11).unwrap();
        let obs = Observation::extract(&state, 16);
        FeatureTensors::from_observation(&obs)
    }

    #[test]
    fn shapes_match_observation() {
        let f = feats();
        assert_eq!(f.pm.rows(), f.num_pms);
        assert_eq!(f.pm.cols(), PM_FEAT);
        assert_eq!(f.vm.rows(), f.num_vms);
        assert_eq!(f.vm.cols(), VM_FEAT);
        assert_eq!(f.vm_src_pm.len(), f.num_vms);
    }

    #[test]
    fn tree_mask_allows_same_tree_only() {
        let f = feats();
        let mask = f.tree_mask();
        let n = f.num_pms;
        // Every VM attends to its host PM and itself.
        for (k, &pm) in f.vm_src_pm.iter().enumerate() {
            assert_eq!(mask.get(n + k, pm as usize), 0.0);
            assert_eq!(mask.get(pm as usize, n + k), 0.0);
            assert_eq!(mask.get(n + k, n + k), 0.0);
        }
        // VMs on different PMs are blocked.
        let mut cross_checked = false;
        'outer: for a in 0..f.num_vms {
            for b in 0..f.num_vms {
                if f.vm_src_pm[a] != f.vm_src_pm[b] {
                    assert_eq!(mask.get(n + a, n + b), MASK_OFF);
                    cross_checked = true;
                    break 'outer;
                }
            }
        }
        assert!(cross_checked, "need at least two distinct host PMs");
        // PM to unrelated PM is blocked (local stage is tree-local).
        assert_eq!(mask.get(0, 1), MASK_OFF);
    }

    #[test]
    fn tree_mask_symmetric() {
        let f = feats();
        let mask = f.tree_mask();
        let t = f.num_pms + f.num_vms;
        for a in 0..t {
            for b in 0..t {
                assert_eq!(mask.get(a, b), mask.get(b, a));
            }
        }
    }

    #[test]
    fn bool_mask_row_maps_values() {
        let row = bool_mask_row(&[true, false, true]);
        assert_eq!(row.get(0, 0), 0.0);
        assert_eq!(row.get(0, 1), MASK_OFF);
        assert_eq!(row.get(0, 2), 0.0);
    }
}
