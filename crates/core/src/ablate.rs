//! Ablation feature extractor: the flat-MLP policy of Fig. 10
//! ("w/o Attention").
//!
//! The MLP concatenates the features of *all* PMs and VMs into one long
//! vector, so its parameter count scales linearly with the cluster size —
//! the very property the paper's shared embedding networks eliminate. The
//! paper shows this variant fails to converge; we reproduce it faithfully
//! so the comparison can be regenerated.

use rand::Rng;

use vmr_nn::graph::{Graph, Var};
use vmr_nn::infer::{FVar, FwdCtx};
use vmr_nn::layers::{Linear, Mlp, Module, QueryKeys};
use vmr_nn::tensor::Tensor;
use vmr_sim::obs::{PM_FEAT, VM_FEAT};

use crate::agent::{ActPolicy, Policy};
use crate::features::{FeatureTensors, TreeIndex};
use crate::model::{Stage1Fwd, Stage1Out};

/// Flat-MLP policy sized for a maximum cluster shape.
///
/// States smaller than the maximum are zero-padded; larger states are
/// rejected (an inherent limitation of the architecture that the paper
/// calls out: "this approach cannot handle an arbitrary number of VMs").
#[derive(Debug, Clone)]
pub struct MlpPolicy {
    max_vms: usize,
    max_pms: usize,
    trunk: Mlp,
    vm_out: Linear,
    pm_out: Linear,
    value_out: Linear,
}

impl MlpPolicy {
    /// Builds the MLP policy for clusters up to `max_vms`/`max_pms`.
    pub fn new(max_vms: usize, max_pms: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        let input = max_vms * VM_FEAT + max_pms * PM_FEAT;
        MlpPolicy {
            max_vms,
            max_pms,
            trunk: Mlp::new("mlp.trunk", &[input, hidden, hidden], true, rng),
            vm_out: Linear::new("mlp.vm_out", hidden, max_vms, rng),
            pm_out: Linear::new("mlp.pm_out", hidden + VM_FEAT, max_pms, rng),
            value_out: Linear::new("mlp.value_out", hidden, 1, rng),
        }
    }

    /// Maximum VM count this instance supports.
    pub fn max_vms(&self) -> usize {
        self.max_vms
    }

    /// Maximum PM count this instance supports.
    pub fn max_pms(&self) -> usize {
        self.max_pms
    }

    fn flat_input(&self, feats: &FeatureTensors) -> Tensor {
        assert!(
            feats.num_vms <= self.max_vms && feats.num_pms <= self.max_pms,
            "state exceeds the MLP's fixed input size ({}/{} vs {}/{})",
            feats.num_vms,
            feats.num_pms,
            self.max_vms,
            self.max_pms
        );
        let mut data = vec![0.0f64; self.max_vms * VM_FEAT + self.max_pms * PM_FEAT];
        data[..feats.num_vms * VM_FEAT].copy_from_slice(feats.vm.data());
        let pm_base = self.max_vms * VM_FEAT;
        data[pm_base..pm_base + feats.num_pms * PM_FEAT].copy_from_slice(feats.pm.data());
        Tensor::from_vec(1, data.len(), data)
    }
}

impl Module for MlpPolicy {
    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        self.trunk.visit_params(f);
        self.vm_out.visit_params(f);
        self.pm_out.visit_params(f);
        self.value_out.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.trunk.visit_params_mut(f);
        self.vm_out.visit_params_mut(f);
        self.pm_out.visit_params_mut(f);
        self.value_out.visit_params_mut(f);
    }
}

impl Policy for MlpPolicy {
    fn stage1(&self, g: &mut Graph, feats: &FeatureTensors) -> Stage1Out {
        let x = g.constant(self.flat_input(feats));
        let h = self.trunk.forward(g, x); // 1 × hidden
        let all_vm_logits = self.vm_out.forward(g, h); // 1 × max_vms
        let vm_logits = g.slice_cols(all_vm_logits, 0, feats.num_vms);
        let value = self.value_out.forward(g, h);
        // Interface note: the MLP has no per-entity embeddings; the trunk
        // activation is stashed in the `pm_embs` slot (stage2 reads it) and
        // the remaining slots hold inert constants of the right shapes.
        let dummy_vm = g.constant(Tensor::zeros(feats.num_vms, 1));
        let dummy_cross = g.constant(Tensor::zeros(feats.num_vms, feats.num_pms));
        Stage1Out { vm_logits, pm_embs: h, vm_embs: dummy_vm, cross_probs: dummy_cross, value }
    }

    fn stage2(&self, g: &mut Graph, s1: &Stage1Out, feats: &FeatureTensors, vm_idx: usize) -> Var {
        let vm_row = g.constant(feats.vm.select_rows(&[vm_idx]));
        let joined = g.hcat(s1.pm_embs, vm_row); // trunk activation ++ VM feats
        let all = self.pm_out.forward(g, joined); // 1 × max_pms
        g.slice_cols(all, 0, feats.num_pms)
    }

    fn pm_logits_generic(&self, g: &mut Graph, s1: &Stage1Out, feats: &FeatureTensors) -> Var {
        // No per-VM conditioning available; reuse stage-2 with VM 0's
        // features as a neutral query.
        self.stage2(g, s1, feats, 0)
    }
}

impl ActPolicy for MlpPolicy {
    type S = f64;

    fn stage1_fwd(&self, ctx: &mut FwdCtx, feats: &FeatureTensors, _tree: &TreeIndex) -> Stage1Fwd {
        assert!(
            feats.num_vms <= self.max_vms && feats.num_pms <= self.max_pms,
            "state exceeds the MLP's fixed input size ({}/{} vs {}/{})",
            feats.num_vms,
            feats.num_pms,
            self.max_vms,
            self.max_pms
        );
        let x = ctx.full(1, self.max_vms * VM_FEAT + self.max_pms * PM_FEAT, 0.0);
        {
            let data = ctx.value_mut(x).data_mut();
            data[..feats.num_vms * VM_FEAT].copy_from_slice(feats.vm.data());
            let pm_base = self.max_vms * VM_FEAT;
            data[pm_base..pm_base + feats.num_pms * PM_FEAT].copy_from_slice(feats.pm.data());
        }
        let h = self.trunk.fwd(ctx, x);
        let all_vm_logits = self.vm_out.fwd(ctx, h);
        let vm_logits = ctx.slice_cols(all_vm_logits, 0, feats.num_vms);
        let value = self.value_out.fwd(ctx, h);
        // Same interface contract as the Graph path: the trunk activation
        // rides in the `pm_embs` slot, the rest are inert placeholders.
        let dummy_vm = ctx.full(feats.num_vms, 1, 0.0);
        let cross = QueryKeys { q: dummy_vm, k: h };
        Stage1Fwd { vm_logits, pm_embs: h, vm_embs: dummy_vm, cross, value }
    }

    fn stage2_fwd(
        &self,
        ctx: &mut FwdCtx,
        s1: &Stage1Fwd,
        feats: &FeatureTensors,
        vm_idx: usize,
    ) -> FVar {
        let vm_row = ctx.input_row(feats.vm.row_slice(vm_idx));
        let joined = ctx.hcat(s1.pm_embs, vm_row);
        let all = self.pm_out.fwd(ctx, joined);
        ctx.slice_cols(all, 0, feats.num_pms)
    }

    fn pm_logits_generic_fwd(
        &self,
        ctx: &mut FwdCtx,
        s1: &Stage1Fwd,
        feats: &FeatureTensors,
    ) -> FVar {
        self.stage2_fwd(ctx, s1, feats, 0)
    }

    fn cross_probs_fwd(&self, ctx: &mut FwdCtx, _s1: &Stage1Fwd, feats: &FeatureTensors) -> FVar {
        // The Graph path's map is a zero constant: no attention, no scores.
        ctx.full(feats.num_vms, feats.num_pms, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig};
    use vmr_sim::obs::Observation;

    fn feats() -> FeatureTensors {
        let state = generate_mapping(&ClusterConfig::tiny(), 13).unwrap();
        let obs = Observation::extract(&state, 16);
        FeatureTensors::from_observation(&obs)
    }

    #[test]
    fn stage_shapes_match_cluster() {
        let f = feats();
        let mut rng = StdRng::seed_from_u64(1);
        let p = MlpPolicy::new(f.num_vms + 10, f.num_pms + 2, 32, &mut rng);
        let mut g = Graph::new();
        let s1 = p.stage1(&mut g, &f);
        assert_eq!(g.value(s1.vm_logits).cols(), f.num_vms);
        let l2 = p.stage2(&mut g, &s1, &f, 0);
        assert_eq!(g.value(l2).cols(), f.num_pms);
    }

    #[test]
    fn params_scale_with_cluster_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let small = MlpPolicy::new(50, 10, 32, &mut rng);
        let large = MlpPolicy::new(200, 40, 32, &mut rng);
        assert!(
            large.num_params() > 2 * small.num_params(),
            "MLP params must grow with the cluster (the paper's point)"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the MLP's fixed input size")]
    fn oversized_state_rejected() {
        let f = feats();
        let mut rng = StdRng::seed_from_u64(3);
        let p = MlpPolicy::new(1, 1, 8, &mut rng);
        let mut g = Graph::new();
        let _ = p.stage1(&mut g, &f);
    }

    #[test]
    fn gradients_flow_through_both_stages() {
        let f = feats();
        let mut rng = StdRng::seed_from_u64(4);
        let p = MlpPolicy::new(f.num_vms, f.num_pms, 16, &mut rng);
        let mut g = Graph::new();
        let s1 = p.stage1(&mut g, &f);
        let l2 = p.stage2(&mut g, &s1, &f, 1);
        let cat = g.hcat(s1.vm_logits, l2);
        let sq = g.square(cat);
        let loss = g.mean_all(sq);
        g.backward(loss);
        let grads = g.param_grads();
        for name in ["mlp.trunk.l0.w", "mlp.vm_out.w", "mlp.pm_out.w"] {
            assert!(grads[name].norm() > 0.0, "zero grad for {name}");
        }
    }
}
