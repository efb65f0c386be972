//! Decima-like learning baseline (§5.1; Mao et al., SIGCOMM '19).
//!
//! Decima decomposes scheduling decisions into a two-dimensional action —
//! which entity to act on, and a *random subset* of destinations to choose
//! from — using a graph neural network extractor. Mapped onto VM
//! rescheduling, that is: stage 1 picks the VM, stage 2 picks a PM from a
//! uniformly random subset of the legal PMs (contrast with VMR2L, which
//! masks by legality alone and lets attention learn the rest). The
//! extractor is the vanilla (non-tree) attention encoder.
//!
//! Implementation: a [`Vmr2lAgent`] with `ExtractorKind::VanillaAttention`
//! and `pm_subset_size` enabled — the random-subset logic lives in the
//! agent so training and evaluation stay consistent.

use rand::Rng;

use vmr_core::agent::Vmr2lAgent;
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::model::Vmr2lModel;

/// Default destination-subset size used by the Decima baseline.
pub const DEFAULT_PM_SUBSET: usize = 8;

/// Builds the Decima-like agent: vanilla-attention extractor + random PM
/// subsetting, trained with the same PPO loop as VMR2L.
pub fn decima_agent(
    cfg: ModelConfig,
    pm_subset: usize,
    rng: &mut impl Rng,
) -> Vmr2lAgent<Vmr2lModel> {
    let model = Vmr2lModel::new(cfg, ExtractorKind::VanillaAttention, rng);
    Vmr2lAgent::new(model, ActionMode::TwoStage).with_pm_subset(pm_subset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vmr_core::agent::{DecideOpts, InferCtx};
    use vmr_sim::dataset::{generate_mapping, ClusterConfig};
    use vmr_sim::env::ReschedEnv;
    use vmr_sim::objective::Objective;

    #[test]
    fn decima_agent_acts_legally_within_subset() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 };
        let agent = decima_agent(cfg, 2, &mut rng);
        assert_eq!(agent.pm_subset_size, Some(2));
        let state = generate_mapping(&ClusterConfig::tiny(), 61).unwrap();
        let mut env = ReschedEnv::unconstrained(state, Objective::default(), 4).unwrap();
        for seed in 0..5u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let d = agent
                .decide_in(&mut env, &mut InferCtx::new(), &mut r, &DecideOpts::default())
                .unwrap()
                .unwrap();
            assert!(env.action_legal(d.action).is_ok());
            // The stored stage-2 mask never exceeds the subset size.
            let kept = d.stored_obs.pm_mask.iter().filter(|&&b| b).count();
            assert!(kept <= 2, "subset mask too large: {kept}");
        }
    }

    #[test]
    fn subset_randomizes_across_seeds() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 };
        let agent = decima_agent(cfg, 1, &mut rng);
        let state = generate_mapping(&ClusterConfig::tiny(), 62).unwrap();
        let mut env = ReschedEnv::unconstrained(state, Objective::default(), 4).unwrap();
        let mut ictx = InferCtx::new();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..12u64 {
            let mut r = StdRng::seed_from_u64(seed);
            if let Some(d) = agent.act(&mut env, &mut ictx, &mut r, &DecideOpts::default()).unwrap()
            {
                seen.insert(d.action.pm);
            }
        }
        assert!(seen.len() > 1, "random subsetting should vary destinations");
    }
}
