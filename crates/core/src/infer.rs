//! Shared read-only inference handles for serving.
//!
//! A trained VMR2L policy is pure data: [`Vmr2lAgent::act`] takes `&self`
//! and runs tape-free in an arena the *caller* owns
//! ([`crate::agent::InferCtx`], one per plan), so one checkpoint can
//! serve arbitrarily many worker threads without locks. [`SharedAgent`]
//! packages that contract — `Arc`s around one immutable agent per
//! precision, cheap to clone into every connection handler — together
//! with the checkpoint-loading logic the CLI and the `vmr-serve` daemon
//! share.

use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vmr_nn::checkpoint::Checkpoint;

use crate::agent::Vmr2lAgent;
use crate::config::{ActionMode, ExtractorKind, ModelConfig};
use crate::model::Vmr2lModel;

/// Loads a default-architecture VMR2L agent from a checkpoint file.
///
/// The stored parameter set disambiguates the extractor variant (sparse
/// checkpoints carry `block*.local.*` weights); both variants are tried.
pub fn load_checkpoint_agent(path: impl AsRef<Path>) -> Result<Vmr2lAgent<Vmr2lModel>, String> {
    let path = path.as_ref();
    let ckpt =
        Checkpoint::load(path).map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    restore_default_agent(&ckpt)
        .ok_or_else(|| format!("{} does not match the default VMR2L architecture", path.display()))
}

/// Restores a default-architecture agent from an in-memory checkpoint.
pub fn restore_default_agent(ckpt: &Checkpoint) -> Option<Vmr2lAgent<Vmr2lModel>> {
    for kind in [ExtractorKind::SparseAttention, ExtractorKind::VanillaAttention] {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Vmr2lModel::new(ModelConfig::default(), kind, &mut rng);
        if ckpt.restore(&mut model).is_ok() {
            return Some(Vmr2lAgent::new(model, ActionMode::TwoStage));
        }
    }
    None
}

/// A read-only, thread-shareable handle to a trained agent, in both
/// precisions.
///
/// Cloning is two `Arc` bumps; the wrapped agents are immutable, so
/// worker threads can run [`Vmr2lAgent::act`] concurrently, each on its
/// own [`crate::agent::InferCtx`]. Precision is the agent's type: a
/// caller matches [`crate::config::PrecisionConfig`] once, outside its
/// step loop, to pick [`SharedAgent::agent`] or [`SharedAgent::agent32`],
/// and runs the same generic code on either. This is the inference
/// handle `vmr-serve` hands to its connection pool.
#[derive(Debug, Clone)]
pub struct SharedAgent {
    agent: Arc<Vmr2lAgent<Vmr2lModel>>,
    /// The same agent over weights cast to f32 once at construction.
    agent32: Arc<Vmr2lAgent<Vmr2lModel<f32>>>,
}

impl SharedAgent {
    /// Wraps an agent for shared read-only use. Also builds its f32
    /// twin (weights cast once), so both precision tiers are ready to
    /// serve.
    pub fn new(agent: Vmr2lAgent<Vmr2lModel>) -> Self {
        let agent32 = Arc::new(agent.cast());
        SharedAgent { agent: Arc::new(agent), agent32 }
    }

    /// Loads a checkpoint into a shared handle (see
    /// [`load_checkpoint_agent`]).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        load_checkpoint_agent(path).map(Self::new)
    }

    /// The f64 agent ([`crate::config::PrecisionConfig::Exact64`]): the
    /// one that was trained and checkpointed.
    pub fn agent(&self) -> &Vmr2lAgent<Vmr2lModel> {
        &self.agent
    }

    /// The f32 agent ([`crate::config::PrecisionConfig::Fast32`]).
    pub fn agent32(&self) -> &Vmr2lAgent<Vmr2lModel<f32>> {
        &self.agent32
    }

    /// The f32 agent's model, for the frozen `benchmark/` package, which
    /// pairs it with the f64 agent (`act_core_f32`); goes with ROADMAP
    /// 1(b). New code takes [`SharedAgent::agent32`].
    pub fn model32(&self) -> &Vmr2lModel<f32> {
        &self.agent32.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_checkpoint(kind: ExtractorKind) -> Checkpoint {
        let mut rng = StdRng::seed_from_u64(7);
        let model = Vmr2lModel::new(ModelConfig::default(), kind, &mut rng);
        Checkpoint::capture(&model)
    }

    #[test]
    fn restore_detects_extractor_kind() {
        let sparse = restore_default_agent(&tiny_checkpoint(ExtractorKind::SparseAttention))
            .expect("sparse restores");
        assert_eq!(sparse.policy.extractor, ExtractorKind::SparseAttention);
        let vanilla = restore_default_agent(&tiny_checkpoint(ExtractorKind::VanillaAttention))
            .expect("vanilla restores");
        assert_eq!(vanilla.policy.extractor, ExtractorKind::VanillaAttention);
        assert!(restore_default_agent(&Checkpoint::default()).is_none());
    }

    #[test]
    fn shared_agent_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedAgent>();
        let handle = SharedAgent::new(
            restore_default_agent(&tiny_checkpoint(ExtractorKind::SparseAttention)).unwrap(),
        );
        let clone = handle.clone();
        assert!(std::ptr::eq(handle.agent(), clone.agent()), "clones share one policy");
    }

    #[test]
    fn shared_agent_caches_f32_mirror() {
        let handle = SharedAgent::new(
            restore_default_agent(&tiny_checkpoint(ExtractorKind::SparseAttention)).unwrap(),
        );
        let clone = handle.clone();
        assert!(std::ptr::eq(handle.agent32(), clone.agent32()), "clones share one f32 cast");
        assert!(std::ptr::eq(handle.model32(), &handle.agent32().policy));
        assert_eq!(handle.agent32().policy.cfg, handle.agent().policy.cfg);
        assert_eq!(handle.agent32().mode, handle.agent().mode);
    }

    #[test]
    fn load_reports_missing_file() {
        let err = load_checkpoint_agent("/nonexistent/agent.json").unwrap_err();
        assert!(err.contains("cannot load"));
    }
}
