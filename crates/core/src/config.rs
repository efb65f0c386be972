//! Model and agent configuration.

use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of the VMR2L model.
///
/// Parameter count is independent of the number of VMs and PMs — the
/// paper's key scalability property — because all weights are shared
/// across entities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Embedding width.
    pub d_model: usize,
    /// Attention heads (`d_model % heads == 0`).
    pub heads: usize,
    /// Number of sparse-attention blocks.
    pub blocks: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Critic MLP hidden width.
    pub critic_hidden: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        // Scaled for CPU training (README, *Experiments*: run modes); the paper
        // trains larger dims on GPU but the architecture is identical.
        ModelConfig { d_model: 24, heads: 2, blocks: 2, d_ff: 48, critic_hidden: 32 }
    }
}

/// How actions are generated — the paper's two-stage framework and its
/// §5.4 ablation baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionMode {
    /// Stage 1 picks the VM, stage 2 masks illegal PMs and picks the
    /// destination (the paper's contribution).
    TwoStage,
    /// Two-stage networks but *no* stage-2 legality mask; illegal actions
    /// reach the environment and are punished with a −5 reward
    /// ("Penalty" in Fig. 13).
    Penalty,
    /// Joint `M × N` action space with illegal pairs zeroed
    /// ("Full-Mask" in Fig. 13).
    FullMask,
}

/// Feature-extractor variants for the §5.3 ablation (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtractorKind {
    /// Sparse tree-attention (the paper's contribution).
    SparseAttention,
    /// Vanilla transformer without the tree-local stage.
    VanillaAttention,
    /// Flat MLP over concatenated features (parameters scale with cluster
    /// size; fails to converge in the paper).
    Mlp,
}

/// Numeric precision of the inference forward pass.
///
/// Training always runs the f64 engines (autodiff gradients need the
/// headroom, and the `Graph`/`FwdCtx` bit-identity contract is part of
/// the PPO correctness story). Acting, evaluation, and serving may drop
/// to the f32 fast path, whose equivalence with `Exact64` is a
/// *tolerance* contract — per-kernel ULP bounds plus an end-to-end plan
/// equivalence gate — rather than bit-identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecisionConfig {
    /// f64 everywhere; acting is bit-identical to the training engines.
    #[default]
    Exact64,
    /// f32 weights and activations on the SIMD-friendly kernel twins;
    /// decisions are tolerance-equivalent, not bit-identical.
    Fast32,
}

impl PrecisionConfig {
    /// Parses the CLI / wire spelling (`"f64"` / `"f32"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f64" | "exact64" => Some(PrecisionConfig::Exact64),
            "f32" | "fast32" => Some(PrecisionConfig::Fast32),
            _ => None,
        }
    }

    /// The canonical CLI / wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            PrecisionConfig::Exact64 => "f64",
            PrecisionConfig::Fast32 => "f32",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_consistent() {
        let c = ModelConfig::default();
        assert_eq!(c.d_model % c.heads, 0);
        assert!(c.blocks >= 1);
    }

    #[test]
    fn serde_roundtrip() {
        let c = ModelConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: ModelConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
        let m = ActionMode::TwoStage;
        let j = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<ActionMode>(&j).unwrap(), m);
        let p = PrecisionConfig::Fast32;
        let j = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<PrecisionConfig>(&j).unwrap(), p);
    }

    #[test]
    fn precision_spellings_roundtrip() {
        for p in [PrecisionConfig::Exact64, PrecisionConfig::Fast32] {
            assert_eq!(PrecisionConfig::parse(p.as_str()), Some(p));
        }
        assert_eq!(PrecisionConfig::default(), PrecisionConfig::Exact64);
        assert_eq!(PrecisionConfig::parse("f16"), None);
    }
}
