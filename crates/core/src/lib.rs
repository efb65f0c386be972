//! # vmr-core — VMR2L: deep RL for VM rescheduling
//!
//! The paper's primary contribution, reproduced in Rust:
//!
//! * [`model`] — shared per-entity embedding networks + sparse
//!   tree-attention blocks (local / self / cross stages), the two-stage
//!   actors, and the critic. Parameter count is independent of cluster
//!   size.
//! * [`agent`] — two-stage action generation with legality masking, plus
//!   the Penalty and Full-Mask ablations of §5.4.
//! * [`train`] — CleanRL-style PPO training against the deterministic
//!   simulator.
//! * [`eval`] — risk-seeking evaluation: sample many trajectories, deploy
//!   the best, with quantile action-thresholding (§3.4).
//! * [`ablate`] — the flat-MLP extractor baseline of Fig. 10.
//!
//! ```no_run
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use vmr_core::agent::Vmr2lAgent;
//! use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
//! use vmr_core::model::Vmr2lModel;
//! use vmr_core::train::{TrainConfig, Trainer};
//! use vmr_sim::dataset::{Dataset, ClusterConfig};
//!
//! let ds = Dataset::generate(&ClusterConfig::small_train(), 12, 0).unwrap();
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
//! let agent = Vmr2lAgent::new(model, ActionMode::TwoStage);
//! let mut trainer = Trainer::new(
//!     agent,
//!     ds.train_mappings().cloned().collect(),
//!     ds.test_mappings().cloned().collect(),
//!     TrainConfig::default(),
//! ).unwrap();
//! trainer.train(|s| eprintln!("update {} reward {:.4}", s.update, s.mean_reward)).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod ablate;
pub mod agent;
pub mod config;
pub mod eval;
pub mod features;
pub mod infer;
pub mod model;
pub mod train;

pub use agent::{ActPolicy, DecideOpts, Policy, StepDecision, Vmr2lAgent};
pub use config::{ActionMode, ExtractorKind, ModelConfig, PrecisionConfig};
pub use eval::{greedy_eval, risk_seeking_eval, RiskSeekingConfig, RiskSeekingOutcome};
pub use infer::{load_checkpoint_agent, SharedAgent};
pub use model::Vmr2lModel;
pub use train::{TrainConfig, TrainStats, Trainer};
