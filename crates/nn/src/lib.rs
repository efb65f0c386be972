//! # vmr-nn — pure-Rust tensors, autodiff, and transformer layers
//!
//! The neural substrate of the VMR2L reproduction. The paper's models are
//! built in PyTorch; the offline dependency policy of this repo excludes
//! GPU frameworks, so this crate implements the required subset from
//! scratch:
//!
//! * [`tensor::Tensor`] — dense 2-D matrices (`f64` unless said
//!   otherwise),
//! * [`graph::Graph`] — tape-based reverse-mode autodiff whose op set
//!   covers attention, layer-norm, and the PPO loss (every backward rule
//!   is finite-difference checked in tests),
//! * [`layers`] — `Linear`, `LayerNorm`, `Mlp`, `MultiHeadAttention` (with
//!   arbitrary additive masks — sparse tree-attention is a mask), and the
//!   residual feed-forward block,
//! * [`infer::FwdCtx`] + [`kernels`] — the tape-free, allocation-free
//!   inference engine, written once over [`scalar::Scalar`]: `f64` is
//!   bit-identical to the `Graph`, `f32` is the same code cast once
//!   (`FwdCtx<f32>`, `Linear::<f32>::from_f64`, …) — what differs per
//!   precision is listed in [`scalar`] and nowhere else,
//! * [`optim::Adam`] — Adam with bias correction, global-norm clipping,
//!   and prefix freezing (top-layer fine-tuning),
//! * [`lora::LoraLinear`] and [`adapter::Adapter`] — low-rank and
//!   bottleneck adapters for parameter-efficient fine-tuning (the
//!   paper's §7 adaptation paths),
//! * [`checkpoint::Checkpoint`] — named-parameter snapshots,
//! * [`classes::RowClasses`] — the distinct VM rows of a forward step,
//!   so the dense stages run once per distinct row (exactly),
//! * [`tier`] — the SIMD tier the build enabled, the one the CPU offers,
//!   and the start-up guard between them.
//!
//! ## Example: one gradient step
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use vmr_nn::graph::Graph;
//! use vmr_nn::layers::{Linear, Module};
//! use vmr_nn::optim::{Adam, AdamConfig};
//! use vmr_nn::tensor::Tensor;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut layer = Linear::new("probe", 3, 1, &mut rng);
//! let mut opt = Adam::new(AdamConfig::default());
//! let mut g = Graph::new();
//! let x = g.constant(Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
//! let y = layer.forward(&mut g, x);
//! let sq = g.square(y);
//! let loss = g.mean_all(sq);
//! g.backward(loss);
//! let grads = g.param_grads();
//! opt.step(&mut layer, &grads);
//! assert!(layer.num_params() == 4);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod adapter;
pub mod checkpoint;
pub mod classes;
pub mod graph;
pub mod infer;
pub mod infer32;
pub mod kernels;
pub mod layers;
pub mod layers_f32;
pub mod lora;
pub mod optim;
pub mod par;
pub mod scalar;
pub mod tensor;
pub mod tier;

pub use adapter::Adapter;
pub use checkpoint::Checkpoint;
pub use graph::{Graph, Var, MASK_OFF};
pub use infer::{FVar, FwdCtx, TreeGroups};
pub use layers::{
    AttentionOut, FeedForward, LayerNorm, Linear, Mlp, Module, MultiHeadAttention, QueryKeys,
};
pub use lora::LoraLinear;
pub use optim::{Adam, AdamConfig};
pub use scalar::Scalar;
pub use tensor::Tensor;
