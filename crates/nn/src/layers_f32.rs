//! The f32 layers under their pre-`Scalar` names.
//!
//! Aliases only: the frozen `benchmark/` package builds its f32 probe
//! layers as `vmr_nn::layers_f32::{FeedForward32, MultiHeadAttention32}`
//! `::from_f64(..)`. This module goes when ROADMAP 1b lets that package
//! change; new code writes `Linear<f32>`, `MultiHeadAttention<f32>`, ….

/// [`crate::layers::MultiHeadAttention`] with f32 weights.
pub type MultiHeadAttention32 = crate::layers::MultiHeadAttention<f32>;
/// [`crate::layers::FeedForward`] with f32 weights.
pub type FeedForward32 = crate::layers::FeedForward<f32>;

#[cfg(test)]
mod tests;
