//! `FwdCtx<f32>` under its pre-`Scalar` names.
//!
//! Aliases only: the frozen `benchmark/` package spells the f32 arena
//! `vmr_nn::infer32::FwdCtx32`. This module goes when ROADMAP 1b lets
//! that package change; new code writes `FwdCtx<f32>`.

/// The f32 forward arena.
pub type FwdCtx32 = crate::infer::FwdCtx<f32>;

#[cfg(test)]
mod tests;
