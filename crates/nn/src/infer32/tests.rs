//! Tests of the alias spellings `benchmark/` compiles against (kept out
//! of the alias file, which holds `pub type` items only).

use super::FwdCtx32;
use crate::infer::tests as generic;
use crate::tensor::Tensor;

#[test]
fn arena_reuses_slots_across_resets() {
    generic::arena_reuses_slots_across_resets_in::<f32>();
}

#[test]
fn linear_matches_manual() {
    generic::linear_matches_manual_in::<f32>();
}

#[test]
fn write_cols_assembles_heads() {
    generic::write_cols_assembles_heads_in::<f32>();
}

#[test]
fn input_casts_f64_features() {
    let mut ctx = FwdCtx32::new();
    let x = ctx.input(&Tensor::from_vec(1, 2, vec![0.5, -3.0]));
    assert_eq!(ctx.value(x).data(), &[0.5f32, -3.0]);
}
