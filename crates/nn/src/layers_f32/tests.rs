//! Tests of the alias spellings `benchmark/` compiles against (kept out
//! of the alias file, which holds `pub type` items only).

use super::*;
use crate::infer::FwdCtx;
use crate::infer32::FwdCtx32;
use crate::layers::{FeedForward, MultiHeadAttention};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(1234)
}

#[test]
fn f32_attention_tracks_f64_within_tolerance() {
    let mut r = rng();
    let att = MultiHeadAttention::new("att", 8, 2, &mut r);
    let att32 = MultiHeadAttention32::from_f64(&att);
    let q = Tensor::xavier(6, 8, &mut r);
    let kv = Tensor::xavier(9, 8, &mut r);

    let mut ctx = FwdCtx::new();
    let qv = ctx.input(&q);
    let kvv = ctx.input(&kv);
    let (out64, _) = att.fwd(&mut ctx, qv, kvv, None, false);

    let mut ctx32 = FwdCtx32::new();
    let qv32 = ctx32.input(&q);
    let kvv32 = ctx32.input(&kv);
    let (out32, _) = att32.fwd(&mut ctx32, qv32, kvv32, None, false);

    for (a, &b) in ctx32.value(out32).data().iter().zip(ctx.value(out64).data()) {
        assert!((f64::from(*a) - b).abs() < 1e-4, "f32 {a} vs f64 {b}");
    }
}

#[test]
fn f32_feed_forward_tracks_f64_within_tolerance() {
    let mut r = rng();
    let ff = FeedForward::new("blk", 8, 16, &mut r);
    let ff32 = FeedForward32::from_f64(&ff);
    let x = Tensor::xavier(4, 8, &mut r);

    let mut ctx = FwdCtx::new();
    let xv = ctx.input(&x);
    let y64 = ff.fwd(&mut ctx, xv);

    let mut ctx32 = FwdCtx32::new();
    let xv32 = ctx32.input(&x);
    let y32 = ff32.fwd(&mut ctx32, xv32);

    for (a, &b) in ctx32.value(y32).data().iter().zip(ctx.value(y64).data()) {
        assert!((f64::from(*a) - b).abs() < 1e-4, "f32 {a} vs f64 {b}");
    }
}
