//! f32 inference mirrors of the [`crate::layers`] building blocks.
//!
//! Weight-cast-once twins of the f64 training layers for the f32 fast
//! path: each is built from its trained f64 layer exactly once
//! (checkpoint load / `SharedAgent` construction) and then runs
//! forwards on a [`FwdCtx32`]. They hold no names and implement no
//! [`crate::layers::Module`] — they never train, never serialize, and
//! never feed the optimizer.
//!
//! This module *is* the precision-tier boundary (with `kernels_f32`,
//! `tensor32`, and `infer32`): narrowing `f64 → f32` casts are legal
//! here and flagged anywhere else in the nn/core/rl crates by the
//! `vmr-analyze` F001 lint. Keeping the mirrors in their own file keeps
//! that boundary auditable as a path, not a line range.

use crate::infer::TreeGroups;
use crate::infer32::{FVar32, FwdCtx32};
use crate::layers::{FeedForward, LayerNorm, Linear, Mlp, MultiHeadAttention};
use crate::tensor32::Tensor32;

/// f32 mirror of [`Linear`].
#[derive(Debug, Clone)]
pub struct Linear32 {
    w: Tensor32,
    b: Tensor32,
}

impl Linear32 {
    /// Casts a trained f64 layer down (round-to-nearest per weight).
    pub fn from_f64(l: &Linear) -> Self {
        Linear32 { w: Tensor32::from_tensor(&l.w), b: Tensor32::from_tensor(&l.b) }
    }

    /// Tape-free f32 forward.
    pub fn fwd(&self, ctx: &mut FwdCtx32, x: FVar32) -> FVar32 {
        ctx.linear(x, &self.w, &self.b)
    }
}

/// f32 mirror of [`LayerNorm`].
#[derive(Debug, Clone)]
pub struct LayerNorm32 {
    gamma: Tensor32,
    beta: Tensor32,
    eps: f32,
}

impl LayerNorm32 {
    /// Casts a trained f64 layer norm down.
    pub fn from_f64(l: &LayerNorm) -> Self {
        LayerNorm32 {
            gamma: Tensor32::from_tensor(&l.gamma),
            beta: Tensor32::from_tensor(&l.beta),
            eps: l.eps as f32,
        }
    }

    /// Tape-free f32 forward.
    pub fn fwd(&self, ctx: &mut FwdCtx32, x: FVar32) -> FVar32 {
        ctx.layer_norm_affine(x, &self.gamma, &self.beta, self.eps)
    }
}

/// f32 mirror of [`Mlp`].
#[derive(Debug, Clone)]
pub struct Mlp32 {
    layers: Vec<Linear32>,
    activate_last: bool,
}

impl Mlp32 {
    /// Casts a trained f64 MLP down.
    pub fn from_f64(m: &Mlp) -> Self {
        Mlp32 {
            layers: m.layers.iter().map(Linear32::from_f64).collect(),
            activate_last: m.activate_last,
        }
    }

    /// Tape-free f32 forward.
    pub fn fwd(&self, ctx: &mut FwdCtx32, x: FVar32) -> FVar32 {
        let n = self.layers.len();
        let mut h = x;
        for (i, l) in self.layers.iter().enumerate() {
            h = l.fwd(ctx, h);
            if i + 1 < n || self.activate_last {
                ctx.relu_assign(h);
            }
        }
        h
    }
}

/// f32 mirror of [`MultiHeadAttention`].
#[derive(Debug, Clone)]
pub struct MultiHeadAttention32 {
    wq: Linear32,
    wk: Linear32,
    wv: Linear32,
    wo: Linear32,
    heads: usize,
    d_model: usize,
}

impl MultiHeadAttention32 {
    /// Casts a trained f64 attention layer down.
    pub fn from_f64(a: &MultiHeadAttention) -> Self {
        MultiHeadAttention32 {
            wq: Linear32::from_f64(&a.wq),
            wk: Linear32::from_f64(&a.wk),
            wv: Linear32::from_f64(&a.wv),
            wo: Linear32::from_f64(&a.wo),
            heads: a.heads,
            d_model: a.d_model,
        }
    }

    /// Tape-free f32 forward mirroring [`MultiHeadAttention::fwd`]: the
    /// fused tiled kernel when probabilities are discarded, the unfused
    /// score → softmax → weighted-sum chain when the cross stage needs
    /// the averaged probability map.
    pub fn fwd(
        &self,
        ctx: &mut FwdCtx32,
        query: FVar32,
        keys_values: FVar32,
        mask: Option<&Tensor32>,
        want_probs: bool,
    ) -> (FVar32, Option<FVar32>) {
        self.fwd_heads(ctx, query, keys_values, mask, want_probs, false)
    }

    /// Self-attention over a sequence given once per row class: `reps`
    /// holds one row per current row class of `ctx` (see
    /// [`crate::classes`]) and the attended sequence is every row those
    /// classes stand for. Returns one output row per class, each
    /// bit-identical to the row [`Self::fwd`] computes for any member of
    /// the class on the expanded sequence.
    pub fn fwd_self_classes(&self, ctx: &mut FwdCtx32, reps: FVar32) -> FVar32 {
        if self.d_model / self.heads <= 16 {
            return self.fwd_heads(ctx, reps, reps, None, false, true).0;
        }
        // No fused head at this width: share the queries only.
        let all = ctx.expand_rows(reps);
        self.fwd_heads(ctx, reps, all, None, false, false).0
    }

    /// The heads behind [`Self::fwd`]; with `keys_by_class` the rows of
    /// `keys_values` are class representatives (fused unmasked path
    /// only).
    fn fwd_heads(
        &self,
        ctx: &mut FwdCtx32,
        query: FVar32,
        keys_values: FVar32,
        mask: Option<&Tensor32>,
        want_probs: bool,
        keys_by_class: bool,
    ) -> (FVar32, Option<FVar32>) {
        let nq = ctx.value(query).rows();
        let dh = self.d_model / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let q_all = self.wq.fwd(ctx, query);
        let k_all = self.wk.fwd(ctx, keys_values);
        let v_all = self.wv.fwd(ctx, keys_values);
        let concat = ctx.alloc(nq, self.d_model);
        let mut probs_avg: Option<FVar32> = None;
        for h in 0..self.heads {
            let q = ctx.slice_cols(q_all, h * dh, dh);
            let k = ctx.slice_cols(k_all, h * dh, dh);
            let v = ctx.slice_cols(v_all, h * dh, dh);
            let (out, probs) = match mask {
                // Self-attention stages discard their probabilities: run
                // the fused tiled kernel and never materialize the n×n
                // score/probability matrices.
                None if !want_probs && dh <= 16 => {
                    (ctx.attention_head(q, k, v, scale, keys_by_class), None)
                }
                None => {
                    debug_assert!(!keys_by_class, "class keys need the fused head");
                    let (out, probs) = ctx.attention_head_probs(q, k, v, scale);
                    (out, Some(probs))
                }
                Some(mask) => {
                    let scores = ctx.matmul_nt_scaled(q, k, scale);
                    let probs = ctx.masked_softmax(scores, Some(mask));
                    (ctx.matmul_sparse(probs, v), Some(probs))
                }
            };
            ctx.write_cols(concat, out, h * dh);
            if let (true, Some(probs)) = (want_probs, probs) {
                match probs_avg {
                    Some(acc) => ctx.add_assign(acc, probs),
                    None => probs_avg = Some(probs),
                }
            }
        }
        if let Some(acc) = probs_avg {
            ctx.scale_assign(acc, 1.0 / self.heads as f32);
        }
        let out = self.wo.fwd(ctx, concat);
        (out, probs_avg)
    }

    /// Tape-free f32 block-sparse forward for tree-local self-attention
    /// (mirrors [`MultiHeadAttention::fwd_tree`]).
    pub fn fwd_tree(&self, ctx: &mut FwdCtx32, x: FVar32, groups: &TreeGroups) -> FVar32 {
        let dh = self.d_model / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let q_all = self.wq.fwd(ctx, x);
        let k_all = self.wk.fwd(ctx, x);
        let v_all = self.wv.fwd(ctx, x);
        let concat = ctx.tree_attention(q_all, k_all, v_all, self.heads, scale, groups);
        self.wo.fwd(ctx, concat)
    }
}

/// f32 mirror of [`FeedForward`].
#[derive(Debug, Clone)]
pub struct FeedForward32 {
    lin1: Linear32,
    lin2: Linear32,
    norm: LayerNorm32,
}

impl FeedForward32 {
    /// Casts a trained f64 feed-forward sub-block down.
    pub fn from_f64(ff: &FeedForward) -> Self {
        FeedForward32 {
            lin1: Linear32::from_f64(&ff.lin1),
            lin2: Linear32::from_f64(&ff.lin2),
            norm: LayerNorm32::from_f64(&ff.norm),
        }
    }

    /// Tape-free f32 forward: `LayerNorm(x + W2 relu(W1 x))`.
    pub fn fwd(&self, ctx: &mut FwdCtx32, x: FVar32) -> FVar32 {
        let h = self.lin1.fwd(ctx, x);
        ctx.relu_assign(h);
        let h = self.lin2.fwd(ctx, h);
        let res = ctx.add(x, h);
        self.norm.fwd(ctx, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::FwdCtx;
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
}
