//! Neural-network building blocks with named parameters.
//!
//! Every layer owns its weights as plain [`Tensor`]s and registers them on
//! the [`Graph`] by a stable, fully-qualified name during `forward`. The
//! [`Module`] trait exposes the same names for the optimizer and for
//! checkpoint (de)serialization, so parameter identity is positional-free.
//!
//! Layers are generic over the [`Scalar`] of their weights, `f64` by
//! default. Construction from an rng, `forward` on the [`Graph`] and
//! [`Module`] — everything training touches — exist for `f64` only; the
//! tape-free `fwd` half is written once for both precisions, and an f32
//! layer is built from its trained f64 layer by `from_f64`, exactly once
//! (checkpoint load / `SharedAgent` construction).

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::infer::{FVar, FwdCtx, TreeGroups};
use crate::scalar::Scalar;
use crate::tensor::Tensor;

/// Anything holding named parameters.
pub trait Module {
    /// Visits every parameter (name, value) in a deterministic order.
    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor));
    /// Mutable variant of [`Module::visit_params`].
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor));

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_, t| n += t.len());
        n
    }
}

/// Fully-connected layer `y = xW + b`.
#[derive(Debug, Clone)]
pub struct Linear<S = f64> {
    name: String,
    pub(crate) w: Tensor<S>,
    pub(crate) b: Tensor<S>,
}

impl Linear {
    /// Xavier-initialized linear layer.
    pub fn new(name: impl Into<String>, d_in: usize, d_out: usize, rng: &mut impl Rng) -> Self {
        Linear {
            name: name.into(),
            w: Tensor::xavier(d_in, d_out, rng),
            b: Tensor::zeros(1, d_out),
        }
    }

    /// Applies the layer to an `n × d_in` input.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let w = g.param(&format!("{}.w", self.name), &self.w);
        let b = g.param(&format!("{}.b", self.name), &self.b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }
}

impl<S: Scalar> Linear<S> {
    /// Casts a trained f64 layer (round-to-nearest per weight).
    pub fn from_f64(l: &Linear) -> Self {
        Linear { name: l.name.clone(), w: Tensor::from_f64(&l.w), b: Tensor::from_f64(&l.b) }
    }

    /// The layer's parameter-name prefix.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.w.cols()
    }

    /// Tape-free forward (in f64 bit-identical to [`Linear::forward`]).
    pub fn fwd(&self, ctx: &mut FwdCtx<S>, x: FVar) -> FVar {
        ctx.linear(x, &self.w, &self.b)
    }
}

impl Module for Linear {
    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        f(&format!("{}.w", self.name), &self.w);
        f(&format!("{}.b", self.name), &self.b);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        f(&format!("{}.w", self.name.clone()), &mut self.w);
        f(&format!("{}.b", self.name.clone()), &mut self.b);
    }
}

/// Layer normalization with learned affine parameters.
#[derive(Debug, Clone)]
pub struct LayerNorm<S = f64> {
    name: String,
    pub(crate) gamma: Tensor<S>,
    pub(crate) beta: Tensor<S>,
    pub(crate) eps: S,
}

impl LayerNorm {
    /// Identity-initialized layer norm over width `d`.
    pub fn new(name: impl Into<String>, d: usize) -> Self {
        LayerNorm {
            name: name.into(),
            gamma: Tensor::full(1, d, 1.0),
            beta: Tensor::zeros(1, d),
            eps: 1e-5,
        }
    }

    /// Applies layer norm to an `n × d` input.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let normed = g.layer_norm_rows(x, self.eps);
        let gamma = g.param(&format!("{}.gamma", self.name), &self.gamma);
        let beta = g.param(&format!("{}.beta", self.name), &self.beta);
        let scaled = g.mul_row(normed, gamma);
        g.add_row(scaled, beta)
    }
}

impl<S: Scalar> LayerNorm<S> {
    /// Casts a trained f64 layer norm.
    pub fn from_f64(l: &LayerNorm) -> Self {
        LayerNorm {
            name: l.name.clone(),
            gamma: Tensor::from_f64(&l.gamma),
            beta: Tensor::from_f64(&l.beta),
            eps: S::from_f64(l.eps),
        }
    }

    /// Tape-free forward (in f64 bit-identical to [`LayerNorm::forward`]).
    pub fn fwd(&self, ctx: &mut FwdCtx<S>, x: FVar) -> FVar {
        ctx.layer_norm_affine(x, &self.gamma, &self.beta, self.eps)
    }
}

impl Module for LayerNorm {
    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        f(&format!("{}.gamma", self.name), &self.gamma);
        f(&format!("{}.beta", self.name), &self.beta);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        f(&format!("{}.gamma", self.name.clone()), &mut self.gamma);
        f(&format!("{}.beta", self.name.clone()), &mut self.beta);
    }
}

/// Multi-layer perceptron with ReLU activations between layers.
#[derive(Debug, Clone)]
pub struct Mlp<S = f64> {
    pub(crate) layers: Vec<Linear<S>>,
    pub(crate) activate_last: bool,
}

impl Mlp {
    /// Builds an MLP through the widths in `dims` (e.g. `[in, h, out]`).
    /// `activate_last` applies ReLU after the final layer too.
    pub fn new(
        name: impl Into<String>,
        dims: &[usize],
        activate_last: bool,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output widths");
        let name = name.into();
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers, activate_last }
    }

    /// Applies the MLP.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let n = self.layers.len();
        let mut h = x;
        for (i, l) in self.layers.iter().enumerate() {
            h = l.forward(g, h);
            if i + 1 < n || self.activate_last {
                h = g.relu(h);
            }
        }
        h
    }
}

impl<S: Scalar> Mlp<S> {
    /// Casts a trained f64 MLP.
    pub fn from_f64(m: &Mlp) -> Self {
        Mlp {
            layers: m.layers.iter().map(Linear::from_f64).collect(),
            activate_last: m.activate_last,
        }
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.layers.last().expect("non-empty").d_out()
    }

    /// Tape-free forward (in f64 bit-identical to [`Mlp::forward`]).
    pub fn fwd(&self, ctx: &mut FwdCtx<S>, x: FVar) -> FVar {
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

impl Module for Mlp {
    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        for l in &self.layers {
            l.visit_params(f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        for l in &mut self.layers {
            l.visit_params_mut(f);
        }
    }
}

/// Multi-head scaled dot-product attention.
///
/// Masks are *additive* `nq × nk` tensors (0 = attend, [`crate::graph::MASK_OFF`]
/// = blocked), shared across heads. The sparse tree-attention of the paper
/// is this layer with a tree-structured mask.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention<S = f64> {
    name: String,
    pub(crate) wq: Linear<S>,
    pub(crate) wk: Linear<S>,
    pub(crate) wv: Linear<S>,
    pub(crate) wo: Linear<S>,
    pub(crate) heads: usize,
    pub(crate) d_model: usize,
}

/// Output of an attention layer: the projected values and the averaged
/// attention probabilities (used by the PM actor to inject VM→PM scores).
#[derive(Debug, Clone, Copy)]
pub struct AttentionOut {
    /// `nq × d_model` output embedding.
    pub out: Var,
    /// `nq × nk` attention probabilities averaged over heads.
    pub probs: Var,
}

impl MultiHeadAttention {
    /// Builds an attention layer over model width `d_model` with `heads`
    /// heads (`d_model % heads == 0`).
    pub fn new(name: impl Into<String>, d_model: usize, heads: usize, rng: &mut impl Rng) -> Self {
        assert!(heads > 0 && d_model.is_multiple_of(heads), "d_model must divide by heads");
        let name = name.into();
        MultiHeadAttention {
            wq: Linear::new(format!("{name}.wq"), d_model, d_model, rng),
            wk: Linear::new(format!("{name}.wk"), d_model, d_model, rng),
            wv: Linear::new(format!("{name}.wv"), d_model, d_model, rng),
            wo: Linear::new(format!("{name}.wo"), d_model, d_model, rng),
            heads,
            d_model,
            name,
        }
    }

    /// Attends `query` (nq×d) over `keys_values` (nk×d) under an optional
    /// additive mask (nq×nk).
    pub fn forward(
        &self,
        g: &mut Graph,
        query: Var,
        keys_values: Var,
        mask: Option<&Tensor>,
    ) -> AttentionOut {
        let dh = self.d_model / self.heads;
        let scale = 1.0 / (dh as f64).sqrt();
        let q_all = self.wq.forward(g, query);
        let k_all = self.wk.forward(g, keys_values);
        let v_all = self.wv.forward(g, keys_values);
        let mut head_outs: Option<Var> = None;
        let mut probs_sum: Option<Var> = None;
        for h in 0..self.heads {
            let q = g.slice_cols(q_all, h * dh, dh);
            let k = g.slice_cols(k_all, h * dh, dh);
            let v = g.slice_cols(v_all, h * dh, dh);
            let kt = g.transpose(k);
            let scores = g.matmul(q, kt);
            let scores = g.scale(scores, scale);
            let probs = match mask {
                Some(m) => g.masked_softmax_rows(scores, m),
                None => g.softmax_rows(scores),
            };
            // Masked probabilities are mostly exact zeros; the sparse
            // kernel is bit-identical and skips them.
            let out = if mask.is_some() { g.matmul_sparse(probs, v) } else { g.matmul(probs, v) };
            head_outs = Some(match head_outs {
                Some(acc) => g.hcat(acc, out),
                None => out,
            });
            probs_sum = Some(match probs_sum {
                Some(acc) => g.add(acc, probs),
                None => probs,
            });
        }
        let concat = head_outs.expect("at least one head");
        let out = self.wo.forward(g, concat);
        let probs = g.scale(probs_sum.expect("at least one head"), 1.0 / self.heads as f64);
        AttentionOut { out, probs }
    }
}

impl<S: Scalar> MultiHeadAttention<S> {
    /// Casts a trained f64 attention layer.
    pub fn from_f64(a: &MultiHeadAttention) -> Self {
        MultiHeadAttention {
            name: a.name.clone(),
            wq: Linear::from_f64(&a.wq),
            wk: Linear::from_f64(&a.wk),
            wv: Linear::from_f64(&a.wv),
            wo: Linear::from_f64(&a.wo),
            heads: a.heads,
            d_model: a.d_model,
        }
    }

    /// `1 / √d_head`, computed in `S`.
    fn score_scale(&self) -> S {
        S::ONE / S::from_usize(self.d_model / self.heads).sqrt()
    }

    /// Tape-free forward, in f64 bit-identical to
    /// [`MultiHeadAttention::forward`]. Scores are computed with the
    /// transpose-free `Q·Kᵀ` kernel; the head-averaged probabilities are
    /// only materialized when `want_probs` is set (the VM→PM cross stage
    /// needs them, the other stages discard them): the fused tiled kernel
    /// when they are discarded, the unfused score → softmax →
    /// weighted-sum chain otherwise.
    pub fn fwd(
        &self,
        ctx: &mut FwdCtx<S>,
        query: FVar,
        keys_values: FVar,
        mask: Option<&Tensor<S>>,
        want_probs: bool,
    ) -> (FVar, Option<FVar>) {
        self.fwd_heads(ctx, query, keys_values, mask, want_probs, false)
    }

    /// Self-attention over a sequence given once per row class: `reps`
    /// holds one row per current row class of `ctx` (see
    /// [`crate::classes`]) and the attended sequence is every row those
    /// classes stand for. Returns one output row per class, each
    /// bit-identical to the row [`Self::fwd`] computes for any member of
    /// the class on the expanded sequence.
    pub fn fwd_self_classes(&self, ctx: &mut FwdCtx<S>, reps: FVar) -> FVar {
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
        ctx: &mut FwdCtx<S>,
        query: FVar,
        keys_values: FVar,
        mask: Option<&Tensor<S>>,
        want_probs: bool,
        keys_by_class: bool,
    ) -> (FVar, Option<FVar>) {
        let nq = ctx.value(query).rows();
        let dh = self.d_model / self.heads;
        let scale = self.score_scale();
        let q_all = self.wq.fwd(ctx, query);
        let k_all = self.wk.fwd(ctx, keys_values);
        let v_all = self.wv.fwd(ctx, keys_values);
        let concat = ctx.alloc(nq, self.d_model);
        let mut probs_avg: Option<FVar> = None;
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
            ctx.scale_assign(acc, S::ONE / S::from_usize(self.heads));
        }
        let out = self.wo.fwd(ctx, concat);
        (out, probs_avg)
    }

    /// Tape-free block-sparse forward for tree-local self-attention: in
    /// f64 bit-identical to [`MultiHeadAttention::forward`] under the
    /// equivalent additive tree mask, but O(Σ tree²·d) instead of
    /// O((N+M)²·d) — the dense score matrix and the mask are never
    /// materialized. Probabilities are not produced (the local stage
    /// discards them). After a row-class search of `ctx`, `x` holds the
    /// rows before the classified ones and then one row per class, and
    /// each output row is the row every member of its class gets on the
    /// expanded sequence ([`FwdCtx::tree_attention`]).
    pub fn fwd_tree(&self, ctx: &mut FwdCtx<S>, x: FVar, groups: &TreeGroups) -> FVar {
        let scale = self.score_scale();
        let q_all = self.wq.fwd(ctx, x);
        let k_all = self.wk.fwd(ctx, x);
        let v_all = self.wv.fwd(ctx, x);
        let concat = ctx.tree_attention(q_all, k_all, v_all, self.heads, scale, groups);
        self.wo.fwd(ctx, concat)
    }
}

impl Module for MultiHeadAttention {
    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        let _ = &self.name;
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.wq.visit_params_mut(f);
        self.wk.visit_params_mut(f);
        self.wv.visit_params_mut(f);
        self.wo.visit_params_mut(f);
    }
}

/// Post-attention feed-forward sub-block: two dense layers + layer norm,
/// with a residual connection (the "two dense layers and layer norm" of
/// the paper's block, §3.3).
#[derive(Debug, Clone)]
pub struct FeedForward<S = f64> {
    pub(crate) lin1: Linear<S>,
    pub(crate) lin2: Linear<S>,
    pub(crate) norm: LayerNorm<S>,
}

impl FeedForward {
    /// Builds the sub-block with hidden width `d_ff`.
    pub fn new(name: impl Into<String>, d_model: usize, d_ff: usize, rng: &mut impl Rng) -> Self {
        let name = name.into();
        FeedForward {
            lin1: Linear::new(format!("{name}.ff1"), d_model, d_ff, rng),
            lin2: Linear::new(format!("{name}.ff2"), d_ff, d_model, rng),
            norm: LayerNorm::new(format!("{name}.norm"), d_model),
        }
    }

    /// Applies `LayerNorm(x + W2 relu(W1 x))`.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let h = self.lin1.forward(g, x);
        let h = g.relu(h);
        let h = self.lin2.forward(g, h);
        let res = g.add(x, h);
        self.norm.forward(g, res)
    }
}

impl<S: Scalar> FeedForward<S> {
    /// Casts a trained f64 feed-forward sub-block.
    pub fn from_f64(ff: &FeedForward) -> Self {
        FeedForward {
            lin1: Linear::from_f64(&ff.lin1),
            lin2: Linear::from_f64(&ff.lin2),
            norm: LayerNorm::from_f64(&ff.norm),
        }
    }

    /// Tape-free forward (in f64 bit-identical to
    /// [`FeedForward::forward`]).
    pub fn fwd(&self, ctx: &mut FwdCtx<S>, x: FVar) -> FVar {
        let h = self.lin1.fwd(ctx, x);
        ctx.relu_assign(h);
        let h = self.lin2.fwd(ctx, h);
        let res = ctx.add(x, h);
        self.norm.fwd(ctx, res)
    }
}

impl Module for FeedForward {
    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        self.lin1.visit_params(f);
        self.lin2.visit_params(f);
        self.norm.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.lin1.visit_params_mut(f);
        self.lin2.visit_params_mut(f);
        self.norm.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MASK_OFF;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn linear_shapes_and_params() {
        let mut r = rng();
        let l = Linear::new("lin", 4, 3, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(5, 4));
        let y = l.forward(&mut g, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (5, 3));
        assert_eq!(l.num_params(), 4 * 3 + 3);
    }

    #[test]
    fn mlp_forward_shapes() {
        let mut r = rng();
        let m = Mlp::new("mlp", &[6, 8, 2], false, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(3, 6));
        let y = m.forward(&mut g, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (3, 2));
        assert_eq!(m.d_out(), 2);
    }

    #[test]
    fn layernorm_standardizes() {
        let ln = LayerNorm::new("ln", 4);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 1.0, 2.0]));
        let y = ln.forward(&mut g, x);
        for r in 0..2 {
            let row = g.value(y).row_slice(r);
            let mean: f64 = row.iter().sum::<f64>() / 4.0;
            let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-9, "row mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row var {var}");
        }
    }

    #[test]
    fn attention_probs_rows_sum_to_one() {
        let mut r = rng();
        let att = MultiHeadAttention::new("att", 8, 2, &mut r);
        let mut g = Graph::new();
        let q = g.constant(Tensor::xavier(3, 8, &mut r));
        let kv = g.constant(Tensor::xavier(5, 8, &mut r));
        let out = att.forward(&mut g, q, kv, None);
        let p = g.value(out.probs);
        assert_eq!((p.rows(), p.cols()), (3, 5));
        for row in 0..3 {
            let s: f64 = p.row_slice(row).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        let o = g.value(out.out);
        assert_eq!((o.rows(), o.cols()), (3, 8));
    }

    #[test]
    fn attention_respects_mask() {
        let mut r = rng();
        let att = MultiHeadAttention::new("att", 8, 2, &mut r);
        let mut g = Graph::new();
        let q = g.constant(Tensor::xavier(2, 8, &mut r));
        let kv = g.constant(Tensor::xavier(4, 8, &mut r));
        let mut mask = Tensor::zeros(2, 4);
        mask.set(0, 1, MASK_OFF);
        mask.set(0, 2, MASK_OFF);
        let out = att.forward(&mut g, q, kv, Some(&mask));
        let p = g.value(out.probs);
        assert!(p.get(0, 1) < 1e-12);
        assert!(p.get(0, 2) < 1e-12);
        assert!((p.get(0, 0) + p.get(0, 3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn attention_gradients_flow_to_all_weights() {
        let mut r = rng();
        let att = MultiHeadAttention::new("att", 8, 2, &mut r);
        let mut g = Graph::new();
        let q = g.constant(Tensor::xavier(3, 8, &mut r));
        let kv = g.constant(Tensor::xavier(4, 8, &mut r));
        let out = att.forward(&mut g, q, kv, None);
        let sq = g.square(out.out);
        let loss = g.mean_all(sq);
        g.backward(loss);
        let grads = g.param_grads();
        let mut names = Vec::new();
        att.visit_params(&mut |n, _| names.push(n.to_string()));
        for n in names {
            let gr = grads.get(&n).unwrap_or_else(|| panic!("no grad for {n}"));
            assert!(gr.norm() > 0.0, "zero grad for {n}");
        }
    }

    #[test]
    fn feed_forward_residual_block() {
        let mut r = rng();
        let ff = FeedForward::new("blk", 8, 16, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::xavier(4, 8, &mut r));
        let y = ff.forward(&mut g, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (4, 8));
        assert!(ff.num_params() > 0);
    }
}
