//! Tape-free forward evaluation in f32 — the arena behind the inference
//! fast path.
//!
//! [`FwdCtx32`] mirrors [`crate::infer::FwdCtx`] op for op, but every
//! slot is a [`Tensor32`] and every kernel comes from
//! [`crate::kernels_f32`]. Inputs (features) arrive as f64 tensors and
//! are cast once at the arena boundary; weights arrive already cast via
//! the `*32` layer mirrors in [`crate::layers`]. Like the f64 arena, a
//! steady-state forward performs zero heap allocations.
//!
//! Unlike the f64 engines, this path makes **no bit-identity promise**
//! against anything — its contract is the tolerance gate described in
//! [`crate::kernels_f32`].

use crate::classes::{same_bits_f32, RowClasses};
use crate::infer::TreeGroups;
use crate::kernels_f32;
use crate::par::{self, AttnScratch};
use crate::tensor::Tensor;
use crate::tensor32::Tensor32;

/// Handle to an f32 arena slot. Only valid for the [`FwdCtx32`] that
/// issued it, until the next [`FwdCtx32::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FVar32(usize);

/// The f32 forward-only evaluation context.
#[derive(Debug, Default)]
pub struct FwdCtx32 {
    slots: Vec<Tensor32>,
    cursor: usize,
    /// Reusable flat scratch (per-tree attention scores).
    scratch: Vec<f32>,
    /// Dense attention scratch: shared `kᵀ` plus one score tile per lane.
    attn: AttnScratch<f32>,
    /// Row classes of the block pass in flight (see [`crate::classes`]).
    classes: RowClasses,
}

impl FwdCtx32 {
    /// Empty context.
    pub fn new() -> Self {
        FwdCtx32::default()
    }

    /// Rewinds the arena; existing slot buffers are kept for reuse. The
    /// row classes of the last pass are forgotten with the slots they
    /// described.
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.classes.clear();
    }

    /// Number of live slots since the last reset.
    pub fn live(&self) -> usize {
        self.cursor
    }

    /// Allocates (or reuses) a slot shaped `rows × cols`. Contents are
    /// unspecified; every op fully overwrites its output. A slot with
    /// one row per shared row class reserves room for every row the
    /// classes stand for (see [`crate::infer::FwdCtx::alloc`]).
    pub fn alloc(&mut self, rows: usize, cols: usize) -> FVar32 {
        if self.cursor == self.slots.len() {
            self.slots.push(Tensor32::zeros(0, 0));
        }
        let slot = &mut self.slots[self.cursor];
        if self.classes.shared() && rows == self.classes.distinct() {
            slot.reserve_total(self.classes.total() * cols);
        }
        slot.reshape_reuse(rows, cols);
        let v = FVar32(self.cursor);
        self.cursor += 1;
        v
    }

    /// The tensor behind a slot.
    pub fn value(&self, v: FVar32) -> &Tensor32 {
        &self.slots[v.0]
    }

    /// Mutable access to a slot.
    pub fn value_mut(&mut self, v: FVar32) -> &mut Tensor32 {
        &mut self.slots[v.0]
    }

    /// Splits the arena into the inputs (indices `< out`) and the output.
    fn split(&mut self, out: FVar32) -> (&[Tensor32], &mut Tensor32) {
        let (head, tail) = self.slots.split_at_mut(out.0);
        (head, &mut tail[0])
    }

    /// Copies an external f64 tensor into the arena, casting down — the
    /// feature-input boundary of the fast path.
    pub fn input(&mut self, t: &Tensor) -> FVar32 {
        let v = self.alloc(t.rows(), t.cols());
        self.slots[v.0].copy_from_f64(t);
        v
    }

    /// Copies an f32 tensor into the arena.
    pub fn input32(&mut self, t: &Tensor32) -> FVar32 {
        let v = self.alloc(t.rows(), t.cols());
        self.slots[v.0].copy_from(t);
        v
    }

    /// Constant-filled slot.
    pub fn full(&mut self, rows: usize, cols: usize, value: f32) -> FVar32 {
        let v = self.alloc(rows, cols);
        self.slots[v.0].data_mut().fill(value);
        v
    }

    /// `x · W + b` (the `Linear32` forward).
    pub fn linear(&mut self, x: FVar32, w: &Tensor32, b: &Tensor32) -> FVar32 {
        let out = self.alloc(self.slots[x.0].rows(), w.cols());
        let (head, o) = self.split(out);
        kernels_f32::matmul_into(&head[x.0], w, o);
        debug_assert_eq!(b.rows(), 1, "bias must be a row");
        let n = o.cols();
        for r in 0..o.rows() {
            let row = &mut o.data_mut()[r * n..(r + 1) * n];
            for (ov, &bv) in row.iter_mut().zip(b.data()) {
                *ov += bv;
            }
        }
        out
    }

    /// Matrix product of two slots.
    pub fn matmul(&mut self, a: FVar32, b: FVar32) -> FVar32 {
        let out = self.alloc(self.slots[a.0].rows(), self.slots[b.0].cols());
        let (head, o) = self.split(out);
        kernels_f32::matmul_into(&head[a.0], &head[b.0], o);
        out
    }

    /// `(a · bᵀ) * alpha` — the attention-score kernel.
    pub fn matmul_nt_scaled(&mut self, a: FVar32, b: FVar32, alpha: f32) -> FVar32 {
        let out = self.alloc(self.slots[a.0].rows(), self.slots[b.0].rows());
        let (head, o) = self.split(out);
        kernels_f32::matmul_nt_scaled_into(&head[a.0], &head[b.0], alpha, o);
        out
    }

    /// Sparse-aware matrix product (left operand mostly exact zeros).
    pub fn matmul_sparse(&mut self, a: FVar32, b: FVar32) -> FVar32 {
        let out = self.alloc(self.slots[a.0].rows(), self.slots[b.0].cols());
        let (head, o) = self.split(out);
        kernels_f32::matmul_sparse_into(&head[a.0], &head[b.0], o);
        out
    }

    /// Elementwise sum into a fresh slot.
    pub fn add(&mut self, a: FVar32, b: FVar32) -> FVar32 {
        let out = self.alloc(self.slots[a.0].rows(), self.slots[a.0].cols());
        let (head, o) = self.split(out);
        let (av, bv) = (&head[a.0], &head[b.0]);
        assert_eq!((av.rows(), av.cols()), (bv.rows(), bv.cols()), "add shape mismatch");
        for ((ov, &x), &y) in o.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
            *ov = x + y;
        }
        out
    }

    /// `dst += src` in place.
    pub fn add_assign(&mut self, dst: FVar32, src: FVar32) {
        assert_ne!(dst.0, src.0, "add_assign needs distinct slots");
        let (lo, hi) = (dst.0.min(src.0), dst.0.max(src.0));
        let (head, tail) = self.slots.split_at_mut(hi);
        let (d, s) =
            if dst.0 < src.0 { (&mut head[lo], &tail[0]) } else { (&mut tail[0], &head[lo]) };
        assert_eq!((d.rows(), d.cols()), (s.rows(), s.cols()), "add_assign shape mismatch");
        for (dv, &sv) in d.data_mut().iter_mut().zip(s.data()) {
            *dv += sv;
        }
    }

    /// Scalar multiply in place.
    pub fn scale_assign(&mut self, x: FVar32, alpha: f32) {
        for v in self.slots[x.0].data_mut() {
            *v *= alpha;
        }
    }

    /// ReLU in place.
    pub fn relu_assign(&mut self, x: FVar32) {
        for v in self.slots[x.0].data_mut() {
            *v = v.max(0.0);
        }
    }

    /// Row-wise masked softmax (additive mask tensor, `None` = unmasked).
    pub fn masked_softmax(&mut self, x: FVar32, mask: Option<&Tensor32>) -> FVar32 {
        let out = self.alloc(self.slots[x.0].rows(), self.slots[x.0].cols());
        let (head, o) = self.split(out);
        kernels_f32::masked_softmax_into(&head[x.0], mask, o);
        out
    }

    /// Layer norm with affine parameters.
    pub fn layer_norm_affine(
        &mut self,
        x: FVar32,
        gamma: &Tensor32,
        beta: &Tensor32,
        eps: f32,
    ) -> FVar32 {
        let out = self.alloc(self.slots[x.0].rows(), self.slots[x.0].cols());
        let (head, o) = self.split(out);
        kernels_f32::layer_norm_into(&head[x.0], eps, o);
        let n = o.cols();
        for r in 0..o.rows() {
            let row = &mut o.data_mut()[r * n..(r + 1) * n];
            for ((ov, &g), &b) in row.iter_mut().zip(gamma.data()).zip(beta.data()) {
                *ov = *ov * g + b;
            }
        }
        out
    }

    /// Column-wise mean over rows (`1 × d` pooling).
    pub fn mean_rows(&mut self, x: FVar32) -> FVar32 {
        let out = self.alloc(1, self.slots[x.0].cols());
        let (head, o) = self.split(out);
        kernels_f32::mean_rows_into(&head[x.0], o);
        out
    }

    /// Horizontal concatenation.
    pub fn hcat(&mut self, a: FVar32, b: FVar32) -> FVar32 {
        let (ar, ac) = (self.slots[a.0].rows(), self.slots[a.0].cols());
        let bc = self.slots[b.0].cols();
        assert_eq!(ar, self.slots[b.0].rows(), "hcat row mismatch");
        let out = self.alloc(ar, ac + bc);
        let (head, o) = self.split(out);
        for r in 0..ar {
            let dst = &mut o.data_mut()[r * (ac + bc)..(r + 1) * (ac + bc)];
            dst[..ac].copy_from_slice(head[a.0].row_slice(r));
            dst[ac..].copy_from_slice(head[b.0].row_slice(r));
        }
        out
    }

    /// Vertical concatenation.
    pub fn vcat(&mut self, a: FVar32, b: FVar32) -> FVar32 {
        let (ar, c) = (self.slots[a.0].rows(), self.slots[a.0].cols());
        let br = self.slots[b.0].rows();
        assert_eq!(c, self.slots[b.0].cols(), "vcat col mismatch");
        let out = self.alloc(ar + br, c);
        let (head, o) = self.split(out);
        o.data_mut()[..ar * c].copy_from_slice(head[a.0].data());
        o.data_mut()[ar * c..].copy_from_slice(head[b.0].data());
        out
    }

    /// Copies a contiguous block of rows into a fresh slot.
    pub fn rows_range(&mut self, x: FVar32, start: usize, len: usize) -> FVar32 {
        let c = self.slots[x.0].cols();
        assert!(start + len <= self.slots[x.0].rows(), "row range out of bounds");
        let out = self.alloc(len, c);
        let (head, o) = self.split(out);
        o.data_mut().copy_from_slice(&head[x.0].data()[start * c..(start + len) * c]);
        out
    }

    /// Copies one row into a fresh `1 × d` slot.
    pub fn select_row(&mut self, x: FVar32, idx: usize) -> FVar32 {
        self.rows_range(x, idx, 1)
    }

    /// Copies a contiguous block of columns into a fresh slot.
    pub fn slice_cols(&mut self, x: FVar32, start: usize, len: usize) -> FVar32 {
        let (r, c) = (self.slots[x.0].rows(), self.slots[x.0].cols());
        assert!(start + len <= c, "column slice out of bounds");
        let out = self.alloc(r, len);
        let (head, o) = self.split(out);
        for i in 0..r {
            o.data_mut()[i * len..(i + 1) * len]
                .copy_from_slice(&head[x.0].row_slice(i)[start..start + len]);
        }
        out
    }

    /// Writes `src` into columns `[col_start, col_start + src.cols)` of
    /// `dst`.
    pub fn write_cols(&mut self, dst: FVar32, src: FVar32, col_start: usize) {
        assert_ne!(dst.0, src.0, "write_cols needs distinct slots");
        let (lo, hi) = (dst.0.min(src.0), dst.0.max(src.0));
        let (head, tail) = self.slots.split_at_mut(hi);
        let (d, s) =
            if dst.0 < src.0 { (&mut head[lo], &tail[0]) } else { (&mut tail[0], &head[lo]) };
        assert_eq!(d.rows(), s.rows(), "write_cols row mismatch");
        let (dc, sc) = (d.cols(), s.cols());
        assert!(col_start + sc <= dc, "write_cols out of bounds");
        for r in 0..s.rows() {
            d.data_mut()[r * dc + col_start..r * dc + col_start + sc]
                .copy_from_slice(s.row_slice(r));
        }
    }

    /// Same data, new shape (row-major order preserved).
    pub fn reshape(&mut self, x: FVar32, rows: usize, cols: usize) -> FVar32 {
        assert_eq!(self.slots[x.0].len(), rows * cols, "reshape element count mismatch");
        let out = self.alloc(rows, cols);
        let (head, o) = self.split(out);
        o.data_mut().copy_from_slice(head[x.0].data());
        out
    }

    /// Elements reserved by the arena — slots, scratch and class maps
    /// together (steady-state growth checks).
    pub fn reserved(&self) -> usize {
        self.slots.iter().map(|t| t.capacity()).sum::<usize>()
            + self.scratch.capacity()
            + self.attn.capacity()
            + self.classes.capacity()
    }

    /// Finds the row classes of rows `first..` of `x` (f32 mirror of
    /// [`crate::infer::FwdCtx::find_row_classes`]).
    pub fn find_row_classes(&mut self, x: FVar32, first: usize, groups: Option<&TreeGroups>) {
        let FwdCtx32 { slots, classes, .. } = self;
        let t = &slots[x.0];
        assert!(first <= t.rows(), "row classes start past the last row");
        classes.find(t.rows() - first, first, groups, |a, b| {
            same_bits_f32(t.row_slice(first + a), t.row_slice(first + b))
        });
    }

    /// The current row classes.
    pub fn row_classes(&self) -> &RowClasses {
        &self.classes
    }

    /// Copies one representative row per class out of rows `first..` of
    /// `x` (all of them, contiguously, when every class is a singleton).
    pub fn class_rows(&mut self, x: FVar32, first: usize) -> FVar32 {
        if !self.classes.shared() {
            return self.rows_range(x, first, self.classes.total());
        }
        self.gather_rows(x, first, RowClasses::reps)
    }

    /// Gives every row its class's row of `x` (one row per class) back:
    /// the inverse of [`FwdCtx32::class_rows`]. `x` itself when every class
    /// is a singleton.
    pub fn expand_rows(&mut self, x: FVar32) -> FVar32 {
        if !self.classes.shared() {
            return x;
        }
        assert_eq!(self.slots[x.0].rows(), self.classes.distinct(), "one row per class expected");
        self.gather_rows(x, 0, RowClasses::class_of)
    }

    /// A fresh slot whose row `i` is row `first + rows[i]` of `x`, for one
    /// of the class maps.
    fn gather_rows(&mut self, x: FVar32, first: usize, rows: fn(&RowClasses) -> &[u32]) -> FVar32 {
        let c = self.slots[x.0].cols();
        let out = self.alloc(rows(&self.classes).len(), c);
        let FwdCtx32 { slots, classes, .. } = self;
        let (head, tail) = slots.split_at_mut(out.0);
        let src = head[x.0].data();
        for (dst, &r) in tail[0].data_mut().chunks_exact_mut(c.max(1)).zip(rows(classes)) {
            let r = first + r as usize;
            dst.copy_from_slice(&src[r * c..(r + 1) * c]);
        }
        out
    }

    /// Fused unmasked single-head attention (`softmax(q·kᵀ·scale)·v`)
    /// through cache-resident score tiles — no n×n score or probability
    /// matrix is ever materialized. Same arithmetic as the unfused kernel
    /// chain (see [`kernels_f32::attention_head_into`]). Large calls borrow idle
    /// cores as extra row lanes ([`par::Budget::lanes_for`]); the result
    /// does not depend on how many they get. `keys_by_class` as in
    /// [`crate::infer::FwdCtx::attention_head`].
    pub fn attention_head(
        &mut self,
        q: FVar32,
        k: FVar32,
        v: FVar32,
        scale: f32,
        keys_by_class: bool,
    ) -> FVar32 {
        let (m, dh) = (self.slots[q.0].rows(), self.slots[q.0].cols());
        let _busy = par::forward();
        // The work is the scores actually computed: one per distinct key.
        let lease = par::global().lanes_for(m, self.slots[k.0].rows());
        let out = self.alloc(m, dh);
        let FwdCtx32 { slots, attn, classes, .. } = self;
        let (head, tail) = slots.split_at_mut(out.0);
        kernels_f32::attention_head_into(
            &head[q.0],
            &head[k.0],
            &head[v.0],
            (keys_by_class && classes.shared()).then(|| classes.class_of()),
            scale,
            1 + lease.helpers(),
            attn,
            &mut tail[0],
        );
        out
    }

    /// Unfused unmasked single-head attention that keeps its
    /// probabilities: returns `(softmax(q·kᵀ·scale)·v, softmax(q·kᵀ·scale))`
    /// — the last block's cross stage, whose probability map feeds the
    /// PM actor. Same kernels as `matmul_nt_scaled` → `masked_softmax` →
    /// `matmul`, row-parallel like [`FwdCtx32::attention_head`].
    pub fn attention_head_probs(
        &mut self,
        q: FVar32,
        k: FVar32,
        v: FVar32,
        scale: f32,
    ) -> (FVar32, FVar32) {
        let (m, n) = (self.slots[q.0].rows(), self.slots[k.0].rows());
        let _busy = par::forward();
        let lease = par::global().lanes_for(m, n);
        let scores = self.alloc(m, n);
        let probs = self.alloc(m, n);
        let out = self.alloc(m, self.slots[v.0].cols());
        let FwdCtx32 { slots, attn, .. } = self;
        let (head, tail) = slots.split_at_mut(scores.0);
        let [s, p, o, ..] = tail else { unreachable!("three slots were just allocated") };
        kernels_f32::attention_probs_into(
            &head[q.0],
            &head[k.0],
            &head[v.0],
            scale,
            1 + lease.helpers(),
            &mut attn.kt,
            [s, p, o],
        );
        (out, probs)
    }

    /// Block-sparse multi-head attention over the PM-tree cliques (the
    /// f32 mirror of [`crate::infer::FwdCtx::tree_attention`]). Rows
    /// outside every group are zeroed; callers must ensure groups cover
    /// all rows.
    pub fn tree_attention(
        &mut self,
        q_all: FVar32,
        k_all: FVar32,
        v_all: FVar32,
        heads: usize,
        scale: f32,
        groups: &TreeGroups,
    ) -> FVar32 {
        let s_rows = self.slots[q_all.0].rows();
        let d_model = self.slots[q_all.0].cols();
        let dh = d_model / heads;
        let out = self.alloc(s_rows, d_model);
        let FwdCtx32 { slots, scratch, .. } = self;
        let (head_slots, tail) = slots.split_at_mut(out.0);
        let o = &mut tail[0];
        o.data_mut().fill(0.0);
        let (q, k, v) = (&head_slots[q_all.0], &head_slots[k_all.0], &head_slots[v_all.0]);
        for g in 0..groups.len() {
            let members = groups.group(g);
            let t = members.len();
            if t == 0 {
                continue;
            }
            scratch.clear();
            scratch.resize(t * t, 0.0);
            for h in 0..heads {
                let col = h * dh;
                for (i, &a) in members.iter().enumerate() {
                    let qa = &q.row_slice(a)[col..col + dh];
                    for (j, &b) in members.iter().enumerate() {
                        let kb = &k.row_slice(b)[col..col + dh];
                        let mut acc = 0.0f32;
                        for (&x, &y) in qa.iter().zip(kb) {
                            acc += x * y;
                        }
                        scratch[i * t + j] = acc * scale;
                    }
                }
                for i in 0..t {
                    kernels_f32::softmax_row_seq(&mut scratch[i * t..(i + 1) * t]);
                }
                for (i, &a) in members.iter().enumerate() {
                    let o_cols = o.cols();
                    let o_row = &mut o.data_mut()[a * o_cols + col..a * o_cols + col + dh];
                    for (j, &b) in members.iter().enumerate() {
                        let p = scratch[i * t + j];
                        if p == 0.0 {
                            continue;
                        }
                        let vb = &v.row_slice(b)[col..col + dh];
                        for (ov, &vv) in o_row.iter_mut().zip(vb) {
                            *ov += p * vv;
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_reuses_slots_across_resets() {
        let mut ctx = FwdCtx32::new();
        let a = ctx.input32(&Tensor32::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = ctx.input32(&Tensor32::from_vec(2, 2, vec![0.5, 0.0, 0.0, 0.5]));
        let c = ctx.matmul(a, b);
        assert_eq!(ctx.value(c).data(), &[0.5, 1.0, 1.5, 2.0]);
        assert_eq!(ctx.live(), 3);
        ctx.reset();
        let a2 = ctx.input32(&Tensor32::from_vec(1, 3, vec![1.0, -1.0, 2.0]));
        assert_eq!(a2, FVar32(0), "slots are reissued after reset");
        assert_eq!(ctx.value(a2).cols(), 3, "slot reshaped in place");
    }

    #[test]
    fn input_casts_f64_features() {
        let mut ctx = FwdCtx32::new();
        let x = ctx.input(&Tensor::from_vec(1, 2, vec![0.5, -3.0]));
        assert_eq!(ctx.value(x).data(), &[0.5f32, -3.0]);
    }

    #[test]
    fn linear_matches_manual() {
        let mut ctx = FwdCtx32::new();
        let w = Tensor32::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]);
        let b = Tensor32::from_vec(1, 2, vec![10.0, 20.0]);
        let x = ctx.input32(&Tensor32::from_vec(1, 2, vec![3.0, 4.0]));
        let y = ctx.linear(x, &w, &b);
        assert_eq!(ctx.value(y).data(), &[13.0, 28.0]);
    }

    #[test]
    fn write_cols_assembles_heads() {
        let mut ctx = FwdCtx32::new();
        let dst = ctx.full(2, 4, 0.0);
        let left = ctx.input32(&Tensor32::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let right = ctx.input32(&Tensor32::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        ctx.write_cols(dst, left, 0);
        ctx.write_cols(dst, right, 2);
        assert_eq!(ctx.value(dst).data(), &[1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0]);
    }
}
