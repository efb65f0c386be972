//! Tape-free forward evaluation with an arena of reusable scratch tensors.
//!
//! [`FwdCtx`] is the inference counterpart of [`crate::graph::Graph`]: it
//! evaluates the same layer stacks through the same [`crate::kernels`],
//! but records nothing — no ops, no parameter clones, no gradient
//! bookkeeping. Every intermediate lives in an arena slot that is reused
//! on the next [`FwdCtx::reset`], so a steady-state forward pass performs
//! **zero heap allocations** (enforced by `tests/alloc_free.rs` with a
//! counting allocator).
//!
//! In f64 (the default) outputs are bit-identical to the `Graph` path by
//! construction: both engines call the same kernels, and where this
//! engine takes a shortcut (the transpose-free `A·Bᵀ` score kernel,
//! block-sparse tree attention) the kernel-level accumulation order is
//! provably unchanged (see `crates/nn/src/kernels.rs` and the
//! `prop_fwdctx` suite). `FwdCtx<f32>` is the same arena over the same
//! kernels at the other [`Scalar`]: weights arrive cast once
//! ([`crate::layers::Linear::from_f64`]), features are cast at
//! [`FwdCtx::input`], and its contract against f64 is the tolerance gate
//! described in [`crate::kernels`], not bit-identity.

use crate::classes::{same_bits, RowClasses};
use crate::kernels::{self, TreeScratch};
use crate::par::{self, AttnScratch};
use crate::scalar::Scalar;
use crate::tensor::Tensor;

/// Handle to an arena slot. Only valid for the [`FwdCtx`] that issued it,
/// until the next [`FwdCtx::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FVar(usize);

/// Tree topology for block-sparse local attention, in CSR form: group `g`
/// owns `members[starts[g]..starts[g + 1]]`, each a row index into the
/// combined `[PMs ++ VMs]` sequence, strictly ascending within a group;
/// no row is in two groups.
///
/// Running attention per group is bit-identical to dense attention under
/// the equivalent additive tree mask: masked positions contribute an
/// exact `0.0` probability, which drops out of every sum.
#[derive(Debug, Clone, Default)]
pub struct TreeGroups {
    /// CSR offsets, `groups + 1` entries.
    pub starts: Vec<usize>,
    /// Concatenated member row indices.
    pub members: Vec<usize>,
}

impl TreeGroups {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// True when no groups are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Member rows of group `g`.
    pub fn group(&self, g: usize) -> &[usize] {
        &self.members[self.starts[g]..self.starts[g + 1]]
    }
}

/// The forward-only evaluation context.
#[derive(Debug, Default)]
pub struct FwdCtx<S = f64> {
    slots: Vec<Tensor<S>>,
    cursor: usize,
    /// Tree-stage scratch: one tree's gathered rows and its key map.
    tree: TreeScratch<S>,
    /// Dense attention scratch: shared `kᵀ` plus one score tile per lane.
    attn: AttnScratch<S>,
    /// Row classes of the forward in flight (see [`crate::classes`]).
    classes: RowClasses,
}

impl<S: Scalar> FwdCtx<S> {
    /// Empty context.
    pub fn new() -> Self {
        FwdCtx::default()
    }

    /// Rewinds the arena; existing slot buffers are kept for reuse. The
    /// row classes of the last forward are forgotten with the slots they
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
    /// unspecified; every op fully overwrites its output.
    ///
    /// While rows are shared by class, a slot with one row per class —
    /// or, in the tree stage, the rows before the classified ones and
    /// then one per class — reserves room for every row the classes
    /// stand for: the class count moves from step to step, and the
    /// arena's size must follow the cluster (as it did before classes),
    /// not the largest count seen.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> FVar {
        if self.cursor == self.slots.len() {
            self.slots.push(Tensor::zeros(0, 0));
        }
        let slot = &mut self.slots[self.cursor];
        let c = &self.classes;
        if c.shared() && (rows == c.distinct() || rows == c.first() + c.distinct()) {
            slot.reserve_total((rows - c.distinct() + c.total()) * cols);
        }
        slot.reshape_reuse(rows, cols);
        let v = FVar(self.cursor);
        self.cursor += 1;
        v
    }

    /// The tensor behind a slot.
    pub fn value(&self, v: FVar) -> &Tensor<S> {
        &self.slots[v.0]
    }

    /// Mutable access to a slot (mask writing, in-place tweaks).
    pub fn value_mut(&mut self, v: FVar) -> &mut Tensor<S> {
        &mut self.slots[v.0]
    }

    /// Splits the arena into the inputs (indices `< out`) and the output.
    fn split(&mut self, out: FVar) -> (&[Tensor<S>], &mut Tensor<S>) {
        let (head, tail) = self.slots.split_at_mut(out.0);
        (head, &mut tail[0])
    }

    /// Copies an external f64 tensor into the arena, cast to `S` — the
    /// feature-input boundary (features stay f64 upstream).
    pub fn input(&mut self, t: &Tensor) -> FVar {
        let v = self.alloc(t.rows(), t.cols());
        self.slots[v.0].copy_from_f64(t);
        v
    }

    /// Copies a flat slice into a `1 × n` slot.
    pub fn input_row(&mut self, data: &[S]) -> FVar {
        let v = self.alloc(1, data.len());
        self.slots[v.0].data_mut().copy_from_slice(data);
        v
    }

    /// Constant-filled slot.
    pub fn full(&mut self, rows: usize, cols: usize, value: S) -> FVar {
        let v = self.alloc(rows, cols);
        self.slots[v.0].data_mut().fill(value);
        v
    }

    /// `x · W + b` (the [`crate::layers::Linear`] forward).
    ///
    /// # Panics
    /// Panics unless `b` is `1 × w.cols()` — a narrower bias would leave
    /// output columns without one.
    pub fn linear(&mut self, x: FVar, w: &Tensor<S>, b: &Tensor<S>) -> FVar {
        assert_eq!((b.rows(), b.cols()), (1, w.cols()), "bias must be a 1 × out row");
        let out = self.alloc(self.slots[x.0].rows(), w.cols());
        let (head, o) = self.split(out);
        kernels::matmul_into(&head[x.0], w, o);
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
    pub fn matmul(&mut self, a: FVar, b: FVar) -> FVar {
        let out = self.alloc(self.slots[a.0].rows(), self.slots[b.0].cols());
        let (head, o) = self.split(out);
        kernels::matmul_into(&head[a.0], &head[b.0], o);
        out
    }

    /// `(a · bᵀ) * alpha` — the attention-score kernel with the head
    /// scale fused into the store.
    pub fn matmul_nt_scaled(&mut self, a: FVar, b: FVar, alpha: S) -> FVar {
        let out = self.alloc(self.slots[a.0].rows(), self.slots[b.0].rows());
        let (head, o) = self.split(out);
        kernels::matmul_nt_scaled_into(&head[a.0], &head[b.0], alpha, o);
        out
    }

    /// Sparse-aware matrix product (left operand mostly exact zeros).
    pub fn matmul_sparse(&mut self, a: FVar, b: FVar) -> FVar {
        let out = self.alloc(self.slots[a.0].rows(), self.slots[b.0].cols());
        let (head, o) = self.split(out);
        kernels::matmul_sparse_into(&head[a.0], &head[b.0], o);
        out
    }

    /// Elementwise sum into a fresh slot.
    pub fn add(&mut self, a: FVar, b: FVar) -> FVar {
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
    pub fn add_assign(&mut self, dst: FVar, src: FVar) {
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
    pub fn scale_assign(&mut self, x: FVar, alpha: S) {
        for v in self.slots[x.0].data_mut() {
            *v *= alpha;
        }
    }

    /// ReLU in place.
    pub fn relu_assign(&mut self, x: FVar) {
        for v in self.slots[x.0].data_mut() {
            *v = v.max(S::ZERO);
        }
    }

    /// Row-wise masked softmax (additive mask tensor, `None` = unmasked).
    pub fn masked_softmax(&mut self, x: FVar, mask: Option<&Tensor<S>>) -> FVar {
        let out = self.alloc(self.slots[x.0].rows(), self.slots[x.0].cols());
        let (head, o) = self.split(out);
        kernels::masked_softmax_into(&head[x.0], mask, o);
        out
    }

    /// Layer norm with affine parameters (the [`crate::layers::LayerNorm`]
    /// forward): standardize, then `· gamma`, then `+ beta`.
    pub fn layer_norm_affine(
        &mut self,
        x: FVar,
        gamma: &Tensor<S>,
        beta: &Tensor<S>,
        eps: S,
    ) -> FVar {
        let out = self.alloc(self.slots[x.0].rows(), self.slots[x.0].cols());
        let (head, o) = self.split(out);
        kernels::layer_norm_into(&head[x.0], eps, o);
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
    pub fn mean_rows(&mut self, x: FVar) -> FVar {
        let out = self.alloc(1, self.slots[x.0].cols());
        let (head, o) = self.split(out);
        kernels::mean_rows_into(&head[x.0], o);
        out
    }

    /// Horizontal concatenation.
    pub fn hcat(&mut self, a: FVar, b: FVar) -> FVar {
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
    pub fn vcat(&mut self, a: FVar, b: FVar) -> FVar {
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
    pub fn rows_range(&mut self, x: FVar, start: usize, len: usize) -> FVar {
        let c = self.slots[x.0].cols();
        assert!(start + len <= self.slots[x.0].rows(), "row range out of bounds");
        let out = self.alloc(len, c);
        let (head, o) = self.split(out);
        o.data_mut().copy_from_slice(&head[x.0].data()[start * c..(start + len) * c]);
        out
    }

    /// Copies one row into a fresh `1 × d` slot.
    pub fn select_row(&mut self, x: FVar, idx: usize) -> FVar {
        self.rows_range(x, idx, 1)
    }

    /// Copies a contiguous block of columns into a fresh slot.
    pub fn slice_cols(&mut self, x: FVar, start: usize, len: usize) -> FVar {
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
    /// `dst` (head-concatenation without the intermediate copies).
    pub fn write_cols(&mut self, dst: FVar, src: FVar, col_start: usize) {
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
    pub fn reshape(&mut self, x: FVar, rows: usize, cols: usize) -> FVar {
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
            + self.tree.capacity()
            + self.attn.capacity()
            + self.classes.capacity()
    }

    /// Finds the row classes of the rows of `x` — bit-equal rows within
    /// one group of `groups`, whose members index a sequence in which the
    /// rows of `x` start at `first` (no groups: every row is its own
    /// class). The map stays current until the next search or
    /// [`FwdCtx::reset`].
    pub fn find_row_classes(&mut self, x: FVar, first: usize, groups: Option<&TreeGroups>) {
        let FwdCtx { slots, classes, .. } = self;
        let t = &slots[x.0];
        classes.find(t.rows(), first, groups, |a, b| same_bits(t.row_slice(a), t.row_slice(b)));
    }

    /// The current row classes.
    pub fn row_classes(&self) -> &RowClasses {
        &self.classes
    }

    /// One representative row per class of the rows of `x`, the rows the
    /// last search classified: `x` itself when every class is a
    /// singleton.
    pub fn class_rows(&mut self, x: FVar) -> FVar {
        if !self.classes.shared() {
            return x;
        }
        assert_eq!(self.slots[x.0].rows(), self.classes.total(), "one row per classified row");
        self.gather_rows(x, RowClasses::reps)
    }

    /// Gives every row its class's row of `x` (one row per class) back:
    /// the inverse of [`FwdCtx::class_rows`]. `x` itself when every class
    /// is a singleton.
    pub fn expand_rows(&mut self, x: FVar) -> FVar {
        if !self.classes.shared() {
            return x;
        }
        assert_eq!(self.slots[x.0].rows(), self.classes.distinct(), "one row per class expected");
        self.gather_rows(x, RowClasses::class_of)
    }

    /// A fresh slot whose row `i` is row `rows[i]` of `x`, for one of the
    /// class maps.
    fn gather_rows(&mut self, x: FVar, rows: fn(&RowClasses) -> &[u32]) -> FVar {
        let c = self.slots[x.0].cols();
        let out = self.alloc(rows(&self.classes).len(), c);
        let FwdCtx { slots, classes, .. } = self;
        let (head, tail) = slots.split_at_mut(out.0);
        let src = head[x.0].data();
        for (dst, &r) in tail[0].data_mut().chunks_exact_mut(c.max(1)).zip(rows(classes)) {
            let r = r as usize;
            dst.copy_from_slice(&src[r * c..(r + 1) * c]);
        }
        out
    }

    /// Fused unmasked single-head attention (`softmax(q·kᵀ·scale)·v`)
    /// through cache-resident score tiles — no n×n score or probability
    /// matrix is ever materialized. Bit-identical to the unfused kernel
    /// chain (see [`kernels::attention_head_into`]). Large calls borrow idle
    /// cores as extra row lanes ([`par::Budget::lanes_for`]); the result
    /// does not depend on how many they get.
    ///
    /// With `keys_by_class`, `k`/`v` hold one row per current row class
    /// and the attended sequence is every row those classes stand for, in
    /// its original order — bit-identical to passing the expanded `k`/`v`.
    pub fn attention_head(
        &mut self,
        q: FVar,
        k: FVar,
        v: FVar,
        scale: S,
        keys_by_class: bool,
    ) -> FVar {
        let (m, dh) = (self.slots[q.0].rows(), self.slots[q.0].cols());
        let _busy = par::forward();
        // The work is the scores actually computed: one per distinct key.
        let lease = par::global().lanes_for(m, self.slots[k.0].rows());
        let out = self.alloc(m, dh);
        let FwdCtx { slots, attn, classes, .. } = self;
        let (head, tail) = slots.split_at_mut(out.0);
        kernels::attention_head_into(
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
    /// `matmul`, row-parallel like [`FwdCtx::attention_head`].
    pub fn attention_head_probs(&mut self, q: FVar, k: FVar, v: FVar, scale: S) -> (FVar, FVar) {
        let (m, n) = (self.slots[q.0].rows(), self.slots[k.0].rows());
        let _busy = par::forward();
        let lease = par::global().lanes_for(m, n);
        let scores = self.alloc(m, n);
        let probs = self.alloc(m, n);
        let out = self.alloc(m, self.slots[v.0].cols());
        let FwdCtx { slots, attn, .. } = self;
        let (head, tail) = slots.split_at_mut(scores.0);
        let [s, p, o, ..] = tail else { unreachable!("three slots were just allocated") };
        kernels::attention_probs_into(
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

    /// Block-sparse multi-head attention over a combined sequence whose
    /// attention pattern is the union of the cliques in `groups` (the
    /// paper's tree-local stage). `q_all`/`k_all`/`v_all` are the fully
    /// projected `S × d_model` matrices; the result is the concatenated
    /// per-head output (pre-`W_o`), with rows outside every group
    /// zero-filled — callers ensure groups cover all rows (every entity is
    /// in its host tree).
    ///
    /// After a row-class search the sequence is given by class: the rows
    /// before the classified ones, then one row per class, and each group
    /// member reads its class's row ([`kernels::tree_attention_into`]).
    /// Either way the result is bit-identical to dense attention under
    /// the equivalent additive mask on the expanded sequence.
    pub fn tree_attention(
        &mut self,
        q_all: FVar,
        k_all: FVar,
        v_all: FVar,
        heads: usize,
        scale: S,
        groups: &TreeGroups,
    ) -> FVar {
        let (rows, d_model) = (self.slots[q_all.0].rows(), self.slots[q_all.0].cols());
        let out = self.alloc(rows, d_model);
        let FwdCtx { slots, tree, classes, .. } = self;
        if classes.total() > 0 {
            let want = classes.first() + classes.distinct();
            assert_eq!(rows, want, "the tree stage runs on one row per class");
        }
        let (head, tail) = slots.split_at_mut(out.0);
        kernels::tree_attention_into(
            [&head[q_all.0], &head[k_all.0], &head[v_all.0]],
            groups,
            classes.shared().then(|| (classes.first(), classes.class_of())),
            heads,
            scale,
            tree,
            &mut tail[0],
        );
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! One generic body per case; the f32 instantiations run from
    //! [`crate::infer32`]'s tests.

    use super::*;

    pub(crate) fn arena_reuses_slots_across_resets_in<S: Scalar>() {
        let mut ctx = FwdCtx::<S>::new();
        let a = ctx.input(&Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = ctx.input(&Tensor::from_vec(2, 2, vec![0.5, 0.0, 0.0, 0.5]));
        let c = ctx.matmul(a, b);
        assert_eq!(ctx.value(c).to_f64().data(), &[0.5, 1.0, 1.5, 2.0]);
        assert_eq!(ctx.live(), 3);
        ctx.reset();
        let a2 = ctx.input(&Tensor::from_vec(1, 3, vec![1.0, -1.0, 2.0]));
        assert_eq!(a2, FVar(0), "slots are reissued after reset");
        assert_eq!(ctx.value(a2).cols(), 3, "slot reshaped in place");
    }

    pub(crate) fn linear_matches_manual_in<S: Scalar>() {
        let mut ctx = FwdCtx::<S>::new();
        let w = Tensor::from_f64(&Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]));
        let b = Tensor::from_f64(&Tensor::row(vec![10.0, 20.0]));
        let x = ctx.input(&Tensor::from_vec(1, 2, vec![3.0, 4.0]));
        let y = ctx.linear(x, &w, &b);
        assert_eq!(ctx.value(y).to_f64().data(), &[13.0, 28.0]);
    }

    pub(crate) fn write_cols_assembles_heads_in<S: Scalar>() {
        let mut ctx = FwdCtx::<S>::new();
        let dst = ctx.full(2, 4, S::ZERO);
        let left = ctx.input(&Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let right = ctx.input(&Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        ctx.write_cols(dst, left, 0);
        ctx.write_cols(dst, right, 2);
        assert_eq!(ctx.value(dst).to_f64().data(), &[1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0]);
    }

    #[test]
    fn arena_reuses_slots_across_resets() {
        arena_reuses_slots_across_resets_in::<f64>();
    }

    #[test]
    fn linear_matches_manual() {
        linear_matches_manual_in::<f64>();
    }

    #[test]
    fn write_cols_assembles_heads() {
        write_cols_assembles_heads_in::<f64>();
    }

    #[test]
    #[should_panic(expected = "bias must be a 1 × out row")]
    fn linear_rejects_a_narrow_bias() {
        let mut ctx = FwdCtx::<f64>::new();
        let w = Tensor::from_vec(2, 3, vec![1.0; 6]);
        let x = ctx.input(&Tensor::from_vec(1, 2, vec![3.0, 4.0]));
        ctx.linear(x, &w, &Tensor::row(vec![10.0, 20.0]));
    }
}
