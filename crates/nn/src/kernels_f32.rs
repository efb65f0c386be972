//! Single-precision twins of the hot [`crate::kernels`] routines — the
//! f32/SIMD inference fast path.
//!
//! These kernels trade the f64 engines' bit-identity discipline for
//! throughput: halving the element width doubles the useful SIMD lane
//! count and halves memory traffic, and the inner loops are restructured
//! into fixed-width eight-lane chunks so the autovectorizer emits packed
//! f32 arithmetic. Equivalence with the f64 reference is therefore a
//! *tolerance contract*, not an equality: each kernel's result must land
//! within a condition-aware ULP/epsilon bound of the f64 kernel run on
//! the same (f32-cast) inputs — enforced by
//! `crates/nn/tests/prop_f32_kernels.rs` and, end to end, by the plan
//! equivalence suite in `tests/integration_precision.rs`.
//!
//! Accumulation order deliberately differs from the f64 kernels where it
//! buys speed (eight-lane partial sums instead of one sequential
//! accumulator); nothing downstream of this module may assume bitwise
//! reproducibility against the f64 path.

use crate::kernels::L1_TILE;
use crate::par::{run_row_lanes, AttnScratch, HeadInputs};
use crate::tensor32::Tensor32;

/// f32 analog of [`crate::kernels::MASK_NEG_THRESHOLD`].
pub const MASK_NEG_THRESHOLD_F32: f32 = -1.0e20;

/// f32 analog of [`crate::kernels::MASK_OFF`]. Still well inside the f32
/// range (max ≈ 3.4e38), and `exp(x − 1.0e30)` underflows to an exact
/// `+0.0` for any representable `x`.
pub const MASK_OFF_F32: f32 = -1.0e30;

/// Column-tile width of the cache-blocked GEMM: eight SIMD lanes per
/// [`L1_TILE`] step, so an output row tile (1 KiB) plus the streamed `b`
/// rows stay L1-resident for the wide embedding matmuls.
const NB: usize = 8 * L1_TILE;

/// `y += alpha · x` over eight-lane chunks. The chunk slices are cast to
/// `[f32; 8]` arrays so the lane loop carries no bounds checks — without
/// the cast the autovectorizer refuses the loop and every kernel built
/// on this pattern runs scalar.
#[inline]
fn axpy8(alpha: f32, x: &[f32], y: &mut [f32]) {
    let mut yc = y.chunks_exact_mut(8);
    let mut xc = x.chunks_exact(8);
    for (y8, x8) in yc.by_ref().zip(xc.by_ref()) {
        let y8: &mut [f32; 8] = y8.try_into().expect("chunk");
        let x8: &[f32; 8] = x8.try_into().expect("chunk");
        for l in 0..8 {
            y8[l] += alpha * x8[l];
        }
    }
    for (o, &bv) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *o += alpha * bv;
    }
}

/// `out = a · b` (dense, f32). `out` must be pre-shaped `a.rows × b.cols`.
///
/// Cache-blocked over output columns ([`NB`]-wide tiles) with the inner
/// loop split into `chunks_exact(8)` lanes — the shape the
/// autovectorizer turns into packed f32 FMAs. Narrow outputs (≤ 16
/// columns) take a stack-accumulator path instead.
pub fn matmul_into(a: &Tensor32, b: &Tensor32, out: &mut Tensor32) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "matmul inner dimension mismatch");
    assert_eq!((out.rows(), out.cols()), (m, n), "matmul output shape mismatch");
    matmul_rows(a.data(), k, b.data(), n, out.data_mut());
}

/// [`matmul_into`] over row-major slices: `a` holds `out.len() / n` rows
/// of width `k`. Rows are independent, so any contiguous row range of
/// `a`/`out` yields the bits it would inside the full product — the unit
/// [`crate::par::run_row_lanes`] hands a lane.
fn matmul_rows(a: &[f32], k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    if n <= 16 {
        // Head-width outputs get const-width instantiations whose inner
        // loops fully unroll, like the f64 twin's `matmul_narrow`.
        return match n {
            8 => matmul_narrow::<8>(a, k, bd, out),
            12 => matmul_narrow::<12>(a, k, bd, out),
            16 => matmul_narrow::<16>(a, k, bd, out),
            _ => matmul_narrow_dyn(a, k, bd, n, out),
        };
    }
    for jb in (0..n).step_by(NB) {
        let jh = (jb + NB).min(n);
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            let o_row = &mut o_row[jb..jh];
            o_row.fill(0.0);
            for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                axpy8(av, &bd[kk * n + jb..kk * n + jh], o_row);
            }
        }
    }
}

/// Narrow-output f32 matmul with a compile-time width: two rows of `a`
/// per `b` pass, stack accumulators, fully unrollable lane loops
/// (attention `probs · V` at a head width).
fn matmul_narrow<const N: usize>(a: &[f32], k: usize, bd: &[f32], out: &mut [f32]) {
    let m = out.len() / N;
    let mut i = 0;
    while i + 2 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let mut acc0 = [0.0f32; N];
        let mut acc1 = [0.0f32; N];
        for (kk, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
            let b_row: &[f32; N] = bd[kk * N..(kk + 1) * N].try_into().expect("width");
            for l in 0..N {
                acc0[l] += x0 * b_row[l];
                acc1[l] += x1 * b_row[l];
            }
        }
        out[i * N..(i + 1) * N].copy_from_slice(&acc0);
        out[(i + 1) * N..(i + 2) * N].copy_from_slice(&acc1);
        i += 2;
    }
    if i < m {
        let a_row = &a[i * k..(i + 1) * k];
        let mut acc = [0.0f32; N];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row: &[f32; N] = bd[kk * N..(kk + 1) * N].try_into().expect("width");
            for l in 0..N {
                acc[l] += av * b_row[l];
            }
        }
        out[i * N..(i + 1) * N].copy_from_slice(&acc);
    }
}

/// Runtime-width fallback of [`matmul_narrow`] (odd head widths).
fn matmul_narrow_dyn(a: &[f32], k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    let m = out.len().checked_div(n).unwrap_or(0);
    let mut acc = [0.0f32; 16];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        acc[..n].fill(0.0);
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in acc[..n].iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        out[i * n..(i + 1) * n].copy_from_slice(&acc[..n]);
    }
}

/// Whether a `m × n` score product materializes `bᵀ`: large outputs do
/// (an `O(n·k)` scratch against the `O(m·n·k)` product) so the inner
/// loop becomes contiguous [`axpy8`] passes — strided eight-dot blocks
/// cannot vectorize without gather loads, which the SSE2 baseline lacks.
/// Small outputs keep the direct dot-product path; the scratch would
/// cost more than it saves. Both paths feed each element one accumulator
/// in ascending `k` order.
fn scores_want_transpose(m: usize, n: usize) -> bool {
    n >= 32 && m >= 4
}

/// `out = (a · bᵀ) * alpha` (f32) — the attention-score kernel. Shape
/// checks match [`crate::kernels::matmul_nt_scaled_into`] exactly; see
/// [`scores_want_transpose`] for the two paths.
pub fn matmul_nt_scaled_into(a: &Tensor32, b: &Tensor32, alpha: f32, out: &mut Tensor32) {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    assert_eq!(k, b.cols(), "matmul_nt inner dimension mismatch");
    assert_eq!((out.rows(), out.cols()), (m, n), "matmul_nt output shape mismatch");
    if scores_want_transpose(m, n) {
        let mut bt = vec![0.0f32; k * n];
        transpose_into(b.data(), n, k, &mut bt);
        return t_scaled_rows(a.data(), k, &bt, n, alpha, out.data_mut());
    }
    nt_scaled_rows(a.data(), k, b.data(), n, alpha, out.data_mut());
}

/// The direct dot-product path of [`matmul_nt_scaled_into`] over
/// row-major slices (`a` holds `out.len() / n` rows of width `k`).
fn nt_scaled_rows(a: &[f32], k: usize, bd: &[f32], n: usize, alpha: f32, out: &mut [f32]) {
    /// Rows of `b` per tile (tile bytes ≈ 64 · k · 4; k is a head width
    /// here, so tiles stay well inside L1).
    const JB: usize = 64;
    for jb in (0..n).step_by(JB) {
        let jh = (jb + JB).min(n);
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let mut j = jb;
            while j + 8 <= jh {
                let b0 = &bd[j * k..(j + 1) * k];
                let b1 = &bd[(j + 1) * k..(j + 2) * k];
                let b2 = &bd[(j + 2) * k..(j + 3) * k];
                let b3 = &bd[(j + 3) * k..(j + 4) * k];
                let b4 = &bd[(j + 4) * k..(j + 5) * k];
                let b5 = &bd[(j + 5) * k..(j + 6) * k];
                let b6 = &bd[(j + 6) * k..(j + 7) * k];
                let b7 = &bd[(j + 7) * k..(j + 8) * k];
                let mut acc = [0.0f32; 8];
                for (kk, &x) in a_row.iter().enumerate() {
                    acc[0] += x * b0[kk];
                    acc[1] += x * b1[kk];
                    acc[2] += x * b2[kk];
                    acc[3] += x * b3[kk];
                    acc[4] += x * b4[kk];
                    acc[5] += x * b5[kk];
                    acc[6] += x * b6[kk];
                    acc[7] += x * b7[kk];
                }
                for (step, &a) in acc.iter().enumerate() {
                    o_row[j + step] = a * alpha;
                }
                j += 8;
            }
            for jr in j..jh {
                let b_row = &bd[jr * k..(jr + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                o_row[jr] = acc * alpha;
            }
        }
    }
}

/// `dst[c][r] = src[r][c]` for a row-major `rows × cols` source — the
/// scratch transpose behind the large-`n` score kernels.
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose source shape mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose dest shape mismatch");
    for r in 0..rows {
        let s_row = &src[r * cols..(r + 1) * cols];
        for (c, &v) in s_row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// `out = (a · bt) * alpha` over row-major slices, where `bt` is already
/// transposed (`k × n`): contiguous-axpy GEMM over column blocks of
/// `bt`, so a block (`k · 512` f32s at head widths) stays L1-resident
/// across all rows of `a`. Scale is applied in a separate pass to keep
/// the per-element rounding profile of the direct path.
///
/// Forced inline: the fused head calls this once per score tile, and
/// out of line that call measured 7 % slower per head than the loop
/// written in place (M = 250 and M = 2000, dh = 12); `#[inline]` alone
/// did not move it.
#[inline(always)]
fn t_scaled_rows(a: &[f32], k: usize, bt: &[f32], n: usize, alpha: f32, out: &mut [f32]) {
    /// Columns per block: `k` head-width rows of 2 KiB stay L1-resident.
    const JB: usize = 512;
    for jb in (0..n).step_by(JB) {
        let jh = (jb + JB).min(n);
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            let o_row = &mut o_row[jb..jh];
            o_row.fill(0.0);
            for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                axpy8(av, &bt[kk * n + jb..kk * n + jh], o_row);
            }
            for o in o_row.iter_mut() {
                *o *= alpha;
            }
        }
    }
}

/// Fused single-head attention (f32): `out = softmax(q·kᵀ·scale)·v`
/// through L1-resident score tiles, mirroring
/// [`crate::kernels::attention_head_into`] — row-parallel over `lanes`
/// lanes through the same [`crate::par::run_row_lanes`], same output for
/// every lane count, and the same `key_class` contract: with
/// `Some(c)`, key `j` of the attended sequence is row `c[j]` of `k`/`v`;
/// scores, maximum and exponentials are computed per distinct key, the
/// normalizer and the value sums walk every key in order, and the output
/// equals the call with `k`/`v` expanded to one row per key bit for bit.
/// `kᵀ` is materialized once in the scratch so score rows are produced
/// by contiguous [`axpy8`] passes over [`L1_TILE`]-row tiles, softmaxed
/// in place with the polynomial [`exp_shifted`], and folded into
/// probability-weighted value sums four rows per `v` pass (const-width
/// at the supported head widths).
#[allow(clippy::too_many_arguments)]
pub fn attention_head_into(
    q: &Tensor32,
    k: &Tensor32,
    v: &Tensor32,
    key_class: Option<&[u32]>,
    scale: f32,
    lanes: usize,
    scratch: &mut AttnScratch<f32>,
    out: &mut Tensor32,
) {
    let (m, dh, n) = (q.rows(), q.cols(), k.rows());
    assert_eq!(dh, k.cols(), "attention q/k width mismatch");
    assert_eq!((v.rows(), v.cols()), (n, dh), "attention v shape mismatch");
    assert_eq!((out.rows(), out.cols()), (m, dh), "attention output shape mismatch");
    assert!((1..=16).contains(&dh), "fused attention head supports widths 1 to 16");
    if let Some(class) = key_class {
        assert!(class.iter().all(|&c| (c as usize) < n), "key class out of range");
    }
    let AttnScratch { kt, tiles } = scratch;
    kt.clear();
    // Sized by the attended keys, not the distinct ones, so the scratch
    // follows the sequence length whatever this call's class count is.
    kt.reserve_exact(dh * key_class.map_or(n, <[u32]>::len));
    kt.resize(dh * n, 0.0);
    transpose_into(k.data(), n, dh, kt);
    // The driver clamps to the row-tile count; surplus tiles stay empty.
    let lanes = lanes.max(1);
    if tiles.len() < lanes {
        tiles.resize_with(lanes, Vec::new);
    }
    let head = HeadInputs { kt, v: v.data(), key_class, n, dh, scale };
    let qd = q.data();
    run_row_lanes(m, [(out.data_mut(), dh)], tiles[..lanes].iter_mut(), |rows, [o], tile| {
        attention_rows(&head, &qd[rows.start * dh..rows.end * dh], tile, o);
    });
}

/// The fused head over one lane's query rows, [`L1_TILE`] rows at a time.
fn attention_rows(head: &HeadInputs<f32>, q: &[f32], tile: &mut Vec<f32>, out: &mut [f32]) {
    let HeadInputs { kt, v, key_class, n, dh, scale } = *head;
    let m = q.len() / dh;
    // Half the bytes of the f64 tile at the same row count.
    tile.clear();
    // Reserved for the attended sequence, not this call's class count
    // (which also bounds the query rows of a class-keyed call).
    if let Some(class) = key_class {
        tile.reserve_exact(L1_TILE * class.len());
    }
    tile.resize(L1_TILE.min(m) * n, 0.0);
    for ib in (0..m).step_by(L1_TILE) {
        let ih = (ib + L1_TILE).min(m);
        let tile = &mut tile[..(ih - ib) * n];
        // The score phase is the transposed score kernel on this tile
        // (see [`scores_want_transpose`] for why the strided dot-product
        // shape cannot vectorize).
        t_scaled_rows(&q[ib * dh..ih * dh], dh, kt, n, scale, tile);
        for s_row in tile.chunks_exact_mut(n.max(1)) {
            let mx = row_max(s_row);
            if !mx.is_finite() || mx <= MASK_NEG_THRESHOLD_F32 {
                s_row.fill(0.0);
                continue;
            }
            for s in s_row.iter_mut() {
                *s = exp_shifted(*s - mx);
            }
            let z = match key_class {
                None => striped_sum(s_row),
                Some(class) => striped_sum_by_class(s_row, class),
            };
            let inv = 1.0 / z;
            for s in s_row.iter_mut() {
                *s *= inv;
            }
        }
        let rows = ib..ih;
        match key_class {
            None => value_sums(tile, n, 0..n, rows, v, dh, out),
            Some(class) => value_sums(tile, n, class.iter().map(|&c| c as usize), rows, v, dh, out),
        }
    }
}

/// Probability-weighted value sums of one score tile; `keys` yields, for
/// every attended key in order, its row in `v` and its column in the
/// tile (see the f64 twin).
fn value_sums(
    tile: &[f32],
    n: usize,
    keys: impl Iterator<Item = usize> + Clone,
    rows: std::ops::Range<usize>,
    vd: &[f32],
    dh: usize,
    out: &mut [f32],
) {
    match dh {
        8 => weighted_value_sums::<8>(tile, n, keys, rows, vd, out),
        12 => weighted_value_sums::<12>(tile, n, keys, rows, vd, out),
        16 => weighted_value_sums::<16>(tile, n, keys, rows, vd, out),
        _ => weighted_value_sums_dyn(tile, n, keys, rows, vd, dh, out),
    }
}

/// Unfused unmasked single-head attention that keeps its scores and
/// probabilities (f32 twin of [`crate::kernels::attention_probs_into`]):
/// [`matmul_nt_scaled_into`] → [`masked_softmax_into`] → [`matmul_into`]
/// run per lane on its row range. The score path is chosen once, from
/// the full shape, and `kᵀ` (when wanted) is built once in `kt` and
/// shared, so a cut never changes which code computes a row.
pub fn attention_probs_into(
    q: &Tensor32,
    k: &Tensor32,
    v: &Tensor32,
    scale: f32,
    lanes: usize,
    kt: &mut Vec<f32>,
    [scores, probs, out]: [&mut Tensor32; 3],
) {
    let (m, dh, n) = (q.rows(), q.cols(), k.rows());
    assert_eq!(dh, k.cols(), "attention q/k width mismatch");
    assert_eq!(n, v.rows(), "attention v shape mismatch");
    let dv = v.cols();
    assert_eq!((scores.rows(), scores.cols()), (m, n), "attention scores shape mismatch");
    assert_eq!((probs.rows(), probs.cols()), (m, n), "attention probs shape mismatch");
    assert_eq!((out.rows(), out.cols()), (m, dv), "attention output shape mismatch");
    let transposed = scores_want_transpose(m, n);
    if transposed {
        kt.clear();
        kt.resize(dh * n, 0.0);
        transpose_into(k.data(), n, dh, kt);
    }
    let (qd, kd, vd, kt) = (q.data(), k.data(), v.data(), &kt[..]);
    let outs = [(scores.data_mut(), n), (probs.data_mut(), n), (out.data_mut(), dv)];
    run_row_lanes(m, outs, (0..lanes.max(1)).map(|_| ()), |rows, [s, p, o], ()| {
        let q_rows = &qd[rows.start * dh..rows.end * dh];
        if transposed {
            t_scaled_rows(q_rows, dh, kt, n, scale, s);
        } else {
            nt_scaled_rows(q_rows, dh, kd, n, scale, s);
        }
        softmax_rows(s, n, p);
        matmul_rows(p, n, vd, dv, o);
    });
}

/// Const-width output phase of the fused attention kernel: probability-
/// weighted value sums, four score rows per `v` pass, fully unrollable
/// lane loops.
fn weighted_value_sums<const DH: usize>(
    tile: &[f32],
    n: usize,
    keys: impl Iterator<Item = usize> + Clone,
    rows: std::ops::Range<usize>,
    vd: &[f32],
    out: &mut [f32],
) {
    let (ib, ih) = (rows.start, rows.end);
    let mut acc = [[0.0f32; DH]; 4];
    let mut i = ib;
    while i < ih {
        let rows = (ih - i).min(4);
        for a in acc.iter_mut().take(rows) {
            a.fill(0.0);
        }
        for kk in keys.clone() {
            let b_row: &[f32; DH] = vd[kk * DH..(kk + 1) * DH].try_into().expect("width");
            for (r, a) in acc.iter_mut().take(rows).enumerate() {
                let p = tile[(i - ib + r) * n + kk];
                for l in 0..DH {
                    a[l] += p * b_row[l];
                }
            }
        }
        for (r, a) in acc.iter().take(rows).enumerate() {
            out[(i + r) * DH..(i + r + 1) * DH].copy_from_slice(a);
        }
        i += rows;
    }
}

/// The fused attention kernel's output phase: probability-weighted value
/// sums, four score rows per `v` pass.
fn weighted_value_sums_dyn(
    tile: &[f32],
    n: usize,
    keys: impl Iterator<Item = usize> + Clone,
    rows: std::ops::Range<usize>,
    vd: &[f32],
    dh: usize,
    out: &mut [f32],
) {
    let (ib, ih) = (rows.start, rows.end);
    let mut acc = [[0.0f32; 16]; 4];
    let mut i = ib;
    while i < ih {
        let rows = (ih - i).min(4);
        for a in acc.iter_mut().take(rows) {
            a[..dh].fill(0.0);
        }
        for kk in keys.clone() {
            let b_row = &vd[kk * dh..(kk + 1) * dh];
            for (r, a) in acc.iter_mut().take(rows).enumerate() {
                let p = tile[(i - ib + r) * n + kk];
                for (o, &bv) in a[..dh].iter_mut().zip(b_row) {
                    *o += p * bv;
                }
            }
        }
        for (r, a) in acc.iter().take(rows).enumerate() {
            out[(i + r) * dh..(i + r + 1) * dh].copy_from_slice(&a[..dh]);
        }
        i += rows;
    }
}

/// `out = a · b` with exact-zero skip on the left operand (masked
/// attention probabilities, f32).
pub fn matmul_sparse_into(a: &Tensor32, b: &Tensor32, out: &mut Tensor32) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "matmul inner dimension mismatch");
    assert_eq!((out.rows(), out.cols()), (m, n), "matmul output shape mismatch");
    let bd = b.data();
    for i in 0..m {
        let a_row = a.row_slice(i);
        let o_row = &mut out.data_mut()[i * n..(i + 1) * n];
        o_row.fill(0.0);
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Row-wise softmax of `x + mask` (f32); `mask = None` is the unmasked
/// fast path. Fully-masked / non-finite rows come out all-zero, like the
/// f64 kernel.
pub fn masked_softmax_into(x: &Tensor32, mask: Option<&Tensor32>, out: &mut Tensor32) {
    assert_eq!((out.rows(), out.cols()), (x.rows(), x.cols()), "softmax output shape mismatch");
    let Some(mask) = mask else {
        return softmax_rows(x.data(), x.cols(), out.data_mut());
    };
    assert_eq!(x.rows(), mask.rows(), "mask row mismatch");
    assert_eq!(x.cols(), mask.cols(), "mask col mismatch");
    for r in 0..x.rows() {
        let row = x.row_slice(r);
        let mrow = mask.row_slice(r);
        let o_row = &mut out.data_mut()[r * row.len()..(r + 1) * row.len()];
        let mut mx = f32::NEG_INFINITY;
        for (&v, &mv) in row.iter().zip(mrow) {
            mx = mx.max(v + mv);
        }
        if !mx.is_finite() || mx <= MASK_NEG_THRESHOLD_F32 {
            o_row.fill(0.0);
            continue;
        }
        let mut z = 0.0f32;
        for ((o, &v), &mv) in o_row.iter_mut().zip(row).zip(mrow) {
            let e = if mv <= MASK_NEG_THRESHOLD_F32 { 0.0 } else { (v + mv - mx).exp() };
            *o = e;
            z += e;
        }
        let inv = 1.0 / z;
        for o in o_row.iter_mut() {
            *o *= inv;
        }
    }
}

/// Unmasked row-wise softmax over row-major slices of width `n`.
fn softmax_rows(x: &[f32], n: usize, out: &mut [f32]) {
    for (row, o_row) in x.chunks_exact(n.max(1)).zip(out.chunks_exact_mut(n.max(1))) {
        let mx = row_max(row);
        if !mx.is_finite() || mx <= MASK_NEG_THRESHOLD_F32 {
            o_row.fill(0.0);
            continue;
        }
        for (o, &v) in o_row.iter_mut().zip(row) {
            *o = exp_shifted(v - mx);
        }
        let inv = 1.0 / striped_sum(o_row);
        for o in o_row.iter_mut() {
            *o *= inv;
        }
    }
}

/// f32 `exp` for max-shifted softmax arguments (`x ≤ 0`): the f32
/// build of [`crate::kernels`]' branchless range-reduced polynomial.
/// Relative error ≤ ~2 f32 ULPs over the softmax input range;
/// `exp_shifted(0.0)` is exactly `1.0`.
#[inline]
// The LN2_HI literal spells out the exactly-representable 11-bit value;
// truncating it as clippy suggests would hide that it is exact.
#[allow(clippy::excessive_precision)]
pub(crate) fn exp_shifted(x: f32) -> f32 {
    // Clamp so `k ≥ −126` keeps 2^k in the normal f32 range (the bit
    // trick below builds the exponent field directly).
    let x = x.max(-87.0);
    const INV_LN2: f32 = std::f32::consts::LOG2_E;
    // ln2 split hi/lo: the hi part has 11 mantissa bits, so `k · LN2_HI`
    // is exact for every |k| ≤ 4096 that the clamp admits.
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Round-to-nearest via the 1.5·2^23 magic constant.
    const MAGIC: f32 = 12_582_912.0;
    let t = x * INV_LN2 + MAGIC;
    let kf = t - MAGIC;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    // `t` is exactly MAGIC + k, so its low mantissa bits hold 2^22 + k;
    // 2^k is rebuilt with integer arithmetic only (auto-vectorizable).
    let mantissa = t.to_bits() & ((1u32 << 23) - 1);
    let exp2k = f32::from_bits((mantissa - ((1u32 << 22) - 127)) << 23);
    // Degree-7 Taylor of exp(r) on |r| ≤ ln2/2 (tail ≈ 5e-9 relative,
    // far below f32 epsilon).
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (1.0 / 6.0
                    + r * (1.0 / 24.0
                        + r * (1.0 / 120.0 + r * (1.0 / 720.0 + r * (1.0 / 5040.0)))))));
    p * exp2k
}

/// Sequential-sum softmax of one f32 row in place (tree-attention member
/// rows). Fully-masked / non-finite rows become all-zero.
pub(crate) fn softmax_row_seq(row: &mut [f32]) {
    let mut mx = f32::NEG_INFINITY;
    for &s in row.iter() {
        mx = mx.max(s);
    }
    if !mx.is_finite() || mx <= MASK_NEG_THRESHOLD_F32 {
        row.fill(0.0);
        return;
    }
    let mut z = 0.0f32;
    for s in row.iter_mut() {
        *s = (*s - mx).exp();
        z += *s;
    }
    let inv = 1.0 / z;
    for s in row.iter_mut() {
        *s *= inv;
    }
}

/// Eight-stripe f32 sum (matches the SIMD lane width the rest of the
/// module is shaped for).
fn striped_sum(row: &[f32]) -> f32 {
    let mut s = [0.0f32; 8];
    let mut chunks = row.chunks_exact(8);
    for c in chunks.by_ref() {
        let c: &[f32; 8] = c.try_into().expect("chunk");
        for l in 0..8 {
            s[l] += c[l];
        }
    }
    let mut z = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
    for &v in chunks.remainder() {
        z += v;
    }
    z
}

/// [`striped_sum`] over a sequence given by class: element `j` of the
/// summed sequence is `row[class[j]]`. Same eight stripes, same order of
/// additions as [`striped_sum`] on the expanded sequence.
fn striped_sum_by_class(row: &[f32], class: &[u32]) -> f32 {
    let mut s = [0.0f32; 8];
    let mut chunks = class.chunks_exact(8);
    for c in chunks.by_ref() {
        let c: &[u32; 8] = c.try_into().expect("chunk");
        for l in 0..8 {
            s[l] += row[c[l] as usize];
        }
    }
    let mut z = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
    for &c in chunks.remainder() {
        z += row[c as usize];
    }
    z
}

/// Row maximum with eight independent running maxima, folded by
/// compare-and-select (one packed `max` per step; see the f64 twin for
/// why the value equals the `f32::max` fold's).
fn row_max(row: &[f32]) -> f32 {
    let mut m = [f32::NEG_INFINITY; 8];
    let mut chunks = row.chunks_exact(8);
    for c in chunks.by_ref() {
        let c: &[f32; 8] = c.try_into().expect("chunk");
        for l in 0..8 {
            if c[l] > m[l] {
                m[l] = c[l];
            }
        }
    }
    let mut mx = f32::NEG_INFINITY;
    for &v in m.iter().chain(chunks.remainder()) {
        if v > mx {
            mx = v;
        }
    }
    mx
}

/// Boolean-keep-mask softmax over one f32 logit row, emitting **f64**
/// probabilities so the sampling stack (`Categorical`, quantile
/// thresholds, log-prob accounting) is shared verbatim with the f64
/// path. The max/exp run in f32; normalization runs in f64 so the
/// probabilities sum to 1 at f64 precision.
pub fn masked_softmax_bool_row_f32(x: &[f32], keep: &[bool], out: &mut Vec<f64>) {
    assert_eq!(x.len(), keep.len(), "bool mask length mismatch");
    out.clear();
    out.resize(x.len(), 0.0);
    let mut mx = f32::NEG_INFINITY;
    for (&v, &k) in x.iter().zip(keep) {
        let mv = if k { 0.0 } else { MASK_OFF_F32 };
        mx = mx.max(v + mv);
    }
    if !mx.is_finite() || mx <= MASK_NEG_THRESHOLD_F32 {
        return;
    }
    let mut z = 0.0f64;
    for (c, (&v, &k)) in x.iter().zip(keep).enumerate() {
        let e = if k { f64::from((v - mx).exp()) } else { 0.0 };
        out[c] = e;
        z += e;
    }
    let inv = 1.0 / z;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Row-wise standardization `(x − μ)/σ` with ε-stabilized variance (f32).
pub fn layer_norm_into(x: &Tensor32, eps: f32, out: &mut Tensor32) {
    assert_eq!((out.rows(), out.cols()), (x.rows(), x.cols()), "layer_norm output shape mismatch");
    let d = x.cols() as f32;
    for r in 0..x.rows() {
        let row = x.row_slice(r);
        let mu: f32 = row.iter().sum::<f32>() / d;
        let var: f32 = row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / d;
        let sigma = (var + eps).sqrt();
        let o_row = &mut out.data_mut()[r * row.len()..(r + 1) * row.len()];
        for (o, &v) in o_row.iter_mut().zip(row) {
            *o = (v - mu) / sigma;
        }
    }
}

/// Column-wise mean over rows into a `1 × d` output (f32 mean pooling).
pub fn mean_rows_into(x: &Tensor32, out: &mut Tensor32) {
    assert_eq!((out.rows(), out.cols()), (1, x.cols()), "mean_rows output shape mismatch");
    out.data_mut().fill(0.0);
    for r in 0..x.rows() {
        let row = x.row_slice(r);
        for (o, &v) in out.data_mut().iter_mut().zip(row) {
            *o += v;
        }
    }
    let n = x.rows().max(1) as f32;
    for o in out.data_mut() {
        *o /= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_t32(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor32 {
        Tensor32::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn matmul_close_to_f64_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in &[(3, 5, 40), (17, 24, 24), (2, 24, 1), (33, 16, 300)] {
            let a = rand_t32(m, k, &mut rng);
            let b = rand_t32(k, n, &mut rng);
            let mut out = Tensor32::zeros(m, n);
            matmul_into(&a, &b, &mut out);
            let mut reference = Tensor::zeros(m, n);
            kernels::matmul_into(&a.to_tensor(), &b.to_tensor(), &mut reference);
            for (got, want) in out.data().iter().zip(reference.data()) {
                let bound = (k as f64).sqrt() * 4.0 * f64::from(f32::EPSILON);
                assert!(
                    (f64::from(*got) - want).abs() <= bound + want.abs() * bound,
                    "matmul {m}x{k}x{n}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn matmul_nt_scaled_matches_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = rand_t32(9, 12, &mut rng);
        let b = rand_t32(37, 12, &mut rng);
        let mut out = Tensor32::zeros(9, 37);
        matmul_nt_scaled_into(&a, &b, 0.25, &mut out);
        let mut reference = Tensor::zeros(9, 37);
        kernels::matmul_nt_scaled_into(&a.to_tensor(), &b.to_tensor(), 0.25, &mut reference);
        for (got, want) in out.data().iter().zip(reference.data()) {
            assert!((f64::from(*got) - want).abs() < 1e-5, "{got} vs {want}");
        }
    }

    #[test]
    fn exp_shifted_accuracy_and_edges() {
        assert_eq!(exp_shifted(0.0), 1.0);
        assert!(exp_shifted(-100.0) >= 0.0);
        let mut worst = 0.0f64;
        let mut x = -80.0f32;
        while x < 0.0 {
            let got = f64::from(exp_shifted(x));
            let want = f64::from(x).exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.003_17;
        }
        assert!(worst < 4.0 * f64::from(f32::EPSILON), "worst rel err {worst:e}");
    }

    #[test]
    fn striped_compare_max_equals_the_max_fold() {
        let max_fold = |row: &[f32]| row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        let mut rows: Vec<Vec<f32>> = vec![
            vec![],
            vec![nan; 19],
            vec![MASK_OFF_F32; 23],
            vec![-inf; 9],
            vec![0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0],
            vec![1.0, inf, nan, -inf, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            vec![nan, nan, nan, nan, nan, nan, nan, nan, -7.5],
        ];
        for at in 0..21 {
            let mut row: Vec<f32> = (0..21).map(|j| -(j as f32) - 1.0).collect();
            row[at] = 4.25;
            row[(at + 20) % 21] = nan;
            rows.push(row);
        }
        for row in &rows {
            let (got, want) = (row_max(row), max_fold(row));
            assert!(got == want, "{row:?}: {got} vs {want}");
        }
        assert!(row_max(&[MASK_OFF_F32; 23]) <= MASK_NEG_THRESHOLD_F32);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = rand_t32(5, 100, &mut rng);
        let mut out = Tensor32::zeros(5, 100);
        masked_softmax_into(&x, None, &mut out);
        for r in 0..5 {
            let s: f32 = out.row_slice(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn fused_attention_matches_unfused_chain() {
        let mut rng = StdRng::seed_from_u64(10);
        let (m, dh, n) = (70, 12, 90);
        let q = rand_t32(m, dh, &mut rng);
        let k = rand_t32(n, dh, &mut rng);
        let v = rand_t32(n, dh, &mut rng);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut fused = Tensor32::zeros(m, dh);
        attention_head_into(&q, &k, &v, None, scale, 1, &mut AttnScratch::default(), &mut fused);
        let mut scores = Tensor32::zeros(m, n);
        matmul_nt_scaled_into(&q, &k, scale, &mut scores);
        let mut probs = Tensor32::zeros(m, n);
        masked_softmax_into(&scores, None, &mut probs);
        let mut unfused = Tensor32::zeros(m, dh);
        matmul_into(&probs, &v, &mut unfused);
        for (a, b) in fused.data().iter().zip(unfused.data()) {
            assert!((a - b).abs() < 1e-5, "fused {a} vs unfused {b}");
        }
    }

    #[test]
    fn bool_row_softmax_masks_and_normalizes() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let keep = [true, false, true, false];
        let mut out = Vec::new();
        masked_softmax_bool_row_f32(&x, &keep, &mut out);
        assert_eq!(out[1], 0.0);
        assert_eq!(out[3], 0.0);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out[2] > out[0]);
    }

    #[test]
    fn layer_norm_standardizes() {
        let x = Tensor32::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let mut out = Tensor32::zeros(1, 4);
        layer_norm_into(&x, 1e-5, &mut out);
        let mean: f32 = out.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn mean_rows_pools() {
        let x = Tensor32::from_vec(2, 3, vec![1.0, 2.0, 3.0, 3.0, 4.0, 5.0]);
        let mut out = Tensor32::zeros(1, 3);
        mean_rows_into(&x, &mut out);
        assert_eq!(out.data(), &[2.0, 3.0, 4.0]);
    }
}
