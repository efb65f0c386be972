//! Shared floating-point kernels behind both execution engines.
//!
//! Every numeric routine used by a forward pass lives here exactly once,
//! and both the autodiff [`crate::graph::Graph`] and the tape-free
//! [`crate::infer::FwdCtx`] call the *same* functions. That is what makes
//! the two paths bit-identical by construction: there is no second
//! implementation to drift.
//!
//! Accumulation-order discipline: every kernel that sums floating-point
//! terms does so in ascending index order with a single accumulator, and
//! none of them reassociates. `matmul_into` (i-k-j) and `matmul_nt_into`
//! (row-dot) therefore produce bit-identical outputs for `A·B` vs
//! `A·(Bᵀ)ᵀ` — per output element both add the `k` products in the same
//! order. The zero-skipping `matmul_sparse_into` is bit-identical to the
//! dense kernel whenever the skipped rows multiply finite values
//! (`0.0 * b` contributes an exact `±0.0`, which cannot change a
//! non-negative-zero accumulator), which holds for attention
//! probabilities — the only place it is used.

use crate::par::{run_row_lanes, AttnScratch, HeadInputs};
use crate::tensor::Tensor;

/// Additive-mask entries at or below this threshold are treated as fully
/// masked (probability forced to exactly zero, gradient to zero).
pub const MASK_NEG_THRESHOLD: f64 = -1.0e20;

/// The additive mask value used to exclude positions.
pub const MASK_OFF: f64 = -1.0e30;

/// Square cache-tile edge shared by the blocked kernels: the f64
/// transpose (32×32 f64 tiles = 8 KiB in + 8 KiB out), the fused
/// attention row tiling, and the f32 GEMM blocking in
/// [`crate::kernels_f32`]. One named constant so the tilings cannot
/// drift apart.
pub const L1_TILE: usize = 32;

/// `out = a · b` (dense). `out` must be pre-shaped `a.rows × b.cols`;
/// its prior contents are overwritten.
///
/// The i-k-j loop streams rows of `b` and is auto-vectorizable; there is
/// deliberately *no* zero-skip branch — on dense weight matrices the
/// per-element compare costs more than the multiply it saves (see the
/// `policy_forward/matmul_*` benches).
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "matmul inner dimension mismatch");
    assert_eq!((out.rows(), out.cols()), (m, n), "matmul output shape mismatch");
    matmul_rows(a.data(), k, b.data(), n, out.data_mut());
}

/// [`matmul_into`] over row-major slices: `a` holds `out.len() / n` rows
/// of width `k`. Rows are independent, so any contiguous row range of
/// `a`/`out` yields the same bits it would inside the full product —
/// the unit [`crate::par::run_row_lanes`] hands a lane.
fn matmul_rows(a: &[f64], k: usize, bd: &[f64], n: usize, out: &mut [f64]) {
    if n <= 16 {
        // Narrow outputs (attention `probs · V` with a head-width n):
        // stack-resident accumulators, two rows of `a` per `b` pass.
        // Common head widths get a const-width instantiation so the
        // inner loops fully unroll; the math is identical either way.
        return match n {
            8 => matmul_narrow::<8>(a, k, bd, out),
            12 => matmul_narrow::<12>(a, k, bd, out),
            16 => matmul_narrow::<16>(a, k, bd, out),
            _ => matmul_narrow_dyn(a, k, bd, n, out),
        };
    }
    for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
        o_row.fill(0.0);
        for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Narrow-output matmul with a compile-time width: the 2-row /
/// stack-accumulator pattern of [`matmul_narrow_dyn`] with fully
/// unrollable inner loops. Per output element the accumulation order is
/// identical to the dynamic version and to the wide i-k-j kernel.
fn matmul_narrow<const N: usize>(a: &[f64], k: usize, bd: &[f64], out: &mut [f64]) {
    let m = out.len() / N;
    let mut i = 0;
    while i + 2 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let mut acc0 = [0.0f64; N];
        let mut acc1 = [0.0f64; N];
        for (kk, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
            let b_row: &[f64; N] = bd[kk * N..(kk + 1) * N].try_into().expect("width");
            for ((o0, o1), &bv) in acc0.iter_mut().zip(&mut acc1).zip(b_row) {
                *o0 += x0 * bv;
                *o1 += x1 * bv;
            }
        }
        out[i * N..(i + 1) * N].copy_from_slice(&acc0);
        out[(i + 1) * N..(i + 2) * N].copy_from_slice(&acc1);
        i += 2;
    }
    if i < m {
        let a_row = &a[i * k..(i + 1) * k];
        let mut acc = [0.0f64; N];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row: &[f64; N] = bd[kk * N..(kk + 1) * N].try_into().expect("width");
            for (o, &bv) in acc.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        out[i * N..(i + 1) * N].copy_from_slice(&acc);
    }
}

/// Runtime-width fallback of [`matmul_narrow`] (same accumulation order).
fn matmul_narrow_dyn(a: &[f64], k: usize, bd: &[f64], n: usize, out: &mut [f64]) {
    let m = out.len().checked_div(n).unwrap_or(0);
    let mut acc0 = [0.0f64; 16];
    let mut acc1 = [0.0f64; 16];
    let mut i = 0;
    while i + 2 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        acc0[..n].fill(0.0);
        acc1[..n].fill(0.0);
        for (kk, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
            let b_row = &bd[kk * n..(kk + 1) * n];
            for ((o0, o1), &bv) in acc0[..n].iter_mut().zip(&mut acc1[..n]).zip(b_row) {
                *o0 += x0 * bv;
                *o1 += x1 * bv;
            }
        }
        out[i * n..(i + 1) * n].copy_from_slice(&acc0[..n]);
        out[(i + 1) * n..(i + 2) * n].copy_from_slice(&acc1[..n]);
        i += 2;
    }
    if i < m {
        let a_row = &a[i * k..(i + 1) * k];
        acc0[..n].fill(0.0);
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in acc0[..n].iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        out[i * n..(i + 1) * n].copy_from_slice(&acc0[..n]);
    }
}

/// `out += a · b` (dense accumulate; `out` keeps its prior contents).
pub fn addmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "addmul inner dimension mismatch");
    assert_eq!((out.rows(), out.cols()), (m, n), "addmul output shape mismatch");
    let bd = b.data();
    for i in 0..m {
        let a_row = a.row_slice(i);
        let o_row = &mut out.data_mut()[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `out = a · bᵀ` without materializing the transpose.
///
/// Bit-identical to `matmul_into(a, &b.transpose(), out)`: each output
/// element accumulates the same products in the same (ascending-k) order.
/// Blocked over rows of `b` so the active `b` tile stays cache-resident
/// while every row of `a` streams past it.
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    matmul_nt_scaled_into(a, b, 1.0, out);
}

/// `out = (a · bᵀ) * alpha` — [`matmul_nt_into`] with the attention score
/// scale fused into the store (bit-identical to scaling afterwards: each
/// element is `dot * alpha` either way, one rounding).
pub fn matmul_nt_scaled_into(a: &Tensor, b: &Tensor, alpha: f64, out: &mut Tensor) {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    assert_eq!(k, b.cols(), "matmul_nt inner dimension mismatch");
    assert_eq!((out.rows(), out.cols()), (m, n), "matmul_nt output shape mismatch");
    nt_scaled_rows(a.data(), k, b.data(), n, alpha, out.data_mut());
}

/// [`matmul_nt_scaled_into`] over row-major slices (`a` holds
/// `out.len() / n` rows of width `k`; see [`matmul_rows`]).
fn nt_scaled_rows(a: &[f64], k: usize, bd: &[f64], n: usize, alpha: f64, out: &mut [f64]) {
    /// Rows of `b` per tile (tile bytes ≈ 64 · k · 8; k is a head width
    /// here, so tiles stay well inside L1).
    const JB: usize = 64;
    for jb in (0..n).step_by(JB) {
        let jh = (jb + JB).min(n);
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            // Eight *independent* dot products at a time: each keeps its
            // own single sequential accumulator, so every output element
            // still matches the transpose-then-matmul path bit-for-bit —
            // the unroll only buys instruction-level parallelism across
            // unrelated sums (the per-dot add chain is latency-bound).
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
                let mut acc = [0.0f64; 8];
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
                let mut acc = 0.0;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                o_row[jr] = acc * alpha;
            }
        }
    }
}

/// Score rows from a materialized `kᵀ` (`dh × n`, row-major):
/// `s[r][j] = (Σ_kk q[r][kk] · kᵀ[kk][j]) · scale` for the `q.len() / dh`
/// query rows in `q`. A 2-query × 8-key register tile in i-k-j order:
/// the eight keys of a step are contiguous in every `kᵀ` row, so the
/// lane loop is packed arithmetic where the strided eight-dot block of
/// [`nt_scaled_rows`] is scalar. Each element still owns one accumulator
/// fed in ascending `kk`, then one multiply by `scale` — bit-identical
/// to [`matmul_nt_scaled_into`].
fn scores_from_kt(q: &[f64], dh: usize, kt: &[f64], n: usize, scale: f64, s: &mut [f64]) {
    /// Score columns per block: `dh` kᵀ row segments of 2 KiB stay
    /// L1-resident across the tile's query rows.
    const JB: usize = 256;
    for jb in (0..n).step_by(JB) {
        let jh = (jb + JB).min(n);
        let mut rows = q.chunks_exact(dh).zip(s.chunks_exact_mut(n));
        while let Some((q0, s0)) = rows.next() {
            match rows.next() {
                Some((q1, s1)) => score_block([q0, q1], kt, n, jb..jh, scale, [s0, s1]),
                None => score_block([q0], kt, n, jb..jh, scale, [s0]),
            }
        }
    }
}

/// One column block of [`scores_from_kt`] for `R` query rows at once.
fn score_block<const R: usize>(
    q: [&[f64]; R],
    kt: &[f64],
    n: usize,
    cols: std::ops::Range<usize>,
    scale: f64,
    s: [&mut [f64]; R],
) {
    let dh = q[0].len();
    let mut j = cols.start;
    while j + 8 <= cols.end {
        let mut acc = [[0.0f64; 8]; R];
        for kk in 0..dh {
            let b: &[f64; 8] = kt[kk * n + j..kk * n + j + 8].try_into().expect("chunk");
            for r in 0..R {
                let x = q[r][kk];
                for l in 0..8 {
                    acc[r][l] += x * b[l];
                }
            }
        }
        for r in 0..R {
            for l in 0..8 {
                s[r][j + l] = acc[r][l] * scale;
            }
        }
        j += 8;
    }
    for jr in j..cols.end {
        for r in 0..R {
            let mut acc = 0.0;
            for (kk, &x) in q[r].iter().enumerate() {
                acc += x * kt[kk * n + jr];
            }
            s[r][jr] = acc * scale;
        }
    }
}

/// Fused single-head attention without materialized score/probability
/// matrices: `out = softmax(q·kᵀ·scale)·v`, computed in row tiles that
/// stay cache-resident. For a sequence of length n the unfused pipeline
/// round-trips three n×n matrices through memory; this never holds more
/// than `L1_TILE` score rows per lane.
///
/// Keys may be given once per **row class** (see [`crate::classes`]):
/// with `key_class = Some(c)` the attended sequence has `c.len()` keys
/// and key `j` is row `c[j]` of `k`/`v`, which hold the distinct rows
/// only. `kᵀ`, the scores, the row maximum and the exponentials are then
/// computed once per distinct key, while the normalizer sum and the
/// probability-weighted value sum still walk all `c.len()` keys in their
/// original order, reading the shared probability `p[c[j]]` — every
/// output element sees the same operands in the same order as it would
/// with `k`/`v` expanded to one row per key, so the result is
/// bit-identical to that call, not merely close. `None` attends over the
/// rows of `k` as they are.
///
/// Row-parallel: the query rows are split over `lanes` lanes by
/// [`crate::par::run_row_lanes`] (`lanes = 1` starts no thread), each
/// with its own score tile from `scratch`; `kᵀ` is materialized there
/// once and shared. The output is the same for every lane count.
///
/// Bit-identical to `matmul_nt_scaled_into` → unmasked
/// [`masked_softmax_into`] → [`matmul_into`]: each stage keeps the same
/// per-element accumulation orders, tiling only changes *when* (and on
/// which lane) a row is processed, not how.
#[allow(clippy::too_many_arguments)]
pub fn attention_head_into(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    key_class: Option<&[u32]>,
    scale: f64,
    lanes: usize,
    scratch: &mut AttnScratch<f64>,
    out: &mut Tensor,
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
    transpose_rows(k.data(), n, dh, kt);
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

/// The fused head over one lane's query rows: score tile → in-place
/// softmax → probability-weighted value sums, [`L1_TILE`] rows at a time.
fn attention_rows(head: &HeadInputs<f64>, q: &[f64], tile: &mut Vec<f64>, out: &mut [f64]) {
    let HeadInputs { kt, v, key_class, n, dh, scale } = *head;
    let m = q.len() / dh;
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
        scores_from_kt(&q[ib * dh..ih * dh], dh, kt, n, scale, tile);
        // Softmax each score row in place (same helpers as the unmasked
        // kernel path). Maximum and exponentials once per distinct key;
        // the normalizer counts every key.
        for s_row in tile.chunks_exact_mut(n.max(1)) {
            let mx = row_max(s_row);
            if !mx.is_finite() || mx <= MASK_NEG_THRESHOLD {
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

/// Probability-weighted value sums of one score tile: four rows per `v`
/// pass (the small-n matmul pattern; per-element accumulation order is
/// unchanged, `v` traffic is quartered). `keys` yields, for every
/// attended key in order, its row in `v` and its column in the tile.
/// Common head widths get a const-width instantiation so the inner loops
/// fully unroll.
fn value_sums(
    tile: &[f64],
    n: usize,
    keys: impl Iterator<Item = usize> + Clone,
    rows: std::ops::Range<usize>,
    vd: &[f64],
    dh: usize,
    out: &mut [f64],
) {
    match dh {
        8 => weighted_value_sums::<8>(tile, n, keys, rows, vd, out),
        12 => weighted_value_sums::<12>(tile, n, keys, rows, vd, out),
        16 => weighted_value_sums::<16>(tile, n, keys, rows, vd, out),
        _ => weighted_value_sums_dyn(tile, n, keys, rows, vd, dh, out),
    }
}

/// Unfused unmasked single-head attention that keeps what the fused
/// kernel discards: `scores = q·kᵀ·scale`, `probs = softmax(scores)`,
/// `out = probs·v`, each into its own pre-shaped tensor — the last
/// block's VM→PM cross stage, whose head-averaged probabilities feed the
/// PM actor. The three kernels are row-independent, so the rows go
/// through [`crate::par::run_row_lanes`] like the fused head's; with
/// `lanes = 1` this is exactly [`matmul_nt_scaled_into`] →
/// [`masked_softmax_into`] → [`matmul_into`] on the full range.
pub fn attention_probs_into(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f64,
    lanes: usize,
    [scores, probs, out]: [&mut Tensor; 3],
) {
    let (m, dh, n) = (q.rows(), q.cols(), k.rows());
    assert_eq!(dh, k.cols(), "attention q/k width mismatch");
    assert_eq!(n, v.rows(), "attention v shape mismatch");
    let dv = v.cols();
    assert_eq!((scores.rows(), scores.cols()), (m, n), "attention scores shape mismatch");
    assert_eq!((probs.rows(), probs.cols()), (m, n), "attention probs shape mismatch");
    assert_eq!((out.rows(), out.cols()), (m, dv), "attention output shape mismatch");
    let (qd, kd, vd) = (q.data(), k.data(), v.data());
    let outs = [(scores.data_mut(), n), (probs.data_mut(), n), (out.data_mut(), dv)];
    run_row_lanes(m, outs, (0..lanes.max(1)).map(|_| ()), |rows, [s, p, o], ()| {
        nt_scaled_rows(&qd[rows.start * dh..rows.end * dh], dh, kd, n, scale, s);
        softmax_rows(s, n, p);
        matmul_rows(p, n, vd, dv, o);
    });
}

/// The fused attention kernel's output phase with a compile-time head
/// width (same accumulation order as the dynamic fallback).
fn weighted_value_sums<const DH: usize>(
    tile: &[f64],
    n: usize,
    keys: impl Iterator<Item = usize> + Clone,
    rows: std::ops::Range<usize>,
    vd: &[f64],
    out: &mut [f64],
) {
    let (ib, ih) = (rows.start, rows.end);
    let mut i = ib;
    while i < ih {
        let rows = (ih - i).min(4);
        let mut acc = [[0.0f64; DH]; 4];
        for kk in keys.clone() {
            let b_row: &[f64; DH] = vd[kk * DH..(kk + 1) * DH].try_into().expect("width");
            for (r, a) in acc.iter_mut().take(rows).enumerate() {
                let p = tile[(i - ib + r) * n + kk];
                for (o, &bv) in a.iter_mut().zip(b_row) {
                    *o += p * bv;
                }
            }
        }
        for (r, a) in acc.iter().take(rows).enumerate() {
            out[(i + r) * DH..(i + r + 1) * DH].copy_from_slice(a);
        }
        i += rows;
    }
}

/// Runtime-width fallback of [`weighted_value_sums`].
fn weighted_value_sums_dyn(
    tile: &[f64],
    n: usize,
    keys: impl Iterator<Item = usize> + Clone,
    rows: std::ops::Range<usize>,
    vd: &[f64],
    dh: usize,
    out: &mut [f64],
) {
    let (ib, ih) = (rows.start, rows.end);
    let mut acc = [[0.0f64; 16]; 4];
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

/// `out = a · b` where rows of `a` are expected to be mostly exact zeros
/// (masked attention probabilities). Skips zero multiplicands; bit-identical
/// to [`matmul_into`] for finite `b` (see module docs).
pub fn matmul_sparse_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
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

/// Row-wise softmax of `x + mask` into `out` (`mask = None` is the
/// unmasked case, arithmetically `mask ≡ 0`). Fully-masked rows (or rows
/// whose shifted maximum is non-finite) are emitted as all-zero rather
/// than NaN.
///
/// Entries whose mask value is at or below [`MASK_NEG_THRESHOLD`] get an
/// exact `0.0` without calling `exp`: `exp(x − 1e30 − mx)` underflows to
/// exactly `+0.0` for any finite `x`, `mx`, so the shortcut is
/// bit-identical to the naive evaluation.
pub fn masked_softmax_into(x: &Tensor, mask: Option<&Tensor>, out: &mut Tensor) {
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
        let mut mx = f64::NEG_INFINITY;
        for (&v, &mv) in row.iter().zip(mrow) {
            mx = mx.max(v + mv);
        }
        if !mx.is_finite() || mx <= MASK_NEG_THRESHOLD {
            o_row.fill(0.0);
            continue;
        }
        let mut z = 0.0;
        for ((o, &v), &mv) in o_row.iter_mut().zip(row).zip(mrow) {
            let e = if mv <= MASK_NEG_THRESHOLD { 0.0 } else { (v + mv - mx).exp() };
            *o = e;
            z += e;
        }
        let inv = 1.0 / z;
        for o in o_row.iter_mut() {
            *o *= inv;
        }
    }
}

/// Unmasked row-wise softmax over row-major slices of width `n`:
/// identical arithmetic to the masked path with the additive mask pinned
/// to 0.0 (`v + 0.0` and `v` are the same value — the sign of zero cannot
/// survive the compare/exp that consume it), minus the per-element mask
/// load and threshold test.
fn softmax_rows(x: &[f64], n: usize, out: &mut [f64]) {
    for (row, o_row) in x.chunks_exact(n.max(1)).zip(out.chunks_exact_mut(n.max(1))) {
        let mx = row_max(row);
        if !mx.is_finite() || mx <= MASK_NEG_THRESHOLD {
            o_row.fill(0.0);
            continue;
        }
        // Exponentials first (independent elements), then a striped
        // normalizer sum: splitting the passes keeps the exp calls off
        // the z dependency chain.
        for (o, &v) in o_row.iter_mut().zip(row) {
            *o = exp_shifted(v - mx);
        }
        let inv = 1.0 / striped_sum(o_row);
        for o in o_row.iter_mut() {
            *o *= inv;
        }
    }
}

/// `exp` for max-shifted softmax arguments (`x ≤ 0`): branchless
/// range-reduced polynomial, inlineable and auto-vectorizable — unlike
/// the libm call, whose per-element cost dominates large unmasked
/// softmax rows. Relative error ≤ ~3e-13, far below the sampling noise
/// any consumer of a probability can observe; `exp_shifted(0.0)` is
/// exactly 1.0 and inputs at or below the underflow clamp round to a
/// probability of ~3e-308, normalized away like an exact zero. Used by
/// the unmasked softmax path of **both** engines (bit-identity between
/// them holds because they share this function; the masked/tree paths
/// keep `f64::exp` and pair with each other).
#[inline]
fn exp_shifted(x: f64) -> f64 {
    // Branchless underflow clamp: keeps 2^k in the normal range so the
    // exponent bit-trick below stays valid (and lets the loop vectorize).
    let x = x.max(-708.0);
    const INV_LN2: f64 = std::f64::consts::LOG2_E;
    // ln2 split hi/lo so `x - k·ln2` stays exact to the last bit.
    const LN2_HI: f64 = 0.693_147_180_369_123_8;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    // Round-to-nearest via the 1.5·2^52 magic constant (no SSE4 round).
    const MAGIC: f64 = 6_755_399_441_055_744.0;
    let t = x * INV_LN2 + MAGIC;
    let kf = t - MAGIC;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    // `t` is exactly MAGIC + k, so its low mantissa bits hold 2^51 + k;
    // building 2^k out of them is pure integer arithmetic — no fp→int
    // conversion, so the surrounding loops stay auto-vectorizable.
    let mantissa = t.to_bits() & ((1u64 << 52) - 1);
    let exp2k = f64::from_bits((mantissa - ((1u64 << 51) - 1023)) << 52);
    // Degree-10 Taylor of exp(r) on |r| ≤ ln2/2 (tail ≤ 3e-13 relative).
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (1.0 / 6.0
                    + r * (1.0 / 24.0
                        + r * (1.0 / 120.0
                            + r * (1.0 / 720.0
                                + r * (1.0 / 5040.0
                                    + r * (1.0 / 40320.0
                                        + r * (1.0 / 362_880.0 + r * (1.0 / 3_628_800.0))))))))));
    p * exp2k
}

/// Sequential-sum softmax of one row in place: the row flavor used by
/// the *masked* paths (dense masked softmax and block-sparse tree
/// attention, whose compacted member rows must sum the same nonzero
/// terms in the same order as the dense masked kernel). Fully-masked /
/// non-finite rows become all-zero.
pub(crate) fn softmax_row_seq(row: &mut [f64]) {
    let mut mx = f64::NEG_INFINITY;
    for &s in row.iter() {
        mx = mx.max(s);
    }
    if !mx.is_finite() || mx <= MASK_NEG_THRESHOLD {
        row.fill(0.0);
        return;
    }
    let mut z = 0.0;
    for s in row.iter_mut() {
        *s = (*s - mx).exp();
        z += *s;
    }
    let inv = 1.0 / z;
    for s in row.iter_mut() {
        *s *= inv;
    }
}

/// Four-stripe sum (pairs with the unmasked softmax fast path; the
/// masked path keeps a sequential sum so that block-sparse tree
/// attention — which sums the same nonzero terms compacted — stays
/// bit-identical to it).
fn striped_sum(row: &[f64]) -> f64 {
    let mut s = [0.0f64; 4];
    let mut chunks = row.chunks_exact(4);
    for c in chunks.by_ref() {
        s[0] += c[0];
        s[1] += c[1];
        s[2] += c[2];
        s[3] += c[3];
    }
    let mut z = (s[0] + s[1]) + (s[2] + s[3]);
    for &v in chunks.remainder() {
        z += v;
    }
    z
}

/// [`striped_sum`] over a sequence given by class: element `j` of the
/// summed sequence is `row[class[j]]`. Same four stripes, same order of
/// additions as [`striped_sum`] on the expanded sequence.
fn striped_sum_by_class(row: &[f64], class: &[u32]) -> f64 {
    let mut s = [0.0f64; 4];
    let mut chunks = class.chunks_exact(4);
    for c in chunks.by_ref() {
        s[0] += row[c[0] as usize];
        s[1] += row[c[1] as usize];
        s[2] += row[c[2] as usize];
        s[3] += row[c[3] as usize];
    }
    let mut z = (s[0] + s[1]) + (s[2] + s[3]);
    for &c in chunks.remainder() {
        z += row[c as usize];
    }
    z
}

/// Row maximum with eight independent running maxima, folded by
/// compare-and-select: unlike `f64::max`, whose NaN rule needs an extra
/// unordered compare per element, `if v > m` is one packed `max`. The
/// value is the same as the `max` fold's: a NaN operand fails the
/// compare and is skipped either way, the order of the fold cannot
/// change a maximum, and a `±0.0` tie differs only in a sign the
/// consumers (`s − mx`, the threshold test) cannot see.
fn row_max(row: &[f64]) -> f64 {
    let mut m = [f64::NEG_INFINITY; 8];
    let mut chunks = row.chunks_exact(8);
    for c in chunks.by_ref() {
        let c: &[f64; 8] = c.try_into().expect("chunk");
        for l in 0..8 {
            if c[l] > m[l] {
                m[l] = c[l];
            }
        }
    }
    let mut mx = f64::NEG_INFINITY;
    for &v in m.iter().chain(chunks.remainder()) {
        if v > mx {
            mx = v;
        }
    }
    mx
}

/// Row-wise softmax of a single row under a boolean keep-mask (`true` =
/// attend). Arithmetically identical to [`masked_softmax_into`] with an
/// additive mask of `0.0` / [`MASK_OFF`].
pub fn masked_softmax_bool_row(x: &[f64], keep: &[bool], out: &mut Vec<f64>) {
    assert_eq!(x.len(), keep.len(), "bool mask length mismatch");
    out.clear();
    out.resize(x.len(), 0.0);
    let mut mx = f64::NEG_INFINITY;
    for (&v, &k) in x.iter().zip(keep) {
        let mv = if k { 0.0 } else { MASK_OFF };
        mx = mx.max(v + mv);
    }
    if !mx.is_finite() || mx <= MASK_NEG_THRESHOLD {
        return;
    }
    let mut z = 0.0;
    for (c, (&v, &k)) in x.iter().zip(keep).enumerate() {
        let e = if k { (v - mx).exp() } else { 0.0 };
        out[c] = e;
        z += e;
    }
    let inv = 1.0 / z;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Row-wise log-softmax of `x + mask` into `out`; masked (zero-probability)
/// positions are reported as [`MASK_OFF`].
pub fn masked_log_softmax_into(x: &Tensor, mask: Option<&Tensor>, out: &mut Tensor) {
    masked_softmax_into(x, mask, out);
    for v in out.data_mut() {
        *v = if *v > 0.0 { v.ln() } else { MASK_OFF };
    }
}

/// Row-wise standardization `(x − μ)/σ` with ε-stabilized variance.
pub fn layer_norm_into(x: &Tensor, eps: f64, out: &mut Tensor) {
    assert_eq!((out.rows(), out.cols()), (x.rows(), x.cols()), "layer_norm output shape mismatch");
    let d = x.cols() as f64;
    for r in 0..x.rows() {
        let row = x.row_slice(r);
        let mu: f64 = row.iter().sum::<f64>() / d;
        let var: f64 = row.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / d;
        let sigma = (var + eps).sqrt();
        let o_row = &mut out.data_mut()[r * row.len()..(r + 1) * row.len()];
        for (o, &v) in o_row.iter_mut().zip(row) {
            *o = (v - mu) / sigma;
        }
    }
}

/// Cache-blocked transpose: `out = xᵀ`.
pub fn transpose_into(x: &Tensor, out: &mut Tensor) {
    let (r, c) = (x.rows(), x.cols());
    assert_eq!((out.rows(), out.cols()), (c, r), "transpose output shape mismatch");
    transpose_rows(x.data(), r, c, out.data_mut());
}

/// [`transpose_into`] over row-major slices (`xd` is `r × c`, `od`
/// becomes `c × r`).
fn transpose_rows(xd: &[f64], r: usize, c: usize, od: &mut [f64]) {
    // Square tile edge shared with the f32 GEMM blocking (`L1_TILE`):
    // 32×32 f64 tiles (8 KiB in + 8 KiB out) keep both the read rows and
    // the written columns L1-resident.
    const TB: usize = L1_TILE;
    for rb in (0..r).step_by(TB) {
        let rh = (rb + TB).min(r);
        for cb in (0..c).step_by(TB) {
            let ch = (cb + TB).min(c);
            for i in rb..rh {
                for j in cb..ch {
                    od[j * r + i] = xd[i * c + j];
                }
            }
        }
    }
}

/// Column-wise mean over rows into a `1 × d` output (mean pooling).
pub fn mean_rows_into(x: &Tensor, out: &mut Tensor) {
    assert_eq!((out.rows(), out.cols()), (1, x.cols()), "mean_rows output shape mismatch");
    out.data_mut().fill(0.0);
    for r in 0..x.rows() {
        let row = x.row_slice(r);
        for (o, &v) in out.data_mut().iter_mut().zip(row) {
            *o += v;
        }
    }
    let n = x.rows().max(1) as f64;
    for o in out.data_mut() {
        *o /= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect())
    }

    #[test]
    fn matmul_nt_matches_transpose_then_matmul_bitwise() {
        for (m, k, n, seed) in [(3, 5, 4, 1), (7, 12, 130, 2), (1, 24, 9, 3)] {
            let a = rand_tensor(m, k, seed);
            let b = rand_tensor(n, k, seed + 100);
            let reference = a.matmul(&b.transpose());
            let mut out = Tensor::zeros(m, n);
            matmul_nt_into(&a, &b, &mut out);
            assert_eq!(out.data(), reference.data(), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn sparse_matmul_matches_dense_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut a = rand_tensor(6, 10, 4);
        for v in a.data_mut() {
            if rng.gen_bool(0.7) {
                *v = 0.0;
            }
        }
        let b = rand_tensor(10, 7, 5);
        let mut dense = Tensor::zeros(6, 7);
        let mut sparse = Tensor::zeros(6, 7);
        matmul_into(&a, &b, &mut dense);
        matmul_sparse_into(&a, &b, &mut sparse);
        assert_eq!(dense.data(), sparse.data());
    }

    #[test]
    fn addmul_accumulates() {
        let a = rand_tensor(2, 3, 6);
        let b = rand_tensor(3, 4, 7);
        let mut out = Tensor::full(2, 4, 1.0);
        addmul_into(&a, &b, &mut out);
        let expect = a.matmul(&b);
        for (o, e) in out.data().iter().zip(expect.data()) {
            // The prior contents join the accumulation first, so this is
            // an approximate (not bitwise) comparison.
            assert!((o - (1.0 + e)).abs() < 1e-12);
        }
    }

    #[test]
    fn masked_entries_are_exact_zero_without_exp() {
        let x = rand_tensor(2, 4, 8);
        let mut mask = Tensor::zeros(2, 4);
        mask.set(0, 1, MASK_OFF);
        mask.set(1, 3, MASK_OFF);
        let mut out = Tensor::zeros(2, 4);
        masked_softmax_into(&x, Some(&mask), &mut out);
        assert_eq!(out.get(0, 1), 0.0);
        assert_eq!(out.get(1, 3), 0.0);
        for r in 0..2 {
            let s: f64 = out.row_slice(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bool_row_softmax_matches_tensor_mask() {
        let x = rand_tensor(1, 6, 11);
        let keep = [true, false, true, true, false, true];
        let mask =
            Tensor::row(keep.iter().map(|&k| if k { 0.0 } else { MASK_OFF }).collect::<Vec<_>>());
        let mut dense = Tensor::zeros(1, 6);
        masked_softmax_into(&x, Some(&mask), &mut dense);
        let mut sparse = Vec::new();
        masked_softmax_bool_row(x.row_slice(0), &keep, &mut sparse);
        assert_eq!(dense.data(), &sparse[..]);
    }

    #[test]
    fn striped_compare_max_equals_the_max_fold() {
        let max_fold = |row: &[f64]| row.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let mut rows: Vec<Vec<f64>> = vec![
            vec![],
            vec![nan],
            vec![nan; 19],
            vec![MASK_OFF; 23],
            vec![-inf; 9],
            vec![0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0],
            vec![-0.0, nan, -3.0, -inf],
            vec![1.0, inf, nan, -inf, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            vec![nan, nan, nan, nan, nan, nan, nan, nan, -7.5],
        ];
        // Every stripe and the remainder take the maximum in turn, with
        // a NaN right before it.
        for at in 0..21 {
            let mut row: Vec<f64> = (0..21).map(|j| -(j as f64) - 1.0).collect();
            row[at] = 4.25;
            row[(at + 20) % 21] = nan;
            rows.push(row);
        }
        for row in &rows {
            let (got, want) = (row_max(row), max_fold(row));
            assert!(got == want, "{row:?}: {got} vs {want}");
        }
        assert!(row_max(&[MASK_OFF; 23]) <= MASK_NEG_THRESHOLD, "all-masked rows stay masked");
    }

    #[test]
    fn blocked_transpose_matches_naive() {
        for (r, c) in [(1, 1), (3, 70), (100, 33), (65, 65)] {
            let x = rand_tensor(r, c, (r * 1000 + c) as u64);
            let mut out = Tensor::zeros(c, r);
            transpose_into(&x, &mut out);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(out.get(j, i), x.get(i, j));
                }
            }
        }
    }
}

#[cfg(test)]
mod exp_tests {
    use super::*;

    #[test]
    fn exp_shifted_accuracy_and_edges() {
        assert_eq!(exp_shifted(0.0), 1.0);
        // Below the clamp: a ~3e-308 probability, normalized away.
        assert!(exp_shifted(-750.0) < 1e-300);
        assert!(exp_shifted(f64::NEG_INFINITY) < 1e-300);
        let mut worst: f64 = 0.0;
        let mut x = -700.0;
        while x <= 0.0 {
            let a = exp_shifted(x);
            let e = x.exp();
            let rel = if e == 0.0 { a.abs() } else { ((a - e) / e).abs() };
            worst = worst.max(rel);
            x += 0.000_537; // irregular step, sweeps many reduction cells
        }
        assert!(worst < 1e-12, "worst relative error {worst:e}");
    }
}
