//! Shared floating-point kernels behind both execution engines and both
//! precisions.
//!
//! Every numeric routine used by a forward pass lives here exactly once,
//! generic over [`Scalar`], and both the autodiff [`crate::graph::Graph`]
//! and the tape-free [`crate::infer::FwdCtx`] call the *same* functions.
//! That is what makes the two engines bit-identical by construction, and
//! the f32 tier the same code at another element type: there is no second
//! implementation to drift. Every loop shape here serves both
//! precisions. Loop shapes are chosen by measurement on the one SIMD
//! tier the workspace builds for ([`crate::tier`]); stripe counts are
//! source constants and never follow the register width, which is why
//! that tier changes no bit. The one size that does follow it, the fused
//! head's query tile, only groups independent queries.
//!
//! Accumulation-order discipline: every kernel that sums floating-point
//! terms feeds each output element one accumulator in ascending index
//! order, except the unmasked softmax normalizer, which sums in
//! [`Scalar::STRIPES`] stripes folded pairwise. Its two forms —
//! [`striped_sum`] along a row, and the fused head's key-major sum
//! across a query tile — add the same stripes in the same order, and the
//! fused head is tested bit for bit against the unfused chain.
//! `matmul_into` (i-k-j) and `matmul_nt_into` (row-dot) therefore produce
//! bit-identical outputs for `A·B` vs `A·(Bᵀ)ᵀ` — per output element both
//! add the `k` products in the same order. The zero-skipping
//! `matmul_sparse_into` is bit-identical to the dense kernel whenever the
//! skipped rows multiply finite values (`0.0 * b` contributes an exact
//! `±0.0`, which cannot change a non-negative-zero accumulator), which
//! holds for attention probabilities — the only place it is used.
//!
//! Across precisions the contract is a tolerance, not an equality: the
//! f32 instantiation must land within a condition-aware bound of the f64
//! one on the same (f32-representable) inputs — enforced by
//! `crates/nn/tests/prop_f32_kernels.rs` and, end to end, by
//! `tests/integration_precision.rs`.

use crate::infer::TreeGroups;
use crate::par::{run_row_lanes, AttnScratch, HeadInputs};
use crate::scalar::Scalar;
use crate::tensor::Tensor;

/// Additive-mask entries at or below this threshold are treated as fully
/// masked (probability forced to exactly zero, gradient to zero).
pub const MASK_NEG_THRESHOLD: f64 = -1.0e20;

/// The additive mask value used to exclude positions.
pub const MASK_OFF: f64 = -1.0e30;

/// Square cache-tile edge shared by the blocked kernels: the transpose
/// (32×32 f64 tiles = 8 KiB in + 8 KiB out) and the row tiles
/// [`crate::par::run_row_lanes`] cuts lanes on, which the fused head's
/// query tile divides. One named constant so the tilings cannot drift
/// apart.
pub const L1_TILE: usize = 32;

/// `out = a · b` (dense). `out` must be pre-shaped `a.rows × b.cols`;
/// its prior contents are overwritten.
///
/// There is deliberately *no* zero-skip branch — on dense weight matrices
/// the per-element compare costs more than the multiply it saves.
pub fn matmul_into<S: Scalar>(a: &Tensor<S>, b: &Tensor<S>, out: &mut Tensor<S>) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "matmul inner dimension mismatch");
    assert_eq!((out.rows(), out.cols()), (m, n), "matmul output shape mismatch");
    matmul_rows(a.data(), k, b.data(), n, out.data_mut());
}

/// [`matmul_into`] over row-major slices: `a` holds `out.len() / n` rows
/// of width `k`. Rows are independent, so any contiguous row range of
/// `a`/`out` yields the same bits it would inside the full product —
/// the unit [`crate::par::run_row_lanes`] hands a lane.
///
/// Every width runs [`matmul_tile`]. The widths the served model runs
/// get a tile `N` columns wide — `d_model` 24, `d_ff` 48,
/// `critic_hidden` 32 and the head width 12 of `probs · V`; any other
/// width runs 8-column tiles and then its last `n mod 8` columns one at
/// a time.
fn matmul_rows<S: Scalar>(a: &[S], k: usize, bd: &[S], n: usize, out: &mut [S]) {
    let m = out.len().checked_div(n).unwrap_or(0);
    if k == 0 || m == 0 {
        out.fill(S::ZERO);
        return;
    }
    match n {
        12 => matmul_tile::<S, 12>(a, k, bd, n, out, m),
        24 => matmul_tile::<S, 24>(a, k, bd, n, out, m),
        32 => matmul_tile::<S, 32>(a, k, bd, n, out, m),
        48 => matmul_tile::<S, 48>(a, k, bd, n, out, m),
        _ => {
            let blocked = n - n % 8;
            for j in (0..blocked).step_by(8) {
                matmul_tile::<S, 8>(a, k, &bd[j..], n, &mut out[j..], m);
            }
            for j in blocked..n {
                matmul_tile::<S, 1>(a, k, &bd[j..], n, &mut out[j..], m);
            }
        }
    }
}

/// Rows of `a` per [`matmul_tile`] step, one height for every width and
/// both precisions: a measured per-width, per-precision table of heights
/// was no faster end to end (ARCHITECTURE, *One GEMM tile*). It only
/// pairs independent rows, so it changes speed, never a bit.
const TILE_ROWS: usize = 2;

/// `N` columns of `out = a · b` for the `m` rows of `a` (width `k`),
/// [`TILE_ROWS`] rows at a time: the `TILE_ROWS × N` accumulators stay
/// in registers for the whole `k` loop, each starts at zero, takes its
/// `k` products in ascending order and is stored once. `b` and `out`
/// start at the tile's first column, their rows `ld` apart. The last
/// `m mod TILE_ROWS` rows run one at a time after the hot loop, which
/// therefore has no branch. `N` is const because a runtime-width output
/// row cannot stay in registers: it is reloaded and stored at every `k`
/// step, 3–5× slower at the model's widths (ARCHITECTURE, *One GEMM
/// tile*).
fn matmul_tile<S: Scalar, const N: usize>(
    a: &[S],
    k: usize,
    b: &[S],
    ld: usize,
    out: &mut [S],
    m: usize,
) {
    let full = m - m % TILE_ROWS;
    for i in (0..full).step_by(TILE_ROWS) {
        let rows = &a[i * k..(i + TILE_ROWS) * k];
        tile_rows::<S, TILE_ROWS, N>(rows, k, b, ld, &mut out[i * ld..]);
    }
    for i in full..m {
        tile_rows::<S, 1, N>(&a[i * k..(i + 1) * k], k, b, ld, &mut out[i * ld..]);
    }
}

/// One `R × N` tile of [`matmul_tile`]; `a` holds its `R` rows.
fn tile_rows<S: Scalar, const R: usize, const N: usize>(
    a: &[S],
    k: usize,
    b: &[S],
    ld: usize,
    out: &mut [S],
) {
    let rows: [&[S]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[S::ZERO; N]; R];
    for kk in 0..k {
        let b_row: &[S; N] = b[kk * ld..kk * ld + N].try_into().expect("width");
        for r in 0..R {
            let x = rows[r][kk];
            for j in 0..N {
                acc[r][j] += x * b_row[j];
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        out[r * ld..r * ld + N].copy_from_slice(acc);
    }
}

/// `out = a · bᵀ` without materializing the transpose.
///
/// Bit-identical to `matmul_into(a, &b.transpose(), out)`: each output
/// element accumulates the same products in the same (ascending-k) order.
/// Blocked over rows of `b` so the active `b` tile stays cache-resident
/// while every row of `a` streams past it.
pub fn matmul_nt_into<S: Scalar>(a: &Tensor<S>, b: &Tensor<S>, out: &mut Tensor<S>) {
    matmul_nt_scaled_into(a, b, S::ONE, out);
}

/// `out = (a · bᵀ) * alpha` — [`matmul_nt_into`] with the attention score
/// scale fused into the store (bit-identical to scaling afterwards: each
/// element is `dot * alpha` either way, one rounding).
pub fn matmul_nt_scaled_into<S: Scalar>(
    a: &Tensor<S>,
    b: &Tensor<S>,
    alpha: S,
    out: &mut Tensor<S>,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    assert_eq!(k, b.cols(), "matmul_nt inner dimension mismatch");
    assert_eq!((out.rows(), out.cols()), (m, n), "matmul_nt output shape mismatch");
    nt_scaled_rows(a.data(), k, b.data(), n, alpha, out.data_mut());
}

/// [`matmul_nt_scaled_into`] over row-major slices (`a` holds
/// `out.len() / n` rows of width `k`; see [`matmul_rows`]).
fn nt_scaled_rows<S: Scalar>(a: &[S], k: usize, bd: &[S], n: usize, alpha: S, out: &mut [S]) {
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
                let mut acc = [S::ZERO; 8];
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
                let mut acc = S::ZERO;
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
/// to [`matmul_nt_scaled_into`]. The tree kernel's score shape in both
/// precisions: on the x86-64-v3 build the two rows of eight
/// accumulators are four 256-bit registers in f64 and two in f32, and
/// the tile beat the contiguous-`axpy8` formulation the SSE2 build
/// preferred for f32 (32 query rows, dh = 12: 8.2 vs 10.3 µs at 300 keys, 36 vs 46 µs at
/// 1317; in f64 it is 2× ahead).
fn scores_register_tile<S: Scalar>(q: &[S], dh: usize, kt: &[S], n: usize, scale: S, s: &mut [S]) {
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

/// One column block of [`scores_register_tile`] for `R` query rows at
/// once.
fn score_block<S: Scalar, const R: usize>(
    q: [&[S]; R],
    kt: &[S],
    n: usize,
    cols: std::ops::Range<usize>,
    scale: S,
    s: [&mut [S]; R],
) {
    let dh = q[0].len();
    let mut j = cols.start;
    while j + 8 <= cols.end {
        let mut acc = [[S::ZERO; 8]; R];
        for kk in 0..dh {
            let b: &[S; 8] = kt[kk * n + j..kk * n + j + 8].try_into().expect("chunk");
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
            let mut acc = S::ZERO;
            for (kk, &x) in q[r].iter().enumerate() {
                acc += x * kt[kk * n + jr];
            }
            s[r][jr] = acc * scale;
        }
    }
}

/// Fused single-head attention without materialized score/probability
/// matrices: `out = softmax(q·kᵀ·scale)·v`. For a sequence of length n
/// the unfused pipeline round-trips three n×n matrices through memory;
/// this holds one `n × QT` tile per lane.
///
/// **Key-major.** The queries go in tiles of `QT`, one 256-bit register
/// of them (4 in f64, 8 in f32). A tile's scores land in an `n × QT`
/// scratch tile, one row per distinct key, and every phase then runs
/// across the `QT` queries at once: the scores in a register tile of
/// [`SCORE_KEYS`] keys × `QT` queries read straight from row-major `k`,
/// one running maximum per query, the elementwise `exp`, the normalizer
/// in the precision's stripes of `QT`-wide rows, and `dh × QT` value
/// accumulators fed one probability row and one `v` row per key.
///
/// Keys may be given once per **row class** (see [`crate::classes`]):
/// with `key_class = Some(c)` the attended sequence has `c.len()` keys
/// and key `j` is row `c[j]` of `k`/`v`, which hold the distinct rows
/// only. The scores, the row maximum and the exponentials are then
/// computed once per distinct key, while the normalizer and the value
/// sums still walk all `c.len()` keys in their original order, reading
/// the shared probability row `c[j]` of the tile — every output element
/// sees the same operands in the same order as it would with `k`/`v`
/// expanded to one row per key, so the result is bit-identical to that
/// call, not merely close. `None` attends over the rows of `k` as they
/// are.
///
/// Row-parallel: the query rows are split over `lanes` lanes by
/// [`crate::par::run_row_lanes`] (`lanes = 1` starts no thread), each
/// with its own tile from `scratch`. The output is the same for every
/// lane count.
///
/// Bit-identical to `matmul_nt_scaled_into` → unmasked
/// [`masked_softmax_into`] → [`matmul_into`]: every output element keeps
/// its operands and their order — a score is one accumulator fed in
/// ascending `k`, then one multiply by `scale`; the normalizer adds the
/// same stripes in the same key order as [`striped_sum`]; a value sum adds
/// `p · v` in ascending key order; and a query whose maximum is not
/// finite or at or below [`MASK_NEG_THRESHOLD`] gets exact-zero
/// probabilities. `QT` only decides how many independent queries share
/// a pass, never a bit.
#[allow(clippy::too_many_arguments)]
pub fn attention_head_into<S: Scalar>(
    q: &Tensor<S>,
    k: &Tensor<S>,
    v: &Tensor<S>,
    key_class: Option<&[u32]>,
    scale: S,
    lanes: usize,
    scratch: &mut AttnScratch<S>,
    out: &mut Tensor<S>,
) {
    let (m, dh, n) = (q.rows(), q.cols(), k.rows());
    assert_eq!(dh, k.cols(), "attention q/k width mismatch");
    assert_eq!((v.rows(), v.cols()), (n, dh), "attention v shape mismatch");
    assert_eq!((out.rows(), out.cols()), (m, dh), "attention output shape mismatch");
    assert!((1..=MAX_HEAD).contains(&dh), "fused attention head supports widths 1 to 16");
    if let Some(class) = key_class {
        assert!(class.iter().all(|&c| (c as usize) < n), "key class out of range");
    }
    // The driver clamps to the row-tile count; surplus tiles stay empty.
    let lanes = lanes.max(1);
    let tiles = &mut scratch.tiles;
    if tiles.len() < lanes {
        tiles.resize_with(lanes, Vec::new);
    }
    let head = HeadInputs { k: k.data(), v: v.data(), key_class, n, dh, scale };
    let qd = q.data();
    run_row_lanes(m, out.data_mut(), dh, tiles[..lanes].iter_mut(), |rows, o, tile| {
        let q = &qd[rows.start * dh..rows.end * dh];
        // `QT` is 32 bytes of queries; the stripes are the precision's.
        match (std::mem::size_of::<S>(), S::STRIPES) {
            (8, 4) => key_major_head::<S, 4, 4>(&head, q, tile, o),
            (4, 8) => key_major_head::<S, 8, 8>(&head, q, tile, o),
            shape => unreachable!("no key-major tile for (bytes, stripes) = {shape:?}"),
        }
    });
}

/// Widest head [`attention_head_into`] takes: a query tile's `qᵀ` is a
/// `MAX_HEAD × QT` stack array.
const MAX_HEAD: usize = 16;

/// Keys per score register tile of the fused head: `SCORE_KEYS` running
/// sums of `QT` lanes each, so as many independent add chains.
const SCORE_KEYS: usize = 4;

/// The fused head over one lane's query rows, `QT` queries at a time
/// (the last tile may be ragged: its missing queries are zeros, and
/// only its real rows are stored). `W` is the normalizer's stripe count.
fn key_major_head<S: Scalar, const QT: usize, const W: usize>(
    head: &HeadInputs<S>,
    q: &[S],
    tile: &mut Vec<S>,
    out: &mut [S],
) {
    // Lane cuts fall on `L1_TILE` rows, so they stay tile-aligned.
    const { assert!(L1_TILE.is_multiple_of(QT)) };
    let HeadInputs { k, v, key_class, n, dh, scale } = *head;
    tile.clear();
    // Reserved for the attended sequence, not this call's class count,
    // so the scratch follows the sequence length as the class count
    // moves.
    tile.reserve_exact(QT * key_class.map_or(n, <[u32]>::len));
    tile.resize(QT * n, S::ZERO);
    let (p, _) = tile.as_chunks_mut::<QT>();
    for (qb, ob) in q.chunks(QT * dh).zip(out.chunks_mut(QT * dh)) {
        let mut qt = [[S::ZERO; QT]; MAX_HEAD];
        for (r, row) in qb.chunks_exact(dh).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                qt[c][r] = x;
            }
        }
        let mx = key_scores::<S, QT>(&qt[..dh], k, scale, p);
        for row in p.iter_mut() {
            for l in 0..QT {
                row[l] = (row[l] - mx[l]).exp_shifted();
            }
        }
        let z = match key_class {
            None => key_major_sum::<S, QT, W>(p, 0..n),
            Some(class) => key_major_sum::<S, QT, W>(p, class.iter().map(|&c| c as usize)),
        };
        let inv: [S; QT] = std::array::from_fn(|l| S::ONE / z[l]);
        for row in p.iter_mut() {
            for l in 0..QT {
                row[l] *= inv[l];
            }
        }
        // A query with no finite maximum above the mask threshold gets
        // exact-zero probabilities, whatever its exponentials were.
        let dead = mx.map(|x| !x.is_finite() || x <= S::MASK_NEG_THRESHOLD);
        if dead.contains(&true) {
            for row in p.iter_mut() {
                for l in 0..QT {
                    if dead[l] {
                        row[l] = S::ZERO;
                    }
                }
            }
        }
        match key_class {
            None => key_major_values::<S, QT>(p, 0..n, v, dh, ob),
            Some(class) => {
                key_major_values::<S, QT>(p, class.iter().map(|&c| c as usize), v, dh, ob)
            }
        }
    }
}

/// One query tile's scores into `p` (one `QT`-wide row per key of the
/// row-major `k`, `qt.len()` wide), [`SCORE_KEYS`] keys at a time and the
/// remainder one by one; returns every query's running maximum, taken
/// as each row is stored. `qt` is the tile's `qᵀ`.
fn key_scores<S: Scalar, const QT: usize>(
    qt: &[[S; QT]],
    k: &[S],
    scale: S,
    p: &mut [[S; QT]],
) -> [S; QT] {
    let dh = qt.len();
    let mut mx = [S::NEG_INFINITY; QT];
    let mut keys = k.chunks_exact(SCORE_KEYS * dh);
    let mut rows = p.chunks_exact_mut(SCORE_KEYS);
    for (kb, pb) in keys.by_ref().zip(rows.by_ref()) {
        score_keys::<S, QT, SCORE_KEYS>(qt, kb, scale, pb, &mut mx);
    }
    let rest = rows.into_remainder();
    for (kr, pr) in keys.remainder().chunks_exact(dh).zip(rest.chunks_exact_mut(1)) {
        score_keys::<S, QT, 1>(qt, kr, scale, pr, &mut mx);
    }
    mx
}

/// `R` keys of [`key_scores`]: the `R × QT` accumulators stay in
/// registers for the whole `k` loop, each starts at zero and takes its
/// products in ascending `k`, then one multiply by `scale` — the
/// arithmetic of [`nt_scaled_rows`] per element. A maximum skips NaN
/// (`if s > m`), as [`row_max`] does.
fn score_keys<S: Scalar, const QT: usize, const R: usize>(
    qt: &[[S; QT]],
    k: &[S],
    scale: S,
    p: &mut [[S; QT]],
    mx: &mut [S; QT],
) {
    let dh = qt.len();
    let kr: [&[S]; R] = std::array::from_fn(|j| &k[j * dh..(j + 1) * dh]);
    let mut acc = [[S::ZERO; QT]; R];
    for kk in 0..dh {
        let x = &qt[kk];
        for j in 0..R {
            let y = kr[j][kk];
            for l in 0..QT {
                acc[j][l] += x[l] * y;
            }
        }
    }
    for (row, acc) in p.iter_mut().zip(&acc) {
        for l in 0..QT {
            let s = acc[l] * scale;
            row[l] = s;
            if s > mx[l] {
                mx[l] = s;
            }
        }
    }
}

/// The normalizer of a query tile: [`striped_sum`] at `W` stripes over
/// the attended sequence `keys` (rows of `p`), `QT` queries at a time —
/// per query the same stripes, the same pairwise fold and the same
/// in-order remainder.
fn key_major_sum<S: Scalar, const QT: usize, const W: usize>(
    p: &[[S; QT]],
    mut keys: impl ExactSizeIterator<Item = usize>,
) -> [S; QT] {
    let mut s = [[S::ZERO; QT]; W];
    for _ in 0..keys.len() / W {
        for stripe in s.iter_mut() {
            let row = &p[keys.next().expect("a full stripe")];
            for l in 0..QT {
                stripe[l] += row[l];
            }
        }
    }
    let mut w = W;
    while w > 1 {
        w /= 2;
        for i in 0..w {
            s[i] = std::array::from_fn(|l| s[2 * i][l] + s[2 * i + 1][l]);
        }
    }
    let mut z = s[0];
    for j in keys {
        for l in 0..QT {
            z[l] += p[j][l];
        }
    }
    z
}

/// A query tile's outputs: the probability-weighted value sums over the
/// attended sequence `keys`, into the tile's rows of `out` (`dh` wide).
/// The widths the model runs get one `dh`-column block; any other width
/// runs 4-column blocks and then its last columns one at a time. Every
/// column keeps its own accumulators, so the blocking changes no bit.
fn key_major_values<S: Scalar, const QT: usize>(
    p: &[[S; QT]],
    keys: impl Iterator<Item = usize> + Clone,
    v: &[S],
    dh: usize,
    out: &mut [S],
) {
    match dh {
        8 => value_cols::<S, QT, 8>(p, keys, v, dh, 0, out),
        12 => value_cols::<S, QT, 12>(p, keys, v, dh, 0, out),
        16 => value_cols::<S, QT, 16>(p, keys, v, dh, 0, out),
        _ => {
            let blocked = dh - dh % 4;
            for c in (0..blocked).step_by(4) {
                value_cols::<S, QT, 4>(p, keys.clone(), v, dh, c, out);
            }
            for c in blocked..dh {
                value_cols::<S, QT, 1>(p, keys.clone(), v, dh, c, out);
            }
        }
    }
}

/// Columns `c0 .. c0 + N` of [`key_major_values`]: `N × QT` accumulators
/// in registers, each fed `p · v` in the order of `keys`, then stored
/// transposed into the tile's real rows of `out`.
fn value_cols<S: Scalar, const QT: usize, const N: usize>(
    p: &[[S; QT]],
    keys: impl Iterator<Item = usize>,
    v: &[S],
    dh: usize,
    c0: usize,
    out: &mut [S],
) {
    let mut acc = [[S::ZERO; QT]; N];
    for j in keys {
        let pr = &p[j];
        let vr: &[S; N] = v[j * dh + c0..j * dh + c0 + N].try_into().expect("width");
        for c in 0..N {
            for l in 0..QT {
                acc[c][l] += pr[l] * vr[c];
            }
        }
    }
    for (r, o) in out.chunks_exact_mut(dh).enumerate() {
        for c in 0..N {
            o[c0 + c] = acc[c][r];
        }
    }
}

/// Probability-weighted value sums of one score tile: four rows per `v`
/// pass (the small-n matmul pattern; per-element accumulation order is
/// unchanged, `v` traffic is quartered). `keys` yields, for every
/// attended key in order, its row in `v` and its column in the tile.
/// Common head widths get a const-width instantiation so the inner loops
/// fully unroll.
fn value_sums<S: Scalar>(
    tile: &[S],
    n: usize,
    keys: impl Iterator<Item = usize> + Clone,
    rows: std::ops::Range<usize>,
    vd: &[S],
    dh: usize,
    out: &mut [S],
) {
    match dh {
        8 => weighted_value_sums::<S, 8>(tile, n, keys, rows, vd, out),
        12 => weighted_value_sums::<S, 12>(tile, n, keys, rows, vd, out),
        16 => weighted_value_sums::<S, 16>(tile, n, keys, rows, vd, out),
        _ => weighted_value_sums_dyn(tile, n, keys, rows, vd, dh, out),
    }
}

/// The tree kernel's output phase with a compile-time head
/// width (same accumulation order as the dynamic fallback).
fn weighted_value_sums<S: Scalar, const DH: usize>(
    tile: &[S],
    n: usize,
    keys: impl Iterator<Item = usize> + Clone,
    rows: std::ops::Range<usize>,
    vd: &[S],
    out: &mut [S],
) {
    let (ib, ih) = (rows.start, rows.end);
    let mut i = ib;
    while i < ih {
        let rows = (ih - i).min(4);
        let mut acc = [[S::ZERO; DH]; 4];
        for kk in keys.clone() {
            let b_row: &[S; DH] = vd[kk * DH..(kk + 1) * DH].try_into().expect("width");
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

/// Runtime-width fallback of [`weighted_value_sums`], for any head width:
/// the output columns go in blocks of at most 16, and every column keeps
/// its own accumulator, so the blocking does not change a bit.
fn weighted_value_sums_dyn<S: Scalar>(
    tile: &[S],
    n: usize,
    keys: impl Iterator<Item = usize> + Clone,
    rows: std::ops::Range<usize>,
    vd: &[S],
    dh: usize,
    out: &mut [S],
) {
    const CB: usize = 16;
    let (ib, ih) = (rows.start, rows.end);
    let mut acc = [[S::ZERO; CB]; 4];
    let mut i = ib;
    while i < ih {
        let rows = (ih - i).min(4);
        for c in (0..dh).step_by(CB) {
            let w = (dh - c).min(CB);
            for a in acc.iter_mut().take(rows) {
                a[..w].fill(S::ZERO);
            }
            for kk in keys.clone() {
                let b_row = &vd[kk * dh + c..kk * dh + c + w];
                for (r, a) in acc.iter_mut().take(rows).enumerate() {
                    let p = tile[(i - ib + r) * n + kk];
                    for (o, &bv) in a[..w].iter_mut().zip(b_row) {
                        *o += p * bv;
                    }
                }
            }
            for (r, a) in acc.iter().take(rows).enumerate() {
                out[(i + r) * dh + c..(i + r) * dh + c + w].copy_from_slice(&a[..w]);
            }
        }
        i += rows;
    }
}

/// `out = a · b` where rows of `a` are expected to be mostly exact zeros
/// (masked attention probabilities). Skips zero multiplicands; bit-identical
/// to [`matmul_into`] for finite `b` (see module docs).
pub fn matmul_sparse_into<S: Scalar>(a: &Tensor<S>, b: &Tensor<S>, out: &mut Tensor<S>) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "matmul inner dimension mismatch");
    assert_eq!((out.rows(), out.cols()), (m, n), "matmul output shape mismatch");
    let bd = b.data();
    for i in 0..m {
        let a_row = a.row_slice(i);
        let o_row = &mut out.data_mut()[i * n..(i + 1) * n];
        o_row.fill(S::ZERO);
        for (kk, &av) in a_row.iter().enumerate() {
            if av == S::ZERO {
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
pub fn masked_softmax_into<S: Scalar>(
    x: &Tensor<S>,
    mask: Option<&Tensor<S>>,
    out: &mut Tensor<S>,
) {
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
        let mut mx = S::NEG_INFINITY;
        for (&v, &mv) in row.iter().zip(mrow) {
            mx = mx.max(v + mv);
        }
        if !mx.is_finite() || mx <= S::MASK_NEG_THRESHOLD {
            o_row.fill(S::ZERO);
            continue;
        }
        let mut z = S::ZERO;
        for ((o, &v), &mv) in o_row.iter_mut().zip(row).zip(mrow) {
            let e = if mv <= S::MASK_NEG_THRESHOLD { S::ZERO } else { (v + mv - mx).exp() };
            *o = e;
            z += e;
        }
        let inv = S::ONE / z;
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
fn softmax_rows<S: Scalar>(x: &[S], n: usize, out: &mut [S]) {
    for (row, o_row) in x.chunks_exact(n.max(1)).zip(out.chunks_exact_mut(n.max(1))) {
        let mx = row_max(row);
        if !mx.is_finite() || mx <= S::MASK_NEG_THRESHOLD {
            o_row.fill(S::ZERO);
            continue;
        }
        // Exponentials first (independent elements), then a striped
        // normalizer sum: splitting the passes keeps the exp calls off
        // the z dependency chain.
        for (o, &v) in o_row.iter_mut().zip(row) {
            *o = (v - mx).exp_shifted();
        }
        let inv = S::ONE / S::striped_sum(o_row);
        for o in o_row.iter_mut() {
            *o *= inv;
        }
    }
}

/// Scratch of [`tree_attention_into`], owned by the forward context and
/// reused across calls: one tree's gathered rows and score tile, its
/// distinct rows and the member → distinct-row map. Sized by the largest
/// tree's member count, never by its distinct rows, so it stays flat
/// while the class count moves.
#[derive(Debug, Default)]
pub struct TreeScratch<S> {
    vals: Vec<S>,
    keys: Vec<usize>,
    key_of: Vec<usize>,
}

impl<S> TreeScratch<S> {
    /// Elements currently reserved across all buffers (arena-growth
    /// checks).
    pub fn capacity(&self) -> usize {
        self.vals.capacity() + self.keys.capacity() + self.key_of.capacity()
    }
}

/// Block-sparse multi-head attention over tree cliques (the paper's
/// tree-local stage): every member of group `g` attends to the members of
/// `g`, in member order, and `out` receives the concatenated per-head
/// output (pre-`W_o`). `q`/`k`/`v` are the projected `rows × d` inputs;
/// rows outside every group are zero-filled. Groups must not share rows
/// (each entity is in its one host tree).
///
/// Rows may be given once per **row class** (see [`crate::classes`]):
/// with `classes = Some((first, class))` a member `m ≥ first` is row
/// `first + class[m − first]` of the inputs and of `out`, which hold the
/// rows below `first` and then one row per class; `None` reads member
/// `m` as row `m`. Per tree the distinct member rows are gathered once,
/// for all heads, into contiguous scratch with `k` transposed and padded
/// to a multiple of eight keys, so every score runs in the 2 × 8 register
/// tile of [`scores_register_tile`]: one per (distinct query, distinct
/// key) pair, one accumulator fed in ascending `k`, then one multiply by
/// `scale`. The row maximum and the libm `exp` run once per distinct key;
/// the sequential normalizer of the masked path and the 4-row value sums
/// ([`value_sums`]) walk all the tree's members in member
/// order, reading the shared probability — the rule
/// [`attention_head_into`] follows for class-keyed keys.
///
/// Bit-identical to dense attention under the equivalent additive mask
/// ([`masked_softmax_into`] → [`matmul_sparse_into`]) on the rows
/// expanded to one per member: every output element sees the same
/// operands in the same order (a maximum over a multiset is the maximum
/// over its set; a score and an `exp` are per element), masked entries
/// contribute exact zeros, and equal rows of one tree get equal outputs.
/// The value sums add the `0 · v` terms the sparse product skips, which
/// changes nothing for finite `v` (see the module docs).
pub fn tree_attention_into<S: Scalar>(
    [q, k, v]: [&Tensor<S>; 3],
    groups: &TreeGroups,
    classes: Option<(usize, &[u32])>,
    heads: usize,
    scale: S,
    scratch: &mut TreeScratch<S>,
    out: &mut Tensor<S>,
) {
    let (rows, d) = (q.rows(), q.cols());
    assert!(heads > 0 && d.is_multiple_of(heads), "width must divide by heads");
    for t in [k, v, &*out] {
        assert_eq!((t.rows(), t.cols()), (rows, d), "tree attention shape mismatch");
    }
    let dh = d / heads;
    let row_of = |m: usize| match classes {
        Some((first, class)) if m >= first => first + class[m - first] as usize,
        _ => m,
    };
    out.data_mut().fill(S::ZERO);
    let largest = (0..groups.len()).map(|g| groups.group(g).len()).max().unwrap_or(0);
    let TreeScratch { vals, keys, key_of } = scratch;
    // Sized by member count, so the largest class count cannot grow it.
    let tile = largest.next_multiple_of(8);
    vals.clear();
    vals.resize(2 * largest * d + d * tile + largest * tile, S::ZERO);
    for list in [&mut *keys, &mut *key_of] {
        list.clear();
        list.reserve(largest);
    }
    for g in 0..groups.len() {
        // Distinct member rows in order of first appearance, and every
        // member's position among them.
        keys.clear();
        key_of.clear();
        for &m in groups.group(g) {
            let r = row_of(m);
            let j = keys.iter().position(|&x| x == r).unwrap_or_else(|| {
                keys.push(r);
                keys.len() - 1
            });
            key_of.push(j);
        }
        let du = keys.len();
        if du == 0 {
            continue;
        }
        let kp = du.next_multiple_of(8);
        let (qg, rest) = vals.split_at_mut(du * d);
        let (kt, rest) = rest.split_at_mut(d * kp);
        let (vg, s) = rest.split_at_mut(du * d);
        // q and v head-major (each head's rows contiguous, `dh` wide),
        // k transposed to `d × kp` with zero padding keys.
        for (j, &r) in keys.iter().enumerate() {
            let (qr, kr, vr) = (q.row_slice(r), k.row_slice(r), v.row_slice(r));
            for h in 0..heads {
                let (src, dst) = (h * dh..(h + 1) * dh, (h * du + j) * dh..(h * du + j + 1) * dh);
                qg[dst.clone()].copy_from_slice(&qr[src.clone()]);
                vg[dst].copy_from_slice(&vr[src]);
            }
            for (row, &x) in kt.chunks_exact_mut(kp).zip(kr) {
                row[j] = x;
            }
        }
        for pad in kt.chunks_exact_mut(kp) {
            pad[du..].fill(S::ZERO);
        }
        let s = &mut s[..du * kp];
        for h in 0..heads {
            let head = h * du * dh..(h + 1) * du * dh;
            scores_register_tile(&qg[head.clone()], dh, &kt[h * dh * kp..], kp, scale, s);
            for p in s.chunks_exact_mut(kp) {
                tree_softmax(&mut p[..du], key_of);
            }
            // The head's queries are spent: their slot takes its output.
            let o = &mut qg[head.clone()];
            value_sums(s, kp, key_of.iter().copied(), 0..du, &vg[head], dh, o);
            for (o, &r) in o.chunks_exact(dh).zip(keys.iter()) {
                out.data_mut()[r * d + h * dh..r * d + (h + 1) * dh].copy_from_slice(o);
            }
        }
    }
}

/// One distinct query row of [`tree_attention_into`] in place: scores
/// over the tree's distinct keys become probabilities — maximum and
/// `exp` per distinct key, the sequential normalizer over every member
/// (`key_of`) — or all zeros for a non-finite or fully masked row.
fn tree_softmax<S: Scalar>(p: &mut [S], key_of: &[usize]) {
    let mx = row_max(p);
    if !mx.is_finite() || mx <= S::MASK_NEG_THRESHOLD {
        p.fill(S::ZERO);
        return;
    }
    for s in p.iter_mut() {
        *s = (*s - mx).exp();
    }
    let mut z = S::ZERO;
    for &j in key_of {
        z += p[j];
    }
    let inv = S::ONE / z;
    for s in p.iter_mut() {
        *s *= inv;
    }
}

/// `W`-stripe sum with a pairwise fold of the stripes (`W` a power of
/// two: 4 → `(s0+s1)+(s2+s3)`), then the remainder in order. Pairs with
/// the unmasked softmax fast path; the masked path keeps a sequential
/// sum so that block-sparse tree attention — which sums the same nonzero
/// terms compacted — stays bit-identical to it. The stripe count is the
/// precision's ([`Scalar::striped_sum`]).
pub(crate) fn striped_sum<S: Scalar, const W: usize>(row: &[S]) -> S {
    let mut s = [S::ZERO; W];
    let mut chunks = row.chunks_exact(W);
    for c in chunks.by_ref() {
        let c: &[S; W] = c.try_into().expect("chunk");
        for l in 0..W {
            s[l] += c[l];
        }
    }
    let mut z = fold_stripes(s);
    for &v in chunks.remainder() {
        z += v;
    }
    z
}

/// Adds neighbouring stripes until one is left.
fn fold_stripes<S: Scalar, const W: usize>(mut s: [S; W]) -> S {
    let mut w = W;
    while w > 1 {
        w /= 2;
        for i in 0..w {
            s[i] = s[2 * i] + s[2 * i + 1];
        }
    }
    s[0]
}

/// Row maximum with eight independent running maxima, folded by
/// compare-and-select: unlike `f64::max`, whose NaN rule needs an extra
/// unordered compare per element, `if v > m` is one packed `max`. The
/// value is the same as the `max` fold's: a NaN operand fails the
/// compare and is skipped either way, the order of the fold cannot
/// change a maximum, and a `±0.0` tie differs only in a sign the
/// consumers (`s − mx`, the threshold test) cannot see.
fn row_max<S: Scalar>(row: &[S]) -> S {
    let mut m = [S::NEG_INFINITY; 8];
    let mut chunks = row.chunks_exact(8);
    for c in chunks.by_ref() {
        let c: &[S; 8] = c.try_into().expect("chunk");
        for l in 0..8 {
            if c[l] > m[l] {
                m[l] = c[l];
            }
        }
    }
    let mut mx = S::NEG_INFINITY;
    for &v in m.iter().chain(chunks.remainder()) {
        if v > mx {
            mx = v;
        }
    }
    mx
}

/// Row-wise softmax of a single row under a boolean keep-mask (`true` =
/// attend), emitting **f64** probabilities for either precision so the
/// sampling stack (`Categorical`, quantile thresholds, log-prob
/// accounting) exists once. The max/exp run in `S`, normalization in
/// f64. For `S = f64` arithmetically identical to
/// [`masked_softmax_into`] with an additive mask of `0.0` / [`MASK_OFF`].
pub fn masked_softmax_bool_row<S: Scalar>(x: &[S], keep: &[bool], out: &mut Vec<f64>) {
    assert_eq!(x.len(), keep.len(), "bool mask length mismatch");
    out.clear();
    out.resize(x.len(), 0.0);
    let mut mx = S::NEG_INFINITY;
    for (&v, &k) in x.iter().zip(keep) {
        let mv = if k { S::ZERO } else { S::MASK_OFF };
        mx = mx.max(v + mv);
    }
    if !mx.is_finite() || mx <= S::MASK_NEG_THRESHOLD {
        return;
    }
    let mut z = 0.0;
    for (c, (&v, &k)) in x.iter().zip(keep).enumerate() {
        let e = if k { (v - mx).exp().to_f64() } else { 0.0 };
        out[c] = e;
        z += e;
    }
    let inv = 1.0 / z;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Row-wise log-softmax of `x + mask` into `out`; masked (zero-probability)
/// positions are reported as [`MASK_OFF`]. Training-only, hence f64.
pub fn masked_log_softmax_into(x: &Tensor, mask: Option<&Tensor>, out: &mut Tensor) {
    masked_softmax_into(x, mask, out);
    for v in out.data_mut() {
        *v = if *v > 0.0 { v.ln() } else { MASK_OFF };
    }
}

/// Row-wise standardization `(x − μ)/σ` with ε-stabilized variance.
pub fn layer_norm_into<S: Scalar>(x: &Tensor<S>, eps: S, out: &mut Tensor<S>) {
    assert_eq!((out.rows(), out.cols()), (x.rows(), x.cols()), "layer_norm output shape mismatch");
    let d = S::from_usize(x.cols());
    for r in 0..x.rows() {
        let row = x.row_slice(r);
        let mu: S = row.iter().sum::<S>() / d;
        let var: S = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<S>() / d;
        let sigma = (var + eps).sqrt();
        let o_row = &mut out.data_mut()[r * row.len()..(r + 1) * row.len()];
        for (o, &v) in o_row.iter_mut().zip(row) {
            *o = (v - mu) / sigma;
        }
    }
}

/// Cache-blocked transpose: `out = xᵀ`.
pub fn transpose_into<S: Scalar>(x: &Tensor<S>, out: &mut Tensor<S>) {
    let (r, c) = (x.rows(), x.cols());
    assert_eq!((out.rows(), out.cols()), (c, r), "transpose output shape mismatch");
    transpose_rows(x.data(), r, c, out.data_mut());
}

/// [`transpose_into`] over row-major slices (`xd` is `r × c`, `od`
/// becomes `c × r`).
fn transpose_rows<S: Scalar>(xd: &[S], r: usize, c: usize, od: &mut [S]) {
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
pub fn mean_rows_into<S: Scalar>(x: &Tensor<S>, out: &mut Tensor<S>) {
    assert_eq!((out.rows(), out.cols()), (1, x.cols()), "mean_rows output shape mismatch");
    out.data_mut().fill(S::ZERO);
    for r in 0..x.rows() {
        let row = x.row_slice(r);
        for (o, &v) in out.data_mut().iter_mut().zip(row) {
            *o += v;
        }
    }
    let n = S::from_usize(x.rows().max(1));
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

    fn rand_t32(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor<f32> {
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
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

    fn striped_compare_max_equals_the_max_fold_in<S: Scalar>() {
        let max_fold = |row: &[S]| row.iter().fold(S::NEG_INFINITY, |m, &v| m.max(v));
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
            let row: Vec<S> = row.iter().map(|&v| S::from_f64(v)).collect();
            let (got, want) = (row_max(&row), max_fold(&row));
            assert!(got == want, "{row:?}: {got:?} vs {want:?}");
        }
        assert!(
            row_max(&[S::MASK_OFF; 23]) <= S::MASK_NEG_THRESHOLD,
            "all-masked rows stay masked"
        );
    }

    #[test]
    fn striped_compare_max_equals_the_max_fold() {
        striped_compare_max_equals_the_max_fold_in::<f64>();
    }

    #[test]
    fn f32_striped_compare_max_equals_the_max_fold() {
        striped_compare_max_equals_the_max_fold_in::<f32>();
    }

    #[test]
    fn stripes_fold_pairwise() {
        let row: Vec<f64> = (0..19).map(|j| 1.0 / (j as f64 + 3.0)).collect();
        let s: Vec<f64> = (0..4).map(|l| row[l] + row[l + 4] + row[l + 8] + row[l + 12]).collect();
        let want = (s[0] + s[1]) + (s[2] + s[3]) + row[16] + row[17] + row[18];
        assert_eq!(striped_sum::<f64, 4>(&row), want);
        let s: Vec<f64> = (0..8).map(|l| row[l] + row[l + 8]).collect();
        let want = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
        assert_eq!(striped_sum::<f64, 8>(&row), want + row[16] + row[17] + row[18]);
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

    #[test]
    fn both_loop_shapes_agree_bitwise() {
        // The register score tile equals the strided row-dot path it
        // stands in for (the GEMM tile's gate is `tests/prop_matmul.rs`).
        fn check<S: Scalar>(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rand = |len: usize| -> Vec<S> {
                (0..len).map(|_| S::from_f64(rng.gen_range(-1.5..1.5))).collect()
            };
            for (m, k, n) in [(5, 12, 300), (3, 7, 17), (4, 24, 529)] {
                let (a, b) = (rand(m * k), rand(k * n));
                let scale = S::from_f64(0.3);
                let mut bt = vec![S::ZERO; n * k];
                transpose_rows(&b, k, n, &mut bt);
                let (mut tile, mut dots) = (vec![S::ZERO; m * n], vec![S::ONE; m * n]);
                scores_register_tile(&a, k, &b, n, scale, &mut tile);
                nt_scaled_rows(&a, k, &bt, n, scale, &mut dots);
                assert!(tile == dots, "score tile {m}x{k}x{n}");
            }
        }
        check::<f64>(21);
        check::<f32>(22);
    }

    #[test]
    fn f32_matmul_close_to_f64_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in &[(3, 5, 40), (17, 24, 24), (2, 24, 1), (33, 16, 300)] {
            let a = rand_t32(m, k, &mut rng);
            let b = rand_t32(k, n, &mut rng);
            let mut out = Tensor::zeros(m, n);
            matmul_into(&a, &b, &mut out);
            let mut reference = Tensor::zeros(m, n);
            matmul_into(&a.to_f64(), &b.to_f64(), &mut reference);
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
    fn f32_matmul_nt_scaled_matches_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = rand_t32(9, 12, &mut rng);
        let b = rand_t32(37, 12, &mut rng);
        let mut out = Tensor::zeros(9, 37);
        matmul_nt_scaled_into(&a, &b, 0.25, &mut out);
        let mut reference = Tensor::zeros(9, 37);
        matmul_nt_scaled_into(&a.to_f64(), &b.to_f64(), 0.25, &mut reference);
        for (got, want) in out.data().iter().zip(reference.data()) {
            assert!((f64::from(*got) - want).abs() < 1e-5, "{got} vs {want}");
        }
    }

    #[test]
    fn f32_softmax_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = rand_t32(5, 100, &mut rng);
        let mut out = Tensor::zeros(5, 100);
        masked_softmax_into(&x, None, &mut out);
        for r in 0..5 {
            let s: f32 = out.row_slice(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    /// The fused head against `matmul_nt_scaled_into` →
    /// `masked_softmax_into(None)` → `matmul_into`, on raw bits: ragged
    /// query tiles (`m mod QT ≠ 0`), one key (the PM actor's call) and
    /// the 4-key score remainder, the const value widths and the
    /// runtime-width blocks, two lanes, and query rows whose scores are
    /// all `−∞` or hold `+∞` and NaN — those must be exact zero rows.
    fn fused_head_matches_unfused_chain_in<S: Scalar>(seed: u64) {
        let ty = std::any::type_name::<S>();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rand = |rows: usize, cols: usize| -> Tensor<S> {
            let data = (0..rows * cols).map(|_| S::from_f64(rng.gen_range(-1.5..1.5))).collect();
            Tensor::from_vec(rows, cols, data)
        };
        let bits = |t: &Tensor<S>| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut scratch = AttnScratch::default();
        for dh in [1, 5, 8, 12, 16] {
            for n in [1, 3, 4, 5, 37] {
                for (m, lanes) in [(1, 1), (11, 1), (70, 2)] {
                    let (mut q, mut k, v) = (rand(m, dh), rand(n, dh), rand(n, dh));
                    // Row 0 scores −∞ on every key (`+∞ · −1` in column
                    // 0). Row 1 scores +∞, −∞ and NaN in turn (`+∞ ·
                    // {1, −1, 0}` in column 1), or NaN on every key when
                    // the head is one column wide.
                    let (inf, nan) = (S::from_f64(f64::INFINITY), S::from_f64(f64::NAN));
                    for c in 0..dh {
                        q.set(0, c, if c == 0 { inf } else { S::ZERO });
                        if m > 1 {
                            q.set(1, c, if c == 1 { inf } else { S::ZERO });
                        }
                    }
                    if m > 1 && dh == 1 {
                        q.set(1, 0, nan);
                    }
                    for j in 0..n {
                        k.set(j, 0, S::from_f64(-1.0));
                        if dh > 1 {
                            k.set(j, 1, S::from_f64([1.0, -1.0, 0.0][j % 3]));
                        }
                    }
                    let scale = S::from_f64(1.0 / (dh as f64).sqrt());
                    let mut fused = Tensor::zeros(m, dh);
                    attention_head_into(&q, &k, &v, None, scale, lanes, &mut scratch, &mut fused);
                    let mut scores = Tensor::zeros(m, n);
                    matmul_nt_scaled_into(&q, &k, scale, &mut scores);
                    let mut probs = Tensor::zeros(m, n);
                    masked_softmax_into(&scores, None, &mut probs);
                    let mut unfused = Tensor::zeros(m, dh);
                    matmul_into(&probs, &v, &mut unfused);
                    let what = format!("{ty} m={m} n={n} dh={dh} lanes={lanes}");
                    assert_eq!(bits(&fused), bits(&unfused), "{what}");
                    let zero = S::ZERO.to_bits();
                    for r in 0..m.min(2) {
                        let row = fused.row_slice(r);
                        assert!(row.iter().all(|x| x.to_bits() == zero), "{what} row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_attention_matches_unfused_chain() {
        fused_head_matches_unfused_chain_in::<f64>(10);
    }

    #[test]
    fn f32_fused_attention_matches_unfused_chain() {
        fused_head_matches_unfused_chain_in::<f32>(10);
    }

    #[test]
    fn f32_bool_row_softmax_masks_and_normalizes() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let keep = [true, false, true, false];
        let mut out = Vec::new();
        masked_softmax_bool_row(&x, &keep, &mut out);
        assert_eq!(out[1], 0.0);
        assert_eq!(out[3], 0.0);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out[2] > out[0]);
    }

    #[test]
    fn f32_layer_norm_standardizes() {
        let x = Tensor::from_vec(1, 4, vec![1.0f32, 2.0, 3.0, 4.0]);
        let mut out = Tensor::zeros(1, 4);
        layer_norm_into(&x, 1e-5, &mut out);
        let mean: f32 = out.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn f32_mean_rows_pools() {
        let x = Tensor::from_vec(2, 3, vec![1.0f32, 2.0, 3.0, 3.0, 4.0, 5.0]);
        let mut out = Tensor::zeros(1, 3);
        mean_rows_into(&x, &mut out);
        assert_eq!(out.data(), &[2.0, 3.0, 4.0]);
    }
}

#[cfg(test)]
mod exp_tests {
    use crate::scalar::Scalar;

    #[test]
    fn exp_shifted_accuracy_and_edges() {
        assert_eq!(0.0f64.exp_shifted(), 1.0);
        // Below the clamp: a ~3e-308 probability, normalized away.
        assert!((-750.0f64).exp_shifted() < 1e-300);
        assert!(f64::NEG_INFINITY.exp_shifted() < 1e-300);
        let mut worst: f64 = 0.0;
        let mut x = -700.0f64;
        while x <= 0.0 {
            let a = x.exp_shifted();
            let e = x.exp();
            let rel = if e == 0.0 { a.abs() } else { ((a - e) / e).abs() };
            worst = worst.max(rel);
            x += 0.000_537; // irregular step, sweeps many reduction cells
        }
        assert!(worst < 1e-12, "worst relative error {worst:e}");
    }

    #[test]
    fn f32_exp_shifted_accuracy_and_edges() {
        assert_eq!(0.0f32.exp_shifted(), 1.0);
        assert!((-100.0f32).exp_shifted() >= 0.0);
        let mut worst = 0.0f64;
        let mut x = -80.0f32;
        while x < 0.0 {
            let got = f64::from(x.exp_shifted());
            let want = f64::from(x).exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.003_17;
        }
        assert!(worst < 4.0 * f64::from(f32::EPSILON), "worst rel err {worst:e}");
    }
}
