//! Tolerance-gated equivalence of the kernels at `f32` against `f64`.
//!
//! The f64 engines demand bit-identity (`prop_fwdctx.rs`); across
//! precisions the contract is a *condition-aware error bound* instead:
//! every `kernels::*::<f32>` routine, run on f32-representable inputs,
//! must land within a forward-error bound of the same routine at `f64`
//! run on the **same inputs**. The bounds are
//! the classical ones — a length-`k` dot product accumulates at most
//! `≈ k·u` relative error (`u = f32::EPSILON`), scaled by the sum of
//! absolute products `Σ|aᵢ||bᵢ|` so ill-conditioned cancellations are
//! budgeted for rather than hidden behind a loose constant.
//!
//! Shape ranges deliberately cross the implementation's seams: the
//! GEMM's const-width tiles vs its 8-column blocks and single columns
//! (and the ragged last row of the two-row tile), the `L1_TILE`
//! score-row tiles and the 64-row `k`/`v` blocks of the fused attention
//! kernel, and the 8-lane `chunks_exact` remainders.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmr_nn::kernels;
use vmr_nn::par::AttnScratch;
use vmr_nn::scalar::Scalar;
use vmr_nn::tensor::Tensor;

type Tensor32 = Tensor<f32>;

/// Random f32 tensor plus its exact f64 image (every f32 is exact in f64,
/// so both kernel families see numerically identical inputs).
fn rand_pair(rows: usize, cols: usize, rng: &mut StdRng) -> (Tensor32, Tensor) {
    let t32 = Tensor32::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.5f32..1.5)).collect(),
    );
    let t64 = t32.to_f64();
    (t32, t64)
}

/// `Σ|aᵢ||bᵢ|` over the inner dimension for output element `(i, j)` of
/// `a·b` — the conditioning factor of that dot product.
fn abs_dot(a: &Tensor, b_col: impl Fn(usize) -> f64, i: usize) -> f64 {
    a.row_slice(i).iter().enumerate().map(|(kk, &av)| av.abs() * b_col(kk).abs()).sum()
}

const U: f64 = f32::EPSILON as f64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense GEMM: forward error of each output element bounded by the
    /// length-`k` dot-product bound, across the const-width tiles and
    /// the column-block path.
    #[test]
    fn matmul_within_dot_product_bound(
        m in 1usize..8,
        k in 1usize..32,
        n in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a32, a64) = rand_pair(m, k, &mut rng);
        let (b32, b64) = rand_pair(k, n, &mut rng);
        let mut out32 = Tensor32::zeros(m, n);
        let mut out64 = Tensor::zeros(m, n);
        kernels::matmul_into(&a32, &b32, &mut out32);
        kernels::matmul_into(&a64, &b64, &mut out64);
        for i in 0..m {
            for j in 0..n {
                let cond = abs_dot(&a64, |kk| b64.get(kk, j), i);
                let tol = (k as f64 + 2.0) * U * cond + 1e-30;
                let diff = (f64::from(out32.get(i, j)) - out64.get(i, j)).abs();
                prop_assert!(diff <= tol, "({i},{j}): |Δ|={diff:e} > tol={tol:e}");
            }
        }
    }

    /// `a·bᵀ·α` score kernel: same bound, scaled by `|α|`.
    #[test]
    fn matmul_nt_scaled_within_bound(
        m in 1usize..8,
        k in 1usize..16,
        n in 1usize..12,
        alpha in -2.0f32..2.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a32, a64) = rand_pair(m, k, &mut rng);
        let (b32, b64) = rand_pair(n, k, &mut rng);
        let mut out32 = Tensor32::zeros(m, n);
        let mut out64 = Tensor::zeros(m, n);
        kernels::matmul_nt_scaled_into(&a32, &b32, alpha, &mut out32);
        kernels::matmul_nt_scaled_into(&a64, &b64, f64::from(alpha), &mut out64);
        for i in 0..m {
            for j in 0..n {
                let cond = abs_dot(&a64, |kk| b64.get(j, kk), i) * f64::from(alpha).abs();
                let tol = (k as f64 + 3.0) * U * cond + 1e-30;
                let diff = (f64::from(out32.get(i, j)) - out64.get(i, j)).abs();
                prop_assert!(diff <= tol, "({i},{j}): |Δ|={diff:e} > tol={tol:e}");
            }
        }
    }

    /// Sparse-aware GEMM: skipping exact zeros is exact, so the bound is
    /// the dense one.
    #[test]
    fn matmul_sparse_within_bound(
        m in 1usize..8,
        k in 2usize..24,
        n in 1usize..24,
        density in 0.05f64..0.9,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut a32, _) = rand_pair(m, k, &mut rng);
        for v in a32.data_mut() {
            if rng.gen_bool(1.0 - density) {
                *v = 0.0;
            }
        }
        let a64 = a32.to_f64();
        let (b32, b64) = rand_pair(k, n, &mut rng);
        let mut out32 = Tensor32::zeros(m, n);
        let mut out64 = Tensor::zeros(m, n);
        kernels::matmul_sparse_into(&a32, &b32, &mut out32);
        kernels::matmul_into(&a64, &b64, &mut out64);
        for i in 0..m {
            for j in 0..n {
                let cond = abs_dot(&a64, |kk| b64.get(kk, j), i);
                let tol = (k as f64 + 2.0) * U * cond + 1e-30;
                let diff = (f64::from(out32.get(i, j)) - out64.get(i, j)).abs();
                prop_assert!(diff <= tol, "({i},{j}): |Δ|={diff:e} > tol={tol:e}");
            }
        }
    }

    /// Masked softmax: probabilities are in [0, 1], the polynomial
    /// `exp_shifted` is good to a few ULP, and normalization adds ≈ n·u,
    /// so a 2e-5 absolute bound per probability is comfortably loose
    /// while still catching a wrong max-shift or a dropped mask lane.
    #[test]
    fn masked_softmax_within_bound(
        rows in 1usize..5,
        cols in 1usize..33,
        masked in proptest::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (x32, x64) = rand_pair(rows, cols, &mut rng);
        // Additive mask that never fully masks a row.
        let (mask32, mask64) = if masked {
            let mut m32 = Tensor32::zeros(rows, cols);
            for r in 0..rows {
                let keep = rng.gen_range(0..cols);
                for c in 0..cols {
                    if c != keep && rng.gen_bool(0.4) {
                        m32.set(r, c, <f32 as Scalar>::MASK_OFF);
                    }
                }
            }
            let mut m64 = m32.to_f64();
            for v in m64.data_mut() {
                if *v != 0.0 {
                    *v = vmr_nn::graph::MASK_OFF;
                }
            }
            (Some(m32), Some(m64))
        } else {
            (None, None)
        };
        let mut out32 = Tensor32::zeros(rows, cols);
        let mut out64 = Tensor::zeros(rows, cols);
        kernels::masked_softmax_into(&x32, mask32.as_ref(), &mut out32);
        kernels::masked_softmax_into(&x64, mask64.as_ref(), &mut out64);
        for r in 0..rows {
            for c in 0..cols {
                let diff = (f64::from(out32.get(r, c)) - out64.get(r, c)).abs();
                prop_assert!(diff <= 2e-5, "({r},{c}): |Δ|={diff:e} > 2e-5");
                if let Some(m) = &mask64 {
                    if m.get(r, c) != 0.0 {
                        prop_assert_eq!(out32.get(r, c), 0.0, "masked lane must be exactly 0");
                    }
                }
            }
        }
    }

    /// Boolean-row softmax (the sampling-path variant): emitted f64
    /// probabilities track the f64 kernel within 2e-5, kept lanes sum to
    /// 1 at f64 precision, and dropped lanes are exactly 0 — the
    /// properties `Categorical` sampling relies on.
    #[test]
    fn masked_softmax_bool_row_within_bound(
        cols in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (x32, x64) = rand_pair(1, cols, &mut rng);
        let mut keep: Vec<bool> = (0..cols).map(|_| rng.gen_bool(0.6)).collect();
        keep[rng.gen_range(0..cols)] = true;
        let mut out32 = Vec::new();
        let mut out64 = Vec::new();
        kernels::masked_softmax_bool_row(x32.row_slice(0), &keep, &mut out32);
        kernels::masked_softmax_bool_row(x64.row_slice(0), &keep, &mut out64);
        let sum: f64 = out32.iter().sum();
        prop_assert!((sum - 1.0).abs() <= 1e-12, "probs must sum to 1 in f64: {sum}");
        for c in 0..cols {
            prop_assert!((out32[c] - out64[c]).abs() <= 2e-5);
            if !keep[c] {
                prop_assert_eq!(out32[c], 0.0);
            }
        }
    }

    /// Fused attention: a softmax (abs error ≤ 2e-5 per probability)
    /// folded into a convex combination of `v` rows (|v| ≤ 1.5), plus
    /// the weighted-sum rounding — shapes cross both the `L1_TILE`
    /// score-row tile and the 64-row `k`/`v` block boundaries.
    #[test]
    fn attention_head_within_bound(
        m in 1usize..40,
        n in 1usize..70,
        dh in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (q32, q64) = rand_pair(m, dh, &mut rng);
        let (k32, k64) = rand_pair(n, dh, &mut rng);
        let (v32, v64) = rand_pair(n, dh, &mut rng);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut s32 = AttnScratch::default();
        let mut s64 = AttnScratch::default();
        let mut out32 = Tensor32::zeros(m, dh);
        let mut out64 = Tensor::zeros(m, dh);
        kernels::attention_head_into(&q32, &k32, &v32, None, scale, 1, &mut s32, &mut out32);
        kernels::attention_head_into(&q64, &k64, &v64, None, f64::from(scale), 1, &mut s64, &mut out64);
        let tol = 2e-5 * 1.5 * n as f64 + (n as f64 + 2.0) * U * 1.5;
        for i in 0..m {
            for j in 0..dh {
                let diff = (f64::from(out32.get(i, j)) - out64.get(i, j)).abs();
                prop_assert!(diff <= tol, "({i},{j}): |Δ|={diff:e} > tol={tol:e}");
            }
        }
    }

    /// Layer norm: the ε-stabilized σ keeps the division conditioned, so
    /// a 5e-4 absolute + 1e-3 relative envelope holds even for near-
    /// constant rows where `(x − μ)` is pure cancellation.
    #[test]
    fn layer_norm_within_bound(
        rows in 1usize..6,
        cols in 2usize..20,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (x32, x64) = rand_pair(rows, cols, &mut rng);
        let mut out32 = Tensor32::zeros(rows, cols);
        let mut out64 = Tensor::zeros(rows, cols);
        kernels::layer_norm_into(&x32, 1e-5, &mut out32);
        kernels::layer_norm_into(&x64, 1e-5, &mut out64);
        for r in 0..rows {
            for c in 0..cols {
                let reference = out64.get(r, c);
                let diff = (f64::from(out32.get(r, c)) - reference).abs();
                let tol = 5e-4 + 1e-3 * reference.abs();
                prop_assert!(diff <= tol, "({r},{c}): |Δ|={diff:e} > tol={tol:e}");
            }
        }
    }

    /// Mean pooling: a length-`rows` sum, so the plain summation bound.
    #[test]
    fn mean_rows_within_bound(
        rows in 1usize..40,
        cols in 1usize..20,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (x32, x64) = rand_pair(rows, cols, &mut rng);
        let mut out32 = Tensor32::zeros(1, cols);
        let mut out64 = Tensor::zeros(1, cols);
        kernels::mean_rows_into(&x32, &mut out32);
        kernels::mean_rows_into(&x64, &mut out64);
        let tol = (rows as f64 + 2.0) * U * 1.5;
        for c in 0..cols {
            let diff = (f64::from(out32.get(0, c)) - out64.get(0, c)).abs();
            prop_assert!(diff <= tol, "col {c}: |Δ|={diff:e} > tol={tol:e}");
        }
    }
}
