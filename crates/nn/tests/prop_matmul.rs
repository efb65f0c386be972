//! The dense GEMM against its definition, bit for bit.
//!
//! Every way the crate multiplies two dense matrices — the kernel
//! (`kernels::matmul_into`), `Tensor::matmul`, `FwdCtx::matmul` and the
//! autodiff `Graph::matmul` (f64 only; training is f64) — must equal the
//! naive product in which each output element starts at `+0.0` and adds
//! its `k` products in ascending order, compared as raw bits at both
//! precisions. That is the kernels' accumulation-order rule, and what
//! keeps `FwdCtx` equal to `Graph` and a plan equal across loop shapes.
//!
//! The sweep reaches every seam of the register-tiled kernel: every
//! width `n` in 1..=80 (the const-width tiles, the 8-column blocks and
//! the single remainder columns), row counts 0–5 (an empty product, a
//! lone tail row, whole two-row tiles and a tile plus a tail) plus a
//! random ragged one, and `k` in {0, 1, 7, 24, 48, 301}. Inputs include
//! exact `±0.0` so signed-zero sums are compared too. CI runs this file
//! once more on the x86-64 baseline build: the tile was measured on
//! AVX2 registers, and SSE2 must give the same bits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmr_nn::graph::Graph;
use vmr_nn::infer::FwdCtx;
use vmr_nn::kernels;
use vmr_nn::scalar::Scalar;
use vmr_nn::tensor::Tensor;

const KS: [usize; 6] = [0, 1, 7, 24, 48, 301];

fn rand_tensor<S: Scalar>(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor<S> {
    let data = (0..rows * cols)
        .map(|_| match rng.gen_range(0..16) {
            0 => S::ZERO,
            1 => S::from_f64(-0.0),
            _ => S::from_f64(rng.gen_range(-1.5..1.5)),
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn bits<S: Scalar>(t: &Tensor<S>) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Raw bits of the naive ascending-`k` product.
fn naive<S: Scalar>(a: &Tensor<S>, b: &Tensor<S>) -> Vec<u64> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = S::ZERO;
            for kk in 0..k {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            out.push(acc.to_bits());
        }
    }
    out
}

/// `Graph::matmul`'s output, for the precision that has a `Graph`.
type GraphProduct<S> = fn(&Tensor<S>, &Tensor<S>) -> Option<Tensor<S>>;

fn graph_f64(a: &Tensor, b: &Tensor) -> Option<Tensor> {
    let mut g = Graph::new();
    let (x, y) = (g.constant(a.clone()), g.constant(b.clone()));
    let p = g.matmul(x, y);
    Some(g.value(p).clone())
}

fn no_graph(_: &Tensor<f32>, _: &Tensor<f32>) -> Option<Tensor<f32>> {
    None
}

/// Checks every entry point on one `m × k · k × n` product.
fn check<S: Scalar>(m: usize, k: usize, n: usize, rng: &mut StdRng, graph: GraphProduct<S>) {
    let (a, b) = (rand_tensor::<S>(m, k, rng), rand_tensor::<S>(k, n, rng));
    let want = naive(&a, &b);
    let shape = format!("{m}x{k}x{n} at {}", std::any::type_name::<S>());
    // Stale output contents must be overwritten, not accumulated into.
    let mut out = Tensor::full(m, n, S::from_f64(7.0));
    kernels::matmul_into(&a, &b, &mut out);
    assert_eq!(bits(&out), want, "matmul_into {shape}");
    assert_eq!(bits(&a.matmul(&b)), want, "Tensor::matmul {shape}");
    let mut ctx = FwdCtx::<S>::new();
    let (x, y) = (ctx.input(&a.to_f64()), ctx.input(&b.to_f64()));
    let p = ctx.matmul(x, y);
    assert_eq!(bits(ctx.value(p)), want, "FwdCtx::matmul {shape}");
    if let Some(g) = graph(&a, &b) {
        assert_eq!(bits(&g), want, "Graph::matmul {shape}");
    }
}

fn sweep<S: Scalar>(seed: u64, graph: GraphProduct<S>) {
    let mut rng = StdRng::seed_from_u64(seed);
    for n in 1..=80 {
        for k in KS {
            let ragged = rng.gen_range(6..40);
            for m in (0..=5).chain([ragged]) {
                check::<S>(m, k, n, &mut rng, graph);
            }
        }
    }
}

#[test]
fn f64_every_width_equals_the_naive_sum() {
    sweep::<f64>(1, graph_f64);
}

#[test]
fn f32_every_width_equals_the_naive_sum() {
    sweep::<f32>(2, no_graph);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes off the sweep's grid, wide outputs included.
    #[test]
    fn random_shapes_equal_the_naive_sum(
        m in 0usize..70,
        k in 0usize..64,
        n in 1usize..200,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        check::<f64>(m, k, n, &mut rng, graph_f64);
        check::<f32>(m, k, n, &mut rng, no_graph);
    }
}
