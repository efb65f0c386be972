//! Property test: the row-parallel fused attention head is bit-identical
//! to the serial kernel for every lane count, and to the unfused
//! score → softmax → weighted-sum chain, in both precisions.
//!
//! The kernels take the lane count as an argument, so the test forces
//! counts the idle-core ledger would never grant at these sizes (every
//! shape here is far below the work cutover). Shapes cross the
//! `L1_TILE` row tile, leave ragged last tiles, and include fewer rows
//! than lanes; equality is `assert_eq!` on the raw buffers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmr_nn::kernels;
use vmr_nn::par::AttnScratch;
use vmr_nn::scalar::Scalar;
use vmr_nn::tensor::Tensor;

const LANES: [usize; 5] = [1, 2, 3, 5, 8];
const HEAD_WIDTHS: [usize; 4] = [5, 8, 12, 16];

fn rand_tensor(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.5..1.5)).collect())
}

/// Any lane count == the serial kernel == the unfused chain, at one
/// scalar (the inputs are the f64 draws cast to it).
fn check<S: Scalar>([q, k, v]: [&Tensor; 3], lanes: usize) -> Result<(), TestCaseError> {
    let (m, dh, n) = (q.rows(), q.cols(), k.rows());
    let ty = std::any::type_name::<S>();
    let (q, k, v) = (Tensor::<S>::from_f64(q), Tensor::from_f64(k), Tensor::from_f64(v));
    let scale = S::from_f64(1.0 / (dh as f64).sqrt());

    // Fused head.
    let mut scratch = AttnScratch::default();
    let mut serial = Tensor::zeros(m, dh);
    kernels::attention_head_into(&q, &k, &v, None, scale, 1, &mut scratch, &mut serial);
    let mut split = Tensor::zeros(m, dh);
    kernels::attention_head_into(&q, &k, &v, None, scale, lanes, &mut scratch, &mut split);
    prop_assert_eq!(split.data(), serial.data(), "{} fused, {} lanes", ty, lanes);

    // The fused head is bit-identical to the unfused chain.
    let (mut scores, mut probs, mut chain) =
        (Tensor::zeros(m, n), Tensor::zeros(m, n), Tensor::zeros(m, dh));
    kernels::matmul_nt_scaled_into(&q, &k, scale, &mut scores);
    kernels::masked_softmax_into(&scores, None, &mut probs);
    kernels::matmul_into(&probs, &v, &mut chain);
    prop_assert_eq!(serial.data(), chain.data(), "{} fused vs unfused", ty);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_attention_lanes(
        m in 1usize..150,
        n in 1usize..90,
        lanes_ix in 0usize..LANES.len(),
        dh_ix in 0usize..HEAD_WIDTHS.len(),
        seed in 0u64..10_000,
    ) {
        let (lanes, dh) = (LANES[lanes_ix], HEAD_WIDTHS[dh_ix]);
        let mut rng = StdRng::seed_from_u64(seed);
        let (q, k, v) =
            (rand_tensor(m, dh, &mut rng), rand_tensor(n, dh, &mut rng), rand_tensor(n, dh, &mut rng));
        check::<f64>([&q, &k, &v], lanes)?;
        check::<f32>([&q, &k, &v], lanes)?;
    }
}
