//! Property-based gradient checks: random composite graphs over random
//! shapes must match central finite differences.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmr_nn::graph::Graph;
use vmr_nn::tensor::Tensor;

/// Builds a random scalar-valued computation from an input tensor,
/// exercising a mix of ops chosen by `recipe`.
fn build(g: &mut Graph, x: vmr_nn::graph::Var, recipe: u8, cols: usize) -> vmr_nn::graph::Var {
    let h = match recipe % 5 {
        0 => {
            let w = g.constant(Tensor::full(cols, 3, 0.37));
            let y = g.matmul(x, w);
            g.relu(y)
        }
        1 => {
            let t = g.tanh(x);
            g.square(t)
        }
        2 => g.softmax_rows(x),
        3 => g.layer_norm_rows(x, 1e-5),
        _ => {
            let e = g.exp(x);
            g.clamp(e, 0.5, 2.0)
        }
    };
    g.mean_all(h)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_graphs_match_finite_differences(
        rows in 1usize..4,
        cols in 2usize..6,
        recipe in 0u8..5,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0 = Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let mut g = Graph::new();
        let x = g.param("x", &x0);
        let loss = build(&mut g, x, recipe, cols);
        g.backward(loss);
        let analytic = g.param_grads().remove("x").expect("grad");

        let eps = 1e-5;
        for i in 0..rows * cols {
            let eval = |delta: f64| {
                let mut xp = x0.clone();
                xp.data_mut()[i] += delta;
                let mut gp = Graph::new();
                let v = gp.constant(xp);
                let l = build(&mut gp, v, recipe, cols);
                gp.value(l).get(0, 0)
            };
            let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
            let a = analytic.data()[i];
            let denom = a.abs().max(numeric.abs()).max(1e-4);
            prop_assert!(
                (a - numeric).abs() / denom < 1e-4,
                "recipe {} elem {}: analytic {} vs numeric {}",
                recipe, i, a, numeric
            );
        }
    }

    /// Softmax rows always sum to one and stay in [0, 1], regardless of
    /// logit magnitudes (numerical stability check).
    #[test]
    fn softmax_is_stable(
        vals in prop::collection::vec(-500.0f64..500.0, 2..8),
    ) {
        let mut g = Graph::new();
        let n = vals.len();
        let x = g.constant(Tensor::from_vec(1, n, vals));
        let p = g.softmax_rows(x);
        let row = g.value(p).row_slice(0);
        let sum: f64 = row.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "softmax sum {}", sum);
        prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v) && v.is_finite()));
    }
}
