//! Property tests: the tape-free [`FwdCtx`] engine must be bit-identical
//! to the autodiff [`Graph`] engine over random shapes, random weights,
//! and random layer stacks — including the transpose-free `Q·Kᵀ` score
//! kernel and the block-sparse tree attention vs the dense masked
//! reference. Equality is `assert_eq!` on the raw f64 buffers: not
//! "close", *identical*.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmr_nn::graph::{Graph, MASK_OFF};
use vmr_nn::infer::{FwdCtx, TreeGroups};
use vmr_nn::layers::{FeedForward, LayerNorm, Linear, Mlp, Module, MultiHeadAttention};
use vmr_nn::tensor::Tensor;

fn rand_tensor(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.5..1.5)).collect())
}

/// Random row-clique partition of `s` rows into at most `g` groups, plus
/// the equivalent dense additive mask.
fn random_groups(s: usize, g: usize, rng: &mut StdRng) -> (TreeGroups, Tensor) {
    let assign: Vec<usize> = (0..s).map(|_| rng.gen_range(0..g)).collect();
    let mut starts = vec![0usize];
    let mut members = Vec::new();
    for grp in 0..g {
        members.extend((0..s).filter(|&r| assign[r] == grp));
        starts.push(members.len());
    }
    let mut mask = Tensor::full(s, s, MASK_OFF);
    for a in 0..s {
        for b in 0..s {
            if assign[a] == assign[b] {
                mask.set(a, b, 0.0);
            }
        }
    }
    (TreeGroups { starts, members }, mask)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mlp_stack_bit_identical(
        rows in 1usize..7,
        d_in in 1usize..6,
        hidden in 1usize..9,
        d_out in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new("m", &[d_in, hidden, d_out], seed % 2 == 0, &mut rng);
        let norm = LayerNorm::new("n", d_out);
        let x0 = rand_tensor(rows, d_in, &mut rng);

        let mut g = Graph::new();
        let x = g.constant(x0.clone());
        let h = mlp.forward(&mut g, x);
        let y = norm.forward(&mut g, h);
        let reference = g.value(y).clone();

        let mut ctx = FwdCtx::new();
        let x = ctx.input(&x0);
        let h = mlp.fwd(&mut ctx, x);
        let y = norm.fwd(&mut ctx, h);
        prop_assert_eq!(ctx.value(y).data(), reference.data());
    }

    #[test]
    fn attention_block_bit_identical(
        nq in 1usize..6,
        nk in 1usize..6,
        heads in 1usize..3,
        masked in proptest::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let d_model = heads * 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let att = MultiHeadAttention::new("a", d_model, heads, &mut rng);
        let ff = FeedForward::new("f", d_model, d_model * 2, &mut rng);
        let q0 = rand_tensor(nq, d_model, &mut rng);
        let kv0 = rand_tensor(nk, d_model, &mut rng);
        // Random mask that never fully masks a row.
        let mask = masked.then(|| {
            let mut m = Tensor::zeros(nq, nk);
            for r in 0..nq {
                let keep = rng.gen_range(0..nk);
                for c in 0..nk {
                    if c != keep && rng.gen_bool(0.5) {
                        m.set(r, c, MASK_OFF);
                    }
                }
            }
            m
        });

        let mut g = Graph::new();
        let q = g.constant(q0.clone());
        let kv = g.constant(kv0.clone());
        let out = att.forward(&mut g, q, kv, mask.as_ref());
        let res = g.add(q, out.out);
        let y = ff.forward(&mut g, res);
        let ref_y = g.value(y).clone();
        let ref_probs = g.value(out.probs).clone();

        let mut ctx = FwdCtx::new();
        let q = ctx.input(&q0);
        let kv = ctx.input(&kv0);
        let (o, probs) = att.fwd(&mut ctx, q, kv, mask.as_ref(), true);
        let res = ctx.add(q, o);
        let y = ff.fwd(&mut ctx, res);
        prop_assert_eq!(ctx.value(y).data(), ref_y.data());
        prop_assert_eq!(ctx.value(probs.unwrap()).data(), ref_probs.data());
    }

    #[test]
    fn tree_attention_bit_identical_to_dense_mask(
        s in 2usize..10,
        groups in 1usize..4,
        heads in 1usize..3,
        seed in 0u64..10_000,
    ) {
        let d_model = heads * 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let att = MultiHeadAttention::new("a", d_model, heads, &mut rng);
        let x0 = rand_tensor(s, d_model, &mut rng);
        let (tree, mask) = random_groups(s, groups, &mut rng);

        let mut g = Graph::new();
        let x = g.constant(x0.clone());
        let out = att.forward(&mut g, x, x, Some(&mask));
        let reference = g.value(out.out).clone();

        let mut ctx = FwdCtx::new();
        let x = ctx.input(&x0);
        let o = att.fwd_tree(&mut ctx, x, &tree);
        prop_assert_eq!(ctx.value(o).data(), reference.data());
    }

    /// The same at the model's head widths (8, 12, 16) and a wider one,
    /// over trees longer than one 8-key tile. With `zeros` the weights
    /// pin head 0's first column: 40 in every query, ±50 in the keys (by
    /// the sign of input column 0), so about half of each tree's scores
    /// sit ≥ 890 below the row maximum and their probabilities are exact
    /// zeros — the terms the dense path's sparse product skips.
    #[test]
    fn tree_attention_at_model_widths_bit_identical_to_dense_mask(
        s in 2usize..24,
        groups in 1usize..4,
        heads in 1usize..3,
        dh_ix in 0usize..4,
        zeros in proptest::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let d_model = heads * [8, 12, 16, 20][dh_ix];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut att = MultiHeadAttention::new("a", d_model, heads, &mut rng);
        let mut x0 = rand_tensor(s, d_model, &mut rng);
        let (tree, mask) = random_groups(s, groups, &mut rng);
        if zeros {
            for r in 0..s {
                x0.set(r, 0, if r % 2 == 0 { 1.0 } else { -1.0 });
            }
            att.visit_params_mut(&mut |name, p| {
                let col0 = match name {
                    "a.wq.w" => Some(0.0),
                    "a.wk.w" => Some(50.0),
                    _ => None,
                };
                if let Some(top) = col0 {
                    for i in 0..p.rows() {
                        p.set(i, 0, if i == 0 { top } else { 0.0 });
                    }
                }
                if name == "a.wq.b" {
                    p.set(0, 0, 40.0);
                }
            });
        }

        let mut g = Graph::new();
        let x = g.constant(x0.clone());
        let out = att.forward(&mut g, x, x, Some(&mask));
        let reference = g.value(out.out).clone();
        if zeros && heads == 1 {
            // A tree holding an even and an odd row has exact-zero
            // probabilities (averaged over one head, so visible here).
            let pairs = || (0..s).flat_map(|a| (0..s).map(move |b| (a, b)));
            let in_tree = |&(a, b): &(usize, usize)| mask.get(a, b) == 0.0;
            let mixed = pairs().filter(in_tree).any(|(a, b)| a % 2 != b % 2);
            let probs = g.value(out.probs);
            let zero = pairs().filter(in_tree).any(|(a, b)| probs.get(a, b) == 0.0);
            prop_assert_eq!(zero, mixed);
        }

        let mut ctx = FwdCtx::new();
        let x = ctx.input(&x0);
        let o = att.fwd_tree(&mut ctx, x, &tree);
        prop_assert_eq!(ctx.value(o).data(), reference.data());
    }

    #[test]
    fn arena_reuse_does_not_change_results(
        rows in 1usize..5,
        cols in 2usize..6,
        seed in 0u64..10_000,
    ) {
        // Two different shapes through the same context, then the first
        // again: slot reuse must not leak stale data into results.
        let mut rng = StdRng::seed_from_u64(seed);
        let lin = Linear::new("l", cols, 3, &mut rng);
        let a = rand_tensor(rows, cols, &mut rng);
        let b = rand_tensor(rows + 2, cols, &mut rng);
        let mut ctx = FwdCtx::new();
        let first = {
            let x = ctx.input(&a);
            let y = lin.fwd(&mut ctx, x);
            ctx.value(y).clone()
        };
        ctx.reset();
        let x = ctx.input(&b);
        let _ = lin.fwd(&mut ctx, x);
        ctx.reset();
        let x = ctx.input(&a);
        let y = lin.fwd(&mut ctx, x);
        prop_assert_eq!(ctx.value(y).data(), first.data());
    }
}
