//! Property test: the fused attention head given its keys once per row
//! class is bit-identical to the same head given one row per key, in
//! both precisions and for every lane count.
//!
//! The reference call expands `k`/`v` through the class map and passes
//! no map; equality is `assert_eq!` on the raw output buffers. The class
//! maps are random (so classes interleave and repeat unevenly) and the
//! fixed cases pin the edges: the identity map, a single class, fewer
//! distinct keys than lanes, and sequences that leave ragged score
//! tiles and ragged normalizer stripes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmr_nn::kernels;
use vmr_nn::par::AttnScratch;
use vmr_nn::scalar::Scalar;
use vmr_nn::tensor::Tensor;

const LANES: [usize; 4] = [1, 2, 3, 5];
const HEAD_WIDTHS: [usize; 4] = [5, 8, 12, 16];

fn rand_tensor(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.5..1.5)).collect())
}

/// One row of `t` per entry of `class`.
fn expand(t: &Tensor, class: &[u32]) -> Tensor {
    t.select_rows(&class.iter().map(|&c| c as usize).collect::<Vec<_>>())
}

/// Mapped head == plain head on the expanded keys, f64 and f32, for one
/// query count, class map, head width and lane count.
fn check(m: usize, distinct: usize, class: &[u32], dh: usize, lanes: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let q = rand_tensor(m, dh, &mut rng);
    let (k, v) = (rand_tensor(distinct, dh, &mut rng), rand_tensor(distinct, dh, &mut rng));
    let what = format!("m={m} distinct={distinct} keys={} dh={dh} lanes={lanes}", class.len());
    check_in::<f64>([&q, &k, &v], class, lanes, &what);
    check_in::<f32>([&q, &k, &v], class, lanes, &what);
}

/// [`check`] at one scalar (the inputs are the f64 draws cast to it).
fn check_in<S: Scalar>([q, k, v]: [&Tensor; 3], class: &[u32], lanes: usize, what: &str) {
    let (m, dh) = (q.rows(), q.cols());
    let ty = std::any::type_name::<S>();
    let (k_all, v_all) = (expand(k, class), expand(v, class));
    let (q, k, v) = (Tensor::<S>::from_f64(q), Tensor::from_f64(k), Tensor::from_f64(v));
    let (k_all, v_all) = (Tensor::from_f64(&k_all), Tensor::from_f64(&v_all));
    let scale = S::from_f64(1.0 / (dh as f64).sqrt());

    let mut scratch = AttnScratch::default();
    let mut plain = Tensor::zeros(m, dh);
    kernels::attention_head_into(&q, &k_all, &v_all, None, scale, 1, &mut scratch, &mut plain);
    let mut mapped = Tensor::zeros(m, dh);
    kernels::attention_head_into(&q, &k, &v, Some(class), scale, lanes, &mut scratch, &mut mapped);
    assert_eq!(mapped.data(), plain.data(), "{ty} {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_mapped_head_equals_expanded_head(
        m in 1usize..120,
        distinct in 1usize..70,
        extra in 0usize..90,
        lanes_ix in 0usize..LANES.len(),
        dh_ix in 0usize..HEAD_WIDTHS.len(),
        seed in 0u64..10_000,
    ) {
        // Every class occurs at least once (as the forward's maps do),
        // then `extra` more keys land on random classes; shuffled so the
        // members of a class are not adjacent.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut class: Vec<u32> = (0..distinct as u32).collect();
        class.extend((0..extra).map(|_| rng.gen_range(0..distinct as u32)));
        for i in (1..class.len()).rev() {
            class.swap(i, rng.gen_range(0..=i));
        }
        check(m, distinct, &class, HEAD_WIDTHS[dh_ix], LANES[lanes_ix], seed);
    }
}

#[test]
fn fixed_edges() {
    for (lanes, dh) in [(1, 12), (2, 8), (3, 5), (5, 16)] {
        // Identity map: as many classes as keys, in order.
        let identity: Vec<u32> = (0..67).collect();
        check(70, 67, &identity, dh, lanes, 1);
        // One class: every key is the same row.
        check(33, 1, &[0; 45], dh, lanes, 2);
        // Fewer distinct keys (and fewer query rows) than lanes.
        check(2, 2, &[1, 0, 1, 1, 0, 1, 0], dh, lanes, 3);
        // Ragged everything: 65 queries (two row tiles + 1), 13 distinct
        // keys (score-block remainder), 43 keys (stripe remainder).
        let ragged: Vec<u32> = (0..43).map(|j| (j * 7 % 13) as u32).collect();
        check(65, 13, &ragged, dh, lanes, 4);
    }
}

#[test]
#[should_panic(expected = "key class out of range")]
fn a_class_past_the_distinct_keys_is_refused() {
    let mut rng = StdRng::seed_from_u64(9);
    let (q, k, v) =
        (rand_tensor(3, 8, &mut rng), rand_tensor(2, 8, &mut rng), rand_tensor(2, 8, &mut rng));
    let mut out = Tensor::zeros(3, 8);
    let class = [0, 2, 1];
    kernels::attention_head_into(
        &q,
        &k,
        &v,
        Some(&class),
        0.5,
        1,
        &mut AttnScratch::default(),
        &mut out,
    );
}
