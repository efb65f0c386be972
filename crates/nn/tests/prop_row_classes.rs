//! Property tests: the two class-keyed kernels are bit-identical to the
//! same kernels on the rows expanded to one per member, in both
//! precisions.
//!
//! * The fused attention head given its keys once per row class, against
//!   the same head given one row per key, for every lane count. The
//!   class maps are random (so classes interleave and repeat unevenly)
//!   and the fixed cases pin the edges: the identity map, a single class,
//!   fewer distinct keys than lanes, and sequences that leave ragged
//!   score tiles and ragged normalizer stripes.
//! * The tree-local stage on `N + U` rows (the rows before the classified
//!   ones, then one row per class), against the stage on the `N + M`
//!   expanded rows. The tree sets are random, and the fixed cases pin
//!   trees of 1, 8 and 9 members (one distinct key short of, at, and past
//!   one 8-key tile), an empty group, a tree that is all one class,
//!   probabilities that are exact zeros, and the identity map.
//!
//! The reference call expands the rows through the class map and passes
//! no map; equality is `assert_eq!` on the raw output bits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmr_nn::infer::TreeGroups;
use vmr_nn::kernels::{self, TreeScratch};
use vmr_nn::par::AttnScratch;
use vmr_nn::scalar::Scalar;
use vmr_nn::tensor::Tensor;

const LANES: [usize; 4] = [1, 2, 3, 5];
/// The fused head's widths (it takes 1 to 16).
const HEAD_WIDTHS: [usize; 4] = [5, 8, 12, 16];
/// The tree stage takes any width: 20 runs the runtime-width value sums
/// over more than one 16-column block.
const TREE_HEAD_WIDTHS: [usize; 5] = [5, 8, 12, 16, 20];

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

// ---- the tree-local stage -------------------------------------------

/// A tree set over `n` PM rows and the VM rows dealt to them: group `p`
/// is PM `p` and then its VMs in ascending order, and `class` maps every
/// VM to its row class (numbered by first VM, never shared by two
/// trees, as `RowClasses::find` numbers them).
struct Trees {
    n: usize,
    groups: TreeGroups,
    class: Vec<u32>,
    distinct: usize,
}

/// Builds a [`Trees`] from, per PM, the class label of each VM it hosts
/// in member order (equal labels in one tree are one class). VMs are
/// dealt to their PMs round-robin, so the members of a tree interleave
/// with other trees' VMs. `empty_at` inserts an empty group there.
fn trees(labels: &[Vec<u8>], empty_at: Option<usize>) -> Trees {
    let n = labels.len();
    let (mut host, mut label) = (Vec::new(), Vec::new());
    for slot in 0..labels.iter().map(Vec::len).max().unwrap_or(0) {
        for (p, tree) in labels.iter().enumerate() {
            if let Some(&l) = tree.get(slot) {
                host.push(p);
                label.push(l);
            }
        }
    }
    let mut seen: Vec<(usize, u8)> = Vec::new();
    let class = host
        .iter()
        .zip(&label)
        .map(|(&p, &l)| {
            let at = seen.iter().position(|&c| c == (p, l)).unwrap_or_else(|| {
                seen.push((p, l));
                seen.len() - 1
            });
            at as u32
        })
        .collect();
    let mut groups = TreeGroups { starts: vec![0], members: Vec::new() };
    for p in 0..n {
        if empty_at == Some(p) {
            groups.starts.push(groups.members.len());
        }
        groups.members.push(p);
        groups.members.extend((0..host.len()).filter(|&k| host[k] == p).map(|k| n + k));
        groups.starts.push(groups.members.len());
    }
    Trees { n, groups, class, distinct: seen.len() }
}

/// Class-keyed tree stage on `N + U` rows == plain stage on the expanded
/// `N + M` rows, f64 and f32. With `zeros`, column 0 of every query is
/// 40 and of every key ±50, so about half of each row's scores sit
/// ≈ 4000 / √dh below its maximum (≈ 890 or more at the widths used,
/// past `exp`'s underflow to zero at −746): their probabilities are
/// exact zeros at either precision.
fn check_tree(t: &Trees, heads: usize, dh: usize, zeros: bool, seed: u64) {
    let (rows, d) = (t.n + t.distinct, heads * dh);
    let mut rng = StdRng::seed_from_u64(seed);
    let [mut q, mut k, v] = [(); 3].map(|_| rand_tensor(rows, d, &mut rng));
    if zeros {
        for r in 0..rows {
            q.set(r, 0, 40.0);
            k.set(r, 0, if r % 2 == 0 { 50.0 } else { -50.0 });
        }
    }
    let expanded: Vec<usize> = (0..t.n).chain(t.class.iter().map(|&c| t.n + c as usize)).collect();
    let what = format!(
        "n={} m={} u={} groups={} heads={heads} dh={dh} zeros={zeros}",
        t.n,
        t.class.len(),
        t.distinct,
        t.groups.len()
    );
    check_tree_in::<f64>([&q, &k, &v], t, heads, &expanded, &what);
    check_tree_in::<f32>([&q, &k, &v], t, heads, &expanded, &what);
}

/// [`check_tree`] at one scalar (the inputs are the f64 draws cast to it).
fn check_tree_in<S: Scalar>(
    qkv: [&Tensor; 3],
    t: &Trees,
    heads: usize,
    expanded: &[usize],
    what: &str,
) {
    let ty = std::any::type_name::<S>();
    let d = qkv[0].cols();
    let scale = S::from_f64(1.0 / ((d / heads) as f64).sqrt());
    let classed = qkv.map(Tensor::<S>::from_f64);
    let plain = qkv.map(|x| Tensor::<S>::from_f64(&x.select_rows(expanded)));
    let mut scratch = TreeScratch::default();
    let run = |[q, k, v]: &[Tensor<S>; 3], map, scratch: &mut TreeScratch<S>| {
        let mut out = Tensor::<S>::zeros(q.rows(), d);
        kernels::tree_attention_into([q, k, v], &t.groups, map, heads, scale, scratch, &mut out);
        out
    };
    let by_class = run(&classed, Some((t.n, &t.class[..])), &mut scratch);
    let reference = run(&plain, None, &mut scratch);
    let bits = |x: &Tensor<S>| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&by_class.select_rows(expanded)),
        bits(&reference),
        "{ty} tree stage by class vs expanded, {what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_class_keyed_tree_stage_equals_expanded_stage(
        sizes in proptest::collection::vec(0usize..14, 1..8),
        labels in 1u8..6,
        heads in 1usize..3,
        dh_ix in 0usize..TREE_HEAD_WIDTHS.len(),
        zeros in proptest::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ee5);
        let labels: Vec<Vec<u8>> =
            sizes.iter().map(|&c| (0..c).map(|_| rng.gen_range(0..labels)).collect()).collect();
        let empty_at = (seed % 3 == 0).then_some(seed as usize % labels.len());
        check_tree(&trees(&labels, empty_at), heads, TREE_HEAD_WIDTHS[dh_ix], zeros, seed);
    }
}

#[test]
fn tree_stage_fixed_edges() {
    // Trees of 1, 8 and 9 members (PM alone; PM + 7 VMs, all distinct;
    // PM + 8 VMs with repeats), one that is a single class, one past two
    // key tiles, and an empty group among them.
    let labels = vec![
        vec![],
        (0..7).collect(),
        vec![0, 1, 0, 2, 0, 1, 3, 4],
        vec![3; 6],
        (0..20).map(|j| (j % 17) as u8).collect(),
    ];
    for (heads, dh) in [(1, 5), (2, 8), (2, 12), (1, 16), (2, 20)] {
        for zeros in [false, true] {
            check_tree(&trees(&labels, Some(2)), heads, dh, zeros, 5);
        }
    }
    // The identity map: every VM its own class.
    let distinct: Vec<Vec<u8>> = (0..4).map(|p| (0..p as u8 * 3).collect()).collect();
    let t = trees(&distinct, None);
    assert_eq!(t.distinct, t.class.len());
    check_tree(&t, 2, 12, false, 6);
}
