//! Proof that a steady-state [`FwdCtx`] forward pass performs zero heap
//! allocations, at either scalar: a counting global allocator wraps
//! `System`, the stack is run once to warm the arena, and the next passes
//! must leave the allocation counter untouched.
//!
//! Above the work cutover a dense attention head may run on several
//! lanes (`vmr_nn::par`): the arena — slots, `kᵀ`, one score tile per
//! lane — must still stop growing after warm-up, and what remains is
//! `std::thread::scope`'s own bookkeeping, a few allocations per helper
//! lane and call.
//!
//! With row classes (`vmr_nn::classes`) the blocks see one row per class
//! (the tree stage: the rows before the classified ones, then one per
//! class), and the class count changes between steps: the arena is sized
//! by the sequence length, so it stays flat while the count moves.
//!
//! This lives in its own harness-free integration-test binary (see the
//! `[[test]]` entry in Cargo.toml): with no libtest threads, every
//! allocation in the process is the test's own, so the counter cannot
//! be perturbed by harness bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_nn::infer::{FwdCtx, TreeGroups};
use vmr_nn::layers::{FeedForward, Mlp, MultiHeadAttention};
use vmr_nn::scalar::Scalar;
use vmr_nn::tensor::Tensor;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One representative forward: embed → tree attention → dense self
/// attention → cross attention with probs → feed-forward → pooled head.
fn forward<S: Scalar>(
    ctx: &mut FwdCtx<S>,
    embed: &Mlp<S>,
    local: &MultiHeadAttention<S>,
    dense: &MultiHeadAttention<S>,
    ff: &FeedForward<S>,
    x0: &Tensor,
    tree: &TreeGroups,
) -> S {
    ctx.reset();
    let x = ctx.input(x0);
    let e = embed.fwd(ctx, x);
    let t = local.fwd_tree(ctx, e, tree);
    let r = ctx.add(e, t);
    let (a, probs) = dense.fwd(ctx, r, r, None, true);
    let r = ctx.add(r, a);
    let y = ff.fwd(ctx, r);
    let pooled = ctx.mean_rows(y);
    ctx.value(pooled).get(0, 0) + ctx.value(probs.expect("probs")).get(0, 0)
}

fn main() {
    run::<f64>();
    run::<f32>();
}

/// Every case at one scalar (layers drawn in f64 from the same seed, then
/// cast once).
fn run<S: Scalar>() {
    let ty = std::any::type_name::<S>();
    let mut rng = StdRng::seed_from_u64(7);
    let d = 16;
    let rows = 24;
    let embed = Mlp::<S>::from_f64(&Mlp::new("e", &[6, d, d], false, &mut rng));
    let local = MultiHeadAttention::<S>::from_f64(&MultiHeadAttention::new("l", d, 2, &mut rng));
    let dense = MultiHeadAttention::<S>::from_f64(&MultiHeadAttention::new("s", d, 2, &mut rng));
    let ff = FeedForward::<S>::from_f64(&FeedForward::new("f", d, 2 * d, &mut rng));
    let x0 = Tensor::xavier(rows, 6, &mut rng);
    let tree = TreeGroups {
        starts: (0..=rows / 4).map(|g| g * 4).collect(),
        members: (0..rows).collect(),
    };

    let mut ctx = FwdCtx::<S>::new();
    // Warm the arena (allocates the slots and the scratch buffer).
    let warm = forward(&mut ctx, &embed, &local, &dense, &ff, &x0, &tree);

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut sink = S::ZERO;
    for _ in 0..8 {
        sink += forward(&mut ctx, &embed, &local, &dense, &ff, &x0, &tree);
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(after - before, 0, "steady-state FwdCtx<{ty}> forward must not allocate");
    assert!(sink == warm * S::from_usize(8), "repeat passes must reproduce the warm result");
    println!("alloc_free<{ty}>: ok (0 allocations across 8 steady-state forwards)");

    masked_attention_does_not_allocate::<S>(&mut rng);
    lanes_do_not_grow_the_arena::<S>(&mut rng);
    class_counts_do_not_grow_the_arena::<S>(&mut rng);
}

/// The masked (reference) attention arm at 40 × 40 — a shape past every
/// kernel-internal cutover — must run out of the arena like the rest.
fn masked_attention_does_not_allocate<S: Scalar>(rng: &mut StdRng) {
    let (rows, d) = (40, 16);
    let dense = MultiHeadAttention::<S>::from_f64(&MultiHeadAttention::new("m", d, 2, rng));
    let x0 = Tensor::xavier(rows, d, rng);
    // Banded mask: every row keeps its diagonal.
    let mut mask = Tensor::<S>::zeros(rows, rows);
    for r in 0..rows {
        for c in 0..rows {
            if r.abs_diff(c) > 7 {
                mask.set(r, c, S::MASK_OFF);
            }
        }
    }
    let pass = |ctx: &mut FwdCtx<S>| -> S {
        ctx.reset();
        let x = ctx.input(&x0);
        let (out, probs) = dense.fwd(ctx, x, x, Some(&mask), true);
        ctx.value(out).get(0, 0) + ctx.value(probs.expect("probs")).get(39, 39)
    };
    let mut ctx = FwdCtx::<S>::new();
    let warm = pass(&mut ctx);
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..4 {
        assert!(pass(&mut ctx) == warm, "repeat passes must reproduce the warm result");
    }
    let ty = std::any::type_name::<S>();
    assert_eq!(ALLOCS.load(Ordering::SeqCst), before, "masked {ty} attention must not allocate");
    println!("alloc_free<{ty}>: ok (masked 40 x 40 attention runs out of the arena)");
}

/// Row classes: the tree stage runs on the rows before the classified
/// ones plus one row per class, the dense stages on one row per class,
/// and the class count moves from step to step under a fixed sequence
/// length. The arena must be sized by the sequence, so neither more nor
/// fewer classes than the warm-up saw may grow it or allocate.
fn class_counts_do_not_grow_the_arena<S: Scalar>(rng: &mut StdRng) {
    // 5 trees of one root row and 7 leaf rows; classes among the leaves.
    // (Class counts that equal a fixed row count — 1, the 5 roots, the
    // 35 leaves, the 40 rows, or 5 + U = 35 — would let a fixed-size slot
    // take a class slot's reservation; the variants below avoid them.)
    let (roots, per_tree, d) = (5, 7, 16);
    let leaves = roots * per_tree;
    let local = MultiHeadAttention::<S>::from_f64(&MultiHeadAttention::new("cl", d, 2, rng));
    let dense = MultiHeadAttention::<S>::from_f64(&MultiHeadAttention::new("cs", d, 2, rng));
    let ff = FeedForward::<S>::from_f64(&FeedForward::new("cf", d, 2 * d, rng));
    let base = Tensor::xavier(roots + leaves, d, rng);
    let tree = TreeGroups {
        starts: (0..=roots).map(|g| g * (1 + per_tree)).collect(),
        members: (0..roots)
            .flat_map(|g| {
                std::iter::once(g).chain((0..per_tree).map(move |j| roots + g * per_tree + j))
            })
            .collect(),
    };
    // Variant `dups`: the first `dups + 1` leaves of every tree are equal.
    let inputs: Vec<Tensor> = (0..per_tree)
        .map(|dups| {
            let mut x = base.clone();
            for g in 0..roots {
                let first = roots + g * per_tree;
                let row = x.row_slice(first).to_vec();
                for j in 1..=dups {
                    x.data_mut()[(first + j) * d..(first + j + 1) * d].copy_from_slice(&row);
                }
            }
            x
        })
        .collect();
    let pass = |ctx: &mut FwdCtx<S>, x0: &Tensor| -> (usize, S) {
        ctx.reset();
        let x = ctx.input(x0);
        let (pm, vm) = (ctx.rows_range(x, 0, roots), ctx.rows_range(x, roots, leaves));
        ctx.find_row_classes(vm, roots, Some(&tree));
        let u = ctx.row_classes().distinct();
        let reps = ctx.class_rows(vm);
        let combined = ctx.vcat(pm, reps);
        let t = local.fwd_tree(ctx, combined, &tree);
        let r = ctx.add(combined, t);
        let vm = ctx.rows_range(r, roots, u);
        let att = dense.fwd_self_classes(ctx, vm);
        let s = ctx.add(vm, att);
        let y = ff.fwd(ctx, s);
        let all = ctx.expand_rows(y);
        let pooled = ctx.mean_rows(all);
        (u, ctx.value(pooled).get(0, 0))
    };
    let mut ctx = FwdCtx::<S>::new();
    let (warm_classes, _) = pass(&mut ctx, &inputs[3]);
    assert_eq!(warm_classes, leaves - 3 * roots);
    let reserved = ctx.reserved();
    let mut seen = Vec::with_capacity(5);
    let before = ALLOCS.load(Ordering::SeqCst);
    for dups in [2, 5, 4, 3, 2] {
        seen.push(pass(&mut ctx, &inputs[dups]).0);
        assert_eq!(ctx.reserved(), reserved, "{dups} duplicates per tree grew the arena");
    }
    assert_eq!(ALLOCS.load(Ordering::SeqCst), before, "a moving class count must not allocate");
    assert_eq!(seen, [25, 10, 15, 20, 25], "the class count did move");
    let ty = std::any::type_name::<S>();
    println!(
        "alloc_free<{ty}>: ok (arena flat at {reserved} elements while classes moved {seen:?})"
    );
}

/// The above-cutover case: a dense attention layer, fused and with
/// probabilities, on whatever lanes the host lends (one helper per idle
/// core; the serial path on a one-core host).
fn lanes_do_not_grow_the_arena<S: Scalar>(rng: &mut StdRng) {
    // 520 × 520 scores: above `PAR_MIN_SCORES`, ragged last row tile.
    let (rows, d, heads) = (520, 16, 2);
    assert!(rows * rows >= vmr_nn::par::PAR_MIN_SCORES);
    let dense = MultiHeadAttention::<S>::from_f64(&MultiHeadAttention::new("big", d, heads, rng));
    let x0 = Tensor::xavier(rows, d, rng);
    let pass = |ctx: &mut FwdCtx<S>| -> S {
        ctx.reset();
        let x = ctx.input(&x0);
        let (fused, _) = dense.fwd(ctx, x, x, None, false);
        let (unfused, probs) = dense.fwd(ctx, x, x, None, true);
        ctx.value(fused).get(0, 0)
            + ctx.value(unfused).get(1, 0)
            + ctx.value(probs.expect("probs")).get(2, 3)
    };
    let mut ctx = FwdCtx::<S>::new();
    let warm = pass(&mut ctx);
    let reserved = ctx.reserved();
    let before = ALLOCS.load(Ordering::SeqCst);
    const PASSES: u64 = 4;
    for _ in 0..PASSES {
        assert!(pass(&mut ctx) == warm, "lane count must not change a result");
    }
    let per_pass = (ALLOCS.load(Ordering::SeqCst) - before) / PASSES;
    assert_eq!(ctx.reserved(), reserved, "the arena must not grow after warm-up");
    // One call per head and layer pass, each with at most `cores − 1`
    // helpers; a scoped spawn costs a handful of allocations (thread
    // handle, result packet, boxed closure).
    let helpers = (2 * heads * (vmr_nn::par::global().cores() - 1)) as u64;
    assert!(per_pass <= 8 * helpers, "{per_pass} allocations per pass for {helpers} helper lanes");
    let lanes = vmr_nn::par::global().stats();
    let ty = std::any::type_name::<S>();
    println!("alloc_free<{ty}>: ok (arena steady above the cutover; {per_pass} scope allocations per pass; {lanes:?})");
}
