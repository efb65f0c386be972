//! Proof that a steady-state [`FwdCtx`] forward pass performs zero heap
//! allocations: a counting global allocator wraps `System`, the stack is
//! run once to warm the arena, and the next passes must leave the
//! allocation counter untouched.
//!
//! Above the work cutover a dense attention head may run on several
//! lanes (`vmr_nn::par`): the arena — slots, `kᵀ`, one score tile per
//! lane — must still stop growing after warm-up, and what remains is
//! `std::thread::scope`'s own bookkeeping, a few allocations per helper
//! lane and call.
//!
//! With row classes (`vmr_nn::classes`) the dense stages see one row per
//! class, and the class count changes between steps: the arena is sized
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
fn forward(
    ctx: &mut FwdCtx,
    embed: &Mlp,
    local: &MultiHeadAttention,
    dense: &MultiHeadAttention,
    ff: &FeedForward,
    x0: &Tensor,
    tree: &TreeGroups,
) -> f64 {
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
    let mut rng = StdRng::seed_from_u64(7);
    let d = 16;
    let rows = 24;
    let embed = Mlp::new("e", &[6, d, d], false, &mut rng);
    let local = MultiHeadAttention::new("l", d, 2, &mut rng);
    let dense = MultiHeadAttention::new("s", d, 2, &mut rng);
    let ff = FeedForward::new("f", d, 2 * d, &mut rng);
    let x0 = Tensor::xavier(rows, 6, &mut rng);
    let tree = TreeGroups {
        starts: (0..=rows / 4).map(|g| g * 4).collect(),
        members: (0..rows).collect(),
    };

    let mut ctx = FwdCtx::new();
    // Warm the arena (allocates the slots and the scratch buffer).
    let warm = forward(&mut ctx, &embed, &local, &dense, &ff, &x0, &tree);

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut sink = 0.0;
    for _ in 0..8 {
        sink += forward(&mut ctx, &embed, &local, &dense, &ff, &x0, &tree);
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(after - before, 0, "steady-state FwdCtx forward must not allocate");
    assert_eq!(sink, warm * 8.0, "repeat passes must reproduce the warm result");
    println!("alloc_free: ok (0 allocations across 8 steady-state forwards)");

    lanes_do_not_grow_the_arena(&mut rng);
    class_counts_do_not_grow_the_arena(&mut rng);
}

/// Row classes: the dense stages run on one row per class, and the class
/// count moves from step to step under a fixed sequence length. The
/// arena must be sized by the sequence, so neither more nor fewer
/// classes than the warm-up saw may grow it or allocate.
fn class_counts_do_not_grow_the_arena(rng: &mut StdRng) {
    // 6 trees of one root row and 5 leaf rows; classes among the leaves.
    let (roots, leaves, per_tree, d) = (6, 30, 5, 16);
    let local = MultiHeadAttention::new("cl", d, 2, rng);
    let dense = MultiHeadAttention::new("cs", d, 2, rng);
    let ff = FeedForward::new("cf", d, 2 * d, rng);
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
    let pass = |ctx: &mut FwdCtx, x0: &Tensor| -> (usize, f64) {
        ctx.reset();
        let x = ctx.input(x0);
        let t = local.fwd_tree(ctx, x, &tree);
        let r = ctx.add(x, t);
        ctx.find_row_classes(r, roots, Some(&tree));
        let reps = ctx.class_rows(r, roots);
        let att = dense.fwd_self_classes(ctx, reps);
        let s = ctx.add(reps, att);
        let y = ff.fwd(ctx, s);
        let all = ctx.expand_rows(y);
        let pooled = ctx.mean_rows(all);
        (ctx.row_classes().distinct(), ctx.value(pooled).get(0, 0))
    };
    let mut ctx = FwdCtx::new();
    let (warm_classes, _) = pass(&mut ctx, &inputs[2]);
    assert_eq!(warm_classes, leaves - 2 * roots);
    let reserved = ctx.reserved();
    let mut seen = Vec::with_capacity(5);
    let before = ALLOCS.load(Ordering::SeqCst);
    for dups in [1, 4, 3, 2, 1] {
        seen.push(pass(&mut ctx, &inputs[dups]).0);
        assert_eq!(ctx.reserved(), reserved, "{dups} duplicates per tree grew the arena");
    }
    assert_eq!(ALLOCS.load(Ordering::SeqCst), before, "a moving class count must not allocate");
    assert_eq!(seen, [24, 6, 12, 18, 24], "the class count did move");
    println!("alloc_free: ok (arena flat at {reserved} elements while classes moved {seen:?})");
}

/// The above-cutover case: a dense attention layer, fused and with
/// probabilities, on whatever lanes the host lends (one helper per idle
/// core; the serial path on a one-core host).
fn lanes_do_not_grow_the_arena(rng: &mut StdRng) {
    // 520 × 520 scores: above `PAR_MIN_SCORES`, ragged last row tile.
    let (rows, d, heads) = (520, 16, 2);
    assert!(rows * rows >= vmr_nn::par::PAR_MIN_SCORES);
    let dense = MultiHeadAttention::new("big", d, heads, rng);
    let x0 = Tensor::xavier(rows, d, rng);
    let pass = |ctx: &mut FwdCtx| -> f64 {
        ctx.reset();
        let x = ctx.input(&x0);
        let (fused, _) = dense.fwd(ctx, x, x, None, false);
        let (unfused, probs) = dense.fwd(ctx, x, x, None, true);
        ctx.value(fused).get(0, 0)
            + ctx.value(unfused).get(1, 0)
            + ctx.value(probs.expect("probs")).get(2, 3)
    };
    let mut ctx = FwdCtx::new();
    let warm = pass(&mut ctx);
    let reserved = ctx.reserved();
    let before = ALLOCS.load(Ordering::SeqCst);
    const PASSES: u64 = 4;
    for _ in 0..PASSES {
        assert_eq!(pass(&mut ctx), warm, "lane count must not change a result");
    }
    let per_pass = (ALLOCS.load(Ordering::SeqCst) - before) / PASSES;
    assert_eq!(ctx.reserved(), reserved, "the arena must not grow after warm-up");
    // One call per head and layer pass, each with at most `cores − 1`
    // helpers; a scoped spawn costs a handful of allocations (thread
    // handle, result packet, boxed closure).
    let helpers = (2 * heads * (vmr_nn::par::global().cores() - 1)) as u64;
    assert!(per_pass <= 8 * helpers, "{per_pass} allocations per pass for {helpers} helper lanes");
    let lanes = vmr_nn::par::global().stats();
    println!("alloc_free: ok (arena steady above the cutover; {per_pass} scope allocations per pass; {lanes:?})");
}
