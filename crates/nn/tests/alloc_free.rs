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
