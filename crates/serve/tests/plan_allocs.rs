//! A served agent plan's heap allocations must not grow with its
//! decision steps: everything a step needs lives in the plan's own
//! [`vmr_core::agent::InferCtx`], sized by the first step. A counting
//! global allocator wraps `System`; the same `small` session is planned
//! at MNL 16 and MNL 32 and the difference, per extra step, is bounded.
//!
//! The bound is what is left today (≈ 0.1 f32, ≈ 0.4 f64 per step):
//! amortized growth of `ReschedEnv::step`'s `history` and of the
//! cluster's per-PM reverse index. `migrate` runs the allocation-free
//! best-fit rule and `migration_legal` the allocation-free destination
//! rule, so a step builds no placement list (they built two, ≈ 2 per
//! step); it is the number "no allocation on the
//! request path" (ROADMAP) drives to 0. A decision step that clones its
//! features or builds a fresh arena (≈ 19 per step before the embed
//! rendezvous was deleted) fails it, and so does a step that allocates
//! per legality check again.
//!
//! Harness-free (see the `[[test]]` entry in Cargo.toml) for the reason
//! `crates/nn/tests/alloc_free.rs` is: with no libtest threads every
//! allocation in the process is the test's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig, PrecisionConfig};
use vmr_core::infer::SharedAgent;
use vmr_core::model::Vmr2lModel;
use vmr_core::Vmr2lAgent;
use vmr_serve::policies::{AgentPolicy, PlanPolicy, PlanRequest};
use vmr_serve::session::{preset_config, Session};

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

/// Allocations per extra decision step a plan may make.
const MAX_ALLOCS_PER_STEP: f64 = 1.0;

/// Allocations inside one `AgentPolicy::plan` call at `mnl`, from the
/// session's committed state.
fn plan_allocs(
    policy: &AgentPolicy,
    session: &mut Session,
    mnl: usize,
    precision: PrecisionConfig,
) -> u64 {
    let req = PlanRequest {
        mnl,
        seed: 5,
        budget: Duration::from_secs(1),
        shards: 0,
        workers: 0,
        precision,
    };
    let env = session.env_mut();
    env.rewind();
    env.set_mnl(mnl);
    let before = ALLOCS.load(Ordering::SeqCst);
    let plan = policy.plan(env, &req).expect("agent plan");
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(plan.len(), mnl, "the fixture must take every step it is allowed");
    after - before
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    let policy = AgentPolicy::new(SharedAgent::new(Vmr2lAgent::new(model, ActionMode::TwoStage)));
    let mut session = Session::from_preset("s", &preset_config("small").expect("preset"), 3, 16)
        .expect("session");
    for precision in [PrecisionConfig::Exact64, PrecisionConfig::Fast32] {
        // One plan first: lazily-registered histograms and the like are
        // paid once per process, not per plan.
        plan_allocs(&policy, &mut session, 16, precision);
        let short = plan_allocs(&policy, &mut session, 16, precision);
        let long = plan_allocs(&policy, &mut session, 32, precision);
        let per_step = (long as f64 - short as f64) / 16.0;
        assert!(
            per_step <= MAX_ALLOCS_PER_STEP,
            "{precision:?}: {per_step:.1} allocations per extra decision step \
             (MNL 16: {short}, MNL 32: {long}), bound {MAX_ALLOCS_PER_STEP}"
        );
        println!(
            "plan_allocs {precision:?}: ok ({per_step:.1} per extra step; MNL 16: {short}, MNL 32: {long})"
        );
    }
}
