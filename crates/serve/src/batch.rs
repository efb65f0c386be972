//! Cross-session GEMM batching for checkpoint-backed plan requests.
//!
//! PR 3's plan coalescing deduplicates *identical* requests within one
//! session; this module batches the policy work of *different* sessions.
//! Every decision step of an agent plan starts with the entity embedding
//! networks — purely row-wise GEMM chains — so concurrent plans can stack
//! their PM/VM feature matrices and run **one** batched GEMM
//! ([`vmr_core::model::Vmr2lModel::embed_batch`]) instead of k separate
//! ones. Row-wise ops make the split results bit-identical to solo
//! evaluation, so batching can never change a served plan (enforced by
//! `tests/batching.rs`).
//!
//! Protocol: submissions rendezvous on a mutex'd queue. The first
//! arrival of a round becomes the leader; it waits up to the batch
//! window for the other *active* plans to submit (when only one plan is
//! in flight it computes immediately — the single-tenant case pays zero
//! added latency), then claims the queue, computes the batch, and
//! publishes per-submission results under a round id. Arrivals during a
//! computation simply open the next round, so no submission can strand.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use vmr_core::model::Vmr2lModel;
use vmr_nn::tensor::Tensor;

use crate::sync::LockExt;

/// Default leader wait for peers (only paid when ≥ 2 plans are active).
pub const DEFAULT_WINDOW: Duration = Duration::from_micros(500);

/// Batch-occupancy histogram (`serve_embed_batch_occupancy`, unit
/// `count`, in the process-wide registry): one sample per computed round
/// with the number of submissions it carried — the distribution tells an
/// operator whether cross-session batching is actually firing (p50 > 1)
/// or every plan is running solo.
fn occupancy_hist() -> &'static std::sync::Arc<vmr_telemetry::Histogram> {
    static H: std::sync::OnceLock<std::sync::Arc<vmr_telemetry::Histogram>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        vmr_telemetry::global().histogram("serve_embed_batch_occupancy", vmr_telemetry::Unit::Count)
    })
}

/// Aggregate batching counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batched GEMM rounds computed.
    pub batches: u64,
    /// Total submissions served across all rounds.
    pub items: u64,
    /// Largest round size observed.
    pub peak: u64,
}

/// Lane state, in a private module: [`lanes::LaneOf`] is a bound of the
/// public [`EmbedBatcher::embed`], so what its signature mentions must be
/// `pub` — here that leaves it unnameable outside this file.
mod lanes {
    use std::collections::HashMap;

    use vmr_nn::tensor::Tensor;

    pub struct RoundOut<S> {
        pub results: Vec<Option<(Tensor<S>, Tensor<S>)>>,
        pub remaining: usize,
    }

    /// The rounds of one precision. The two lanes never share a round: a
    /// batched GEMM runs entirely in one numeric type, so mixing
    /// submissions would force the leader to pick a precision some caller
    /// did not ask for.
    pub struct Lane<S> {
        /// Round id of the currently-collecting queue.
        pub round: u64,
        /// Pending submissions of the current round (feature matrices,
        /// f64 in either lane — the cast happens inside the batched
        /// forward).
        pub queue: Vec<(Tensor, Tensor)>,
        /// Published results by round id.
        pub done: HashMap<u64, RoundOut<S>>,
    }

    impl<S> Default for Lane<S> {
        fn default() -> Self {
            Lane { round: 0, queue: Vec::new(), done: HashMap::new() }
        }
    }

    #[derive(Default)]
    pub struct Inner {
        /// Plans currently inside `EmbedBatcher::plan_guard` scopes.
        pub active: usize,
        lane64: Lane<f64>,
        lane32: Lane<f32>,
    }

    /// A scalar's lane in the batcher.
    pub trait LaneOf: vmr_nn::scalar::Scalar {
        fn lane(inner: &mut Inner) -> &mut Lane<Self>;
    }

    impl LaneOf for f64 {
        fn lane(inner: &mut Inner) -> &mut Lane<f64> {
            &mut inner.lane64
        }
    }

    impl LaneOf for f32 {
        fn lane(inner: &mut Inner) -> &mut Lane<f32> {
            &mut inner.lane32
        }
    }
}
use lanes::{Inner, LaneOf, RoundOut};

/// The rendezvous point. One per policy registry; shared by every worker
/// thread serving an agent plan.
pub struct EmbedBatcher {
    window: Duration,
    inner: Mutex<Inner>,
    cv: Condvar,
    batches: AtomicU64,
    items: AtomicU64,
    peak: AtomicU64,
}

/// RAII marker for an in-flight agent plan (maintains the `active` gauge
/// the leader uses to decide whether waiting for peers is worthwhile).
pub struct PlanGuard<'a> {
    batcher: &'a EmbedBatcher,
}

impl Drop for PlanGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.batcher.inner.lock_recover();
        inner.active -= 1;
        drop(inner);
        // A leader may be waiting for this plan's next submission.
        self.batcher.cv.notify_all();
    }
}

impl EmbedBatcher {
    /// Batcher with the given peer-wait window.
    pub fn new(window: Duration) -> Self {
        EmbedBatcher {
            window,
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            batches: AtomicU64::new(0),
            items: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Marks a plan as in flight for the guard's lifetime.
    pub fn plan_guard(&self) -> PlanGuard<'_> {
        self.inner.lock_recover().active += 1;
        PlanGuard { batcher: self }
    }

    /// Counters so far.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            batches: self.batches.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
        }
    }

    /// Computes the entity embeddings for one decision step, batched with
    /// whatever other active plans of the same precision submit within
    /// the window. Returns the `(pm_embeddings, vm_embeddings)` pair —
    /// bit-identical to `model.embed_fwd` run alone.
    ///
    /// The `active` gauge counts in-flight plans of *both* precisions, so
    /// a leader may wait out the window for peers that turn out to be on
    /// the other lane; that costs bounded latency, never correctness.
    pub fn embed<S: LaneOf>(
        &self,
        model: &Vmr2lModel<S>,
        pm: &Tensor,
        vm: &Tensor,
    ) -> (Tensor<S>, Tensor<S>) {
        let mut inner = self.inner.lock_recover();
        let lane = S::lane(&mut inner);
        let round = lane.round;
        let idx = lane.queue.len();
        lane.queue.push((pm.clone(), vm.clone()));
        if idx == 0 {
            // Leader of this round: wait (bounded) for the other active
            // plans to submit — unless this is the only plan in flight,
            // in which case compute immediately (the single-tenant case
            // pays zero added latency).
            let deadline = Instant::now() + self.window;
            while inner.active > 1 && S::lane(&mut inner).queue.len() < inner.active {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let guard = crate::sync::cv_wait_timeout(&self.cv, inner, deadline - now);
                inner = guard;
            }
            let lane = S::lane(&mut inner);
            let batch = std::mem::take(&mut lane.queue);
            lane.round += 1;
            drop(inner);

            // If the computation unwinds (a panicking kernel assert on a
            // malformed session), the guard publishes an all-`None` round
            // so followers fall back to solo evaluation instead of
            // blocking forever on the condvar.
            let mut abandon = AbandonGuard::<S> {
                batcher: self,
                round,
                followers: batch.len() - 1,
                lane: PhantomData,
            };
            let refs: Vec<(&Tensor, &Tensor)> = batch.iter().map(|(p, v)| (p, v)).collect();
            let outs = model.embed_batch(&refs);
            abandon.followers = 0; // disarm: publish real results instead
            std::mem::forget(abandon);
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.items.fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.peak.fetch_max(batch.len() as u64, Ordering::Relaxed);
            if vmr_telemetry::enabled() {
                occupancy_hist().record(batch.len() as u64);
            }

            let remaining = outs.len();
            let results = outs.into_iter().map(Some).collect();
            let mut guard = self.inner.lock_recover();
            S::lane(&mut guard).done.insert(round, RoundOut { results, remaining });
            inner = guard;
        } else {
            // Wake a leader that may be waiting for this submission.
            self.cv.notify_all();
        }
        self.cv.notify_all();
        loop {
            let done = &mut S::lane(&mut inner).done;
            if let Some(out) = done.get_mut(&round) {
                let slot = out.results.get_mut(idx).and_then(Option::take);
                out.remaining -= 1;
                if out.remaining == 0 {
                    done.remove(&round);
                }
                return match slot {
                    Some(result) => result,
                    None => {
                        // Abandoned round (leader panicked): evaluate solo.
                        drop(inner);
                        let mut outs = model.embed_batch(&[(pm, vm)]);
                        outs.remove(0)
                    }
                };
            }
            inner = crate::sync::cv_wait(&self.cv, inner);
        }
    }
}

/// Publishes an abandoned round on unwind so followers never strand.
struct AbandonGuard<'a, S: LaneOf> {
    batcher: &'a EmbedBatcher,
    round: u64,
    followers: usize,
    lane: PhantomData<S>,
}

impl<S: LaneOf> Drop for AbandonGuard<'_, S> {
    fn drop(&mut self) {
        if self.followers == 0 {
            return;
        }
        let mut inner = self.batcher.inner.lock_recover();
        let abandoned = RoundOut { results: Vec::new(), remaining: self.followers };
        S::lane(&mut inner).done.insert(self.round, abandoned);
        drop(inner);
        self.batcher.cv.notify_all();
    }
}
