//! Layers measured from outside: plan policies that record a span
//! around each public call they make, and the `nn` probes.
//!
//! In-program sub-spans are a later change; until then the agent's step
//! loop is rebuilt here from the same public pieces `AgentPolicy` calls
//! (`observe` / `prepare_from_env` / `embed_fwd` /
//! `stage1_from_embeds_fwd` / `act_core` / `step`). The traced run
//! checks that every plan rebuilt this way equals the plan the daemon
//! served, so the spans time the same work.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vmr_core::agent::{DecideOpts, InferCtx};
use vmr_core::config::{ModelConfig, PrecisionConfig};
use vmr_core::infer::SharedAgent;
use vmr_nn::infer::{FwdCtx, TreeGroups};
use vmr_nn::infer32::FwdCtx32;
use vmr_nn::layers::{FeedForward, MultiHeadAttention};
use vmr_nn::layers_f32::{FeedForward32, MultiHeadAttention32};
use vmr_nn::tensor::Tensor;
use vmr_serve::policies::{PlanPolicy, PlanRequest};
use vmr_sim::env::{Action, ReschedEnv};
use vmr_sim::error::SimResult;

use crate::stats::median_f64;
use crate::trace::Trace;

/// Finished per-call traces, drained by the re-enactor after each plan.
#[derive(Default)]
pub struct Batches(Mutex<Vec<Trace>>);

impl Batches {
    fn push(&self, t: Trace) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(t);
    }

    /// Takes everything recorded since the last call.
    pub fn take(&self) -> Vec<Trace> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Any policy under one span per `plan` call (HA, the fleet planner).
pub struct Timed {
    inner: Arc<dyn PlanPolicy>,
    span: &'static str,
    epoch: Instant,
    /// One single-span trace per call.
    pub batches: Batches,
}

impl Timed {
    /// Wraps `inner`; each call records a span called `span`.
    pub fn new(inner: Arc<dyn PlanPolicy>, span: &'static str, epoch: Instant) -> Self {
        Timed { inner, span, epoch, batches: Batches::default() }
    }
}

impl PlanPolicy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, env: &mut ReschedEnv, req: &PlanRequest) -> SimResult<Vec<Action>> {
        let mut t = Trace::new(self.epoch);
        let out = t.span(self.span, |_| self.inner.plan(env, req));
        self.batches.push(t);
        out
    }
}

/// The cluster shape the agent's forward pass last ran at.
#[derive(Debug, Clone, Default)]
pub struct Shape {
    /// PMs (`N`).
    pub pms: usize,
    /// VMs (`M`).
    pub vms: usize,
    /// The PM-tree groups of that state.
    pub groups: TreeGroups,
}

/// `AgentPolicy`'s decision loop with a span around every public call.
pub struct SteppedAgent {
    handle: SharedAgent,
    epoch: Instant,
    /// One trace per `plan` call (per shard under the fleet planner).
    pub batches: Batches,
    /// Shape of the first forward pass seen (what the `nn` probes run at).
    pub shape: Mutex<Option<Shape>>,
}

impl SteppedAgent {
    /// Steps `handle`'s agent, timing against `epoch`.
    pub fn new(handle: SharedAgent, epoch: Instant) -> Self {
        SteppedAgent { handle, epoch, batches: Batches::default(), shape: Mutex::new(None) }
    }
}

impl PlanPolicy for SteppedAgent {
    fn name(&self) -> &'static str {
        "agent"
    }

    fn plan(&self, env: &mut ReschedEnv, req: &PlanRequest) -> SimResult<Vec<Action>> {
        let agent = self.handle.agent();
        let m32 = self.handle.model32();
        let fast32 = req.precision == PrecisionConfig::Fast32;
        let mut rng = StdRng::seed_from_u64(req.seed);
        let opts = DecideOpts::default();
        let mut ictx = InferCtx::new();
        let mut masks: (Vec<bool>, Vec<bool>) = Default::default();
        let mut plan = Vec::new();
        let mut t = Trace::new(self.epoch);
        let out = t.span("core.agent.plan", |t| {
            while !env.is_done() {
                let action = t.span("core.agent.step", |t| -> SimResult<Option<Action>> {
                    t.span("sim.env.observe", |_| {
                        env.observe();
                    });
                    t.span("core.features.prepare", |_| ictx.prepare_from_env(env));
                    let decision = if fast32 {
                        let (pm, vm) = t.span("core.model.embed", |_| {
                            m32.embed_fwd(&mut ictx.ctx32, &ictx.feats)
                        });
                        let s1 = t.span("core.model.stage1", |_| {
                            let groups = Some(&ictx.tree.groups);
                            m32.stage1_from_embeds_fwd(&mut ictx.ctx32, pm, vm, groups)
                        });
                        t.span("core.agent.act_core", |_| {
                            agent.act_core_f32(m32, env, &mut ictx, &s1, &mut rng, &opts)
                        })?
                    } else {
                        let (pm, vm) = t.span("core.model.embed", |_| {
                            agent.policy.embed_fwd(&mut ictx.ctx, &ictx.feats)
                        });
                        let s1 = t.span("core.model.stage1", |_| {
                            let groups = Some(&ictx.tree.groups);
                            agent.policy.stage1_from_embeds_fwd(&mut ictx.ctx, pm, vm, groups)
                        });
                        t.span("core.agent.act_core", |_| {
                            agent.act_core(env, &mut ictx, &s1, &mut rng, &opts)
                        })?
                    };
                    let Some(decision) = decision else { return Ok(None) };
                    // The two masks `act_core` computed, timed on their own.
                    t.span("probe.vm_mask", |_| env.vm_mask_into(false, &mut masks.0));
                    t.span("probe.pm_mask", |_| env.pm_mask_into(decision.action.vm, &mut masks.1));
                    t.span("sim.env.step", |_| env.step(decision.action))?;
                    Ok(Some(decision.action))
                })?;
                let Some(action) = action else { break };
                plan.push(action);
            }
            Ok(())
        });
        let mut shape = self.shape.lock().unwrap_or_else(PoisonError::into_inner);
        if shape.is_none() && ictx.feats.num_pms > 0 {
            *shape = Some(Shape {
                pms: ictx.feats.num_pms,
                vms: ictx.feats.num_vms,
                groups: ictx.tree.groups.clone(),
            });
        }
        drop(shape);
        self.batches.push(t);
        out.map(|()| plan)
    }
}

/// Per-block timings of the `nn` layers stage 1 is made of, on random
/// inputs at a workload's shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct NnProbe {
    /// Tree-local attention over the combined `(N+M) × d` sequence.
    pub attn_tree_ms: f64,
    /// Dense PM self-attention (`N × N`).
    pub attn_pm_self_ms: f64,
    /// Dense VM self-attention (`M × M`).
    pub attn_vm_self_ms: f64,
    /// VM→PM cross-attention, averaged over the blocks (only the last
    /// one materializes its probabilities).
    pub attn_cross_ms: f64,
    /// The PM and VM feed-forward sub-blocks together.
    pub ff_ms: f64,
    /// GFLOP of one stage-1 forward, computed from the shapes (counted,
    /// not measured; embeddings and heads left out).
    pub gflop_per_step: f64,
}

impl NnProbe {
    /// Sum of the per-block rows.
    pub fn block_ms(&self) -> f64 {
        self.attn_tree_ms
            + self.attn_pm_self_ms
            + self.attn_vm_self_ms
            + self.attn_cross_ms
            + self.ff_ms
    }
}

/// Median wall time of `reps` calls, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median_f64(&mut ms)
}

/// The five per-block timings on one arena type: the f64 and f32 tiers
/// differ only in the context and layer types.
macro_rules! probe_block {
    ($ctx:ty, $attn:expr, $ff:expr, $shape:expr, $pm:expr, $vm:expr, $reps:expr, $blocks:expr) => {{
        let (attn, ff, pm, vm) = ($attn, $ff, $pm, $vm);
        let all = pm.vcat(vm);
        let mut ctx = <$ctx>::new();
        let mut run = |f: &mut dyn FnMut(&mut $ctx)| {
            time_ms($reps, || {
                ctx.reset();
                f(&mut ctx);
            })
        };
        let attn_tree_ms = run(&mut |c| {
            let x = c.input(&all);
            std::hint::black_box(attn.fwd_tree(c, x, &$shape.groups));
        });
        let mut dense = |q: &Tensor, kv: &Tensor, probs: bool| {
            run(&mut |c| {
                let (q, kv) = (c.input(q), c.input(kv));
                std::hint::black_box(attn.fwd(c, q, kv, None, probs));
            })
        };
        let attn_pm_self_ms = dense(pm, pm, false);
        let attn_vm_self_ms = dense(vm, vm, false);
        // Only the last block materializes the cross probabilities.
        let attn_cross_ms =
            (dense(vm, pm, false) * ($blocks - 1.0) + dense(vm, pm, true)) / $blocks;
        let ff_ms = [pm, vm]
            .map(|x| {
                run(&mut |c| {
                    let x = c.input(x);
                    std::hint::black_box(ff.fwd(c, x));
                })
            })
            .iter()
            .sum();
        NnProbe {
            attn_tree_ms,
            attn_pm_self_ms,
            attn_vm_self_ms,
            attn_cross_ms,
            ff_ms,
            gflop_per_step: 0.0,
        }
    }};
}

/// Times `MultiHeadAttention::{fwd_tree, fwd}` and `FeedForward::fwd`
/// (their f32 twins when `fast32`) at `ModelConfig::default()` widths.
pub fn probe_nn(shape: &Shape, fast32: bool, reps: usize) -> NnProbe {
    let cfg = ModelConfig::default();
    let d = cfg.d_model;
    let mut rng = StdRng::seed_from_u64(0x9E37);
    let attn = MultiHeadAttention::new("probe.attn", d, cfg.heads, &mut rng);
    let ff = FeedForward::new("probe.ff", d, cfg.d_ff, &mut rng);
    let mut random = |rows: usize| {
        Tensor::from_vec(rows, d, (0..rows * d).map(|_| rng.gen_range(-1.0..1.0)).collect())
    };
    let (pm, vm) = (random(shape.pms), random(shape.vms));
    let blocks = cfg.blocks as f64;
    let mut p = if fast32 {
        let (attn, ff) = (MultiHeadAttention32::from_f64(&attn), FeedForward32::from_f64(&ff));
        probe_block!(FwdCtx32, &attn, &ff, shape, &pm, &vm, reps, blocks)
    } else {
        probe_block!(FwdCtx, &attn, &ff, shape, &pm, &vm, reps, blocks)
    };
    p.gflop_per_step = blocks * block_flop(shape, &cfg) / 1e9;
    p
}

/// Multiply-add FLOP (2 per MAC) of one sparse-attention block at
/// `shape`: four `d × d` projections per attention, `QKᵀ` and `PV` per
/// score, two dense layers per feed-forward.
fn block_flop(shape: &Shape, cfg: &ModelConfig) -> f64 {
    let (n, m) = (shape.pms as f64, shape.vms as f64);
    let (d, dff) = (cfg.d_model as f64, cfg.d_ff as f64);
    let attn =
        |nq: f64, nk: f64, scores: f64| 2.0 * d * d * (2.0 * nq + 2.0 * nk) + 4.0 * scores * d;
    let tree_scores: f64 =
        (0..shape.groups.len()).map(|g| (shape.groups.group(g).len() as f64).powi(2)).sum();
    attn(n + m, n + m, tree_scores)
        + attn(n, n, n * n)
        + attn(m, m, m * m)
        + attn(m, n, m * n)
        + 4.0 * d * dff * (n + m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count_matches_a_hand_computed_block() {
        // 2 PMs, 3 VMs (2 on PM 0, 1 on PM 1): trees of 3 and 2 members.
        let groups = TreeGroups { starts: vec![0, 3, 5], members: vec![0, 2, 3, 1, 4] };
        let shape = Shape { pms: 2, vms: 3, groups };
        let cfg = ModelConfig { d_model: 4, heads: 2, blocks: 1, d_ff: 8, critic_hidden: 4 };
        // Projections: 2*16*(2nq+2nk); scores: 4*s*4.
        let tree = 32.0 * 20.0 + 16.0 * 13.0;
        let pm = 32.0 * 8.0 + 16.0 * 4.0;
        let vm = 32.0 * 12.0 + 16.0 * 9.0;
        let cross = 32.0 * 10.0 + 16.0 * 6.0;
        let ff = 4.0 * 4.0 * 8.0 * 5.0;
        assert_eq!(block_flop(&shape, &cfg), tree + pm + vm + cross + ff);
    }

    #[test]
    fn probes_time_both_precisions_at_a_small_shape() {
        let groups = TreeGroups { starts: vec![0, 3, 5], members: vec![0, 2, 3, 1, 4] };
        let shape = Shape { pms: 2, vms: 3, groups };
        for fast32 in [false, true] {
            let p = probe_nn(&shape, fast32, 3);
            assert!(p.block_ms() > 0.0 && p.gflop_per_step > 0.0);
        }
    }
}
