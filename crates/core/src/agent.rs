//! The VMR2L agent: two-stage action selection with legality masking,
//! plus the Penalty and Full-Mask ablation modes of §5.4.
//!
//! The agent separates *acting* (rollouts and evaluation — sample or
//! greedy, optional risk-seeking quantile thresholds) from *re-evaluating*
//! stored transitions during the PPO update, where log-probabilities,
//! values, and entropies must be recomputed differentiably under the same
//! masks the behavior policy used.

use std::sync::{Arc, OnceLock};

use rand::Rng;

use vmr_nn::graph::{Graph, Var};
use vmr_nn::infer::{FVar, FwdCtx};
use vmr_nn::kernels::masked_softmax_bool_row;
use vmr_nn::layers::Module;
use vmr_nn::scalar::Scalar;
use vmr_nn::tensor::Tensor;
use vmr_rl::sample::{apply_keep_mask, quantile_keep_mask, Categorical};
use vmr_sim::env::{Action, ReschedEnv};
use vmr_sim::error::{SimError, SimResult};
use vmr_sim::obs::Observation;
use vmr_sim::types::{PmId, VmId};
use vmr_telemetry::Histogram;

use crate::config::ActionMode;
use crate::features::{bool_mask_row, FeatureTensors, TreeIndex};
use crate::model::{Stage1Fwd, Stage1Out, Vmr2lModel};

/// The element type an acting policy computes in: `f64` (bit-exact,
/// equal to the autodiff [`Graph`]) or `f32` (the fast tier). Sealed
/// through [`Scalar`]. Precision is this type parameter and nothing
/// else — the one [`Vmr2lAgent::act`] is monomorphized per scalar, so no
/// decision step branches on it.
pub trait ArenaScalar: Scalar {
    /// This scalar's arena of the two an [`InferCtx`] carries. Takes the
    /// two fields rather than the context so the caller keeps its
    /// disjoint borrows of features and scratch. A single-arena
    /// `InferCtx<S>` makes this helper unnecessary; that needs the frozen
    /// `benchmark/` package to stop spelling `ictx.ctx32` (ROADMAP 1(b)).
    fn arena<'a>(ctx: &'a mut FwdCtx, ctx32: &'a mut FwdCtx<f32>) -> &'a mut FwdCtx<Self>;
    /// Per-decision latency histogram (`core_decide_f64` /
    /// `core_decide_f32` in the process-wide registry), recorded by
    /// [`Vmr2lAgent::act`] — one sample per full decision (featurize +
    /// stage-1 forward + masked sampling).
    fn decide_hist() -> &'static Arc<Histogram>;
}

fn nanos_histogram(name: &str) -> Arc<Histogram> {
    vmr_telemetry::global().histogram(name, vmr_telemetry::Unit::Nanos)
}

impl ArenaScalar for f64 {
    fn arena<'a>(ctx: &'a mut FwdCtx, _ctx32: &'a mut FwdCtx<f32>) -> &'a mut FwdCtx {
        ctx
    }

    fn decide_hist() -> &'static Arc<Histogram> {
        static H: OnceLock<Arc<Histogram>> = OnceLock::new();
        H.get_or_init(|| nanos_histogram("core_decide_f64"))
    }
}

impl ArenaScalar for f32 {
    fn arena<'a>(_ctx: &'a mut FwdCtx, ctx32: &'a mut FwdCtx<f32>) -> &'a mut FwdCtx<f32> {
        ctx32
    }

    fn decide_hist() -> &'static Arc<Histogram> {
        static H: OnceLock<Arc<Histogram>> = OnceLock::new();
        H.get_or_init(|| nanos_histogram("core_decide_f32"))
    }
}

/// The tape-free acting half of a policy network, over the scalar of
/// its weights and arena: stage-1 extraction + heads, and a stage-2
/// destination head conditioned on the selected VM. Everything that
/// acts — serving, evaluation, rollouts — needs only this half, so the
/// f32 agent is simply `Vmr2lAgent<Vmr2lModel<f32>>`.
pub trait ActPolicy {
    /// Element type of the weights and of the arena the forward runs in.
    type S: ArenaScalar;
    /// Tape-free stage 1 (at `f64` bit-identical to [`Policy::stage1`]).
    fn stage1_fwd(
        &self,
        ctx: &mut FwdCtx<Self::S>,
        feats: &FeatureTensors,
        tree: &TreeIndex,
    ) -> Stage1Fwd;
    /// Tape-free stage 2 (at `f64` bit-identical to [`Policy::stage2`]).
    fn stage2_fwd(
        &self,
        ctx: &mut FwdCtx<Self::S>,
        s1: &Stage1Fwd,
        feats: &FeatureTensors,
        vm_idx: usize,
    ) -> FVar;
    /// Tape-free generic per-PM logits.
    fn pm_logits_generic_fwd(
        &self,
        ctx: &mut FwdCtx<Self::S>,
        s1: &Stage1Fwd,
        feats: &FeatureTensors,
    ) -> FVar;
    /// The `M × N` stage-3 cross-attention map of every VM (at `f64`
    /// bit-identical to [`Stage1Out::cross_probs`]) — the Full-Mask joint
    /// space, its one consumer.
    fn cross_probs_fwd(
        &self,
        ctx: &mut FwdCtx<Self::S>,
        s1: &Stage1Fwd,
        feats: &FeatureTensors,
    ) -> FVar;
}

/// The training half: the same stages on the autodiff [`Graph`]
/// (PPO re-evaluation), for policies that act in `f64`. The two halves
/// must be bit-identical (enforced by `tests/fwd_equivalence.rs`).
pub trait Policy: ActPolicy<S = f64> + Module {
    /// Feature extraction and stage-1 heads.
    fn stage1(&self, g: &mut Graph, feats: &FeatureTensors) -> Stage1Out;
    /// Stage-2 destination logits (`1 × N`) for a selected VM.
    fn stage2(&self, g: &mut Graph, s1: &Stage1Out, feats: &FeatureTensors, vm_idx: usize) -> Var;
    /// Generic per-PM logits (`1 × N`) for the joint (Full-Mask) space.
    fn pm_logits_generic(&self, g: &mut Graph, s1: &Stage1Out, feats: &FeatureTensors) -> Var;
}

impl<S: ArenaScalar> ActPolicy for Vmr2lModel<S> {
    type S = S;

    fn stage1_fwd(
        &self,
        ctx: &mut FwdCtx<S>,
        feats: &FeatureTensors,
        tree: &TreeIndex,
    ) -> Stage1Fwd {
        Vmr2lModel::stage1_fwd(self, ctx, feats, Some(&tree.groups))
    }

    fn stage2_fwd(
        &self,
        ctx: &mut FwdCtx<S>,
        s1: &Stage1Fwd,
        _feats: &FeatureTensors,
        vm_idx: usize,
    ) -> FVar {
        Vmr2lModel::stage2_fwd(self, ctx, s1, vm_idx)
    }

    fn pm_logits_generic_fwd(
        &self,
        ctx: &mut FwdCtx<S>,
        s1: &Stage1Fwd,
        _feats: &FeatureTensors,
    ) -> FVar {
        Vmr2lModel::pm_logits_generic_fwd(self, ctx, s1)
    }

    fn cross_probs_fwd(
        &self,
        ctx: &mut FwdCtx<S>,
        s1: &Stage1Fwd,
        _feats: &FeatureTensors,
    ) -> FVar {
        let classes = ctx.value(s1.cross.q).rows();
        let rows = self.cross_rows_fwd(ctx, s1, 0..classes);
        ctx.expand_rows(rows)
    }
}

impl Policy for Vmr2lModel {
    fn stage1(&self, g: &mut Graph, feats: &FeatureTensors) -> Stage1Out {
        Vmr2lModel::stage1(self, g, feats)
    }

    fn stage2(&self, g: &mut Graph, s1: &Stage1Out, _feats: &FeatureTensors, vm_idx: usize) -> Var {
        Vmr2lModel::stage2(self, g, s1, vm_idx)
    }

    fn pm_logits_generic(&self, g: &mut Graph, s1: &Stage1Out, _feats: &FeatureTensors) -> Var {
        Vmr2lModel::pm_logits_generic(self, g, s1)
    }
}

/// Reusable per-caller inference state: the forward arena plus every
/// scratch buffer the decision loop needs. One `InferCtx` per thread (or
/// per episode loop); at steady state a decision performs no heap
/// allocation inside the forward pass.
#[derive(Debug, Default)]
pub struct InferCtx {
    /// The f64 forward arena (empty and cost-free under an f32 agent).
    pub ctx: FwdCtx,
    /// The f32 forward arena (empty and cost-free under an f64 agent).
    /// An agent picks its own through [`ArenaScalar::arena`].
    pub ctx32: FwdCtx<f32>,
    /// Reused featurization (f32 → f64 refill, no rebuild).
    pub feats: FeatureTensors,
    /// Reused PM-tree CSR index for block-sparse local attention.
    pub tree: TreeIndex,
    /// Stage-1 legality mask scratch.
    pub vm_mask: Vec<bool>,
    /// Stage-2 legality mask scratch.
    pub pm_mask: Vec<bool>,
    /// Joint mask scratch (Full-Mask mode).
    pub joint_mask: Vec<bool>,
    /// Stage-1 probability scratch.
    pub vm_probs: Vec<f64>,
    /// Stage-2 probability scratch.
    pub pm_probs: Vec<f64>,
}

impl InferCtx {
    /// Fresh context (buffers grow on first use, then stabilize).
    pub fn new() -> Self {
        InferCtx { feats: FeatureTensors::empty(), ..Default::default() }
    }

    /// Refills the featurization and tree index from an observation and
    /// rewinds the arenas — the prologue of every forward.
    pub fn prepare(&mut self, obs: &Observation) {
        self.feats.refill_from(obs);
        self.tree.rebuild(&self.feats);
        self.ctx.reset();
        self.ctx32.reset();
    }

    /// [`InferCtx::prepare`] straight from the environment's cached
    /// observation — borrows it, no clone.
    pub fn prepare_from_env(&mut self, env: &mut ReschedEnv) {
        let obs = env.observe();
        self.prepare(obs);
    }
}

/// A lightweight acting decision: what serving and evaluation need,
/// without the re-evaluation payload (no observation clone).
#[derive(Debug, Clone, Copy)]
pub struct ActDecision {
    /// The environment action.
    pub action: Action,
    /// Joint log-probability under the (unthresholded) behavior policy.
    pub log_prob: f64,
    /// Critic value estimate.
    pub value: f64,
}

/// Everything needed to re-evaluate a transition during the PPO update.
#[derive(Debug, Clone)]
pub struct StoredObs {
    /// The featurized state.
    pub obs: Observation,
    /// Effective stage-1 mask the behavior policy sampled under.
    pub vm_mask: Vec<bool>,
    /// Stage-2 mask for the chosen VM (all-true in Penalty mode).
    pub pm_mask: Vec<bool>,
    /// Joint `M·N` legality mask (Full-Mask mode only), row-major
    /// `k * N + i`.
    pub joint_mask: Option<Vec<bool>>,
}

/// The discrete indices of a stored two-stage action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredAction {
    /// Stage-1 index (VM).
    pub vm_idx: usize,
    /// Stage-2 index (destination PM).
    pub pm_idx: usize,
}

/// One acting decision.
#[derive(Debug, Clone)]
pub struct StepDecision {
    /// The environment action.
    pub action: Action,
    /// Re-evaluation payload.
    pub stored_obs: StoredObs,
    /// Action indices.
    pub stored_action: StoredAction,
    /// Joint log-probability under the (unthresholded) behavior policy.
    pub log_prob: f64,
    /// Critic value estimate.
    pub value: f64,
    /// Stage-1 probabilities (post-mask, pre-threshold).
    pub vm_probs: Vec<f64>,
    /// Stage-2 probabilities for the chosen VM (post-mask, pre-threshold).
    pub pm_probs: Vec<f64>,
}

/// Sampling options for [`Vmr2lAgent::act`] and [`Vmr2lAgent::decide_in`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DecideOpts {
    /// Take the argmax instead of sampling.
    pub greedy: bool,
    /// Risk-seeking quantile threshold over VM probabilities (§3.4).
    pub vm_quantile: Option<f64>,
    /// Risk-seeking quantile threshold over PM probabilities (§3.4).
    pub pm_quantile: Option<f64>,
}

/// Differentiable re-evaluation outputs for the PPO loss.
#[derive(Debug, Clone, Copy)]
pub struct EvalVars {
    /// `1 × 1` joint log-probability of the stored action.
    pub log_prob: Var,
    /// `1 × 1` critic value.
    pub value: Var,
    /// `1 × 1` total policy entropy (both stages).
    pub entropy: Var,
}

/// The agent: a policy plus an action-generation mode.
#[derive(Debug, Clone)]
pub struct Vmr2lAgent<P> {
    /// The policy network.
    pub policy: P,
    /// Action-generation mode.
    pub mode: ActionMode,
    /// Decima-style destination subsampling: when set, stage 2 only sees a
    /// uniformly random subset of this many PMs (intersected with the
    /// legality mask). The paper's Decima baseline subsamples PMs randomly
    /// instead of learning which to mask (§5.1).
    pub pm_subset_size: Option<usize>,
}

impl<P: ActPolicy> Vmr2lAgent<P> {
    /// Wraps a policy in the given action mode.
    pub fn new(policy: P, mode: ActionMode) -> Self {
        Vmr2lAgent { policy, mode, pm_subset_size: None }
    }

    /// Enables Decima-style random PM subsampling in stage 2.
    pub fn with_pm_subset(mut self, size: usize) -> Self {
        self.pm_subset_size = Some(size.max(1));
        self
    }

    /// Pure acting: chooses an action for the environment's current
    /// state on the tape-free path, in the policy's own precision,
    /// without cloning the cached observation or materializing a
    /// re-evaluation payload. This is the serving/evaluation hot path —
    /// at steady state the forward pass performs no heap allocation.
    ///
    /// Returns `Ok(None)` when no legal action exists (all VMs pinned or
    /// dead-ended) — callers should end the episode. The control flow —
    /// masking, the resample loop, quantile thresholds, RNG draw order —
    /// does not depend on the scalar; only the forward arithmetic does,
    /// so `f32` decisions are *tolerance*-equivalent to `f64` ones, not
    /// bit-identical (`tests/integration_precision.rs` gates the
    /// plan-level agreement).
    pub fn act<R: Rng + ?Sized>(
        &self,
        env: &mut ReschedEnv,
        ictx: &mut InferCtx,
        rng: &mut R,
        opts: &DecideOpts,
    ) -> SimResult<Option<ActDecision>> {
        let t = vmr_telemetry::Timer::start();
        let s1 = self.stage1_of(env, ictx);
        let decision = self.act_core(env, ictx, &s1, rng, opts);
        t.observe(P::S::decide_hist());
        decision
    }

    /// Critic value of the environment's current state.
    pub fn state_value_in(&self, env: &mut ReschedEnv, ictx: &mut InferCtx) -> f64 {
        let s1 = self.stage1_of(env, ictx);
        P::S::arena(&mut ictx.ctx, &mut ictx.ctx32).value(s1.value).get(0, 0).to_f64()
    }

    /// Featurizes the environment's current state and runs stage 1 in
    /// this policy's arena.
    fn stage1_of(&self, env: &mut ReschedEnv, ictx: &mut InferCtx) -> Stage1Fwd {
        ictx.prepare_from_env(env);
        let InferCtx { ctx, ctx32, feats, tree, .. } = ictx;
        self.policy.stage1_fwd(P::S::arena(ctx, ctx32), feats, tree)
    }

    /// The action-selection tail shared by [`Vmr2lAgent::act`] and
    /// [`Vmr2lAgent::decide_in`]: masking, (re)sampling, and log-prob
    /// accounting over an already-computed stage-1 output. Exposed so
    /// callers that run stage 1 themselves (the served-plan benchmark
    /// times embed, stage 1 and this tail apart) can rejoin the decision
    /// logic.
    ///
    /// On return, the context's scratch buffers describe the decision:
    /// `vm_mask`/`pm_mask` (or `joint_mask`) are the masks the sampled
    /// distribution used, `vm_probs`/`pm_probs` the post-mask
    /// probabilities.
    pub fn act_core<R: Rng + ?Sized>(
        &self,
        env: &ReschedEnv,
        ictx: &mut InferCtx,
        s1: &Stage1Fwd,
        rng: &mut R,
        opts: &DecideOpts,
    ) -> SimResult<Option<ActDecision>> {
        self.select_action(&self.policy, env, ictx, s1, rng, opts)
    }

    /// The one definition of the two-stage tail, over whichever policy
    /// computed `s1`. Probabilities are normalized in f64 for either
    /// scalar (see [`masked_softmax_bool_row`]), so the sampling stack
    /// exists once. `policy` is a parameter apart from `self.policy`
    /// only for the [`Vmr2lAgent::act_core_f32`] shim; it folds back into
    /// [`Vmr2lAgent::act_core`] with ROADMAP 1(b).
    fn select_action<Q: ActPolicy, R: Rng + ?Sized>(
        &self,
        policy: &Q,
        env: &ReschedEnv,
        ictx: &mut InferCtx,
        s1: &Stage1Fwd,
        rng: &mut R,
        opts: &DecideOpts,
    ) -> SimResult<Option<ActDecision>> {
        let InferCtx {
            ctx, ctx32, feats, vm_mask, pm_mask, joint_mask, vm_probs, pm_probs, ..
        } = ictx;
        let ctx = Q::S::arena(ctx, ctx32);
        let value = ctx.value(s1.value).get(0, 0).to_f64();
        match self.mode {
            ActionMode::TwoStage | ActionMode::Penalty => {
                let masked_stage2 = self.mode == ActionMode::TwoStage;
                env.vm_mask_into(false, vm_mask);
                // Up to a few resamples if the chosen VM has no destination.
                for _attempt in 0..8 {
                    if !vm_mask.iter().any(|&b| b) {
                        return Ok(None);
                    }
                    masked_softmax_bool_row(
                        ctx.value(s1.vm_logits).row_slice(0),
                        vm_mask,
                        vm_probs,
                    );
                    let Some((vm_idx, vm_lp)) = pick(vm_probs, opts.vm_quantile, opts.greedy, rng)
                    else {
                        return Ok(None);
                    };
                    if masked_stage2 {
                        env.pm_mask_into(VmId(vm_idx as u32), pm_mask);
                    } else {
                        pm_mask.clear();
                        pm_mask.resize(env.state().num_pms(), true);
                    }
                    if let Some(k) = self.pm_subset_size {
                        subsample_mask(pm_mask, k, rng);
                    }
                    if masked_stage2 && !pm_mask.iter().any(|&b| b) {
                        // Dead-end VM: exclude and retry under the reduced
                        // mask (stored mask stays consistent).
                        vm_mask[vm_idx] = false;
                        continue;
                    }
                    // One arena frame per attempt: stage 2 leaves the
                    // arena as stage 1 left it.
                    let attempt = ctx.frame();
                    let pm_logits = policy.stage2_fwd(ctx, s1, feats, vm_idx);
                    masked_softmax_bool_row(ctx.value(pm_logits).row_slice(0), pm_mask, pm_probs);
                    ctx.keep(attempt, []);
                    let Some((pm_idx, pm_lp)) = pick(pm_probs, opts.pm_quantile, opts.greedy, rng)
                    else {
                        return Ok(None);
                    };
                    return Ok(Some(ActDecision {
                        action: Action { vm: VmId(vm_idx as u32), pm: PmId(pm_idx as u32) },
                        log_prob: vm_lp + pm_lp,
                        value,
                    }));
                }
                Ok(None)
            }
            ActionMode::FullMask => {
                let m = env.state().num_vms();
                let n = env.state().num_pms();
                // The joint mask costs O(M·N) legality checks — exactly the
                // expense the paper's two-stage design avoids.
                joint_mask.clear();
                joint_mask.resize(m * n, false);
                for k in 0..m {
                    env.pm_mask_into(VmId(k as u32), pm_mask);
                    joint_mask[k * n..(k + 1) * n].copy_from_slice(pm_mask);
                }
                if !joint_mask.iter().any(|&b| b) {
                    return Ok(None);
                }
                let joint = joint_logits_fwd(policy, ctx, s1, feats);
                let flat = ctx.reshape(joint, 1, m * n);
                masked_softmax_bool_row(ctx.value(flat).row_slice(0), joint_mask, vm_probs);
                pm_probs.clear();
                let Some((idx, lp)) = pick(vm_probs, None, opts.greedy, rng) else {
                    return Ok(None);
                };
                let (vm_idx, pm_idx) = (idx / n, idx % n);
                Ok(Some(ActDecision {
                    action: Action { vm: VmId(vm_idx as u32), pm: PmId(pm_idx as u32) },
                    log_prob: lp,
                    value,
                }))
            }
        }
    }
}

impl Vmr2lAgent<Vmr2lModel> {
    /// This agent over the weights cast to `S` (same mode and PM
    /// subsampling) — how the f32 agent of a trained checkpoint is built,
    /// once, by [`crate::infer::SharedAgent`].
    pub fn cast<S: ArenaScalar>(&self) -> Vmr2lAgent<Vmr2lModel<S>> {
        Vmr2lAgent {
            policy: Vmr2lModel::from_f64(&self.policy),
            mode: self.mode,
            pm_subset_size: self.pm_subset_size,
        }
    }

    /// [`Vmr2lAgent::act_core`] of the f32 agent, spelled the way the
    /// frozen `benchmark/` package calls it: the f64 agent plus the
    /// pre-cast model. A forwarder into the one tail; goes with
    /// ROADMAP 1(b). New code calls `act_core` on the typed f32 agent
    /// ([`crate::infer::SharedAgent::agent32`]).
    pub fn act_core_f32<R: Rng + ?Sized>(
        &self,
        m32: &Vmr2lModel<f32>,
        env: &ReschedEnv,
        ictx: &mut InferCtx,
        s1: &Stage1Fwd,
        rng: &mut R,
        opts: &DecideOpts,
    ) -> SimResult<Option<ActDecision>> {
        self.select_action(m32, env, ictx, s1, rng, opts)
    }
}

impl<P: Policy> Vmr2lAgent<P> {
    /// [`Vmr2lAgent::decide_in`] on the legacy autodiff engine: every
    /// forward builds a full gradient tape. Kept as the bit-identity
    /// reference for `tests/fwd_equivalence.rs`; not used by any
    /// production path.
    pub fn decide_via_graph<R: Rng + ?Sized>(
        &self,
        env: &mut ReschedEnv,
        rng: &mut R,
        opts: &DecideOpts,
    ) -> SimResult<Option<StepDecision>> {
        // The clone out of the cache is the copy that ends up in
        // `StoredObs`; no full featurization rebuild happens here.
        let obs = env.observe().clone();
        let feats = FeatureTensors::from_observation(&obs);
        let mut g = Graph::new();
        let s1 = self.policy.stage1(&mut g, &feats);
        let value = g.value(s1.value).get(0, 0);

        match self.mode {
            ActionMode::TwoStage | ActionMode::Penalty => {
                let masked_stage2 = self.mode == ActionMode::TwoStage;
                let mut vm_mask = env.vm_mask();
                // Scratch stage-2 mask, reused across resample attempts.
                let mut pm_mask_buf: Vec<bool> = Vec::new();
                // Up to a few resamples if the chosen VM has no destination.
                for _attempt in 0..8 {
                    if !vm_mask.iter().any(|&b| b) {
                        return Ok(None);
                    }
                    let vm_probs = masked_probs(&mut g, s1.vm_logits, &vm_mask);
                    let Some((vm_idx, vm_lp)) = pick(&vm_probs, opts.vm_quantile, opts.greedy, rng)
                    else {
                        return Ok(None);
                    };
                    let mut pm_mask = std::mem::take(&mut pm_mask_buf);
                    if masked_stage2 {
                        env.pm_mask_into(VmId(vm_idx as u32), &mut pm_mask);
                    } else {
                        pm_mask.clear();
                        pm_mask.resize(env.state().num_pms(), true);
                    }
                    if let Some(k) = self.pm_subset_size {
                        subsample_mask(&mut pm_mask, k, rng);
                    }
                    if masked_stage2 && !pm_mask.iter().any(|&b| b) {
                        // Dead-end VM: exclude and retry under the reduced
                        // mask (stored mask stays consistent).
                        vm_mask[vm_idx] = false;
                        pm_mask_buf = pm_mask;
                        continue;
                    }
                    let pm_logits = self.policy.stage2(&mut g, &s1, &feats, vm_idx);
                    let pm_probs = masked_probs(&mut g, pm_logits, &pm_mask);
                    let Some((pm_idx, pm_lp)) = pick(&pm_probs, opts.pm_quantile, opts.greedy, rng)
                    else {
                        return Ok(None);
                    };
                    return Ok(Some(StepDecision {
                        action: Action { vm: VmId(vm_idx as u32), pm: PmId(pm_idx as u32) },
                        stored_obs: StoredObs { obs, vm_mask, pm_mask, joint_mask: None },
                        stored_action: StoredAction { vm_idx, pm_idx },
                        log_prob: vm_lp + pm_lp,
                        value,
                        vm_probs,
                        pm_probs,
                    }));
                }
                Ok(None)
            }
            ActionMode::FullMask => {
                let m = env.state().num_vms();
                let n = env.state().num_pms();
                // The joint mask costs O(M·N) legality checks — exactly the
                // expense the paper's two-stage design avoids.
                let mut joint_mask = vec![false; m * n];
                let mut row = Vec::new();
                for k in 0..m {
                    env.pm_mask_into(VmId(k as u32), &mut row);
                    joint_mask[k * n..(k + 1) * n].copy_from_slice(&row);
                }
                if !joint_mask.iter().any(|&b| b) {
                    return Ok(None);
                }
                let joint_logits = self.joint_logits(&mut g, &s1, &feats);
                let flat = g.reshape(joint_logits, 1, m * n);
                let probs = masked_probs(&mut g, flat, &joint_mask);
                let Some((idx, lp)) = pick(&probs, None, opts.greedy, rng) else {
                    return Ok(None);
                };
                let (vm_idx, pm_idx) = (idx / n, idx % n);
                Ok(Some(StepDecision {
                    action: Action { vm: VmId(vm_idx as u32), pm: PmId(pm_idx as u32) },
                    stored_obs: StoredObs {
                        obs,
                        vm_mask: vec![true; m],
                        pm_mask: vec![true; n],
                        joint_mask: Some(joint_mask),
                    },
                    stored_action: StoredAction { vm_idx, pm_idx },
                    log_prob: lp,
                    value,
                    vm_probs: probs,
                    pm_probs: Vec::new(),
                }))
            }
        }
    }

    /// Chooses an action on the tape-free path and returns it with the
    /// full re-evaluation payload for the PPO buffer. Bit-identical
    /// decisions to [`Vmr2lAgent::decide_via_graph`] (same kernels, same
    /// RNG draws) and to [`Vmr2lAgent::act`].
    pub fn decide_in<R: Rng + ?Sized>(
        &self,
        env: &mut ReschedEnv,
        ictx: &mut InferCtx,
        rng: &mut R,
        opts: &DecideOpts,
    ) -> SimResult<Option<StepDecision>> {
        // Training needs an owned observation per transition; this clone
        // feeds `StoredObs` (the pure acting path, `act`, skips it).
        let obs = env.observe().clone();
        ictx.prepare(&obs);
        let s1 = self.policy.stage1_fwd(&mut ictx.ctx, &ictx.feats, &ictx.tree);
        let Some(act) = self.act_core(env, ictx, &s1, rng, opts)? else {
            return Ok(None);
        };
        let (vm_idx, pm_idx) = (act.action.vm.0 as usize, act.action.pm.0 as usize);
        let stored_obs = match self.mode {
            ActionMode::TwoStage | ActionMode::Penalty => StoredObs {
                obs,
                vm_mask: ictx.vm_mask.clone(),
                pm_mask: ictx.pm_mask.clone(),
                joint_mask: None,
            },
            ActionMode::FullMask => StoredObs {
                obs,
                vm_mask: vec![true; ictx.feats.num_vms],
                pm_mask: vec![true; ictx.feats.num_pms],
                joint_mask: Some(ictx.joint_mask.clone()),
            },
        };
        Ok(Some(StepDecision {
            action: act.action,
            stored_obs,
            stored_action: StoredAction { vm_idx, pm_idx },
            log_prob: act.log_prob,
            value: act.value,
            vm_probs: ictx.vm_probs.clone(),
            pm_probs: ictx.pm_probs.clone(),
        }))
    }

    /// Differentiably re-evaluates a stored transition for the PPO loss.
    pub fn evaluate_actions(
        &self,
        g: &mut Graph,
        stored: &StoredObs,
        action: StoredAction,
    ) -> EvalVars {
        let feats = FeatureTensors::from_observation(&stored.obs);
        let s1 = self.policy.stage1(g, &feats);
        match self.mode {
            ActionMode::TwoStage | ActionMode::Penalty => {
                let vm_mask = bool_mask_row(&stored.vm_mask);
                let vm_lp_row = g.masked_log_softmax_rows(s1.vm_logits, &vm_mask);
                let vm_lp = g.gather_elems(vm_lp_row, &[(0, action.vm_idx)]);
                let vm_ent = entropy_var(g, s1.vm_logits, &vm_mask);

                let pm_logits = self.policy.stage2(g, &s1, &feats, action.vm_idx);
                let pm_mask = bool_mask_row(&stored.pm_mask);
                let pm_lp_row = g.masked_log_softmax_rows(pm_logits, &pm_mask);
                let pm_lp = g.gather_elems(pm_lp_row, &[(0, action.pm_idx)]);
                let pm_ent = entropy_var(g, pm_logits, &pm_mask);

                let log_prob = g.add(vm_lp, pm_lp);
                let entropy = g.add(vm_ent, pm_ent);
                EvalVars { log_prob, value: s1.value, entropy }
            }
            ActionMode::FullMask => {
                let m = feats.num_vms;
                let n = feats.num_pms;
                let joint = self.joint_logits(g, &s1, &feats);
                let flat = g.reshape(joint, 1, m * n);
                let mask_bools =
                    stored.joint_mask.as_ref().expect("FullMask transitions carry a joint mask");
                let mask = bool_mask_row(mask_bools);
                let lp_row = g.masked_log_softmax_rows(flat, &mask);
                let idx = action.vm_idx * n + action.pm_idx;
                let log_prob = g.gather_elems(lp_row, &[(0, idx)]);
                let entropy = entropy_var(g, flat, &mask);
                EvalVars { log_prob, value: s1.value, entropy }
            }
        }
    }

    /// Joint `M × N` logits for the Full-Mask mode: outer sum of stage-1
    /// VM logits and generic PM logits, plus the cross-attention map.
    fn joint_logits(&self, g: &mut Graph, s1: &Stage1Out, feats: &FeatureTensors) -> Var {
        let m = feats.num_vms;
        let n = feats.num_pms;
        let vm_col = g.transpose(s1.vm_logits); // M × 1
        let ones_row = g.constant(Tensor::full(1, n, 1.0));
        let vm_grid = g.matmul(vm_col, ones_row); // M × N
        let pm_row = self.policy.pm_logits_generic(g, s1, feats); // 1 × N
        let ones_col = g.constant(Tensor::full(m, 1, 1.0));
        let pm_grid = g.matmul(ones_col, pm_row); // M × N
        let sum = g.add(vm_grid, pm_grid);
        g.add(sum, s1.cross_probs)
    }
}

/// Tape-free joint `M × N` logits for the Full-Mask mode (mirrors
/// `Vmr2lAgent::joint_logits`).
fn joint_logits_fwd<P: ActPolicy>(
    policy: &P,
    ctx: &mut FwdCtx<P::S>,
    s1: &Stage1Fwd,
    feats: &FeatureTensors,
) -> FVar {
    let m = feats.num_vms;
    let n = feats.num_pms;
    let vm_col = ctx.reshape(s1.vm_logits, m, 1);
    let ones_row = ctx.full(1, n, Scalar::ONE);
    let vm_grid = ctx.matmul(vm_col, ones_row); // M × N
    let pm_row = policy.pm_logits_generic_fwd(ctx, s1, feats); // 1 × N
    let ones_col = ctx.full(m, 1, Scalar::ONE);
    let pm_grid = ctx.matmul(ones_col, pm_row); // M × N
    let sum = ctx.add(vm_grid, pm_grid);
    let cross = policy.cross_probs_fwd(ctx, s1, feats);
    ctx.add(sum, cross)
}

/// Masked softmax probabilities as plain `f64`s (acting path — no grads
/// needed, but we reuse the graph for the forward computation).
fn masked_probs(g: &mut Graph, logits: Var, mask: &[bool]) -> Vec<f64> {
    let mask_row = bool_mask_row(mask);
    let p = g.masked_softmax_rows(logits, &mask_row);
    g.value(p).data().to_vec()
}

/// Samples (or greedily picks) from probabilities after an optional
/// risk-seeking quantile threshold; returns `(index, log_prob)` where the
/// log-probability is under the *unthresholded* distribution (thresholds
/// are an evaluation-time device, not part of the trained policy).
fn pick<R: Rng + ?Sized>(
    probs: &[f64],
    quantile: Option<f64>,
    greedy: bool,
    rng: &mut R,
) -> Option<(usize, f64)> {
    let base = Categorical::new(probs)?;
    if greedy {
        let idx = base.argmax();
        return Some((idx, base.log_prob(idx)));
    }
    let idx = match quantile {
        Some(q) => {
            let keep = quantile_keep_mask(probs, q);
            let filtered = apply_keep_mask(probs, &keep);
            Categorical::new(&filtered)?.sample(rng)
        }
        None => base.sample(rng),
    };
    Some((idx, base.log_prob(idx)))
}

/// Restricts a legality mask to a uniformly random subset of `k` of its
/// `true` entries (Decima-style destination subsampling). If fewer than
/// `k` entries are legal the mask is unchanged.
fn subsample_mask<R: Rng + ?Sized>(mask: &mut [bool], k: usize, rng: &mut R) {
    let legal: Vec<usize> = mask.iter().enumerate().filter_map(|(i, &b)| b.then_some(i)).collect();
    if legal.len() <= k {
        return;
    }
    // Partial Fisher-Yates: choose k survivors.
    let mut pool = legal;
    for i in 0..k {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    let keep: std::collections::HashSet<usize> = pool[..k].iter().copied().collect();
    for (i, slot) in mask.iter_mut().enumerate() {
        if *slot && !keep.contains(&i) {
            *slot = false;
        }
    }
}

/// Entropy of a masked softmax distribution as a differentiable `1 × 1`
/// node: `−Σ p ln p`.
fn entropy_var(g: &mut Graph, logits: Var, mask: &Tensor) -> Var {
    let p = g.masked_softmax_rows(logits, mask);
    let lp = g.masked_log_softmax_rows(logits, mask);
    let prod = g.mul_elem(p, lp);
    let s = g.sum_all(prod);
    g.scale(s, -1.0)
}

/// The agent step loop — the only one in the workspace: `act` →
/// `env.step` → push, from the environment's *current* state (no
/// `reset`) in the caller's [`InferCtx`], until the episode ends or no
/// candidate is left. The daemon's agent policy, NeuPlan's greedy prefix
/// and [`rollout_episode`] all run exactly this, in the agent's own
/// precision.
pub fn roll_out<P: ActPolicy, R: Rng + ?Sized>(
    agent: &Vmr2lAgent<P>,
    env: &mut ReschedEnv,
    ictx: &mut InferCtx,
    rng: &mut R,
    opts: &DecideOpts,
) -> SimResult<Vec<Action>> {
    /// Consecutive illegal proposals tolerated before giving up on the
    /// episode. Unmasked modes can propose illegal actions; a greedy
    /// policy would re-propose the same one forever, so retries must be
    /// bounded.
    const MAX_ILLEGAL_RETRIES: usize = 64;

    let mut plan = Vec::new();
    let mut illegal_streak = 0usize;
    // The MNL test only matters for an MNL-0 episode, which is not
    // "done" before its first step: it asks the model nothing.
    while !env.is_done() && env.steps_taken() < env.mnl() {
        let Some(decision) = agent.act(env, ictx, rng, opts)? else {
            break;
        };
        match env.step(decision.action) {
            Ok(_) => {
                illegal_streak = 0;
                plan.push(decision.action);
            }
            Err(SimError::EpisodeDone | SimError::MnlExhausted) => break,
            // Unmasked modes may emit illegal actions; skip them here
            // (training assigns the −5 penalty, evaluation retries a
            // bounded number of times — a greedy policy is deterministic
            // and would otherwise loop forever).
            Err(_) if agent.mode != ActionMode::TwoStage => {
                illegal_streak += 1;
                if opts.greedy || illegal_streak >= MAX_ILLEGAL_RETRIES {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(plan)
}

/// Convenience: `rewind`, [`roll_out`] a full episode with the agent (in
/// its own precision) and return the final objective value and the plan.
pub fn rollout_episode<P: ActPolicy, R: Rng + ?Sized>(
    agent: &Vmr2lAgent<P>,
    env: &mut ReschedEnv,
    rng: &mut R,
    opts: &DecideOpts,
) -> SimResult<(f64, Vec<Action>)> {
    env.rewind();
    let plan = roll_out(agent, env, &mut InferCtx::new(), rng, opts)?;
    Ok((env.objective_value(), plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExtractorKind, ModelConfig};
    use crate::model::Vmr2lModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig};
    use vmr_sim::objective::Objective;

    fn agent(mode: ActionMode) -> Vmr2lAgent<Vmr2lModel> {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 32, critic_hidden: 16 };
        Vmr2lAgent::new(Vmr2lModel::new(cfg, ExtractorKind::SparseAttention, &mut rng), mode)
    }

    /// One decision with its re-evaluation payload, on a throwaway context.
    fn decide(
        a: &Vmr2lAgent<Vmr2lModel>,
        e: &mut ReschedEnv,
        rng: &mut StdRng,
        opts: &DecideOpts,
    ) -> StepDecision {
        a.decide_in(e, &mut InferCtx::new(), rng, opts).unwrap().expect("a legal action exists")
    }

    fn env() -> ReschedEnv {
        let state = generate_mapping(&ClusterConfig::tiny(), 17).unwrap();
        ReschedEnv::unconstrained(state, Objective::default(), 4).unwrap()
    }

    #[test]
    fn two_stage_actions_are_always_legal() {
        let a = agent(ActionMode::TwoStage);
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            if e.is_done() {
                e.rewind();
            }
            let d = decide(&a, &mut e, &mut rng, &DecideOpts::default());
            assert!(
                e.action_legal(d.action).is_ok(),
                "two-stage masking must preclude illegal actions"
            );
            e.step(d.action).unwrap();
        }
    }

    #[test]
    fn decision_log_prob_matches_probs() {
        let a = agent(ActionMode::TwoStage);
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(1);
        let d = decide(&a, &mut e, &mut rng, &DecideOpts::default());
        let expect = d.vm_probs[d.stored_action.vm_idx].max(1e-300).ln()
            + d.pm_probs[d.stored_action.pm_idx].max(1e-300).ln();
        assert!((d.log_prob - expect).abs() < 1e-9);
    }

    #[test]
    fn evaluate_matches_behavior_log_prob() {
        let a = agent(ActionMode::TwoStage);
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(2);
        let d = decide(&a, &mut e, &mut rng, &DecideOpts::default());
        let mut g = Graph::new();
        let ev = a.evaluate_actions(&mut g, &d.stored_obs, d.stored_action);
        let lp = g.value(ev.log_prob).get(0, 0);
        assert!((lp - d.log_prob).abs() < 1e-9, "evaluate {lp} vs behavior {}", d.log_prob);
        let v = g.value(ev.value).get(0, 0);
        assert!((v - d.value).abs() < 1e-12);
        let ent = g.value(ev.entropy).get(0, 0);
        assert!(ent >= 0.0);
    }

    #[test]
    fn greedy_is_deterministic() {
        let a = agent(ActionMode::TwoStage);
        let mut e = env();
        let opts = DecideOpts { greedy: true, ..Default::default() };
        let mut r1 = StdRng::seed_from_u64(10);
        let mut r2 = StdRng::seed_from_u64(99);
        let d1 = decide(&a, &mut e, &mut r1, &opts);
        let d2 = decide(&a, &mut e, &mut r2, &opts);
        assert_eq!(d1.action, d2.action);
    }

    #[test]
    fn full_mask_actions_are_legal() {
        let a = agent(ActionMode::FullMask);
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(4);
        let d = decide(&a, &mut e, &mut rng, &DecideOpts::default());
        assert!(e.action_legal(d.action).is_ok());
        assert!(d.stored_obs.joint_mask.is_some());
        // Re-evaluation agrees.
        let mut g = Graph::new();
        let ev = a.evaluate_actions(&mut g, &d.stored_obs, d.stored_action);
        let lp = g.value(ev.log_prob).get(0, 0);
        assert!((lp - d.log_prob).abs() < 1e-9);
    }

    #[test]
    fn penalty_mode_may_propose_illegal() {
        // Penalty mode has no stage-2 mask; over many samples it should
        // propose at least one illegal action on a busy cluster.
        let a = agent(ActionMode::Penalty);
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(5);
        let mut saw_illegal = false;
        for _ in 0..40 {
            let d = decide(&a, &mut e, &mut rng, &DecideOpts::default());
            if e.action_legal(d.action).is_err() {
                saw_illegal = true;
                break;
            }
        }
        assert!(saw_illegal, "penalty mode should occasionally pick illegal PMs");
    }

    #[test]
    fn rollout_episode_improves_or_holds() {
        let a = agent(ActionMode::TwoStage);
        let mut e = env();
        let initial = e.state().fragment_rate(16);
        let mut rng = StdRng::seed_from_u64(6);
        let (final_fr, plan) =
            rollout_episode(&a, &mut e, &mut rng, &DecideOpts::default()).unwrap();
        assert!(plan.len() <= 4);
        // An untrained policy may not improve, but the value is a valid FR.
        assert!((0.0..=1.0).contains(&final_fr));
        let _ = initial;
    }

    #[test]
    fn f32_actions_are_legal_and_value_tracks_f64() {
        let a = agent(ActionMode::TwoStage);
        let a32 = a.cast::<f32>();
        let mut e = env();
        let mut ictx = InferCtx::new();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            if e.is_done() {
                e.rewind();
            }
            let d = a32.act(&mut e, &mut ictx, &mut rng, &DecideOpts::default());
            let Some(d) = d.unwrap() else { break };
            assert!(e.action_legal(d.action).is_ok(), "f32 masking must stay exact");
            let v64 = a.state_value_in(&mut e, &mut ictx);
            let v32 = a32.state_value_in(&mut e, &mut ictx);
            assert!((v64 - v32).abs() < 1e-3, "critic value f32 {v32} vs f64 {v64}");
            e.step(d.action).unwrap();
        }
    }

    #[test]
    fn f32_greedy_matches_f64_greedy_on_episode() {
        // Tolerance contract, checked end-to-end on a tiny instance: the
        // same untrained checkpoint, rolled out greedily under both
        // precisions, should produce the same plan unless two logits tie
        // within f32 noise — which this seed does not. Every action mode
        // goes through the one tail and the one joint-logits body.
        for mode in [ActionMode::TwoStage, ActionMode::Penalty, ActionMode::FullMask] {
            let a = agent(mode);
            let opts = DecideOpts { greedy: true, ..Default::default() };
            let mut e = env();
            let mut r1 = StdRng::seed_from_u64(21);
            let (obj64, plan64) = rollout_episode(&a, &mut e, &mut r1, &opts).unwrap();
            let mut r2 = StdRng::seed_from_u64(22);
            let (obj32, plan32) =
                rollout_episode(&a.cast::<f32>(), &mut e, &mut r2, &opts).unwrap();
            assert_eq!(plan64, plan32, "greedy plans diverged between precisions ({mode:?})");
            assert!((obj64 - obj32).abs() < 1e-12);
        }
    }

    #[test]
    fn f32_full_mask_actions_are_legal() {
        let a = agent(ActionMode::FullMask).cast::<f32>();
        let mut e = env();
        let mut ictx = InferCtx::new();
        let mut rng = StdRng::seed_from_u64(12);
        let d = a
            .act(&mut e, &mut ictx, &mut rng, &DecideOpts::default())
            .unwrap()
            .expect("joint space has legal pairs");
        assert!(e.action_legal(d.action).is_ok());
    }

    #[test]
    fn thresholded_sampling_stays_legal() {
        let a = agent(ActionMode::TwoStage);
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(7);
        let opts =
            DecideOpts { vm_quantile: Some(0.9), pm_quantile: Some(0.9), ..Default::default() };
        for _ in 0..10 {
            let d = decide(&a, &mut e, &mut rng, &opts);
            assert!(e.action_legal(d.action).is_ok());
        }
    }
}
