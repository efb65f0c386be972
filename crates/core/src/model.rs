//! The VMR2L network: shared embedding networks, sparse tree-attention
//! blocks, the two actors, and the critic (§3.2–3.3 of the paper).
//!
//! Architecture per attention block (Fig. 8):
//! 1. **sparse local attention** — PMs and VMs exchange information iff
//!    they belong to the same PM-tree (additive tree mask),
//! 2. **self-attention** — PMs attend to PMs, VMs attend to VMs,
//! 3. **VM→PM cross attention** — whose probabilities are also surfaced to
//!    the PM actor so the two actors coordinate.
//!
//! After the three stages each entity passes through two dense layers and
//! layer norm (the residual feed-forward sub-block). The VM embeddings of
//! the last block are linearly projected to stage-1 logits; the PM actor
//! is an encoder-decoder over the selected VM embedding, all PM
//! embeddings, and the stage-3 attention row of the selected VM.

use rand::Rng;

use vmr_nn::graph::{Graph, Var};
use vmr_nn::infer::{FVar, FwdCtx, TreeGroups};
use vmr_nn::layers::{FeedForward, Linear, Mlp, Module, MultiHeadAttention};
use vmr_nn::scalar::Scalar;
use vmr_nn::tensor::Tensor;
use vmr_sim::obs::{PM_FEAT, VM_FEAT};

use crate::config::{ExtractorKind, ModelConfig};
use crate::features::FeatureTensors;

/// Output of the shared feature extraction + stage-1 heads on the
/// tape-free engine (mirrors [`Stage1Out`] with arena handles, which
/// carry no element type: the same struct serves both precisions).
#[derive(Debug, Clone, Copy)]
pub struct Stage1Fwd {
    /// `1 × M` stage-1 (VM-selection) logits, unmasked.
    pub vm_logits: FVar,
    /// `N × d` final PM embeddings.
    pub pm_embs: FVar,
    /// `M × d` final VM embeddings.
    pub vm_embs: FVar,
    /// Stage-3 cross-attention probabilities from the last block, one
    /// `1 × N` row per VM **row class** of the forward: VM `k` reads row
    /// `ctx.row_classes().class(k)` (row `k` itself when no rows are
    /// shared). Never expanded to `M × N` on the two-stage path; the
    /// Full-Mask joint space expands it on demand
    /// ([`FwdCtx::expand_rows`]).
    pub cross_probs: FVar,
    /// `1 × 1` critic value.
    pub value: FVar,
}

/// Output of the shared feature extraction + stage-1 heads.
#[derive(Debug, Clone, Copy)]
pub struct Stage1Out {
    /// `1 × M` stage-1 (VM-selection) logits, unmasked.
    pub vm_logits: Var,
    /// `N × d` final PM embeddings.
    pub pm_embs: Var,
    /// `M × d` final VM embeddings.
    pub vm_embs: Var,
    /// `M × N` stage-3 cross-attention probabilities from the last block.
    pub cross_probs: Var,
    /// `1 × 1` critic value.
    pub value: Var,
}

/// One sparse-attention block.
#[derive(Debug, Clone)]
pub struct SparseBlock<S = f64> {
    local: Option<MultiHeadAttention<S>>,
    pm_self: MultiHeadAttention<S>,
    vm_self: MultiHeadAttention<S>,
    cross: MultiHeadAttention<S>,
    pm_ff: FeedForward<S>,
    vm_ff: FeedForward<S>,
}

/// Block output: updated embeddings plus the cross-attention map.
#[derive(Debug, Clone, Copy)]
pub struct BlockOut {
    /// Updated `N × d` PM embeddings.
    pub pm: Var,
    /// Updated `M × d` VM embeddings.
    pub vm: Var,
    /// `M × N` cross-attention probabilities.
    pub cross_probs: Var,
}

impl SparseBlock {
    /// Builds one block; `use_local = false` gives the vanilla-transformer
    /// ablation (no tree stage).
    pub fn new(name: &str, cfg: &ModelConfig, use_local: bool, rng: &mut impl Rng) -> Self {
        SparseBlock {
            local: use_local.then(|| {
                MultiHeadAttention::new(format!("{name}.local"), cfg.d_model, cfg.heads, rng)
            }),
            pm_self: MultiHeadAttention::new(
                format!("{name}.pm_self"),
                cfg.d_model,
                cfg.heads,
                rng,
            ),
            vm_self: MultiHeadAttention::new(
                format!("{name}.vm_self"),
                cfg.d_model,
                cfg.heads,
                rng,
            ),
            cross: MultiHeadAttention::new(format!("{name}.cross"), cfg.d_model, cfg.heads, rng),
            pm_ff: FeedForward::new(format!("{name}.pm_ff"), cfg.d_model, cfg.d_ff, rng),
            vm_ff: FeedForward::new(format!("{name}.vm_ff"), cfg.d_model, cfg.d_ff, rng),
        }
    }

    /// Applies the block. `tree_mask` is required when the block has a
    /// local stage.
    pub fn forward(&self, g: &mut Graph, pm: Var, vm: Var, tree_mask: Option<&Tensor>) -> BlockOut {
        let n = g.value(pm).rows();
        let m = g.value(vm).rows();
        // Stage 1: sparse local attention over the combined sequence.
        let (pm_l, vm_l) = match (&self.local, tree_mask) {
            (Some(local), Some(mask)) => {
                let combined = g.vcat(pm, vm);
                let att = local.forward(g, combined, combined, Some(mask));
                let res = g.add(combined, att.out);
                let pm_idx: Vec<usize> = (0..n).collect();
                let vm_idx: Vec<usize> = (n..n + m).collect();
                (g.select_rows(res, &pm_idx), g.select_rows(res, &vm_idx))
            }
            _ => (pm, vm),
        };
        // Stage 2: self-attention within each entity class (+ residual).
        let pm_att = self.pm_self.forward(g, pm_l, pm_l, None);
        let pm_s = g.add(pm_l, pm_att.out);
        let vm_att = self.vm_self.forward(g, vm_l, vm_l, None);
        let vm_s = g.add(vm_l, vm_att.out);
        // Stage 3: VM embeddings attend to PM embeddings (+ residual).
        let cross = self.cross.forward(g, vm_s, pm_s, None);
        let vm_c = g.add(vm_s, cross.out);
        // Two dense layers + layer norm per entity.
        let pm_out = self.pm_ff.forward(g, pm_s);
        let vm_out = self.vm_ff.forward(g, vm_c);
        BlockOut { pm: pm_out, vm: vm_out, cross_probs: cross.probs }
    }
}

impl<S: Scalar> SparseBlock<S> {
    fn from_f64(b: &SparseBlock) -> Self {
        SparseBlock {
            local: b.local.as_ref().map(MultiHeadAttention::from_f64),
            pm_self: MultiHeadAttention::from_f64(&b.pm_self),
            vm_self: MultiHeadAttention::from_f64(&b.vm_self),
            cross: MultiHeadAttention::from_f64(&b.cross),
            pm_ff: FeedForward::from_f64(&b.pm_ff),
            vm_ff: FeedForward::from_f64(&b.vm_ff),
        }
    }

    /// Tape-free forward, in f64 bit-identical to [`SparseBlock::forward`] under
    /// the dense tree mask equivalent to `tree`, on the VM rows given
    /// once per row class of the forward (`ctx.row_classes()`, see
    /// [`vmr_nn::classes`]): `vm` and the returned VM embeddings and
    /// cross probabilities hold one row per class. The local stage runs
    /// block-sparse per PM-tree on the `N + U` class rows — the `(N+M)²`
    /// score matrix and the mask are never materialized — and the dense
    /// VM stages after it keep the whole VM sequence as keys.
    pub fn fwd(
        &self,
        ctx: &mut FwdCtx<S>,
        pm: FVar,
        vm: FVar,
        tree: Option<&TreeGroups>,
        want_cross_probs: bool,
    ) -> (FVar, FVar, Option<FVar>) {
        let (pm_l, vm_l) = match (&self.local, tree) {
            (Some(local), Some(tree)) => {
                let (n, u) = (ctx.value(pm).rows(), ctx.value(vm).rows());
                let combined = ctx.vcat(pm, vm);
                let att = local.fwd_tree(ctx, combined, tree);
                let res = ctx.add(combined, att);
                (ctx.rows_range(res, 0, n), ctx.rows_range(res, n, u))
            }
            _ => (pm, vm),
        };
        let (pm_att, _) = self.pm_self.fwd(ctx, pm_l, pm_l, None, false);
        let pm_s = ctx.add(pm_l, pm_att);
        let vm_att = self.vm_self.fwd_self_classes(ctx, vm_l);
        let vm_s = ctx.add(vm_l, vm_att);
        let (cross_out, cross_probs) = self.cross.fwd(ctx, vm_s, pm_s, None, want_cross_probs);
        let vm_c = ctx.add(vm_s, cross_out);
        let pm_out = self.pm_ff.fwd(ctx, pm_s);
        let vm_out = self.vm_ff.fwd(ctx, vm_c);
        (pm_out, vm_out, cross_probs)
    }
}

impl Module for SparseBlock {
    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        if let Some(l) = &self.local {
            l.visit_params(f);
        }
        self.pm_self.visit_params(f);
        self.vm_self.visit_params(f);
        self.cross.visit_params(f);
        self.pm_ff.visit_params(f);
        self.vm_ff.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        if let Some(l) = &mut self.local {
            l.visit_params_mut(f);
        }
        self.pm_self.visit_params_mut(f);
        self.vm_self.visit_params_mut(f);
        self.cross.visit_params_mut(f);
        self.pm_ff.visit_params_mut(f);
        self.vm_ff.visit_params_mut(f);
    }
}

/// The stage-2 PM actor: an encoder-decoder where the encoder sees only
/// the selected VM and the decoder attends every PM to it, augmented with
/// the stage-3 attention score of the selected VM (§3.3).
#[derive(Debug, Clone)]
pub struct PmActor<S = f64> {
    enc: Linear<S>,
    att: MultiHeadAttention<S>,
    ff: FeedForward<S>,
    out: Linear<S>,
}

impl PmActor {
    fn new(name: &str, cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        PmActor {
            enc: Linear::new(format!("{name}.enc"), cfg.d_model, cfg.d_model, rng),
            att: MultiHeadAttention::new(format!("{name}.att"), cfg.d_model, cfg.heads, rng),
            ff: FeedForward::new(format!("{name}.ff"), cfg.d_model, cfg.d_ff, rng),
            out: Linear::new(format!("{name}.out"), cfg.d_model + 1, 1, rng),
        }
    }

    /// Produces `1 × N` destination logits (unmasked) for the selected VM.
    pub fn forward(
        &self,
        g: &mut Graph,
        pm_embs: Var,
        selected_vm_emb: Var,
        score_row: Var,
    ) -> Var {
        let enc = self.enc.forward(g, selected_vm_emb);
        let enc = g.relu(enc);
        let att = self.att.forward(g, pm_embs, enc, None);
        let dec = g.add(pm_embs, att.out);
        let dec = self.ff.forward(g, dec);
        // Inject the stage-3 attention scores as an extra feature column.
        let score_col = g.transpose(score_row);
        let with_score = g.hcat(dec, score_col);
        let logits = self.out.forward(g, with_score); // N × 1
        g.transpose(logits) // 1 × N
    }
}

impl<S: Scalar> PmActor<S> {
    fn from_f64(a: &PmActor) -> Self {
        PmActor {
            enc: Linear::from_f64(&a.enc),
            att: MultiHeadAttention::from_f64(&a.att),
            ff: FeedForward::from_f64(&a.ff),
            out: Linear::from_f64(&a.out),
        }
    }

    /// Tape-free forward (in f64 bit-identical to [`PmActor::forward`];
    /// the row ↔ column transposes are pure reshapes in row-major layout).
    pub fn fwd(&self, ctx: &mut FwdCtx<S>, pm_embs: FVar, selected: FVar, score_row: FVar) -> FVar {
        let n = ctx.value(pm_embs).rows();
        let enc = self.enc.fwd(ctx, selected);
        ctx.relu_assign(enc);
        let (att, _) = self.att.fwd(ctx, pm_embs, enc, None, false);
        let dec = ctx.add(pm_embs, att);
        let dec = self.ff.fwd(ctx, dec);
        let score_col = ctx.reshape(score_row, n, 1);
        let with_score = ctx.hcat(dec, score_col);
        let logits = self.out.fwd(ctx, with_score); // N × 1
        ctx.reshape(logits, 1, n)
    }
}

impl Module for PmActor {
    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        self.enc.visit_params(f);
        self.att.visit_params(f);
        self.ff.visit_params(f);
        self.out.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.enc.visit_params_mut(f);
        self.att.visit_params_mut(f);
        self.ff.visit_params_mut(f);
        self.out.visit_params_mut(f);
    }
}

/// The full VMR2L policy/value network, over the [`Scalar`] of its
/// weights: `Vmr2lModel` (f64) trains, checkpoints and serves the exact
/// tier; `Vmr2lModel<f32>` is its weight-cast-once build for the fast
/// tier ([`crate::config::PrecisionConfig::Fast32`]) — constructed by
/// [`Vmr2lModel::from_f64`] exactly once (checkpoint load /
/// `SharedAgent` construction), forward-only, tolerance-equivalent to
/// the f64 path (see `tests/integration_precision.rs`), not
/// bit-identical.
#[derive(Debug, Clone)]
pub struct Vmr2lModel<S = f64> {
    /// Architecture configuration.
    pub cfg: ModelConfig,
    /// Which feature extractor variant this model uses.
    pub extractor: ExtractorKind,
    vm_embed: Mlp<S>,
    pm_embed: Mlp<S>,
    blocks: Vec<SparseBlock<S>>,
    vm_head: Linear<S>,
    /// Generic per-PM logit head (used by the Full-Mask ablation's joint
    /// action space).
    pm_head: Linear<S>,
    pm_actor: PmActor<S>,
    critic: Mlp<S>,
}

impl Vmr2lModel {
    /// Builds the model. `extractor` must be `SparseAttention` or
    /// `VanillaAttention` (the MLP ablation is a separate type).
    pub fn new(cfg: ModelConfig, extractor: ExtractorKind, rng: &mut impl Rng) -> Self {
        assert!(extractor != ExtractorKind::Mlp, "use ablate::MlpPolicy for the MLP extractor");
        let use_local = extractor == ExtractorKind::SparseAttention;
        let d = cfg.d_model;
        Vmr2lModel {
            vm_embed: Mlp::new("vm_embed", &[VM_FEAT, d, d], false, rng),
            pm_embed: Mlp::new("pm_embed", &[PM_FEAT, d, d], false, rng),
            blocks: (0..cfg.blocks)
                .map(|i| SparseBlock::new(&format!("block{i}"), &cfg, use_local, rng))
                .collect(),
            vm_head: Linear::new("vm_head", d, 1, rng),
            pm_head: Linear::new("pm_head", d, 1, rng),
            pm_actor: PmActor::new("pm_actor", &cfg, rng),
            critic: Mlp::new("critic", &[2 * d, cfg.critic_hidden, 1], false, rng),
            cfg,
            extractor,
        }
    }

    /// Runs feature extraction and the stage-1 heads.
    pub fn stage1(&self, g: &mut Graph, feats: &FeatureTensors) -> Stage1Out {
        let pm_in = g.constant(feats.pm.clone());
        let vm_in = g.constant(feats.vm.clone());
        let mut pm = self.pm_embed.forward(g, pm_in);
        let mut vm = self.vm_embed.forward(g, vm_in);
        let tree_mask =
            (self.extractor == ExtractorKind::SparseAttention).then(|| feats.tree_mask());
        let mut cross_probs = None;
        for block in &self.blocks {
            let out = block.forward(g, pm, vm, tree_mask.as_ref());
            pm = out.pm;
            vm = out.vm;
            cross_probs = Some(out.cross_probs);
        }
        let vm_logits_col = self.vm_head.forward(g, vm); // M × 1
        let vm_logits = g.transpose(vm_logits_col); // 1 × M
        let pm_pool = g.mean_rows(pm);
        let vm_pool = g.mean_rows(vm);
        let pooled = g.hcat(pm_pool, vm_pool);
        let value = self.critic.forward(g, pooled);
        Stage1Out {
            vm_logits,
            pm_embs: pm,
            vm_embs: vm,
            cross_probs: cross_probs.expect("at least one block"),
            value,
        }
    }

    /// Runs the stage-2 PM actor for a selected VM, returning `1 × N`
    /// unmasked logits.
    pub fn stage2(&self, g: &mut Graph, s1: &Stage1Out, vm_idx: usize) -> Var {
        let selected = g.select_rows(s1.vm_embs, &[vm_idx]);
        let score_row = g.select_rows(s1.cross_probs, &[vm_idx]);
        self.pm_actor.forward(g, s1.pm_embs, selected, score_row)
    }

    /// Generic per-PM logits (`1 × N`) for the Full-Mask joint action
    /// space ablation.
    pub fn pm_logits_generic(&self, g: &mut Graph, s1: &Stage1Out) -> Var {
        let col = self.pm_head.forward(g, s1.pm_embs); // N × 1
        g.transpose(col)
    }
}

// ---- tape-free inference path, both precisions -----------------------

impl<S: Scalar> Vmr2lModel<S> {
    /// Casts a trained f64 model, weight by weight (a clone for `f64`).
    pub fn from_f64(m: &Vmr2lModel) -> Self {
        Vmr2lModel {
            cfg: m.cfg,
            extractor: m.extractor,
            vm_embed: Mlp::from_f64(&m.vm_embed),
            pm_embed: Mlp::from_f64(&m.pm_embed),
            blocks: m.blocks.iter().map(SparseBlock::from_f64).collect(),
            vm_head: Linear::from_f64(&m.vm_head),
            pm_head: Linear::from_f64(&m.pm_head),
            pm_actor: PmActor::from_f64(&m.pm_actor),
            critic: Mlp::from_f64(&m.critic),
        }
    }

    /// Runs only the entity embedding networks (the first, purely
    /// row-wise GEMM chain of stage 1) on the tape-free engine. Features
    /// are cast to `S` at the arena boundary.
    pub fn embed_fwd(&self, ctx: &mut FwdCtx<S>, feats: &FeatureTensors) -> (FVar, FVar) {
        let pm_in = ctx.input(&feats.pm);
        let vm_in = ctx.input(&feats.vm);
        (self.pm_embed.fwd(ctx, pm_in), self.vm_embed.fwd(ctx, vm_in))
    }

    /// Continues stage 1 from the entity embeddings:
    /// attention blocks, stage-1 head, and critic. `tree` is required for
    /// the sparse extractor.
    pub fn stage1_from_embeds_fwd(
        &self,
        ctx: &mut FwdCtx<S>,
        pm_emb: FVar,
        vm_emb: FVar,
        tree: Option<&TreeGroups>,
    ) -> Stage1Fwd {
        if self.extractor == ExtractorKind::SparseAttention {
            assert!(tree.is_some(), "sparse extractor needs the tree index");
        }
        let tree = (self.extractor == ExtractorKind::SparseAttention).then_some(tree).flatten();
        // Bit-equal VM rows of one tree stay bit-equal through every block
        // (`vmr_nn::classes`): search once, run the blocks on one row per
        // class, and give every VM its row back after the last block.
        let n = ctx.value(pm_emb).rows();
        ctx.find_row_classes(vm_emb, n, tree);
        let mut pm = pm_emb;
        let mut vm = ctx.class_rows(vm_emb);
        let mut cross_probs = None;
        for (i, block) in self.blocks.iter().enumerate() {
            // Only the last block's cross-attention probabilities are
            // consumed (stage-2 score injection); skip the averaging for
            // earlier blocks.
            let last = i + 1 == self.blocks.len();
            let (p, v, c) = block.fwd(ctx, pm, vm, tree, last);
            pm = p;
            vm = v;
            cross_probs = c.or(cross_probs);
        }
        let vm = ctx.expand_rows(vm);
        let m = ctx.value(vm).rows();
        let vm_logits_col = self.vm_head.fwd(ctx, vm); // M × 1
        let vm_logits = ctx.reshape(vm_logits_col, 1, m);
        let pm_pool = ctx.mean_rows(pm);
        let vm_pool = ctx.mean_rows(vm);
        let pooled = ctx.hcat(pm_pool, vm_pool);
        let value = self.critic.fwd(ctx, pooled);
        Stage1Fwd {
            vm_logits,
            pm_embs: pm,
            vm_embs: vm,
            cross_probs: cross_probs.expect("at least one block"),
            value,
        }
    }

    /// Full tape-free stage 1 (in f64 bit-identical to
    /// [`Vmr2lModel::stage1`]).
    pub fn stage1_fwd(
        &self,
        ctx: &mut FwdCtx<S>,
        feats: &FeatureTensors,
        tree: Option<&TreeGroups>,
    ) -> Stage1Fwd {
        let (pm_emb, vm_emb) = self.embed_fwd(ctx, feats);
        self.stage1_from_embeds_fwd(ctx, pm_emb, vm_emb, tree)
    }

    /// Tape-free stage 2 (in f64 bit-identical to [`Vmr2lModel::stage2`]).
    pub fn stage2_fwd(&self, ctx: &mut FwdCtx<S>, s1: &Stage1Fwd, vm_idx: usize) -> FVar {
        let selected = ctx.select_row(s1.vm_embs, vm_idx);
        let score_row = ctx.select_row(s1.cross_probs, ctx.row_classes().class(vm_idx));
        self.pm_actor.fwd(ctx, s1.pm_embs, selected, score_row)
    }

    /// Tape-free generic per-PM logits (Full-Mask joint action space).
    pub fn pm_logits_generic_fwd(&self, ctx: &mut FwdCtx<S>, s1: &Stage1Fwd) -> FVar {
        let n = ctx.value(s1.pm_embs).rows();
        let col = self.pm_head.fwd(ctx, s1.pm_embs); // N × 1
        ctx.reshape(col, 1, n)
    }
}

impl Module for Vmr2lModel {
    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        self.vm_embed.visit_params(f);
        self.pm_embed.visit_params(f);
        for b in &self.blocks {
            b.visit_params(f);
        }
        self.vm_head.visit_params(f);
        self.pm_head.visit_params(f);
        self.pm_actor.visit_params(f);
        self.critic.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.vm_embed.visit_params_mut(f);
        self.pm_embed.visit_params_mut(f);
        for b in &mut self.blocks {
            b.visit_params_mut(f);
        }
        self.vm_head.visit_params_mut(f);
        self.pm_head.visit_params_mut(f);
        self.pm_actor.visit_params_mut(f);
        self.critic.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig};
    use vmr_sim::obs::Observation;

    fn feats(seed: u64) -> FeatureTensors {
        let state = generate_mapping(&ClusterConfig::tiny(), seed).unwrap();
        let obs = Observation::extract(&state, 16);
        FeatureTensors::from_observation(&obs)
    }

    fn model(kind: ExtractorKind) -> Vmr2lModel {
        let mut rng = StdRng::seed_from_u64(0);
        Vmr2lModel::new(
            ModelConfig { d_model: 16, heads: 2, blocks: 2, d_ff: 32, critic_hidden: 16 },
            kind,
            &mut rng,
        )
    }

    #[test]
    fn stage1_shapes() {
        let m = model(ExtractorKind::SparseAttention);
        let f = feats(1);
        let mut g = Graph::new();
        let s1 = m.stage1(&mut g, &f);
        assert_eq!(g.value(s1.vm_logits).rows(), 1);
        assert_eq!(g.value(s1.vm_logits).cols(), f.num_vms);
        assert_eq!(g.value(s1.pm_embs).rows(), f.num_pms);
        assert_eq!(g.value(s1.vm_embs).rows(), f.num_vms);
        assert_eq!(
            (g.value(s1.cross_probs).rows(), g.value(s1.cross_probs).cols()),
            (f.num_vms, f.num_pms)
        );
        assert_eq!((g.value(s1.value).rows(), g.value(s1.value).cols()), (1, 1));
    }

    #[test]
    fn stage2_shapes() {
        let m = model(ExtractorKind::SparseAttention);
        let f = feats(2);
        let mut g = Graph::new();
        let s1 = m.stage1(&mut g, &f);
        let logits = m.stage2(&mut g, &s1, 0);
        assert_eq!(g.value(logits).rows(), 1);
        assert_eq!(g.value(logits).cols(), f.num_pms);
        let generic = m.pm_logits_generic(&mut g, &s1);
        assert_eq!(g.value(generic).cols(), f.num_pms);
    }

    #[test]
    fn param_count_independent_of_cluster_size() {
        // Same weights serve both a tiny and a bigger cluster.
        let m = model(ExtractorKind::SparseAttention);
        let count = m.num_params();
        let f_small = feats(3);
        let bigger = generate_mapping(
            &ClusterConfig {
                pm_groups: vec![vmr_sim::dataset::PmGroup {
                    count: 12,
                    cpu_per_numa: 44,
                    mem_per_numa: 128,
                }],
                ..ClusterConfig::tiny()
            },
            3,
        )
        .unwrap();
        let f_big = FeatureTensors::from_observation(&Observation::extract(&bigger, 16));
        let mut g = Graph::new();
        let _ = m.stage1(&mut g, &f_small);
        let _ = m.stage1(&mut g, &f_big);
        assert_eq!(m.num_params(), count, "params must not depend on input size");
        assert!(count < 100_000, "model should be small (paper: <2MB ckpt)");
    }

    #[test]
    fn vanilla_has_fewer_params_than_sparse() {
        let sparse = model(ExtractorKind::SparseAttention);
        let vanilla = model(ExtractorKind::VanillaAttention);
        assert!(vanilla.num_params() < sparse.num_params());
    }

    #[test]
    fn gradients_reach_embedding_networks() {
        let m = model(ExtractorKind::SparseAttention);
        let f = feats(4);
        let mut g = Graph::new();
        let s1 = m.stage1(&mut g, &f);
        let logits2 = m.stage2(&mut g, &s1, 1);
        let joined = g.hcat(s1.vm_logits, logits2);
        let sq = g.square(joined);
        let partial = g.mean_all(sq);
        let vsq = g.square(s1.value);
        let loss = g.add(partial, vsq);
        g.backward(loss);
        let grads = g.param_grads();
        for name in [
            "vm_embed.l0.w",
            "pm_embed.l0.w",
            "vm_head.w",
            "pm_actor.out.w",
            "critic.l0.w",
            "block0.local.wq.w",
        ] {
            let gr = grads.get(name).unwrap_or_else(|| panic!("no grad for {name}"));
            assert!(gr.norm() > 0.0, "zero grad for {name}");
        }
    }

    #[test]
    fn f32_stage1_tracks_f64_within_tolerance() {
        use crate::features::TreeIndex;
        let m = model(ExtractorKind::SparseAttention);
        let m32 = Vmr2lModel::<f32>::from_f64(&m);
        let f = feats(6);
        let mut tree = TreeIndex::default();
        tree.rebuild(&f);

        let mut ctx = FwdCtx::new();
        let s64 = m.stage1_fwd(&mut ctx, &f, Some(&tree.groups));
        let mut ctx32 = FwdCtx::<f32>::new();
        let s32 = m32.stage1_fwd(&mut ctx32, &f, Some(&tree.groups));

        let l64 = ctx.value(s64.vm_logits).data();
        let l32 = ctx32.value(s32.vm_logits).data();
        assert_eq!(l64.len(), l32.len());
        for (a, &b) in l32.iter().zip(l64) {
            assert!((f64::from(*a) - b).abs() < 1e-3, "vm logit f32 {a} vs f64 {b}");
        }
        let v64 = ctx.value(s64.value).get(0, 0);
        let v32 = ctx32.value(s32.value).get(0, 0);
        assert!((f64::from(v32) - v64).abs() < 1e-3, "value f32 {v32} vs f64 {v64}");
    }

    #[test]
    fn forward_is_deterministic() {
        let m = model(ExtractorKind::SparseAttention);
        let f = feats(5);
        let run = || {
            let mut g = Graph::new();
            let s1 = m.stage1(&mut g, &f);
            g.value(s1.vm_logits).data().to_vec()
        };
        assert_eq!(run(), run());
    }
}
