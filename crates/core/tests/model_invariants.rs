//! Cross-module invariants of the VMR2L model and agent.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::agent::{DecideOpts, InferCtx, Vmr2lAgent};
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::features::FeatureTensors;
use vmr_core::model::Vmr2lModel;
use vmr_nn::checkpoint::Checkpoint;
use vmr_nn::graph::Graph;
use vmr_nn::layers::Module;
use vmr_sim::dataset::{generate_mapping, ClusterConfig};
use vmr_sim::env::ReschedEnv;
use vmr_sim::objective::Objective;
use vmr_sim::obs::Observation;

fn cfg() -> ModelConfig {
    ModelConfig { d_model: 16, heads: 2, blocks: 2, d_ff: 24, critic_hidden: 12 }
}

#[test]
fn checkpoint_stays_small_like_paper() {
    // Paper §4: the saved checkpoint is < 2 MB. Ours is much smaller but
    // must stay well under that bound even as JSON.
    let mut rng = StdRng::seed_from_u64(0);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    let ckpt = Checkpoint::capture(&model);
    let json = serde_json::to_string(&ckpt).unwrap();
    assert!(
        json.len() < 2 * 1024 * 1024,
        "checkpoint {} bytes exceeds the paper's 2 MB budget",
        json.len()
    );
    assert!(model.num_params() > 1000, "model suspiciously tiny");
}

#[test]
fn stage1_logits_change_after_migration() {
    // The featurization must actually reflect state changes.
    let mut rng = StdRng::seed_from_u64(1);
    let model = Vmr2lModel::new(cfg(), ExtractorKind::SparseAttention, &mut rng);
    let state = generate_mapping(&ClusterConfig::tiny(), 3).unwrap();
    let mut env = ReschedEnv::unconstrained(state, Objective::default(), 4).unwrap();
    let logits = |env: &ReschedEnv| {
        let obs = Observation::extract(env.state(), 16);
        let feats = FeatureTensors::from_observation(&obs);
        let mut g = Graph::new();
        let s1 = model.stage1(&mut g, &feats);
        g.value(s1.vm_logits).data().to_vec()
    };
    let before = logits(&env);
    let agent = Vmr2lAgent::new(model.clone(), ActionMode::TwoStage);
    let d = agent
        .act(&mut env, &mut InferCtx::new(), &mut rng, &DecideOpts::default())
        .unwrap()
        .unwrap();
    env.step(d.action).unwrap();
    let after = logits(&env);
    assert_ne!(before, after, "state change must alter the policy's view");
}

#[test]
fn vanilla_and_sparse_share_non_local_parameter_names() {
    // The vanilla ablation is the same architecture minus the tree stage;
    // every vanilla parameter name must exist in the sparse model so that
    // comparisons are apples-to-apples.
    let mut rng = StdRng::seed_from_u64(2);
    let sparse = Vmr2lModel::new(cfg(), ExtractorKind::SparseAttention, &mut rng);
    let vanilla = Vmr2lModel::new(cfg(), ExtractorKind::VanillaAttention, &mut rng);
    let mut sparse_names = std::collections::HashSet::new();
    sparse.visit_params(&mut |n, _| {
        sparse_names.insert(n.to_string());
    });
    let mut missing = Vec::new();
    vanilla.visit_params(&mut |n, _| {
        if !sparse_names.contains(n) {
            missing.push(n.to_string());
        }
    });
    assert!(missing.is_empty(), "vanilla-only parameters: {missing:?}");
}

#[test]
fn decide_is_pure_with_respect_to_env() {
    // act() must not mutate the environment's episode state (it may
    // warm the internal featurization cache, but never the cluster).
    let mut rng = StdRng::seed_from_u64(3);
    let model = Vmr2lModel::new(cfg(), ExtractorKind::SparseAttention, &mut rng);
    let agent = Vmr2lAgent::new(model, ActionMode::TwoStage);
    let state = generate_mapping(&ClusterConfig::tiny(), 5).unwrap();
    let mut env = ReschedEnv::unconstrained(state, Objective::default(), 4).unwrap();
    let fr_before = env.objective_value();
    let steps_before = env.steps_taken();
    let mut ictx = InferCtx::new();
    for seed in 0..4u64 {
        let mut r = StdRng::seed_from_u64(seed);
        let _ = agent.act(&mut env, &mut ictx, &mut r, &DecideOpts::default()).unwrap();
    }
    assert_eq!(env.steps_taken(), steps_before);
    assert!((env.objective_value() - fr_before).abs() < 1e-15);
}

#[test]
fn untrained_policy_is_not_collapsed() {
    // A freshly-initialized policy over a fragmented cluster should be
    // fairly spread out: entropy of the VM distribution within an order
    // of magnitude of uniform.
    let mut rng = StdRng::seed_from_u64(4);
    let model = Vmr2lModel::new(cfg(), ExtractorKind::SparseAttention, &mut rng);
    let agent = Vmr2lAgent::new(model, ActionMode::TwoStage);
    let state = generate_mapping(&ClusterConfig::tiny(), 6).unwrap();
    let mut env = ReschedEnv::unconstrained(state, Objective::default(), 4).unwrap();
    let d = agent
        .decide_in(&mut env, &mut InferCtx::new(), &mut rng, &DecideOpts::default())
        .unwrap()
        .unwrap();
    let m = d.vm_probs.len() as f64;
    let entropy: f64 = d.vm_probs.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum();
    assert!(
        entropy > m.ln() * 0.3,
        "untrained policy collapsed: entropy {entropy:.3} vs uniform {:.3}",
        m.ln()
    );
}
