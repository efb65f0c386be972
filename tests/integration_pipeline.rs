//! End-to-end integration: dataset generation → PPO training → greedy and
//! risk-seeking evaluation → plan deployment, across crates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::agent::{DecideOpts, InferCtx, Vmr2lAgent};
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::eval::{greedy_eval, risk_seeking_eval, RiskSeekingConfig};
use vmr_core::model::Vmr2lModel;
use vmr_core::train::{TrainConfig, Trainer};
use vmr_nn::checkpoint::Checkpoint;
use vmr_rl::ppo::PpoConfig;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::env::ReschedEnv;
use vmr_sim::objective::Objective;

fn small_cfg() -> ClusterConfig {
    ClusterConfig {
        pm_groups: vec![PmGroup { count: 5, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 40,
        ..ClusterConfig::tiny()
    }
}

fn tiny_model() -> ModelConfig {
    ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 }
}

fn tiny_train() -> TrainConfig {
    TrainConfig {
        ppo: PpoConfig { rollout_steps: 16, minibatch_size: 8, epochs: 1, ..Default::default() },
        mnl: 3,
        updates: 2,
        eval_every: 0,
        ..Default::default()
    }
}

#[test]
fn train_then_eval_pipeline() {
    let mappings: Vec<_> = (0..3).map(|i| generate_mapping(&small_cfg(), i).unwrap()).collect();
    let mut rng = StdRng::seed_from_u64(0);
    let agent = Vmr2lAgent::new(
        Vmr2lModel::new(tiny_model(), ExtractorKind::SparseAttention, &mut rng),
        ActionMode::TwoStage,
    );
    let mut trainer =
        Trainer::new(agent, mappings.clone(), vec![mappings[0].clone()], tiny_train()).unwrap();
    let history = trainer.train(|_| {}).unwrap();
    assert_eq!(history.len(), 2);
    let agent = trainer.into_agent();

    // Greedy eval produces a legal, replayable plan.
    let cs = ConstraintSet::new(mappings[0].num_vms());
    let (fr, plan) = greedy_eval(&agent, &mappings[0], &cs, Objective::default(), 3).unwrap();
    let mut replay = mappings[0].clone();
    for a in &plan {
        replay.migrate(a.vm, a.pm, 16).unwrap();
    }
    assert!((replay.fragment_rate(16) - fr).abs() < 1e-12);

    // Risk-seeking beats-or-matches greedy argmax on its own samples.
    let rs = risk_seeking_eval(
        &agent,
        &mappings[0],
        &cs,
        Objective::default(),
        3,
        &RiskSeekingConfig { trajectories: 4, seed: 1, ..Default::default() },
    )
    .unwrap();
    assert_eq!(rs.all_objectives.len(), 4);
    assert!(
        rs.best_objective
            <= rs.all_objectives.iter().cloned().fold(f64::INFINITY, f64::min) + 1e-12
    );
}

#[test]
fn checkpoint_roundtrip_preserves_policy_outputs() {
    let mapping = generate_mapping(&small_cfg(), 9).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let agent = Vmr2lAgent::new(
        Vmr2lModel::new(tiny_model(), ExtractorKind::SparseAttention, &mut rng),
        ActionMode::TwoStage,
    );
    let ckpt = Checkpoint::capture(&agent.policy);
    let mut rng2 = StdRng::seed_from_u64(2);
    let mut clone_agent = Vmr2lAgent::new(
        Vmr2lModel::new(tiny_model(), ExtractorKind::SparseAttention, &mut rng2),
        ActionMode::TwoStage,
    );
    ckpt.restore(&mut clone_agent.policy).unwrap();
    let mut env = ReschedEnv::unconstrained(mapping, Objective::default(), 3).unwrap();
    let opts = DecideOpts { greedy: true, ..Default::default() };
    let mut r1 = StdRng::seed_from_u64(3);
    let mut r2 = StdRng::seed_from_u64(3);
    let mut ictx = InferCtx::new();
    let d1 = agent.act(&mut env, &mut ictx, &mut r1, &opts).unwrap().unwrap();
    let d2 = clone_agent.act(&mut env, &mut ictx, &mut r2, &opts).unwrap().unwrap();
    assert_eq!(d1.action, d2.action);
    assert!((d1.value - d2.value).abs() < 1e-12);
}

#[test]
fn training_with_affinity_constraints_stays_legal() {
    let mappings: Vec<_> =
        (0..2).map(|i| generate_mapping(&small_cfg(), 20 + i).unwrap()).collect();
    let constraints: Vec<_> = mappings
        .iter()
        .map(|m| {
            let mut cs = ConstraintSet::new(m.num_vms());
            // Conflict the first few VMs pairwise.
            let ids: Vec<_> = (0..m.num_vms().min(4) as u32).map(vmr_sim::types::VmId).collect();
            cs.add_conflict_group(&ids).unwrap();
            cs
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(4);
    let agent = Vmr2lAgent::new(
        Vmr2lModel::new(tiny_model(), ExtractorKind::SparseAttention, &mut rng),
        ActionMode::TwoStage,
    );
    let mut trainer =
        Trainer::with_constraints(agent, mappings, vec![], constraints, tiny_train()).unwrap();
    // Two-stage masking means training never submits an illegal action —
    // the trainer would error out otherwise.
    trainer.train(|_| {}).unwrap();
}

#[test]
fn objective_variants_all_trainable() {
    let mappings: Vec<_> =
        (0..2).map(|i| generate_mapping(&small_cfg(), 30 + i).unwrap()).collect();
    for objective in [
        Objective::FragRate { cores: 16 },
        Objective::MixedVmType { lambda: 0.5, small_cores: 16, large_cores: 64 },
        Objective::MixedResource { lambda: 0.5, cpu_cores: 16, mem_gib: 64 },
        Objective::MnlToGoal { fr_goal: 0.2, cores: 16 },
    ] {
        let mut rng = StdRng::seed_from_u64(5);
        let agent = Vmr2lAgent::new(
            Vmr2lModel::new(tiny_model(), ExtractorKind::SparseAttention, &mut rng),
            ActionMode::TwoStage,
        );
        let cfg = TrainConfig { objective, updates: 1, ..tiny_train() };
        let mut trainer = Trainer::new(agent, mappings.clone(), vec![], cfg).unwrap();
        let h = trainer.train(|_| {}).unwrap();
        assert!(h[0].ppo.loss.is_finite(), "{objective:?} produced a non-finite loss");
    }
}
