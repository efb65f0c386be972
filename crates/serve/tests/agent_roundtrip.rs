//! Checkpoint round-trip serving: train a tiny agent, save it, load it in
//! the daemon, and assert the plan served over the wire is identical to
//! the plan the in-process `Vmr2lAgent::act` loop produces on the same
//! state with the same seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vmr_core::agent::{DecideOpts, InferCtx, Vmr2lAgent};
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig, PrecisionConfig};
use vmr_core::infer::{load_checkpoint_agent, SharedAgent};
use vmr_core::model::Vmr2lModel;
use vmr_core::train::{TrainConfig, Trainer};
use vmr_nn::checkpoint::Checkpoint;
use vmr_serve::proto::PlanParams;
use vmr_serve::server::{serve, ServerConfig};
use vmr_serve::ServeClient;
use vmr_sim::dataset::{generate_mapping, ClusterConfig};
use vmr_sim::env::ReschedEnv;
use vmr_sim::objective::Objective;
use vmr_sim::ConstraintSet;

const PRESET_SEED: u64 = 21;
const PLAN_SEED: u64 = 7;
const MNL: usize = 6;

/// Trains a few PPO steps on the tiny cluster and saves a checkpoint.
fn train_tiny_checkpoint(path: &std::path::Path) {
    let mut rng = StdRng::seed_from_u64(5);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    let agent = Vmr2lAgent::new(model, ActionMode::TwoStage);
    let mut cfg = TrainConfig { updates: 1, mnl: 4, seed: 5, eval_every: 0, ..Default::default() };
    cfg.ppo.rollout_steps = 16;
    cfg.ppo.minibatch_size = 8;
    cfg.ppo.epochs = 1;
    let train: Vec<_> =
        (0..2).map(|i| generate_mapping(&ClusterConfig::tiny(), i).unwrap()).collect();
    let eval = train.clone();
    let mut trainer = Trainer::new(agent, train, eval, cfg).unwrap();
    trainer.train(|_| {}).unwrap();
    let agent = trainer.into_agent();
    Checkpoint::capture(&agent.policy).save(path).unwrap();
}

#[test]
fn served_plan_matches_in_process_decide() {
    let dir = std::env::temp_dir().join("vmr_serve_agent_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt_path = dir.join("agent.json");
    train_tiny_checkpoint(&ckpt_path);

    // Daemon side: load the checkpoint and serve a plan.
    let agent = SharedAgent::load(&ckpt_path).expect("checkpoint loads");
    let handle =
        serve(ServerConfig { threads: 2, agent: Some(agent), ..Default::default() }).unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    client.create_session("rt", "tiny", PRESET_SEED, MNL).unwrap();
    let served = client
        .plan(PlanParams {
            session: "rt".into(),
            policy: "agent".into(),
            mnl: MNL,
            seed: PLAN_SEED,
            budget_ms: 0,
            shards: 0,
            workers: 0,
            precision: PrecisionConfig::Exact64,
            commit: false,
        })
        .unwrap();
    handle.shutdown();

    // In-process side: identical state, checkpoint, and seed.
    let agent = load_checkpoint_agent(&ckpt_path).expect("checkpoint loads");
    let state = generate_mapping(&ClusterConfig::tiny(), PRESET_SEED).unwrap();
    let constraints = ConstraintSet::new(state.num_vms());
    let mut env = ReschedEnv::new(state, constraints, Objective::default(), MNL).unwrap();
    let mut rng = StdRng::seed_from_u64(PLAN_SEED);
    let opts = DecideOpts::default();
    let mut ictx = InferCtx::new();
    let mut local = Vec::new();
    while !env.is_done() {
        let Some(decision) = agent.act(&mut env, &mut ictx, &mut rng, &opts).unwrap() else {
            break;
        };
        env.step(decision.action).unwrap();
        local.push(decision.action);
    }

    assert_eq!(served.plan.len(), local.len(), "plan lengths must match");
    for (wire, action) in served.plan.iter().zip(local.iter()) {
        assert_eq!(wire.vm, action.vm.0);
        assert_eq!(wire.to_pm, action.pm.0);
    }
    assert!(
        (served.objective_after - env.objective_value()).abs() < 1e-12,
        "served objective {} vs in-process {}",
        served.objective_after,
        env.objective_value()
    );
}
