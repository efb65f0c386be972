//! End-to-end precision equivalence: the f32/SIMD fast path must produce
//! plans equivalent to the f64 exact path — on a freshly *trained*
//! checkpoint (not just random init), through both offline evaluators,
//! and over the wire through the serving daemon's `precision` field.
//!
//! "Equivalent" is the tolerance contract from `vmr_nn::kernels`:
//! the f32 path feeds its logits through an f64-emitting softmax into
//! the *same* sampling stack, so with the evaluators' fixed seeds the
//! decision sequence is expected to match the f64 path exactly unless a
//! probability lands within the kernel tolerance of a sampling
//! threshold — which these fixed seeds do not. The suite therefore
//! asserts plan identity (the strongest form of equivalence) plus
//! legality of every served migration.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::agent::Vmr2lAgent;
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig, PrecisionConfig};
use vmr_core::eval::{greedy_eval, risk_seeking_eval, RiskSeekingConfig};
use vmr_core::infer::SharedAgent;
use vmr_core::model::Vmr2lModel;
use vmr_core::train::{TrainConfig, Trainer};
use vmr_rl::ppo::PpoConfig;
use vmr_serve::client::ServeClient;
use vmr_serve::proto::{PlanParams, Planned, SessionSnapshot};
use vmr_serve::server::{serve, ServerConfig};
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::objective::Objective;
use vmr_sim::types::{PmId, VmId};

fn small_cfg() -> ClusterConfig {
    ClusterConfig {
        pm_groups: vec![PmGroup { count: 5, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 40,
        ..ClusterConfig::tiny()
    }
}

/// Trains a tiny agent for two PPO updates so the weights are shaped by
/// real gradients — cast error on trained weights, not just init noise.
fn trained_agent() -> Vmr2lAgent<Vmr2lModel> {
    let mappings: Vec<_> = (0..3).map(|i| generate_mapping(&small_cfg(), i).unwrap()).collect();
    let mut rng = StdRng::seed_from_u64(7);
    let model = Vmr2lModel::new(
        ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 },
        ExtractorKind::SparseAttention,
        &mut rng,
    );
    let agent = Vmr2lAgent::new(model, ActionMode::TwoStage);
    let cfg = TrainConfig {
        ppo: PpoConfig { rollout_steps: 16, minibatch_size: 8, epochs: 1, ..Default::default() },
        mnl: 3,
        updates: 2,
        eval_every: 0,
        ..Default::default()
    };
    let mut trainer = Trainer::new(agent, mappings.clone(), vec![], cfg).unwrap();
    trainer.train(|_| {}).unwrap();
    trainer.into_agent()
}

#[test]
fn trained_checkpoint_plans_identically_across_precisions() {
    let agent = trained_agent();
    let agent32 = agent.cast::<f32>();
    let state = generate_mapping(&small_cfg(), 99).unwrap();
    let cs = ConstraintSet::new(state.num_vms());

    // Greedy (deterministic argmax) — plans must be identical.
    let (fr64, plan64) = greedy_eval(&agent, &state, &cs, Objective::default(), 4).unwrap();
    let (fr32, plan32) = greedy_eval(&agent32, &state, &cs, Objective::default(), 4).unwrap();
    assert_eq!(plan64, plan32, "greedy f32 plan must match f64 on a trained checkpoint");
    assert!((fr64 - fr32).abs() < 1e-9, "greedy objectives diverge: {fr64} vs {fr32}");

    // Replay legality of the f32 plan on a fresh copy of the state.
    let mut replay = state.clone();
    for a in &plan32 {
        replay.migrate(a.vm, a.pm, 16).expect("f32 plan must replay legally");
    }
    assert!((replay.fragment_rate(16) - fr32).abs() < 1e-12);

    // Risk-seeking sampling: same seeds, f64-emitted probabilities →
    // the sampled trajectories coincide too.
    let cfg = RiskSeekingConfig { trajectories: 4, seed: 3, ..Default::default() };
    let rs64 = risk_seeking_eval(&agent, &state, &cs, Objective::default(), 4, &cfg).unwrap();
    let rs32 = risk_seeking_eval(&agent32, &state, &cs, Objective::default(), 4, &cfg).unwrap();
    assert_eq!(rs64.best_plan, rs32.best_plan, "risk-seeking best plans must coincide");
    assert!((rs64.best_objective - rs32.best_objective).abs() < 1e-9);
    for (o64, o32) in rs64.all_objectives.iter().zip(&rs32.all_objectives) {
        assert!((o64 - o32).abs() < 1e-9, "trajectory objectives diverge: {o64} vs {o32}");
    }
}

/// Replays a served plan against the snapshot it was computed on.
fn assert_plan_legal(snapshot: &SessionSnapshot, planned: &Planned) {
    let mut state = snapshot.state.clone();
    for step in &planned.plan {
        let (vm, pm) = (VmId(step.vm), PmId(step.to_pm));
        snapshot.constraints.migration_legal(&state, vm, pm).unwrap_or_else(|e| {
            panic!("served migration VM{} -> PM{} illegal: {e}", step.vm, step.to_pm)
        });
        state.migrate(vm, pm, 16).expect("legal move applies");
    }
    assert!((state.fragment_rate(16) - planned.objective_after).abs() < 1e-9);
}

#[test]
fn served_plans_honor_the_precision_field() {
    let mut rng = StdRng::seed_from_u64(0);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    let shared = SharedAgent::new(Vmr2lAgent::new(model, ActionMode::TwoStage));
    let handle =
        serve(ServerConfig { threads: 2, agent: Some(shared), ..Default::default() }).unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    client.create_session("px", "tiny", 5, 6).unwrap();
    let snap = client.snapshot("px").unwrap().snapshot;

    let params = |precision| PlanParams {
        session: "px".into(),
        policy: "agent".into(),
        mnl: 4,
        seed: 11,
        budget_ms: 200,
        shards: 0,
        workers: 0,
        precision,
        commit: false,
    };

    // Both precisions serve legal plans against the same state...
    let p64 = client.plan(params(PrecisionConfig::Exact64)).expect("f64 plan");
    let p32 = client.plan(params(PrecisionConfig::Fast32)).expect("f32 plan");
    assert_plan_legal(&snap, &p64);
    assert_plan_legal(&snap, &p32);
    assert!(p32.objective_after <= p32.objective_before + 1e-12);

    // ...and at this scale the f32 plan coincides with the f64 one
    // (greedy-equivalent sampling from f64-emitted probabilities).
    assert_eq!(p64.plan, p32.plan, "served f32 plan must match f64 at tiny scale");

    // A repeat at the same state version is answered from the coalescing
    // cache — which is keyed by precision, so each lane stays coherent.
    let again = client.plan(params(PrecisionConfig::Fast32)).expect("repeat f32 plan");
    assert_eq!(again.plan, p32.plan, "memoized f32 plan must be stable");
    handle.shutdown();
}
