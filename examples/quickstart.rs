//! Quickstart: generate a cluster snapshot, train a small VMR2L agent for
//! a few PPO updates, and deploy its best rescheduling plan.
//!
//! Run with:
//! ```text
//! cargo run --release -p vmr-e2e --example quickstart
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

fn main() {
    // 1. A small cluster: 10 PMs, best-fit filled and churned so that
    //    CPU fragments are scattered around (the paper's setting).
    let cluster_cfg = ClusterConfig {
        pm_groups: vec![PmGroup { count: 10, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 80,
        ..ClusterConfig::tiny()
    };
    let mappings: Vec<_> = (0..4)
        .map(|seed| generate_mapping(&cluster_cfg, seed).expect("generate mapping"))
        .collect();
    println!(
        "cluster: {} PMs, {} VMs, initial 16-core fragment rate {:.4}",
        mappings[0].num_pms(),
        mappings[0].num_vms(),
        mappings[0].fragment_rate(16)
    );

    // 2. Build the VMR2L agent: sparse tree-attention extractor + the
    //    two-stage action framework.
    let mut rng = StdRng::seed_from_u64(0);
    let model = Vmr2lModel::new(
        ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 32, critic_hidden: 16 },
        ExtractorKind::SparseAttention,
        &mut rng,
    );
    let agent = Vmr2lAgent::new(model, ActionMode::TwoStage);

    // 3. Train with PPO against the deterministic simulator.
    let train_cfg = TrainConfig {
        ppo: PpoConfig { rollout_steps: 48, minibatch_size: 12, epochs: 2, ..Default::default() },
        mnl: 5,
        updates: 10,
        eval_every: 5,
        eval_episodes: 2,
        ..Default::default()
    };
    let mut trainer =
        Trainer::new(agent, mappings[..3].to_vec(), mappings[3..].to_vec(), train_cfg)
            .expect("trainer");
    trainer
        .train(|s| {
            println!(
                "update {:>2}: mean reward/step {:+.4}{}",
                s.update,
                s.mean_reward,
                if s.eval_objective.is_nan() {
                    String::new()
                } else {
                    format!("  test FR {:.4}", s.eval_objective)
                }
            );
        })
        .expect("training");
    let agent = trainer.into_agent();

    // 4. Risk-seeking evaluation: sample 8 trajectories in the simulator
    //    with quantile action-thresholding, deploy only the best plan.
    let target = &mappings[3];
    let cs = ConstraintSet::new(target.num_vms());
    let outcome = risk_seeking_eval(
        &agent,
        target,
        &cs,
        Objective::default(),
        5,
        &RiskSeekingConfig { trajectories: 8, seed: 7, ..Default::default() },
    )
    .expect("risk-seeking evaluation");
    println!(
        "\nrisk-seeking over {} trajectories: best FR {:.4} (initial {:.4})",
        outcome.all_objectives.len(),
        outcome.best_objective,
        target.fragment_rate(16)
    );
    println!("deploy plan ({} migrations):", outcome.best_plan.len());
    for (i, a) in outcome.best_plan.iter().enumerate() {
        let src = target.placement(a.vm).pm;
        println!("  {i}: VM{} ({} cores) PM{} -> PM{}", a.vm.0, target.vm(a.vm).cpu, src.0, a.pm.0);
    }
}
