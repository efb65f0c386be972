//! Adapting a trained agent to a shifted workload (§7 of the paper):
//! pretrain on a low-utilization cluster, then adapt to high utilization
//! with top-layer fine-tuning (frozen extractor) and compare against
//! zero-shot deployment.
//!
//! Run with:
//! ```text
//! cargo run --release -p vmr-e2e --example finetune_adaptation
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::agent::Vmr2lAgent;
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::eval::greedy_eval;
use vmr_core::model::Vmr2lModel;
use vmr_core::train::{TrainConfig, Trainer};
use vmr_rl::ppo::PpoConfig;
use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::objective::Objective;

fn cluster(util: f64, seed_base: u64, n: usize) -> Vec<ClusterState> {
    let cfg = ClusterConfig {
        pm_groups: vec![PmGroup { count: 8, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 60,
        target_util: util,
        ..ClusterConfig::tiny()
    };
    (0..n).map(|i| generate_mapping(&cfg, seed_base + i as u64).expect("mapping")).collect()
}

fn eval_fr(agent: &Vmr2lAgent<Vmr2lModel>, states: &[ClusterState]) -> f64 {
    let mut total = 0.0;
    for s in states {
        let cs = ConstraintSet::new(s.num_vms());
        total += greedy_eval(agent, s, &cs, Objective::default(), 5).expect("eval").0;
    }
    total / states.len() as f64
}

fn main() {
    let low = cluster(0.55, 0, 4);
    let high_train = cluster(0.85, 100, 3);
    let high_eval = cluster(0.85, 200, 2);

    // 1. Pretrain on the low-utilization distribution.
    let mut rng = StdRng::seed_from_u64(1);
    let model = Vmr2lModel::new(
        ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 32, critic_hidden: 16 },
        ExtractorKind::SparseAttention,
        &mut rng,
    );
    let agent = Vmr2lAgent::new(model, ActionMode::TwoStage);
    let base_cfg = TrainConfig {
        ppo: PpoConfig { rollout_steps: 48, minibatch_size: 12, epochs: 2, ..Default::default() },
        mnl: 5,
        updates: 8,
        eval_every: 0,
        ..Default::default()
    };
    let mut pretrainer = Trainer::new(agent, low, vec![], base_cfg).expect("trainer");
    pretrainer
        .train(|s| println!("pretrain update {:>2}: reward {:+.4}", s.update, s.mean_reward))
        .expect("pretrain");
    let pretrained = pretrainer.into_agent();
    println!("\nzero-shot FR on high workload: {:.4}", eval_fr(&pretrained, &high_eval));

    // 2. Top-layer fine-tuning: freeze the shared embedding networks and
    //    attention blocks, adapt only the actor/critic heads.
    let adapt_cfg = TrainConfig { updates: 3, ..base_cfg };
    let mut tuner =
        Trainer::new(pretrained.clone(), high_train, vec![], adapt_cfg).expect("trainer");
    tuner.freeze_prefixes(&["vm_embed", "pm_embed", "block"]);
    tuner
        .train(|s| println!("finetune update {:>2}: reward {:+.4}", s.update, s.mean_reward))
        .expect("finetune");
    let tuned = tuner.into_agent();
    println!("top-layer fine-tuned FR on high workload: {:.4}", eval_fr(&tuned, &high_eval));
}
