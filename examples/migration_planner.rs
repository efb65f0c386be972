//! Migration planner: side-by-side comparison of every rescheduling
//! method in this repository on one cluster snapshot — the "operator view"
//! of Fig. 9. Useful as a template for plugging your own mappings in.
//!
//! Run with:
//! ```text
//! cargo run --release -p vmr-e2e --example migration_planner
//! ```

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_baselines::ha::ha_solve;
use vmr_baselines::mcts::{mcts_solve, MctsConfig};
use vmr_baselines::swap::swap_search_solve;
use vmr_baselines::vbpp::vbpp_solve;
use vmr_core::agent::Vmr2lAgent;
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::eval::{risk_seeking_eval, RiskSeekingConfig};
use vmr_core::model::Vmr2lModel;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::objective::Objective;
use vmr_solver::bnb::{branch_and_bound, SolverConfig};
use vmr_solver::pop::{pop_solve, PopConfig};

const MNL: usize = 6;

fn main() {
    let cfg = ClusterConfig {
        pm_groups: vec![PmGroup { count: 10, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 90,
        ..ClusterConfig::tiny()
    };
    let state = generate_mapping(&cfg, 5).expect("mapping");
    let cs = ConstraintSet::new(state.num_vms());
    let obj = Objective::default();
    println!(
        "snapshot: {} PMs / {} VMs, initial FR {:.4}, MNL {MNL}\n",
        state.num_pms(),
        state.num_vms(),
        obj.value(&state)
    );
    println!("{:<22} {:>8} {:>10} {:>6}", "method", "FR", "time", "moves");
    println!("{}", "-".repeat(50));

    let r = ha_solve(&state, &cs, obj, MNL);
    row("HA (filter+score)", r.objective, r.elapsed, r.plan.len());

    let r = vbpp_solve(&state, &cs, obj, MNL, 3);
    row("alpha-VBPP", r.objective, r.elapsed, r.plan.len());

    let r = branch_and_bound(
        &state,
        &cs,
        obj,
        MNL,
        &SolverConfig {
            time_limit: Duration::from_secs(2),
            beam_width: Some(24),
            ..Default::default()
        },
    );
    row("B&B (MIP stand-in)", r.objective, r.elapsed, r.plan.len());

    let r = pop_solve(
        &state,
        &cs,
        obj,
        MNL,
        &PopConfig {
            partitions: 3,
            sub: SolverConfig {
                time_limit: Duration::from_secs(1),
                beam_width: Some(12),
                ..Default::default()
            },
            seed: 0,
        },
    );
    row("POP (3 partitions)", r.objective, r.elapsed, r.plan.len());

    let r = mcts_solve(
        &state,
        &cs,
        obj,
        MNL,
        &MctsConfig {
            rollouts_per_step: 24,
            branch_cap: 8,
            time_limit: Duration::from_secs(2),
            ..Default::default()
        },
    );
    row("MCTS", r.objective, r.elapsed, r.plan.len());

    let r = swap_search_solve(&state, &cs, obj, MNL, &Default::default());
    row("swap local search", r.objective, r.elapsed, r.migrations_used);

    // VMR2L (untrained weights here — run the quickstart to see training;
    // risk-seeking still exploits simulator determinism across samples).
    let mut rng = StdRng::seed_from_u64(0);
    let agent = Vmr2lAgent::new(
        Vmr2lModel::new(
            ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 32, critic_hidden: 16 },
            ExtractorKind::SparseAttention,
            &mut rng,
        ),
        ActionMode::TwoStage,
    );
    let r = risk_seeking_eval(
        &agent,
        &state,
        &cs,
        obj,
        MNL,
        &RiskSeekingConfig { trajectories: 16, seed: 3, ..Default::default() },
    )
    .expect("risk-seeking");
    row("VMR2L (16 samples)", r.best_objective, r.elapsed, r.best_plan.len());

    println!("\nbest plan from VMR2L:");
    for (i, a) in r.best_plan.iter().enumerate() {
        println!(
            "  {i}: move VM{} ({} cores) from PM{} to PM{}",
            a.vm.0,
            state.vm(a.vm).cpu,
            state.placement(a.vm).pm.0,
            a.pm.0
        );
    }
}

fn row(name: &str, fr: f64, elapsed: Duration, moves: usize) {
    println!("{name:<22} {fr:>8.4} {:>9.3}s {moves:>6}", elapsed.as_secs_f64());
}
