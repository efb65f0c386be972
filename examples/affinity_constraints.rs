//! Anti-affinity constraints (§5.4): reschedule a cluster where replicas
//! of the same service must never share a PM, and show that the two-stage
//! framework keeps every proposed migration legal while the heuristic and
//! exact baselines respect the same masks.
//!
//! Run with:
//! ```text
//! cargo run --release -p vmr-e2e --example affinity_constraints
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::agent::{DecideOpts, InferCtx, Vmr2lAgent};
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::model::Vmr2lModel;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::env::ReschedEnv;
use vmr_sim::objective::Objective;
use vmr_sim::types::VmId;

fn main() {
    let cfg = ClusterConfig {
        pm_groups: vec![PmGroup { count: 8, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 60,
        ..ClusterConfig::tiny()
    };
    let state = generate_mapping(&cfg, 1).expect("mapping");
    println!(
        "cluster: {} PMs, {} VMs, FR {:.4}",
        state.num_pms(),
        state.num_vms(),
        state.fragment_rate(16)
    );

    // Declare service replica groups: every consecutive trio of VMs is
    // one service whose replicas must spread across PMs (hard
    // anti-affinity). Constraints gate *migrations*, so a group is only
    // declared if its members already sit on distinct PMs — exactly how
    // an operator would roll the policy out (first spread the replicas,
    // then pin the invariant).
    let mut constraints = ConstraintSet::new(state.num_vms());
    let mut groups = 0;
    for chunk_start in (0..state.num_vms()).step_by(9) {
        let group: Vec<VmId> =
            (chunk_start..(chunk_start + 3).min(state.num_vms())).map(|k| VmId(k as u32)).collect();
        let mut hosts: Vec<_> = group.iter().map(|&v| state.placement(v).pm).collect();
        hosts.sort_unstable();
        hosts.dedup();
        if group.len() >= 2 && hosts.len() == group.len() {
            constraints.add_conflict_group(&group).expect("in range");
            groups += 1;
        }
    }
    println!(
        "declared {groups} anti-affinity groups (affinity ratio {:.3}%)",
        constraints.affinity_ratio() * 100.0
    );

    // An untrained agent still only emits legal actions — legality is
    // enforced by the stage-2 mask, not learned behavior.
    let mut rng = StdRng::seed_from_u64(0);
    let model = Vmr2lModel::new(
        ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 32, critic_hidden: 16 },
        ExtractorKind::SparseAttention,
        &mut rng,
    );
    let agent = Vmr2lAgent::new(model, ActionMode::TwoStage);
    let mut env =
        ReschedEnv::new(state.clone(), constraints.clone(), Objective::default(), 6).expect("env");
    let mut checked = 0;
    let mut ictx = InferCtx::new();
    while !env.is_done() {
        let Some(d) =
            agent.act(&mut env, &mut ictx, &mut rng, &DecideOpts::default()).expect("act")
        else {
            break;
        };
        // Double-check against the constraint engine before stepping.
        constraints
            .migration_legal(env.state(), d.action.vm, d.action.pm)
            .expect("two-stage masking guarantees legality");
        checked += 1;
        env.step(d.action).expect("legal step");
    }
    println!("executed {checked} migrations, every one legal under anti-affinity");
    println!("final FR {:.4}", env.objective_value());

    // Verify the invariant the constraint encodes: no two conflicting VMs
    // share a PM in the final state.
    for k in 0..env.state().num_vms() {
        let vm = VmId(k as u32);
        let my_pm = env.state().placement(vm).pm;
        for &other in constraints.conflicts_of(vm) {
            assert_ne!(
                my_pm,
                env.state().placement(other).pm,
                "VM{} and VM{} ended up colocated!",
                vm.0,
                other.0
            );
        }
    }
    println!("post-condition verified: no conflicting VMs share a PM");
}
