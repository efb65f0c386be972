//! Live-migration execution of a rescheduling plan (§1 of the paper):
//! compute a plan with the production heuristic, then schedule it under
//! the pre-copy cost model — how many copy rounds each VM needs, how
//! long the whole window takes under per-PM NIC limits, and what
//! downtime each end-user sees.
//!
//! Run with:
//! ```text
//! cargo run --release -p vmr-e2e --example live_migration
//! ```

use vmr_baselines::ha::ha_solve;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::migration::{migration_cost, schedule_plan, NicLimits, PrecopyModel};
use vmr_sim::objective::Objective;

fn main() {
    // A mid-sized cluster with scattered fragments.
    let cfg = ClusterConfig {
        pm_groups: vec![PmGroup { count: 24, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 160,
        ..ClusterConfig::tiny()
    };
    let state = generate_mapping(&cfg, 7).expect("generate mapping");
    let cs = ConstraintSet::new(state.num_vms());
    println!(
        "cluster: {} PMs / {} VMs, initial FR {:.4}",
        state.num_pms(),
        state.num_vms(),
        state.fragment_rate(16)
    );

    // 1. Compute a rescheduling plan (any planner works; HA is instant).
    let result = ha_solve(&state, &cs, Objective::default(), 12);
    println!(
        "plan: {} migrations, FR {:.4} -> {:.4}\n",
        result.plan.len(),
        state.fragment_rate(16),
        result.objective
    );

    // 2. Per-VM pre-copy cost: every flavor from Table 1.
    let model = PrecopyModel::default();
    println!("pre-copy cost by VM memory size (bandwidth {} GiB/s):", model.bandwidth_gib_s);
    println!(
        "{:>8}  {:>6}  {:>12}  {:>11}  {:>11}",
        "mem_gib", "rounds", "precopy_s", "downtime_ms", "moved_gib"
    );
    for mem in [4.0, 16.0, 32.0, 64.0, 176.0] {
        let c = migration_cost(mem, &model);
        println!(
            "{mem:>8}  {:>6}  {:>12.2}  {:>11.1}  {:>11.1}",
            c.rounds, c.precopy_secs, c.downtime_ms, c.transferred_gib
        );
    }

    // 3. Schedule the whole plan under NIC stream limits.
    println!("\nplan execution under per-PM NIC stream limits:");
    println!(
        "{:>8}  {:>11}  {:>13}  {:>8}  {:>12}",
        "streams", "makespan_s", "sequential_s", "speedup", "downtime_ms"
    );
    for streams in [1, 2, 4, 8] {
        let sched =
            schedule_plan(&state, &result.plan, &model, NicLimits { streams_per_pm: streams })
                .expect("schedule");
        println!(
            "{streams:>8}  {:>11.1}  {:>13.1}  {:>8.2}  {:>12.1}",
            sched.makespan_secs,
            sched.sequential_secs,
            sched.speedup(),
            sched.total_downtime_ms
        );
    }

    // 4. The per-migration timeline at the default limits.
    let sched =
        schedule_plan(&state, &result.plan, &model, NicLimits::default()).expect("schedule");
    println!("\ntimeline (streams_per_pm = 2):");
    for m in &sched.migrations {
        println!(
            "  t={:>6.1}s  VM{:<4} PM{:<3} -> PM{:<3}  {:>5.1}s, {} rounds, {:.1} ms pause",
            m.start_secs,
            m.vm.0,
            m.src.0,
            m.dst.0,
            m.cost.total_secs(),
            m.cost.rounds,
            m.cost.downtime_ms
        );
    }
}
