//! Noisy-neighbor mitigation (§7 of the paper): profile per-VM
//! utilization, predict it with an EWMA model, rank the VMs that cause
//! contention, derive hard anti-affinity constraints from the ranking,
//! and reschedule so the noisy VMs stop sharing PMs.
//!
//! Run with:
//! ```text
//! cargo run --release -p vmr-e2e --example noisy_neighbors
//! ```

use vmr_baselines::ha::ha_solve;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::interference::{EwmaPredictor, InterferenceModel, UsageProfiles};
use vmr_sim::objective::Objective;
use vmr_sim::types::PmId;

fn main() {
    let cfg = ClusterConfig {
        pm_groups: vec![PmGroup { count: 16, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 120,
        ..ClusterConfig::tiny()
    };
    let state = generate_mapping(&cfg, 3).expect("generate mapping");

    // 1. Utilization telemetry: a bimodal population where 20% of VMs
    //    run hot (stand-in for production per-VM metrics); contention is
    //    scored against a 35% demand threshold.
    let profiles = UsageProfiles::generate(&state, 0.35, 42);

    // 2. Workload characterization: an EWMA predictor tracks each VM's
    //    diurnal utilization signal.
    let vm0 = vmr_sim::types::VmId(0);
    let mut predictor = EwmaPredictor::new(0.2);
    for minute in (0..1440).step_by(15) {
        predictor.update(profiles.sample_util(vm0, minute));
    }
    println!(
        "VM0: mean util {:.2}, burst {:.2}, EWMA prediction {:.2}",
        profiles.usage(vm0).mean_util,
        profiles.usage(vm0).burst_util,
        predictor.predict().unwrap_or(0.0)
    );

    // 3. Score contention and rank the noisiest VMs.
    let model = InterferenceModel { threshold: 0.35, use_burst: true };
    println!("\ncluster interference score: {:.5}", model.cluster_score(&state, &profiles));
    let noisy = model.noisiest_vms(&state, &profiles, 8);
    println!("noisiest VMs (contribution to over-threshold PMs):");
    for (vm, score) in &noisy {
        let pm = state.placement(*vm).pm;
        println!(
            "  VM{:<4} on PM{:<3} ({} cores, util {:.2}): {:.5}",
            vm.0,
            pm.0,
            state.vm(*vm).cpu,
            profiles.usage(*vm).burst_util,
            score
        );
    }

    // 4. Derive hard anti-affinity over the noisy set, actively separate
    //    the already-colocated noisy pairs (constraints alone only block
    //    *new* colocations), then spend the remaining budget on FR.
    let cs = model.derive_anti_affinity(&state, &profiles, 8).expect("constraints");
    println!("\nderived affinity ratio: {:.4}", cs.affinity_ratio());
    let noisy_ids: Vec<_> = noisy.iter().map(|(v, _)| *v).collect();
    let mut after = state.clone();
    let budget = 10usize;
    let mut used = 0;
    for (j, &a) in noisy_ids.iter().enumerate() {
        for &b in noisy_ids.iter().skip(j + 1) {
            if used >= budget || after.placement(a).pm != after.placement(b).pm {
                continue;
            }
            // Move `a` to the legal destination that least hurts FR.
            let mut best: Option<(PmId, f64)> = None;
            for i in 0..after.num_pms() {
                let pm = PmId(i as u32);
                if cs.migration_legal(&after, a, pm).is_err() {
                    continue;
                }
                let Ok(rec) = after.migrate(a, pm, 16) else { continue };
                let fr = after.fragment_rate(16);
                after.undo(&rec).expect("probe undo");
                if best.is_none_or(|(_, b)| fr < b) {
                    best = Some((pm, fr));
                }
            }
            if let Some((pm, _)) = best {
                after.migrate(a, pm, 16).expect("evict");
                used += 1;
                println!("  evicted noisy VM{} away from VM{}", a.0, b.0);
            }
        }
    }
    let result = ha_solve(&after, &cs, Objective::default(), budget - used);
    for a in &result.plan {
        after.migrate(a.vm, a.pm, 16).expect("replay");
    }
    println!(
        "rescheduled {} VMs ({} evictions): FR {:.4} -> {:.4}, interference {:.5} -> {:.5}",
        used + result.plan.len(),
        used,
        state.fragment_rate(16),
        after.fragment_rate(16),
        model.cluster_score(&state, &profiles),
        model.cluster_score(&after, &profiles)
    );

    // 5. Per-PM demand picture after rescheduling.
    println!("\nhottest PMs after rescheduling (demand fraction @ burst):");
    let mut demands: Vec<(usize, f64)> = (0..after.num_pms())
        .map(|i| (i, model.pm_demand(&after, &profiles, PmId(i as u32))))
        .collect();
    demands.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (pm, demand) in demands.iter().take(5) {
        println!(
            "  PM{:<3} demand {:.2}  ({} VMs)",
            pm,
            demand,
            after.vms_on(PmId(*pm as u32)).len()
        );
    }
}
