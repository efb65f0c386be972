//! Cross-crate baseline integration: every method from Fig. 9 runs on the
//! same mapping, produces a legal plan, and respects the MNL.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Duration;
use vmr_baselines::ha::ha_solve;
use vmr_baselines::mcts::{mcts_solve, MctsConfig};
use vmr_baselines::neuplan::{neuplan_solve, NeuPlanConfig};
use vmr_baselines::swap::{apply_moves, swap_search_solve, SwapMove, SwapSearchConfig};
use vmr_baselines::vbpp::vbpp_solve;
use vmr_core::agent::Vmr2lAgent;
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig, PrecisionConfig};
use vmr_core::model::Vmr2lModel;
use vmr_serve::policies::{FleetPolicy, HaPolicy, PlanPolicy, PlanRequest};
use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig};
use vmr_sim::env::{Action, ReschedEnv};
use vmr_sim::objective::Objective;
use vmr_sim::shard::{fleet_plan, FleetConfig, ShardStrategy};
use vmr_sim::types::{PmId, VmId};
use vmr_solver::bnb::{branch_and_bound, SolverConfig};
use vmr_solver::pop::{pop_solve, PopConfig};

const MNL: usize = 4;

fn mapping() -> ClusterState {
    generate_mapping(&ClusterConfig::tiny(), 99).unwrap()
}

fn assert_plan_legal(state: &ClusterState, plan: &[Action], reported: f64) {
    assert!(plan.len() <= MNL + 1, "plan exceeds MNL: {}", plan.len());
    let mut replay = state.clone();
    for a in plan {
        replay.migrate(a.vm, a.pm, 16).unwrap();
    }
    assert!(
        (replay.fragment_rate(16) - reported).abs() < 1e-9,
        "replayed {} vs reported {reported}",
        replay.fragment_rate(16)
    );
}

#[test]
fn all_methods_produce_legal_plans() {
    let s = mapping();
    let cs = ConstraintSet::new(s.num_vms());
    let obj = Objective::default();
    let initial = obj.value(&s);

    let ha = ha_solve(&s, &cs, obj, MNL);
    assert_plan_legal(&s, &ha.plan, ha.objective);
    assert!(ha.objective <= initial + 1e-12);

    let vbpp = vbpp_solve(&s, &cs, obj, MNL, 2);
    assert_plan_legal(&s, &vbpp.plan, vbpp.objective);

    let solver_cfg = SolverConfig {
        time_limit: Duration::from_millis(400),
        beam_width: Some(12),
        ..Default::default()
    };
    let mip = branch_and_bound(&s, &cs, obj, MNL, &solver_cfg);
    assert_plan_legal(&s, &mip.plan, mip.objective);
    // Exactness family property: the solver is at least as good as HA
    // given the same budget class on this tiny instance.
    assert!(mip.objective <= ha.objective + 1e-9);

    let pop = pop_solve(&s, &cs, obj, MNL, &PopConfig { partitions: 2, sub: solver_cfg, seed: 1 });
    assert_plan_legal(&s, &pop.plan, pop.objective);

    let mcts = mcts_solve(
        &s,
        &cs,
        obj,
        MNL,
        &MctsConfig {
            rollouts_per_step: 8,
            branch_cap: 6,
            time_limit: Duration::from_secs(1),
            ..Default::default()
        },
    );
    assert_plan_legal(&s, &mcts.plan, mcts.objective);

    let mut rng = StdRng::seed_from_u64(0);
    let agent = Vmr2lAgent::new(
        Vmr2lModel::new(
            ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 },
            ExtractorKind::SparseAttention,
            &mut rng,
        ),
        ActionMode::TwoStage,
    );
    let np = neuplan_solve(
        &agent,
        &s,
        &cs,
        obj,
        MNL,
        &NeuPlanConfig { beta: 2, solver: solver_cfg },
        &mut rng,
    )
    .unwrap();
    assert_plan_legal(&s, &np.plan, np.objective);
}

#[test]
fn pop_partitions_cover_all_pms() {
    let s = mapping();
    let cs = ConstraintSet::new(s.num_vms());
    // Extract every partition and check PM coverage is a disjoint union.
    let mut seen = vec![false; s.num_pms()];
    let k = 3;
    let pm_ids: Vec<u32> = (0..s.num_pms() as u32).collect();
    for part in 0..k {
        let part_pms: Vec<u32> = pm_ids.iter().copied().skip(part).step_by(k).collect();
        let sub = vmr_solver::pop::extract_subcluster(&s, &cs, &part_pms).unwrap();
        for pm in &sub.pm_map {
            assert!(!seen[pm.0 as usize], "PM {} appears in two partitions", pm.0);
            seen[pm.0 as usize] = true;
        }
    }
    assert!(seen.iter().all(|&b| b), "some PM missing from the partition");
}

#[test]
fn solver_beats_heuristics_given_time() {
    // The paper's core motivation claim, on a tiny exactly-solvable case.
    let s = mapping();
    let cs = ConstraintSet::new(s.num_vms());
    let obj = Objective::default();
    let ha = ha_solve(&s, &cs, obj, 2);
    let exact = branch_and_bound(&s, &cs, obj, 2, &SolverConfig::exact());
    assert!(exact.proved_optimal);
    assert!(exact.objective <= ha.objective + 1e-12);
}

/// One heuristic plan as the golden file records it: the actions as
/// `[vm, pm]` pairs and the final objective as the hex of its raw bits.
fn plan_json(plan: &[Action], objective: f64) -> Value {
    let actions: Vec<[u32; 2]> = plan.iter().map(|a| [a.vm.0, a.pm.0]).collect();
    json!({ "plan": actions, "objective": format!("{:#018x}", objective.to_bits()) })
}

fn ha_case(cfg: &ClusterConfig, seed: u64, cs: Option<ConstraintSet>, obj: Objective) -> Value {
    let s = generate_mapping(cfg, seed).unwrap();
    let cs = cs.unwrap_or_else(|| ConstraintSet::new(s.num_vms()));
    let res = ha_solve(&s, &cs, obj, 50);
    assert_plan_replays(&s, &res.plan, obj, res.objective);
    plan_json(&res.plan, res.objective)
}

fn assert_plan_replays(s: &ClusterState, plan: &[Action], obj: Objective, reported: f64) {
    let mut replay = s.clone();
    for a in plan {
        replay.migrate(a.vm, a.pm, obj.frag_cores()).unwrap();
    }
    assert_eq!(obj.value(&replay).to_bits(), reported.to_bits());
}

/// The served `fleet` policy over HA at MNL 50, and the same plan through
/// `fleet_plan` directly, which reports how many of its moves the
/// cross-shard refinement contributed.
fn fleet_ha_case(cluster: &ClusterConfig, seed: u64, obj: Objective) -> (Value, usize) {
    let s = generate_mapping(cluster, seed).unwrap();
    let cs = ConstraintSet::new(s.num_vms());
    let mut env = ReschedEnv::new(s.clone(), cs.clone(), obj, 50).unwrap();
    let req = PlanRequest {
        mnl: 50,
        seed,
        budget: Duration::from_secs(1),
        shards: 0,
        workers: 1,
        precision: PrecisionConfig::Exact64,
    };
    let served = FleetPolicy::new(Arc::new(HaPolicy)).plan(&mut env, &req).unwrap();
    let cfg = FleetConfig {
        shards: (s.num_pms() / 256).clamp(2, 64),
        strategy: ShardStrategy::FragBalanced,
        seed,
        workers: 1,
        refine: true,
    };
    let out = fleet_plan(&s, &cs, obj, 50, &cfg, |_, sub, sub_mnl| {
        ha_solve(&sub.state, &sub.constraints, obj, sub_mnl).plan
    });
    assert_eq!(out.plan, served, "fleet_plan and the served fleet policy disagree");
    assert_plan_replays(&s, &out.plan, obj, out.objective);
    (plan_json(&out.plan, out.objective), out.refined)
}

/// HA and the fleet refinement at paper scale, pinned bit for bit: the
/// MNL-50 plans and final objectives of HA on Medium and Large, on a tiny
/// cluster with anti-affinity conflicts, and under the mixed VM-type and
/// mixed-resource objectives; and of the served `fleet` policy over HA on
/// Large, and on Medium under the mixed-resource objective, where HA
/// plateaus inside its shards and the cross-shard refinement spends the
/// leftover budget (on Large at MNL 50 it finds no improving move).
/// `tests/golden/heuristic_plans.json` was captured by this
/// fixture at commit 9a9bfe6, where both still scored every candidate by
/// migrating and undoing it on a cloned cluster; it is never regenerated
/// from a later commit.
#[test]
fn heuristic_plans_reproduce_the_migrate_undo_capture() {
    let golden: Value = serde_json::from_str(include_str!("golden/heuristic_plans.json"))
        .expect("golden file parses");
    // Anti-affinity that binds: each move of the unconstrained plan
    // conflicts with the lowest-id VM already on its destination.
    let tiny = generate_mapping(&ClusterConfig::tiny(), 2).unwrap();
    let free = ha_solve(&tiny, &ConstraintSet::new(tiny.num_vms()), Objective::default(), 50);
    let mut conflicted = ConstraintSet::new(tiny.num_vms());
    for a in &free.plan {
        conflicted.add_conflict(a.vm, tiny.vms_on(a.pm)[0]).unwrap();
    }
    let tiny_case = ha_case(&ClusterConfig::tiny(), 2, Some(conflicted), Objective::default());
    assert_ne!(tiny_case["plan"], plan_json(&free.plan, free.objective)["plan"]);
    let mixed_resource = Objective::MixedResource { lambda: 0.5, cpu_cores: 16, mem_gib: 64 };
    let (large_fleet, _) = fleet_ha_case(&ClusterConfig::large(), 1, Objective::default());
    let (medium_fleet, refined) = fleet_ha_case(&ClusterConfig::medium(), 1, mixed_resource);
    assert!(refined > 0, "the medium fleet case must exercise the cross-shard refinement");
    let actual = json!({
        "medium/frag16/seed1": ha_case(&ClusterConfig::medium(), 1, None, Objective::default()),
        "large/frag16/seed1": ha_case(&ClusterConfig::large(), 1, None, Objective::default()),
        "tiny/anti_affinity/seed2": tiny_case,
        "medium/mixed_vm_type/seed2": ha_case(
            &ClusterConfig::medium(),
            2,
            None,
            Objective::MixedVmType { lambda: 0.5, small_cores: 16, large_cores: 64 },
        ),
        "multi_resource/mixed_resource/seed3":
            ha_case(&ClusterConfig::multi_resource(), 3, None, mixed_resource),
        "large/fleet_ha/seed1": large_fleet,
        "medium/fleet_ha/mixed_resource/seed1": medium_fleet,
    });
    assert_eq!(
        actual,
        golden["plans"],
        "heuristic plans differ from the capture; this build computed:\n{}",
        serde_json::to_string_pretty(&actual).unwrap()
    );
}

/// The four search planners' plans on one mapping: VBPP, MCTS, swap
/// search and B&B, each under a limit that is a count, never a clock —
/// MCTS by its rollout budget, B&B by `node_limit`, swap search and VBPP
/// by MNL — so the plans are deterministic.
fn search_plans(s: &ClusterState, cs: &ConstraintSet, obj: Objective, mnl: usize) -> Value {
    let never = Duration::from_secs(3600);
    let vbpp = vbpp_solve(s, cs, obj, mnl, 3);
    assert_plan_replays(s, &vbpp.plan, obj, vbpp.objective);
    let mcts_cfg =
        MctsConfig { rollouts_per_step: 6, branch_cap: 4, time_limit: never, ..Default::default() };
    let mcts = mcts_solve(s, cs, obj, mnl, &mcts_cfg);
    assert_plan_replays(s, &mcts.plan, obj, mcts.objective);
    let swap = swap_search_solve(s, cs, obj, mnl, &SwapSearchConfig::default());
    let replay = apply_moves(s, &swap.moves, obj.frag_cores()).unwrap();
    assert_eq!(obj.value(&replay).to_bits(), swap.objective.to_bits());
    let bnb_cfg = SolverConfig {
        time_limit: never,
        node_limit: 40,
        beam_width: Some(6),
        improving_only: false,
    };
    let bnb = branch_and_bound(s, cs, obj, mnl.min(3), &bnb_cfg);
    assert_plan_replays(s, &bnb.plan, obj, bnb.objective);
    let swap_moves: Vec<Value> = swap
        .moves
        .iter()
        .map(|mv| match *mv {
            SwapMove::Single(a) => json!([a.vm.0, a.pm.0]),
            SwapMove::Swap(a, b) => json!({ "swap": [a.0, b.0] }),
        })
        .collect();
    let swap = json!({
        "moves": swap_moves,
        "objective": format!("{:#018x}", swap.objective.to_bits()),
    });
    json!({
        "vbpp": plan_json(&vbpp.plan, vbpp.objective),
        "mcts": plan_json(&mcts.plan, mcts.objective),
        "swap": swap,
        "bnb": plan_json(&bnb.plan, bnb.objective),
    })
}

/// Anti-affinity that binds every planner: each VM a planner moved in
/// `free` conflicts with the lowest-id other VM on the PM it went to.
fn binding_conflicts(s: &ClusterState, free: &Value) -> ConstraintSet {
    let mut cs = ConstraintSet::new(s.num_vms());
    let mut conflict = |vm: u32, pm: u32, partner: Option<u32>| {
        let others = s.vms_on(PmId(pm));
        if let Some(o) = others.iter().find(|o| o.0 != vm && Some(o.0) != partner) {
            cs.add_conflict(VmId(vm), *o).unwrap();
        }
    };
    let pair = |v: &Value| (v[0].as_u64().unwrap() as u32, v[1].as_u64().unwrap() as u32);
    for planner in ["vbpp", "mcts", "bnb"] {
        for a in free[planner]["plan"].as_array().unwrap() {
            let (vm, pm) = pair(a);
            conflict(vm, pm, None);
        }
    }
    for mv in free["swap"]["moves"].as_array().unwrap() {
        if let Some(sw) = mv.get("swap") {
            let (a, b) = pair(sw);
            let host = |v: u32| s.placement(VmId(v)).pm.0;
            conflict(a, host(b), Some(b));
            conflict(b, host(a), Some(a));
        } else {
            let (vm, pm) = pair(mv);
            conflict(vm, pm, None);
        }
    }
    cs
}

/// VBPP, MCTS, swap search and B&B pinned bit for bit: their plans and
/// final objectives on tiny and small_train mappings, each without
/// constraints and with anti-affinity that binds, under the FR16,
/// mixed VM-type and mixed-resource objectives, plus Medium under FR16.
/// `tests/golden/search_plans.json` was captured by this fixture at
/// commit b014335, where all four still scored every candidate by
/// migrating it on the cluster, reading the O(N) objective and undoing
/// it; it is never regenerated from a later commit.
#[test]
fn search_plans_reproduce_the_migrate_undo_capture() {
    let golden: Value =
        serde_json::from_str(include_str!("golden/search_plans.json")).expect("golden file parses");
    let objectives = [
        ("frag16", Objective::default()),
        ("mixed_vm_type", Objective::MixedVmType { lambda: 0.5, small_cores: 16, large_cores: 64 }),
        ("mixed_resource", Objective::MixedResource { lambda: 0.5, cpu_cores: 16, mem_gib: 64 }),
    ];
    let mut actual = serde_json::Map::new();
    let mut bound = false;
    for (name, cluster, seed, mnl) in
        [("tiny", ClusterConfig::tiny(), 2, 6), ("small_train", ClusterConfig::small_train(), 4, 8)]
    {
        let s = generate_mapping(&cluster, seed).unwrap();
        for (obj_name, obj) in objectives {
            let free = search_plans(&s, &ConstraintSet::new(s.num_vms()), obj, mnl);
            let constrained = search_plans(&s, &binding_conflicts(&s, &free), obj, mnl);
            bound |= ["vbpp", "mcts", "swap", "bnb"].iter().any(|&p| free[p] != constrained[p]);
            actual.insert(format!("{name}/{obj_name}/seed{seed}"), free);
            actual.insert(format!("{name}/{obj_name}/anti_affinity/seed{seed}"), constrained);
        }
    }
    assert!(bound, "no anti-affinity plan differs from its unconstrained twin");
    let medium = generate_mapping(&ClusterConfig::medium(), 1).unwrap();
    let free = ConstraintSet::new(medium.num_vms());
    actual.insert(
        "medium/frag16/seed1".into(),
        search_plans(&medium, &free, Objective::default(), 2),
    );
    let actual = Value::Object(actual);
    assert_eq!(
        actual,
        golden["plans"],
        "search plans differ from the capture; this build computed:\n{}",
        serde_json::to_string_pretty(&actual).unwrap()
    );
}
