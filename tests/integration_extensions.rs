//! Cross-crate integration tests of the extension features (paper §7/§8):
//! live-migration scheduling of real planner output, runtime-aware plan
//! filtering composed with staleness replay, interference-derived
//! constraints flowing through the two-stage agent's masks, and the
//! swap-aware search interoperating with the exact simulator.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vmr_baselines::ha::ha_solve;
use vmr_baselines::swap::{apply_moves, swap_search_solve, SwapSearchConfig};
use vmr_core::agent::{DecideOpts, InferCtx, Vmr2lAgent};
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::model::Vmr2lModel;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig};
use vmr_sim::env::ReschedEnv;
use vmr_sim::interference::{InterferenceModel, UsageProfiles};
use vmr_sim::lifetime::{filter_plan, LifetimeModel};
use vmr_sim::migration::{schedule_plan, NicLimits, PrecopyModel};
use vmr_sim::objective::Objective;

fn mapping(seed: u64) -> vmr_sim::cluster::ClusterState {
    generate_mapping(&ClusterConfig::tiny(), seed).expect("mapping")
}

/// Plan with HA, price it with the pre-copy model, drop steps not worth
/// their bandwidth given the measured window, and re-validate the
/// filtered plan by replay — the full §8 runtime-aware loop.
#[test]
fn plan_price_filter_replay_loop() {
    let state = mapping(11);
    let cs = ConstraintSet::new(state.num_vms());
    let plan = ha_solve(&state, &cs, Objective::default(), 8).plan;
    assert!(!plan.is_empty(), "HA must find something on a fragmented tiny cluster");

    let sched = schedule_plan(&state, &plan, &PrecopyModel::default(), NicLimits::default())
        .expect("schedulable");
    assert!(sched.makespan_secs > 0.0);

    // Payback horizon = execution window + 10 minutes of residency.
    let lifetimes = LifetimeModel::generate(&state, 3600.0, 4);
    let filtered = filter_plan(&plan, &lifetimes, sched.makespan_secs + 600.0);
    assert_eq!(filtered.kept.len() + filtered.dropped.len(), plan.len());

    // The kept prefix must replay — dropped steps can only have *freed*
    // capacity, never consumed it, so later kept arrivals still fit?
    // Not guaranteed in general (a dropped departure may have been the
    // space a kept arrival needed), so replay defensively like the
    // paper's footnote 7 and count what lands.
    let mut replayed = state.clone();
    let mut applied = 0;
    for a in &filtered.kept {
        if replayed.migrate(a.vm, a.pm, 16).is_ok() {
            applied += 1;
        }
    }
    assert!(applied > 0 || filtered.kept.is_empty());
    replayed.audit().expect("state stays consistent");
}

/// Interference-derived anti-affinity must flow through the two-stage
/// agent: every action it proposes under those constraints is legal.
#[test]
fn derived_constraints_respected_by_two_stage_agent() {
    let state = mapping(12);
    let profiles = UsageProfiles::generate(&state, 0.4, 8);
    let model = InterferenceModel { threshold: 0.3, use_burst: true };
    let cs = model.derive_anti_affinity(&state, &profiles, 6).expect("derive");

    let mut rng = StdRng::seed_from_u64(0);
    let net = Vmr2lModel::new(
        ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 },
        ExtractorKind::SparseAttention,
        &mut rng,
    );
    let agent = Vmr2lAgent::new(net, ActionMode::TwoStage);
    let mut env = ReschedEnv::new(state, cs.clone(), Objective::default(), 6).expect("env");
    let mut steps = 0;
    let mut ictx = InferCtx::new();
    while !env.is_done() {
        let Some(d) =
            agent.act(&mut env, &mut ictx, &mut rng, &DecideOpts::default()).expect("act")
        else {
            break;
        };
        env.action_legal(d.action).expect("two-stage action must be legal");
        env.step(d.action).expect("legal step");
        steps += 1;
    }
    assert!(steps > 0, "agent should find at least one legal migration");
    env.state().audit().expect("cluster consistent after episode");
}

/// Swap-search results must be exactly reproducible through the
/// simulator's swap primitive, and never violate the audit.
#[test]
fn swap_search_replays_through_simulator() {
    for seed in [21, 22, 23] {
        let state = mapping(seed);
        let cs = ConstraintSet::new(state.num_vms());
        let res =
            swap_search_solve(&state, &cs, Objective::default(), 10, &SwapSearchConfig::default());
        let replay = apply_moves(&state, &res.moves, 16).expect("replay");
        replay.audit().expect("audit");
        assert!(
            (replay.fragment_rate(16) - res.objective).abs() < 1e-12,
            "seed {seed}: reported {} vs replayed {}",
            res.objective,
            replay.fragment_rate(16)
        );
        assert!(res.objective <= state.fragment_rate(16) + 1e-12);
    }
}

/// The live-migration scheduler and the staleness replay agree on what a
/// plan *is*: scheduling a plan the dynamics module would partially drop
/// still works on the original snapshot (pricing happens pre-deployment).
#[test]
fn scheduling_is_snapshot_based() {
    let state = mapping(24);
    let cs = ConstraintSet::new(state.num_vms());
    let plan = ha_solve(&state, &cs, Objective::default(), 6).plan;
    let a = schedule_plan(&state, &plan, &PrecopyModel::default(), NicLimits::default())
        .expect("schedule");
    let b = schedule_plan(&state, &plan, &PrecopyModel::default(), NicLimits::default())
        .expect("schedule again");
    assert_eq!(a, b, "scheduling is deterministic");
    // Tighter NIC limits can only lengthen the window.
    let tight =
        schedule_plan(&state, &plan, &PrecopyModel::default(), NicLimits { streams_per_pm: 1 })
            .expect("schedule tight");
    assert!(tight.makespan_secs >= a.makespan_secs - 1e-9);
}
