//! Tier-1 property test: the tape-free decision path (`decide_in` /
//! `act`) must be **bit-identical** to the legacy Graph-based path
//! (`decide_via_graph`) — same actions, same log-probs, same values, same
//! stored masks and probabilities — across random clusters, episode
//! prefixes, extractor variants, and all three [`ActionMode`]s.
//!
//! Identity here is exact f64 equality, not tolerance: the two engines
//! share their kernels, and any drift (a reassociated sum, a divergent
//! softmax shortcut) shows up immediately as a differing sample.
//!
//! The tape-free path runs both blocks — tree stages included — once per
//! **row class** (bit-equal VM rows of one PM tree, `vmr_nn::classes`,
//! found once per forward); the random tiny clusters above rarely hold
//! two equal rows, so the hand-built clusters at the end force them —
//! within a tree, across identical trees, across trees that differ only
//! in a VM's neighbours, and in trees longer than one 8-key tile.
//!
//! The tape-free path stores no stage-3 probability map: stage 2
//! recomputes the one row it reads from the last cross stage's queries
//! and keys. The tests at the end pin those rows to the Graph's map and
//! the arena of a step to what the map used to cost.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::agent::{rollout_episode, DecideOpts, InferCtx, Vmr2lAgent};
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::model::Vmr2lModel;
use vmr_nn::graph::Graph;
use vmr_sim::cluster::ClusterState;
use vmr_sim::dataset::{generate_mapping, ClusterConfig};
use vmr_sim::env::ReschedEnv;
use vmr_sim::machine::{Placement, Pm, Vm};
use vmr_sim::objective::Objective;
use vmr_sim::types::{NumaPlacement, NumaPolicy, PmId, VmId};

fn env_for(seed: u64, mnl: usize) -> ReschedEnv {
    let state = generate_mapping(&ClusterConfig::tiny(), seed).expect("mapping");
    ReschedEnv::unconstrained(state, Objective::default(), mnl).expect("env")
}

/// The test model: two blocks, two heads of width 8.
const SMALL: ModelConfig =
    ModelConfig { d_model: 16, heads: 2, blocks: 2, d_ff: 24, critic_hidden: 12 };

fn agent_for(mode: ActionMode, kind: ExtractorKind, seed: u64) -> Vmr2lAgent<Vmr2lModel> {
    agent_with(SMALL, mode, kind, seed)
}

fn agent_with(
    cfg: ModelConfig,
    mode: ActionMode,
    kind: ExtractorKind,
    seed: u64,
) -> Vmr2lAgent<Vmr2lModel> {
    let mut rng = StdRng::seed_from_u64(seed);
    Vmr2lAgent::new(Vmr2lModel::new(cfg, kind, &mut rng), mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decide_paths_bit_identical(
        mode_idx in 0usize..3,
        sparse in proptest::bool::ANY,
        cluster_seed in 0u64..500,
        model_seed in 0u64..500,
        rng_seed in 0u64..500,
        greedy in proptest::bool::ANY,
        warm_steps in 0usize..3,
    ) {
        let mode = [ActionMode::TwoStage, ActionMode::Penalty, ActionMode::FullMask][mode_idx];
        let kind = if sparse {
            ExtractorKind::SparseAttention
        } else {
            ExtractorKind::VanillaAttention
        };
        let agent = agent_for(mode, kind, model_seed);
        let opts = DecideOpts { greedy, ..Default::default() };
        let mut ictx = InferCtx::new();

        // Two identical environments, advanced in lockstep so the engines
        // see mid-episode (incrementally repaired) observations too.
        let mut env_a = env_for(cluster_seed, 6);
        let mut env_b = env_for(cluster_seed, 6);
        let mut rng_a = StdRng::seed_from_u64(rng_seed);
        let mut rng_b = StdRng::seed_from_u64(rng_seed);

        for step in 0..=warm_steps {
            if env_a.is_done() {
                break;
            }
            let via_graph = agent.decide_via_graph(&mut env_a, &mut rng_a, &opts).unwrap();
            let via_fwd = agent.decide_in(&mut env_b, &mut ictx, &mut rng_b, &opts).unwrap();
            match (via_graph, via_fwd) {
                (None, None) => break,
                (Some(g), Some(f)) => {
                    prop_assert_eq!(g.action, f.action, "step {}", step);
                    prop_assert_eq!(g.stored_action, f.stored_action);
                    prop_assert_eq!(g.log_prob, f.log_prob, "log-probs must be bitwise equal");
                    prop_assert_eq!(g.value, f.value, "values must be bitwise equal");
                    prop_assert_eq!(&g.vm_probs, &f.vm_probs);
                    prop_assert_eq!(&g.pm_probs, &f.pm_probs);
                    prop_assert_eq!(&g.stored_obs.vm_mask, &f.stored_obs.vm_mask);
                    prop_assert_eq!(&g.stored_obs.pm_mask, &f.stored_obs.pm_mask);
                    prop_assert_eq!(&g.stored_obs.joint_mask, &f.stored_obs.joint_mask);
                    prop_assert_eq!(&g.stored_obs.obs, &f.stored_obs.obs);
                    // Step both environments identically; unmasked modes
                    // may propose illegal actions — skip the step then.
                    if env_a.action_legal(g.action).is_ok() {
                        env_a.step(g.action).unwrap();
                        env_b.step(f.action).unwrap();
                    }
                }
                (g, f) => {
                    prop_assert!(false, "one path decided, the other did not: {:?} vs {:?}",
                        g.map(|d| d.action), f.map(|d| d.action));
                }
            }
        }
    }

    #[test]
    fn act_matches_decide(
        cluster_seed in 0u64..500,
        model_seed in 0u64..500,
        rng_seed in 0u64..500,
    ) {
        // The lightweight acting path must sample exactly like decide_in,
        // in every action mode: both run the one action-selection tail.
        for mode in [ActionMode::TwoStage, ActionMode::Penalty, ActionMode::FullMask] {
            let agent = agent_for(mode, ExtractorKind::SparseAttention, model_seed);
            let opts = DecideOpts::default();
            let mut env_a = env_for(cluster_seed, 4);
            let mut env_b = env_for(cluster_seed, 4);
            let mut ictx_a = InferCtx::new();
            let mut ictx_b = InferCtx::new();
            let mut rng_a = StdRng::seed_from_u64(rng_seed);
            let mut rng_b = StdRng::seed_from_u64(rng_seed);
            let full = agent.decide_in(&mut env_a, &mut ictx_a, &mut rng_a, &opts).unwrap();
            let lite = agent.act(&mut env_b, &mut ictx_b, &mut rng_b, &opts).unwrap();
            match (&full, lite) {
                (None, None) => {}
                (Some(d), Some(a)) => {
                    prop_assert_eq!(d.action, a.action);
                    prop_assert_eq!(d.log_prob, a.log_prob);
                    prop_assert_eq!(d.value, a.value);
                }
                (d, a) => {
                    prop_assert!(false, "mismatch: {:?} vs {:?}", d.as_ref().map(|x| x.action), a)
                }
            }
            // The f32 agent runs the same tail over the same masks: it
            // decides whenever the f64 one does, legally where the mode
            // masks stage 2, with a value within f32 noise.
            let agent32 = agent.cast::<f32>();
            let mut rng_c = StdRng::seed_from_u64(rng_seed);
            let fast = agent32.act(&mut env_b, &mut ictx_b, &mut rng_c, &opts).unwrap();
            prop_assert_eq!(fast.is_some(), full.is_some());
            if let (Some(f), Some(d)) = (fast, full) {
                prop_assert!(mode == ActionMode::Penalty || env_b.action_legal(f.action).is_ok());
                prop_assert!((f.value - d.value).abs() < 1e-3);
            }
        }
    }
}

// ---- forced duplicate rows -------------------------------------------

/// A cluster from `(pm, cpu, mem, numa slot)` per VM (`None` = both
/// NUMA nodes), on `pms` symmetric 44-core / 128-GiB-per-NUMA hosts.
fn cluster(pms: u32, vms: &[(u32, u32, u32, Option<u8>)]) -> ClusterState {
    let hosts = (0..pms).map(|i| Pm::symmetric(PmId(i), 44, 128)).collect();
    let (mut machines, mut placements) = (Vec::new(), Vec::new());
    for (k, &(pm, cpu, mem, slot)) in vms.iter().enumerate() {
        let numa = if slot.is_some() { NumaPolicy::Single } else { NumaPolicy::Double };
        machines.push(Vm { id: VmId(k as u32), cpu, mem, numa });
        let numa = slot.map_or(NumaPlacement::Double, NumaPlacement::Single);
        placements.push(Placement { pm: PmId(pm), numa });
    }
    ClusterState::new(hosts, machines, placements).expect("hand-built cluster")
}

/// Duplicates inside one tree: PM 0 hosts three equal VMs on NUMA 0
/// (0, 2, 4), two equal ones on NUMA 1 (3, 5) and a singleton (6); PM 1
/// holds a pair (1, 7) and a double-NUMA VM; PM 2 one VM; PM 3 is empty.
/// 10 VMs, 6 classes.
fn duplicates_in_one_tree() -> (ClusterState, usize) {
    let vms = [
        (0, 4, 8, Some(0)),
        (1, 8, 16, Some(1)),
        (0, 4, 8, Some(0)),
        (0, 2, 4, Some(1)),
        (0, 4, 8, Some(0)),
        (0, 2, 4, Some(1)),
        (0, 16, 32, Some(0)),
        (1, 8, 16, Some(1)),
        (1, 16, 64, None),
        (2, 4, 8, Some(0)),
    ];
    (cluster(4, &vms), 6)
}

/// Equal feature rows in *different* trees. PMs 0 and 1 are identical
/// trees (their VM rows stay equal through the tree stage, and still
/// may not merge: the search never looks across trees). PMs 2 and 3
/// have equal loads, so VM 8 and VM 11 enter with equal feature rows,
/// but different neighbours (two 2-core VMs vs one 4-core twin) make
/// their tree-stage rows differ. 14 VMs: classes {0,1},{2} on PM 0,
/// {3,4},{5} on PM 1, {8},{9,10} on PM 2, {11,12} on PM 3, {6},{7} on
/// PM 4 and {13} on PM 5 — 10 in all.
fn duplicates_across_trees() -> (ClusterState, usize) {
    let vms = [
        (0, 4, 8, Some(0)),
        (0, 4, 8, Some(0)),
        (0, 8, 16, Some(1)),
        (1, 4, 8, Some(0)),
        (1, 4, 8, Some(0)),
        (1, 8, 16, Some(1)),
        (4, 16, 32, Some(0)),
        (4, 32, 64, None),
        (2, 4, 8, Some(0)),
        (2, 2, 4, Some(0)),
        (2, 2, 4, Some(0)),
        (3, 4, 8, Some(0)),
        (3, 4, 8, Some(0)),
        (5, 8, 16, Some(1)),
    ];
    (cluster(6, &vms), 10)
}

/// Long trees: PM 0 hosts 10 VMs in 6 classes (three equal 4-core VMs on
/// NUMA 0, two 2-core and two 8-core pairs, three singletons), so its
/// tree of 11 members has distinct rows past one 8-key tile; PM 1 hosts
/// 5 equal VMs (its tree is the PM and one class); PM 2 hosts 9 distinct
/// VMs; PM 3 is empty. The VMs are dealt round-robin, so every tree's
/// members interleave. 24 VMs, 16 classes, which every block's tree
/// stage and dense stages run on.
fn duplicates_in_long_trees() -> (ClusterState, usize) {
    let pm0 = [
        (0, 4, 8, Some(0)),
        (0, 2, 4, Some(1)),
        (0, 4, 8, Some(0)),
        (0, 8, 16, Some(0)),
        (0, 1, 2, Some(1)),
        (0, 4, 8, Some(0)),
        (0, 2, 4, Some(1)),
        (0, 16, 32, None),
        (0, 8, 16, Some(0)),
        (0, 4, 8, Some(1)),
    ];
    let pm1 = [(1, 4, 8, Some(1)); 5];
    let pm2: Vec<_> = (1..=5)
        .map(|c| (2, c, 2 * c, Some(0)))
        .chain((1..=4).map(|c| (2, c, 2 * c, Some(1))))
        .collect();
    let mut vms = Vec::new();
    for slot in 0..pm0.len() {
        vms.extend([pm0.get(slot), pm1.get(slot), pm2.get(slot)].into_iter().flatten().copied());
    }
    (cluster(4, &vms), 16)
}

/// Graph == fwd to the bit on a duplicate-laden cluster, a few steps
/// deep, for one model, mode and extractor; with the sparse extractor
/// the first step must have found exactly `classes` row classes.
fn assert_paths_agree(
    cfg: ModelConfig,
    &(ref state, classes): &(ClusterState, usize),
    mode: ActionMode,
    kind: ExtractorKind,
    seed: u64,
) {
    let agent = agent_with(cfg, mode, kind, seed);
    let opts = DecideOpts::default();
    let mut ictx = InferCtx::new();
    let mut env_a = ReschedEnv::unconstrained(state.clone(), Objective::default(), 5).expect("env");
    let mut env_b = ReschedEnv::unconstrained(state.clone(), Objective::default(), 5).expect("env");
    let mut rng_a = StdRng::seed_from_u64(seed);
    let mut rng_b = StdRng::seed_from_u64(seed);
    for step in 0..4 {
        let what =
            format!("d={}/{} {mode:?}/{kind:?} seed {seed} step {step}", cfg.d_model, cfg.heads);
        let g = agent.decide_via_graph(&mut env_a, &mut rng_a, &opts).unwrap();
        let f = agent.decide_in(&mut env_b, &mut ictx, &mut rng_b, &opts).unwrap();
        let shared = ictx.ctx.row_classes();
        if step == 0 && kind == ExtractorKind::SparseAttention {
            assert_eq!((shared.total(), shared.distinct()), (state.num_vms(), classes), "{what}");
        } else if kind == ExtractorKind::VanillaAttention {
            assert!(!shared.shared(), "no tree, no classes: {what}");
        }
        let (Some(g), Some(f)) = (g, f) else { panic!("both paths must decide: {what}") };
        assert_eq!(g.action, f.action, "{what}");
        assert_eq!(g.log_prob, f.log_prob, "{what}");
        assert_eq!(g.value, f.value, "{what}");
        assert_eq!(g.vm_probs, f.vm_probs, "{what}");
        assert_eq!(g.pm_probs, f.pm_probs, "{what}");
        assert_eq!(g.stored_obs.obs, f.stored_obs.obs, "{what}");
        if env_a.action_legal(g.action).is_ok() {
            env_a.step(g.action).unwrap();
            env_b.step(f.action).unwrap();
        }
    }
}

#[test]
fn forced_duplicates_stay_bit_identical_to_the_graph() {
    for cluster in [duplicates_in_one_tree(), duplicates_across_trees(), duplicates_in_long_trees()]
    {
        for mode in [ActionMode::TwoStage, ActionMode::Penalty, ActionMode::FullMask] {
            for kind in [ExtractorKind::SparseAttention, ExtractorKind::VanillaAttention] {
                for seed in [3, 41] {
                    assert_paths_agree(SMALL, &cluster, mode, kind, seed);
                }
            }
        }
    }
}

#[test]
fn heads_wider_than_sixteen_stay_bit_identical_to_the_graph() {
    // The fused head takes widths up to 16; two heads of width 20 run
    // the unfused dense stages and the tree stage's runtime-width value
    // sums, on shared classes.
    let wide = ModelConfig { d_model: 40, heads: 2, ..SMALL };
    for cluster in [duplicates_in_one_tree(), duplicates_in_long_trees()] {
        for kind in [ExtractorKind::SparseAttention, ExtractorKind::VanillaAttention] {
            assert_paths_agree(wide, &cluster, ActionMode::TwoStage, kind, 5);
        }
    }
}

#[test]
fn f32_plans_match_f64_plans_on_duplicate_rows() {
    // The f32 agent shares rows the same way; at a fixed seed a greedy
    // episode must come out the same under both precisions (members of a
    // class tie exactly in both, so argmax breaks the tie alike).
    for (state, _) in
        [duplicates_in_one_tree(), duplicates_across_trees(), duplicates_in_long_trees()]
    {
        let agent = agent_for(ActionMode::TwoStage, ExtractorKind::SparseAttention, 7);
        let agent32 = agent.cast::<f32>();
        let opts = DecideOpts { greedy: true, ..Default::default() };
        let mut env = ReschedEnv::unconstrained(state, Objective::default(), 5).expect("env");
        let (obj64, plan64) =
            rollout_episode(&agent, &mut env, &mut StdRng::seed_from_u64(1), &opts).unwrap();
        let (obj32, plan32) =
            rollout_episode(&agent32, &mut env, &mut StdRng::seed_from_u64(1), &opts).unwrap();
        assert!(!plan64.is_empty());
        assert_eq!(plan64, plan32, "greedy plans diverged between precisions");
        assert_eq!(obj64, obj32);
    }
}

// ---- cross probabilities on demand -----------------------------------

/// Every cluster of the on-demand row checks: the three duplicate-row
/// clusters and one random tiny cluster.
fn row_check_clusters() -> Vec<ClusterState> {
    let random = generate_mapping(&ClusterConfig::tiny(), 17).expect("mapping");
    let dups = [duplicates_in_one_tree(), duplicates_across_trees(), duplicates_in_long_trees()];
    dups.into_iter().map(|(state, _)| state).chain([random]).collect()
}

#[test]
fn on_demand_cross_rows_equal_the_graph_map() {
    // f64: the one row stage 2 asks for, `class(vm)`, is the Graph's row
    // `vm` of the M × N map, in raw bits, for every VM.
    let mut rng = StdRng::seed_from_u64(9);
    let model = Vmr2lModel::new(SMALL, ExtractorKind::SparseAttention, &mut rng);
    for state in row_check_clusters() {
        let mut env = ReschedEnv::unconstrained(state, Objective::default(), 5).expect("env");
        let mut ictx = InferCtx::new();
        ictx.prepare_from_env(&mut env);
        let mut g = Graph::new();
        let reference = model.stage1(&mut g, &ictx.feats);
        let map = g.value(reference.cross_probs);
        let ctx = &mut ictx.ctx;
        let s1 = model.stage1_fwd(ctx, &ictx.feats, Some(&ictx.tree.groups));
        assert!(ctx.row_classes().total() == map.rows(), "every VM is classified");
        for vm in 0..map.rows() {
            let class = ctx.row_classes().class(vm);
            let row = model.cross_rows_fwd(ctx, &s1, class..class + 1);
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ctx.value(row).row_slice(0)), bits(map.row_slice(vm)), "VM {vm}");
        }
    }
}

#[test]
fn f32_one_cross_row_equals_its_row_of_all_rows() {
    // f32 has no Graph: the 1-row call equals the same row of the
    // all-rows call, in raw bits.
    let mut rng = StdRng::seed_from_u64(9);
    let model = Vmr2lModel::new(SMALL, ExtractorKind::SparseAttention, &mut rng);
    let model = Vmr2lModel::<f32>::from_f64(&model);
    for state in row_check_clusters() {
        let mut env = ReschedEnv::unconstrained(state, Objective::default(), 5).expect("env");
        let mut ictx = InferCtx::new();
        ictx.prepare_from_env(&mut env);
        let ctx = &mut ictx.ctx32;
        let s1 = model.stage1_fwd(ctx, &ictx.feats, Some(&ictx.tree.groups));
        let classes = ctx.row_classes().distinct();
        let all = model.cross_rows_fwd(ctx, &s1, 0..classes);
        for vm in 0..ctx.row_classes().total() {
            let class = ctx.row_classes().class(vm);
            let one = model.cross_rows_fwd(ctx, &s1, class..class + 1);
            let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (one, all) = (ctx.value(one).row_slice(0), ctx.value(all).row_slice(class));
            assert_eq!(bits(one), bits(all), "VM {vm}, class {class}");
        }
    }
}

/// `FwdCtx::reserved()` after one TwoStage step of the test below,
/// measured at commit 65cdffe, where the last block's cross stage still
/// stored a U × N score and probability slot per head.
const TWO_STAGE_STEP_RESERVED_AT_65CDFFE: usize = 355_372;

#[test]
fn a_two_stage_step_keeps_no_cross_probability_map() {
    // One TwoStage step (stage 1 and stage 2) on a fixed cluster: the
    // arena holds at least the 2 · heads · U · N elements of the
    // per-head score and probability maps less than it did.
    let state = generate_mapping(&ClusterConfig::tiny().scaled_pms(8.0), 5).expect("mapping");
    let mut env = ReschedEnv::unconstrained(state, Objective::default(), 5).expect("env");
    let agent = agent_for(ActionMode::TwoStage, ExtractorKind::SparseAttention, 3);
    let mut ictx = InferCtx::new();
    let mut rng = StdRng::seed_from_u64(1);
    let acted = agent.act(&mut env, &mut ictx, &mut rng, &DecideOpts::default()).unwrap();
    assert!(acted.is_some(), "the step decides");
    let (u, n) = (ictx.ctx.row_classes().distinct(), ictx.feats.num_pms);
    let reserved = ictx.ctx.reserved();
    println!("one TwoStage step: U = {u}, N = {n}, reserved = {reserved}");
    assert!(
        reserved + 2 * SMALL.heads * u * n <= TWO_STAGE_STEP_RESERVED_AT_65CDFFE,
        "{reserved} elements reserved, U = {u}, N = {n}"
    );
}
