//! Tier-1 correctness gate for the incremental observation & mask engine:
//! under arbitrary interleavings of migrate / undo / swap, the engine's
//! cached featurization must stay **bit-identical** to a fresh
//! `Observation::extract`, and the fast mask paths must agree with
//! per-(vm, pm) `migration_legal` checks.

use proptest::prelude::*;
use vmr_sim::cluster::{ClusterState, MigrationRecord};
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::obs::Observation;
use vmr_sim::obs_cache::ObsEngine;
use vmr_sim::types::{PmId, VmId};

fn cluster(seed: u64) -> ClusterState {
    let cfg = ClusterConfig {
        pm_groups: vec![PmGroup { count: 5, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 30,
        ..ClusterConfig::tiny()
    };
    generate_mapping(&cfg, seed).expect("mapping")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence: after every op in a random
    /// migrate/undo/swap sequence, the incremental observation equals a
    /// full rebuild exactly (f32-equal in every cell, identical tree
    /// index). This is what licenses every consumer to drop
    /// `Observation::extract` from the per-step hot path.
    #[test]
    fn incremental_observation_matches_full_extract(
        seed in 0u64..16,
        ops in prop::collection::vec((0u8..4, 0u32..60, 0u32..60), 1..30),
    ) {
        let mut state = cluster(seed);
        let mut engine = ObsEngine::new(&state, 16);
        let n_vms = state.num_vms() as u32;
        let mut undo_stack: Vec<MigrationRecord> = Vec::new();
        for (kind, x, y) in ops {
            match kind {
                // Migrate a VM to a PM (best-fit NUMA), if legal.
                0 | 1 => {
                    let (vm, pm) = (VmId(x % n_vms), PmId(y % 5));
                    if let Ok(rec) = state.migrate(vm, pm, 16) {
                        engine.note_migration(&state, &rec);
                        undo_stack.push(rec);
                    }
                }
                // Swap two VMs, if legal. A swap has no undo: the
                // migrations before it are kept.
                2 => {
                    let (a, b) = (VmId(x % n_vms), VmId(y % n_vms));
                    if let Ok(rec) = state.swap(a, b, 16) {
                        engine.refresh_pms(&state, rec.a.from.pm, rec.a.to.pm);
                        undo_stack.clear();
                    }
                }
                // Undo the most recent migration (LIFO).
                _ => {
                    if let Some(rec) = undo_stack.pop() {
                        state.undo(&rec).expect("undo");
                        engine.note_migration(&state, &rec);
                    }
                }
            }
            let fresh = Observation::extract(&state, 16);
            prop_assert_eq!(engine.observation(&state), &fresh);
        }
    }

    /// Same equivalence under *topology* deltas — the serving path: VM
    /// create/delete/resize and PM adds interleaved with migrations must
    /// keep the engine bit-identical to a full rebuild (this is what lets
    /// `vmr-serve` ingest live deltas without re-extraction).
    #[test]
    fn incremental_observation_survives_topology_deltas(
        seed in 16u64..24,
        ops in prop::collection::vec((0u8..5, 0u32..60, 0u32..60), 1..24),
    ) {
        use vmr_sim::env::{ClusterDelta, ReschedEnv};
        use vmr_sim::objective::Objective;
        use vmr_sim::types::NumaPolicy;

        let state = cluster(seed);
        let mut env = ReschedEnv::unconstrained(state, Objective::default(), 6).expect("env");
        let _ = env.observe(); // engine live from here on
        for (kind, x, y) in ops {
            let m = env.state().num_vms() as u32;
            let delta = match kind {
                0 => ClusterDelta::VmCreate {
                    cpu: 1 + (x % 8),
                    mem: 1 + (y % 16),
                    numa: NumaPolicy::Single,
                },
                1 => ClusterDelta::VmDelete { vm: VmId(x % m) },
                2 => ClusterDelta::VmResize { vm: VmId(x % m), cpu: 1 + (y % 12), mem: 1 + (y % 24) },
                3 => ClusterDelta::PmAdd { cpu_per_numa: 22 + (x % 23), mem_per_numa: 64 },
                _ => {
                    // A migration step between deltas, if legal (illegal
                    // probes and MNL exhaustion leave state untouched).
                    let (vm, pm) = (VmId(x % m), PmId(y % env.state().num_pms() as u32));
                    let _ = env.step(vmr_sim::env::Action { vm, pm });
                    let fresh = Observation::extract(env.state(), 16);
                    prop_assert_eq!(env.observe(), &fresh);
                    continue;
                }
            };
            // Deltas may legitimately fail (full cluster, unknown id);
            // state and engine must stay consistent either way.
            let _ = env.apply_delta(&delta);
            env.state().audit().expect("state stays sound");
            prop_assert_eq!(env.constraints().num_vms(), env.state().num_vms());
            let fresh = Observation::extract(env.state(), 16);
            prop_assert_eq!(env.observe(), &fresh);
        }
    }

    /// The environment keeps one cluster and returns to the episode start
    /// through its undo log: after any interleaving of deltas, steps,
    /// commits and rewinds, `rewind()` leaves a cluster `==` to the
    /// committed one, and the observation bits of a fresh environment
    /// built on it.
    #[test]
    fn rewind_returns_to_the_committed_cluster(
        seed in 24u64..32,
        ops in prop::collection::vec((0u8..9, 0u32..60, 0u32..60), 1..32),
    ) {
        use vmr_sim::env::{Action, ClusterDelta, ReschedEnv};
        use vmr_sim::objective::Objective;
        use vmr_sim::types::NumaPolicy;

        fn rewinds_to(env: &mut ReschedEnv, committed: &ClusterState) -> Result<(), TestCaseError> {
            env.rewind();
            prop_assert_eq!(env.steps_taken(), 0);
            prop_assert!(env.history().is_empty());
            prop_assert_eq!(env.state(), committed);
            let cs = env.constraints().clone();
            let mut fresh = ReschedEnv::new(committed.clone(), cs, Objective::default(), 6).expect("env");
            prop_assert_eq!(env.observe(), fresh.observe());
            Ok(())
        }

        let mut committed = cluster(seed);
        let mut env = ReschedEnv::unconstrained(committed.clone(), Objective::default(), 6).expect("env");
        for (kind, x, y) in ops {
            let m = env.state().num_vms() as u32;
            let n = env.state().num_pms() as u32;
            let delta = match kind {
                0 => ClusterDelta::VmCreate { cpu: 1 + (x % 8), mem: 1 + (y % 16), numa: NumaPolicy::Single },
                1 => ClusterDelta::VmDelete { vm: VmId(x % m) },
                2 => ClusterDelta::VmResize { vm: VmId(x % m), cpu: 1 + (y % 12), mem: 1 + (y % 24) },
                3 => ClusterDelta::PmAdd { cpu_per_numa: 22 + (x % 23), mem_per_numa: 64 },
                4 => ClusterDelta::PmDrain { pm: PmId(x % n) },
                5 | 6 => {
                    // Observe first now and then, so the engine is live
                    // for some of the steps and rewinds that follow.
                    if x % 2 == 0 {
                        let _ = env.observe();
                    }
                    let _ = env.step(Action { vm: VmId(x % m), pm: PmId(y % n) });
                    continue;
                }
                7 => {
                    env.commit();
                    committed = env.state().clone();
                    continue;
                }
                _ => {
                    rewinds_to(&mut env, &committed)?;
                    continue;
                }
            };
            // A delta rewinds the episode, then (on success) moves the
            // episode start with it.
            let _ = env.apply_delta(&delta);
            committed = env.state().clone();
        }
        rewinds_to(&mut env, &committed)?;
    }

    /// The fast stage-2 mask agrees with `migration_legal` per (vm, pm),
    /// including pinning and anti-affinity, after arbitrary migrations.
    #[test]
    fn pm_mask_into_matches_migration_legal(
        seed in 0u64..10,
        conflict_pairs in prop::collection::vec((0u32..40, 0u32..40), 0..6),
        pins in prop::collection::vec(0u32..40, 0..3),
        moves in prop::collection::vec((0u32..60, 0u32..5), 0..8),
    ) {
        let mut state = cluster(seed);
        let n_vms = state.num_vms() as u32;
        let mut cs = ConstraintSet::new(state.num_vms());
        for (a, b) in conflict_pairs {
            cs.add_conflict(VmId(a % n_vms), VmId(b % n_vms)).expect("in range");
        }
        for p in pins {
            cs.pin(VmId(p % n_vms)).expect("in range");
        }
        for (vm_raw, pm_raw) in moves {
            let _ = state.migrate(VmId(vm_raw % n_vms), PmId(pm_raw), 16);
        }
        let mut mask = Vec::new();
        for k in 0..state.num_vms() {
            let vm = VmId(k as u32);
            cs.pm_mask_into(&state, vm, &mut mask);
            for (i, &ok) in mask.iter().enumerate() {
                let legal = cs.migration_legal(&state, vm, PmId(i as u32)).is_ok();
                prop_assert_eq!(ok, legal, "mask mismatch at vm {} pm {}", k, i);
            }
            // The early-exit destination check agrees with the mask.
            prop_assert_eq!(
                cs.has_legal_destination(&state, vm),
                mask.iter().any(|&b| b),
                "has_legal_destination mismatch at vm {}", k
            );
        }
    }

    /// The stage-1 mask with destination checking equals the per-VM OR of
    /// the stage-2 mask.
    #[test]
    fn vm_mask_matches_destination_existence(
        seed in 0u64..10,
        pins in prop::collection::vec(0u32..40, 0..4),
    ) {
        let state = cluster(seed);
        let mut cs = ConstraintSet::new(state.num_vms());
        for p in pins {
            cs.pin(VmId(p % state.num_vms() as u32)).expect("in range");
        }
        let mask = cs.vm_mask(&state, true);
        for (k, &ok) in mask.iter().enumerate() {
            let vm = VmId(k as u32);
            let expect = !cs.is_pinned(vm) && cs.pm_mask(&state, vm).iter().any(|&b| b);
            prop_assert_eq!(ok, expect, "vm_mask mismatch at {}", k);
        }
    }
}
