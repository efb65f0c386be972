//! Property-based tests of the cluster substrate: under arbitrary legal
//! migration sequences, resource accounting stays exact, undo restores
//! state, the state is a function of its placements, the dense reward
//! telescopes to the global fragment drop, every placement decision
//! follows the one best-fit rule, and placing over PM shapes decides as a
//! scan over every PM does.

use std::time::Instant;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmr_sim::cluster::{ClusterState, MigrationRecord};
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::dynamics::DynamicCluster;
use vmr_sim::env::{Action, ClusterDelta, ReschedEnv};
use vmr_sim::error::SimError;
use vmr_sim::machine::{placement_fits, Placement, Pm, Vm};
use vmr_sim::objective::Objective;
use vmr_sim::scheduler::{best_fit, choose_placement, VmsPolicy};
use vmr_sim::types::{NumaPlacement, NumaPolicy, PmId, VmId, REWARD_SCALE};

fn cluster(seed: u64) -> ClusterState {
    let cfg = ClusterConfig {
        pm_groups: vec![PmGroup { count: 5, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 30,
        ..ClusterConfig::tiny()
    };
    generate_mapping(&cfg, seed).expect("mapping")
}

/// Per-NUMA (cpu, mem) capacities of 1–4 PMs.
type PmCaps = Vec<(u32, u32)>;
/// VM proposals: ((cpu, mem), double-NUMA, host PM, NUMA node).
type VmProposals = Vec<((u32, u32), bool, usize, u8)>;

/// An arbitrary small cluster: PMs of the given capacities, and the
/// proposed VMs each kept only if it fits where it is proposed — so PMs
/// and single NUMA nodes are often full.
fn arbitrary_cluster(caps: &PmCaps, proposals: &VmProposals) -> ClusterState {
    let mut pms: Vec<Pm> = caps
        .iter()
        .enumerate()
        .map(|(i, &(cpu, mem))| Pm::symmetric(PmId(i as u32), cpu, mem))
        .collect();
    let (mut vms, mut placements) = (Vec::new(), Vec::new());
    for &((cpu, mem), double, pm, numa) in proposals {
        let pm = pm % pms.len();
        let (policy, cpu, mem, placement) = if double {
            (NumaPolicy::Double, 2 * cpu, 2 * mem, NumaPlacement::Double)
        } else {
            (NumaPolicy::Single, cpu, mem, NumaPlacement::Single(numa))
        };
        let vm = Vm { id: VmId(vms.len() as u32), cpu, mem, numa: policy };
        if !placement_fits(&pms[pm], &vm, placement) {
            continue;
        }
        occupy(&mut pms[pm], &vm, placement);
        vms.push(vm);
        placements.push(Placement { pm: PmId(pm as u32), numa: placement });
    }
    ClusterState::new(pms, vms, placements).expect("proposals were checked to fit")
}

/// Allocates `vm` at `pl` on a detached PM by hand, independently of the
/// simulator's own allocator.
fn occupy(pm: &mut Pm, vm: &Vm, pl: NumaPlacement) {
    for (j, node) in pm.numas.iter_mut().enumerate() {
        if pl.uses_numa(j) {
            node.cpu_used += vm.cpu_per_numa();
            node.mem_used += vm.mem_per_numa();
        }
    }
}

/// Best fit on one PM the slow way: allocate each fitting placement on a
/// clone and keep the first with the smallest X-core fragment after it.
fn brute_best_fit(pm: &Pm, vm: &Vm, frag_cores: u32) -> Option<(u32, NumaPlacement)> {
    let mut best: Option<(u32, NumaPlacement)> = None;
    for &pl in vm.candidate_placements() {
        if placement_fits(pm, vm, pl) {
            let mut after = pm.clone();
            occupy(&mut after, vm, pl);
            let fragment = after.cpu_fragment(frag_cores);
            if best.is_none_or(|(f, _)| fragment < f) {
                best = Some((fragment, pl));
            }
        }
    }
    best
}

/// Takes `vm`'s allocation at `pl` off a detached PM by hand.
fn vacate(pm: &mut Pm, vm: &Vm, pl: NumaPlacement) {
    for (j, node) in pm.numas.iter_mut().enumerate() {
        if pl.uses_numa(j) {
            node.cpu_used -= vm.cpu_per_numa();
            node.mem_used -= vm.mem_per_numa();
        }
    }
}

/// The random VMS policy as a list of every feasible (PM, placement)
/// slot in id order and one `gen_range` index into it.
fn listed_random_slot(pms: &[Pm], vm: &Vm, rng: &mut StdRng) -> Option<(PmId, NumaPlacement)> {
    let slots: Vec<(PmId, NumaPlacement)> = pms
        .iter()
        .flat_map(|pm| {
            vm.candidate_placements()
                .iter()
                .filter(|&&pl| placement_fits(pm, vm, pl))
                .map(|&pl| (pm.id, pl))
        })
        .collect();
    (!slots.is_empty()).then(|| slots[rng.gen_range(0..slots.len())])
}

/// A dynamic cluster that scans every PM for every decision: the
/// deterministic policies through `choose_placement` over all PMs, the
/// random one through [`listed_random_slot`].
struct FullScan {
    pms: Vec<Pm>,
    vms: Vec<Option<(Vm, Placement)>>,
}

impl FullScan {
    fn place(&self, vm: &Vm, policy: VmsPolicy, rng: &mut StdRng) -> Option<(PmId, NumaPlacement)> {
        match policy {
            VmsPolicy::Random => listed_random_slot(&self.pms, vm, rng),
            _ => choose_placement(&self.pms, vm, policy, 16, rng),
        }
    }

    fn arrive(&mut self, vm: Vm, policy: VmsPolicy, rng: &mut StdRng) {
        if let Some((pm, numa)) = self.place(&vm, policy, rng) {
            occupy(&mut self.pms[pm.0 as usize], &vm, numa);
            self.vms.push(Some((vm, Placement { pm, numa })));
        }
    }

    fn exit(&mut self, idx: usize) {
        let (vm, pl) = self.vms[idx].take().expect("alive");
        vacate(&mut self.pms[pl.pm.0 as usize], &vm, pl.numa);
    }

    fn redeploy(&mut self, frac: f64, rng: &mut StdRng) {
        for idx in 0..self.vms.len() {
            let Some((vm, old)) = self.vms[idx] else { continue };
            if rng.gen::<f64>() >= frac {
                continue;
            }
            vacate(&mut self.pms[old.pm.0 as usize], &vm, old.numa);
            let (pm, numa) = listed_random_slot(&self.pms, &vm, rng).unwrap_or((old.pm, old.numa));
            occupy(&mut self.pms[pm.0 as usize], &vm, numa);
            self.vms[idx] = Some((vm, Placement { pm, numa }));
        }
    }

    fn placements(&self) -> Vec<Placement> {
        self.vms.iter().flatten().map(|&(_, pl)| pl).collect()
    }
}

/// The one-order invariant: every PM's reverse index is strictly
/// ascending, and the state is `==` to the one the one cluster rule
/// builds from its own PMs, VMs and placements.
fn is_canonical(state: &ClusterState) -> Result<(), TestCaseError> {
    for pm in 0..state.num_pms() as u32 {
        let hosted = state.vms_on(PmId(pm));
        prop_assert!(hosted.windows(2).all(|w| w[0] < w[1]), "PM {}: {:?}", pm, hosted);
    }
    let built =
        ClusterState::new(state.pms().to_vec(), state.vms().to_vec(), state.placements().to_vec())
            .expect("a live state passes the one cluster rule");
    prop_assert_eq!(&built, state);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A move is scored exactly as `migrate` makes it. Over every (vm, pm)
    /// pair of an arbitrary cluster — same-PM NUMA flips, double-NUMA VMs
    /// and full destinations included — plus one unknown VM and PM id:
    /// `pms_after_move` is `None` iff `migrate` fails on a clone and
    /// otherwise equals that clone's source and destination PMs;
    /// `move_gain` equals the migrate → `pm_score` → undo expression in raw
    /// bits; without pins or conflicts `migration_legal` accepts exactly the
    /// moves `migrate` makes; and the scored state is never touched. The
    /// global objective is scored the same way, for every objective kind:
    /// `value_after_move` and `value_after_swap` equal `value` after
    /// `migrate` / `swap` on a clone in raw bits and are `None` iff those
    /// fail, `pms_after_swap` equals the swapped clone's two hosts, and
    /// `ranked_moves` under pins and conflicts equals every legal move
    /// scored the old way (migrate on a clone, then `value`), stably
    /// sorted best first and truncated to the cap — and nothing once its
    /// deadline has passed.
    #[test]
    fn a_move_is_scored_exactly_as_migrate_makes_it(
        caps in prop::collection::vec((4u32..48, 8u32..128), 1..5),
        proposals in prop::collection::vec(((1u32..24, 1u32..64), prop::bool::ANY, 0usize..4, 0u8..2), 0..24),
        conflicts in prop::collection::vec((0u32..24, 0u32..24), 0..4),
        pins in prop::collection::vec(0u32..24, 0..2),
    ) {
        let state = arbitrary_cluster(&caps, &proposals);
        let before = state.clone();
        let cs = ConstraintSet::new(state.num_vms());
        let mut constrained = ConstraintSet::new(state.num_vms());
        let n_vms = state.num_vms() as u32;
        if n_vms > 0 {
            for (a, b) in conflicts {
                constrained.add_conflict(VmId(a % n_vms), VmId(b % n_vms)).expect("in range");
            }
            for p in pins {
                constrained.pin(VmId(p % n_vms)).expect("in range");
            }
        }
        let objectives = [
            Objective::default(),
            Objective::FragRate { cores: 8 },
            Objective::MixedVmType { lambda: 0.3, small_cores: 16, large_cores: 64 },
            Objective::MixedResource { lambda: 0.6, cpu_cores: 32, mem_gib: 64 },
        ];
        for k in 0..=state.num_vms() as u32 {
            for i in 0..=state.num_pms() as u32 {
                let (vm, pm) = (VmId(k), PmId(i));
                for obj in objectives {
                    let mut probe = state.clone();
                    let made = probe.migrate(vm, pm, obj.frag_cores());
                    let scored = state.pms_after_move(vm, pm, obj.frag_cores());
                    prop_assert_eq!(scored.is_some(), made.is_ok(), "vm {} pm {}", k, i);
                    let gain = obj.move_gain(&state, vm, pm);
                    let Ok(rec) = made else {
                        prop_assert_eq!(gain, None);
                        continue;
                    };
                    let (src, dest) = scored.expect("checked above");
                    prop_assert_eq!(&src, probe.pm(rec.from.pm));
                    prop_assert_eq!(&dest, probe.pm(pm));
                    probe.undo(&rec).expect("undo");
                    let s = rec.from.pm;
                    let pair = |c: &ClusterState| {
                        obj.pm_score(c, s) + if pm != s { obj.pm_score(c, pm) } else { 0.0 }
                    };
                    let old_before = pair(&probe);
                    probe.migrate(vm, pm, obj.frag_cores()).expect("replays");
                    let old = old_before - pair(&probe);
                    prop_assert_eq!(gain.map(f64::to_bits), Some(old.to_bits()));
                }
                let legal = cs.migration_legal(&state, vm, pm).is_ok();
                let made = state.clone().migrate(vm, pm, 16).is_ok();
                prop_assert_eq!(legal, made, "vm {} pm {}", k, i);
            }
        }
        for obj in objectives {
            let mass = obj.mass(&state);
            let base = obj.value(&state);
            prop_assert_eq!(obj.value_of(&mass).to_bits(), base.to_bits());
            let mut every = Vec::new();
            for k in 0..=n_vms {
                for i in 0..=state.num_pms() as u32 {
                    let (vm, pm) = (VmId(k), PmId(i));
                    let mut made = state.clone();
                    let after = made.migrate(vm, pm, obj.frag_cores()).ok().map(|_| obj.value(&made));
                    let scored = obj.value_after_move(&state, &mass, vm, pm);
                    prop_assert_eq!(scored.map(f64::to_bits), after.map(f64::to_bits), "vm {} pm {}", k, i);
                    if let Some(after) = after {
                        if constrained.migration_legal(&state, vm, pm).is_ok() {
                            every.push((Action { vm, pm }, base - after));
                        }
                    }
                }
                for b in 0..=n_vms {
                    let (a, b) = (VmId(k), VmId(b));
                    let mut swapped = state.clone();
                    let made = swapped.swap(a, b, obj.frag_cores());
                    let hosts = state.pms_after_swap(a, b, obj.frag_cores());
                    let scored = obj.value_after_swap(&state, &mass, a, b);
                    prop_assert_eq!(hosts.is_some(), made.is_ok(), "swap {} {}", a.0, b.0);
                    prop_assert_eq!(scored.is_some(), made.is_ok(), "swap {} {}", a.0, b.0);
                    let Ok(rec) = made else { continue };
                    let (a_host, b_host) = hosts.expect("checked above");
                    prop_assert_eq!(&a_host, swapped.pm(rec.a.from.pm));
                    prop_assert_eq!(&b_host, swapped.pm(rec.b.from.pm));
                    prop_assert_eq!(scored.map(f64::to_bits), Some(obj.value(&swapped).to_bits()));
                }
            }
            every.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite gains"));
            let bits = |moves: &[(Action, f64)]| -> Vec<(Action, u64)> {
                moves.iter().map(|&(a, g)| (a, g.to_bits())).collect()
            };
            for cap in [0, 1, 3, usize::MAX] {
                let ranked = obj.ranked_moves(&state, &constrained, cap, None);
                prop_assert_eq!(bits(&ranked), bits(&every[..cap.min(every.len())]), "cap {}", cap);
            }
            let past = Instant::now();
            prop_assert!(obj.ranked_moves(&state, &constrained, usize::MAX, Some(past)).is_empty());
        }
        prop_assert_eq!(&state, &before);
    }

    /// One placement rule. On an arbitrary cluster: (a) for every VM and
    /// every PM other than its host, `best_fit_placement` is the
    /// brute-force per-PM best fit, and the staleness replay's
    /// `DynamicCluster::try_apply` refuses exactly the moves `migrate`
    /// refuses and otherwise leaves the same PMs and placements; (b) best
    /// fit for an arriving VM, through `choose_placement` and through the
    /// RNG-free `best_fit`, is the brute-force argmin of (fragment after a
    /// clone-and-allocate, PM id), the first placement on a tie, and never
    /// draws from the RNG.
    #[test]
    fn every_placement_follows_the_one_best_fit_rule(
        caps in prop::collection::vec((4u32..48, 8u32..128), 1..5),
        proposals in prop::collection::vec(((1u32..24, 1u32..64), prop::bool::ANY, 0usize..4, 0u8..2), 0..24),
        arrivals in prop::collection::vec(((1u32..24, 1u32..64), prop::bool::ANY), 1..8),
        frag_idx in 0usize..3,
    ) {
        let frag_cores = [4, 8, 16][frag_idx];
        let state = arbitrary_cluster(&caps, &proposals);
        for k in 0..state.num_vms() as u32 {
            let vm = VmId(k);
            for i in (0..state.num_pms() as u32).filter(|&i| PmId(i) != state.placement(vm).pm) {
                let action = Action { vm, pm: PmId(i) };
                let brute = brute_best_fit(state.pm(action.pm), state.vm(vm), 16).map(|(_, pl)| pl);
                prop_assert_eq!(state.best_fit_placement(vm, action.pm, 16).expect("ids in range"), brute);
                let mut made = state.clone();
                let migrated = made.migrate(vm, action.pm, 16);
                let mut replay = DynamicCluster::from_state(&state);
                prop_assert_eq!(replay.try_apply(action), migrated.is_ok(), "vm {} pm {}", k, i);
                let replayed = replay.freeze().expect("freeze");
                let expect = if migrated.is_ok() { &made } else { &state };
                prop_assert_eq!(replayed.pms(), expect.pms(), "vm {} pm {}", k, i);
                prop_assert_eq!(replayed.placements(), expect.placements(), "vm {} pm {}", k, i);
            }
        }
        for ((cpu, mem), double) in arrivals {
            let (cpu, mem, numa) =
                if double { (2 * cpu, 2 * mem, NumaPolicy::Double) } else { (cpu, mem, NumaPolicy::Single) };
            let vm = Vm { id: VmId(state.num_vms() as u32), cpu, mem, numa };
            let brute = state
                .pms()
                .iter()
                .filter_map(|pm| brute_best_fit(pm, &vm, frag_cores).map(|(f, pl)| (f, pm.id, pl)))
                .min_by_key(|&(f, id, _)| (f, id))
                .map(|(_, id, pl)| (id, pl));
            let mut rng = StdRng::seed_from_u64(7);
            let chosen = choose_placement(state.pms(), &vm, VmsPolicy::BestFit, frag_cores, &mut rng);
            prop_assert_eq!(chosen, brute);
            prop_assert_eq!(best_fit(state.pms(), &vm, frag_cores), brute);
            prop_assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(7).gen::<u64>());
        }
    }

    /// Placement over PM shapes picks what a scan over every PM picks.
    /// On an arbitrary fleet whose PMs repeat a few capacities (so
    /// shapes repeat, and part of the fleet starts empty), under any mix
    /// of single- and double-NUMA arrivals with every VMS policy, exits
    /// and random redeploys, `DynamicCluster` makes the same decisions as
    /// a cluster that scans every PM: each arrival lands on the same
    /// (PM, placement) or is refused alike, the random policy draws the
    /// same slot from the same RNG state, and the RNGs stay in step.
    /// `choose_placement`'s counted random draw is also the listed one.
    #[test]
    fn placement_over_shapes_is_the_full_scan(
        kinds in prop::collection::vec(0usize..3, 1..16),
        proposals in prop::collection::vec(((1u32..24, 1u32..64), prop::bool::ANY, 0usize..16, 0u8..2), 0..24),
        ops in prop::collection::vec((0u8..8, (1u32..24, 1u32..64), prop::bool::ANY, 0usize..4), 1..40),
        seed in 0u64..1_000,
    ) {
        let caps: PmCaps = kinds.iter().map(|&k| [(44, 128), (64, 182), (12, 24)][k]).collect();
        let state = arbitrary_cluster(&caps, &proposals);
        let mut shapes = DynamicCluster::from_state(&state);
        let mut scan = FullScan {
            pms: state.pms().to_vec(),
            vms: state.vms().iter().zip(state.placements()).map(|(&v, &pl)| Some((v, pl))).collect(),
        };
        let (mut rng_shapes, mut rng_scan) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for (op, (cpu, mem), double, policy) in ops {
            let (cpu, mem, numa) =
                if double { (2 * cpu, 2 * mem, NumaPolicy::Double) } else { (cpu, mem, NumaPolicy::Single) };
            match op {
                0 => {
                    let alive = shapes.alive_ids();
                    if let Some(&id) = alive.get(cpu as usize % alive.len().max(1)) {
                        shapes.exit(id).expect("alive");
                        scan.exit(id.0 as usize);
                    }
                }
                1 => {
                    shapes.random_redeploy(0.3, &mut rng_shapes).expect("redeploy");
                    scan.redeploy(0.3, &mut rng_scan);
                }
                _ => {
                    let policy = VmsPolicy::ALL[policy];
                    let vm = Vm { id: VmId(scan.vms.len() as u32), cpu, mem, numa };
                    let (mut counted, mut listed) = (rng_scan.clone(), rng_scan.clone());
                    prop_assert_eq!(
                        choose_placement(&scan.pms, &vm, VmsPolicy::Random, 16, &mut counted),
                        listed_random_slot(&scan.pms, &vm, &mut listed)
                    );
                    prop_assert_eq!(counted, listed);
                    let admitted = shapes.arrival_with_policy(cpu, mem, numa, policy, &mut rng_shapes);
                    scan.arrive(vm, policy, &mut rng_scan);
                    prop_assert_eq!(admitted.is_ok(), scan.vms.len() > vm.id.0 as usize, "{}", policy.name());
                }
            }
            let frozen = shapes.freeze().expect("freeze");
            prop_assert_eq!(frozen.pms(), &scan.pms[..]);
            prop_assert_eq!(frozen.placements(), &scan.placements()[..]);
            prop_assert_eq!(&rng_shapes, &rng_scan);
            let used: u64 = scan.pms.iter().map(|p| u64::from(p.cpu_total() - p.free_cpu())).sum();
            prop_assert_eq!(shapes.used_cpu(), used);
        }
    }

    /// Applying any sequence of (possibly illegal) migration attempts
    /// keeps the audit invariants: usage equals the sum of placements and
    /// nothing is oversubscribed. Illegal attempts must leave state
    /// untouched.
    #[test]
    fn migrations_preserve_invariants(
        seed in 0u64..20,
        moves in prop::collection::vec((0u32..60, 0u32..5), 1..25),
    ) {
        let mut state = cluster(seed);
        let n_vms = state.num_vms() as u32;
        for (vm_raw, pm_raw) in moves {
            let vm = VmId(vm_raw % n_vms);
            let pm = PmId(pm_raw);
            let before = state.clone();
            match state.migrate(vm, pm, 16) {
                Ok(_) => {}
                Err(_) => prop_assert_eq!(&state, &before, "failed migrate mutated state"),
            }
            state.audit().expect("invariants violated");
        }
        let fr = state.fragment_rate(16);
        prop_assert!((0.0..=1.0).contains(&fr));
    }

    /// Undo after a successful migration restores the exact prior state.
    #[test]
    fn undo_is_exact_inverse(
        seed in 0u64..20,
        vm_raw in 0u32..60,
        pm_raw in 0u32..5,
    ) {
        let mut state = cluster(seed);
        let vm = VmId(vm_raw % state.num_vms() as u32);
        let pm = PmId(pm_raw);
        let before = state.clone();
        if let Ok(rec) = state.migrate(vm, pm, 16) {
            state.undo(&rec).expect("undo");
            prop_assert_eq!(&state, &before);
        }
    }

    /// A cluster's state is a function of its placements. After every op
    /// of a random sequence of migrations, undos, swaps, VM adds, removes
    /// (renumbering the last VM) and resizes and PM adds on a cluster, and
    /// of steps, drains, commits and rewinds on an environment's cluster,
    /// both are canonical (`is_canonical`).
    #[test]
    fn the_reverse_index_is_a_function_of_the_placements(
        seed in 0u64..20,
        ops in prop::collection::vec((0u8..12, 0u32..60, 0u32..60), 1..40),
    ) {
        let mut state = cluster(seed);
        let mut env =
            ReschedEnv::unconstrained(cluster(seed + 20), Objective::default(), 8).expect("env");
        let mut undo: Vec<MigrationRecord> = Vec::new();
        for (kind, x, y) in ops {
            let (m, n) = (state.num_vms() as u32, state.num_pms() as u32);
            match kind {
                0 | 1 if m > 0 => {
                    if let Ok(rec) = state.migrate(VmId(x % m), PmId(y % n), 16) {
                        undo.push(rec);
                    }
                }
                2 => {
                    if let Some(rec) = undo.pop() {
                        state.undo(&rec).expect("LIFO undo");
                    }
                }
                // The ops below may take the room an undo needs, or
                // renumber a VM: the undo log starts over after them.
                3 if m > 0 => {
                    let _ = state.swap(VmId(x % m), VmId(y % m), 16);
                    undo.clear();
                }
                4 => {
                    let pl = Placement { pm: PmId(x % n), numa: NumaPlacement::Single((y % 2) as u8) };
                    let _ = state.add_vm(1 + y % 8, 1 + y % 16, NumaPolicy::Single, pl);
                    undo.clear();
                }
                5 if m > 1 => {
                    let out = state.remove_vm(VmId(x % m)).expect("id in range");
                    prop_assert_eq!(out.renumbered.is_some(), x % m != m - 1);
                    undo.clear();
                }
                6 if m > 0 => {
                    let _ = state.resize_vm(VmId(x % m), 1 + y % 12, 1 + y % 24);
                    undo.clear();
                }
                7 => {
                    state.add_pm(22 + x % 23, 64).expect("a valid PM");
                    undo.clear();
                }
                8 | 9 => {
                    let (em, en) = (env.state().num_vms() as u32, env.state().num_pms() as u32);
                    let _ = env.step(Action { vm: VmId(x % em), pm: PmId(y % en) });
                }
                10 => {
                    let pm = PmId(x % env.state().num_pms() as u32);
                    let _ = env.apply_delta(&ClusterDelta::PmDrain { pm });
                }
                11 if x % 2 == 0 => env.commit(),
                11 => env.rewind(),
                _ => {}
            }
            is_canonical(&state)?;
            is_canonical(env.state())?;
        }
    }

    /// Episode rewards telescope: the sum of dense rewards equals the
    /// total drop in fragment mass divided by the reward scale (Eq. 8-9).
    #[test]
    fn rewards_telescope_to_objective_drop(
        seed in 0u64..20,
        moves in prop::collection::vec((0u32..60, 0u32..5), 1..12),
    ) {
        let initial = cluster(seed);
        let frag_before = initial.total_cpu_fragment(16) as f64;
        let mut env = ReschedEnv::unconstrained(initial, Objective::default(), 64).expect("env");
        let mut total_reward = 0.0;
        for (vm_raw, pm_raw) in moves {
            let vm = VmId(vm_raw % env.state().num_vms() as u32);
            let action = Action { vm, pm: PmId(pm_raw) };
            if let Ok(out) = env.step(action) {
                total_reward += out.reward;
            }
        }
        let frag_after = env.state().total_cpu_fragment(16) as f64;
        prop_assert!(
            (total_reward - (frag_before - frag_after) / REWARD_SCALE).abs() < 1e-9,
            "sum of rewards {} vs fragment drop {}",
            total_reward,
            (frag_before - frag_after) / REWARD_SCALE
        );
    }

    /// Arbitrary interleavings of migrations and swaps keep the audit
    /// invariants, and failed swaps never mutate state.
    #[test]
    fn swaps_preserve_invariants(
        seed in 0u64..20,
        ops in prop::collection::vec((0u32..60, 0u32..60, prop::bool::ANY), 1..20),
    ) {
        let mut state = cluster(seed);
        let n_vms = state.num_vms() as u32;
        for (x, y, is_swap) in ops {
            let a = VmId(x % n_vms);
            let before = state.clone();
            let result = if is_swap {
                state.swap(a, VmId(y % n_vms), 16).map(|_| ())
            } else {
                state.migrate(a, PmId(y % 5), 16).map(|_| ())
            };
            if result.is_err() {
                prop_assert_eq!(&state, &before, "failed op mutated state");
            }
            state.audit().expect("invariants violated");
        }
    }

    /// A successful swap exchanges exactly the two VMs' hosts: every
    /// other placement stays, and the state stays canonical.
    #[test]
    fn swap_exchanges_exactly_the_two_hosts(
        seed in 0u64..20,
        x in 0u32..60,
        y in 0u32..60,
    ) {
        let mut state = cluster(seed);
        let n_vms = state.num_vms() as u32;
        let (a, b) = (VmId(x % n_vms), VmId(y % n_vms));
        let before = state.clone();
        if let Ok(rec) = state.swap(a, b, 16) {
            prop_assert_eq!(state.placement(a).pm, before.placement(b).pm);
            prop_assert_eq!(state.placement(b).pm, before.placement(a).pm);
            prop_assert_eq!((rec.a.to, rec.b.to), (state.placement(a), state.placement(b)));
            for k in (0..n_vms).map(VmId).filter(|&v| v != a && v != b) {
                prop_assert_eq!(state.placement(k), before.placement(k));
            }
            is_canonical(&state)?;
        }
    }

    /// Every VMS policy returns only feasible slots, and a cluster filled
    /// under any policy passes the audit.
    #[test]
    fn scheduler_policies_produce_feasible_placements(
        seed in 0u64..10,
        arrivals in prop::collection::vec((0usize..7, 0usize..4), 1..30),
    ) {
        use vmr_sim::dynamics::DynamicCluster;
        use vmr_sim::scheduler::VmsPolicy;
        use vmr_sim::types::STANDARD_VM_TYPES;
        use rand::SeedableRng;

        let base = cluster(seed);
        let mut d = DynamicCluster::from_state(&base);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for (flavor_idx, policy_idx) in arrivals {
            let flavor = STANDARD_VM_TYPES[flavor_idx % STANDARD_VM_TYPES.len()];
            let policy = VmsPolicy::ALL[policy_idx % VmsPolicy::ALL.len()];
            let _ = d.arrival_with_policy(flavor.cpu, flavor.mem, flavor.numa, policy, &mut rng);
        }
        let frozen = d.freeze().expect("freeze");
        frozen.audit().expect("audit after policy arrivals");
    }

    /// Pre-copy migration cost is monotone in memory size and bounded by
    /// the stop-copy threshold when converged.
    #[test]
    fn migration_cost_is_monotone_and_bounded(
        mem_a in 0.0f64..256.0,
        mem_b in 0.0f64..256.0,
        bandwidth in 0.5f64..16.0,
        dirty in 0.0f64..4.0,
    ) {
        use vmr_sim::migration::{migration_cost, PrecopyModel};
        let model = PrecopyModel {
            bandwidth_gib_s: bandwidth,
            dirty_rate_gib_s: dirty,
            ..PrecopyModel::default()
        };
        let (lo, hi) = if mem_a <= mem_b { (mem_a, mem_b) } else { (mem_b, mem_a) };
        let c_lo = migration_cost(lo, &model);
        let c_hi = migration_cost(hi, &model);
        prop_assert!(c_hi.transferred_gib >= c_lo.transferred_gib - 1e-9);
        prop_assert!(c_hi.precopy_secs >= c_lo.precopy_secs - 1e-9);
        for c in [c_lo, c_hi] {
            prop_assert!(c.rounds >= 1 && c.rounds <= model.max_rounds);
            if c.converged {
                let bound_ms = model.stop_copy_threshold_gib / model.bandwidth_gib_s * 1e3;
                prop_assert!(c.downtime_ms <= bound_ms + 1e-9);
            }
        }
    }

    /// Plan scheduling respects its bounds for arbitrary legal plans:
    /// max individual duration ≤ makespan ≤ sequential sum.
    #[test]
    fn schedule_plan_bounds(seed in 0u64..10, len in 1usize..10, streams in 1u32..5) {
        use vmr_sim::migration::{schedule_plan, NicLimits, PrecopyModel};
        let state = cluster(seed);
        // Deterministically build up to `len` legal migrations.
        let mut work = state.clone();
        let mut plan = Vec::new();
        'fill: for k in 0..work.num_vms() {
            for i in 0..work.num_pms() {
                let (vm, pm) = (VmId(k as u32), PmId(i as u32));
                if work.placement(vm).pm != pm && work.migrate(vm, pm, 16).is_ok() {
                    plan.push(Action { vm, pm });
                    if plan.len() == len {
                        break 'fill;
                    }
                    break;
                }
            }
        }
        prop_assume!(!plan.is_empty());
        let sched = schedule_plan(
            &state,
            &plan,
            &PrecopyModel::default(),
            NicLimits { streams_per_pm: streams },
        ).expect("schedulable");
        let longest = sched.migrations.iter().map(|m| m.cost.total_secs()).fold(0.0, f64::max);
        prop_assert!(sched.makespan_secs >= longest - 1e-9);
        prop_assert!(sched.makespan_secs <= sched.sequential_secs + 1e-9);
        prop_assert!(sched.total_downtime_ms >= 0.0);
    }

    /// One legality rule, checked against a brute force kept here: for
    /// every (vm, pm) of an arbitrary cluster under pins and conflicts,
    /// unknown ids included, `migration_legal` returns exactly the
    /// reference's answer — error variant and payload, the smallest-id
    /// conflicting partner included — where the reference is an unknown
    /// id, the pin, `migrate` on a clone, then a scan of the
    /// destination's `vms_on` for a partner; `pm_mask_into` is `Ok` of
    /// it per PM, `has_legal_destination` and `vm_mask_into(.., true)`
    /// its `any` over PMs, and `vm_mask_into(.., false)` the pin.
    #[test]
    fn masks_agree_with_legality(
        caps in prop::collection::vec((4u32..48, 8u32..128), 1..5),
        proposals in prop::collection::vec(((1u32..24, 1u32..64), prop::bool::ANY, 0usize..4, 0u8..2), 0..24),
        conflicts in prop::collection::vec((0u32..24, 0u32..24), 0..12),
        pins in prop::collection::vec(0u32..24, 0..3),
    ) {
        let state = arbitrary_cluster(&caps, &proposals);
        let n_vms = state.num_vms() as u32;
        let pairs: Vec<(VmId, VmId)> =
            conflicts.iter().filter(|_| n_vms > 0).map(|&(a, b)| (VmId(a % n_vms), VmId(b % n_vms))).collect();
        let pinned: Vec<VmId> = pins.iter().filter(|_| n_vms > 0).map(|&p| VmId(p % n_vms)).collect();
        let mut cs = ConstraintSet::new(state.num_vms());
        for &(a, b) in &pairs {
            cs.add_conflict(a, b).expect("in range");
        }
        for &p in &pinned {
            cs.pin(p).expect("in range");
        }
        let partners = |a: VmId, b: VmId| a != b && (pairs.contains(&(a, b)) || pairs.contains(&(b, a)));
        let reference = |vm: VmId, pm: PmId| -> Result<(), SimError> {
            state.check_vm(vm)?;
            state.check_pm(pm)?;
            if pinned.contains(&vm) {
                return Err(SimError::NumaPolicyViolation(vm));
            }
            state.clone().migrate(vm, pm, 16)?;
            match state.vms_on(pm).iter().copied().find(|&other| partners(vm, other)) {
                Some(conflicting) => Err(SimError::AntiAffinityViolation { vm, conflicting }),
                None => Ok(()),
            }
        };
        let mut mask = Vec::new();
        let mut any = Vec::new();
        for k in 0..=n_vms {
            let vm = VmId(k);
            let expect: Vec<_> = (0..=state.num_pms() as u32).map(|i| reference(vm, PmId(i))).collect();
            for (i, want) in expect.iter().enumerate() {
                prop_assert_eq!(&cs.migration_legal(&state, vm, PmId(i as u32)), want, "vm {} pm {}", k, i);
            }
            cs.pm_mask_into(&state, vm, &mut mask);
            let legal: Vec<bool> = expect[..state.num_pms()].iter().map(Result::is_ok).collect();
            prop_assert_eq!(&mask, &legal, "pm mask of vm {}", k);
            let has = legal.contains(&true);
            prop_assert_eq!(cs.has_legal_destination(&state, vm), has, "vm {}", k);
            if k < n_vms {
                any.push(has);
            }
        }
        cs.vm_mask_into(&state, true, &mut mask);
        prop_assert_eq!(&mask, &any);
        cs.vm_mask_into(&state, false, &mut mask);
        let free: Vec<bool> = (0..n_vms).map(|k| !pinned.contains(&VmId(k))).collect();
        prop_assert_eq!(&mask, &free);
    }
}
