//! Shard-parallel fleet planning: deterministic PM-sharding, subcluster
//! extraction with id re-mapping, global migration-budget accounting, and
//! a generic [`fleet_plan`] driver that runs any per-shard planner on
//! scoped worker threads and stitches the sub-plans back together.
//!
//! The deployment constraint this module exists to honor is the paper's
//! *global* migration-number limit (MNL): operators budget migrations for
//! the whole fleet, not per partition. Every path through this module
//! therefore routes its spending through one [`MnlLedger`] — sub-budgets
//! are derived by largest-remainder apportionment (never a per-shard
//! round-up), stitching debits the ledger per applied migration, and the
//! optional cross-shard refinement pass can only spend what is left.
//!
//! Determinism is load-bearing: for a fixed configuration the stitched
//! plan is **byte-identical for any worker count** (shards are solved
//! independently, results are collected by shard index, and stitching is
//! a fixed round-robin), which is what lets the serving layer memoize
//! fleet plans and what `crates/solver/tests/prop_fleet.rs` enforces.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cluster::ClusterState;
use crate::constraints::ConstraintSet;
use crate::env::Action;
use crate::machine::{Placement, Pm, Vm};
use crate::objective::Objective;
use crate::types::{PmId, VmId};

/// A subcluster extracted from a global state, with id re-mappings.
///
/// Promoted from the POP baseline's private machinery: any partitioned
/// planner (POP, the fleet planner, future hierarchical schemes) shares
/// this one extraction and its invariants.
pub struct SubCluster {
    /// The reindexed subcluster state.
    pub state: ClusterState,
    /// Constraints restricted to the subcluster's VMs.
    pub constraints: ConstraintSet,
    /// Sub VM id → global VM id.
    pub vm_map: Vec<VmId>,
    /// Sub PM id → global PM id.
    pub pm_map: Vec<PmId>,
}

/// Restricts a cluster to a subset of PMs (VMs follow their host PM).
/// Returns `None` if reconstruction fails (cannot happen for consistent
/// inputs; defensive).
///
/// VM sub-ids are assigned in **ascending global VM id** order, so a
/// sub-cluster, and every order-sensitive planner run on it (the agent's
/// featurization, bnb tie-breaks), is a function of the placements and
/// of `pm_subset` alone.
pub fn extract_subcluster(
    state: &ClusterState,
    constraints: &ConstraintSet,
    pm_subset: &[u32],
) -> Option<SubCluster> {
    let mut pm_map = Vec::with_capacity(pm_subset.len());
    let mut pm_rev = vec![None; state.num_pms()];
    let mut pms: Vec<Pm> = Vec::with_capacity(pm_subset.len());
    for (new_id, &old) in pm_subset.iter().enumerate() {
        let mut pm = state.pm(PmId(old)).clone();
        pm.id = PmId(new_id as u32);
        pm_rev[old as usize] = Some(new_id as u32);
        pm_map.push(PmId(old));
        pms.push(pm);
    }
    let mut vms: Vec<Vm> = Vec::new();
    let mut placements: Vec<Placement> = Vec::new();
    let mut vm_map = Vec::new();
    let mut vm_rev = vec![None; state.num_vms()];
    for (old_idx, rev) in vm_rev.iter_mut().enumerate() {
        let vm_id = VmId(old_idx as u32);
        let old_pl = state.placement(vm_id);
        let Some(new_pm) = pm_rev[old_pl.pm.0 as usize] else {
            continue; // hosted outside this shard
        };
        let mut vm = *state.vm(vm_id);
        *rev = Some(vms.len() as u32);
        vm.id = VmId(vms.len() as u32);
        vm_map.push(vm_id);
        vms.push(vm);
        placements.push(Placement { pm: PmId(new_pm), numa: old_pl.numa });
    }
    let mut sub_cs = ConstraintSet::new(vms.len());
    for (new_idx, &old_id) in vm_map.iter().enumerate() {
        if constraints.is_pinned(old_id) {
            sub_cs.pin(VmId(new_idx as u32)).ok()?;
        }
        for &other in constraints.conflicts_of(old_id) {
            if let Some(new_other) = vm_rev[other.0 as usize] {
                sub_cs.add_conflict(VmId(new_idx as u32), VmId(new_other)).ok()?;
            }
        }
    }
    let state = ClusterState::new(pms, vms, placements).ok()?;
    Some(SubCluster { state, constraints: sub_cs, vm_map, pm_map })
}

/// How PMs are dealt into shards. All strategies are deterministic given
/// their inputs (including the seed for [`ShardStrategy::Random`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Uniformly shuffle PM ids, then deal them round-robin — the POP
    /// baseline's partitioning (Narayanan et al., SOSP '21).
    Random,
    /// Contiguous id ranges: shard `i` gets PMs `[i·n/k, (i+1)·n/k)`.
    /// Matches rack/zone-ordered fleets where neighboring ids share
    /// failure domains.
    Contiguous,
    /// Deal PMs in descending fragment-score order, boustrophedon
    /// (snake) across shards, so every shard receives a comparable mix
    /// of badly- and well-packed machines. This is the default for the
    /// fleet planner: balanced shards keep per-shard planners equally
    /// busy and leave the least cross-shard slack on the table.
    FragBalanced,
}

/// Partitions the PM ids of `state` into `shards` disjoint groups.
///
/// Every PM lands in exactly one group; group order (and order within a
/// group) is deterministic. `seed` only matters for
/// [`ShardStrategy::Random`]; `objective` only for
/// [`ShardStrategy::FragBalanced`].
pub fn partition_pms(
    state: &ClusterState,
    strategy: ShardStrategy,
    shards: usize,
    seed: u64,
    objective: Objective,
) -> Vec<Vec<u32>> {
    let n = state.num_pms();
    let k = shards.clamp(1, n.max(1));
    let mut groups: Vec<Vec<u32>> = vec![Vec::with_capacity(n.div_ceil(k)); k];
    match strategy {
        ShardStrategy::Random => {
            let mut pm_ids: Vec<u32> = (0..n as u32).collect();
            pm_ids.shuffle(&mut StdRng::seed_from_u64(seed));
            for (i, pm) in pm_ids.into_iter().enumerate() {
                groups[i % k].push(pm);
            }
        }
        ShardStrategy::Contiguous => {
            for pm in 0..n as u32 {
                // Balanced ranges: the first n % k shards get one extra.
                let (q, r) = (n / k, n % k);
                let pm_us = pm as usize;
                let shard = if pm_us < r * (q + 1) {
                    pm_us / (q + 1)
                } else {
                    r + (pm_us - r * (q + 1)) / q.max(1)
                };
                groups[shard.min(k - 1)].push(pm);
            }
        }
        ShardStrategy::FragBalanced => {
            let mut scored: Vec<(u32, f64)> =
                (0..n as u32).map(|pm| (pm, objective.pm_score(state, PmId(pm)))).collect();
            // Descending score, PM id as the deterministic tie-break.
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            for (i, (pm, _)) in scored.into_iter().enumerate() {
                let round = i / k;
                let pos = i % k;
                let shard = if round.is_multiple_of(2) { pos } else { k - 1 - pos };
                groups[shard].push(pm);
            }
        }
    }
    groups
}

/// Splits a global migration budget across shards by largest-remainder
/// (Hamilton) apportionment over `weights` (typically shard VM counts).
///
/// Guarantees `Σ result ≤ mnl` — exactly `mnl` when any weight is
/// positive — with no per-shard round-up and **no minimum floor**: a
/// shard whose fair share rounds to zero gets zero, unlike the old POP
/// `round().max(1)` which could overdraw the global budget by up to the
/// partition count.
pub fn apportion_mnl(mnl: usize, weights: &[usize]) -> Vec<usize> {
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if total == 0 || mnl == 0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<usize> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let num = mnl as u128 * w as u128;
        let base = (num / total) as usize;
        shares.push(base);
        assigned += base;
        remainders.push((num % total, i));
    }
    // Hand the leftover seats to the largest remainders; index breaks
    // ties deterministically.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in remainders.iter().take(mnl.saturating_sub(assigned)) {
        shares[i] += 1;
    }
    shares
}

/// The single global migration-budget ledger every fleet path debits.
///
/// The ledger is the enforcement point for the paper's deployment
/// constraint: however sub-budgets were derived, no migration reaches
/// the stitched plan without a successful [`MnlLedger::debit`].
#[derive(Debug, Clone, Copy)]
pub struct MnlLedger {
    budget: usize,
    spent: usize,
}

impl MnlLedger {
    /// A ledger holding `mnl` migrations of budget.
    pub fn new(mnl: usize) -> Self {
        MnlLedger { budget: mnl, spent: 0 }
    }

    /// Attempts to spend one migration; `false` when exhausted.
    pub fn debit(&mut self) -> bool {
        if self.spent < self.budget {
            self.spent += 1;
            true
        } else {
            false
        }
    }

    /// Migrations still available.
    pub fn remaining(&self) -> usize {
        self.budget - self.spent
    }

    /// Migrations spent so far.
    pub fn spent(&self) -> usize {
        self.spent
    }
}

/// Fleet-planning configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of shards (clamped to `[1, num_pms]`).
    pub shards: usize,
    /// PM-sharding strategy.
    pub strategy: ShardStrategy,
    /// Seed for [`ShardStrategy::Random`] partitioning.
    pub seed: u64,
    /// Worker threads solving shards (`0` = all available cores). The
    /// stitched plan does not depend on this — workers only claim shard
    /// indices; results are combined in shard order.
    pub workers: usize,
    /// Run the cross-shard refinement pass on leftover budget.
    pub refine: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 16,
            strategy: ShardStrategy::FragBalanced,
            seed: 0,
            workers: 0,
            refine: true,
        }
    }
}

/// Outcome of a [`fleet_plan`] run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The stitched global plan, in execution order. Never longer than
    /// the requested global MNL.
    pub plan: Vec<Action>,
    /// Objective value after applying `plan` to the initial state.
    pub objective: f64,
    /// Shards actually planned (after clamping).
    pub shards: usize,
    /// Per-shard sub-plan lengths before stitching.
    pub sub_plan_lens: Vec<usize>,
    /// Migrations contributed by the cross-shard refinement pass.
    pub refined: usize,
    /// Wall-clock time.
    pub elapsed: std::time::Duration,
}

/// Plans migrations for a whole fleet by sharding: partition the PMs,
/// solve every shard independently (in parallel across `cfg.workers`
/// scoped threads), stitch the sub-plans back through the id maps under
/// one global [`MnlLedger`], and optionally spend leftover budget on a
/// cross-shard refinement pass over the globally worst PMs.
///
/// `solve` receives `(shard_index, subcluster, sub_mnl)` and returns a
/// plan **in subcluster ids**; it must be deterministic in its inputs
/// for the worker-count invariance guarantee to hold. Sub-plan actions
/// beyond the shard's apportioned share are tolerated (the ledger caps
/// globally, round-robin across shards so one overdrawing shard cannot
/// starve the others), as are actions that fail to replay (skipped).
pub fn fleet_plan<F>(
    initial: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    mnl: usize,
    cfg: &FleetConfig,
    solve: F,
) -> FleetOutcome
where
    F: Fn(usize, &SubCluster, usize) -> Vec<Action> + Sync,
{
    let start = std::time::Instant::now();
    let groups = partition_pms(initial, cfg.strategy, cfg.shards, cfg.seed, objective);
    let k = groups.len();
    let subs: Vec<Option<SubCluster>> = groups
        .iter()
        .map(|g| extract_subcluster(initial, constraints, g).filter(|sub| sub.state.num_vms() > 0))
        .collect();
    let weights: Vec<usize> =
        subs.iter().map(|s| s.as_ref().map_or(0, |s| s.state.num_vms())).collect();
    let sub_mnls = apportion_mnl(mnl, &weights);

    // Solve shards on scoped workers. Each worker claims the next shard
    // index from an atomic counter and publishes into its slot, so the
    // combined result is independent of worker count and scheduling.
    let slots: Vec<OnceLock<Vec<Action>>> = (0..k).map(|_| OnceLock::new()).collect();
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.workers
    }
    .min(k)
    .max(1);
    let run_shard = |i: usize| -> Vec<Action> {
        match &subs[i] {
            Some(sub) if sub_mnls[i] > 0 => solve(i, sub, sub_mnls[i]),
            _ => Vec::new(),
        }
    };
    if workers == 1 {
        for (i, slot) in slots.iter().enumerate() {
            slot.set(run_shard(i)).expect("slot set once");
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= k {
                        break;
                    }
                    slots[i].set(run_shard(i)).expect("slot set once");
                });
            }
        });
    }
    let sub_plans: Vec<Vec<Action>> =
        slots.into_iter().map(|s| s.into_inner().expect("every shard solved")).collect();
    let sub_plan_lens: Vec<usize> = sub_plans.iter().map(Vec::len).collect();

    // Stitch under the global ledger: round-robin one migration per
    // shard per round, so a shard whose sub-plan exceeds its share can
    // never overdraw the budget at the expense of the others.
    let mut state = initial.clone();
    let mut ledger = MnlLedger::new(mnl);
    let mut plan = Vec::with_capacity(mnl.min(sub_plan_lens.iter().sum()));
    let mut cursors = vec![0usize; k];
    let frag = objective.frag_cores();
    'stitch: loop {
        let mut progressed = false;
        for (i, sub_plan) in sub_plans.iter().enumerate() {
            let Some(&a) = sub_plan.get(cursors[i]) else {
                continue;
            };
            cursors[i] += 1;
            progressed = true;
            let Some(sub) = &subs[i] else { continue };
            let global =
                Action { vm: sub.vm_map[a.vm.0 as usize], pm: sub.pm_map[a.pm.0 as usize] };
            if ledger.remaining() == 0 {
                break 'stitch;
            }
            // Shards are PM-disjoint so sub-plans cannot conflict, but
            // re-check defensively; a failed replay does not spend budget.
            if constraints.migration_legal(&state, global.vm, global.pm).is_ok()
                && state.migrate(global.vm, global.pm, frag).is_ok()
            {
                assert!(ledger.debit(), "remaining() was checked above");
                plan.push(global);
            }
        }
        if !progressed {
            break;
        }
    }

    // Cross-shard refinement: sharding hides moves between partitions;
    // spend whatever budget is left on globally-chosen single migrations
    // sourced from the worst PMs — exactly the moves partitioned
    // planning structurally cannot see.
    let refined = if cfg.refine {
        refine_cross_shard(&mut state, constraints, objective, &mut ledger, &mut plan)
    } else {
        0
    };

    FleetOutcome {
        objective: objective.value(&state),
        plan,
        shards: k,
        sub_plan_lens,
        refined,
        elapsed: start.elapsed(),
    }
}

/// How many of the worst-scoring PMs the refinement pass considers as
/// migration sources per step. Small and fixed: the pass must stay cheap
/// on 10k-PM fleets (candidates ≈ `REFINE_SOURCES · VMs-per-PM`).
const REFINE_SOURCES: usize = 8;

/// Greedy cross-shard repair: while budget remains, take the single
/// legal migration (source restricted to the `REFINE_SOURCES` worst PMs)
/// with the largest strict objective improvement. Deterministic: scan
/// order is index order and improvements must be strictly better to
/// displace the incumbent.
fn refine_cross_shard(
    state: &mut ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    ledger: &mut MnlLedger,
    plan: &mut Vec<Action>,
) -> usize {
    let frag = objective.frag_cores();
    let mut refined = 0;
    let mut mask = Vec::new();
    while ledger.remaining() > 0 {
        // Worst source PMs by score (ties broken by id).
        let mut scored: Vec<(f64, u32)> = (0..state.num_pms() as u32)
            .map(|pm| (objective.pm_score(state, PmId(pm)), pm))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        scored.truncate(REFINE_SOURCES);
        let mut best: Option<(f64, Action)> = None;
        for &(_, src) in &scored {
            // Ascending-id candidate order (the reverse index's): with
            // strict-improvement tie-breaking the first of two equal-gain
            // candidates wins.
            for &vm in state.vms_on(PmId(src)) {
                if constraints.is_pinned(vm) {
                    continue;
                }
                constraints.pm_mask_into(state, vm, &mut mask);
                for (j, &legal) in mask.iter().enumerate() {
                    let dest = PmId(j as u32);
                    if !legal || dest == PmId(src) {
                        continue;
                    }
                    let Some(gain) = objective.move_gain(state, vm, dest) else { continue };
                    if gain > 1e-12 && best.is_none_or(|(bg, _)| gain > bg) {
                        best = Some((gain, Action { vm, pm: dest }));
                    }
                }
            }
        }
        let Some((_, action)) = best else { break };
        if state.migrate(action.vm, action.pm, frag).is_err() {
            break; // defensive: legality was checked via the mask
        }
        assert!(ledger.debit(), "the loop condition leaves budget");
        plan.push(action);
        refined += 1;
    }
    refined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_mapping, ClusterConfig};

    fn state() -> ClusterState {
        generate_mapping(&ClusterConfig::tiny(), 21).unwrap()
    }

    #[test]
    fn subcluster_preserves_local_structure() {
        let s = state();
        let cs = ConstraintSet::new(s.num_vms());
        let sub = extract_subcluster(&s, &cs, &[0, 2, 4]).unwrap();
        sub.state.audit().unwrap();
        assert_eq!(sub.state.num_pms(), 3);
        for (new_idx, old_id) in sub.vm_map.iter().enumerate() {
            let a = sub.state.vm(VmId(new_idx as u32));
            let b = s.vm(*old_id);
            assert_eq!((a.cpu, a.mem, a.numa), (b.cpu, b.mem, b.numa));
        }
        let expect: u64 = [0u32, 2, 4].iter().map(|&i| s.pm(PmId(i)).cpu_fragment(16) as u64).sum();
        assert_eq!(sub.state.total_cpu_fragment(16), expect);
    }

    #[test]
    fn subcluster_restricts_constraints() {
        let s = state();
        let mut cs = ConstraintSet::new(s.num_vms());
        let on0 = s.vms_on(PmId(0)).to_vec();
        if on0.len() >= 2 {
            cs.pin(on0[0]).unwrap();
            cs.add_conflict(on0[0], on0[1]).unwrap();
        }
        let sub = extract_subcluster(&s, &cs, &[0]).unwrap();
        if on0.len() >= 2 {
            let new0 = sub.vm_map.iter().position(|&v| v == on0[0]).unwrap();
            let new1 = sub.vm_map.iter().position(|&v| v == on0[1]).unwrap();
            assert!(sub.constraints.is_pinned(VmId(new0 as u32)));
            assert!(sub.constraints.conflicts_of(VmId(new0 as u32)).contains(&VmId(new1 as u32)));
        }
    }

    #[test]
    fn extraction_is_invariant_to_reverse_index_order() {
        // A migrate/undo cycle restores the cluster exactly, and so the
        // subcluster — byte for byte — or fleet plans would differ
        // between two calls on a rewound serving environment.
        let mut s = state();
        let cs = ConstraintSet::new(s.num_vms());
        let pristine = extract_subcluster(&s, &cs, &[0, 1, 2, 3, 4, 5]).unwrap();
        let mut cycled = false;
        'outer: for v in 0..s.num_vms() as u32 {
            for p in 0..s.num_pms() as u32 {
                if s.placement(VmId(v)).pm != PmId(p) {
                    if let Ok(rec) = s.migrate(VmId(v), PmId(p), 16) {
                        s.undo(&rec).unwrap();
                        cycled = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(cycled, "need at least one legal migrate/undo cycle");
        assert_eq!(s, state());
        let again = extract_subcluster(&s, &cs, &[0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(pristine.vm_map, again.vm_map);
        assert_eq!(pristine.state.placements(), again.state.placements());
        assert_eq!(pristine.state.vms(), again.state.vms());
    }

    #[test]
    fn partitions_cover_every_pm_exactly_once() {
        let s = state();
        for strategy in
            [ShardStrategy::Random, ShardStrategy::Contiguous, ShardStrategy::FragBalanced]
        {
            for k in [1, 2, 3, 6, 100] {
                let groups = partition_pms(&s, strategy, k, 9, Objective::default());
                let mut seen: Vec<u32> = groups.iter().flatten().copied().collect();
                seen.sort_unstable();
                let want: Vec<u32> = (0..s.num_pms() as u32).collect();
                assert_eq!(seen, want, "{strategy:?} k={k}");
                assert_eq!(groups.len(), k.min(s.num_pms()));
            }
        }
    }

    #[test]
    fn partition_sizes_are_balanced() {
        let s = state();
        for strategy in
            [ShardStrategy::Random, ShardStrategy::Contiguous, ShardStrategy::FragBalanced]
        {
            let groups = partition_pms(&s, strategy, 4, 0, Objective::default());
            let (min, max) = groups
                .iter()
                .fold((usize::MAX, 0), |(lo, hi), g| (lo.min(g.len()), hi.max(g.len())));
            assert!(max - min <= 1, "{strategy:?} sizes {:?}", groups.iter().map(Vec::len));
        }
    }

    #[test]
    fn apportionment_never_exceeds_budget() {
        assert_eq!(apportion_mnl(10, &[1, 1, 1, 1]).iter().sum::<usize>(), 10);
        assert_eq!(apportion_mnl(10, &[]), Vec::<usize>::new());
        assert_eq!(apportion_mnl(10, &[0, 0]), vec![0, 0]);
        assert_eq!(apportion_mnl(0, &[5, 5]), vec![0, 0]);
        // The POP overdraw case: 3 partitions, budget 2 — the old
        // round().max(1) scheme would hand out 3.
        let shares = apportion_mnl(2, &[10, 10, 10]);
        assert_eq!(shares.iter().sum::<usize>(), 2);
        // Proportionality: a dominant weight takes the lion's share.
        let shares = apportion_mnl(10, &[97, 1, 1, 1]);
        assert!(shares[0] >= 7, "{shares:?}");
        assert_eq!(shares.iter().sum::<usize>(), 10);
    }

    #[test]
    fn ledger_caps_spending() {
        let mut ledger = MnlLedger::new(2);
        assert!(ledger.debit());
        assert!(ledger.debit());
        assert!(!ledger.debit());
        assert_eq!(ledger.remaining(), 0);
        assert_eq!(ledger.spent(), 2);
    }

    /// A deterministic toy per-shard planner: best single improving
    /// migration per budget unit, greedy.
    fn greedy_shard_solver(sub: &SubCluster, sub_mnl: usize) -> Vec<Action> {
        let mut state = sub.state.clone();
        let obj = Objective::default();
        let mut plan = Vec::new();
        for _ in 0..sub_mnl {
            let mut best: Option<(f64, Action)> = None;
            for v in 0..state.num_vms() as u32 {
                for p in 0..state.num_pms() as u32 {
                    let (vm, pm) = (VmId(v), PmId(p));
                    if sub.constraints.migration_legal(&state, vm, pm).is_err() {
                        continue;
                    }
                    let before = obj.value(&state);
                    let Ok(rec) = state.migrate(vm, pm, 16) else { continue };
                    let gain = before - obj.value(&state);
                    state.undo(&rec).unwrap();
                    if gain > 1e-12 && best.is_none_or(|(bg, _)| gain > bg) {
                        best = Some((gain, Action { vm, pm }));
                    }
                }
            }
            let Some((_, a)) = best else { break };
            state.migrate(a.vm, a.pm, 16).unwrap();
            plan.push(a);
        }
        plan
    }

    #[test]
    fn fleet_plan_is_legal_within_budget_and_worker_invariant() {
        let s = state();
        let cs = ConstraintSet::new(s.num_vms());
        let mnl = 5;
        let cfg = FleetConfig { shards: 3, workers: 1, ..Default::default() };
        let out = fleet_plan(&s, &cs, Objective::default(), mnl, &cfg, |_, sub, m| {
            greedy_shard_solver(sub, m)
        });
        assert!(out.plan.len() <= mnl, "global MNL respected");
        // Replay: legal and reaches the reported objective.
        let mut replay = s.clone();
        for a in &out.plan {
            cs.migration_legal(&replay, a.vm, a.pm).unwrap();
            replay.migrate(a.vm, a.pm, 16).unwrap();
        }
        assert!((Objective::default().value(&replay) - out.objective).abs() < 1e-12);
        assert!(out.objective <= s.fragment_rate(16) + 1e-12);
        // Worker-count invariance, the serving-layer memoization license.
        for workers in [2, 3, 5] {
            let cfg_n = FleetConfig { workers, ..cfg };
            let out_n = fleet_plan(&s, &cs, Objective::default(), mnl, &cfg_n, |_, sub, m| {
                greedy_shard_solver(sub, m)
            });
            assert_eq!(out.plan, out_n.plan, "workers={workers}");
        }
    }

    #[test]
    fn refinement_only_spends_leftover_budget() {
        let s = state();
        let cs = ConstraintSet::new(s.num_vms());
        // Per-shard planner that returns nothing: all budget is leftover
        // and the refinement pass gets to spend it.
        let cfg = FleetConfig { shards: 3, workers: 1, ..Default::default() };
        let out = fleet_plan(&s, &cs, Objective::default(), 4, &cfg, |_, _, _| Vec::new());
        assert_eq!(out.refined, out.plan.len());
        assert!(out.plan.len() <= 4);
        // Every refinement move improves the objective.
        let mut replay = s.clone();
        let mut prev = Objective::default().value(&replay);
        for a in &out.plan {
            replay.migrate(a.vm, a.pm, 16).unwrap();
            let now = Objective::default().value(&replay);
            assert!(now < prev - 1e-12, "refinement move must strictly improve");
            prev = now;
        }
        // Refinement disabled: nothing happens.
        let cfg_off = FleetConfig { refine: false, ..cfg };
        let out_off = fleet_plan(&s, &cs, Objective::default(), 4, &cfg_off, |_, _, _| Vec::new());
        assert!(out_off.plan.is_empty());
        assert_eq!(out_off.refined, 0);
    }

    #[test]
    fn overdrawing_shard_cannot_exceed_global_budget() {
        let s = state();
        let cs = ConstraintSet::new(s.num_vms());
        // An ill-behaved planner that ignores its sub-budget entirely.
        let cfg = FleetConfig { shards: 2, workers: 1, refine: false, ..Default::default() };
        let out = fleet_plan(&s, &cs, Objective::default(), 3, &cfg, |_, sub, _| {
            greedy_shard_solver(sub, 50)
        });
        assert!(out.plan.len() <= 3, "ledger caps an overdrawing shard: {}", out.plan.len());
        let mut replay = s.clone();
        for a in &out.plan {
            replay.migrate(a.vm, a.pm, 16).unwrap();
        }
    }
}
