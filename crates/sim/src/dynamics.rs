//! Dynamic cluster: arrivals, exits, and the solution-staleness replay
//! behind Fig. 5 of the paper.
//!
//! While a rescheduling algorithm "thinks", production VMS keeps placing
//! new VMs and finished VMs exit; a plan computed against a stale snapshot
//! partially fails to deploy (paper footnote 7: a migration is dropped if
//! the VM exited or the destination no longer fits). [`DynamicCluster`]
//! models exactly that process, and [`staleness_experiment`] measures the
//! achieved fragment rate as a function of solver latency.
//!
//! It is also the generator of every dataset cluster, so it places an
//! arrival over PM *shapes*, not PMs (see `Shapes`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{fragment_ratio, ClusterState};
use crate::dataset::VmMix;
use crate::env::Action;
use crate::error::{SimError, SimResult};
use crate::machine::{Placement, Pm, Vm};
use crate::scheduler::{best_fit, best_fit_on, choose_placement, draw_slot, fitting, VmsPolicy};
use crate::trace::DiurnalModel;
use crate::types::{NumaPlacement, NumaPolicy, PmId, VmId, NUMA_PER_PM};

/// A PM's free-resource shape: each NUMA node's total and used CPU and
/// memory, two to a word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape([u64; 2 * NUMA_PER_PM]);

fn shape(pm: &Pm) -> Shape {
    let pair = |a: u32, b: u32| u64::from(a) << 32 | u64::from(b);
    let [n0, n1] = pm.numas;
    Shape([
        pair(n0.cpu_total, n0.mem_total),
        pair(n0.cpu_used, n0.mem_used),
        pair(n1.cpu_total, n1.mem_total),
        pair(n1.cpu_used, n1.mem_used),
    ])
}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.iter().for_each(|&word| state.write_u64(word));
    }
}

/// The shape index's hasher: FxHash's rotate-xor-multiply over the
/// shape's four words. With std's SipHash (or a `BTreeMap`) the index
/// cost more than a small fleet's scan. Shapes can come from a dataset
/// file, but colliding ones only bring a placement back to O(PMs), what
/// the scan always cost.
#[derive(Default)]
struct ShapeHasher(u64);

impl ShapeHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for ShapeHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b.into()));
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The PMs of a [`DynamicCluster`] grouped by [`Shape`]. Built by the
/// cluster's first placement decision, then kept current through every
/// allocation and release.
///
/// PMs of one shape have the same fits and the same fragments, so a
/// group's lowest-id PM dominates the group under every deterministic
/// [`VmsPolicy`]: best fit keeps the smallest (fragment, id), first fit
/// the first feasible PM in id order, worst fit the largest (free CPU,
/// reverse id). A placement decision therefore sees one representative
/// per shape, in ascending id (`reps`), and picks the same
/// (PM, placement) as a scan over every PM. The random policy weighs a
/// shape by its size (`Shapes::random_slot`).
#[derive(Debug, Clone, Default)]
struct Shapes {
    /// Each shape's group, a slot of `groups`.
    index: HashMap<Shape, usize, BuildHasherDefault<ShapeHasher>>,
    /// Each group's size and lowest PM id; an emptied group is a free slot.
    groups: Vec<Group>,
    /// The free slots of `groups`.
    free: Vec<usize>,
    /// The group of each PM.
    group_of: Vec<usize>,
    /// Each group's lowest-id PM, in ascending id: its representative.
    reps: Vec<Pm>,
}

#[cfg(test)]
impl Shapes {
    /// Panics unless this index is the one a fresh build over `pms`
    /// gives: the same representatives, every PM filed under its own
    /// shape, in a group of the same size and lowest id.
    fn assert_fresh(&self, pms: &[Pm]) {
        let fresh = Shapes::new(pms);
        assert_eq!(self.reps, fresh.reps);
        assert_eq!(self.index.len(), fresh.index.len());
        for (id, pm) in pms.iter().enumerate() {
            let g = self.group_of[id];
            assert_eq!(self.index.get(&shape(pm)), Some(&g), "PM {id} under another shape");
            let (mine, theirs) = (self.groups[g], fresh.groups[fresh.group_of[id]]);
            assert_eq!((mine.len, mine.rep), (theirs.len, theirs.rep), "PM {id}'s group");
        }
    }
}

/// One shape's PMs: how many, and the lowest id.
#[derive(Debug, Clone, Copy)]
struct Group {
    len: usize,
    rep: u32,
}

impl Shapes {
    fn new(pms: &[Pm]) -> Self {
        let mut shapes = Shapes { group_of: vec![0; pms.len()], ..Shapes::default() };
        for pm in pms {
            if shapes.join(pm).0 {
                shapes.reps.push(pm.clone());
            }
        }
        shapes
    }

    /// [`VmsPolicy::Random`] over shapes: the draw [`choose_placement`]
    /// makes over every PM ([`draw_slot`]), with each PM's slot count
    /// taken from its shape's representative. `slots` is the caller's
    /// buffer for the per-group counts, so a redeploy reuses one.
    fn random_slot<R: Rng + ?Sized>(
        &self,
        pms: &[Pm],
        vm: &Vm,
        slots: &mut Vec<usize>,
        rng: &mut R,
    ) -> Option<(PmId, NumaPlacement)> {
        slots.clear();
        slots.resize(self.groups.len(), 0);
        let mut total = 0;
        for rep in &self.reps {
            let g = self.group_of[rep.id.0 as usize];
            slots[g] = fitting(rep, vm).count();
            total += slots[g] * self.groups[g].len;
        }
        draw_slot(pms, vm, total, |pm| slots[self.group_of[pm.id.0 as usize]], rng)
    }

    fn rep_at(&self, id: PmId) -> Result<usize, usize> {
        self.reps.binary_search_by_key(&id, |p| p.id)
    }

    /// `pms[id]` changed from shape `old`: it moves to its new shape's
    /// group, and the representatives of both groups follow.
    fn moved(&mut self, pms: &[Pm], id: PmId, old: &Shape) {
        let pm = &pms[id.0 as usize];
        let (was_rep, next) = self.leave(id, old);
        let (is_rep, displaced) = self.join(pm);
        match (was_rep, is_rep) {
            (true, true) => {
                let at = self.rep_at(id).expect("a group's rep is listed");
                self.reps[at] = pm.clone();
            }
            (true, false) => {
                let at = self.rep_at(id).expect("a group's rep is listed");
                self.reps.remove(at);
            }
            (false, true) => {
                let at = self.rep_at(id).expect_err("one rep per PM");
                self.reps.insert(at, pm.clone());
            }
            (false, false) => {}
        }
        if let Some(next) = next {
            let at = self.rep_at(PmId(next)).expect_err("one rep per PM");
            self.reps.insert(at, pms[next as usize].clone());
        }
        if let Some(displaced) = displaced {
            let at = self.rep_at(PmId(displaced)).expect("a group's rep is listed");
            self.reps.remove(at);
        }
    }

    /// Takes `id` out of the group of shape `old`. Returns whether it was
    /// the group's representative, and then the next one.
    fn leave(&mut self, id: PmId, old: &Shape) -> (bool, Option<u32>) {
        let g = self.group_of[id.0 as usize];
        let group = &mut self.groups[g];
        group.len -= 1;
        if group.len == 0 {
            self.index.remove(old);
            self.free.push(g);
            return (true, None);
        }
        if group.rep != id.0 {
            return (false, None);
        }
        // The others all have higher ids: the next in id order takes over.
        let after = &self.group_of[id.0 as usize + 1..];
        let next = id.0 + 1 + after.iter().position(|&h| h == g).expect("a member is left") as u32;
        group.rep = next;
        (true, Some(next))
    }

    /// Puts `pm` into the group of its shape. Returns whether it is now
    /// the group's representative, and then the one it displaced.
    fn join(&mut self, pm: &Pm) -> (bool, Option<u32>) {
        let id = pm.id.0;
        let g = *self.index.entry(shape(pm)).or_insert_with(|| {
            self.free.pop().unwrap_or_else(|| {
                self.groups.push(Group { len: 0, rep: id });
                self.groups.len() - 1
            })
        });
        self.group_of[id as usize] = g;
        let group = &mut self.groups[g];
        group.len += 1;
        if group.len == 1 {
            group.rep = id;
            (true, None)
        } else if id < group.rep {
            (true, Some(std::mem::replace(&mut group.rep, id)))
        } else {
            (false, None)
        }
    }
}

/// A cluster whose VM population changes over time.
///
/// Unlike [`ClusterState`] (a fixed snapshot), slots here may be vacated by
/// exits and extended by arrivals. VM ids are stable for the lifetime of
/// the simulation, so a plan computed against an earlier snapshot can be
/// replayed against the mutated cluster.
#[derive(Debug, Clone)]
pub struct DynamicCluster {
    pms: Vec<Pm>,
    /// `None` = the VM exited (or the slot was never filled).
    vms: Vec<Option<(Vm, Placement)>>,
    alive: usize,
    /// Total CPU allocated, kept with every allocation and release.
    used_cpu: u64,
    /// Built by the first placement decision, so a cluster that only
    /// sees exits and planned moves (a replayed plan) never hashes a PM.
    shapes: Option<Shapes>,
}

/// CPU allocated on one PM.
fn allocated_cpu(pm: &Pm) -> u64 {
    u64::from(pm.cpu_total() - pm.free_cpu())
}

impl DynamicCluster {
    /// An empty dynamic cluster over the given PMs.
    pub fn from_pms(pms: Vec<Pm>) -> Self {
        let mut pms = pms;
        for pm in &mut pms {
            for numa in &mut pm.numas {
                numa.cpu_used = 0;
                numa.mem_used = 0;
            }
        }
        Self::build(pms, Vec::new())
    }

    /// Seeds a dynamic cluster from a static snapshot.
    pub fn from_state(state: &ClusterState) -> Self {
        let vms = state.vms().iter().zip(state.placements()).map(|(vm, pl)| Some((*vm, *pl)));
        Self::build(state.pms().to_vec(), vms.collect())
    }

    fn build(pms: Vec<Pm>, vms: Vec<Option<(Vm, Placement)>>) -> Self {
        let used_cpu = pms.iter().map(allocated_cpu).sum();
        DynamicCluster { alive: vms.len(), pms, vms, used_cpu, shapes: None }
    }

    /// Number of alive VMs.
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Total CPU currently allocated.
    pub fn used_cpu(&self) -> u64 {
        self.used_cpu
    }

    /// Whether a VM id refers to an alive VM.
    pub fn is_alive(&self, vm: VmId) -> bool {
        self.vms.get(vm.0 as usize).map(|slot| slot.is_some()).unwrap_or(false)
    }

    /// X-core fragment rate over the current PM population.
    pub fn fragment_rate(&self, x: u32) -> f64 {
        let free: u64 = self.pms.iter().map(|p| p.free_cpu() as u64).sum();
        let frag: u64 = self.pms.iter().map(|p| p.cpu_fragment(x) as u64).sum();
        fragment_ratio(frag, free)
    }

    /// The one mutation of a PM: `change` allocates or releases on it,
    /// and the used-CPU count and the shape groups follow.
    fn update(&mut self, pm: PmId, change: impl FnOnce(&mut Pm)) {
        let host = &mut self.pms[pm.0 as usize];
        let old = shape(host);
        self.used_cpu -= allocated_cpu(host);
        change(host);
        self.used_cpu += allocated_cpu(host);
        if let Some(shapes) = &mut self.shapes {
            shapes.moved(&self.pms, pm, &old);
        }
    }

    /// Places a new VM with best-fit (the production VMS algorithm: choose
    /// the feasible PM/NUMA minimizing the resulting 16-core fragment).
    /// Returns the new VM's id, or [`SimError::NoFeasiblePlacement`] if
    /// nothing fits (production rejects the request).
    pub fn best_fit_arrival(&mut self, cpu: u32, mem: u32, numa: NumaPolicy) -> SimResult<VmId> {
        self.admit(cpu, mem, numa, |_, shapes, vm| best_fit(&shapes.reps, vm, 16))
    }

    /// Places a new VM under an arbitrary [`VmsPolicy`]. Returns the new
    /// VM's id, or [`SimError::NoFeasiblePlacement`] if no PM can host it.
    pub fn arrival_with_policy<R: Rng + ?Sized>(
        &mut self,
        cpu: u32,
        mem: u32,
        numa: NumaPolicy,
        policy: VmsPolicy,
        rng: &mut R,
    ) -> SimResult<VmId> {
        // The deterministic policies see one representative per shape.
        self.admit(cpu, mem, numa, |pms, shapes, vm| match policy {
            VmsPolicy::Random => shapes.random_slot(pms, vm, &mut Vec::new(), rng),
            _ => choose_placement(&shapes.reps, vm, policy, 16, rng),
        })
    }

    /// Admits a new VM that passes [`Vm::check_spec`] where `place` puts
    /// it: the one admission path of both arrival kinds.
    fn admit(
        &mut self,
        cpu: u32,
        mem: u32,
        numa: NumaPolicy,
        place: impl FnOnce(&[Pm], &Shapes, &Vm) -> Option<(PmId, NumaPlacement)>,
    ) -> SimResult<VmId> {
        Vm::check_spec(cpu, mem, numa)?;
        let id = VmId(self.vms.len() as u32);
        let vm = Vm { id, cpu, mem, numa };
        let shapes = self.shapes.get_or_insert_with(|| Shapes::new(&self.pms));
        let (pm, pl) = place(&self.pms, shapes, &vm).ok_or(SimError::NoFeasiblePlacement(id))?;
        self.update(pm, |host| host.alloc_vm(&vm, pl));
        self.vms.push(Some((vm, Placement { pm, numa: pl })));
        self.alive += 1;
        Ok(id)
    }

    /// Removes a specific VM, freeing its resources.
    pub fn exit(&mut self, vm: VmId) -> SimResult<()> {
        let slot = self.vms.get_mut(vm.0 as usize).ok_or(SimError::UnknownVm(vm))?;
        let (v, pl) = slot.take().ok_or(SimError::UnknownVm(vm))?;
        self.update(pl.pm, |host| host.release_vm(&v, pl.numa));
        self.alive -= 1;
        Ok(())
    }

    /// Removes a uniformly random alive VM. Returns its id.
    pub fn exit_random<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<VmId> {
        if self.alive == 0 {
            return None;
        }
        // Rejection-sample an alive slot (alive/total stays high in practice).
        for _ in 0..self.vms.len() * 4 {
            let idx = rng.gen_range(0..self.vms.len());
            if self.vms[idx].is_some() {
                let id = VmId(idx as u32);
                self.exit(id).expect("slot checked alive");
                return Some(id);
            }
        }
        // Fall back to a scan (pathological occupancy).
        let idx = self.vms.iter().position(|s| s.is_some())?;
        let id = VmId(idx as u32);
        self.exit(id).expect("slot checked alive");
        Some(id)
    }

    /// Redeploys `frac` of alive VMs onto uniformly random feasible PMs
    /// (the dataset anonymization step).
    pub fn random_redeploy<R: Rng + ?Sized>(&mut self, frac: f64, rng: &mut R) {
        let ids: Vec<usize> =
            self.vms.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|_| i)).collect();
        let mut slots = Vec::new();
        for &idx in &ids {
            if rng.gen::<f64>() >= frac {
                continue;
            }
            let (vm, old_pl) = self.vms[idx].expect("listed alive");
            self.update(old_pl.pm, |host| host.release_vm(&vm, old_pl.numa));
            let shapes = self.shapes.get_or_insert_with(|| Shapes::new(&self.pms));
            let (pm, pl) = shapes
                .random_slot(&self.pms, &vm, &mut slots, rng)
                .unwrap_or((old_pl.pm, old_pl.numa)); // put it back
            self.update(pm, |host| host.alloc_vm(&vm, pl));
            self.vms[idx] = Some((vm, Placement { pm, numa: pl }));
        }
    }

    /// Attempts to apply one planned migration against the *current*
    /// state. Returns `true` if deployed; `false` if dropped because the
    /// VM exited, the move is now a no-op, or the destination no longer
    /// fits (paper footnote 7).
    pub fn try_apply(&mut self, action: Action) -> bool {
        let slot = match self.vms.get(action.vm.0 as usize) {
            Some(Some(s)) => *s,
            _ => return false,
        };
        let (vm, old_pl) = slot;
        if old_pl.pm == action.pm {
            return false;
        }
        let Some(pl) = best_fit_on(&self.pms[action.pm.0 as usize], &vm, None, 16) else {
            return false;
        };
        self.update(old_pl.pm, |host| host.release_vm(&vm, old_pl.numa));
        self.update(action.pm, |host| host.alloc_vm(&vm, pl));
        self.vms[action.vm.0 as usize] = Some((vm, Placement { pm: action.pm, numa: pl }));
        true
    }

    /// Advances the cluster by `minutes` of churn under a diurnal model,
    /// starting at `start_minute`. Arrivals are placed by best-fit; VMs
    /// that cannot be placed are rejected (as in production).
    pub fn churn<R: Rng + ?Sized>(
        &mut self,
        start_minute: u32,
        minutes: u32,
        model: &DiurnalModel,
        exit_frac: f64,
        mix: &VmMix,
        rng: &mut R,
    ) {
        for dt in 0..minutes {
            let minute = start_minute + dt;
            let exits = model.sample_exits(minute, self.alive, exit_frac, rng);
            for _ in 0..exits {
                self.exit_random(rng);
            }
            let arrivals = model.sample_arrivals(minute, rng);
            for _ in 0..arrivals {
                let f = mix.sample(rng);
                // Production VMS rejects unplaceable requests.
                let _ = self.best_fit_arrival(f.cpu, f.mem, f.numa).ok();
            }
        }
    }

    /// Dynamic ids of the alive VMs, in the iteration order
    /// [`DynamicCluster::freeze`] uses for re-indexing: `alive_ids()[k]`
    /// is the dynamic id of the VM that becomes `VmId(k)` in the frozen
    /// snapshot. Lets callers translate plans computed on a snapshot
    /// back onto the live cluster.
    pub fn alive_ids(&self) -> Vec<VmId> {
        self.vms.iter().flatten().map(|(vm, _)| vm.id).collect()
    }

    /// Freezes the dynamic cluster into a static [`ClusterState`]: alive
    /// VMs are re-indexed densely in id order.
    pub fn freeze(&self) -> SimResult<ClusterState> {
        let mut vms = Vec::with_capacity(self.alive);
        let mut placements = Vec::with_capacity(self.alive);
        for slot in self.vms.iter().flatten() {
            let (mut vm, pl) = *slot;
            vm.id = VmId(vms.len() as u32);
            vms.push(vm);
            placements.push(pl);
        }
        ClusterState::new(self.pms.clone(), vms, placements)
    }
}

/// Outcome of replaying a plan against a churned cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessOutcome {
    /// Fragment rate achieved after deploying the surviving actions.
    pub achieved_fr: f64,
    /// Planned actions that deployed successfully.
    pub applied: usize,
    /// Planned actions dropped as infeasible.
    pub dropped: usize,
}

/// Fig. 5 experiment: replay `plan` (computed against `initial`) after
/// `delay_minutes` of churn, dropping infeasible actions, and report the
/// achieved FR. Churn starts at the off-peak minute, as VMR does.
pub fn staleness_experiment(
    initial: &ClusterState,
    plan: &[Action],
    delay_minutes: u32,
    model: &DiurnalModel,
    exit_frac: f64,
    mix: &VmMix,
    seed: u64,
) -> StalenessOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cluster = DynamicCluster::from_state(initial);
    cluster.churn(model.off_peak_minute(), delay_minutes, model, exit_frac, mix, &mut rng);
    let mut applied = 0;
    let mut dropped = 0;
    for &a in plan {
        if cluster.try_apply(a) {
            applied += 1;
        } else {
            dropped += 1;
        }
    }
    StalenessOutcome { achieved_fr: cluster.fragment_rate(16), applied, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_mapping, ClusterConfig};
    use crate::machine::placement_fits;

    /// After every kind of change, on a fleet of few shapes (tiny) and
    /// one whose PMs mostly end with a shape of their own
    /// (Multi-Resource), the incrementally kept shape index is the one a
    /// fresh build gives. A fill of best-fit arrivals comes first.
    #[test]
    fn the_shape_index_follows_every_change() {
        for cfg in [ClusterConfig::tiny(), ClusterConfig::multi_resource()] {
            let mut d = DynamicCluster::from_pms(cfg.build_pms());
            let mut rng = StdRng::seed_from_u64(9);
            let mix = VmMix::standard();
            for step in 0..600 {
                let f = mix.sample(&mut rng);
                match if step < 300 { 2 } else { step % 6 } {
                    0 | 1 => {
                        d.exit_random(&mut rng);
                    }
                    2 => {
                        let _ = d.best_fit_arrival(f.cpu, f.mem, f.numa);
                    }
                    3 => {
                        let policy = VmsPolicy::ALL[step / 6 % 4];
                        let _ = d.arrival_with_policy(f.cpu, f.mem, f.numa, policy, &mut rng);
                    }
                    4 => d.random_redeploy(0.02, &mut rng),
                    _ => {
                        let vm = VmId(rng.gen_range(0..d.vms.len() as u32));
                        let pm = PmId(rng.gen_range(0..d.pms.len() as u32));
                        d.try_apply(Action { vm, pm });
                    }
                }
                if let Some(shapes) = &d.shapes {
                    shapes.assert_fresh(&d.pms);
                }
            }
            assert!(d.shapes.is_some(), "{}: the first arrival builds the index", cfg.name);
        }
    }

    fn snapshot() -> ClusterState {
        generate_mapping(&ClusterConfig::tiny(), 77).unwrap()
    }

    #[test]
    fn from_state_preserves_fragment_rate() {
        let s = snapshot();
        let d = DynamicCluster::from_state(&s);
        assert!((d.fragment_rate(16) - s.fragment_rate(16)).abs() < 1e-12);
        assert_eq!(d.alive_count(), s.num_vms());
    }

    #[test]
    fn freeze_roundtrip_preserves_metrics() {
        let s = snapshot();
        let d = DynamicCluster::from_state(&s);
        let back = d.freeze().unwrap();
        assert!((back.fragment_rate(16) - s.fragment_rate(16)).abs() < 1e-12);
        assert_eq!(back.num_vms(), s.num_vms());
        back.audit().unwrap();
    }

    #[test]
    fn exit_frees_resources() {
        let s = snapshot();
        let mut d = DynamicCluster::from_state(&s);
        let used_before = d.used_cpu();
        let vm = s.vm(VmId(0));
        d.exit(VmId(0)).unwrap();
        assert_eq!(d.used_cpu(), used_before - vm.cpu as u64);
        assert!(!d.is_alive(VmId(0)));
        assert!(d.exit(VmId(0)).is_err(), "double exit must fail");
    }

    #[test]
    fn try_apply_drops_exited_vm() {
        let s = snapshot();
        let mut d = DynamicCluster::from_state(&s);
        d.exit(VmId(1)).unwrap();
        assert!(!d.try_apply(Action { vm: VmId(1), pm: PmId(0) }));
    }

    #[test]
    fn try_apply_moves_alive_vm() {
        let s = snapshot();
        let mut d = DynamicCluster::from_state(&s);
        // Find a VM and a destination with room.
        let vm = VmId(0);
        let src = s.placement(vm).pm;
        let dest = (0..s.num_pms() as u32).map(PmId).find(|&p| {
            p != src && {
                let pm = &d.pms[p.0 as usize];
                let v = s.vm(vm);
                v.candidate_placements().iter().any(|&pl| placement_fits(pm, v, pl))
            }
        });
        if let Some(dest) = dest {
            assert!(d.try_apply(Action { vm, pm: dest }));
            let (_, pl) = d.vms[0].unwrap();
            assert_eq!(pl.pm, dest);
        }
    }

    #[test]
    fn churn_changes_population() {
        let s = snapshot();
        let mut d = DynamicCluster::from_state(&s);
        let model = DiurnalModel { base_rate: 5.0, amplitude: 0.3, peak_minute: 840 };
        let mix = VmMix::standard();
        let mut rng = StdRng::seed_from_u64(1);
        let before = d.alive_count();
        d.churn(0, 30, &model, 0.01, &mix, &mut rng);
        assert_ne!(d.alive_count(), before, "30 min of churn should change population");
    }

    #[test]
    fn staleness_monotone_dropping() {
        let s = snapshot();
        // A plan of a few arbitrary legal moves.
        let mut plan = Vec::new();
        let d0 = DynamicCluster::from_state(&s);
        for k in 0..s.num_vms().min(5) {
            let vm = VmId(k as u32);
            let src = s.placement(vm).pm;
            for p in 0..s.num_pms() as u32 {
                let pm = PmId(p);
                if pm != src {
                    let v = s.vm(vm);
                    let fits = v
                        .candidate_placements()
                        .iter()
                        .any(|&pl| placement_fits(&d0.pms[p as usize], v, pl));
                    if fits {
                        plan.push(Action { vm, pm });
                        break;
                    }
                }
            }
        }
        let model = DiurnalModel { base_rate: 8.0, amplitude: 0.4, peak_minute: 840 };
        let mix = VmMix::standard();
        let fresh = staleness_experiment(&s, &plan, 0, &model, 0.004, &mix, 5);
        assert_eq!(fresh.dropped, 0, "no churn -> nothing dropped");
        let stale = staleness_experiment(&s, &plan, 240, &model, 0.004, &mix, 5);
        assert!(stale.applied <= fresh.applied);
    }

    #[test]
    fn arrivals_under_every_policy_stay_feasible() {
        use crate::scheduler::VmsPolicy;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let s = snapshot();
        for policy in VmsPolicy::ALL {
            let mut d = DynamicCluster::from_state(&s);
            let mut rng = StdRng::seed_from_u64(5);
            let mut placed = 0;
            for _ in 0..20 {
                if d.arrival_with_policy(4, 8, NumaPolicy::Single, policy, &mut rng).is_ok() {
                    placed += 1;
                }
            }
            assert!(placed > 0, "{}: tiny cluster should admit small VMs", policy.name());
            let next = VmId(d.vms.len() as u32);
            assert_eq!(
                d.arrival_with_policy(400, 8, NumaPolicy::Single, policy, &mut rng),
                Err(SimError::NoFeasiblePlacement(next)),
                "{}: a VM no PM can host is refused with the typed error",
                policy.name()
            );
            d.freeze().unwrap().audit().unwrap();
        }
    }

    #[test]
    fn best_fit_arrival_matches_best_fit_policy() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let s = snapshot();
        let mut via_shorthand = DynamicCluster::from_state(&s);
        let mut via_policy = DynamicCluster::from_state(&s);
        for _ in 0..10 {
            let a = via_shorthand.best_fit_arrival(8, 16, NumaPolicy::Single);
            // Best-fit ignores the RNG, so any seed gives the same slot.
            let mut throwaway = StdRng::seed_from_u64(99);
            let b = via_policy.arrival_with_policy(
                8,
                16,
                NumaPolicy::Single,
                crate::scheduler::VmsPolicy::BestFit,
                &mut throwaway,
            );
            assert_eq!(a, b);
            if a.is_err() {
                break;
            }
        }
        assert_eq!(via_shorthand.freeze().unwrap(), via_policy.freeze().unwrap());
    }
}
