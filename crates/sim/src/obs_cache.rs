//! Incremental observation engine: O(touched entities) per step.
//!
//! [`crate::obs::Observation::extract`] rebuilds the whole featurization —
//! O(N·8 + M·14) work plus a full min-max pass — even though a migration
//! touches exactly two PMs and the VMs resident on them. At the paper's
//! Medium scale (280 PMs, ≈2k VMs) that full rebuild costs ~1,800× the
//! state transition it sits next to, and it is paid on *every* agent
//! decision during rollouts, risk-seeking evaluation, and search-baseline
//! probing.
//!
//! [`ObsEngine`] keeps the *raw* (un-normalized) PM/VM feature matrices
//! alive across `migrate`/undo and repairs only what a migration
//! dirties:
//!
//! * **Dirty rows** — the two endpoint PMs plus the VMs hosted on them,
//!   found in O(occupancy) through [`ClusterState::vms_on`] (the reverse
//!   index) rather than an O(M) placement scan.
//! * **Per-column min/max** — tracked incrementally with occupancy counts;
//!   a full column rescan happens only when a dirty row held the column's
//!   extremum and no other row does (count reaches zero).
//! * **Materialized normalization** — the normalized [`Observation`] is
//!   cached; after an update only dirty rows and columns whose min/max
//!   moved are re-normalized.
//!
//! The engine's output is **bit-identical** to a fresh
//! [`Observation::extract`] of the same state: raw rows are produced by
//! the same `fill_*_row` code paths, f32 min/max is order-independent, and
//! the normalization formula is shared. A tier-1 proptest
//! (`prop_obs_engine.rs`) asserts this equivalence under arbitrary
//! migrate/swap/undo sequences.

use crate::cluster::{ClusterState, MigrationRecord};
use crate::obs::{fill_pm_row, fill_vm_row, Observation, PM_FEAT, VM_FEAT};
use crate::types::{PmId, VmId};

/// Per-column `(lo, hi)` snapshot of the PM feature matrix.
type PmBounds = [(f32, f32); PM_FEAT];
/// Per-column `(lo, hi)` snapshot of the VM feature matrix.
type VmBounds = [(f32, f32); VM_FEAT];

/// Incremental min/max of one feature column.
///
/// `lo_count`/`hi_count` track how many rows currently hold the extremum;
/// when a row update drives a count to zero the column is rescanned once
/// at the end of the batch.
#[derive(Debug, Clone, Copy)]
struct ColStat {
    lo: f32,
    hi: f32,
    lo_count: u32,
    hi_count: u32,
}

impl ColStat {
    fn empty() -> Self {
        ColStat { lo: f32::INFINITY, hi: f32::NEG_INFINITY, lo_count: 0, hi_count: 0 }
    }

    /// Applies one cell change `old → new`.
    #[inline]
    fn update(&mut self, old: f32, new: f32) {
        if old == new {
            return;
        }
        self.remove(old);
        self.insert(new);
    }

    /// Folds a value of a *new* row into the stats (topology growth).
    #[inline]
    fn insert(&mut self, v: f32) {
        if v < self.lo {
            self.lo = v;
            self.lo_count = 1;
        } else if v == self.lo {
            self.lo_count += 1;
        }
        if v > self.hi {
            self.hi = v;
            self.hi_count = 1;
        } else if v == self.hi {
            self.hi_count += 1;
        }
    }

    /// Drops a value of a *removed* row from the stats (topology
    /// shrinkage); may leave the column flagged for rescan.
    #[inline]
    fn remove(&mut self, v: f32) {
        if v == self.lo {
            self.lo_count -= 1;
        }
        if v == self.hi {
            self.hi_count -= 1;
        }
    }

    /// Whether the tracked extremum may be stale (holder count hit zero).
    #[inline]
    fn needs_rescan(&self) -> bool {
        self.lo_count == 0 || self.hi_count == 0
    }

    /// Recomputes the column from scratch (same fold as
    /// `min_max_normalize`: f32 min/max is order-independent, so the
    /// result matches a full extraction bit-for-bit).
    fn rescan(data: &[f32], width: usize, col: usize) -> Self {
        let mut s = ColStat::empty();
        let rows = data.len() / width.max(1);
        for r in 0..rows {
            let v = data[r * width + col];
            if v < s.lo {
                s.lo = v;
                s.lo_count = 1;
            } else if v == s.lo {
                s.lo_count += 1;
            }
            if v > s.hi {
                s.hi = v;
                s.hi_count = 1;
            } else if v == s.hi {
                s.hi_count += 1;
            }
        }
        s
    }

    /// Normalizes one raw value under this column's range — the exact
    /// formula of `min_max_normalize`.
    #[inline]
    fn norm(&self, v: f32) -> f32 {
        let range = self.hi - self.lo;
        if range > 0.0 {
            (v - self.lo) / range
        } else {
            0.0
        }
    }
}

/// Maintains raw feature matrices, per-column min/max, and a materialized
/// normalized [`Observation`] across cluster mutations.
///
/// Usage: build once per episode ([`ObsEngine::new`]), call one of the
/// `note_*` methods after every state mutation, and read the current
/// featurization through [`ObsEngine::observation`]. After a bulk state
/// replacement call [`ObsEngine::rebuild`], which reuses every buffer.
#[derive(Debug, Clone)]
pub struct ObsEngine {
    frag_cores: u32,
    /// Raw `N × PM_FEAT` features.
    raw_pm: Vec<f32>,
    /// Raw `M × VM_FEAT` features.
    raw_vm: Vec<f32>,
    pm_cols: Vec<ColStat>,
    vm_cols: Vec<ColStat>,
    /// Materialized normalized observation (kept in sync lazily).
    obs: Observation,
    /// Scratch: VM rows dirtied by the current batch.
    dirty_vms: Vec<usize>,
}

impl ObsEngine {
    /// Builds the engine with a full extraction of `state`.
    pub fn new(state: &ClusterState, frag_cores: u32) -> Self {
        let mut engine = ObsEngine {
            frag_cores,
            raw_pm: Vec::new(),
            raw_vm: Vec::new(),
            pm_cols: vec![ColStat::empty(); PM_FEAT],
            vm_cols: vec![ColStat::empty(); VM_FEAT],
            obs: Observation::empty(),
            dirty_vms: Vec::new(),
        };
        engine.rebuild(state);
        engine
    }

    /// The fragment granularity this engine featurizes with.
    pub fn frag_cores(&self) -> u32 {
        self.frag_cores
    }

    /// Full recomputation from `state` into the existing buffers.
    pub fn rebuild(&mut self, state: &ClusterState) {
        let n = state.num_pms();
        let m = state.num_vms();
        self.raw_pm.clear();
        self.raw_pm.resize(n * PM_FEAT, 0.0);
        self.raw_vm.clear();
        self.raw_vm.resize(m * VM_FEAT, 0.0);
        for i in 0..n {
            fill_pm_row(state, i, self.frag_cores, &mut self.raw_pm[i * PM_FEAT..][..PM_FEAT]);
        }
        for k in 0..m {
            let src = state.placement(VmId(k as u32)).pm.0 as usize;
            fill_vm_row(
                state,
                k,
                self.frag_cores,
                &self.raw_pm[src * PM_FEAT..][..PM_FEAT],
                &mut self.raw_vm[k * VM_FEAT..][..VM_FEAT],
            );
        }
        for (col, stat) in self.pm_cols.iter_mut().enumerate() {
            *stat = ColStat::rescan(&self.raw_pm, PM_FEAT, col);
        }
        for (col, stat) in self.vm_cols.iter_mut().enumerate() {
            *stat = ColStat::rescan(&self.raw_vm, VM_FEAT, col);
        }
        // Materialize the normalized observation.
        self.obs.num_pms = n;
        self.obs.num_vms = m;
        self.obs.pm_feats.clear();
        self.obs.pm_feats.resize(n * PM_FEAT, 0.0);
        self.obs.vm_feats.clear();
        self.obs.vm_feats.resize(m * VM_FEAT, 0.0);
        self.obs.vm_src_pm.clear();
        self.obs.vm_src_pm.extend(state.placements().iter().map(|pl| pl.pm.0));
        for col in 0..PM_FEAT {
            renorm_col(&self.raw_pm, &mut self.obs.pm_feats, PM_FEAT, col, &self.pm_cols[col]);
        }
        for col in 0..VM_FEAT {
            renorm_col(&self.raw_vm, &mut self.obs.vm_feats, VM_FEAT, col, &self.vm_cols[col]);
        }
    }

    /// Repairs the engine after `rec` was applied to `state`, or undone
    /// (`state` must already reflect it): either way its two endpoints.
    pub fn note_migration(&mut self, state: &ClusterState, rec: &MigrationRecord) {
        self.refresh_pms(state, rec.from.pm, rec.to.pm);
    }

    /// Core repair: recomputes the rows of `pm_a`/`pm_b` and of every VM
    /// they host, then fixes column stats and the materialized
    /// normalization. O(occupancy of the two PMs + rescans of columns
    /// whose extremum moved).
    pub fn refresh_pms(&mut self, state: &ClusterState, pm_a: PmId, pm_b: PmId) {
        debug_assert_eq!(state.num_pms() * PM_FEAT, self.raw_pm.len());
        debug_assert_eq!(state.num_vms() * VM_FEAT, self.raw_vm.len());

        let (pm_before, vm_before) = self.col_bounds();

        // 1. Raw PM rows (must precede VM rows: VM rows embed host raws).
        self.update_pm_row(state, pm_a);
        if pm_b != pm_a {
            self.update_pm_row(state, pm_b);
        }

        // 2. Raw VM rows: every VM hosted on a touched PM. A migration
        //    moves a VM between exactly these two PMs, so the mover is in
        //    one of the lists.
        let mut dirty_vms = std::mem::take(&mut self.dirty_vms);
        dirty_vms.clear();
        dirty_vms.extend(state.vms_on(pm_a).iter().map(|v| v.0 as usize));
        if pm_b != pm_a {
            dirty_vms.extend(state.vms_on(pm_b).iter().map(|v| v.0 as usize));
        }
        for &k in &dirty_vms {
            self.update_vm_row(state, k);
        }

        if pm_b == pm_a {
            self.settle(state, &[pm_a], dirty_vms, pm_before, vm_before);
        } else {
            self.settle(state, &[pm_a, pm_b], dirty_vms, pm_before, vm_before);
        }
    }

    /// Repairs the engine after a [`ClusterState::add_vm`] delta (`state`
    /// must already hold the new VM): appends the raw row, folds it into
    /// the column stats, refreshes the host PM and its tenants, and grows
    /// the materialized observation. O(host occupancy + moved columns).
    pub fn note_vm_added(&mut self, state: &ClusterState) {
        let k = state.num_vms() - 1;
        debug_assert_eq!(self.raw_vm.len(), k * VM_FEAT, "note_vm_added must follow add_vm");
        let (pm_before, vm_before) = self.col_bounds();
        let host = state.placement(VmId(k as u32)).pm;
        self.update_pm_row(state, host);
        // Append the new raw VM row (reads the just-updated host raws).
        let src = host.0 as usize;
        let mut tmp = [0f32; VM_FEAT];
        fill_vm_row(state, k, self.frag_cores, &self.raw_pm[src * PM_FEAT..][..PM_FEAT], &mut tmp);
        for (col, &v) in tmp.iter().enumerate() {
            self.vm_cols[col].insert(v);
        }
        self.raw_vm.extend_from_slice(&tmp);
        // Grow the materialized observation; `settle` fills the values.
        self.obs.num_vms = k + 1;
        self.obs.vm_feats.resize((k + 1) * VM_FEAT, 0.0);
        self.obs.vm_src_pm.push(host.0);
        let mut dirty_vms = std::mem::take(&mut self.dirty_vms);
        dirty_vms.clear();
        dirty_vms.extend(state.vms_on(host).iter().map(|v| v.0 as usize));
        for &t in &dirty_vms {
            if t != k {
                self.update_vm_row(state, t);
            }
        }
        self.settle(state, &[host], dirty_vms, pm_before, vm_before);
    }

    /// Repairs the engine after a [`ClusterState::remove_vm`] delta
    /// (`state` must already reflect it). `removed` is the removed VM's
    /// id and `host` the PM it occupied; the engine mirrors the state's
    /// swap-remove renumbering. O(host occupancy + moved columns).
    pub fn note_vm_removed(&mut self, state: &ClusterState, removed: VmId, host: PmId) {
        let new_m = state.num_vms();
        debug_assert_eq!(self.raw_vm.len(), (new_m + 1) * VM_FEAT, "note must follow remove_vm");
        let idx = removed.0 as usize;
        let (pm_before, vm_before) = self.col_bounds();
        // Drop the removed row from the column stats.
        for col in 0..VM_FEAT {
            let v = self.raw_vm[idx * VM_FEAT + col];
            self.vm_cols[col].remove(v);
        }
        // Mirror the swap-remove: the last row moves into the freed slot
        // (values unchanged, so the stats are untouched by the move).
        let last = new_m;
        if idx != last {
            for col in 0..VM_FEAT {
                self.raw_vm[idx * VM_FEAT + col] = self.raw_vm[last * VM_FEAT + col];
                self.obs.vm_feats[idx * VM_FEAT + col] = self.obs.vm_feats[last * VM_FEAT + col];
            }
            self.obs.vm_src_pm[idx] = self.obs.vm_src_pm[last];
        }
        self.raw_vm.truncate(new_m * VM_FEAT);
        self.obs.vm_feats.truncate(new_m * VM_FEAT);
        self.obs.vm_src_pm.truncate(new_m);
        self.obs.num_vms = new_m;
        // The host PM regained the VM's resources.
        self.update_pm_row(state, host);
        let mut dirty_vms = std::mem::take(&mut self.dirty_vms);
        dirty_vms.clear();
        dirty_vms.extend(state.vms_on(host).iter().map(|v| v.0 as usize));
        for &t in &dirty_vms {
            self.update_vm_row(state, t);
        }
        self.settle(state, &[host], dirty_vms, pm_before, vm_before);
    }

    /// Repairs the engine after a [`ClusterState::add_pm`] delta (`state`
    /// must already hold the new, empty PM). No VM row changes — VM rows
    /// embed only their own host's raws. O(moved columns).
    pub fn note_pm_added(&mut self, state: &ClusterState) {
        let i = state.num_pms() - 1;
        debug_assert_eq!(self.raw_pm.len(), i * PM_FEAT, "note_pm_added must follow add_pm");
        let (pm_before, vm_before) = self.col_bounds();
        let mut tmp = [0f32; PM_FEAT];
        fill_pm_row(state, i, self.frag_cores, &mut tmp);
        for (col, &v) in tmp.iter().enumerate() {
            self.pm_cols[col].insert(v);
        }
        self.raw_pm.extend_from_slice(&tmp);
        self.obs.num_pms = i + 1;
        self.obs.pm_feats.resize((i + 1) * PM_FEAT, 0.0);
        let mut dirty_vms = std::mem::take(&mut self.dirty_vms);
        dirty_vms.clear();
        self.settle(state, &[PmId(i as u32)], dirty_vms, pm_before, vm_before);
    }

    /// Current per-column normalization bounds, snapshotted before a
    /// repair so [`ObsEngine::settle`] can tell which columns moved.
    fn col_bounds(&self) -> (PmBounds, VmBounds) {
        let mut pm = [(0f32, 0f32); PM_FEAT];
        for (slot, s) in pm.iter_mut().zip(self.pm_cols.iter()) {
            *slot = (s.lo, s.hi);
        }
        let mut vm = [(0f32, 0f32); VM_FEAT];
        for (slot, s) in vm.iter_mut().zip(self.vm_cols.iter()) {
            *slot = (s.lo, s.hi);
        }
        (pm, vm)
    }

    /// Shared tail of every repair: rescan columns whose extremum lost
    /// all holders, re-normalize columns whose bounds moved, then
    /// re-normalize the dirty rows. Returns the dirty-VM scratch buffer
    /// to `self` for reuse.
    fn settle(
        &mut self,
        state: &ClusterState,
        dirty_pms: &[PmId],
        dirty_vms: Vec<usize>,
        pm_before: PmBounds,
        vm_before: VmBounds,
    ) {
        for (col, &before) in pm_before.iter().enumerate() {
            if self.pm_cols[col].needs_rescan() {
                self.pm_cols[col] = ColStat::rescan(&self.raw_pm, PM_FEAT, col);
            }
            if (self.pm_cols[col].lo, self.pm_cols[col].hi) != before {
                renorm_col(&self.raw_pm, &mut self.obs.pm_feats, PM_FEAT, col, &self.pm_cols[col]);
            }
        }
        for (col, &before) in vm_before.iter().enumerate() {
            if self.vm_cols[col].needs_rescan() {
                self.vm_cols[col] = ColStat::rescan(&self.raw_vm, VM_FEAT, col);
            }
            if (self.vm_cols[col].lo, self.vm_cols[col].hi) != before {
                renorm_col(&self.raw_vm, &mut self.obs.vm_feats, VM_FEAT, col, &self.vm_cols[col]);
            }
        }
        for &pm in dirty_pms {
            let i = pm.0 as usize;
            renorm_row(
                &self.raw_pm[i * PM_FEAT..][..PM_FEAT],
                &mut self.obs.pm_feats[i * PM_FEAT..][..PM_FEAT],
                &self.pm_cols,
            );
        }
        for &k in &dirty_vms {
            renorm_row(
                &self.raw_vm[k * VM_FEAT..][..VM_FEAT],
                &mut self.obs.vm_feats[k * VM_FEAT..][..VM_FEAT],
                &self.vm_cols,
            );
            self.obs.vm_src_pm[k] = state.placement(VmId(k as u32)).pm.0;
        }
        self.dirty_vms = dirty_vms;
    }

    /// The current normalized observation of `state`, which every
    /// mutation since the last build or rebuild has been noted against.
    pub fn observation(&self, state: &ClusterState) -> &Observation {
        debug_assert_eq!((self.obs.num_pms, self.obs.num_vms), (state.num_pms(), state.num_vms()));
        &self.obs
    }

    /// Copies the current observation into a caller-owned buffer without
    /// allocating in steady state (`clone_from` reuses `out`'s vectors).
    pub fn extract_into(&self, state: &ClusterState, out: &mut Observation) {
        out.clone_from(self.observation(state));
    }

    fn update_pm_row(&mut self, state: &ClusterState, pm: PmId) {
        let i = pm.0 as usize;
        let mut tmp = [0f32; PM_FEAT];
        fill_pm_row(state, i, self.frag_cores, &mut tmp);
        let row = &mut self.raw_pm[i * PM_FEAT..][..PM_FEAT];
        for (col, (slot, &new)) in row.iter_mut().zip(tmp.iter()).enumerate() {
            self.pm_cols[col].update(*slot, new);
            *slot = new;
        }
    }

    fn update_vm_row(&mut self, state: &ClusterState, k: usize) {
        let src = state.placement(VmId(k as u32)).pm.0 as usize;
        let mut tmp = [0f32; VM_FEAT];
        fill_vm_row(state, k, self.frag_cores, &self.raw_pm[src * PM_FEAT..][..PM_FEAT], &mut tmp);
        let row = &mut self.raw_vm[k * VM_FEAT..][..VM_FEAT];
        for (col, (slot, &new)) in row.iter_mut().zip(tmp.iter()).enumerate() {
            self.vm_cols[col].update(*slot, new);
            *slot = new;
        }
    }
}

/// Re-normalizes one full column of the materialized observation.
fn renorm_col(raw: &[f32], out: &mut [f32], width: usize, col: usize, stat: &ColStat) {
    let rows = raw.len() / width.max(1);
    for r in 0..rows {
        out[r * width + col] = stat.norm(raw[r * width + col]);
    }
}

/// Re-normalizes one row of the materialized observation.
fn renorm_row(raw: &[f32], out: &mut [f32], cols: &[ColStat]) {
    for ((slot, &v), stat) in out.iter_mut().zip(raw.iter()).zip(cols.iter()) {
        *slot = stat.norm(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_mapping, ClusterConfig};
    use crate::types::NumaPlacement;

    fn state(seed: u64) -> ClusterState {
        generate_mapping(&ClusterConfig::tiny(), seed).unwrap()
    }

    /// First legal cross-PM migration on the cluster.
    fn legal_move(state: &ClusterState) -> (VmId, PmId) {
        let mut probe = state.clone();
        for k in 0..probe.num_vms() {
            for i in 0..probe.num_pms() {
                let (vm, pm) = (VmId(k as u32), PmId(i as u32));
                if probe.placement(vm).pm == pm {
                    continue;
                }
                if let Ok(rec) = probe.migrate(vm, pm, 16) {
                    probe.undo(&rec).unwrap();
                    return (vm, pm);
                }
            }
        }
        panic!("no legal move on test cluster");
    }

    #[test]
    fn fresh_engine_matches_full_extract() {
        let s = state(3);
        let e = ObsEngine::new(&s, 16);
        assert_eq!(e.observation(&s), &Observation::extract(&s, 16));
    }

    #[test]
    fn migration_and_undo_stay_in_sync() {
        let mut s = state(4);
        let mut e = ObsEngine::new(&s, 16);
        let (vm, pm) = legal_move(&s);
        let rec = s.migrate(vm, pm, 16).unwrap();
        e.note_migration(&s, &rec);
        assert_eq!(e.observation(&s), &Observation::extract(&s, 16));
        s.undo(&rec).unwrap();
        e.note_migration(&s, &rec);
        assert_eq!(e.observation(&s), &Observation::extract(&s, 16));
    }

    #[test]
    fn swap_stays_in_sync() {
        let mut s = state(5);
        let mut e = ObsEngine::new(&s, 16);
        let mut pair = None;
        'outer: for a in 0..s.num_vms() {
            for b in (a + 1)..s.num_vms() {
                let (va, vb) = (VmId(a as u32), VmId(b as u32));
                if s.placement(va).pm == s.placement(vb).pm {
                    continue;
                }
                if let Ok(rec) = s.swap(va, vb, 16) {
                    pair = Some(rec);
                    break 'outer;
                }
            }
        }
        let rec = pair.expect("a legal swap exists");
        e.refresh_pms(&s, rec.a.from.pm, rec.a.to.pm);
        assert_eq!(e.observation(&s), &Observation::extract(&s, 16));
    }

    #[test]
    fn extract_into_reuses_buffers() {
        let s = state(9);
        let e = ObsEngine::new(&s, 16);
        let mut out = Observation::empty();
        e.extract_into(&s, &mut out);
        assert_eq!(out, Observation::extract(&s, 16));
        let cap = out.vm_feats.capacity();
        e.extract_into(&s, &mut out);
        assert_eq!(out.vm_feats.capacity(), cap, "steady-state copy must not reallocate");
    }

    #[test]
    fn vm_add_stays_in_sync() {
        use crate::machine::Placement;
        use crate::types::NumaPolicy;
        let mut s = state(11);
        let mut e = ObsEngine::new(&s, 16);
        // Place a small VM on every PM that can take it.
        for i in 0..s.num_pms() {
            let pm = PmId(i as u32);
            let pl = Placement { pm, numa: NumaPlacement::Single(0) };
            if s.add_vm(2, 4, NumaPolicy::Single, pl).is_ok() {
                e.note_vm_added(&s);
                assert_eq!(e.observation(&s), &Observation::extract(&s, 16), "add on PM {i}");
            }
        }
    }

    #[test]
    fn vm_remove_stays_in_sync() {
        let mut s = state(12);
        let mut e = ObsEngine::new(&s, 16);
        // Remove from the middle (renumbers the last VM) and from the end.
        while s.num_vms() > 1 {
            let vm = VmId((s.num_vms() / 2) as u32);
            let removal = s.remove_vm(vm).unwrap();
            e.note_vm_removed(&s, vm, removal.placement.pm);
            assert_eq!(
                e.observation(&s),
                &Observation::extract(&s, 16),
                "remove at {} of {}",
                vm.0,
                s.num_vms() + 1
            );
        }
    }

    #[test]
    fn vm_resize_stays_in_sync() {
        let mut s = state(13);
        let mut e = ObsEngine::new(&s, 16);
        for k in 0..s.num_vms() {
            let vm = VmId(k as u32);
            let v = *s.vm(vm);
            if s.resize_vm(vm, v.cpu + v.numa.numa_count(), v.mem).is_ok() {
                let host = s.placement(vm).pm;
                e.refresh_pms(&s, host, host);
                assert_eq!(e.observation(&s), &Observation::extract(&s, 16), "resize VM {k}");
            }
        }
    }

    #[test]
    fn pm_add_stays_in_sync() {
        let mut s = state(14);
        let mut e = ObsEngine::new(&s, 16);
        // A huge empty PM moves several column extrema at once.
        s.add_pm(88, 256).unwrap();
        e.note_pm_added(&s);
        assert_eq!(e.observation(&s), &Observation::extract(&s, 16));
        // And a migration onto the new PM keeps working incrementally.
        let (vm, _) = legal_move(&s);
        let rec = s.migrate(vm, PmId((s.num_pms() - 1) as u32), 16).unwrap();
        e.note_migration(&s, &rec);
        assert_eq!(e.observation(&s), &Observation::extract(&s, 16));
    }

    #[test]
    fn same_pm_numa_flip_refreshes_one_pm() {
        let mut s = state(10);
        let mut e = ObsEngine::new(&s, 16);
        for k in 0..s.num_vms() {
            let vm = VmId(k as u32);
            let pl = s.placement(vm);
            if let NumaPlacement::Single(j) = pl.numa {
                if let Ok(rec) = s.migrate_exact(vm, pl.pm, NumaPlacement::Single(1 - j)) {
                    assert_eq!(rec.from.pm, rec.to.pm);
                    e.note_migration(&s, &rec);
                    assert_eq!(e.observation(&s), &Observation::extract(&s, 16));
                    return;
                }
            }
        }
        // Cluster too packed for any same-PM flip: nothing to assert.
    }
}
