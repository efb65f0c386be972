//! The Gym-style rescheduling environment (§3.1).
//!
//! One episode corresponds to one rescheduling request: up to MNL steps,
//! each migrating a single VM to a destination PM. Transitions are exactly
//! deterministic — the property that lets VMR2L train entirely offline and
//! later re-simulate candidate trajectories for risk-seeking evaluation.

use serde::{Deserialize, Serialize};

use crate::cluster::{ClusterState, MigrationRecord};
use crate::constraints::ConstraintSet;
use crate::error::{SimError, SimResult};
use crate::machine::{Placement, Vm};
use crate::objective::Objective;
use crate::obs::Observation;
use crate::obs_cache::ObsEngine;
use crate::scheduler::best_fit;
use crate::types::{NumaPolicy, PmId, VmId};

/// An agent action: migrate `vm` to `pm` (the 2-tuple of §3.1; the source
/// PM is implied by the current placement, and the destination NUMA is
/// chosen by best fit inside the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Action {
    /// VM to migrate.
    pub vm: VmId,
    /// Destination PM.
    pub pm: PmId,
}

/// A typed live-cluster mutation for long-running (serving) environments:
/// the cluster a session tracks changes underneath it — VMs are created,
/// deleted, and resized; capacity is added and drained — and each delta is
/// applied incrementally so the observation engine never rebuilds from
/// scratch. See [`ReschedEnv::apply_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterDelta {
    /// A new VM arrives and is admitted by best-fit (the production VMS
    /// rule). Fails with [`SimError::NoFeasiblePlacement`] when nothing
    /// fits.
    VmCreate {
        /// Requested CPU cores.
        cpu: u32,
        /// Requested memory (GiB).
        mem: u32,
        /// Single- or double-NUMA deployment policy.
        numa: NumaPolicy,
    },
    /// A VM exits. Ids stay dense: the last VM is renumbered into the
    /// freed slot (reported via [`DeltaOutcome::renumbered`]).
    VmDelete {
        /// The departing VM.
        vm: VmId,
    },
    /// A VM's resource request changes in place.
    VmResize {
        /// The VM being resized.
        vm: VmId,
        /// New total CPU cores.
        cpu: u32,
        /// New total memory (GiB).
        mem: u32,
    },
    /// New empty capacity joins the cluster.
    PmAdd {
        /// CPU cores per NUMA node.
        cpu_per_numa: u32,
        /// Memory (GiB) per NUMA node.
        mem_per_numa: u32,
    },
    /// Evacuate every VM off a PM (e.g. ahead of maintenance). The PM
    /// stays in the cluster, empty. All-or-nothing: if any hosted VM has
    /// no feasible destination the whole drain rolls back and fails with
    /// [`SimError::NoFeasiblePlacement`].
    PmDrain {
        /// The PM to evacuate.
        pm: PmId,
    },
}

/// Renumbering performed by a [`ClusterDelta::VmDelete`]: the VM formerly
/// known as `from` is now `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Renumbering {
    /// The VM's id before the delete.
    pub from: VmId,
    /// Its id after the delete (the freed slot).
    pub to: VmId,
}

/// What a [`ReschedEnv::apply_delta`] call did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaOutcome {
    /// Id assigned to a created VM.
    pub created: Option<VmId>,
    /// Renumbering caused by a delete, if any.
    pub renumbered: Option<Renumbering>,
    /// Migrations performed by a drain.
    pub migrations: Vec<MigrationRecord>,
}

/// Result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Dense reward (Eq. 9, plus the goal term of Eq. 11 if applicable).
    pub reward: f64,
    /// Whether the episode terminated (MNL reached or goal achieved).
    pub done: bool,
    /// Objective value after the step (e.g. current fragment rate).
    pub objective: f64,
    /// The migration that was applied.
    pub record: MigrationRecord,
}

/// Episodic rescheduling environment.
///
/// Holds one cluster: the episode start is `state` with `history`
/// undone, so [`ReschedEnv::rewind`] returns to it and
/// [`ReschedEnv::commit`] makes the current state the new start.
#[derive(Debug, Clone)]
pub struct ReschedEnv {
    state: ClusterState,
    constraints: ConstraintSet,
    objective: Objective,
    mnl: usize,
    steps_taken: usize,
    done: bool,
    /// The episode's migrations, undone in LIFO order by `rewind`.
    history: Vec<MigrationRecord>,
    /// Incremental featurization cache, created lazily on the first
    /// [`ReschedEnv::observe`] and repaired by every mutation.
    engine: Option<ObsEngine>,
}

impl ReschedEnv {
    /// Creates an environment whose episodes start at `initial`.
    ///
    /// `mnl` is the migration number limit (episode length); the paper uses
    /// 2–3% of the VM count in production and sweeps 10–200 in evaluation.
    pub fn new(
        initial: ClusterState,
        constraints: ConstraintSet,
        objective: Objective,
        mnl: usize,
    ) -> SimResult<Self> {
        constraints.check_covers(&initial)?;
        Ok(ReschedEnv {
            state: initial,
            constraints,
            objective,
            mnl,
            steps_taken: 0,
            done: false,
            history: Vec::new(),
            engine: None,
        })
    }

    /// Convenience constructor with no service constraints.
    pub fn unconstrained(
        initial: ClusterState,
        objective: Objective,
        mnl: usize,
    ) -> SimResult<Self> {
        let n = initial.num_vms();
        Self::new(initial, ConstraintSet::new(n), objective, mnl)
    }

    /// Undoes every migration of the current episode in LIFO order,
    /// returning to the episode's start state. Each undo is noted as a
    /// repair, so the observation engine stays valid and the cost is
    /// O(steps · touched entities), never an O(cluster) rebuild — a
    /// daemon answers many plan requests against the same live state.
    /// The rewound cluster is `==` to the one the episode started from.
    pub fn rewind(&mut self) {
        while let Some(rec) = self.history.pop() {
            self.state.undo(&rec).expect("episode history is invertible");
            if let Some(engine) = &mut self.engine {
                engine.note_migration(&self.state, &rec);
            }
        }
        self.steps_taken = 0;
        self.done = false;
    }

    /// Makes the current state the new episode start (e.g. after
    /// deploying a plan): history is absorbed instead of undone. Keeps
    /// the observation engine valid.
    pub fn commit(&mut self) {
        self.history.clear();
        self.steps_taken = 0;
        self.done = false;
    }

    /// Changes the migration number limit for subsequent episodes.
    /// Intended for serving, where each plan request carries its own MNL;
    /// call on a rewound environment.
    pub fn set_mnl(&mut self, mnl: usize) {
        self.mnl = mnl;
        if self.steps_taken < mnl {
            self.done = false;
        }
    }

    /// Applies a live-cluster mutation (see [`ClusterDelta`]) to the
    /// committed state, keeping the constraint set and the incremental
    /// observation engine consistent — no full featurization rebuild.
    /// Any in-progress episode is rewound first; on error the state is
    /// unchanged. The mutated state becomes the new episode start.
    pub fn apply_delta(&mut self, delta: &ClusterDelta) -> SimResult<DeltaOutcome> {
        self.rewind();
        let frag = self.objective.frag_cores();
        Ok(match *delta {
            ClusterDelta::VmCreate { cpu, mem, numa } => {
                // A degenerate request is refused before admission probing.
                Vm::check_spec(cpu, mem, numa)?;
                let probe = Vm { id: VmId(self.state.num_vms() as u32), cpu, mem, numa };
                let (pm, pl) = best_fit(self.state.pms(), &probe, frag)
                    .ok_or(SimError::NoFeasiblePlacement(probe.id))?;
                let id = self.state.add_vm(cpu, mem, numa, Placement { pm, numa: pl })?;
                let grown = self.constraints.push_vm();
                debug_assert_eq!(id, grown);
                if let Some(engine) = &mut self.engine {
                    engine.note_vm_added(&self.state);
                }
                DeltaOutcome { created: Some(id), ..Default::default() }
            }
            ClusterDelta::VmDelete { vm } => {
                let removal = self.state.remove_vm(vm)?;
                self.constraints.swap_remove_vm(vm).expect("state removal validated the id");
                if let Some(engine) = &mut self.engine {
                    engine.note_vm_removed(&self.state, vm, removal.placement.pm);
                }
                DeltaOutcome {
                    renumbered: removal.renumbered.map(|from| Renumbering { from, to: vm }),
                    ..Default::default()
                }
            }
            ClusterDelta::VmResize { vm, cpu, mem } => {
                self.state.resize_vm(vm, cpu, mem)?;
                let host = self.state.placement(vm).pm;
                if let Some(engine) = &mut self.engine {
                    engine.refresh_pms(&self.state, host, host);
                }
                DeltaOutcome::default()
            }
            ClusterDelta::PmAdd { cpu_per_numa, mem_per_numa } => {
                self.state.add_pm(cpu_per_numa, mem_per_numa)?;
                if let Some(engine) = &mut self.engine {
                    engine.note_pm_added(&self.state);
                }
                DeltaOutcome::default()
            }
            ClusterDelta::PmDrain { pm } => self.drain_pm(pm)?,
        })
    }

    /// Evacuates every VM off `pm` (largest first), each to the legal
    /// destination minimizing the resulting fragment. All-or-nothing:
    /// rolls back and returns [`SimError::NoFeasiblePlacement`] if any
    /// hosted VM is stuck (pinned, conflicted, or out of capacity).
    fn drain_pm(&mut self, pm: PmId) -> SimResult<DeltaOutcome> {
        self.state.check_pm(pm)?;
        let frag = self.objective.frag_cores();
        let mut victims: Vec<VmId> = self.state.vms_on(pm).to_vec();
        victims.sort_by_key(|&v| (std::cmp::Reverse(self.state.vm(v).cpu), v.0));
        let mut applied: Vec<MigrationRecord> = Vec::new();
        for vm in victims {
            let mut best: Option<(u32, PmId)> = None;
            for i in 0..self.state.num_pms() {
                let dest = PmId(i as u32);
                if dest == pm || self.constraints.migration_legal(&self.state, vm, dest).is_err() {
                    continue;
                }
                let Some((_, after)) = self.state.pms_after_move(vm, dest, frag) else {
                    continue;
                };
                let score = after.cpu_fragment(frag);
                if best.is_none_or(|(s, _)| score < s) {
                    best = Some((score, dest));
                }
            }
            let Some((_, dest)) = best else {
                // Roll back already-applied evacuations: drains are atomic.
                for rec in applied.iter().rev() {
                    self.state.undo(rec).expect("drain rollback is invertible");
                    if let Some(engine) = &mut self.engine {
                        engine.note_migration(&self.state, rec);
                    }
                }
                return Err(SimError::NoFeasiblePlacement(vm));
            };
            let rec = self.state.migrate(vm, dest, frag)?;
            if let Some(engine) = &mut self.engine {
                engine.note_migration(&self.state, &rec);
            }
            applied.push(rec);
        }
        Ok(DeltaOutcome { migrations: applied, ..Default::default() })
    }

    /// Current cluster state (read-only).
    pub fn state(&self) -> &ClusterState {
        &self.state
    }

    /// Active constraints.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Active objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Migration number limit.
    pub fn mnl(&self) -> usize {
        self.mnl
    }

    /// Steps taken in the current episode.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Remaining migrations in the current episode.
    pub fn steps_remaining(&self) -> usize {
        self.mnl.saturating_sub(self.steps_taken)
    }

    /// Whether the episode has terminated.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Migrations applied so far this episode (for the Fig. 21 case-study
    /// visualization and for deploying the plan).
    pub fn history(&self) -> &[MigrationRecord] {
        &self.history
    }

    /// Current objective value.
    pub fn objective_value(&self) -> f64 {
        self.objective.value(&self.state)
    }

    /// Checks an action without mutating state.
    pub fn action_legal(&self, action: Action) -> SimResult<()> {
        if self.done {
            return Err(SimError::EpisodeDone);
        }
        self.constraints.migration_legal(&self.state, action.vm, action.pm)
    }

    /// Applies one migration. On error the state is unchanged and the step
    /// is not consumed (illegal probes are free, as the two-stage masking
    /// guarantees the trained agent never submits them).
    pub fn step(&mut self, action: Action) -> SimResult<StepOutcome> {
        if self.done {
            return Err(SimError::EpisodeDone);
        }
        if self.steps_taken >= self.mnl {
            self.done = true;
            return Err(SimError::MnlExhausted);
        }
        self.constraints.migration_legal(&self.state, action.vm, action.pm)?;
        let src = self.state.placement(action.vm).pm;
        let dest = action.pm;
        let src_score = self.objective.pm_score(&self.state, src);
        let dest_score = self.objective.pm_score(&self.state, dest);
        let record = self.state.migrate(action.vm, action.pm, self.objective.frag_cores())?;
        if let Some(engine) = &mut self.engine {
            engine.note_migration(&self.state, &record);
        }
        self.steps_taken += 1;
        self.history.push(record);

        let mut reward = self.objective.step_reward(&self.state, src, dest, src_score, dest_score);
        let objective = self.objective.value(&self.state);
        reward += self.objective.goal_bonus(objective);
        let goal_hit = self.objective.reached_goal(objective);
        self.done = goal_hit || self.steps_taken >= self.mnl;
        Ok(StepOutcome { reward, done: self.done, objective, record })
    }

    /// Legal destination mask for a candidate VM (stage-2 mask).
    pub fn pm_mask(&self, vm: VmId) -> Vec<bool> {
        self.constraints.pm_mask(&self.state, vm)
    }

    /// Stage-2 mask into a caller-owned buffer (zero allocation in steady
    /// state). See [`ConstraintSet::pm_mask_into`].
    pub fn pm_mask_into(&self, vm: VmId, out: &mut Vec<bool>) {
        self.constraints.pm_mask_into(&self.state, vm, out);
    }

    /// Eligibility mask over VMs (stage-1 mask).
    pub fn vm_mask(&self) -> Vec<bool> {
        self.constraints.vm_mask(&self.state, false)
    }

    /// Stage-1 mask into a caller-owned buffer. `require_destination`
    /// additionally demands an existing legal destination (early-exiting
    /// per VM instead of building a full stage-2 mask).
    pub fn vm_mask_into(&self, require_destination: bool, out: &mut Vec<bool>) {
        self.constraints.vm_mask_into(&self.state, require_destination, out);
    }

    /// The current state's featurization, maintained incrementally: the
    /// first call builds an [`ObsEngine`]; subsequent calls pay only for
    /// the rows the episode's migrations actually dirtied, instead of the
    /// O(cluster) full rebuild of [`Observation::extract`].
    ///
    /// The returned reference is bit-identical to
    /// `Observation::extract(env.state(), frag_cores)`.
    pub fn observe(&mut self) -> &Observation {
        let frag_cores = self.objective.frag_cores();
        match &mut self.engine {
            Some(engine) if engine.frag_cores() == frag_cores => {}
            _ => self.engine = Some(ObsEngine::new(&self.state, frag_cores)),
        }
        self.engine.as_ref().expect("engine just ensured").observation(&self.state)
    }

    /// Copies the current featurization into `out` without allocating in
    /// steady state.
    pub fn observe_into(&mut self, out: &mut Observation) {
        out.clone_from(self.observe());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Placement, Pm, Vm};
    use crate::types::{NumaPlacement, NumaPolicy};

    fn env(mnl: usize) -> ReschedEnv {
        let pms = vec![Pm::symmetric(PmId(0), 44, 128), Pm::symmetric(PmId(1), 44, 128)];
        let vms = vec![
            Vm { id: VmId(0), cpu: 16, mem: 32, numa: NumaPolicy::Single },
            Vm { id: VmId(1), cpu: 8, mem: 16, numa: NumaPolicy::Single },
            Vm { id: VmId(2), cpu: 4, mem: 8, numa: NumaPolicy::Single },
        ];
        let placements = vec![
            Placement { pm: PmId(0), numa: NumaPlacement::Single(0) },
            Placement { pm: PmId(0), numa: NumaPlacement::Single(1) },
            Placement { pm: PmId(1), numa: NumaPlacement::Single(0) },
        ];
        let state = ClusterState::new(pms, vms, placements).unwrap();
        ReschedEnv::unconstrained(state, Objective::default(), mnl).unwrap()
    }

    #[test]
    fn episode_terminates_at_mnl() {
        let mut e = env(2);
        let o1 = e.step(Action { vm: VmId(2), pm: PmId(0) }).unwrap();
        assert!(!o1.done);
        let o2 = e.step(Action { vm: VmId(2), pm: PmId(1) }).unwrap();
        assert!(o2.done);
        assert!(e.is_done());
        assert!(matches!(e.step(Action { vm: VmId(2), pm: PmId(0) }), Err(SimError::EpisodeDone)));
    }

    #[test]
    fn illegal_actions_do_not_consume_steps() {
        let mut e = env(2);
        // Migrating onto the same placement spot: ensure error keeps step count.
        let err = e.step(Action { vm: VmId(0), pm: PmId(0) });
        // VM0 may flip NUMA (PM0 numa1 has 36 free >= 16), so this may be Ok;
        // use an impossible one instead: a 16-core VM onto a PM with capacity.
        drop(err);
        let before = e.steps_taken();
        let bad = Action { vm: VmId(99), pm: PmId(0) };
        assert!(e.step(bad).is_err());
        assert_eq!(e.steps_taken(), before);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut e = env(3);
        let fr0 = e.objective_value();
        e.step(Action { vm: VmId(2), pm: PmId(0) }).unwrap();
        assert_eq!(e.history().len(), 1);
        e.rewind();
        assert_eq!(e.steps_taken(), 0);
        assert!(e.history().is_empty());
        assert!((e.objective_value() - fr0).abs() < 1e-15);
    }

    #[test]
    fn reward_equals_global_fragment_drop() {
        let mut e = env(3);
        let before = e.state().total_cpu_fragment(16) as f64;
        let out = e.step(Action { vm: VmId(1), pm: PmId(1) }).unwrap();
        let after = e.state().total_cpu_fragment(16) as f64;
        assert!((out.reward - (before - after) / 64.0).abs() < 1e-9);
    }

    #[test]
    fn goal_objective_ends_early() {
        let pms = vec![Pm::symmetric(PmId(0), 16, 64), Pm::symmetric(PmId(1), 16, 64)];
        let vms = vec![Vm { id: VmId(0), cpu: 4, mem: 8, numa: NumaPolicy::Single }];
        let placements = vec![Placement { pm: PmId(0), numa: NumaPlacement::Single(0) }];
        let state = ClusterState::new(pms, vms, placements).unwrap();
        // The initial FR is (12%16 + 16%16*3-ish)/free; pick a generous goal so
        // any step reaching it terminates the episode.
        let mut e =
            ReschedEnv::unconstrained(state, Objective::MnlToGoal { fr_goal: 1.0, cores: 16 }, 5)
                .unwrap();
        let out = e.step(Action { vm: VmId(0), pm: PmId(1) }).unwrap();
        assert!(out.done, "goal reached should end the episode");
        assert!(out.reward >= 10.0 - 1.0); // bonus dominates
    }

    #[test]
    fn observe_matches_full_extract_across_steps_and_reset() {
        let mut e = env(3);
        let frag = e.objective().frag_cores();
        let check = |e: &mut ReschedEnv| {
            let fresh = Observation::extract(e.state(), frag);
            assert_eq!(e.observe(), &fresh);
        };
        check(&mut e);
        e.step(Action { vm: VmId(2), pm: PmId(0) }).unwrap();
        check(&mut e);
        e.step(Action { vm: VmId(1), pm: PmId(1) }).unwrap();
        check(&mut e);
        e.rewind();
        check(&mut e);
    }

    #[test]
    fn observe_into_reuses_buffers() {
        let mut e = env(3);
        let mut obs = Observation::empty();
        e.observe_into(&mut obs);
        let cap = obs.vm_feats.capacity();
        e.step(Action { vm: VmId(2), pm: PmId(0) }).unwrap();
        e.observe_into(&mut obs);
        assert_eq!(obs, Observation::extract(e.state(), e.objective().frag_cores()));
        assert_eq!(obs.vm_feats.capacity(), cap);
    }

    #[test]
    fn mask_into_matches_allocating_masks() {
        let e = env(4);
        let mut buf = Vec::new();
        e.pm_mask_into(VmId(1), &mut buf);
        assert_eq!(buf, e.pm_mask(VmId(1)));
        let mut vbuf = Vec::new();
        e.vm_mask_into(false, &mut vbuf);
        assert_eq!(vbuf, e.vm_mask());
    }

    #[test]
    fn rewind_restores_state_and_keeps_engine_valid() {
        let mut e = env(3);
        let frag = e.objective().frag_cores();
        let before = e.state().clone();
        let _ = e.observe(); // engine live
        e.step(Action { vm: VmId(2), pm: PmId(0) }).unwrap();
        e.step(Action { vm: VmId(1), pm: PmId(1) }).unwrap();
        e.rewind();
        assert_eq!(e.steps_taken(), 0);
        assert!(!e.is_done());
        assert_eq!(e.state().placements(), before.placements());
        assert_eq!(e.observe(), &Observation::extract(&before, frag));
    }

    #[test]
    fn commit_absorbs_history() {
        let mut e = env(3);
        e.step(Action { vm: VmId(2), pm: PmId(0) }).unwrap();
        let committed = e.state().clone();
        e.commit();
        assert_eq!(e.steps_taken(), 0);
        assert!(e.history().is_empty());
        // rewind now returns to the committed state, not the original one.
        e.step(Action { vm: VmId(2), pm: PmId(1) }).unwrap();
        e.rewind();
        assert_eq!(e.state().placements(), committed.placements());
    }

    #[test]
    fn deltas_mutate_state_and_engine_without_rebuild() {
        let mut e = env(4);
        let frag = e.objective().frag_cores();
        let _ = e.observe();
        let check = |e: &mut ReschedEnv| {
            let fresh = Observation::extract(e.state(), frag);
            assert_eq!(e.observe(), &fresh);
            e.state().audit().unwrap();
            assert_eq!(e.constraints().num_vms(), e.state().num_vms());
        };
        let out = e
            .apply_delta(&ClusterDelta::VmCreate { cpu: 4, mem: 8, numa: NumaPolicy::Single })
            .unwrap();
        assert_eq!(out.created, Some(VmId(3)));
        check(&mut e);
        e.apply_delta(&ClusterDelta::VmResize { vm: VmId(0), cpu: 8, mem: 16 }).unwrap();
        assert_eq!(e.state().vm(VmId(0)).cpu, 8);
        check(&mut e);
        let out = e.apply_delta(&ClusterDelta::VmDelete { vm: VmId(1) }).unwrap();
        assert_eq!(out.renumbered, Some(Renumbering { from: VmId(3), to: VmId(1) }));
        check(&mut e);
        e.apply_delta(&ClusterDelta::PmAdd { cpu_per_numa: 44, mem_per_numa: 128 }).unwrap();
        assert_eq!(e.state().num_pms(), 3);
        check(&mut e);
        let out = e.apply_delta(&ClusterDelta::PmDrain { pm: PmId(0) }).unwrap();
        assert!(!out.migrations.is_empty());
        assert!(e.state().vms_on(PmId(0)).is_empty());
        check(&mut e);
        // Deltas commit: a rewind stays on the mutated cluster.
        e.rewind();
        assert!(e.state().vms_on(PmId(0)).is_empty());
    }

    #[test]
    fn bad_deltas_return_typed_errors_and_leave_state_intact() {
        let mut e = env(4);
        let before = e.state().clone();
        assert!(matches!(
            e.apply_delta(&ClusterDelta::VmCreate { cpu: 500, mem: 8, numa: NumaPolicy::Single }),
            Err(SimError::NoFeasiblePlacement(_))
        ));
        assert!(matches!(
            e.apply_delta(&ClusterDelta::VmDelete { vm: VmId(99) }),
            Err(SimError::UnknownVm(_))
        ));
        assert!(matches!(
            e.apply_delta(&ClusterDelta::VmResize { vm: VmId(0), cpu: 500, mem: 8 }),
            Err(SimError::InsufficientResources { .. })
        ));
        assert!(matches!(
            e.apply_delta(&ClusterDelta::PmDrain { pm: PmId(9) }),
            Err(SimError::UnknownPm(_))
        ));
        assert_eq!(e.state(), &before);
    }

    #[test]
    fn degenerate_deltas_are_rejected() {
        let mut e = env(4);
        let before = e.state().clone();
        // Zero-resource creates and resizes, odd double-NUMA shapes, and
        // zero-capacity PMs are all InvalidMapping, with state untouched.
        for delta in [
            ClusterDelta::VmCreate { cpu: 0, mem: 8, numa: NumaPolicy::Single },
            ClusterDelta::VmCreate { cpu: 4, mem: 0, numa: NumaPolicy::Single },
            ClusterDelta::VmCreate { cpu: 5, mem: 8, numa: NumaPolicy::Double },
            ClusterDelta::VmCreate { cpu: 4, mem: 7, numa: NumaPolicy::Double },
            ClusterDelta::VmResize { vm: VmId(0), cpu: 0, mem: 8 },
            ClusterDelta::VmResize { vm: VmId(0), cpu: 4, mem: 0 },
            ClusterDelta::PmAdd { cpu_per_numa: 0, mem_per_numa: 128 },
            ClusterDelta::PmAdd { cpu_per_numa: 44, mem_per_numa: 0 },
        ] {
            assert!(
                matches!(e.apply_delta(&delta), Err(SimError::InvalidMapping(_))),
                "{delta:?} must be rejected as InvalidMapping"
            );
            assert_eq!(e.state(), &before, "{delta:?} must not mutate state");
        }
        // The direct cluster mutators enforce the same rules (the delta
        // path is not the only entry).
        let mut s = before.clone();
        assert!(s
            .add_vm(
                4,
                0,
                NumaPolicy::Single,
                Placement { pm: PmId(0), numa: NumaPlacement::Single(0) }
            )
            .is_err());
        assert!(s
            .add_vm(
                3,
                8,
                NumaPolicy::Double,
                Placement { pm: PmId(0), numa: NumaPlacement::Double }
            )
            .is_err());
        assert!(s.resize_vm(VmId(0), 4, 0).is_err());
    }

    #[test]
    fn drain_rolls_back_atomically_on_stuck_vm() {
        // PM0 hosts an 8c VM (movable) and a 4c VM that conflicts with
        // the VM on PM1: the drain moves the 8c VM first, then hits the
        // conflict and must restore everything.
        let pms = vec![Pm::symmetric(PmId(0), 44, 128), Pm::symmetric(PmId(1), 44, 128)];
        let vms = vec![
            Vm { id: VmId(0), cpu: 8, mem: 16, numa: NumaPolicy::Single },
            Vm { id: VmId(1), cpu: 4, mem: 8, numa: NumaPolicy::Single },
            Vm { id: VmId(2), cpu: 4, mem: 8, numa: NumaPolicy::Single },
        ];
        let placements = vec![
            Placement { pm: PmId(0), numa: NumaPlacement::Single(0) },
            Placement { pm: PmId(0), numa: NumaPlacement::Single(1) },
            Placement { pm: PmId(1), numa: NumaPlacement::Single(0) },
        ];
        let state = ClusterState::new(pms, vms, placements).unwrap();
        let mut cs = ConstraintSet::new(3);
        cs.add_conflict(VmId(1), VmId(2)).unwrap();
        let mut e = ReschedEnv::new(state, cs, Objective::default(), 4).unwrap();
        let frag = e.objective().frag_cores();
        let _ = e.observe();
        let before = e.state().clone();
        assert_eq!(
            e.apply_delta(&ClusterDelta::PmDrain { pm: PmId(0) }),
            Err(SimError::NoFeasiblePlacement(VmId(1)))
        );
        assert_eq!(e.state().placements(), before.placements(), "rollback must be exact");
        assert_eq!(e.observe(), &Observation::extract(&before, frag));
    }

    #[test]
    fn set_mnl_changes_budget() {
        let mut e = env(1);
        e.step(Action { vm: VmId(2), pm: PmId(0) }).unwrap();
        assert!(e.is_done());
        e.rewind();
        e.set_mnl(3);
        e.step(Action { vm: VmId(2), pm: PmId(0) }).unwrap();
        assert!(!e.is_done());
        assert_eq!(e.steps_remaining(), 2);
    }

    #[test]
    fn masks_are_consistent_with_step() {
        let mut e = env(5);
        let vm = VmId(1);
        let mask = e.pm_mask(vm);
        for (i, &ok) in mask.iter().enumerate() {
            let act = Action { vm, pm: PmId(i as u32) };
            assert_eq!(e.action_legal(act).is_ok(), ok, "mask disagrees at pm {i}");
        }
        // Take a legal one and make sure it succeeds.
        if let Some(i) = mask.iter().position(|&b| b) {
            e.step(Action { vm, pm: PmId(i as u32) }).unwrap();
        }
    }
}
