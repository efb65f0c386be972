//! Live rescheduling sessions: one named cluster per session, backed by a
//! [`ReschedEnv`] whose incremental observation engine ([`vmr_sim::ObsEngine`])
//! stays warm across every request. Deltas mutate the committed state in
//! O(touched entities); plan requests roll out speculatively and rewind,
//! so no request ever pays an O(cluster) featurization rebuild.

use vmr_sim::dataset::{generate_mapping, ClusterConfig};
use vmr_sim::env::{Action, ClusterDelta, DeltaOutcome, ReschedEnv};
use vmr_sim::error::SimResult;
use vmr_sim::objective::Objective;
use vmr_sim::ClusterState;
use vmr_sim::ConstraintSet;

use crate::policies::{PlanPolicy, PlanRequest};
use crate::proto::{SessionInfo, SessionSnapshot, WireAction};

/// Resolves a dataset preset name (the same vocabulary as `vmr gen`).
pub fn preset_config(name: &str) -> Option<ClusterConfig> {
    Some(match name {
        "tiny" => ClusterConfig::tiny(),
        "small" => ClusterConfig::small_train(),
        "medium" => ClusterConfig::medium(),
        "large" => ClusterConfig::large(),
        "multi" => ClusterConfig::multi_resource(),
        "low" => ClusterConfig::workload_low(),
        "mid" => ClusterConfig::workload_mid(),
        "high" => ClusterConfig::workload_high(),
        "xxl" => ClusterConfig::xxl(),
        _ => return None,
    })
}

/// A validated, scored plan ready to serialize.
#[derive(Debug, Clone)]
pub struct PlanResult {
    /// The migrations in execution order.
    pub plan: Vec<WireAction>,
    /// Objective at the committed state.
    pub objective_before: f64,
    /// Objective after replaying the plan.
    pub objective_after: f64,
}

/// One live cluster: name, environment (state + constraints + engine),
/// and a default MNL for plan requests that do not carry one.
#[derive(Debug)]
pub struct Session {
    name: String,
    env: ReschedEnv,
    default_mnl: usize,
}

impl Session {
    /// Builds a session around an initial mapping.
    pub fn new(
        name: impl Into<String>,
        state: ClusterState,
        constraints: ConstraintSet,
        mnl: usize,
    ) -> SimResult<Self> {
        let env = ReschedEnv::new(state, constraints, Objective::default(), mnl)?;
        Ok(Session { name: name.into(), env, default_mnl: mnl })
    }

    /// Builds a session from a dataset preset (see [`preset_config`]).
    pub fn from_preset(
        name: impl Into<String>,
        config: &ClusterConfig,
        seed: u64,
        mnl: usize,
    ) -> SimResult<Self> {
        let state = generate_mapping(config, seed)?;
        let constraints = ConstraintSet::new(state.num_vms());
        Self::new(name, state, constraints, mnl)
    }

    /// Session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The session's default migration number limit.
    pub fn default_mnl(&self) -> usize {
        self.default_mnl
    }

    /// Direct environment access (benches and tests).
    pub fn env_mut(&mut self) -> &mut ReschedEnv {
        &mut self.env
    }

    /// Summary for wire responses.
    pub fn info(&self, version: u64) -> SessionInfo {
        SessionInfo {
            session: self.name.clone(),
            pms: self.env.state().num_pms(),
            vms: self.env.state().num_vms(),
            version,
            objective: self.env.objective_value(),
        }
    }

    /// Applies a typed delta to the committed state. Incremental: the
    /// observation engine is repaired, never rebuilt.
    pub fn apply_delta(&mut self, delta: &ClusterDelta) -> SimResult<DeltaOutcome> {
        self.env.apply_delta(delta)
    }

    /// Produces, validates, and scores a plan with `policy`.
    ///
    /// The policy may step the environment while searching; the session
    /// rewinds and then *replays* the returned plan step by step — every
    /// served migration is re-checked against the live [`ConstraintSet`],
    /// so an ill-behaved policy yields an error, never an illegal plan.
    /// With `commit` the replayed state becomes the new committed state.
    pub fn plan(
        &mut self,
        policy: &dyn PlanPolicy,
        req: &PlanRequest,
        commit: bool,
    ) -> SimResult<PlanResult> {
        let mnl = if req.mnl == 0 { self.default_mnl } else { req.mnl };
        let req = PlanRequest { mnl, ..*req };
        self.env.rewind();
        self.env.set_mnl(mnl);
        let objective_before = self.env.objective_value();
        let raw = policy.plan(&mut self.env, &req);
        self.env.rewind();
        let raw = raw?;
        // Validation replay: record source hosts as we go.
        let mut wire = Vec::with_capacity(raw.len());
        for &action in &raw {
            let from = self.env.state().placement(action.vm).pm;
            if let Err(e) = self.env.step(action) {
                self.env.rewind();
                return Err(e);
            }
            wire.push(WireAction { vm: action.vm.0, from_pm: from.0, to_pm: action.pm.0 });
        }
        let objective_after = self.env.objective_value();
        if commit {
            self.env.commit();
        } else {
            self.env.rewind();
        }
        Ok(PlanResult { plan: wire, objective_before, objective_after })
    }

    /// Replays and commits an externally-chosen plan (used by restore
    /// tooling and tests).
    pub fn commit_plan(&mut self, plan: &[Action]) -> SimResult<()> {
        self.env.rewind();
        self.env.set_mnl(plan.len().max(self.default_mnl));
        for &action in plan {
            if let Err(e) = self.env.step(action) {
                self.env.rewind();
                return Err(e);
            }
        }
        self.env.commit();
        Ok(())
    }

    /// Captures the committed state for offline storage. The bytes are
    /// canonical without a sort: a rewound cluster is a function of its
    /// placements, so a session and its recovered twin snapshot
    /// identically however many read-only plans either served.
    pub fn snapshot(&mut self, version: u64) -> SessionSnapshot {
        self.env.rewind();
        SessionSnapshot {
            state: self.env.state().clone(),
            constraints: self.env.constraints().clone(),
            mnl: self.default_mnl,
            version,
        }
    }

    /// Builds a session directly from a snapshot (the recovery path).
    ///
    /// The snapshot is *untrusted*: [`ClusterState::load`] checks it
    /// against the one cluster rule [`ClusterState::new`] applies (no
    /// zero-resource VMs or PMs, even CPU/memory on double-NUMA VMs,
    /// in-range placements, usage and reverse index matching them) and
    /// [`ReschedEnv::new`] that the constraint set covers it, before
    /// anything is installed. A reverse index stored in another order
    /// comes back ascending.
    pub fn from_snapshot(name: impl Into<String>, snapshot: SessionSnapshot) -> SimResult<Self> {
        let state = snapshot.state.load()?;
        Self::new(name, state, snapshot.constraints, snapshot.mnl)
    }

    /// Replaces the session's state from a snapshot (validated like
    /// [`Session::from_snapshot`]; on error the session is unchanged).
    pub fn restore(&mut self, snapshot: SessionSnapshot) -> SimResult<()> {
        let fresh = Self::from_snapshot(self.name.clone(), snapshot)?;
        self.env = fresh.env;
        self.default_mnl = fresh.default_mnl;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::HaPolicy;
    use std::time::Duration;
    use vmr_sim::types::{NumaPolicy, PmId, VmId};

    fn session() -> Session {
        Session::from_preset("t", &preset_config("tiny").unwrap(), 3, 6).unwrap()
    }

    fn req(mnl: usize) -> PlanRequest {
        PlanRequest {
            mnl,
            seed: 0,
            budget: Duration::from_millis(100),
            shards: 0,
            workers: 0,
            precision: vmr_core::config::PrecisionConfig::Exact64,
        }
    }

    #[test]
    fn preset_vocabulary() {
        for p in ["tiny", "small", "medium", "large", "multi", "low", "mid", "high", "xxl"] {
            assert!(preset_config(p).is_some(), "{p}");
        }
        assert!(preset_config("nope").is_none());
    }

    #[test]
    fn plan_does_not_disturb_committed_state() {
        let mut s = session();
        let before = s.env_mut().state().clone();
        let out = s.plan(&HaPolicy, &req(4), false).unwrap();
        assert!(out.objective_after <= out.objective_before + 1e-12);
        assert_eq!(s.env_mut().state(), &before);
        // Served actions carry the true source host.
        for a in &out.plan {
            assert_eq!(before.placement(VmId(a.vm)).pm.0, a.from_pm);
        }
    }

    #[test]
    fn plan_commit_advances_state() {
        let mut s = session();
        let fr0 = s.info(0).objective;
        let out = s.plan(&HaPolicy, &req(6), true).unwrap();
        let fr1 = s.info(1).objective;
        assert!((fr1 - out.objective_after).abs() < 1e-12);
        if !out.plan.is_empty() {
            assert!(fr1 < fr0, "HA commits an improving plan");
        }
    }

    #[test]
    fn deltas_then_plan_stay_consistent() {
        let mut s = session();
        s.apply_delta(&ClusterDelta::VmCreate { cpu: 2, mem: 4, numa: NumaPolicy::Single })
            .unwrap();
        s.apply_delta(&ClusterDelta::VmDelete { vm: VmId(0) }).unwrap();
        let out = s.plan(&HaPolicy, &req(4), false).unwrap();
        assert!(out.objective_after <= out.objective_before + 1e-12);
        s.env_mut().state().audit().unwrap();
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = session();
        let snap = s.snapshot(5);
        s.apply_delta(&ClusterDelta::VmCreate { cpu: 4, mem: 8, numa: NumaPolicy::Single })
            .unwrap();
        let mutated = s.env_mut().state().num_vms();
        s.restore(snap.clone()).unwrap();
        assert_eq!(s.env_mut().state().num_vms(), mutated - 1);
        assert_eq!(s.env_mut().state(), &snap.state);
        // A corrupt snapshot is rejected.
        let mut bad = snap;
        bad.constraints = ConstraintSet::new(1);
        assert!(s.restore(bad).is_err());
    }

    /// Read-only plans (migrate/undo) leave the live reverse index
    /// ascending, and so never touch a snapshot's bytes: the session
    /// snapshots exactly like a twin recovered from the snapshot it had
    /// before serving them, after the same delta.
    #[test]
    fn snapshot_bytes_do_not_depend_on_served_plans() {
        let mut s = Session::from_preset("t", &preset_config("small").unwrap(), 3, 6).unwrap();
        let before = serde_json::to_string(&s.snapshot(0)).unwrap();
        let served = (0..4)
            .map(|seed| s.plan(&HaPolicy, &PlanRequest { seed, ..req(6) }, false).unwrap())
            .filter(|out| !out.plan.is_empty())
            .count();
        assert!(served > 0, "the plans must move some VM");
        let ascending = |s: &mut Session| {
            let state = s.env_mut().state();
            (0..state.num_pms() as u32).all(|p| state.vms_on(PmId(p)).is_sorted())
        };
        assert!(ascending(&mut s), "plans must leave the index ascending");
        let delta = ClusterDelta::VmDelete { vm: VmId(1) };
        s.apply_delta(&delta).unwrap();
        assert!(ascending(&mut s), "a delta must leave the index ascending");
        let mut twin = Session::from_snapshot("t", serde_json::from_str(&before).unwrap()).unwrap();
        twin.apply_delta(&delta).unwrap();
        let snap = serde_json::to_string(&s.snapshot(1)).unwrap();
        assert_eq!(snap, serde_json::to_string(&twin.snapshot(1)).unwrap());
        let recovered = Session::from_snapshot("t", serde_json::from_str(&snap).unwrap());
        assert_eq!(snap, serde_json::to_string(&recovered.unwrap().snapshot(1)).unwrap());
    }

    #[test]
    fn zero_mnl_uses_session_default() {
        let mut s = session();
        let out = s.plan(&HaPolicy, &req(0), false).unwrap();
        assert!(out.plan.len() <= s.default_mnl());
    }
}
