//! The deterministic op generator.
//!
//! Everything the daemon receives comes out of an [`OpGen`] seeded from
//! `--seed`. The generator keeps an in-process mirror of the session it
//! feeds — the same [`Session`] type the daemon builds from the same
//! preset and seed — and draws each delta against it, so every emitted
//! delta is legal and VM ids track the swap-remove renumbering a delete
//! causes. Served plans that commit are applied to the mirror too; the
//! program under test only ever sees the generated requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vmr_serve::proto::{PlanParams, WireAction};
use vmr_serve::recovery::wire_plan_actions;
use vmr_serve::session::{preset_config, Session};
use vmr_sim::dataset::VmMix;
use vmr_sim::env::{ClusterDelta, DeltaOutcome};
use vmr_sim::types::{PmId, VmId};
use vmr_sim::{ClusterState, SimResult};

use crate::workload::PlanSpec;

/// `PmAdd` stops once the cluster has grown by this many PMs, so a long
/// run stays the size the workload states (there is no PM-remove delta
/// to balance adds with).
const MAX_ADDED_PMS: usize = 16;
/// The VM count is steered back inside this share of its initial value.
const VM_BAND: f64 = 0.05;
/// Default MNL of generated sessions (every plan request carries its own).
pub const SESSION_MNL: usize = 50;
/// The budget every plan request names (the daemon's default, spelled
/// out so that the re-enactment need not know what a daemon defaults to).
pub const PLAN_BUDGET_MS: u64 = 200;

/// SplitMix64: derives independent streams (per session, per plan) from
/// the one `--seed`.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cluster seed of session `index` (what the `create_session`
/// request carries). The clusters are the benchmark's fixed data set:
/// `--seed` draws the traffic, not the cluster, because a preset's VM
/// count moves ±3% with its seed and dense attention is quadratic in it
/// — run-to-run differences would measure the draw, not the code.
pub fn cluster_seed(index: usize) -> u64 {
    0xC1_0575 + index as u64
}

/// One session's op stream plus its mirror.
pub struct OpGen {
    rng: StdRng,
    mirror: Session,
    mix: VmMix,
    initial_vms: usize,
    initial_pms: usize,
    pm_ops: f64,
    seed: u64,
    plans_issued: u64,
}

impl OpGen {
    /// Builds the generator for session `index` of a run: the mirror is
    /// the cluster the daemon will generate for the matching
    /// `create_session(preset, cluster_seed(index))`.
    pub fn new(preset: &str, seed: u64, index: usize, pm_ops: f64) -> SimResult<Self> {
        let config = preset_config(preset).expect("workloads name known presets");
        let mirror = Session::from_preset("mirror", &config, cluster_seed(index), SESSION_MNL)?;
        let mut gen = OpGen {
            rng: StdRng::seed_from_u64(mix_seed(seed, 0x0905 + index as u64)),
            mirror,
            mix: config.vm_mix,
            initial_vms: 0,
            initial_pms: 0,
            pm_ops,
            seed: mix_seed(seed, 0x91A7 + index as u64),
            plans_issued: 0,
        };
        gen.initial_vms = gen.state().num_vms();
        gen.initial_pms = gen.state().num_pms();
        Ok(gen)
    }

    /// The mirror's committed cluster.
    pub fn state(&mut self) -> &ClusterState {
        self.mirror.env_mut().state()
    }

    /// The mirror's objective value (what `info.objective` must echo).
    pub fn objective(&self) -> f64 {
        self.mirror.info(0).objective
    }

    /// Draws the next delta, already applied to the mirror, with the
    /// outcome the daemon's reply must report.
    pub fn next_delta(&mut self) -> (ClusterDelta, DeltaOutcome) {
        for _ in 0..64 {
            let delta = self.draw();
            if let Ok(outcome) = self.mirror.apply_delta(&delta) {
                return (delta, outcome);
            }
        }
        // A delete of a live VM cannot fail, so the stream never stalls
        // (a cluster is never drained to zero VMs: deletes stop at the
        // lower band edge).
        let delta = ClusterDelta::VmDelete { vm: self.random_vm() };
        let outcome = self.mirror.apply_delta(&delta).expect("deleting a live VM succeeds");
        (delta, outcome)
    }

    fn random_vm(&mut self) -> VmId {
        let n = self.state().num_vms() as u32;
        VmId(self.rng.gen_range(0..n))
    }

    /// One candidate delta (may be refused by the mirror, e.g. a create
    /// that fits nowhere; the caller redraws).
    fn draw(&mut self) -> ClusterDelta {
        let (vms, pms) = (self.state().num_vms(), self.state().num_pms());
        if self.rng.gen_bool(self.pm_ops) {
            if pms < self.initial_pms + MAX_ADDED_PMS && self.rng.gen_bool(0.5) {
                let numa = self.state().pm(PmId(0)).numas[0];
                return ClusterDelta::PmAdd {
                    cpu_per_numa: numa.cpu_total,
                    mem_per_numa: numa.mem_total,
                };
            }
            return ClusterDelta::PmDrain { pm: PmId(self.rng.gen_range(0..pms as u32)) };
        }
        let band = (self.initial_vms as f64 * VM_BAND) as usize;
        let (low, high) = (vms + band <= self.initial_vms, vms >= self.initial_vms + band);
        // Create / delete / resize in equal shares; at a band edge the
        // op that would leave the band becomes its opposite.
        let kind = self.rng.gen_range(0..3u32);
        if (kind == 0 && !high) || (kind == 1 && low) {
            let f = self.mix.sample(&mut self.rng);
            return ClusterDelta::VmCreate { cpu: f.cpu, mem: f.mem, numa: f.numa };
        }
        let vm = self.random_vm();
        if kind != 2 {
            return ClusterDelta::VmDelete { vm };
        }
        // Resize within the VM's own NUMA policy (a double-NUMA VM needs
        // even CPU and memory; every double flavor of a mix has them).
        let numa = self.state().vm(vm).numa;
        for _ in 0..8 {
            let f = self.mix.sample(&mut self.rng);
            if f.numa == numa {
                return ClusterDelta::VmResize { vm, cpu: f.cpu, mem: f.mem };
            }
        }
        ClusterDelta::VmDelete { vm }
    }

    /// The next plan request of shape `spec` against `session`, with a
    /// fresh sampling seed.
    pub fn next_plan(&mut self, session: &str, spec: &PlanSpec) -> PlanParams {
        self.plans_issued += 1;
        plan_params(session, spec, mix_seed(self.seed, self.plans_issued))
    }

    /// Applies a served, committed plan to the mirror (replayed step by
    /// step, so an illegal served action is an error here).
    pub fn commit(&mut self, plan: &[WireAction]) -> SimResult<()> {
        self.mirror.commit_plan(&wire_plan_actions(plan))
    }
}

/// Wire parameters for one plan of shape `spec`.
pub fn plan_params(session: &str, spec: &PlanSpec, seed: u64) -> PlanParams {
    PlanParams {
        session: session.to_string(),
        policy: spec.policy.to_string(),
        mnl: spec.mnl,
        seed,
        budget_ms: PLAN_BUDGET_MS,
        shards: spec.shards,
        workers: spec.workers,
        precision: spec.precision,
        commit: spec.commit,
    }
}

/// Whether two clusters agree on what the checks compare: every VM's
/// placement and every PM's accounting (the `vms_on` reverse index is an
/// unordered set and may legitimately differ).
pub fn same_cluster(a: &ClusterState, b: &ClusterState) -> bool {
    a.placements() == b.placements() && a.pms() == b.pms()
}

/// Whether each action's `from_pm` is the VM's host at that point of the
/// plan, starting from `state` (a VM may move more than once).
pub fn sources_match(state: &ClusterState, plan: &[WireAction]) -> bool {
    let mut moved: Vec<(u32, u32)> = Vec::new();
    plan.iter().all(|a| {
        if a.vm as usize >= state.num_vms() {
            return false;
        }
        let host = moved
            .iter()
            .rev()
            .find(|(vm, _)| *vm == a.vm)
            .map_or(state.placement(VmId(a.vm)).pm.0, |&(_, pm)| pm);
        moved.push((a.vm, a.to_pm));
        host == a.from_pm
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_core::config::PrecisionConfig;

    /// `n` deltas as the bytes that would go on the wire.
    fn op_list(seed: u64, n: usize, pm_ops: f64) -> Vec<String> {
        let mut gen = OpGen::new("tiny", seed, 0, pm_ops).unwrap();
        (0..n).map(|_| serde_json::to_string(&gen.next_delta().0).unwrap()).collect()
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_list() {
        assert_eq!(op_list(7, 300, 0.05), op_list(7, 300, 0.05));
        assert_ne!(op_list(7, 300, 0.05), op_list(8, 300, 0.05));
        // Sessions of one run draw from independent streams.
        assert_ne!(cluster_seed(0), cluster_seed(1));
    }

    #[test]
    fn every_op_applies_cleanly_to_a_fresh_twin_and_ids_track_renumbering() {
        let mut gen = OpGen::new("tiny", 11, 0, 0.05).unwrap();
        let config = preset_config("tiny").unwrap();
        let mut twin = Session::from_preset("twin", &config, cluster_seed(0), 50).unwrap();
        let (mut kinds, mut renumbered) = ([0usize; 5], 0);
        for _ in 0..600 {
            let (delta, expected) = gen.next_delta();
            let outcome = twin.apply_delta(&delta).expect("generated deltas are legal");
            assert_eq!(outcome, expected);
            renumbered += usize::from(outcome.renumbered.is_some());
            kinds[match delta {
                ClusterDelta::VmCreate { .. } => 0,
                ClusterDelta::VmDelete { .. } => 1,
                ClusterDelta::VmResize { .. } => 2,
                ClusterDelta::PmAdd { .. } => 3,
                ClusterDelta::PmDrain { .. } => 4,
            }] += 1;
        }
        assert!(kinds.iter().all(|&k| k > 0), "every delta kind is drawn: {kinds:?}");
        assert!(renumbered > 0, "deletes below the last id renumber");
        assert!(same_cluster(twin.env_mut().state(), gen.state()));
        let (vms, pms) = (gen.state().num_vms(), gen.state().num_pms());
        assert!(pms <= gen.initial_pms + MAX_ADDED_PMS);
        assert!(vms.abs_diff(gen.initial_vms) <= gen.initial_vms / 10 + 1, "VM count is steered");
    }

    #[test]
    fn plan_seeds_are_fresh_and_sources_are_checked_in_plan_order() {
        let mut gen = OpGen::new("tiny", 3, 0, 0.0).unwrap();
        let spec = PlanSpec {
            policy: "ha",
            precision: PrecisionConfig::Exact64,
            mnl: 4,
            shards: 0,
            workers: 0,
            commit: false,
        };
        let (a, b) = (gen.next_plan("s0", &spec), gen.next_plan("s0", &spec));
        assert_ne!(a.seed, b.seed);
        assert_eq!((a.mnl, a.commit, a.policy.as_str()), (4, false, "ha"));

        let host = gen.state().placement(VmId(0)).pm.0;
        let hop = |from_pm, to_pm| WireAction { vm: 0, from_pm, to_pm };
        assert!(sources_match(gen.state(), &[hop(host, host + 1), hop(host + 1, host)]));
        assert!(!sources_match(gen.state(), &[hop(host, host + 1), hop(host, host + 1)]));
        assert!(!sources_match(gen.state(), &[WireAction { vm: u32::MAX, from_pm: 0, to_pm: 0 }]));
    }
}
