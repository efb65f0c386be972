//! Noisy-neighbor interference model and workload prediction (§7).
//!
//! The paper's discussion section identifies performance interference
//! from noisy neighbors — VMs that disproportionately consume shared
//! resources — as a rescheduling concern, and proposes (a) anti-affinity
//! constraints derived from resource profiles and (b) predictive models
//! for workload characterization. This module supplies both:
//!
//! * [`UsageProfiles`] — per-VM CPU utilization profiles (requested
//!   cores are an upper bound; actual draw varies), generated
//!   deterministically per seed in place of proprietary telemetry.
//! * [`EwmaPredictor`] — an exponentially-weighted moving-average
//!   predictor of per-VM utilization, the "predictive model for
//!   workload characterization" in its simplest production-credible
//!   form.
//! * [`InterferenceModel`] — a convex per-PM contention penalty that
//!   scores a whole cluster mapping, plus helpers that (a) rank the
//!   noisiest VMs and (b) derive anti-affinity conflict groups that the
//!   two-stage agent can enforce through the standard
//!   [`crate::constraints::ConstraintSet`] masking path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cluster::ClusterState;
use crate::constraints::ConstraintSet;
use crate::error::{SimError, SimResult};
use crate::types::{PmId, VmId};

/// Per-VM CPU utilization profile: what fraction of its *requested*
/// cores the VM actually keeps busy, on average and at burst.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmUsage {
    /// Long-run mean utilization in `[0, 1]`.
    pub mean_util: f64,
    /// 99th-percentile burst utilization in `[mean_util, 1]`.
    pub burst_util: f64,
}

impl VmUsage {
    /// Validates the invariants `0 ≤ mean ≤ burst ≤ 1`.
    pub fn validated(self) -> SimResult<Self> {
        if (0.0..=1.0).contains(&self.mean_util)
            && self.mean_util <= self.burst_util
            && self.burst_util <= 1.0
        {
            Ok(self)
        } else {
            Err(SimError::InvalidMapping(format!("invalid usage profile: {self:?}")))
        }
    }
}

/// Utilization profiles for every VM of a mapping, indexed by [`VmId`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsageProfiles {
    profiles: Vec<VmUsage>,
}

impl UsageProfiles {
    /// Builds profiles from explicit per-VM entries.
    pub fn new(profiles: Vec<VmUsage>) -> SimResult<Self> {
        for p in &profiles {
            p.validated()?;
        }
        Ok(UsageProfiles { profiles })
    }

    /// Generates a mixed population for `state`: mostly quiet VMs with a
    /// `noisy_frac` minority of near-saturating ones — the bimodal shape
    /// that makes noisy neighbors a scheduling problem in the first
    /// place. Deterministic per seed.
    pub fn generate(state: &ClusterState, noisy_frac: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let profiles = (0..state.num_vms())
            .map(|_| {
                if rng.gen_bool(noisy_frac.clamp(0.0, 1.0)) {
                    let mean = rng.gen_range(0.75..0.95);
                    VmUsage { mean_util: mean, burst_util: (mean + 0.05).min(1.0) }
                } else {
                    let mean = rng.gen_range(0.05..0.35);
                    VmUsage {
                        mean_util: mean,
                        burst_util: (mean + rng.gen_range(0.05..0.2)).min(1.0),
                    }
                }
            })
            .collect();
        UsageProfiles { profiles }
    }

    /// Profile of one VM.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range for the mapping these profiles
    /// were built for.
    pub fn usage(&self, vm: VmId) -> VmUsage {
        self.profiles[vm.0 as usize]
    }

    /// Number of profiled VMs.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no VM is profiled.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Samples an instantaneous utilization for a VM at `minute`:
    /// deterministic diurnal wobble between mean and burst.
    pub fn sample_util(&self, vm: VmId, minute: u32) -> f64 {
        let u = self.usage(vm);
        let phase = (minute as f64 / 1440.0 + vm.0 as f64 * 0.37) * std::f64::consts::TAU;
        let w = 0.5 + 0.5 * phase.sin();
        u.mean_util + (u.burst_util - u.mean_util) * w
    }
}

/// Exponentially-weighted moving-average predictor of a utilization
/// signal — the minimal "predictive model for workload characterization"
/// the paper's discussion proposes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EwmaPredictor {
    /// Smoothing factor in `(0, 1]`: weight of the newest observation.
    pub alpha: f64,
    estimate: Option<f64>,
}

impl EwmaPredictor {
    /// Creates a predictor. `alpha` is clamped into `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        EwmaPredictor { alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0), estimate: None }
    }

    /// Folds in a new observation and returns the updated estimate.
    pub fn update(&mut self, observation: f64) -> f64 {
        let next = match self.estimate {
            None => observation,
            Some(prev) => prev + self.alpha * (observation - prev),
        };
        self.estimate = Some(next);
        next
    }

    /// Current prediction (`None` until the first observation).
    pub fn predict(&self) -> Option<f64> {
        self.estimate
    }
}

/// Convex per-PM contention penalty.
///
/// A PM's *demand* is `Σ vm.cpu × util / pm.cpu_total`. Below
/// `threshold` the PM is considered interference-free; above it the
/// penalty grows quadratically, so one saturated PM scores worse than
/// two mildly-loaded ones — matching how tail latency degrades.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    /// Demand fraction above which contention starts (e.g. `0.7`).
    pub threshold: f64,
    /// Use burst utilization instead of mean (pessimistic sizing).
    pub use_burst: bool,
}

impl Default for InterferenceModel {
    fn default() -> Self {
        InterferenceModel { threshold: 0.7, use_burst: false }
    }
}

impl InterferenceModel {
    fn util_of(&self, u: VmUsage) -> f64 {
        if self.use_burst {
            u.burst_util
        } else {
            u.mean_util
        }
    }

    /// Demand fraction of one PM under the given profiles.
    pub fn pm_demand(&self, state: &ClusterState, profiles: &UsageProfiles, pm: PmId) -> f64 {
        let total = state.pm(pm).cpu_total() as f64;
        if total == 0.0 {
            return 0.0;
        }
        // Summed in ascending VM id (the reverse index's order): f64
        // addition is not associative, so the order is part of the score.
        let demand: f64 = state
            .vms_on(pm)
            .iter()
            .map(|&v| state.vm(v).cpu as f64 * self.util_of(profiles.usage(v)))
            .sum();
        demand / total
    }

    /// Penalty of one PM: `max(0, demand − threshold)²`.
    pub fn pm_penalty(&self, state: &ClusterState, profiles: &UsageProfiles, pm: PmId) -> f64 {
        let over = (self.pm_demand(state, profiles, pm) - self.threshold).max(0.0);
        over * over
    }

    /// Mean per-PM penalty over the whole mapping — the cluster
    /// interference score an operator would track.
    pub fn cluster_score(&self, state: &ClusterState, profiles: &UsageProfiles) -> f64 {
        if state.num_pms() == 0 {
            return 0.0;
        }
        let sum: f64 =
            (0..state.num_pms()).map(|i| self.pm_penalty(state, profiles, PmId(i as u32))).sum();
        sum / state.num_pms() as f64
    }

    /// Ranks VMs by their contribution to over-threshold PMs: the
    /// drop in that PM's penalty if the VM were removed. Returns up to
    /// `top_k` `(vm, contribution)` pairs, largest first.
    pub fn noisiest_vms(
        &self,
        state: &ClusterState,
        profiles: &UsageProfiles,
        top_k: usize,
    ) -> Vec<(VmId, f64)> {
        let mut scored: Vec<(VmId, f64)> = Vec::new();
        for pm_idx in 0..state.num_pms() {
            let pm = PmId(pm_idx as u32);
            let penalty = self.pm_penalty(state, profiles, pm);
            if penalty <= 0.0 {
                continue;
            }
            let total = state.pm(pm).cpu_total() as f64;
            let demand = self.pm_demand(state, profiles, pm);
            for &v in state.vms_on(pm) {
                let without =
                    demand - state.vm(v).cpu as f64 * self.util_of(profiles.usage(v)) / total;
                let residual = (without - self.threshold).max(0.0);
                scored.push((v, penalty - residual * residual));
            }
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(top_k);
        scored
    }

    /// Derives a hard anti-affinity conflict group from the noisiest
    /// VMs and installs it into a fresh [`ConstraintSet`]: no two of the
    /// top-`group_size` noisy VMs may share a PM after rescheduling.
    pub fn derive_anti_affinity(
        &self,
        state: &ClusterState,
        profiles: &UsageProfiles,
        group_size: usize,
    ) -> SimResult<ConstraintSet> {
        let noisy: Vec<VmId> =
            self.noisiest_vms(state, profiles, group_size).into_iter().map(|(v, _)| v).collect();
        let mut cs = ConstraintSet::new(state.num_vms());
        cs.add_conflict_group(&noisy)?;
        Ok(cs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_mapping, ClusterConfig};

    fn setup() -> (ClusterState, UsageProfiles) {
        let state = generate_mapping(&ClusterConfig::tiny(), 3).unwrap();
        let profiles = UsageProfiles::generate(&state, 0.25, 11);
        (state, profiles)
    }

    #[test]
    fn profiles_cover_all_vms_with_valid_ranges() {
        let (state, profiles) = setup();
        assert_eq!(profiles.len(), state.num_vms());
        for i in 0..profiles.len() {
            let u = profiles.usage(VmId(i as u32));
            assert!(u.validated().is_ok(), "VM {i}: {u:?}");
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let (state, _) = setup();
        let a = UsageProfiles::generate(&state, 0.25, 42);
        let b = UsageProfiles::generate(&state, 0.25, 42);
        let c = UsageProfiles::generate(&state, 0.25, 43);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must differ somewhere");
    }

    #[test]
    fn sampled_util_stays_within_profile_bounds() {
        let (state, profiles) = setup();
        for i in (0..state.num_vms()).step_by(3) {
            let vm = VmId(i as u32);
            let u = profiles.usage(vm);
            for minute in (0..1440).step_by(97) {
                let s = profiles.sample_util(vm, minute);
                assert!(
                    s >= u.mean_util - 1e-12 && s <= u.burst_util + 1e-12,
                    "VM {i} minute {minute}: {s} outside [{}, {}]",
                    u.mean_util,
                    u.burst_util
                );
            }
        }
    }

    #[test]
    fn ewma_converges_to_constant_signal() {
        let mut p = EwmaPredictor::new(0.3);
        assert_eq!(p.predict(), None);
        for _ in 0..100 {
            p.update(0.6);
        }
        assert!((p.predict().unwrap() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn ewma_tracks_step_change_monotonically() {
        let mut p = EwmaPredictor::new(0.2);
        p.update(0.1);
        let mut prev = p.predict().unwrap();
        for _ in 0..50 {
            let next = p.update(0.9);
            assert!(next >= prev - 1e-12, "estimate must rise toward the new level");
            prev = next;
        }
        assert!((prev - 0.9).abs() < 1e-4);
    }

    #[test]
    fn ewma_alpha_one_is_last_observation() {
        let mut p = EwmaPredictor::new(1.0);
        p.update(0.2);
        p.update(0.8);
        assert!((p.predict().unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn idle_cluster_scores_zero() {
        let (state, _) = setup();
        let quiet =
            UsageProfiles::new(vec![VmUsage { mean_util: 0.05, burst_util: 0.1 }; state.num_vms()])
                .unwrap();
        let m = InterferenceModel::default();
        assert_eq!(m.cluster_score(&state, &quiet), 0.0);
        assert!(m.noisiest_vms(&state, &quiet, 5).is_empty());
    }

    #[test]
    fn saturated_cluster_scores_positive_and_burst_is_pessimistic() {
        let (state, _) = setup();
        let hot =
            UsageProfiles::new(vec![VmUsage { mean_util: 0.95, burst_util: 1.0 }; state.num_vms()])
                .unwrap();
        let mean_model = InterferenceModel::default();
        let burst_model = InterferenceModel { use_burst: true, ..Default::default() };
        let s_mean = mean_model.cluster_score(&state, &hot);
        let s_burst = burst_model.cluster_score(&state, &hot);
        assert!(s_mean > 0.0, "a hot cluster must show contention");
        assert!(s_burst >= s_mean, "burst sizing is pessimistic");
    }

    #[test]
    fn noisiest_vms_are_sorted_and_positive() {
        let (state, profiles) = setup();
        let m = InterferenceModel { threshold: 0.1, use_burst: true };
        let ranked = m.noisiest_vms(&state, &profiles, 10);
        assert!(!ranked.is_empty(), "threshold 0.1 must flag some PM");
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1, "not sorted: {ranked:?}");
        }
        for (_, c) in &ranked {
            assert!(*c >= 0.0);
        }
    }

    #[test]
    fn derived_anti_affinity_separates_noisy_pairs() {
        let (state, profiles) = setup();
        let m = InterferenceModel { threshold: 0.1, use_burst: true };
        let cs = m.derive_anti_affinity(&state, &profiles, 4).unwrap();
        let noisy: Vec<VmId> =
            m.noisiest_vms(&state, &profiles, 4).into_iter().map(|(v, _)| v).collect();
        for (i, &a) in noisy.iter().enumerate() {
            for &b in noisy.iter().skip(i + 1) {
                assert!(cs.conflicts_of(a).contains(&b), "{a:?} must conflict with {b:?}");
            }
        }
    }

    #[test]
    fn invalid_profiles_rejected() {
        assert!(VmUsage { mean_util: -0.1, burst_util: 0.5 }.validated().is_err());
        assert!(VmUsage { mean_util: 0.6, burst_util: 0.5 }.validated().is_err());
        assert!(VmUsage { mean_util: 0.6, burst_util: 1.2 }.validated().is_err());
        assert!(VmUsage { mean_util: 0.3, burst_util: 0.3 }.validated().is_ok());
    }
}
