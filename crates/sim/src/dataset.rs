//! Dataset generation: synthetic replacements for the paper's proprietary
//! traces (§4, "Datasets").
//!
//! The paper's datasets are collections of *mappings* — snapshots of
//! VM→PM assignments when a rescheduling request is created. We regenerate
//! them with the same process the paper attributes to production: VMs
//! arrive and exit continuously and a **best-fit** scheduler places each
//! arrival, which over time scatters small fragments across PMs. Presets
//! mirror each paper dataset's PM/VM counts, machine shapes, VM-type mix,
//! and workload level. The anonymization step the paper applied (randomly
//! remove VMs, redeploy the survivors onto random feasible PMs) is also
//! reproduced, adding further fragmentation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::__private::{Error, Value};
use serde::{Deserialize, Serialize};

use crate::cluster::ClusterState;
use crate::dynamics::DynamicCluster;
use crate::error::{SimError, SimResult};
use crate::machine::{Pm, Vm};
use crate::scheduler::VmsPolicy;
use crate::types::{NumaPolicy, PmId, STANDARD_VM_TYPES};

/// One entry of a VM-type mix: a flavor plus its sampling weight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmMixEntry {
    /// Requested CPU cores.
    pub cpu: u32,
    /// Requested memory GiB.
    pub mem: u32,
    /// NUMA deployment policy.
    pub numa: NumaPolicy,
    /// Relative sampling weight (need not be normalized).
    pub weight: f64,
}

/// A weighted mixture of VM flavors, used by arrival processes.
///
/// Every mix, a deserialized one included, is built by [`VmMix::new`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VmMix {
    entries: Vec<VmMixEntry>,
}

impl Deserialize for VmMix {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        let entries = v
            .as_object()
            .and_then(|m| m.get("entries"))
            .ok_or_else(|| Error::custom("expected a VmMix object with `entries`"))?;
        VmMix::new(Vec::__deserialize(entries)?).map_err(|e| Error::custom(e.to_string()))
    }
}

impl VmMix {
    /// Builds a mix, rejecting empty inputs, weights that are not finite
    /// and positive, and flavors [`Vm::check_spec`] refuses.
    pub fn new(entries: Vec<VmMixEntry>) -> SimResult<Self> {
        if entries.is_empty() {
            return Err(SimError::InvalidMapping("empty VM mix".into()));
        }
        if entries.iter().any(|e| !(e.weight.is_finite() && e.weight > 0.0)) {
            return Err(SimError::InvalidMapping("VM mix entries need positive weight".into()));
        }
        for e in &entries {
            Vm::check_spec(e.cpu, e.mem, e.numa)?;
        }
        Ok(VmMix { entries })
    }

    /// The standard Table-1 mix, weighted towards small flavors as in
    /// production clusters (small VMs dominate arrival counts).
    pub fn standard() -> Self {
        let weights = [0.24, 0.28, 0.22, 0.16, 0.06, 0.03, 0.01];
        let entries = STANDARD_VM_TYPES
            .iter()
            .zip(weights)
            .map(|(t, weight)| VmMixEntry { cpu: t.cpu, mem: t.mem, numa: t.numa, weight })
            .collect();
        VmMix::new(entries).expect("standard mix is valid")
    }

    /// A mix skewed towards larger flavors (the Large dataset has larger
    /// average VM sizes, §4 footnote 10).
    pub fn large_skewed() -> Self {
        let weights = [0.10, 0.16, 0.22, 0.24, 0.16, 0.09, 0.03];
        let entries = STANDARD_VM_TYPES
            .iter()
            .zip(weights)
            .map(|(t, weight)| VmMixEntry { cpu: t.cpu, mem: t.mem, numa: t.numa, weight })
            .collect();
        VmMix::new(entries).expect("large mix is valid")
    }

    /// The Multi-Resource mix (§5.4): Table-1 flavors plus memory-boosted
    /// variants whose CPU:mem ratio goes up to 1:8.
    pub fn multi_resource() -> Self {
        let mut entries: Vec<VmMixEntry> = STANDARD_VM_TYPES
            .iter()
            .zip([0.18, 0.22, 0.18, 0.12, 0.05, 0.02, 0.01])
            .map(|(t, weight)| VmMixEntry { cpu: t.cpu, mem: t.mem, numa: t.numa, weight })
            .collect();
        // Memory-intensive variants: 1:4 and 1:8 ratios.
        entries.push(VmMixEntry { cpu: 2, mem: 8, numa: NumaPolicy::Single, weight: 0.06 });
        entries.push(VmMixEntry { cpu: 4, mem: 16, numa: NumaPolicy::Single, weight: 0.06 });
        entries.push(VmMixEntry { cpu: 4, mem: 32, numa: NumaPolicy::Single, weight: 0.04 });
        entries.push(VmMixEntry { cpu: 8, mem: 64, numa: NumaPolicy::Single, weight: 0.04 });
        entries.push(VmMixEntry { cpu: 16, mem: 128, numa: NumaPolicy::Single, weight: 0.02 });
        VmMix::new(entries).expect("multi-resource mix is valid")
    }

    /// Samples a flavor from the mix.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> VmMixEntry {
        let total: f64 = self.entries.iter().map(|e| e.weight).sum();
        let mut roll = rng.gen::<f64>() * total;
        for e in &self.entries {
            roll -= e.weight;
            if roll <= 0.0 {
                return *e;
            }
        }
        *self.entries.last().expect("mix is non-empty")
    }

    /// The entries of the mix.
    pub fn entries(&self) -> &[VmMixEntry] {
        &self.entries
    }
}

/// A homogeneous group of PMs in a cluster configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmGroup {
    /// Number of PMs in the group.
    pub count: usize,
    /// CPU cores per NUMA node.
    pub cpu_per_numa: u32,
    /// Memory GiB per NUMA node.
    pub mem_per_numa: u32,
}

/// Everything needed to synthesize mappings for one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Dataset name (used in reports).
    pub name: String,
    /// PM hardware groups.
    pub pm_groups: Vec<PmGroup>,
    /// Arrival flavor mix.
    pub vm_mix: VmMix,
    /// Target CPU utilization of generated mappings in `(0, 1)`.
    pub target_util: f64,
    /// Churn cycles (replace a random VM via best-fit) applied after the
    /// initial fill; more churn → more fragmentation.
    pub churn_cycles: usize,
    /// Fraction of VMs redeployed onto *random* feasible PMs at the end
    /// (the paper's anonymization step).
    pub shuffle_frac: f64,
}

impl ClusterConfig {
    /// Total PM count.
    pub fn num_pms(&self) -> usize {
        self.pm_groups.iter().map(|g| g.count).sum()
    }

    /// Instantiates the (empty) PM list.
    pub fn build_pms(&self) -> Vec<Pm> {
        let mut pms = Vec::with_capacity(self.num_pms());
        for g in &self.pm_groups {
            for _ in 0..g.count {
                let id = PmId(pms.len() as u32);
                pms.push(Pm::symmetric(id, g.cpu_per_numa, g.mem_per_numa));
            }
        }
        pms
    }

    /// The paper's **Medium** dataset: 280 PMs, ≈2089 VMs at high workload.
    pub fn medium() -> Self {
        ClusterConfig {
            name: "medium".into(),
            pm_groups: vec![PmGroup { count: 280, cpu_per_numa: 44, mem_per_numa: 128 }],
            vm_mix: VmMix::standard(),
            target_util: 0.83,
            churn_cycles: 1200,
            shuffle_frac: 0.15,
        }
    }

    /// The paper's **Large** dataset: 1176 PMs, ≈4546 VMs, larger VM sizes,
    /// lower VM:PM ratio.
    pub fn large() -> Self {
        ClusterConfig {
            name: "large".into(),
            pm_groups: vec![PmGroup { count: 1176, cpu_per_numa: 44, mem_per_numa: 128 }],
            vm_mix: VmMix::large_skewed(),
            target_util: 0.62,
            churn_cycles: 2500,
            shuffle_frac: 0.15,
        }
    }

    /// A production-scale benchmarking cluster beyond the paper's Large
    /// dataset: 1600 PMs with the large-skewed VM mix. Used by the
    /// `simulator_ops` bench (`large_1600pm`) to show hot-path scaling at
    /// the size where O(cluster) and O(touched) diverge the most.
    pub fn xlarge() -> Self {
        ClusterConfig {
            name: "xlarge".into(),
            pm_groups: vec![PmGroup { count: 1600, cpu_per_numa: 44, mem_per_numa: 128 }],
            vm_mix: VmMix::large_skewed(),
            target_util: 0.62,
            churn_cycles: 3000,
            shuffle_frac: 0.15,
        }
    }

    /// A 10,000-PM fleet — the scale regime shard-parallel planning
    /// exists for, one order of magnitude beyond the paper's Large
    /// dataset (`vmr gen --preset xxl`): at this size any
    /// O(PMs·VMs)-per-move planner is minutes-per-plan unsharded, while
    /// per-shard cost stays at the Medium scale. Churn is kept moderate
    /// so generation stays tractable.
    pub fn xxl() -> Self {
        ClusterConfig {
            name: "xxl".into(),
            pm_groups: vec![PmGroup { count: 10_000, cpu_per_numa: 44, mem_per_numa: 128 }],
            vm_mix: VmMix::large_skewed(),
            target_util: 0.62,
            churn_cycles: 1500,
            shuffle_frac: 0.10,
        }
    }

    /// The paper's **Multi-Resource** dataset (§5.4): two PM shapes
    /// (88 CPU/256 GiB and 128 CPU/364 GiB) and memory-boosted VM types.
    pub fn multi_resource() -> Self {
        ClusterConfig {
            name: "multi_resource".into(),
            pm_groups: vec![
                PmGroup { count: 120, cpu_per_numa: 44, mem_per_numa: 128 },
                PmGroup { count: 80, cpu_per_numa: 64, mem_per_numa: 182 },
            ],
            vm_mix: VmMix::multi_resource(),
            target_util: 0.78,
            churn_cycles: 900,
            shuffle_frac: 0.15,
        }
    }

    /// Low-workload variant of the Medium cluster (§5.6.1; Fig. 15).
    pub fn workload_low() -> Self {
        ClusterConfig { name: "low".into(), target_util: 0.45, ..Self::medium() }
    }

    /// Middle-workload variant (§5.6.1).
    pub fn workload_mid() -> Self {
        ClusterConfig { name: "mid".into(), target_util: 0.65, ..Self::medium() }
    }

    /// High-workload variant — the paper equates this with the Medium
    /// dataset itself (§5.6.1).
    pub fn workload_high() -> Self {
        ClusterConfig { name: "high".into(), ..Self::medium() }
    }

    /// A scaled-down cluster for RL *training* experiments in this repo
    /// (see the README's *Experiments* section on run modes): 40 PMs,
    /// ≈200 VMs.
    pub fn small_train() -> Self {
        ClusterConfig {
            name: "small_train".into(),
            pm_groups: vec![PmGroup { count: 40, cpu_per_numa: 44, mem_per_numa: 128 }],
            vm_mix: VmMix::standard(),
            target_util: 0.8,
            churn_cycles: 250,
            shuffle_frac: 0.2,
        }
    }

    /// A tiny cluster for unit tests: 6 PMs.
    pub fn tiny() -> Self {
        ClusterConfig {
            name: "tiny".into(),
            pm_groups: vec![PmGroup { count: 6, cpu_per_numa: 44, mem_per_numa: 128 }],
            vm_mix: VmMix::standard(),
            target_util: 0.7,
            churn_cycles: 40,
            shuffle_frac: 0.25,
        }
    }

    /// Returns a copy with the PM count scaled by `factor` (used by the
    /// Fig. 17 cluster-size generalization experiment).
    pub fn scaled_pms(&self, factor: f64) -> Self {
        let mut cfg = self.clone();
        for g in &mut cfg.pm_groups {
            g.count = ((g.count as f64 * factor).round() as usize).max(1);
        }
        cfg.name = format!("{}_x{factor:.2}", self.name);
        cfg
    }
}

/// Phases 1–2 of [`generate_mapping`] under an arbitrary VMS `policy`:
/// fill the configuration's PMs to its target utilization (until 64
/// arrivals in a row are refused), then `churn_cycles` times exit a
/// random VM and admit up to four replacements while below target.
/// Refused arrivals are part of the process being modelled. Best fit
/// draws nothing from `rng`, so under it only the flavors and exits do.
pub fn populate<R: Rng + ?Sized>(
    config: &ClusterConfig,
    policy: VmsPolicy,
    rng: &mut R,
) -> DynamicCluster {
    let mut cluster = DynamicCluster::from_pms(config.build_pms());
    let total_cpu: u64 =
        config.pm_groups.iter().map(|g| (g.count as u64) * 2 * g.cpu_per_numa as u64).sum();
    let target_used = (total_cpu as f64 * config.target_util) as u64;
    let arrive = |cluster: &mut DynamicCluster, rng: &mut R| {
        let flavor = config.vm_mix.sample(rng);
        cluster.arrival_with_policy(flavor.cpu, flavor.mem, flavor.numa, policy, rng).is_ok()
    };
    let mut consecutive_failures = 0usize;
    while cluster.used_cpu() < target_used && consecutive_failures < 64 {
        if arrive(&mut cluster, rng) {
            consecutive_failures = 0;
        } else {
            consecutive_failures += 1;
        }
    }
    for _ in 0..config.churn_cycles {
        if cluster.exit_random(rng).is_some() {
            let mut attempts = 0;
            while cluster.used_cpu() < target_used && attempts < 4 {
                arrive(&mut cluster, rng);
                attempts += 1;
            }
        }
    }
    cluster
}

/// Generates one mapping (cluster snapshot) from a configuration.
///
/// Process: best-fit fill to the target utilization → churn (exit one VM,
/// admit replacements) → random partial redeploy (anonymization). The
/// result is built, and so validated, by [`ClusterState::new`].
pub fn generate_mapping(config: &ClusterConfig, seed: u64) -> SimResult<ClusterState> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dyn_cluster = populate(config, VmsPolicy::BestFit, &mut rng);
    // Phase 3: anonymization shuffle — redeploy a fraction of VMs onto
    // uniformly random feasible PMs.
    dyn_cluster.random_redeploy(config.shuffle_frac, &mut rng);
    dyn_cluster.freeze()
}

/// A named collection of mappings with train/val/test indices, mirroring
/// the paper's 4000/200/200 split of 4400 mappings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Dataset name (matches the generating config).
    pub name: String,
    /// All mappings.
    pub mappings: Vec<ClusterState>,
    /// Indices into `mappings` for training.
    pub train: Vec<usize>,
    /// Indices for validation.
    pub val: Vec<usize>,
    /// Indices for testing.
    pub test: Vec<usize>,
}

impl Dataset {
    /// Generates `count` mappings and splits them `~90/5/5`.
    pub fn generate(config: &ClusterConfig, count: usize, seed: u64) -> SimResult<Self> {
        let mut mappings = Vec::with_capacity(count);
        for i in 0..count {
            mappings.push(generate_mapping(config, seed.wrapping_add(i as u64))?);
        }
        let n_val = (count / 20).max(1.min(count.saturating_sub(1)));
        let n_test = n_val;
        let n_train = count.saturating_sub(n_val + n_test);
        let train = (0..n_train).collect();
        let val = (n_train..n_train + n_val).collect();
        let test = (n_train + n_val..count).collect();
        Ok(Dataset { name: config.name.clone(), mappings, train, val, test })
    }

    /// The training mappings.
    pub fn train_mappings(&self) -> impl Iterator<Item = &ClusterState> {
        self.train.iter().map(move |&i| &self.mappings[i])
    }

    /// The validation mappings.
    pub fn val_mappings(&self) -> impl Iterator<Item = &ClusterState> {
        self.val.iter().map(move |&i| &self.mappings[i])
    }

    /// The test mappings.
    pub fn test_mappings(&self) -> impl Iterator<Item = &ClusterState> {
        self.test.iter().map(move |&i| &self.mappings[i])
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("dataset serialization cannot fail")
    }

    /// Deserializes from JSON, loading every mapping through
    /// [`ClusterState::load`] (the file is outside input: a bad one is an
    /// `Err`, never a panic).
    pub fn from_json(json: &str) -> SimResult<Self> {
        let mut ds: Dataset = serde_json::from_str(json)
            .map_err(|e| SimError::InvalidMapping(format!("bad dataset JSON: {e}")))?;
        ds.mappings = ds.mappings.into_iter().map(ClusterState::load).collect::<SimResult<_>>()?;
        let n = ds.mappings.len();
        if let Some(&i) = [&ds.train, &ds.val, &ds.test].into_iter().flatten().find(|&&i| i >= n) {
            return Err(SimError::InvalidMapping(format!("split names mapping {i} of {n}")));
        }
        Ok(ds)
    }

    /// Randomly shuffles mapping order (seeded), keeping split sizes.
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..self.mappings.len()).collect();
        order.shuffle(&mut rng);
        let remap = |ids: &mut Vec<usize>| {
            for i in ids.iter_mut() {
                *i = order[*i];
            }
        };
        remap(&mut self.train);
        remap(&mut self.val);
        remap(&mut self.test);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_mix_samples_all_types() {
        let mix = VmMix::standard();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen_small = false;
        let mut seen_double = false;
        for _ in 0..2000 {
            let e = mix.sample(&mut rng);
            if e.cpu == 2 {
                seen_small = true;
            }
            if e.numa == NumaPolicy::Double {
                seen_double = true;
            }
        }
        assert!(seen_small && seen_double);
    }

    #[test]
    fn empty_mix_rejected() {
        assert!(VmMix::new(vec![]).is_err());
        assert!(VmMix::new(vec![VmMixEntry {
            cpu: 0,
            mem: 1,
            numa: NumaPolicy::Single,
            weight: 1.0
        }])
        .is_err());
    }

    /// A mix read from JSON passes the rules [`VmMix::new`] enforces: an
    /// empty mix, a zero-CPU flavor or a negative weight is an `Err`, not
    /// a mix that panics in `sample`.
    #[test]
    fn a_deserialized_mix_is_checked() {
        let entry = |cpu: u32, weight: f64| {
            format!(r#"{{"cpu":{cpu},"mem":8,"numa":"Single","weight":{weight}}}"#)
        };
        for (what, json) in [
            ("empty", r#"{"entries":[]}"#.to_string()),
            ("zero CPU", format!(r#"{{"entries":[{}]}}"#, entry(0, 1.0))),
            ("negative weight", format!(r#"{{"entries":[{},{}]}}"#, entry(4, 1.0), entry(2, -0.5))),
            ("no entries", "{}".to_string()),
        ] {
            assert!(serde_json::from_str::<VmMix>(&json).is_err(), "{what} mix must be refused");
        }
        let mix = VmMix::standard();
        let back: VmMix = serde_json::from_str(&serde_json::to_string(&mix).unwrap()).unwrap();
        assert_eq!(back, mix);
        let config = ClusterConfig::medium();
        let back: ClusterConfig =
            serde_json::from_str(&serde_json::to_string(&config).unwrap()).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn tiny_mapping_generates_and_audits() {
        let cfg = ClusterConfig::tiny();
        let m = generate_mapping(&cfg, 42).unwrap();
        assert_eq!(m.num_pms(), 6);
        assert!(m.num_vms() > 10, "expected a populated cluster");
        m.audit().unwrap();
        let util = m.cpu_utilization();
        assert!(util > 0.5 && util <= 0.95, "utilization {util} off target");
    }

    #[test]
    fn mapping_generation_is_deterministic() {
        let cfg = ClusterConfig::tiny();
        let a = generate_mapping(&cfg, 9).unwrap();
        let b = generate_mapping(&cfg, 9).unwrap();
        assert_eq!(a, b);
        let c = generate_mapping(&cfg, 10).unwrap();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generated_mapping_has_fragments() {
        // The whole premise of the paper: best-fit + churn leaves fragments.
        let cfg = ClusterConfig::tiny();
        let m = generate_mapping(&cfg, 5).unwrap();
        assert!(m.fragment_rate(16) > 0.0, "churned cluster should be fragmented");
    }

    #[test]
    fn dataset_split_shapes() {
        let cfg = ClusterConfig::tiny();
        let ds = Dataset::generate(&cfg, 20, 123).unwrap();
        assert_eq!(ds.mappings.len(), 20);
        assert_eq!(ds.train.len() + ds.val.len() + ds.test.len(), 20);
        assert!(!ds.val.is_empty() && !ds.test.is_empty());
    }

    #[test]
    fn dataset_json_roundtrip() {
        let cfg = ClusterConfig::tiny();
        let ds = Dataset::generate(&cfg, 3, 7).unwrap();
        let json = ds.to_json();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(ds.mappings, back.mappings);
        assert_eq!(ds.train, back.train);
    }

    #[test]
    fn workload_presets_order_utilization() {
        let low = generate_mapping(
            &ClusterConfig {
                pm_groups: vec![PmGroup { count: 10, cpu_per_numa: 44, mem_per_numa: 128 }],
                ..ClusterConfig::workload_low()
            },
            3,
        )
        .unwrap();
        let high = generate_mapping(
            &ClusterConfig {
                pm_groups: vec![PmGroup { count: 10, cpu_per_numa: 44, mem_per_numa: 128 }],
                ..ClusterConfig::workload_high()
            },
            3,
        )
        .unwrap();
        assert!(high.cpu_utilization() > low.cpu_utilization());
    }

    #[test]
    fn scaled_config_changes_pm_count() {
        let cfg = ClusterConfig::tiny().scaled_pms(2.0);
        assert_eq!(cfg.num_pms(), 12);
        let cfg = ClusterConfig::tiny().scaled_pms(0.5);
        assert_eq!(cfg.num_pms(), 3);
    }
}
