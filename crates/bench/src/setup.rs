//! Shared experiment setup: run-mode dataset scaling and agent training
//! with on-disk checkpoint caching (so evaluation-flavored experiments can
//! reuse one trained policy instead of retraining).

use std::fs;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vmr_core::agent::Vmr2lAgent;
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::model::Vmr2lModel;
use vmr_core::train::{TrainConfig, TrainStats, Trainer};
use vmr_nn::checkpoint::Checkpoint;
use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::ClusterConfig;
use vmr_sim::error::{SimError, SimResult};

use crate::cli::RunMode;

/// The agent type every experiment trains.
pub type Agent = Vmr2lAgent<Vmr2lModel>;

/// Scales a paper dataset configuration to the run mode: PM count and
/// churn shrink together so utilization and fragmentation stay realistic.
pub fn scaled_config(base: &ClusterConfig, mode: RunMode) -> ClusterConfig {
    let factor = mode.pm_scale();
    let mut cfg = base.scaled_pms(factor);
    cfg.churn_cycles = ((base.churn_cycles as f64 * factor).round() as usize).max(20);
    cfg
}

/// What to train.
#[derive(Debug, Clone)]
pub struct AgentSpec {
    /// Feature extractor variant.
    pub extractor: ExtractorKind,
    /// Action-generation mode.
    pub mode: ActionMode,
    /// Architecture.
    pub model: ModelConfig,
    /// Training configuration.
    pub train: TrainConfig,
    /// Decima-style PM subsetting (None for VMR2L).
    pub pm_subset: Option<usize>,
}

impl AgentSpec {
    /// The standard VMR2L agent spec for a run mode.
    pub fn vmr2l(mode: RunMode, seed: u64) -> Self {
        let mut train = TrainConfig {
            updates: mode.train_updates(),
            seed,
            eval_every: 0,
            ..Default::default()
        };
        if mode == RunMode::Smoke {
            // Keep CI smoke runs fast, especially in debug builds.
            train.ppo.rollout_steps = 16;
            train.ppo.minibatch_size = 8;
            train.ppo.epochs = 1;
        }
        AgentSpec {
            extractor: ExtractorKind::SparseAttention,
            mode: ActionMode::TwoStage,
            model: ModelConfig::default(),
            train,
            pm_subset: None,
        }
    }

    /// The checkpoint-cache key: everything that determines the trained
    /// weights. The readable prefix is for humans; the hash covers the
    /// whole spec (`Debug` prints every field, PPO and Adam
    /// hyper-parameters included) and the training states and
    /// constraint sets as serialized.
    pub fn cache_key(&self, train_set: &[ClusterState], constraints: &[ConstraintSet]) -> String {
        let mut hash = fnv1a(FNV_OFFSET, format!("{self:?}").as_bytes());
        let states = train_set.iter().map(serde_json::to_string);
        let sets = constraints.iter().map(serde_json::to_string);
        for json in states.chain(sets) {
            hash = fnv1a(hash, json.expect("the serde shim's to_string never fails").as_bytes());
        }
        format!(
            "{:?}-{:?}-u{}-mnl{}-s{}-{hash:016x}",
            self.extractor, self.mode, self.train.updates, self.train.mnl, self.train.seed
        )
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, continued from `hash`: unlike `DefaultHasher`, stable
/// across toolchains, so a cache directory survives a compiler update.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Builds the (untrained) agent described by a spec.
pub fn build_agent(spec: &AgentSpec) -> Agent {
    let mut rng = StdRng::seed_from_u64(spec.train.seed ^ 0xa9e27);
    let model = Vmr2lModel::new(spec.model, spec.extractor, &mut rng);
    let mut agent = Vmr2lAgent::new(model, spec.mode);
    if let Some(k) = spec.pm_subset {
        agent = agent.with_pm_subset(k);
    }
    agent
}

/// Trains an agent per the spec, one constraint set per training mapping.
///
/// With a `cache_dir`, `<cache_dir>/<key>.json` is restored instead of
/// retraining when it exists (the returned history is then empty), and
/// written after a training run. Callers that need the history pass
/// `None`.
pub fn train_agent(
    spec: &AgentSpec,
    train_set: Vec<ClusterState>,
    constraints: Vec<ConstraintSet>,
    cache_dir: Option<&Path>,
) -> SimResult<(Agent, Vec<TrainStats>)> {
    let cache_path =
        cache_dir.map(|d| d.join(format!("{}.json", spec.cache_key(&train_set, &constraints))));
    if let Some(path) = &cache_path {
        if let Ok(ckpt) = Checkpoint::load(path) {
            let mut agent = build_agent(spec);
            if ckpt.restore(&mut agent.policy).is_ok() {
                eprintln!("(restored cached agent {})", path.display());
                return Ok((agent, Vec::new()));
            }
        }
    }
    let mut trainer =
        Trainer::with_constraints(build_agent(spec), train_set, vec![], constraints, spec.train)?;
    let history = trainer.train(|s| {
        eprintln!(
            "  update {:>3}: reward/step {:+.4}  loss {:+.4}  kl {:.4}",
            s.update, s.mean_reward, s.ppo.loss, s.ppo.approx_kl
        );
    })?;
    let agent = trainer.into_agent();
    if let (Some(path), Some(dir)) = (&cache_path, cache_dir) {
        if fs::create_dir_all(dir).is_err()
            || Checkpoint::capture(&agent.policy).save(path).is_err()
        {
            eprintln!("warning: could not cache agent at {}", path.display());
        }
    }
    Ok((agent, history))
}

/// The cluster used for RL *training* experiments at each mode (see the
/// README's *Experiments* section: CPU-budget training uses scaled-down
/// clusters; `--full` uses the paper's Medium shape).
pub fn train_cluster_config(mode: RunMode) -> ClusterConfig {
    match mode {
        RunMode::Smoke => ClusterConfig::tiny(),
        RunMode::Default => ClusterConfig::small_train(),
        RunMode::Full => ClusterConfig::medium(),
    }
}

/// Wall-clock budget handed to exact solvers per instance.
pub fn solver_budget(mode: RunMode) -> std::time::Duration {
    match mode {
        RunMode::Smoke => std::time::Duration::from_millis(200),
        RunMode::Default => std::time::Duration::from_secs(3),
        RunMode::Full => std::time::Duration::from_secs(30),
    }
}

/// Synthesizes hard anti-affinity constraints targeting a given affinity
/// ratio (the paper's Table 2 levels): random conflict groups are added
/// until the average conflict fraction reaches `target_ratio`.
pub fn synthesize_affinity(
    state: &ClusterState,
    target_ratio: f64,
    seed: u64,
) -> vmr_sim::constraints::ConstraintSet {
    use rand::Rng;
    use vmr_sim::types::VmId;
    let m = state.num_vms();
    let mut cs = vmr_sim::constraints::ConstraintSet::new(m);
    if m < 2 || target_ratio <= 0.0 {
        return cs;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Group size grows with the target ratio so extreme levels (38.3%)
    // are reachable without quadratic group counts.
    let group = ((target_ratio * m as f64).sqrt().ceil() as usize).clamp(2, m);
    let mut guard = 0;
    while cs.affinity_ratio() < target_ratio && guard < 10_000 {
        let members: Vec<VmId> = (0..group).map(|_| VmId(rng.gen_range(0..m) as u32)).collect();
        let _ = cs.add_conflict_group(&members);
        guard += 1;
    }
    cs
}

/// Convenience: generate `count` mappings from a scaled config.
pub fn mappings(cfg: &ClusterConfig, count: usize, seed: u64) -> SimResult<Vec<ClusterState>> {
    if count == 0 {
        return Err(SimError::InvalidMapping("need at least one mapping".into()));
    }
    (0..count).map(|i| vmr_sim::dataset::generate_mapping(cfg, seed + i as u64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_config_shrinks() {
        let base = ClusterConfig::medium();
        let s = scaled_config(&base, RunMode::Smoke);
        assert!(s.num_pms() < base.num_pms());
        assert!(s.churn_cycles >= 20);
        let f = scaled_config(&base, RunMode::Full);
        assert_eq!(f.num_pms(), base.num_pms());
    }

    #[test]
    fn cache_key_distinguishes_specs() {
        let states = mappings(&ClusterConfig::tiny(), 3, 0).unwrap();
        let free = |s: &[ClusterState]| -> Vec<ConstraintSet> {
            s.iter().map(|m| ConstraintSet::new(m.num_vms())).collect()
        };
        let a = AgentSpec::vmr2l(RunMode::Smoke, 0);
        let key = a.cache_key(&states, &free(&states));
        assert_eq!(key, a.clone().cache_key(&states.clone(), &free(&states)), "same inputs");

        let mut b = a.clone();
        b.extractor = ExtractorKind::VanillaAttention;
        assert_ne!(key, b.cache_key(&states, &free(&states)), "extractor");
        let mut b = a.clone();
        b.train.objective = vmr_sim::objective::Objective::MnlToGoal { fr_goal: 0.3, cores: 16 };
        assert_ne!(key, b.cache_key(&states, &free(&states)), "objective");
        let mut b = a.clone();
        b.pm_subset = Some(8);
        assert_ne!(key, b.cache_key(&states, &free(&states)), "pm_subset");
        let mut b = a.clone();
        b.train.ppo.epochs += 1;
        assert_ne!(key, b.cache_key(&states, &free(&states)), "ppo hyper-parameters");
        let mut b = a.clone();
        b.train.risk_quantile = Some(0.5);
        assert_ne!(key, b.cache_key(&states, &free(&states)), "risk quantile");

        assert_ne!(key, a.cache_key(&states[..2], &free(&states[..2])), "training-set size");
        let other = mappings(&ClusterConfig::tiny(), 3, 1).unwrap();
        assert_ne!(key, a.cache_key(&other, &free(&other)), "training states");
        let mut pinned = free(&states);
        pinned[0].pin(vmr_sim::types::VmId(0)).unwrap();
        assert_ne!(key, a.cache_key(&states, &pinned), "constraint sets");
    }

    #[test]
    fn cached_agent_is_restored_bit_for_bit_and_only_for_its_own_key() {
        let dir = std::env::temp_dir().join(format!("vmr-agent-cache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let states = mappings(&ClusterConfig::tiny(), 2, 0).unwrap();
        let free: Vec<_> = states.iter().map(|m| ConstraintSet::new(m.num_vms())).collect();
        let mut spec = AgentSpec::vmr2l(RunMode::Smoke, 0);
        spec.train.updates = 1;
        let weights = |a: &Agent| Checkpoint::capture(&a.policy).tensors;

        let (trained, hist) = train_agent(&spec, states.clone(), free.clone(), Some(&dir)).unwrap();
        assert_eq!(hist.len(), 1);
        let (restored, hist) =
            train_agent(&spec, states.clone(), free.clone(), Some(&dir)).unwrap();
        assert!(hist.is_empty(), "second call must hit the cache");
        assert_eq!(weights(&trained), weights(&restored));

        // One mapping fewer is another agent: it trains, it is not restored.
        let (_, hist) =
            train_agent(&spec, states[..1].to_vec(), free[..1].to_vec(), Some(&dir)).unwrap();
        assert_eq!(hist.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_agent_honors_subset() {
        let mut spec = AgentSpec::vmr2l(RunMode::Smoke, 1);
        spec.pm_subset = Some(4);
        let a = build_agent(&spec);
        assert_eq!(a.pm_subset_size, Some(4));
    }

    #[test]
    fn mappings_rejects_zero() {
        assert!(mappings(&ClusterConfig::tiny(), 0, 0).is_err());
    }
}
