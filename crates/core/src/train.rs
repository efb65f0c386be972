//! PPO training loop for VMR2L (§3–4; CleanRL-style single-loop recipe).
//!
//! Rollouts are collected from the deterministic simulator across the
//! training mappings; updates recompute log-probabilities differentiably
//! under the stored legality masks. The Penalty ablation's −5 reward for
//! illegal actions is implemented here (the environment itself never
//! consumes a step on an illegal action, so the trainer tracks attempts).
//!
//! ## Parallel rollout collection
//!
//! Collection is **episode-indexed**: episode `e` always runs on training
//! mapping `e % mappings` with an RNG stream derived from `(seed, e)`,
//! and the rollout buffer is assembled from whole episodes in index
//! order. Worker threads ([`TrainConfig::rollout_workers`], each with its
//! own [`ReschedEnv`] and [`InferCtx`]) merely claim episode indices from
//! an atomic counter — the resulting buffer is **byte-identical for any
//! worker count**, so parallelism can never change what gets learned
//! (enforced by the `rollout_determinism` test).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vmr_nn::graph::Graph;
use vmr_nn::optim::{Adam, AdamConfig};
use vmr_rl::buffer::{RolloutBuffer, Transition};
use vmr_rl::ppo::{ppo_loss, PpoConfig, PpoStats};
use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::env::ReschedEnv;
use vmr_sim::error::{SimError, SimResult};
use vmr_sim::objective::Objective;

use crate::agent::{DecideOpts, InferCtx, Policy, StoredAction, StoredObs, Vmr2lAgent};
use crate::config::ActionMode;

/// Training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// PPO hyper-parameters.
    pub ppo: PpoConfig,
    /// Optimizer hyper-parameters.
    pub adam: AdamConfig,
    /// Episode length (migration number limit).
    pub mnl: usize,
    /// Optimization objective.
    pub objective: Objective,
    /// Number of PPO updates to run.
    pub updates: usize,
    /// RNG seed.
    pub seed: u64,
    /// Evaluate on the eval set every this many updates (0 = never).
    pub eval_every: usize,
    /// Episodes per evaluation.
    pub eval_episodes: usize,
    /// Reward for illegal actions in Penalty mode.
    pub penalty_reward: f64,
    /// Risk-seeking training (§8 future work; Petersen et al.): when
    /// set, only episodes whose rollout return reaches this quantile
    /// contribute gradients, optimizing best-case rather than average
    /// performance — the training-time mirror of risk-seeking
    /// evaluation. `None` (the default) is standard PPO.
    pub risk_quantile: Option<f64>,
    /// Learning-rate schedule over updates (CleanRL-style annealing).
    /// `None` keeps `adam.lr` constant. The schedule is evaluated at
    /// `update − 1`, so `LinearSchedule { start: lr, end: 0, total:
    /// updates }` reproduces CleanRL's linear decay.
    pub lr_schedule: Option<vmr_rl::schedule::LinearSchedule>,
    /// Environment workers for rollout collection (0/1 = single-threaded).
    /// The collected buffer is byte-identical for any value — workers
    /// only change wall-clock time, never trajectories.
    pub rollout_workers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            ppo: PpoConfig {
                rollout_steps: 64,
                minibatch_size: 16,
                epochs: 2,
                ..Default::default()
            },
            adam: AdamConfig { lr: 1e-3, ..Default::default() },
            mnl: 8,
            objective: Objective::default(),
            updates: 40,
            seed: 0,
            eval_every: 5,
            eval_episodes: 4,
            penalty_reward: -5.0,
            risk_quantile: None,
            lr_schedule: None,
            rollout_workers: 1,
        }
    }
}

/// Per-update training diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct TrainStats {
    /// Update index (1-based).
    pub update: usize,
    /// Mean per-step reward in the rollout.
    pub mean_reward: f64,
    /// Mean episode return in the rollout.
    pub mean_episode_return: f64,
    /// Greedy evaluation objective (NaN when not evaluated this update).
    pub eval_objective: f64,
    /// PPO loss diagnostics (last minibatch of the update).
    pub ppo: PpoStats,
}

/// The trainer: agent + data + optimizer state.
pub struct Trainer<P: Policy> {
    /// The agent being trained.
    pub agent: Vmr2lAgent<P>,
    cfg: TrainConfig,
    opt: Adam,
    rng: StdRng,
    train_set: Vec<ClusterState>,
    eval_set: Vec<ClusterState>,
    constraints: Vec<ConstraintSet>,
    /// Next episode index; episode `e` deterministically maps to
    /// `(mapping e % len, rng stream from (seed, e))`.
    next_episode: u64,
    /// Tail of the episode the previous rollout truncated, consumed at
    /// the start of the next one — with `mnl > rollout_steps` no
    /// transition is ever silently dropped.
    carry: Vec<Transition<StoredObs, StoredAction>>,
    /// Terminal bootstrap of the carried episode.
    carry_bootstrap: f64,
    /// Rollout storage, reused across updates (transitions keep their
    /// capacity; `collect_rollout` clears rather than reallocates).
    buffer: RolloutBuffer<StoredObs, StoredAction>,
}

/// One collected episode: its transitions plus the critic bootstrap for
/// the state *after* the last stored transition (0.0 if it ended done).
struct EpisodeOut {
    transitions: Vec<Transition<StoredObs, StoredAction>>,
    bootstrap: f64,
}

/// Deterministic per-episode RNG stream: a SplitMix64 mix of the training
/// seed and the episode index, so trajectories are a pure function of
/// `(weights, mapping, seed, episode)` — never of the worker that ran it.
fn episode_seed(base: u64, episode: u64) -> u64 {
    let mut z = base ^ episode.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one complete episode on a worker-local environment and context.
fn run_episode<P: Policy>(
    agent: &Vmr2lAgent<P>,
    mapping: &ClusterState,
    constraints: &ConstraintSet,
    cfg: &TrainConfig,
    seed: u64,
    ictx: &mut InferCtx,
) -> SimResult<EpisodeOut> {
    let mut env = ReschedEnv::new(mapping.clone(), constraints.clone(), cfg.objective, cfg.mnl)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = DecideOpts::default();
    let mut transitions = Vec::new();
    let mut attempts = 0usize;
    loop {
        if env.is_done() || attempts >= cfg.mnl {
            break;
        }
        let Some(decision) = agent.decide_in(&mut env, ictx, &mut rng, &opts)? else {
            // No legal action: abandon the episode.
            break;
        };
        attempts += 1;
        let (reward, done) = match env.step(decision.action) {
            Ok(out) => (out.reward, out.done),
            Err(SimError::EpisodeDone | SimError::MnlExhausted) => break,
            // The two-stage masks are the legality rule: an action they
            // allow that the step refuses is a bug, not a penalty.
            Err(illegal) if agent.mode == ActionMode::TwoStage => return Err(illegal),
            Err(_illegal) => {
                // Penalty-mode illegal action: fixed negative reward,
                // no state change; the attempt still consumes budget.
                (cfg.penalty_reward, attempts >= cfg.mnl)
            }
        };
        transitions.push(Transition {
            obs: decision.stored_obs,
            action: decision.stored_action,
            log_prob: decision.log_prob,
            value: decision.value,
            reward,
            done,
        });
        if done {
            break;
        }
    }
    let bootstrap = match transitions.last() {
        Some(t) if t.done => 0.0,
        Some(_) => agent.state_value_in(&mut env, ictx),
        None => 0.0,
    };
    Ok(EpisodeOut { transitions, bootstrap })
}

impl<P: Policy> Trainer<P> {
    /// Creates a trainer over unconstrained mappings.
    pub fn new(
        agent: Vmr2lAgent<P>,
        train_set: Vec<ClusterState>,
        eval_set: Vec<ClusterState>,
        cfg: TrainConfig,
    ) -> SimResult<Self> {
        let constraints = train_set.iter().map(|m| ConstraintSet::new(m.num_vms())).collect();
        Self::with_constraints(agent, train_set, eval_set, constraints, cfg)
    }

    /// Creates a trainer with per-mapping service constraints.
    pub fn with_constraints(
        agent: Vmr2lAgent<P>,
        train_set: Vec<ClusterState>,
        eval_set: Vec<ClusterState>,
        constraints: Vec<ConstraintSet>,
        cfg: TrainConfig,
    ) -> SimResult<Self> {
        if train_set.is_empty() {
            return Err(SimError::InvalidMapping("empty training set".into()));
        }
        if constraints.len() != train_set.len() {
            return Err(SimError::InvalidMapping(
                "one constraint set per training mapping required".into(),
            ));
        }
        // Validate every (mapping, constraints) pair up front, as episode
        // workers construct their environments lazily.
        for (mapping, cs) in train_set.iter().zip(&constraints) {
            cs.check_covers(mapping)?;
        }
        Ok(Trainer {
            agent,
            cfg,
            opt: Adam::new(cfg.adam),
            rng: StdRng::seed_from_u64(cfg.seed),
            train_set,
            eval_set,
            constraints,
            next_episode: 0,
            carry: Vec::new(),
            carry_bootstrap: 0.0,
            buffer: RolloutBuffer::new(),
        })
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Runs the full training loop, invoking `progress` after each update.
    pub fn train(&mut self, mut progress: impl FnMut(&TrainStats)) -> SimResult<Vec<TrainStats>>
    where
        P: Sync,
    {
        let mut history = Vec::with_capacity(self.cfg.updates);
        for update in 1..=self.cfg.updates {
            if let Some(schedule) = self.cfg.lr_schedule {
                self.opt.config.lr = schedule.at(update as u64 - 1);
            }
            self.collect_rollout()?;
            let (mean_reward, mean_ret) = reward_stats(&self.buffer);
            let ppo = self.update_policy();
            let eval_objective = if self.cfg.eval_every > 0 && update % self.cfg.eval_every == 0 {
                self.evaluate(self.cfg.eval_episodes)?
            } else {
                f64::NAN
            };
            let stats = TrainStats {
                update,
                mean_reward,
                mean_episode_return: mean_ret,
                eval_objective,
                ppo,
            };
            progress(&stats);
            history.push(stats);
        }
        Ok(history)
    }

    /// Collects one rollout of `ppo.rollout_steps` transitions into the
    /// reused internal buffer, using [`TrainConfig::rollout_workers`]
    /// environment workers. Public so benches and determinism tests can
    /// drive collection directly; returns the buffer length.
    pub fn collect_rollout(&mut self) -> SimResult<usize>
    where
        P: Sync,
    {
        self.buffer.clear();
        let needed = self.cfg.ppo.rollout_steps;
        let workers = self.cfg.rollout_workers.max(1);

        // Resume the episode the previous rollout truncated: its carried
        // tail fills the buffer first, so long episodes (`mnl >
        // rollout_steps`) are trained on in full across updates.
        let mut carried = std::mem::take(&mut self.carry);
        let take = carried.len().min(needed);
        let rest = carried.split_off(take);
        for t in carried {
            self.buffer.push(t);
        }
        if !rest.is_empty() {
            // Still more tail than one rollout: cut again, same rules.
            let last_value = rest[0].value;
            self.carry = rest;
            self.finish_rollout(last_value);
            return Ok(self.buffer.len());
        }
        if self.buffer.len() == needed {
            let last_value = if self.buffer.transitions().last().is_some_and(|t| !t.done) {
                self.carry_bootstrap
            } else {
                0.0
            };
            self.finish_rollout(last_value);
            return Ok(self.buffer.len());
        }

        let agent = &self.agent;
        let cfg = &self.cfg;
        let train_set = &self.train_set;
        let constraints = &self.constraints;
        let needed_from_workers = needed - self.buffer.len();

        let next = AtomicU64::new(self.next_episode);
        let collected = AtomicUsize::new(0);
        let results: Mutex<Vec<(u64, EpisodeOut)>> = Mutex::new(Vec::new());
        let failure: Mutex<Option<SimError>> = Mutex::new(None);

        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut ictx = InferCtx::new();
                    loop {
                        if collected.load(Ordering::SeqCst) >= needed_from_workers
                            || failure.lock().expect("failure lock").is_some()
                        {
                            break;
                        }
                        let ep = next.fetch_add(1, Ordering::SeqCst);
                        let idx = (ep % train_set.len() as u64) as usize;
                        let seed = episode_seed(cfg.seed, ep);
                        match run_episode(
                            agent,
                            &train_set[idx],
                            &constraints[idx],
                            cfg,
                            seed,
                            &mut ictx,
                        ) {
                            Ok(out) => {
                                collected.fetch_add(out.transitions.len(), Ordering::SeqCst);
                                results.lock().expect("results lock").push((ep, out));
                            }
                            Err(e) => {
                                failure.lock().expect("failure lock").get_or_insert(e);
                                break;
                            }
                        }
                    }
                });
            }
        });

        if let Some(e) = failure.into_inner().expect("failure lock") {
            return Err(e);
        }
        let mut results = results.into_inner().expect("results lock");
        results.sort_by_key(|(ep, _)| *ep);

        // Assemble whole episodes in index order; cut the tail episode at
        // `needed` and *carry* its remaining transitions into the next
        // rollout (no transition is ever dropped). The bootstrap for GAE
        // is the value of the state after the final kept transition: the
        // first carried transition's value when the cut is mid-episode,
        // else the episode's recorded terminal bootstrap. Completed
        // episodes claimed past the cutoff (at most one per worker) are
        // discarded and re-run next rollout, which keeps the assembled
        // buffer independent of the worker count.
        let mut last_value = 0.0;
        let mut used_through = self.next_episode;
        for (ep, out) in results {
            if self.buffer.len() >= needed {
                break;
            }
            used_through = ep + 1;
            let EpisodeOut { mut transitions, bootstrap } = out;
            let room = needed - self.buffer.len();
            if transitions.len() > room {
                let tail = transitions.split_off(room);
                last_value = tail[0].value;
                self.carry = tail;
                self.carry_bootstrap = bootstrap;
            } else if transitions.len() == room {
                last_value = bootstrap;
            }
            for t in transitions {
                self.buffer.push(t);
            }
        }
        self.next_episode = used_through;
        self.finish_rollout(last_value);
        Ok(self.buffer.len())
    }

    /// GAE + optional risk filtering over the assembled buffer.
    fn finish_rollout(&mut self, last_value: f64) {
        self.buffer.compute_gae(
            self.cfg.ppo.gamma,
            self.cfg.ppo.gae_lambda,
            last_value,
            self.cfg.ppo.normalize_adv,
        );
        if let Some(q) = self.cfg.risk_quantile {
            self.buffer.retain_top_episodes(q);
        }
    }

    /// The collected rollout (valid after [`Trainer::collect_rollout`];
    /// used by the determinism tests and the throughput bench).
    pub fn buffer(&self) -> &RolloutBuffer<StoredObs, StoredAction> {
        &self.buffer
    }

    /// Runs the PPO update epochs over the collected rollout.
    fn update_policy(&mut self) -> PpoStats {
        let mut last_stats = PpoStats::default();
        for _epoch in 0..self.cfg.ppo.epochs {
            let batches = self.buffer.minibatch_indices(self.cfg.ppo.minibatch_size, &mut self.rng);
            for batch in batches {
                if batch.is_empty() {
                    continue;
                }
                let mut g = Graph::new();
                let mut logp = None;
                let mut values = None;
                let mut entropies = None;
                let mut old_lp = Vec::with_capacity(batch.len());
                let mut adv = Vec::with_capacity(batch.len());
                let mut ret = Vec::with_capacity(batch.len());
                for &i in &batch {
                    let t = &self.buffer.transitions()[i];
                    let ev = self.agent.evaluate_actions(&mut g, &t.obs, t.action);
                    logp = Some(match logp {
                        Some(acc) => g.vcat(acc, ev.log_prob),
                        None => ev.log_prob,
                    });
                    values = Some(match values {
                        Some(acc) => g.vcat(acc, ev.value),
                        None => ev.value,
                    });
                    entropies = Some(match entropies {
                        Some(acc) => g.vcat(acc, ev.entropy),
                        None => ev.entropy,
                    });
                    old_lp.push(t.log_prob);
                    adv.push(self.buffer.advantages()[i]);
                    ret.push(self.buffer.returns()[i]);
                }
                let logp = logp.expect("non-empty batch");
                let values = values.expect("non-empty batch");
                let entropy_mean = {
                    let e = entropies.expect("non-empty batch");
                    g.mean_all(e)
                };
                let (loss, stats) = ppo_loss(
                    &mut g,
                    logp,
                    values,
                    entropy_mean,
                    &old_lp,
                    &adv,
                    &ret,
                    &self.cfg.ppo,
                );
                g.backward(loss);
                let grads = g.param_grads();
                self.opt.step(&mut self.agent.policy, &grads);
                last_stats = stats;
            }
        }
        last_stats
    }

    /// Greedy evaluation: mean final objective over `episodes` eval
    /// mappings (falls back to training mappings when no eval set).
    pub fn evaluate(&mut self, episodes: usize) -> SimResult<f64> {
        let pool: &[ClusterState] =
            if self.eval_set.is_empty() { &self.train_set } else { &self.eval_set };
        let episodes = episodes.min(pool.len()).max(1);
        let opts = DecideOpts { greedy: true, ..Default::default() };
        let mut total = 0.0;
        let mut eval_rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5eed);
        for ep in 0..episodes {
            let mapping = &pool[ep % pool.len()];
            let mut env =
                ReschedEnv::unconstrained(mapping.clone(), self.cfg.objective, self.cfg.mnl)?;
            let (obj, _) =
                crate::agent::rollout_episode(&self.agent, &mut env, &mut eval_rng, &opts)?;
            total += obj;
        }
        Ok(total / episodes as f64)
    }

    /// Mutable access to the RNG (deterministic test plumbing).
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.rng
    }

    /// Consumes the trainer, returning the trained agent.
    pub fn into_agent(self) -> Vmr2lAgent<P> {
        self.agent
    }

    /// Freezes parameters by name prefix for fine-tuning (§7 of the paper:
    /// adapt to new data by training only the top layers). For the default
    /// VMR2L model, freezing `["vm_embed", "pm_embed", "block"]` leaves
    /// only the actor/critic heads trainable.
    pub fn freeze_prefixes(&mut self, prefixes: &[&str]) {
        self.opt.freeze_prefixes(prefixes);
    }
}

fn reward_stats(buffer: &RolloutBuffer<StoredObs, StoredAction>) -> (f64, f64) {
    let n = buffer.len().max(1) as f64;
    let total: f64 = buffer.transitions().iter().map(|t| t.reward).sum();
    let episodes = buffer.transitions().iter().filter(|t| t.done).count().max(1) as f64;
    (total / n, total / episodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExtractorKind, ModelConfig};
    use crate::model::Vmr2lModel;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};

    fn small_mappings(n: usize) -> Vec<ClusterState> {
        let cfg = ClusterConfig {
            pm_groups: vec![PmGroup { count: 4, cpu_per_numa: 44, mem_per_numa: 128 }],
            churn_cycles: 30,
            ..ClusterConfig::tiny()
        };
        (0..n).map(|i| generate_mapping(&cfg, 100 + i as u64).unwrap()).collect()
    }

    fn trainer(mode: ActionMode, updates: usize) -> Trainer<Vmr2lModel> {
        let mut rng = StdRng::seed_from_u64(0);
        let model_cfg =
            ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 };
        let agent = Vmr2lAgent::new(
            Vmr2lModel::new(model_cfg, ExtractorKind::SparseAttention, &mut rng),
            mode,
        );
        let cfg = TrainConfig {
            ppo: PpoConfig {
                rollout_steps: 24,
                minibatch_size: 8,
                epochs: 1,
                ..Default::default()
            },
            mnl: 4,
            updates,
            eval_every: 0,
            ..Default::default()
        };
        Trainer::new(agent, small_mappings(3), small_mappings(1), cfg).unwrap()
    }

    #[test]
    fn one_update_runs_and_changes_weights() {
        use vmr_nn::layers::Module;
        let mut t = trainer(ActionMode::TwoStage, 1);
        let mut before = Vec::new();
        t.agent.policy.visit_params(&mut |_, p| before.extend_from_slice(p.data()));
        let history = t.train(|_| {}).unwrap();
        assert_eq!(history.len(), 1);
        let mut after = Vec::new();
        t.agent.policy.visit_params(&mut |_, p| after.extend_from_slice(p.data()));
        assert_ne!(before, after, "update must move parameters");
        assert!(history[0].ppo.loss.is_finite());
    }

    #[test]
    fn penalty_mode_trains_without_panic() {
        let mut t = trainer(ActionMode::Penalty, 1);
        let history = t.train(|_| {}).unwrap();
        assert!(history[0].mean_reward.is_finite());
    }

    #[test]
    fn full_mask_mode_trains_without_panic() {
        let mut t = trainer(ActionMode::FullMask, 1);
        let history = t.train(|_| {}).unwrap();
        assert!(history[0].ppo.loss.is_finite());
    }

    /// Every (mapping, constraints) pair is checked at construction, not
    /// only the first: a mismatch later in the set is reported before
    /// any rollout worker reaches it.
    #[test]
    fn constraint_mismatch_anywhere_is_refused_up_front() {
        let t = trainer(ActionMode::TwoStage, 1);
        let mappings = small_mappings(3);
        for bad in 0..mappings.len() {
            let mut constraints: Vec<ConstraintSet> =
                mappings.iter().map(|m| ConstraintSet::new(m.num_vms())).collect();
            constraints[bad] = ConstraintSet::new(mappings[bad].num_vms() + 1);
            let agent = t.agent.clone();
            let got =
                Trainer::with_constraints(agent, mappings.clone(), vec![], constraints, t.cfg);
            assert!(
                matches!(got, Err(SimError::InvalidMapping(_))),
                "mismatch at mapping {bad} must be refused"
            );
        }
    }

    #[test]
    fn evaluate_returns_valid_objective() {
        let mut t = trainer(ActionMode::TwoStage, 1);
        let obj = t.evaluate(2).unwrap();
        assert!((0.0..=1.0).contains(&obj), "objective {obj} out of range");
    }

    #[test]
    fn fine_tuning_freeze_keeps_body_fixed() {
        use vmr_nn::layers::Module;
        let mut t = trainer(ActionMode::TwoStage, 1);
        t.freeze_prefixes(&["vm_embed", "pm_embed", "block"]);
        let mut body_before = Vec::new();
        let mut head_before = Vec::new();
        t.agent.policy.visit_params(&mut |n, p| {
            if n.starts_with("vm_embed") || n.starts_with("pm_embed") || n.starts_with("block") {
                body_before.extend_from_slice(p.data());
            } else {
                head_before.extend_from_slice(p.data());
            }
        });
        t.train(|_| {}).unwrap();
        let mut body_after = Vec::new();
        let mut head_after = Vec::new();
        t.agent.policy.visit_params(&mut |n, p| {
            if n.starts_with("vm_embed") || n.starts_with("pm_embed") || n.starts_with("block") {
                body_after.extend_from_slice(p.data());
            } else {
                head_after.extend_from_slice(p.data());
            }
        });
        assert_eq!(body_before, body_after, "frozen extractor must not move");
        assert_ne!(head_before, head_after, "heads must keep training");
    }

    #[test]
    fn lr_schedule_anneals_during_training() {
        use vmr_rl::schedule::LinearSchedule;
        let mut t = trainer(ActionMode::TwoStage, 3);
        t.cfg.lr_schedule = Some(LinearSchedule { start: 1e-3, end: 1e-4, total: 3 });
        t.train(|_| {}).unwrap();
        // After 3 updates the optimizer sits at the step-2 value of the
        // schedule (updates are 1-based, evaluated at update − 1).
        let expected = LinearSchedule { start: 1e-3, end: 1e-4, total: 3 }.at(2);
        assert!(
            (t.opt.config.lr - expected).abs() < 1e-12,
            "lr {} vs expected {}",
            t.opt.config.lr,
            expected
        );
    }

    #[test]
    fn risk_seeking_training_runs_and_learns_from_elite_episodes() {
        use vmr_nn::layers::Module;
        let mut rng = StdRng::seed_from_u64(0);
        let model_cfg =
            ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 };
        let agent = Vmr2lAgent::new(
            Vmr2lModel::new(model_cfg, ExtractorKind::SparseAttention, &mut rng),
            ActionMode::TwoStage,
        );
        let cfg = TrainConfig {
            ppo: PpoConfig {
                rollout_steps: 24,
                minibatch_size: 8,
                epochs: 1,
                ..Default::default()
            },
            mnl: 4,
            updates: 2,
            eval_every: 0,
            risk_quantile: Some(0.5),
            ..Default::default()
        };
        let mut t = Trainer::new(agent, small_mappings(3), vec![], cfg).unwrap();
        let mut before = Vec::new();
        t.agent.policy.visit_params(&mut |_, p| before.extend_from_slice(p.data()));
        let history = t.train(|_| {}).unwrap();
        assert_eq!(history.len(), 2);
        assert!(history.iter().all(|h| h.ppo.loss.is_finite()));
        let mut after = Vec::new();
        t.agent.policy.visit_params(&mut |_, p| after.extend_from_slice(p.data()));
        assert_ne!(before, after, "elite-filtered updates must still move weights");
    }

    /// Two identical trainings in one process must write the same
    /// checkpoint bytes, and so must one and two rollout workers. Every
    /// `param_grads` map has its own hash state, so a gradient norm
    /// summed in map order differed between the runs by ulps — and a
    /// clipped update scales every gradient by it. The clip here is far
    /// below any nonzero gradient norm of this model, so every update
    /// clips; the same training without a clip must end elsewhere, or
    /// nothing clipped and this test could not see the bug. (It stays
    /// far above Adam's `eps`, which would otherwise swamp the scaled
    /// gradients.)
    #[test]
    fn training_twice_in_one_process_writes_the_same_checkpoint() {
        let run = |workers: usize, max_grad_norm: Option<f64>| {
            let mut t = trainer(ActionMode::TwoStage, 2);
            t.cfg.rollout_workers = workers;
            t.cfg.adam.max_grad_norm = max_grad_norm;
            t.opt = Adam::new(t.cfg.adam);
            t.train(|_| {}).unwrap();
            serde_json::to_string(&vmr_nn::Checkpoint::capture(&t.agent.policy)).unwrap()
        };
        let clip = Some(1e-4);
        let first = run(1, clip);
        assert_ne!(first, run(1, None), "no update clipped");
        assert_eq!(first, run(1, clip), "same seed and workers, different checkpoint bytes");
        assert_eq!(first, run(2, clip), "one and two rollout workers, different checkpoint bytes");
    }

    /// Collects one rollout with the given worker count and returns a
    /// full serialization of the buffer (observations included).
    fn rollout_fingerprint(mode: ActionMode, workers: usize) -> Vec<String> {
        let mut t = trainer(mode, 1);
        t.cfg.rollout_workers = workers;
        let n = t.collect_rollout().unwrap();
        assert_eq!(n, t.cfg.ppo.rollout_steps);
        t.buffer()
            .transitions()
            .iter()
            .map(|tr| {
                format!(
                    "{:?}|{:?}|{:.17e}|{:.17e}|{:.17e}|{}|{:?}|{:?}|{:?}",
                    tr.action,
                    tr.obs.obs,
                    tr.log_prob,
                    tr.value,
                    tr.reward,
                    tr.done,
                    tr.obs.vm_mask,
                    tr.obs.pm_mask,
                    tr.obs.joint_mask,
                )
            })
            .chain(t.buffer().advantages().iter().map(|a| format!("{a:.17e}")))
            .collect()
    }

    #[test]
    fn rollout_determinism_across_worker_counts() {
        for mode in [ActionMode::TwoStage, ActionMode::Penalty, ActionMode::FullMask] {
            let solo = rollout_fingerprint(mode, 1);
            for workers in [2, 4] {
                let multi = rollout_fingerprint(mode, workers);
                assert_eq!(
                    solo, multi,
                    "{mode:?}: {workers}-worker rollout must be byte-identical to single-threaded"
                );
            }
        }
    }

    #[test]
    fn long_episodes_are_carried_across_rollouts() {
        // mnl > rollout_steps: the episode tail must be carried into the
        // next rollout, never dropped — chunked collection yields exactly
        // the same transition stream as one big rollout.
        let build = |steps: usize| {
            let mut rng = StdRng::seed_from_u64(0);
            let model_cfg =
                ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 };
            let agent = Vmr2lAgent::new(
                Vmr2lModel::new(model_cfg, ExtractorKind::SparseAttention, &mut rng),
                ActionMode::TwoStage,
            );
            let cfg = TrainConfig {
                ppo: PpoConfig { rollout_steps: steps, minibatch_size: 8, ..Default::default() },
                mnl: 12,
                eval_every: 0,
                ..Default::default()
            };
            Trainer::new(agent, small_mappings(2), vec![], cfg).unwrap()
        };
        let fingerprint = |t: &Trainer<Vmr2lModel>| -> Vec<String> {
            t.buffer()
                .transitions()
                .iter()
                .map(|tr| {
                    format!("{:?}|{:.17e}|{:.17e}|{}", tr.action, tr.log_prob, tr.reward, tr.done)
                })
                .collect()
        };
        let mut big = build(24);
        big.collect_rollout().unwrap();
        let whole = fingerprint(&big);
        let mut chunked = build(8);
        let mut stream = Vec::new();
        for _ in 0..3 {
            chunked.collect_rollout().unwrap();
            stream.extend(fingerprint(&chunked));
        }
        assert_eq!(whole, stream, "chunked rollouts must carry episode tails, not drop them");
    }

    #[test]
    fn rollouts_advance_episode_cursor_deterministically() {
        let mut a = trainer(ActionMode::TwoStage, 1);
        let mut b = trainer(ActionMode::TwoStage, 1);
        b.cfg.rollout_workers = 4;
        for _ in 0..3 {
            a.collect_rollout().unwrap();
            b.collect_rollout().unwrap();
        }
        // After several updates the two trainers must still agree on the
        // rewards collected (cursor advanced identically).
        let ra: Vec<f64> = a.buffer().transitions().iter().map(|t| t.reward).collect();
        let rb: Vec<f64> = b.buffer().transitions().iter().map(|t| t.reward).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn empty_train_set_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let model_cfg =
            ModelConfig { d_model: 16, heads: 2, blocks: 1, d_ff: 24, critic_hidden: 12 };
        let agent = Vmr2lAgent::new(
            Vmr2lModel::new(model_cfg, ExtractorKind::SparseAttention, &mut rng),
            ActionMode::TwoStage,
        );
        assert!(Trainer::new(agent, vec![], vec![], TrainConfig::default()).is_err());
    }
}
