//! Monte-Carlo Tree Search with heuristic pruning — the search-based
//! baseline (§5.1; the paper uses DDTS to prune the space).
//!
//! Standard UCT over migration sequences with two prunings in the spirit
//! of data-driven tree search: children are limited to the top-`k` moves
//! by immediate objective gain, and rollouts follow the greedy heuristic
//! rather than uniform play. The rollout budget dominates inference time,
//! reproducing the paper's observation that search needs many rollouts to
//! stabilize and therefore struggles under the five-second limit.

use std::time::{Duration, Instant};

use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::env::Action;
use vmr_sim::objective::Objective;

/// MCTS configuration.
#[derive(Debug, Clone, Copy)]
pub struct MctsConfig {
    /// Simulation (rollout) budget per *step*.
    pub rollouts_per_step: usize,
    /// Children considered per node (top-k immediate gain).
    pub branch_cap: usize,
    /// UCT exploration constant.
    pub exploration: f64,
    /// Wall-clock budget for the full plan. Checked inside every move
    /// scan too, between VMs, so a large cluster stops on time.
    pub time_limit: Duration,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            rollouts_per_step: 64,
            branch_cap: 12,
            exploration: 0.4,
            time_limit: Duration::from_secs(5),
        }
    }
}

/// Result of an MCTS run.
#[derive(Debug, Clone)]
pub struct MctsResult {
    /// Migration plan.
    pub plan: Vec<Action>,
    /// Final objective.
    pub objective: f64,
    /// Total rollouts performed.
    pub rollouts: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

struct Stats {
    visits: f64,
    total_reward: f64,
}

/// Runs receding-horizon MCTS: at each of the `mnl` steps, UCT search over
/// one-ply children with greedy rollouts picks the next migration.
pub fn mcts_solve(
    initial: &ClusterState,
    constraints: &ConstraintSet,
    objective: Objective,
    mnl: usize,
    cfg: &MctsConfig,
) -> MctsResult {
    let start = Instant::now();
    let deadline = start + cfg.time_limit;
    let mut state = initial.clone();
    let mut plan = Vec::new();
    let mut rollouts = 0usize;

    for step in 0..mnl {
        if Instant::now() >= deadline {
            break;
        }
        let children =
            objective.ranked_moves(&state, constraints, cfg.branch_cap.max(1), Some(deadline));
        if children.is_empty() {
            break;
        }
        let remaining_depth = mnl - step - 1;
        let mut stats: Vec<Stats> =
            children.iter().map(|_| Stats { visits: 0.0, total_reward: 0.0 }).collect();
        let base_obj = objective.value(&state);
        for sim in 0..cfg.rollouts_per_step {
            if Instant::now() >= deadline {
                break;
            }
            // UCT selection over the one-ply children.
            let total_visits: f64 = stats.iter().map(|s| s.visits).sum::<f64>().max(1.0);
            let pick = if sim < children.len() {
                sim // visit each child once first
            } else {
                let mut best = 0;
                let mut best_score = f64::NEG_INFINITY;
                for (i, s) in stats.iter().enumerate() {
                    let mean = s.total_reward / s.visits.max(1.0);
                    let ucb =
                        mean + cfg.exploration * (total_visits.ln() / s.visits.max(1e-9)).sqrt();
                    if ucb > best_score {
                        best_score = ucb;
                        best = i;
                    }
                }
                best
            };
            let (action, _) = children[pick];
            let Ok(rec) = state.migrate(action.vm, action.pm, objective.frag_cores()) else {
                stats[pick].visits += 1.0;
                continue;
            };
            // Greedy-heuristic rollout to the horizon, then undo everything.
            let mut undo_stack = vec![rec];
            let mut depth = 0;
            while depth < remaining_depth {
                let best = objective.ranked_moves(&state, constraints, 1, Some(deadline)).pop();
                let Some((a, _)) = best.filter(|&(_, gain)| gain > 1e-12) else { break };
                match state.migrate(a.vm, a.pm, objective.frag_cores()) {
                    Ok(r) => undo_stack.push(r),
                    Err(_) => break,
                }
                depth += 1;
            }
            let leaf_obj = objective.value(&state);
            let reward = base_obj - leaf_obj; // objective drop achieved
            while let Some(r) = undo_stack.pop() {
                state.undo(&r).expect("rollout undo");
            }
            stats[pick].visits += 1.0;
            stats[pick].total_reward += reward;
            rollouts += 1;
        }
        // Commit the most-visited child (standard robust-child rule);
        // ties — all of them when the budget let nothing be simulated —
        // go to the larger immediate gain, not to whichever came last.
        let best = (0..children.len())
            .max_by(|&a, &b| {
                (stats[a].visits, stats[a].total_reward, children[a].1)
                    .partial_cmp(&(stats[b].visits, stats[b].total_reward, children[b].1))
                    .expect("finite")
            })
            .expect("children non-empty");
        let (action, gain) = children[best];
        if gain <= 1e-12 && stats[best].total_reward <= 1e-12 {
            break; // no simulated improvement anywhere
        }
        if state.migrate(action.vm, action.pm, objective.frag_cores()).is_err() {
            break;
        }
        plan.push(action);
    }

    MctsResult { objective: objective.value(&state), plan, rollouts, elapsed: start.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_sim::dataset::{generate_mapping, ClusterConfig};

    fn state(seed: u64) -> ClusterState {
        generate_mapping(&ClusterConfig::tiny(), seed).unwrap()
    }

    fn fast_cfg() -> MctsConfig {
        MctsConfig {
            rollouts_per_step: 12,
            branch_cap: 6,
            time_limit: Duration::from_secs(2),
            ..Default::default()
        }
    }

    #[test]
    fn mcts_improves_or_holds() {
        let s = state(51);
        let cs = ConstraintSet::new(s.num_vms());
        let res = mcts_solve(&s, &cs, Objective::default(), 6, &fast_cfg());
        assert!(res.objective <= s.fragment_rate(16) + 1e-12);
        assert!(res.plan.len() <= 6);
        assert!(res.rollouts > 0);
    }

    #[test]
    fn mcts_plan_replays() {
        let s = state(52);
        let cs = ConstraintSet::new(s.num_vms());
        let res = mcts_solve(&s, &cs, Objective::default(), 4, &fast_cfg());
        let mut replay = s.clone();
        for a in &res.plan {
            replay.migrate(a.vm, a.pm, 16).unwrap();
        }
        assert!((replay.fragment_rate(16) - res.objective).abs() < 1e-12);
    }

    #[test]
    fn mcts_respects_deadline() {
        let s = state(53);
        let cs = ConstraintSet::new(s.num_vms());
        let cfg = MctsConfig {
            time_limit: Duration::from_millis(80),
            rollouts_per_step: 100_000,
            ..Default::default()
        };
        let t0 = Instant::now();
        let _ = mcts_solve(&s, &cs, Objective::default(), 50, &cfg);
        assert!(t0.elapsed() < Duration::from_millis(1500), "deadline ignored");

        // Medium: the first candidate scan alone outlasts the budget, so
        // the deadline has to hold inside it, before any rollout.
        let s = generate_mapping(&ClusterConfig::medium(), 0xC1_0575).unwrap();
        let cs = ConstraintSet::new(s.num_vms());
        let budget = Duration::from_millis(25);
        let cfg = MctsConfig { time_limit: budget, ..Default::default() };
        let t0 = Instant::now();
        let res = mcts_solve(&s, &cs, Objective::default(), 50, &cfg);
        let took = t0.elapsed();
        assert!(took < 2 * budget, "deadline ignored in the candidate scan: {took:?}");
        let mut replay = s.clone();
        for a in &res.plan {
            replay.migrate(a.vm, a.pm, 16).unwrap();
        }
        assert!((replay.fragment_rate(16) - res.objective).abs() < 1e-12);
    }

    #[test]
    fn unsimulated_step_commits_best_immediate_move() {
        // With no rollouts every child's statistics are zero; the commit
        // must fall back to the best immediate gain, not the worst.
        let s = state(55);
        let cs = ConstraintSet::new(s.num_vms());
        let obj = Objective::default();
        let cfg = MctsConfig { rollouts_per_step: 0, branch_cap: 64, ..fast_cfg() };
        let res = mcts_solve(&s, &cs, obj, 3, &cfg);
        assert_eq!(res.rollouts, 0);
        let (_, best_gain) = obj.ranked_moves(&s, &cs, 1, None)[0];
        assert!(best_gain > 1e-12, "fixture must have an improving move");
        let first = res.plan.first().expect("a move is committed");
        let mut after = s.clone();
        after.migrate(first.vm, first.pm, obj.frag_cores()).unwrap();
        assert!((obj.value(&s) - obj.value(&after) - best_gain).abs() < 1e-12);
        assert!(res.objective < obj.value(&s) - 1e-12, "objective must drop");
    }

    #[test]
    fn more_rollouts_never_hurt_much() {
        // Statistical sanity: a bigger budget should not be notably worse.
        let s = state(54);
        let cs = ConstraintSet::new(s.num_vms());
        let small = mcts_solve(
            &s,
            &cs,
            Objective::default(),
            5,
            &MctsConfig { rollouts_per_step: 4, ..fast_cfg() },
        );
        let large = mcts_solve(
            &s,
            &cs,
            Objective::default(),
            5,
            &MctsConfig { rollouts_per_step: 48, ..fast_cfg() },
        );
        assert!(large.objective <= small.objective + 0.05);
    }
}
