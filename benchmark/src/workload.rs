//! The four workloads: what each client sends, and the sample floors a
//! run keeps however short `--seconds` is.
//!
//! Every load is a closed loop — an operator's control loop waits for
//! each reply — over at most two client connections, because the host
//! this is sized for has two cores and the daemon runs two workers.

use vmr_core::config::PrecisionConfig;

use crate::stats::highest_supported;

/// Percentiles a plan tail may be reported at.
pub const PLAN_LADDER: [u32; 4] = [50, 75, 90, 95];
/// Percentiles a delta tail may be reported at.
pub const DELTA_LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// Load size: `Full` is what `BENCHMARK.json` measures; `Smoke` swaps in
/// the `tiny` preset and a handful of cycles so the test suite can run
/// every workload, traced and untraced, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Seconds-scale pass for `cargo test`.
    Smoke,
}

/// One `plan` request shape.
#[derive(Debug, Clone, Copy)]
pub struct PlanSpec {
    /// Policy name on the wire.
    pub policy: &'static str,
    /// Inference numerics (heuristic policies ignore it).
    pub precision: PrecisionConfig,
    /// Migration number limit.
    pub mnl: usize,
    /// Fleet shard count (0 for non-fleet policies).
    pub shards: usize,
    /// Fleet worker threads (0 for non-fleet policies).
    pub workers: usize,
    /// Deploy the plan into the session.
    pub commit: bool,
}

/// What one client connection does, cycle after cycle.
#[derive(Debug, Clone)]
pub enum Role {
    /// `deltas` mirror-validated deltas, then each plan in `plans`. The
    /// first plan is the one `plan_ms_*` reports; it commits.
    Cycler {
        /// Index of the session this client owns the write side of.
        session: usize,
        /// Deltas per cycle.
        deltas: usize,
        /// Share of deltas that are `PmAdd` / `PmDrain`.
        pm_ops: f64,
        /// Plans per cycle, in order.
        plans: Vec<PlanSpec>,
        /// Whether the later plans of a cycle also count as plan samples
        /// (no on `large_fleet_f32`, whose metric is the fleet plan).
        sample_all_plans: bool,
    },
    /// A read-side client on a session another client mutates: a
    /// fresh-seed non-committing plan; every `probe_every`-th cycle the
    /// identical request again (the memo probe); a `stats` op every
    /// `stats_every`-th cycle.
    Reader {
        /// Session read.
        session: usize,
        /// The plan shape (never commits).
        plan: PlanSpec,
        /// Memo-probe cadence in cycles. Whether a probe hits is a race
        /// with the writer's next delta, so its hit rate differs from run
        /// to run; probing every cycle let that race set the request mix.
        probe_every: usize,
        /// `stats` cadence in cycles.
        stats_every: usize,
    },
}

/// One workload at one scale.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Cluster preset of every session.
    pub preset: &'static str,
    /// Sessions created (each seeded from `--seed`).
    pub sessions: usize,
    /// One entry per client connection.
    pub roles: Vec<Role>,
    /// Cycles every client completes even when `--seconds` is shorter.
    pub min_cycles: Vec<usize>,
    /// Untimed cycles each cycler runs alone before the timed phase, so
    /// that the phase starts from the state the workload holds a session
    /// in rather than drifting towards it (under churn with committed HA
    /// plans a freshly generated cluster takes thousands of deltas to
    /// reach the fragmentation it then keeps, and HA gets cheaper on the
    /// way).
    pub settle_cycles: usize,
}

/// Names and one-line reasons, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "medium_agent_f64",
        "the paper's headline request cut to MNL 10 so ten plans fit a run: agent, 280 PMs, bit-exact f64; core/nn do ~99% of the work, so inference gains show here and WAL/codec ones must not",
    ),
    (
        "small_pair_f32",
        "the same inference layer used differently: f32, two plans in flight (embed batcher, worker pool), tensors small enough that per-step fixed costs are a visible share",
    ),
    (
        "medium_churn_ha",
        "inference idle: sim delta repair, JSON codec, WAL append/fsync/compaction, session lock and plan memo do all the work, reads running beside writes on one session",
    ),
    (
        "large_fleet_f32",
        "the paper's Large scale (1176 PMs) through the path that makes it servable: shard partition, sub-cluster extract, stitch, two scoped workers, O(N) masks",
    ),
];

const fn plan(
    policy: &'static str,
    precision: PrecisionConfig,
    mnl: usize,
    commit: bool,
) -> PlanSpec {
    PlanSpec { policy, precision, mnl, shards: 0, workers: 0, commit }
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
        use PrecisionConfig::{Exact64, Fast32};
        let full = scale == Scale::Full;
        let pick = |f: usize, s: usize| if full { f } else { s };
        let preset = |p: &'static str| if full { p } else { "tiny" };
        let cycler = |session, deltas, plans: Vec<PlanSpec>| Role::Cycler {
            session,
            deltas,
            pm_ops: 0.0,
            plans,
            sample_all_plans: true,
        };
        let (preset, sessions, roles, min_cycles) = match name {
            "medium_agent_f64" => (
                preset("medium"),
                1,
                // A fifth of the paper's MNL 50: a plan is MNL identical
                // decision steps, and ten 50-step plans fit no run.
                vec![cycler(0, pick(200, 100), vec![plan("agent", Exact64, pick(10, 4), true)])],
                vec![pick(10, 2)],
            ),
            "small_pair_f32" => {
                let spec = plan("agent", Fast32, pick(20, 3), true);
                (
                    preset("small"),
                    2,
                    vec![cycler(0, 5, vec![spec]), cycler(1, 5, vec![spec])],
                    vec![pick(100, 2); 2],
                )
            }
            "medium_churn_ha" => {
                let writer = Role::Cycler {
                    session: 0,
                    deltas: pick(500, 40),
                    pm_ops: 0.01,
                    plans: vec![plan("ha", Exact64, pick(50, 4), true)],
                    sample_all_plans: true,
                };
                let reader = Role::Reader {
                    session: 0,
                    plan: plan("ha", Exact64, pick(50, 4), false),
                    probe_every: 4,
                    stats_every: pick(100, 2),
                };
                (preset("medium"), 1, vec![writer, reader], vec![pick(20, 2), pick(1000, 4)])
            }
            "large_fleet_f32" => {
                let fleet = PlanSpec {
                    shards: pick(8, 2),
                    workers: 2,
                    ..plan("fleet", Fast32, pick(50, 4), true)
                };
                let ha = plan("ha", Exact64, pick(50, 4), false);
                let role = Role::Cycler {
                    session: 0,
                    deltas: 10,
                    pm_ops: 0.0,
                    plans: vec![fleet, ha],
                    sample_all_plans: false,
                };
                (preset("large"), 1, vec![role], vec![pick(40, 2)])
            }
            _ => return None,
        };
        Some(Workload {
            name: WORKLOADS.iter().find(|(n, _)| *n == name)?.0,
            preset,
            sessions,
            roles,
            min_cycles,
            settle_cycles: if name == "medium_churn_ha" { pick(12, 1) } else { 0 },
        })
    }

    /// The percentiles `plan_ms_tail` and `delta_ms_tail` report under
    /// `floors` (cycles per client; a traced run halves `min_cycles`): the
    /// highest one the floor's sample count supports with ten samples
    /// beyond it (50 = no tail). Fixed by the floors, not by a run's
    /// sample count, so a metric means the same thing on every run.
    pub fn tail_pcts(&self, floors: &[usize]) -> (u32, u32) {
        let (mut plans, mut deltas) = (0, 0);
        for (role, &cycles) in self.roles.iter().zip(floors) {
            match role {
                Role::Cycler { deltas: d, plans: p, sample_all_plans, .. } => {
                    deltas += cycles * d;
                    plans += cycles * if *sample_all_plans { p.len() } else { 1 };
                }
                // One computed plan per cycle; its repeat is the memo probe.
                Role::Reader { .. } => plans += cycles,
            }
        }
        (highest_supported(&PLAN_LADDER, plans), highest_supported(&DELTA_LADDER, deltas))
    }

    /// Whether any plan needs the agent checkpoint handle.
    pub fn needs_agent(&self) -> bool {
        self.roles.iter().any(|r| match r {
            Role::Cycler { plans, .. } => plans.iter().any(|p| p.policy != "ha"),
            Role::Reader { plan, .. } => plan.policy != "ha",
        })
    }

    /// The first plan shape `session`'s cycler sends.
    pub fn first_plan(&self, session: usize) -> PlanSpec {
        self.roles
            .iter()
            .find_map(|r| match r {
                Role::Cycler { session: s, plans, .. } if *s == session => plans.first().copied(),
                _ => None,
            })
            .expect("every session has a cycler")
    }

    /// The plan each session is warmed with before the timed phase: its
    /// first plan shape at MNL 2, not committed.
    pub fn warmup_plan(&self, session: usize) -> PlanSpec {
        PlanSpec { mnl: 2, commit: false, ..self.first_plan(session) }
    }

    /// Session names on the wire.
    pub fn session_name(&self, session: usize) -> String {
        format!("s{session}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_resolves_at_both_scales_with_supported_tails() {
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
            for scale in [Scale::Full, Scale::Smoke] {
                let w = Workload::by_name(name, scale).expect(name);
                assert_eq!(w.roles.len(), w.min_cycles.len());
                assert!(w.roles.len() <= 2, "at most two client connections");
                for s in 0..w.sessions {
                    assert!(!w.warmup_plan(s).commit);
                }
            }
        }
        assert!(Workload::by_name("nope", Scale::Full).is_none());
        let tails = |n, halved: bool| {
            let w = Workload::by_name(n, Scale::Full).unwrap();
            let floors: Vec<usize> =
                w.min_cycles.iter().map(|&f| if halved { f.div_ceil(2) } else { f }).collect();
            w.tail_pcts(&floors)
        };
        // Ten plans support no tail.
        assert_eq!(tails("medium_agent_f64", false), (50, 99));
        assert_eq!(tails("small_pair_f32", false), (95, 99));
        assert_eq!(tails("medium_churn_ha", false), (95, 99));
        assert_eq!(tails("large_fleet_f32", false), (75, 95));
        // A traced run reports its telemetry-on half, on half the floors.
        assert_eq!(tails("medium_agent_f64", true), (50, 99));
        assert_eq!(tails("small_pair_f32", true), (90, 95));
        assert_eq!(tails("large_fleet_f32", true), (50, 95));
    }
}
