//! The traced run's second act: the requests the daemon just served are
//! re-enacted in-process on a same-seed [`Session`], with a span around
//! every public call a request makes on its way through the layers —
//! codec, session, policy, simulator, WAL. No sockets, no worker pool,
//! no session lock: what those cost is the budget's residual.
//!
//! Every re-enacted plan must equal the plan the daemon served.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vmr_core::config::PrecisionConfig;
use vmr_core::infer::SharedAgent;
use vmr_serve::policies::{FleetPolicy, HaPolicy, PlanPolicy, PlanRequest};
use vmr_serve::proto::{
    ApplyDelta, DeltaApplied, Op, PlanParams, Planned, Reply, ReplyBody, Request, Response,
    WireAction, PROTO_VERSION,
};
use vmr_serve::recovery::wire_plan_actions;
use vmr_serve::session::{preset_config, Session};
use vmr_serve::wal::{encode_record, SessionLog, WalBody, WalRecord};
use vmr_sim::env::ClusterDelta;

use crate::drive::{durability, DurableFiles, LoggedOp};
use crate::gen::{cluster_seed, SESSION_MNL};
use crate::layers::{Shape, SteppedAgent, Timed};
use crate::trace::Trace;
use crate::workload::{Role, Workload};

/// What the re-enactment produced.
pub struct Reenactment {
    /// Every span.
    pub trace: Trace,
    /// Request ids of the sampled, computed plans (ascending) — the
    /// requests `plan_ms_p50` is the wire latency of.
    pub plan_requests: Vec<u64>,
    /// Plans re-enacted and compared with what the daemon served.
    pub plans_checked: u64,
    /// How many of them differed.
    pub plans_differing: u64,
    /// Sessions whose re-enacted durable files (log bytes, snapshot LSN
    /// and cluster) differ from what the daemon left on disk.
    pub logs_differing: u64,
    /// Encoded request sizes, bytes.
    pub req_bytes: Vec<u64>,
    /// Encoded response sizes, bytes.
    pub resp_bytes: Vec<u64>,
    /// Encoded WAL record sizes, bytes.
    pub record_bytes: Vec<u64>,
    /// The shape the agent's forward pass ran at (None: no agent plan).
    pub shape: Option<Shape>,
    /// Whether the agent plans ran the f32 tier.
    pub fast32: bool,
    /// Worker threads fleet shards ran on (1 without a fleet plan).
    pub workers: u32,
}

struct Policies {
    stepped: Option<Arc<SteppedAgent>>,
    ha: Timed,
    fleet: Option<Timed>,
}

/// One session being re-enacted.
struct Stage<'a> {
    name: String,
    session: Session,
    log: SessionLog,
    version: u64,
    policies: &'a Policies,
    out: &'a mut Reenactment,
    next_id: u64,
    last_plan: Vec<WireAction>,
}

impl Stage<'_> {
    /// Applies and logs an untraced-half mutation without spans.
    fn fast_forward(&mut self, op: &LoggedOp) -> io::Result<()> {
        let (applied, body) = match op {
            LoggedOp::Delta(delta) => {
                (self.session.apply_delta(delta).map(|_| ()), WalBody::Delta(*delta))
            }
            LoggedOp::Plan { params, served, .. } if params.commit => (
                self.session.commit_plan(&wire_plan_actions(served)),
                WalBody::Commit(served.clone()),
            ),
            LoggedOp::Plan { .. } => return Ok(()),
        };
        applied.map_err(|e| io::Error::other(format!("{}: replay failed: {e}", self.name)))?;
        self.version += 1;
        self.log.append(&body)?;
        if self.log.compaction_due() {
            self.log.maybe_compact(&self.session.snapshot(self.version))?;
        }
        Ok(())
    }

    /// Re-enacts one traced-half request under a root span.
    fn request(&mut self, op: &LoggedOp) -> io::Result<()> {
        let id = self.out.trace.next_request();
        self.next_id += 1;
        let wire_op = match op {
            LoggedOp::Delta(delta) => {
                Op::ApplyDelta(ApplyDelta { session: self.name.clone(), delta: *delta })
            }
            LoggedOp::Plan { params, .. } => Op::Plan(params.clone()),
        };
        let request = Request { v: PROTO_VERSION, id: self.next_id, op: wire_op };
        // The trace is moved out for the duration of the root span so the
        // stage's other fields stay borrowable inside it.
        let mut trace = std::mem::replace(&mut self.out.trace, Trace::new(Instant::now()));
        let done = trace.span("request", |t| -> io::Result<()> {
            let line = t.span("serve.proto.encode_request", |_| serde_json::to_string(&request));
            let line = line.map_err(|e| io::Error::other(format!("{e:?}")))?;
            self.out.req_bytes.push(line.len() as u64);
            let parsed = t
                .span("serve.proto.decode_request", |_| {
                    serde_json::from_slice::<Request>(line.as_bytes())
                })
                .map_err(|e| io::Error::other(format!("{e:?}")))?;
            let reply = match (parsed.op, op) {
                (Op::ApplyDelta(p), _) => self.delta(t, p.delta)?,
                (Op::Plan(p), LoggedOp::Plan { served, computed, sampled, .. }) => {
                    if *computed && *sampled {
                        self.out.plan_requests.push(id);
                    }
                    self.plan(t, p, served, *computed)?
                }
                _ => return Err(io::Error::other("request decoded to a different op")),
            };
            let response = Response { v: PROTO_VERSION, id: self.next_id, trace: id, body: reply };
            let line = t.span("serve.proto.encode_response", |_| serde_json::to_string(&response));
            let line = line.map_err(|e| io::Error::other(format!("{e:?}")))?;
            self.out.resp_bytes.push(line.len() as u64);
            t.span("serve.proto.decode_response", |_| {
                serde_json::from_slice::<Response>(line.as_bytes())
            })
            .map_err(|e| io::Error::other(format!("{e:?}")))?;
            Ok(())
        });
        self.out.trace = trace;
        done
    }

    fn delta(&mut self, t: &mut Trace, delta: ClusterDelta) -> io::Result<ReplyBody> {
        let outcome = t
            .span("sim.env.apply_delta", |_| self.session.apply_delta(&delta))
            .map_err(|e| io::Error::other(format!("{}: delta refused: {e}", self.name)))?;
        self.version += 1;
        self.append(t, WalBody::Delta(delta))?;
        Ok(ReplyBody::Ok(Reply::DeltaApplied(DeltaApplied {
            info: self.session.info(self.version),
            created_vm: outcome.created.map(|v| v.0),
            renumbered_from: outcome.renumbered.map(|r| r.from.0),
            renumbered_to: outcome.renumbered.map(|r| r.to.0),
            migrations: outcome.migrations.len(),
        })))
    }

    /// The daemon's `durable_append`: append + fsync, compact when due.
    fn append(&mut self, t: &mut Trace, body: WalBody) -> io::Result<()> {
        let record = WalRecord { lsn: self.version, body };
        self.out.record_bytes.push(encode_record(&record)?.len() as u64);
        let lsn = t.span("serve.wal.append", |_| self.log.append(&record.body))?;
        if lsn != self.version {
            return Err(io::Error::other(format!(
                "{}: record {lsn} logged at version {}",
                self.name, self.version
            )));
        }
        if self.log.compaction_due() {
            t.span("serve.wal.compact", |_| {
                let snapshot = self.session.snapshot(self.version);
                self.log.maybe_compact(&snapshot)
            })?;
        }
        Ok(())
    }

    fn plan(
        &mut self,
        t: &mut Trace,
        p: PlanParams,
        served: &[WireAction],
        computed: bool,
    ) -> io::Result<ReplyBody> {
        let mut planned = Planned {
            session: self.name.clone(),
            policy: p.policy.clone(),
            objective_before: 0.0,
            objective_after: 0.0,
            plan: self.last_plan.clone(),
            computed,
            version: self.version,
        };
        if computed {
            let req = PlanRequest {
                mnl: p.mnl,
                seed: p.seed,
                budget: Duration::from_millis(p.budget_ms),
                shards: p.shards,
                workers: p.workers,
                precision: p.precision,
            };
            let policies = self.policies;
            let session = &mut self.session;
            let result = t.span("serve.session.plan", |t| match p.policy.as_str() {
                "ha" => {
                    let result = session.plan(&policies.ha, &req, p.commit);
                    policies.ha.batches.take().into_iter().for_each(|b| {
                        t.graft(b, None, 1);
                    });
                    result
                }
                "fleet" => {
                    let (fleet, stepped) = (policies.fleet.as_ref(), policies.stepped.as_ref());
                    let (fleet, stepped) = fleet.zip(stepped).expect("fleet needs the agent");
                    let result = session.plan(fleet, &req, p.commit);
                    let mut at = None;
                    for b in fleet.batches.take() {
                        at = Some(t.graft(b, None, 1));
                    }
                    // Shard solves ran side by side on `workers` threads.
                    for b in stepped.batches.take() {
                        t.graft(b, at, p.workers.max(1) as u32);
                    }
                    result
                }
                _ => {
                    let stepped = policies.stepped.as_ref().expect("agent plans need the agent");
                    let result = session.plan(stepped.as_ref(), &req, p.commit);
                    stepped.batches.take().into_iter().for_each(|b| {
                        t.graft(b, None, 1);
                    });
                    result
                }
            });
            let result =
                result.map_err(|e| io::Error::other(format!("{}: plan failed: {e}", self.name)))?;
            self.out.plans_checked += 1;
            self.out.plans_differing += u64::from(result.plan != served);
            planned.objective_before = result.objective_before;
            planned.objective_after = result.objective_after;
            planned.plan = result.plan;
            self.last_plan.clone_from(&planned.plan);
            if p.commit {
                self.version += 1;
                planned.version = self.version;
                self.append(t, WalBody::Commit(planned.plan.clone()))?;
            }
        }
        Ok(ReplyBody::Ok(Reply::Planned(planned)))
    }
}

/// Re-enacts the traced half of every client's log, session by session.
/// `logs[c]` is client `c`'s op log and the index its traced half starts
/// at; a reader's plans are slotted in at the session version the daemon
/// computed them against. The mutations before the traced half are
/// applied and logged without spans, so that each session's log ends up
/// holding what the daemon's holds (`durable`, by session name).
pub fn reenact(
    w: &Workload,
    logs: &[(Vec<LoggedOp>, usize)],
    durable: &[(String, DurableFiles)],
    agent: Option<SharedAgent>,
    dir: &Path,
) -> io::Result<Reenactment> {
    let epoch = Instant::now();
    let stepped = agent.map(|a| Arc::new(SteppedAgent::new(a, epoch)));
    let policies = Policies {
        ha: Timed::new(Arc::new(HaPolicy), "baselines.ha.plan", epoch),
        fleet: stepped.clone().map(|s| {
            let inner: Arc<dyn PlanPolicy> = s;
            Timed::new(Arc::new(FleetPolicy::new(inner)), "sim.shard.fleet", epoch)
        }),
        stepped,
    };
    let mut out = Reenactment {
        trace: Trace::new(epoch),
        plan_requests: Vec::new(),
        plans_checked: 0,
        plans_differing: 0,
        logs_differing: 0,
        req_bytes: Vec::new(),
        resp_bytes: Vec::new(),
        record_bytes: Vec::new(),
        shape: None,
        fast32: false,
        workers: 1,
    };
    let config = preset_config(w.preset).expect("workloads name known presets");
    let cfg = durability(dir);
    for s in 0..w.sessions {
        let name = w.session_name(s);
        let mut session = Session::from_preset(&name, &config, cluster_seed(s), SESSION_MNL)
            .map_err(|e| io::Error::other(e.to_string()))?;
        // The daemon's warm-up plan left the observation engine live.
        let _ = session.env_mut().observe();
        let log =
            SessionLog::install(cfg.sessions_dir().join(&name), &cfg, &session.snapshot(0), 0)?;
        let mut stage = Stage {
            name,
            session,
            log,
            version: 0,
            policies: &policies,
            out: &mut out,
            next_id: 0,
            last_plan: Vec::new(),
        };
        let mut writer = None;
        let mut reader: Option<(&[LoggedOp], usize)> = None;
        for (role, (log, mark)) in w.roles.iter().zip(logs) {
            match role {
                Role::Cycler { session, plans, .. } if *session == s => {
                    writer = Some((log.as_slice(), *mark));
                    for p in plans.iter().filter(|p| p.policy != "ha") {
                        stage.out.fast32 = p.precision == PrecisionConfig::Fast32;
                        stage.out.workers = stage.out.workers.max(p.workers as u32);
                    }
                }
                Role::Reader { session, .. } if *session == s => {
                    reader = Some((log.as_slice(), *mark));
                }
                _ => {}
            }
        }
        let (writer, mark) = writer.expect("every session has a cycler");
        let mut read_at = 0;
        // Reader ops computed against versions up to `upto` come first.
        let mut drain_reader = |stage: &mut Stage, upto: u64| -> io::Result<()> {
            let Some((ops, mark)) = reader else { return Ok(()) };
            while let Some(op @ LoggedOp::Plan { version, .. }) = ops.get(read_at) {
                if *version > upto {
                    break;
                }
                if read_at >= mark {
                    stage.request(op)?;
                }
                read_at += 1;
            }
            Ok(())
        };
        for (i, op) in writer.iter().enumerate() {
            let mutates = match op {
                LoggedOp::Delta(_) => true,
                LoggedOp::Plan { params, .. } => params.commit,
            };
            if mutates {
                let version = stage.version;
                drain_reader(&mut stage, version)?;
            }
            if i < mark {
                stage.fast_forward(op)?;
            } else {
                stage.request(op)?;
            }
        }
        drain_reader(&mut stage, u64::MAX)?;
        let mine = DurableFiles::read(stage.log.dir())?;
        let same = durable.iter().any(|(name, theirs)| *name == stage.name && mine.same_as(theirs));
        stage.out.logs_differing += u64::from(!same);
    }
    out.shape = policies
        .stepped
        .as_ref()
        .and_then(|s| s.shape.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone());
    out.plan_requests.sort_unstable();
    Ok(out)
}
