//! Boots the real daemon in-process with durability on, drives it over
//! loopback TCP from closed-loop clients, and checks every reply.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};
use vmr_core::infer::SharedAgent;
use vmr_core::model::Vmr2lModel;
use vmr_core::Vmr2lAgent;
use vmr_serve::client::{ClientError, ServeClient};
use vmr_serve::proto::{MetricsReply, PlanParams, Planned, StatsReply, WireAction};
use vmr_serve::recovery::recover_dir;
use vmr_serve::server::{serve, ServerConfig, ServerHandle};
use vmr_serve::wal::{DurabilityConfig, SessionLog, SnapshotFile};
use vmr_sim::env::ClusterDelta;

use crate::gen::{
    cluster_seed, mix_seed, plan_params, same_cluster, sources_match, OpGen, SESSION_MNL,
};
use crate::workload::{PlanSpec, Role, Workload};

/// Set-ups per run (`setup_s` is their median): the measured daemon's,
/// then the rest once the timed phase and the memory reading are over.
const SETUPS: usize = 5;
/// Recoveries per run, each on its own copy of the data dir
/// (`recover_ms` is their median): five, or three once they have taken
/// [`RECOVERY_BUDGET`] between them (a `large` recovery is over a second).
const RECOVERIES: std::ops::RangeInclusive<usize> = 3..=5;
/// See [`RECOVERIES`].
const RECOVERY_BUDGET: Duration = Duration::from_secs(2);
/// Daemon worker threads — the host's core count.
const DAEMON_THREADS: usize = 2;
/// Check-failure messages kept for the report.
const MAX_MESSAGES: usize = 12;

/// One run's inputs.
pub struct RunConfig {
    /// The workload at its scale.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: length of the timed phase.
    pub seconds: f64,
    /// `--trace 1`: telemetry on for the second half, then re-enact.
    pub trace: bool,
    /// Scratch directory for data dirs and trace files.
    pub data_root: PathBuf,
}

/// What one client request was, and what came back (kept only by traced
/// runs, for the in-process re-enactment).
#[derive(Debug, Clone)]
pub enum LoggedOp {
    /// An acknowledged delta.
    Delta(ClusterDelta),
    /// A served plan.
    Plan {
        /// The request.
        params: PlanParams,
        /// The served migrations.
        served: Vec<WireAction>,
        /// Session version the plan was computed against (the post-commit
        /// version for a committing plan).
        version: u64,
        /// Whether the daemon ran a policy for it.
        computed: bool,
        /// Whether its latency is a `plan_ms_*` sample.
        sampled: bool,
    },
}

/// One request's latency: when its reply arrived (nanoseconds into the
/// phase) and how long the client waited for it (nanoseconds).
pub type Sample = (u64, u64);

/// Client-side latency samples of one phase.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// `apply_delta`, acknowledged after fsync.
    pub delta_ns: Vec<Sample>,
    /// `plan` requests that computed and that the workload samples.
    pub plan_ns: Vec<Sample>,
    /// `plan` requests answered from the memo.
    pub memo_ns: Vec<Sample>,
    /// Every request, sampled or not.
    pub all_ns: Vec<Sample>,
    /// Requests sent (including any cut by [`Samples::cut_at`]).
    pub sent: u64,
    /// Cycles completed.
    pub cycles: usize,
    /// When this client finished the phase (nanoseconds into it).
    pub end_ns: u64,
}

impl Samples {
    fn absorb(&mut self, other: &Samples) {
        self.delta_ns.extend_from_slice(&other.delta_ns);
        self.plan_ns.extend_from_slice(&other.plan_ns);
        self.memo_ns.extend_from_slice(&other.memo_ns);
        self.all_ns.extend_from_slice(&other.all_ns);
        self.sent += other.sent;
        self.cycles += other.cycles;
    }

    /// Drops the samples that arrived after `end_ns`: once the first
    /// client is done the others run without its load beside them.
    fn cut_at(&mut self, end_ns: u64) {
        for list in [&mut self.delta_ns, &mut self.plan_ns, &mut self.memo_ns, &mut self.all_ns] {
            list.retain(|&(at, _)| at <= end_ns);
        }
    }

    /// Requests per second of reply-wait time.
    fn rate(&self) -> f64 {
        let busy: u64 = self.all_ns.iter().map(|&(_, ns)| ns).sum();
        self.all_ns.len() as f64 / (busy as f64 / 1e9).max(1e-9)
    }
}

/// FNV-1a over committed actions and objective bits.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Failed checks and error replies.
#[derive(Debug, Default, Clone)]
pub struct Failures {
    /// How many.
    pub count: u64,
    /// The first few, for the report.
    pub messages: Vec<String>,
}

impl Failures {
    fn push(&mut self, message: String) {
        self.count += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.push(what());
        }
    }

    fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        for m in other.messages {
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(m);
            }
        }
    }
}

/// One closed-loop client connection.
struct Client {
    conn: ServeClient,
    role: Role,
    session: String,
    /// The session's op stream and mirror (cyclers own one).
    gen: Option<OpGen>,
    /// Reader plan-seed stream.
    reader_seed: u64,
    /// Mutations of `session` acknowledged so far (cyclers).
    acked: u64,
    /// Highest session version a reader has seen.
    seen_version: u64,
    cycles: usize,
    fingerprint: Fnv,
    fingerprint_cycles: usize,
    phase: Samples,
    phase_start: Instant,
    failures: Failures,
    /// Set by the first transport or server error: the mirror is behind.
    dead: bool,
    log: Option<Vec<LoggedOp>>,
}

impl Client {
    /// Runs cycles until `seconds` have passed and `min_cycles` are done.
    fn run_phase(&mut self, seconds: f64, min_cycles: usize) -> Samples {
        self.phase = Samples::default();
        self.phase_start = Instant::now();
        let start = self.phase_start;
        while !self.dead
            && (start.elapsed().as_secs_f64() < seconds || self.phase.cycles < min_cycles)
        {
            self.cycle();
            self.cycles += 1;
            self.phase.cycles += 1;
        }
        self.phase.end_ns = start.elapsed().as_nanos() as u64;
        std::mem::take(&mut self.phase)
    }

    fn cycle(&mut self) {
        match self.role.clone() {
            Role::Cycler { deltas, plans, sample_all_plans, .. } => {
                self.send_deltas(deltas);
                for (i, spec) in plans.iter().enumerate() {
                    if !self.dead {
                        self.cycler_plan(spec, i == 0 || sample_all_plans);
                    }
                }
            }
            Role::Reader { plan, probe_every, stats_every, .. } => {
                self.reader_cycle(&plan, probe_every, stats_every);
            }
        }
    }

    /// Times one request; `None` (and a recorded failure) on any error.
    fn timed<T>(
        &mut self,
        what: &str,
        call: impl FnOnce(&mut ServeClient) -> Result<T, ClientError>,
    ) -> Option<(T, Sample)> {
        let t0 = Instant::now();
        let reply = call(&mut self.conn);
        let took = t0.elapsed();
        self.phase.sent += 1;
        match reply {
            Ok(reply) => {
                let at = (t0 + took).duration_since(self.phase_start);
                let sample = (at.as_nanos() as u64, took.as_nanos() as u64);
                self.phase.all_ns.push(sample);
                Some((reply, sample))
            }
            Err(e) => {
                // The mirror (or the connection) is behind from here on.
                self.dead = true;
                self.failures.push(format!("{} {what}: {e}", self.session));
                None
            }
        }
    }

    fn send_deltas(&mut self, count: usize) {
        // The whole cycle's deltas are drawn first, so the daemon sees
        // them back to back.
        let gen = self.gen.as_mut().expect("cyclers own a generator");
        let batch: Vec<_> = (0..count)
            .map(|_| {
                let (delta, outcome) = gen.next_delta();
                (delta, outcome, gen.state().num_vms(), gen.state().num_pms())
            })
            .collect();
        for (delta, outcome, vms, pms) in batch {
            let session = self.session.clone();
            let Some((reply, ns)) = self.timed("apply_delta", |c| c.apply_delta(&session, delta))
            else {
                return;
            };
            self.phase.delta_ns.push(ns);
            self.acked += 1;
            let acked = self.acked;
            self.failures.check(
                reply.info.version == acked
                    && (reply.info.vms, reply.info.pms) == (vms, pms)
                    && reply.created_vm == outcome.created.map(|v| v.0)
                    && reply.renumbered_from == outcome.renumbered.map(|r| r.from.0)
                    && reply.renumbered_to == outcome.renumbered.map(|r| r.to.0)
                    && reply.migrations == outcome.migrations.len(),
                || format!("{session} delta {acked}: reply {reply:?} disagrees with the mirror"),
            );
            if let Some(log) = &mut self.log {
                log.push(LoggedOp::Delta(delta));
            }
        }
    }

    fn plan_request(&mut self, params: &PlanParams) -> Option<(Planned, Sample)> {
        let p = params.clone();
        let (reply, ns) = self.timed("plan", |c| c.plan(p))?;
        let session = &self.session;
        self.failures.check(reply.plan.len() <= params.mnl, || {
            format!("{session}: plan of {} moves exceeds MNL {}", reply.plan.len(), params.mnl)
        });
        Some((reply, ns))
    }

    fn log_plan(&mut self, params: PlanParams, reply: &Planned, sampled: bool) {
        if let Some(log) = &mut self.log {
            log.push(LoggedOp::Plan {
                params,
                served: reply.plan.clone(),
                version: reply.version,
                computed: reply.computed,
                sampled,
            });
        }
    }

    /// A plan from the session's only writer: the mirror is exact.
    fn cycler_plan(&mut self, spec: &PlanSpec, sampled: bool) {
        let session = self.session.clone();
        let params = self.gen.as_mut().expect("cycler").next_plan(&session, spec);
        let Some((reply, ns)) = self.plan_request(&params) else { return };
        if sampled {
            self.phase.plan_ns.push(ns);
        }
        let gen = self.gen.as_mut().expect("cycler");
        let sources_ok = sources_match(gen.state(), &reply.plan);
        self.failures.check(sources_ok && reply.computed, || {
            format!("{session}: served plan sources disagree with the mirror, or a fresh seed hit the memo")
        });
        if spec.commit {
            self.acked += 1;
            let committed = gen.commit(&reply.plan);
            let objective = gen.objective();
            self.failures.check(
                committed.is_ok()
                    && reply.version == self.acked
                    && reply.objective_after.to_bits() == objective.to_bits(),
                || {
                    format!(
                        "{session}: committed plan does not replay on the mirror: {committed:?}"
                    )
                },
            );
            if self.cycles < self.fingerprint_cycles {
                for a in &reply.plan {
                    for word in [a.vm, a.from_pm, a.to_pm] {
                        self.fingerprint.eat(&word.to_le_bytes());
                    }
                }
                self.fingerprint.eat(&reply.objective_after.to_bits().to_le_bytes());
            }
        } else {
            self.failures.check(reply.version == self.acked, || {
                format!("{session}: read-only plan at version {} of {}", reply.version, self.acked)
            });
        }
        self.log_plan(params, &reply, sampled);
    }

    /// Fresh-seed plan; now and then the same request again, and `stats`.
    fn reader_cycle(&mut self, spec: &PlanSpec, probe_every: usize, stats_every: usize) {
        let seed = mix_seed(self.reader_seed, self.cycles as u64);
        let params = plan_params(&self.session, spec, seed);
        let Some((first, sample)) = self.plan_request(&params) else { return };
        self.phase.plan_ns.push(sample);
        self.log_plan(params.clone(), &first, true);
        let name = self.session.clone();
        self.failures.check(first.computed && first.version >= self.seen_version, || {
            format!("{name}: fresh-seed plan {first:?} after version {}", self.seen_version)
        });
        self.seen_version = first.version;
        if (self.cycles + 1).is_multiple_of(probe_every) {
            let Some((again, sample)) = self.plan_request(&params) else { return };
            // A delta between the two requests makes the probe compute.
            if again.computed {
                self.phase.plan_ns.push(sample);
            } else {
                self.phase.memo_ns.push(sample);
            }
            self.log_plan(params, &again, again.computed);
            let same_state = again.version == first.version;
            self.failures.check(
                again.version >= first.version
                    && (!same_state || (!again.computed && again.plan == first.plan)),
                || format!("{name}: memo probe: first {first:?} then {again:?}"),
            );
            self.seen_version = again.version;
        }
        if (self.cycles + 1).is_multiple_of(stats_every) {
            if let Some((stats, _)) = self.timed("stats", |c| c.stats(&name)) {
                self.failures.check(stats.errors == 0, || {
                    format!("{name}: daemon counts {} error replies", stats.errors)
                });
            }
        }
    }
}

/// Everything one run measured.
pub struct RunOutcome {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Samples of the phase the end-to-end metrics come from (the whole
    /// timed phase untraced; the telemetry-on half when traced).
    pub samples: Samples,
    /// The percentiles `plan_ms_tail` and `delta_ms_tail` are read at:
    /// what that phase's floors support.
    pub tail_pcts: (u32, u32),
    /// Summed per-client request rates of that phase.
    pub req_per_s: f64,
    /// Traced runs: summed per-client request rates of the telemetry-off
    /// half, the reference `trace.overhead_share` compares against.
    pub untraced_req_per_s: Option<f64>,
    /// `recover_dir` times, milliseconds.
    pub recover_ms: Vec<f64>,
    /// Log records replayed by one recovery.
    pub records_replayed: usize,
    /// Snapshot bytes one recovery parsed.
    pub snapshot_bytes: u64,
    /// `VmHWM` at the end of the timed phase, MiB.
    pub rss_peak_mb: f64,
    /// Requests and end-of-run checks attempted.
    pub attempted: u64,
    /// Failed checks and error replies.
    pub failures: Failures,
    /// Per-session `(name, fingerprint)` over the floor cycles' commits.
    pub fingerprints: Vec<(String, u64)>,
    /// Traced runs: what the daemon's registries held at the end.
    pub daemon: Option<DaemonView>,
    /// Traced runs: per-client op logs and where the traced half starts.
    pub logs: Vec<(Vec<LoggedOp>, usize)>,
    /// Traced runs: what the stopped daemon left on disk, per session.
    pub durable: Vec<(String, DurableFiles)>,
    /// The inference handle the daemon served with.
    pub agent: Option<SharedAgent>,
}

/// The daemon's own view of the traced half.
pub struct DaemonView {
    /// `metrics` op at the end (server registry merged with the global one).
    pub metrics: MetricsReply,
    /// `stats` op when the traced half started.
    pub stats_before: StatsReply,
    /// `stats` op at the end.
    pub stats_after: StatsReply,
}

/// A random-init default-architecture agent: latency depends on the
/// architecture, not on what the weights were trained to.
pub fn fresh_agent() -> SharedAgent {
    let mut rng = StdRng::seed_from_u64(0);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    SharedAgent::new(Vmr2lAgent::new(model, ActionMode::TwoStage))
}

/// The durability settings every daemon and re-enactment uses.
pub fn durability(dir: &Path) -> DurabilityConfig {
    let mut cfg = DurabilityConfig::new(dir);
    cfg.sync_every = 1;
    cfg.snapshot_every = 64;
    cfg
}

fn io_other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// A booted daemon: its handle, one connection per client, and the
/// agent it serves with.
type Booted = (ServerHandle, Vec<ServeClient>, Option<SharedAgent>);

/// One set-up: model init, daemon boot, a connection per client, then per
/// session create and a warm-up plan.
fn boot(w: &Workload, seed: u64, dir: &Path) -> io::Result<Booted> {
    let agent = w.needs_agent().then(fresh_agent);
    let handle = serve(ServerConfig {
        threads: DAEMON_THREADS,
        agent: agent.clone(),
        durability: Some(durability(dir)),
        telemetry: false,
        ..ServerConfig::default()
    })?;
    let mut conns = (0..w.roles.len())
        .map(|_| ServeClient::connect(handle.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    for s in 0..w.sessions {
        let name = w.session_name(s);
        let conn = &mut conns[owner_of(w, s)];
        conn.create_session(&name, w.preset, cluster_seed(s), SESSION_MNL).map_err(io_other)?;
        conn.plan(plan_params(&name, &w.warmup_plan(s), seed)).map_err(io_other)?;
    }
    Ok((handle, conns, agent))
}

/// Closes the connections and stops the daemon on a thread of its own.
fn stop_in_background(handle: ServerHandle, conns: Vec<ServeClient>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        drop(conns);
        handle.shutdown();
    })
}

/// The client that owns the write side of session `s`.
fn owner_of(w: &Workload, s: usize) -> usize {
    w.roles
        .iter()
        .position(|r| matches!(r, Role::Cycler { session, .. } if *session == s))
        .expect("every session has a cycler")
}

fn vm_hwm_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A session's durable files.
pub struct DurableFiles {
    /// `snapshot.json`, parsed.
    pub snapshot: SnapshotFile,
    /// `wal.log`: the records after the snapshot, byte for byte.
    pub wal: Vec<u8>,
}

impl DurableFiles {
    /// Reads them from a session's directory.
    pub fn read(session_dir: &Path) -> io::Result<Self> {
        let (snapshot, wal) = SessionLog::files_of(session_dir);
        let snapshot = serde_json::from_slice(&fs::read(&snapshot)?)
            .map_err(|e| io::Error::other(format!("{}: {e:?}", snapshot.display())))?;
        Ok(DurableFiles { snapshot, wal: fs::read(wal)? })
    }

    /// Whether both hold the same log bytes behind a snapshot of the same
    /// cluster at the same LSN (a snapshot's `vms_on` index is unordered
    /// and follows the read-only plans a session served, so snapshot
    /// bytes may differ).
    pub fn same_as(&self, other: &DurableFiles) -> bool {
        let (a, b) = (&self.snapshot, &other.snapshot);
        self.wal == other.wal
            && (a.lsn, a.snapshot.version) == (b.lsn, b.snapshot.version)
            && same_cluster(&a.snapshot.state, &b.snapshot.state)
    }
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// What recovering the run's data dir took.
struct Recovery {
    recover_ms: Vec<f64>,
    records_replayed: usize,
    snapshot_bytes: u64,
}

/// Restart downtime: recovers copies of `data_dir` as a booting daemon
/// would, checking each against the mirrors (`(session, mirror, acked)`).
fn measure_recovery(
    run_dir: &Path,
    data_dir: &Path,
    mirrors: &mut [(String, OpGen, u64)],
    failures: &mut Failures,
) -> io::Result<Recovery> {
    let mut out = Recovery { recover_ms: Vec::new(), records_replayed: 0, snapshot_bytes: 0 };
    let started = Instant::now();
    for i in 0..*RECOVERIES.end() {
        if i >= *RECOVERIES.start() && started.elapsed() > RECOVERY_BUDGET {
            break;
        }
        let copy = run_dir.join(format!("recover-{i}"));
        copy_dir(data_dir, &copy)?;
        out.snapshot_bytes = mirrors
            .iter()
            .map(|(name, ..)| {
                let path = copy.join("sessions").join(name).join("snapshot.json");
                fs::metadata(path).map_or(0, |m| m.len())
            })
            .sum();
        let t0 = Instant::now();
        let mut recovered = recover_dir(&durability(&copy))?;
        out.recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.records_replayed = recovered.live.iter().map(|s| s.replayed).sum();
        let mut same = recovered.dead.is_empty() && recovered.live.len() == mirrors.len();
        for (name, gen, acked) in mirrors.iter_mut() {
            let live = recovered.live.iter_mut().find(|s| s.name == *name);
            same &= live.is_some_and(|live| {
                live.lsn == *acked && same_cluster(live.session.env_mut().state(), gen.state())
            });
        }
        failures.check(same, || {
            format!("recovery {i} did not rebuild the mirrors' state: {}", recovered.report())
        });
    }
    Ok(out)
}

/// Runs every client for one phase, side by side.
fn run_phase(clients: &mut [Client], seconds: f64, min_cycles: &[usize]) -> Vec<Samples> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(min_cycles)
            .map(|(client, &min)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client.run_phase(seconds, min)
                })
            })
            .collect();
        let mut phases: Vec<Samples> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        let first_done = phases.iter().map(|p| p.end_ns).min().unwrap_or(0);
        phases.iter_mut().for_each(|p| p.cut_at(first_done));
        phases
    })
}

/// Runs one workload once. `Err` means the run could not be set up at
/// all; failed requests and checks are counted in the outcome instead.
pub fn run(cfg: &RunConfig) -> io::Result<RunOutcome> {
    let w = &cfg.workload;
    let run_dir = cfg.data_root.join(format!("run-{}-{}-{}", w.name, cfg.seed, std::process::id()));
    let _ = fs::remove_dir_all(&run_dir);
    fs::create_dir_all(&run_dir)?;

    // The first set-up boots the daemon that is measured. The others run
    // after the timed phase, so that when `VmHWM` is read the process has
    // only ever held this one daemon.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let data_dir = run_dir.join("data-0");
    let t0 = Instant::now();
    let (handle, conns, agent) = boot(w, cfg.seed, &data_dir)?;
    setup_s.push(t0.elapsed().as_secs_f64());

    let mut clients: Vec<Client> = conns
        .into_iter()
        .zip(&w.roles)
        .zip(&w.min_cycles)
        .map(|((conn, role), &min)| {
            let (session, gen) = match role {
                Role::Cycler { session, pm_ops, .. } => (
                    *session,
                    Some(OpGen::new(w.preset, cfg.seed, *session, *pm_ops).map_err(io_other)?),
                ),
                Role::Reader { session, .. } => (*session, None),
            };
            Ok(Client {
                conn,
                role: role.clone(),
                session: w.session_name(session),
                gen,
                acked: 0,
                reader_seed: mix_seed(cfg.seed, 0x4EAD),
                seen_version: 0,
                cycles: 0,
                fingerprint: Fnv::new(),
                fingerprint_cycles: min,
                phase: Samples::default(),
                phase_start: Instant::now(),
                failures: Failures::default(),
                dead: false,
                log: cfg.trace.then(Vec::new),
            })
        })
        .collect::<io::Result<_>>()?;

    // Untimed settling: the writers alone bring their sessions to the
    // state the workload holds them in.
    let mut attempted = 0u64;
    for client in clients.iter_mut().filter(|c| c.gen.is_some()) {
        attempted += client.run_phase(0.0, w.settle_cycles).sent;
        (client.cycles, client.fingerprint) = (0, Fnv::new());
    }

    // The timed phase. A traced run splits it: telemetry off for the
    // first half (the reference), on for the second (what is reported).
    let mut failures = Failures::default();
    let mut untraced_req_per_s = None;
    let mut stats_before = None;
    let mut log_marks = vec![0; clients.len()];
    let mut phase_seconds = cfg.seconds;
    let mut floors = w.min_cycles.clone();
    if cfg.trace {
        phase_seconds /= 2.0;
        floors.iter_mut().for_each(|f| *f = f.div_ceil(2));
        let off = run_phase(&mut clients, phase_seconds, &floors);
        attempted += off.iter().map(|s| s.sent).sum::<u64>();
        untraced_req_per_s = Some(off.iter().map(Samples::rate).sum());
        for (mark, client) in log_marks.iter_mut().zip(&clients) {
            *mark = client.log.as_ref().map_or(0, Vec::len);
        }
        stats_before = Some(clients[0].conn.stats("").map_err(io_other)?);
        vmr_telemetry::set_enabled(true);
    }
    let per_client = run_phase(&mut clients, phase_seconds, &floors);
    let rss_peak_mb = vm_hwm_mb();
    let req_per_s = per_client.iter().map(Samples::rate).sum();
    let mut samples = Samples::default();
    per_client.iter().for_each(|s| samples.absorb(s));
    attempted += samples.sent;

    let daemon = match stats_before {
        Some(stats_before) => {
            let conn = &mut clients[0].conn;
            let metrics = conn.metrics(false).map_err(io_other)?;
            let stats_after = conn.stats("").map_err(io_other)?;
            vmr_telemetry::set_enabled(false);
            Some(DaemonView { metrics, stats_before, stats_after })
        }
        None => None,
    };

    // End-of-run checks against the mirrors, then an orderly stop.
    for client in clients.iter_mut().filter(|c| c.gen.is_some()) {
        let name = client.session.clone();
        attempted += 2;
        match client.conn.stats(&name) {
            Ok(stats) => {
                let version = stats.session.as_ref().map(|s| s.version);
                let lsn = stats.durability.as_ref().map(|d| d.durable_lsn);
                failures.check(version == Some(client.acked) && lsn == Some(client.acked), || {
                    format!(
                        "{name}: version {version:?} / durable lsn {lsn:?} after {} acknowledged mutations",
                        client.acked
                    )
                });
            }
            Err(e) => failures.push(format!("{name} final stats: {e}")),
        }
        let mirror = client.gen.as_mut().expect("filtered").state();
        match client.conn.snapshot(&name) {
            Ok(reply) => failures.check(same_cluster(&reply.snapshot.state, mirror), || {
                format!("{name}: final snapshot differs from the mirror")
            }),
            Err(e) => failures.push(format!("{name} final snapshot: {e}")),
        }
    }
    let mut fingerprints = Vec::new();
    let mut logs = Vec::new();
    let mut mirrors = Vec::new();
    let mut conns = Vec::new();
    for (client, mark) in clients.into_iter().zip(log_marks) {
        failures.absorb(client.failures);
        logs.push((client.log.unwrap_or_default(), mark));
        conns.push(client.conn);
        if let Some(gen) = client.gen {
            fingerprints.push((client.session.clone(), client.fingerprint.0));
            mirrors.push((client.session, gen, client.acked));
        }
    }
    // Everything acknowledged is fsynced; the copies below are taken
    // from files the stopping daemon no longer writes.
    let stopped = stop_in_background(handle, conns);

    let recovery = measure_recovery(&run_dir, &data_dir, &mut mirrors, &mut failures)?;
    attempted += recovery.recover_ms.len() as u64;

    // The remaining set-ups. A daemon's workers notice the stop flag on a
    // 500 ms poll, so each one stops on a thread of its own (asleep in
    // `join`) while the next set-up runs.
    let mut stopping = vec![stopped];
    for i in 1..SETUPS {
        let t0 = Instant::now();
        let (handle, conns, _) = boot(w, cfg.seed, &run_dir.join(format!("data-{i}")))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        stopping.push(stop_in_background(handle, conns));
    }
    for stopped in stopping {
        stopped.join().expect("daemon shutdown panicked");
    }
    let durable = if cfg.trace {
        let sessions = durability(&data_dir).sessions_dir();
        mirrors
            .iter()
            .map(|(name, ..)| Ok((name.clone(), DurableFiles::read(&sessions.join(name))?)))
            .collect::<io::Result<_>>()?
    } else {
        Vec::new()
    };
    let _ = fs::remove_dir_all(&run_dir);

    Ok(RunOutcome {
        setup_s,
        samples,
        tail_pcts: w.tail_pcts(&floors),
        req_per_s,
        untraced_req_per_s,
        recover_ms: recovery.recover_ms,
        records_replayed: recovery.records_replayed,
        snapshot_bytes: recovery.snapshot_bytes,
        rss_peak_mb,
        attempted,
        failures,
        fingerprints,
        daemon,
        logs,
        durable,
        agent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_serve::session::{preset_config, Session};
    use vmr_serve::wal::WalBody;

    /// Logs `deltas` generated deltas (compacting when due) under `dir`
    /// and reads the files back.
    fn logged(dir: &Path, deltas: usize) -> DurableFiles {
        let _ = fs::remove_dir_all(dir);
        let config = preset_config("tiny").unwrap();
        let mut session =
            Session::from_preset("s0", &config, cluster_seed(0), SESSION_MNL).unwrap();
        let mut gen = OpGen::new("tiny", 7, 0, 0.0).unwrap();
        let cfg = durability(dir);
        let mut log = SessionLog::install(dir.join("s0"), &cfg, &session.snapshot(0), 0).unwrap();
        for version in 1..=deltas as u64 {
            let delta = gen.next_delta().0;
            session.apply_delta(&delta).unwrap();
            log.append(&WalBody::Delta(delta)).unwrap();
            if log.compaction_due() {
                log.maybe_compact(&session.snapshot(version)).unwrap();
            }
        }
        let files = DurableFiles::read(log.dir()).unwrap();
        let _ = fs::remove_dir_all(dir);
        files
    }

    #[test]
    fn durable_files_compare_log_bytes_and_snapshot_lsn() {
        let root = crate::data_root().join("tmp").join(format!("durable-{}", std::process::id()));
        let (a, again) = (logged(&root.join("a"), 70), logged(&root.join("b"), 70));
        assert_eq!(a.snapshot.lsn, 64, "snapshot_every 64");
        assert!(a.same_as(&again));
        // One record fewer behind the same snapshot; one compaction fewer.
        assert!(!a.same_as(&logged(&root.join("c"), 69)));
        assert!(!a.same_as(&logged(&root.join("d"), 60)));
        let _ = fs::remove_dir_all(root);
    }
}
