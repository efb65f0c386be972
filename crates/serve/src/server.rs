//! The daemon: a `std::net` loopback listener, a worker thread pool, and
//! per-session plan coalescing.
//!
//! Concurrency model: an acceptor thread pushes connections onto a
//! bounded channel; `threads` workers each own one connection at a time
//! and serve its request stream to EOF. Sessions live behind per-session
//! locks, so requests against *different* sessions never contend.
//!
//! Plan coalescing: identical `plan` requests (same session, parameters,
//! and state version) are answered from **one** policy invocation — the
//! first requester computes while concurrent duplicates wait on a
//! condvar, and later duplicates hit the memoized result until a delta
//! bumps the version. The `computed` field of each response records
//! whether it ran a policy, and the `stats` op exposes the aggregate
//! (`plans_served` vs `plans_computed`).

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde_json::json;

use vmr_core::infer::SharedAgent;
use vmr_sim::error::SimError;
use vmr_telemetry::{Counter, EventLog, Gauge, Histogram, Level, Registry, Timer, Unit};

use crate::policies::{PlanRequest, PolicyRegistry};
use crate::proto::{
    self, codes, ApplyDelta, CreateSession, ErrorBreakdown, MetricsParams, MetricsReply, Op,
    PlanParams, Planned, ReadOutcome, Reply, Request, Response, Restore, SessionDetail, SessionRef,
    SnapshotReply, StatsParams, StatsReply,
};
use crate::recovery;
use crate::session::{preset_config, PlanResult, Session};
use crate::sync::LockExt;
use crate::wal::{self, DurabilityConfig, SessionLog, WalBody, WalMetrics};

/// Daemon configuration.
pub struct ServerConfig {
    /// Bind address; empty = `127.0.0.1:0` (loopback, ephemeral port).
    pub addr: String,
    /// Worker threads (0 = 4).
    pub threads: usize,
    /// Inference handle for the `agent` policy (e.g. from
    /// [`SharedAgent::load`]); without it only the classical policies are
    /// registered.
    pub agent: Option<SharedAgent>,
    /// Durable sessions: with a data dir every acknowledged mutation is
    /// written ahead to a per-session CRC32-checksummed log (group-commit
    /// fsync), compacted into snapshot files, and recovered on boot.
    /// `None` keeps the PR 3 in-memory behavior.
    pub durability: Option<DurabilityConfig>,
    /// Span timing switch, on by default (instrumentation is cheap
    /// enough to leave on — the `telemetry_overhead` bench gates it at
    /// <3%). Sets the *process-wide* [`vmr_telemetry::set_enabled`]
    /// flag at boot; request counters and the `metrics` op work either
    /// way, but latency histograms and slow-request records need it on.
    pub telemetry: bool,
    /// Slow-request threshold in milliseconds: a dispatched request
    /// slower than this emits a leveled JSONL record (level `error`
    /// at ≥ 10×) correlated by trace id. 0 disables slow records.
    pub slow_ms: u64,
    /// Sink for JSONL event records (boot, recovery, slow requests).
    /// `None` with `slow_ms > 0` falls back to stderr.
    pub events: Option<Arc<EventLog>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: String::new(),
            threads: 0,
            agent: None,
            durability: None,
            telemetry: true,
            slow_ms: 0,
            events: None,
        }
    }
}

/// Default latency budget for anytime policies when a request says 0.
const DEFAULT_BUDGET: Duration = Duration::from_millis(200);

/// [`WireError`](proto::WireError) codes with a dedicated error-counter
/// bucket, in [`ErrorBreakdown`] field order. Codes outside this list
/// land in the trailing `other` bucket.
const ERROR_CODES: [&str; 10] = [
    codes::BAD_REQUEST,
    codes::UNSUPPORTED_VERSION,
    codes::OVERSIZED,
    codes::SESSION_EXISTS,
    codes::UNKNOWN_SESSION,
    codes::UNKNOWN_POLICY,
    codes::UNKNOWN_PRESET,
    codes::SIM,
    codes::DEGRADED,
    codes::READ_ONLY,
];

/// Server-wide counters (see [`StatsReply`]).
#[derive(Default)]
struct ServerStats {
    requests: AtomicU64,
    plans_served: AtomicU64,
    plans_computed: AtomicU64,
    deltas: AtomicU64,
    errors: AtomicU64,
    /// Per-code error counters ([`ERROR_CODES`] order, then `other`).
    errors_by_code: [AtomicU64; ERROR_CODES.len() + 1],
}

impl ServerStats {
    /// Counts one error response: the compatibility total plus the
    /// code's bucket.
    fn note_error(&self, code: &str) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        let idx = ERROR_CODES.iter().position(|&c| c == code).unwrap_or(ERROR_CODES.len());
        // vmr-analyze: allow(P001) reason="idx clamped to ERROR_CODES.len(), the array's last slot, by unwrap_or above"
        self.errors_by_code[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// The wire-shaped per-code breakdown.
    fn breakdown(&self) -> ErrorBreakdown {
        // vmr-analyze: allow(P001) reason="called with literal indices 0..=10 against the ERROR_CODES.len()+1 = 11 slot array"
        let at = |i: usize| self.errors_by_code[i].load(Ordering::Relaxed);
        ErrorBreakdown {
            bad_request: at(0),
            unsupported_version: at(1),
            oversized: at(2),
            session_exists: at(3),
            unknown_session: at(4),
            unknown_policy: at(5),
            unknown_preset: at(6),
            sim: at(7),
            degraded: at(8),
            read_only: at(9),
            other: at(10),
        }
    }
}

/// The daemon's pre-registered metric handles (one registry per server,
/// so a restarted daemon's counters start from zero; the process-wide
/// [`vmr_telemetry::global`] registry holding the library hot-path
/// metrics is merged in at export time).
struct Metrics {
    registry: Arc<Registry>,
    /// Request-line JSON parse time.
    frame_decode: Arc<Histogram>,
    /// Session-mutex acquisition wait.
    lock_wait: Arc<Histogram>,
    /// Policy compute time (leader's span; coalesced followers share it
    /// by trace id instead of re-recording).
    plan_compute: Arc<Histogram>,
    /// Condvar wait of coalesced followers adopting a leader's result.
    plan_wait: Arc<Histogram>,
    /// Response serialize + socket write time.
    resp_write: Arc<Histogram>,
    /// End-to-end dispatched-request time (decode through write).
    request_ns: Arc<Histogram>,
    /// WAL phase histograms, handed to every [`SessionLog`].
    wal: WalMetrics,
    /// Plan responses answered from a leader's computation.
    coalesced: Arc<Counter>,
    /// Requests that crossed the slow threshold.
    slow_requests: Arc<Counter>,
    /// Connections sitting in the worker queue.
    queue_depth: Arc<Gauge>,
}

impl Metrics {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let hist = |name: &str| registry.histogram(name, Unit::Nanos);
        Metrics {
            frame_decode: hist("serve_frame_decode"),
            lock_wait: hist("serve_lock_wait"),
            plan_compute: hist("serve_plan_compute"),
            plan_wait: hist("serve_plan_wait"),
            resp_write: hist("serve_resp_write"),
            request_ns: hist("serve_request"),
            wal: WalMetrics {
                append: Some(hist("serve_wal_append")),
                fsync: Some(hist("serve_wal_fsync")),
                compact: Some(hist("serve_wal_compact")),
            },
            coalesced: registry.counter("serve_plans_coalesced"),
            slow_requests: registry.counter("serve_slow_requests"),
            queue_depth: registry.gauge("serve_queue_depth"),
            registry,
        }
    }
}

/// Per-request phase timings and identity, accumulated through dispatch
/// for the end-of-request slow check. All spans are 0 when telemetry is
/// disabled.
#[derive(Default)]
struct ReqSpans {
    /// Daemon-assigned trace id (echoed in the [`Response`]).
    trace: u64,
    /// Wire op name.
    op: &'static str,
    /// Target session ("" for server-wide ops).
    session: String,
    /// Request-line parse.
    decode_ns: u64,
    /// Session-mutex wait.
    lock_wait_ns: u64,
    /// Coalesced-follower condvar wait.
    coalesce_wait_ns: u64,
    /// Policy compute (leaders only).
    compute_ns: u64,
    /// Durable append + fsync + compaction.
    wal_ns: u64,
    /// Response serialize + write.
    write_ns: u64,
    /// Served from the coalescing cache.
    coalesced: bool,
    /// Trace id of the leader whose computation this reply shares
    /// (0 = computed here / not a plan).
    leader_trace: u64,
    /// Error code of a failed request.
    code: Option<&'static str>,
}

/// Key identifying one coalescable plan computation.
#[derive(Clone, PartialEq, Eq)]
/// `workers` is deliberately absent: fleet plans are byte-identical for
/// any worker count (enforced by `prop_fleet`), so requests differing
/// only in `workers` coalesce onto one computation and share the memo.
struct PlanKey {
    policy: String,
    mnl: usize,
    seed: u64,
    budget_ms: u64,
    shards: usize,
    precision: vmr_core::config::PrecisionConfig,
    version: u64,
}

/// Coalescing slot state for one session.
enum PlanCacheState {
    /// No computation in flight, nothing memoized.
    Idle,
    /// A worker is computing a plan; everyone else waits on the condvar
    /// (same-key waiters then adopt the memoized result, different-key
    /// waiters claim the slot next). `trace` identifies the computing
    /// leader so followers' replies and slow records can share its
    /// compute span instead of re-measuring.
    InFlight {
        /// The computing request's trace id.
        trace: u64,
    },
    /// The last computation's result, valid while the key (incl. state
    /// version) matches. `trace` is the leader that computed it.
    Ready(PlanKey, PlanResult, u64),
}

struct SessionSlot {
    session: Mutex<Session>,
    /// Monotone state version: bumped by deltas, commits, and restores.
    version: AtomicU64,
    cache: Mutex<PlanCacheState>,
    cache_cv: Condvar,
    /// The session's durable stream (`None` on a non-durable daemon).
    /// Lock order: `session` before `log`; never the reverse.
    log: Mutex<Option<SessionLog>>,
}

struct Shared {
    sessions: Mutex<HashMap<String, Arc<SessionSlot>>>,
    policies: PolicyRegistry,
    stats: ServerStats,
    stop: AtomicBool,
    /// Live connection sockets, keyed by a monotone id, so shutdown can
    /// unblock workers parked in blocking reads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// Durability settings (for sessions created after boot).
    durable: Option<DurabilityConfig>,
    /// Sessions present on disk but unrecoverable: every request against
    /// them answers a structured `degraded` error while the rest of the
    /// daemon serves normally.
    dead: Mutex<HashMap<String, String>>,
    /// Sessions recovered at boot.
    recoveries: u64,
    /// Pre-registered metric handles + the per-daemon registry.
    metrics: Metrics,
    /// Boot instant (for `uptime_ms`).
    started: Instant,
    /// Slow-request threshold in ms (0 = off).
    slow_ms: u64,
    /// JSONL event sink (`None` = no event log configured).
    events: Option<Arc<EventLog>>,
}

/// A running daemon; dropping the handle leaves it running (detached) —
/// call [`ServerHandle::shutdown`] for an orderly stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The connection queue's sender (shutdown posts the stop sentinels).
    queue: SyncSender<Option<TcpStream>>,
    recovery_report: Option<String>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The boot-time recovery report (`None` on a non-durable daemon).
    pub fn recovery_report(&self) -> Option<&str> {
        self.recovery_report.as_deref()
    }

    /// Stops accepting, drains workers, and joins all threads. In-flight
    /// connections are served to completion of their current request
    /// stream.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Unblock workers parked in blocking reads on live connections.
        for (_, stream) in self.shared.conns.lock_recover().iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // One sentinel per worker wakes the pool at once. The receiver
        // sits behind a mutex that the waiting worker holds across its
        // `recv_timeout`, so without a message the workers would time
        // out one after another: `threads × READ_POLL` to stop. A full
        // queue takes no sentinel, and needs none — the workers are
        // awake draining it and fall back on the stop flag.
        for _ in 0..self.workers.len() {
            let _ = self.queue.try_send(None);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Starts the daemon and returns its handle. Refuses — with
/// [`io::ErrorKind::Unsupported`] wrapping a [`vmr_nn::tier::TierError`]
/// — to start on a CPU that lacks the SIMD tier the binary was compiled
/// for, rather than dying on the first kernel.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    vmr_nn::tier::check().map_err(|e| io::Error::new(io::ErrorKind::Unsupported, e))?;
    let addr = if config.addr.is_empty() { "127.0.0.1:0" } else { &config.addr };
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let threads = if config.threads == 0 { 4 } else { config.threads };

    // The span-timing switch is process-wide: one daemon per process is
    // the deployment shape, and library hot paths (simulator, inference)
    // cannot see a per-server registry.
    vmr_telemetry::set_enabled(config.telemetry);
    let metrics = Metrics::new();
    let events = match config.events {
        Some(sink) => Some(sink),
        None if config.slow_ms > 0 => Some(Arc::new(EventLog::to_stderr())),
        None => None,
    };

    // Durable boot: recover every session found under the data dir
    // before accepting a single connection.
    let mut sessions = HashMap::new();
    let mut dead = HashMap::new();
    let mut recoveries = 0u64;
    let mut recovery_report = None;
    if let Some(cfg) = &config.durability {
        let recovered = recovery::recover_dir(cfg)?;
        recovery_report = Some(recovered.report());
        recoveries = recovered.live.len() as u64;
        for d in recovered.dead {
            if let Some(events) = &events {
                events.emit(
                    Level::Error,
                    "session_unrecoverable",
                    &[("session", json!(d.name.clone())), ("reason", json!(d.reason.clone()))],
                );
            }
            dead.insert(d.name, d.reason);
        }
        for s in recovered.live {
            let mut log = s.log;
            log.set_metrics(metrics.wal.clone());
            if let Some(events) = &events {
                events.emit(
                    Level::Info,
                    "session_recovered",
                    &[("session", json!(s.name.clone())), ("lsn", json!(s.lsn))],
                );
            }
            sessions.insert(
                s.name.clone(),
                Arc::new(SessionSlot {
                    session: Mutex::new(s.session),
                    version: AtomicU64::new(s.lsn),
                    cache: Mutex::new(PlanCacheState::Idle),
                    cache_cv: Condvar::new(),
                    log: Mutex::new(Some(log)),
                }),
            );
        }
    }
    if let Some(events) = &events {
        events.emit(
            Level::Info,
            "server_start",
            &[
                ("addr", json!(addr.to_string())),
                ("threads", json!(threads as u64)),
                ("recovered", json!(recoveries)),
                ("telemetry", json!(config.telemetry)),
            ],
        );
    }

    let shared = Arc::new(Shared {
        sessions: Mutex::new(sessions),
        policies: PolicyRegistry::standard(config.agent),
        stats: ServerStats::default(),
        stop: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        next_conn: AtomicU64::new(0),
        durable: config.durability,
        dead: Mutex::new(dead),
        recoveries,
        metrics,
        started: Instant::now(),
        slow_ms: config.slow_ms,
        events,
    });

    // `None` is the stop sentinel (see `ServerHandle::shutdown`).
    let (tx, rx): (SyncSender<Option<TcpStream>>, Receiver<Option<TcpStream>>) =
        sync_channel(threads * 4);
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let rx = Arc::clone(&rx);
        let requeue = tx.clone();
        let shared = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || loop {
            let stream = {
                let guard = rx.lock_recover();
                // A bounded wait (instead of a blocking recv) lets the
                // worker notice shutdown even though its own requeue
                // sender keeps the channel alive.
                guard.recv_timeout(READ_POLL)
            };
            match stream {
                Ok(None) => break,
                Ok(Some(stream)) => {
                    shared.metrics.queue_depth.add(-1);
                    if shared.stop.load(Ordering::SeqCst) {
                        continue; // drain the queue without serving
                    }
                    let mut current = Some(stream);
                    while let Some(stream) = current.take() {
                        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                        if let Ok(clone) = stream.try_clone() {
                            shared.conns.lock_recover().insert(conn_id, clone);
                        }
                        let outcome = handle_connection(&shared, stream);
                        shared.conns.lock_recover().remove(&conn_id);
                        if let Ok(Some(idle)) = outcome {
                            // Idle between frames: hand the connection
                            // back to the queue so this worker can serve
                            // others — a few silent peers must not pin
                            // the whole pool. If the queue is full, keep
                            // serving it here.
                            match requeue.try_send(Some(idle)) {
                                Ok(()) => shared.metrics.queue_depth.add(1),
                                Err(std::sync::mpsc::TrySendError::Full(s)) => current = s,
                                Err(std::sync::mpsc::TrySendError::Disconnected(_)) => {}
                            }
                        }
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }));
    }

    let queue = tx.clone();
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    // Count the connection as queued before handing it
                    // over so a worker's decrement cannot race ahead.
                    shared.metrics.queue_depth.add(1);
                    if tx.send(Some(stream)).is_err() {
                        shared.metrics.queue_depth.add(-1);
                        break;
                    }
                }
            }
            // Dropping `tx` terminates the workers' recv loops.
        })
    };

    Ok(ServerHandle { addr, shared, acceptor: Some(acceptor), workers, queue, recovery_report })
}

/// How often a worker parked on an idle connection wakes to check the
/// stop flag (and to stay preemptible by shutdown).
const READ_POLL: Duration = Duration::from_millis(500);

/// Serves one connection's request stream until EOF (`Ok(None)`) or an
/// idle pause between frames (`Ok(Some(stream))` — the caller requeues
/// the connection so silent peers cannot pin workers).
fn handle_connection(shared: &Shared, stream: TcpStream) -> io::Result<Option<TcpStream>> {
    // A read timeout keeps a silent peer from pinning this worker: on
    // each timeout the partial frame is preserved, the stop flag is
    // re-checked, and a connection idle *between* frames is yielded back
    // to the queue.
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let outcome = loop {
            match proto::read_frame(&mut reader, &mut buf) {
                Ok(outcome) => break outcome,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if shared.stop.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                    if buf.is_empty() {
                        // Idle between frames: nothing buffered (a
                        // partial frame would have been drained into
                        // `buf`), so the raw stream can be handed off.
                        return Ok(Some(reader.into_inner()));
                    }
                    // Mid-frame: keep accumulating on this worker.
                }
                Err(e) => return Err(e),
            }
        };
        match outcome {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Oversized => {
                shared.stats.note_error(codes::OVERSIZED);
                let resp = proto::error_response(
                    0,
                    codes::OVERSIZED,
                    format!("line exceeds {} bytes; closing", proto::MAX_LINE_BYTES),
                );
                let _ = proto::write_frame(&mut writer, &resp);
                return Ok(None);
            }
            ReadOutcome::Line => {
                if buf.iter().all(|b| b.is_ascii_whitespace()) {
                    continue; // tolerate blank keep-alive lines
                }
                let total = Timer::start();
                let mut spans = ReqSpans::default();
                let decode = Timer::start();
                let parsed = serde_json::from_slice::<Request>(&buf);
                spans.decode_ns = decode.observe(&shared.metrics.frame_decode);
                let resp = match parsed {
                    Err(e) => {
                        shared.stats.note_error(codes::BAD_REQUEST);
                        spans.op = "unparseable";
                        spans.code = Some(codes::BAD_REQUEST);
                        proto::error_response(0, codes::BAD_REQUEST, format!("{e:?}"))
                    }
                    Ok(req) => dispatch(shared, req, &mut spans),
                };
                let write = Timer::start();
                proto::write_frame(&mut writer, &resp)?;
                spans.write_ns = write.observe(&shared.metrics.resp_write);
                let total_ns = total.observe(&shared.metrics.request_ns);
                maybe_slow(shared, &spans, total_ns);
            }
        }
    }
}

/// Routes one parsed request. Stamps a fresh trace id into the reply
/// and accumulates phase spans for the end-of-request slow check.
fn dispatch(shared: &Shared, req: Request, spans: &mut ReqSpans) -> Response {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    spans.trace = vmr_telemetry::next_trace_id();
    spans.op = op_name(&req.op);
    spans.session = op_session(&req.op).to_string();
    if req.v != proto::PROTO_VERSION {
        shared.stats.note_error(codes::UNSUPPORTED_VERSION);
        spans.code = Some(codes::UNSUPPORTED_VERSION);
        let mut resp = proto::error_response(
            req.id,
            codes::UNSUPPORTED_VERSION,
            format!("this daemon speaks v{}", proto::PROTO_VERSION),
        );
        resp.trace = spans.trace;
        return resp;
    }
    let id = req.id;
    let result = match req.op {
        Op::CreateSession(p) => op_create(shared, p),
        Op::ApplyDelta(p) => op_delta(shared, p, spans),
        Op::Plan(p) => op_plan(shared, p, spans),
        Op::Stats(p) => op_stats(shared, p),
        Op::Snapshot(p) => op_snapshot(shared, p),
        Op::Restore(p) => op_restore(shared, p),
        Op::Metrics(p) => op_metrics(shared, p),
    };
    let mut resp = match result {
        Ok(reply) => proto::ok_response(id, reply),
        Err((code, message)) => {
            shared.stats.note_error(code);
            spans.code = Some(code);
            proto::error_response(id, code, message)
        }
    };
    resp.trace = spans.trace;
    resp
}

/// The wire-level op name (for slow-request records).
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::CreateSession(_) => "create_session",
        Op::ApplyDelta(_) => "apply_delta",
        Op::Plan(_) => "plan",
        Op::Stats(_) => "stats",
        Op::Snapshot(_) => "snapshot",
        Op::Restore(_) => "restore",
        Op::Metrics(_) => "metrics",
    }
}

/// The session a request targets ("" for server-wide ops).
fn op_session(op: &Op) -> &str {
    match op {
        Op::CreateSession(p) => &p.name,
        Op::ApplyDelta(p) => &p.session,
        Op::Plan(p) => &p.session,
        Op::Stats(p) => &p.session,
        Op::Snapshot(p) => &p.session,
        Op::Restore(p) => &p.session,
        Op::Metrics(_) => "",
    }
}

/// Emits the leveled JSONL slow-request record when a dispatched request
/// crosses the configured threshold (level `error` at ≥ 10×), and bumps
/// the `serve_slow_requests` counter. Phase spans are reported in
/// microseconds — the resolution humans read tail latencies at.
fn maybe_slow(shared: &Shared, spans: &ReqSpans, total_ns: u64) {
    if shared.slow_ms == 0 {
        return;
    }
    let threshold_ns = shared.slow_ms.saturating_mul(1_000_000);
    if total_ns < threshold_ns {
        return;
    }
    shared.metrics.slow_requests.inc();
    let Some(events) = &shared.events else { return };
    let level =
        if total_ns >= threshold_ns.saturating_mul(10) { Level::Error } else { Level::Warn };
    let us = |ns: u64| ns / 1_000;
    let mut fields = vec![
        ("trace", json!(spans.trace)),
        ("op", json!(spans.op)),
        ("session", json!(spans.session.clone())),
        ("total_us", json!(us(total_ns))),
        ("decode_us", json!(us(spans.decode_ns))),
        ("lock_wait_us", json!(us(spans.lock_wait_ns))),
        ("compute_us", json!(us(spans.compute_ns))),
        ("wal_us", json!(us(spans.wal_ns))),
        ("write_us", json!(us(spans.write_ns))),
    ];
    if spans.coalesced {
        fields.push(("coalesced", json!(true)));
        fields.push(("coalesce_wait_us", json!(us(spans.coalesce_wait_ns))));
        fields.push(("leader_trace", json!(spans.leader_trace)));
    }
    if let Some(code) = spans.code {
        fields.push(("code", json!(code)));
    }
    events.emit(level, "slow_request", &fields);
}

type OpResult = Result<Reply, (&'static str, String)>;

fn sim_err(e: SimError) -> (&'static str, String) {
    (codes::SIM, e.to_string())
}

fn slot_of(shared: &Shared, name: &str) -> Result<Arc<SessionSlot>, (&'static str, String)> {
    if let Some(slot) = shared.sessions.lock_recover().get(name).cloned() {
        return Ok(slot);
    }
    // A session that exists on disk but failed recovery answers with a
    // structured degradation, not "unknown".
    if let Some(reason) = shared.dead.lock_recover().get(name) {
        return Err((codes::DEGRADED, format!("session {name:?} is unrecoverable: {reason}")));
    }
    Err((codes::UNKNOWN_SESSION, format!("no session named {name:?}")))
}

/// Refuses mutations against a read-only (degraded) session up front.
fn check_writable(slot: &SessionSlot) -> Result<(), (&'static str, String)> {
    let log = slot.log.lock_recover();
    if let Some(reason) = log.as_ref().and_then(|l| l.read_only()) {
        return Err((codes::READ_ONLY, format!("session is read-only: {reason}")));
    }
    Ok(())
}

/// Makes one acknowledged mutation durable: append + group-commit fsync,
/// then compaction when due. Called with the session lock held (lock
/// order: session before log). The mutation is already applied in
/// memory; on a write failure the session degrades to read-only and the
/// client gets a `degraded` error instead of an ack — so the set of
/// *acknowledged* mutations always matches the durable log.
fn durable_append(
    slot: &SessionSlot,
    session: &mut Session,
    name: &str,
    version: u64,
    body: WalBody,
) -> Result<(), (&'static str, String)> {
    let mut guard = slot.log.lock_recover();
    let Some(log) = guard.as_mut() else { return Ok(()) };
    if let Err(e) = log.append(&body) {
        // The mutation was applied in memory before the append. It is
        // being refused, so the read-only session must serve exactly the
        // acknowledged history: re-align from the durable files (reads
        // usually still work on a disk whose writes fail).
        let reason = match recovery::replay_durable(name, log.dir()) {
            Ok((rebuilt, lsn)) => {
                *session = rebuilt;
                slot.version.store(lsn, Ordering::SeqCst);
                format!("wal append failed: {e}")
            }
            // Unreadable too: keep serving, flag the divergence.
            Err(r) => {
                format!("wal append failed: {e}; state may include the refused mutation ({r})")
            }
        };
        log.mark_read_only(reason);
        return Err((
            codes::DEGRADED,
            format!(
                "durable log append failed ({e}); the mutation was rolled back and the session \
                 is now read-only"
            ),
        ));
    }
    if log.compaction_due() {
        // Compaction failure is safe to skip: the old snapshot + log
        // remain a complete recovery source.
        let snapshot = session.snapshot(version);
        let _ = log.maybe_compact(&snapshot);
    }
    Ok(())
}

fn op_create(shared: &Shared, p: CreateSession) -> OpResult {
    if p.name.is_empty() {
        return Err((codes::BAD_REQUEST, "session name must be non-empty".into()));
    }
    if shared.durable.is_some() && wal::session_dir_name(&p.name).is_none() {
        return Err((
            codes::BAD_REQUEST,
            format!(
                "session name {:?} is not filesystem-safe (durable daemons allow up to 128 \
                 ASCII alphanumerics, '-', '_', '.'; no leading dot)",
                p.name
            ),
        ));
    }
    let config = preset_config(&p.preset)
        .ok_or_else(|| (codes::UNKNOWN_PRESET, format!("no preset named {:?}", p.preset)))?;
    let mnl = if p.mnl == 0 { 10 } else { p.mnl };
    let mut session = Session::from_preset(&p.name, &config, p.seed, mnl).map_err(sim_err)?;
    let info = session.info(0);
    // The existence check is done under the map lock *before* any disk
    // write so two racing creates cannot both install artifacts.
    let mut sessions = shared.sessions.lock_recover();
    if sessions.contains_key(&p.name) || shared.dead.lock_recover().contains_key(&p.name) {
        return Err((codes::SESSION_EXISTS, format!("session {:?} already exists", p.name)));
    }
    let log = match &shared.durable {
        None => None,
        Some(cfg) => {
            let dir = cfg.sessions_dir().join(&p.name);
            let snapshot = session.snapshot(0);
            match SessionLog::install(dir, cfg, &snapshot, 0) {
                Ok(mut log) => {
                    log.set_metrics(shared.metrics.wal.clone());
                    Some(log)
                }
                Err(e) => {
                    return Err((
                        codes::DEGRADED,
                        format!("cannot create durable session artifacts: {e}"),
                    ))
                }
            }
        }
    };
    let slot = Arc::new(SessionSlot {
        session: Mutex::new(session),
        version: AtomicU64::new(0),
        cache: Mutex::new(PlanCacheState::Idle),
        cache_cv: Condvar::new(),
        log: Mutex::new(log),
    });
    sessions.insert(p.name, slot);
    Ok(Reply::Created(info))
}

fn op_delta(shared: &Shared, p: ApplyDelta, spans: &mut ReqSpans) -> OpResult {
    let slot = slot_of(shared, &p.session)?;
    check_writable(&slot)?;
    let lock = Timer::start();
    let mut session = slot.session.lock_recover();
    spans.lock_wait_ns = lock.observe(&shared.metrics.lock_wait);
    let outcome = session.apply_delta(&p.delta).map_err(sim_err)?;
    let version = slot.version.fetch_add(1, Ordering::SeqCst) + 1;
    let wal = Timer::start();
    durable_append(&slot, &mut session, &p.session, version, WalBody::Delta(p.delta))?;
    spans.wal_ns = wal.elapsed_ns().unwrap_or(0);
    shared.stats.deltas.fetch_add(1, Ordering::Relaxed);
    Ok(Reply::DeltaApplied(proto::DeltaApplied {
        info: session.info(version),
        created_vm: outcome.created.map(|v| v.0),
        renumbered_from: outcome.renumbered.map(|r| r.from.0),
        renumbered_to: outcome.renumbered.map(|r| r.to.0),
        migrations: outcome.migrations.len(),
    }))
}

fn op_plan(shared: &Shared, p: PlanParams, spans: &mut ReqSpans) -> OpResult {
    let slot = slot_of(shared, &p.session)?;
    let budget = if p.budget_ms == 0 { DEFAULT_BUDGET } else { Duration::from_millis(p.budget_ms) };
    let policy = shared
        .policies
        .resolve(&p.policy, budget)
        .ok_or_else(|| (codes::UNKNOWN_POLICY, format!("no policy named {:?}", p.policy)))?;
    let req = PlanRequest {
        mnl: p.mnl,
        seed: p.seed,
        budget,
        shards: p.shards,
        workers: p.workers,
        precision: p.precision,
    };

    // Committing plans mutate state: no coalescing, straight through.
    if p.commit {
        check_writable(&slot)?;
        let lock = Timer::start();
        let mut session = slot.session.lock_recover();
        spans.lock_wait_ns = lock.observe(&shared.metrics.lock_wait);
        let compute = Timer::start();
        let result = session.plan(policy.as_ref(), &req, true).map_err(sim_err)?;
        spans.compute_ns = compute.observe(&shared.metrics.plan_compute);
        let version = slot.version.fetch_add(1, Ordering::SeqCst) + 1;
        let wal = Timer::start();
        durable_append(
            &slot,
            &mut session,
            &p.session,
            version,
            WalBody::Commit(result.plan.clone()),
        )?;
        spans.wal_ns = wal.elapsed_ns().unwrap_or(0);
        shared.stats.plans_served.fetch_add(1, Ordering::Relaxed);
        shared.stats.plans_computed.fetch_add(1, Ordering::Relaxed);
        return Ok(planned_reply(&p, policy.name(), result, true, version));
    }

    // The version is only ever bumped while the session lock is held, so
    // the read here is a *tentative* key: after claiming the cache slot
    // and taking the session lock we re-read it, and restart if a delta
    // slipped in between — otherwise a plan computed against the newer
    // state would be memoized and served under the stale version.
    loop {
        let version = slot.version.load(Ordering::SeqCst);
        let key = PlanKey {
            policy: p.policy.clone(),
            mnl: p.mnl,
            seed: p.seed,
            budget_ms: p.budget_ms,
            shards: p.shards,
            precision: p.precision,
            version,
        };

        // Coalesce: adopt a memoized result or claim the slot.
        let mut cache = slot.cache.lock_recover();
        let mut waited: Option<Timer> = None;
        loop {
            match &*cache {
                PlanCacheState::Ready(k, result, leader) if *k == key => {
                    let (result, leader) = (result.clone(), *leader);
                    drop(cache);
                    if let Some(w) = waited.take() {
                        spans.coalesce_wait_ns = w.observe(&shared.metrics.plan_wait);
                    }
                    // This reply shares the leader's computation: record
                    // its trace so a slow follower's record points at
                    // the span that actually did the work.
                    spans.coalesced = true;
                    spans.leader_trace = leader;
                    shared.metrics.coalesced.inc();
                    shared.stats.plans_served.fetch_add(1, Ordering::Relaxed);
                    return Ok(planned_reply(&p, policy.name(), result, false, version));
                }
                PlanCacheState::InFlight { trace } => {
                    // Someone is computing (this key or another): wait,
                    // then re-evaluate the cache. Note whose computation
                    // this request is parked behind — if it ends up slow,
                    // the record should name the blocking trace.
                    spans.leader_trace = *trace;
                    if waited.is_none() {
                        waited = Some(Timer::start());
                    }
                    cache = crate::sync::cv_wait(&slot.cache_cv, cache);
                }
                PlanCacheState::Idle | PlanCacheState::Ready(..) => {
                    *cache = PlanCacheState::InFlight { trace: spans.trace };
                    spans.leader_trace = 0; // became the leader after all
                    break;
                }
            }
        }
        drop(cache);
        if let Some(w) = waited.take() {
            // Waited out someone else's computation, then became the
            // leader for this key: the wait still counts.
            spans.coalesce_wait_ns = w.observe(&shared.metrics.plan_wait);
        }

        let lock = Timer::start();
        let mut session = slot.session.lock_recover();
        spans.lock_wait_ns = lock.observe(&shared.metrics.lock_wait);
        if slot.version.load(Ordering::SeqCst) != version {
            // A delta won the race between keying and locking: release
            // the claim and restart against the fresh version.
            drop(session);
            *slot.cache.lock_recover() = PlanCacheState::Idle;
            slot.cache_cv.notify_all();
            continue;
        }
        let compute = Timer::start();
        let computed = session.plan(policy.as_ref(), &req, false);
        drop(session);
        spans.compute_ns = compute.observe(&shared.metrics.plan_compute);

        let mut cache = slot.cache.lock_recover();
        let reply = match computed {
            Ok(result) => {
                *cache = PlanCacheState::Ready(key, result.clone(), spans.trace);
                shared.stats.plans_served.fetch_add(1, Ordering::Relaxed);
                shared.stats.plans_computed.fetch_add(1, Ordering::Relaxed);
                Ok(planned_reply(&p, policy.name(), result, true, version))
            }
            Err(e) => {
                *cache = PlanCacheState::Idle;
                Err(sim_err(e))
            }
        };
        drop(cache);
        slot.cache_cv.notify_all();
        return reply;
    }
}

fn planned_reply(
    p: &PlanParams,
    policy: &str,
    result: PlanResult,
    computed: bool,
    version: u64,
) -> Reply {
    Reply::Planned(Planned {
        session: p.session.clone(),
        policy: policy.to_string(),
        objective_before: result.objective_before,
        objective_after: result.objective_after,
        plan: result.plan,
        computed,
        version,
    })
}

fn op_stats(shared: &Shared, p: StatsParams) -> OpResult {
    let (session, durability) = if p.session.is_empty() {
        (None, None)
    } else {
        let slot = slot_of(shared, &p.session)?;
        let session = slot.session.lock_recover();
        let info = session.info(slot.version.load(Ordering::SeqCst));
        let durability = slot.log.lock_recover().as_ref().map(|l| l.stats());
        drop(session);
        (Some(info), durability)
    };
    let s = &shared.stats;
    // The per-session table behind `vmr top` must never block behind a
    // long-running plan: `try_lock` reports a held session as `busy`
    // with `info: None` instead of waiting.
    let sessions_detail = {
        let sessions = shared.sessions.lock_recover();
        let mut detail: Vec<SessionDetail> = sessions
            .iter()
            .map(|(name, slot)| {
                let version = slot.version.load(Ordering::SeqCst);
                let (busy, info) = match slot.session.try_lock() {
                    Ok(session) => (false, Some(session.info(version))),
                    Err(_) => (true, None),
                };
                let (read_only, durability) = match slot.log.lock_recover().as_ref() {
                    Some(l) => (l.read_only().is_some(), Some(l.stats())),
                    None => (false, None),
                };
                SessionDetail { session: name.clone(), version, busy, info, read_only, durability }
            })
            .collect();
        detail.sort_by(|a, b| a.session.cmp(&b.session));
        detail
    };
    let read_only_sessions = sessions_detail.iter().filter(|d| d.read_only).count();
    Ok(Reply::Stats(StatsReply {
        sessions: sessions_detail.len(),
        requests: s.requests.load(Ordering::Relaxed),
        plans_served: s.plans_served.load(Ordering::Relaxed),
        plans_computed: s.plans_computed.load(Ordering::Relaxed),
        deltas: s.deltas.load(Ordering::Relaxed),
        errors: s.errors.load(Ordering::Relaxed),
        errors_by_code: s.breakdown(),
        uptime_ms: shared.started.elapsed().as_millis() as u64,
        queue_depth: shared.metrics.queue_depth.get().max(0) as u64,
        recoveries: shared.recoveries,
        degraded_sessions: shared.dead.lock_recover().len() + read_only_sessions,
        sessions_detail,
        session,
        durability,
    }))
}

/// The `metrics` op: the daemon registry merged with the process-wide
/// library registry, plus the [`ServerStats`] counters synthesized in so
/// one export carries the full picture. `prometheus: true` additionally
/// renders the text exposition.
fn op_metrics(shared: &Shared, p: MetricsParams) -> OpResult {
    let mut snapshot = shared.metrics.registry.snapshot();
    snapshot.merge(vmr_telemetry::global().snapshot());
    let s = &shared.stats;
    let mut extra = vmr_telemetry::MetricsSnapshot::default();
    extra.push_counter("serve_requests", s.requests.load(Ordering::Relaxed));
    extra.push_counter("serve_plans_served", s.plans_served.load(Ordering::Relaxed));
    extra.push_counter("serve_plans_computed", s.plans_computed.load(Ordering::Relaxed));
    extra.push_counter("serve_deltas", s.deltas.load(Ordering::Relaxed));
    extra.push_counter("serve_errors", s.errors.load(Ordering::Relaxed));
    extra.push_counter("serve_recoveries", shared.recoveries);
    extra.push_gauge("serve_sessions", shared.sessions.lock_recover().len() as i64);
    extra.push_gauge("serve_uptime_ms", shared.started.elapsed().as_millis() as i64);
    // Intra-plan parallelism (process-wide, like the library registry):
    // "this plan ran on one lane because two plans were in flight" reads
    // as `denied` rising while `parallel_calls` stands still.
    let par = vmr_nn::par::global().stats();
    extra.push_counter("nn_par_parallel_calls", par.parallel_calls);
    extra.push_counter("nn_par_lanes_granted", par.lanes_granted);
    extra.push_counter("nn_par_denied", par.denied);
    extra.push_counter("nn_par_under_cutover", par.under_cutover);
    extra.push_gauge("nn_par_cores", vmr_nn::par::global().cores() as i64);
    extra.push_gauge("nn_par_busy", vmr_nn::par::global().busy() as i64);
    // What the kernels were compiled for and what this host's CPU
    // offers (1-4 = x86-64 level, 0 = portable): a daemon a third slower
    // than its neighbours reads `nn_simd_tier` = 1, a baseline build.
    extra.push_gauge("nn_simd_tier", vmr_nn::tier::compiled().level());
    extra.push_gauge("nn_simd_tier_cpu", vmr_nn::tier::cpu().level());
    // Row classes: `distinct / total` is the share of the dense VM
    // stages that still runs — the reuse rate behind a plan's latency.
    let rows = vmr_nn::classes::stats();
    extra.push_counter("nn_rows_total", rows.rows_total);
    extra.push_counter("nn_rows_distinct", rows.rows_distinct);
    snapshot.merge(extra);
    let prometheus = p.prometheus.then(|| snapshot.to_prometheus());
    Ok(Reply::Metrics(MetricsReply { snapshot, prometheus }))
}

fn op_snapshot(shared: &Shared, p: SessionRef) -> OpResult {
    let slot = slot_of(shared, &p.session)?;
    let mut session = slot.session.lock_recover();
    let snapshot = session.snapshot(slot.version.load(Ordering::SeqCst));
    Ok(Reply::Snapshot(SnapshotReply { snapshot }))
}

fn op_restore(shared: &Shared, p: Restore) -> OpResult {
    let slot = slot_of(shared, &p.session)?;
    check_writable(&slot)?;
    let mut session = slot.session.lock_recover();
    // The snapshot is untrusted input: it goes through the same
    // validation as the live delta path, and a rejection is the client's
    // fault (`bad_request`), not a simulator failure.
    session
        .restore(p.snapshot)
        .map_err(|e| (codes::BAD_REQUEST, format!("snapshot rejected: {e}")))?;
    let version = slot.version.fetch_add(1, Ordering::SeqCst) + 1;
    // Durable daemons re-anchor: the installed snapshot becomes the new
    // history (snapshot file at the bumped LSN + fresh empty log).
    {
        let mut guard = slot.log.lock_recover();
        if let Some(log) = guard.as_mut() {
            let snapshot = session.snapshot(version);
            if let Err(e) = log.reanchor(&snapshot, version) {
                log.mark_read_only(format!("restore re-anchor failed: {e}"));
                return Err((
                    codes::DEGRADED,
                    format!("restored in memory but not durably ({e}); session is now read-only"),
                ));
            }
        }
    }
    Ok(Reply::Restored(session.info(version)))
}
