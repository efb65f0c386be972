//! The versioned wire protocol: JSON lines over a loopback TCP stream.
//!
//! Framing is one JSON document per `\n`-terminated line in each
//! direction. Every request carries the protocol version and a caller
//! request id that the response echoes, so a client can pipeline. The
//! server never trusts the peer: malformed JSON gets a structured
//! [`WireError`] (code [`codes::BAD_REQUEST`]) and the connection keeps
//! serving; a line exceeding [`MAX_LINE_BYTES`] gets
//! [`codes::OVERSIZED`] and the connection is closed (the stream can no
//! longer be resynchronized).

use std::io::{self, BufRead, Read, Write};

use serde::{Deserialize, Serialize};

use vmr_core::config::PrecisionConfig;
use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::env::ClusterDelta;

/// Protocol version spoken by this build. Requests with a different `v`
/// are rejected with [`codes::UNSUPPORTED_VERSION`].
///
/// v2 (PR 5): [`PlanParams`] grew required `shards`/`workers` fields for
/// the fleet policy — a v1 plan request no longer parses, so the version
/// was bumped rather than silently changing the v1 shape.
///
/// v3 (PR 6): [`PlanParams`] grew a required `precision` field selecting
/// the inference numerics (`"f64"` exact / `"f32"` SIMD fast path). The
/// field is typed and has no serde default by design: a v2 request would
/// otherwise silently plan at a precision the caller never chose.
///
/// v4 (PR 7): [`StatsReply`] grew required durability fields
/// (`recoveries`, `degraded_sessions`, `durability`) for the
/// write-ahead-log layer, and invalid `restore` snapshots now answer
/// [`codes::BAD_REQUEST`] instead of [`codes::SIM`] — a v3 client would
/// misparse the stats reply, so the version was bumped.
///
/// v5 (PR 8): the telemetry layer. A new [`Op::Metrics`] op exports the
/// metrics registry (JSON + Prometheus text), [`Response`] grew a
/// required `trace` field (the per-request trace id correlating replies
/// with slow-request JSONL records), and [`StatsReply`] grew required
/// observability fields (`errors_by_code`, `uptime_ms`, `queue_depth`,
/// `sessions_detail`) — a v4 client would misparse both envelopes, so
/// the version was bumped.
pub const PROTO_VERSION: u32 = 5;

/// Hard cap on one framed line (requests *and* responses). Snapshots of
/// paper-scale clusters are ~1 MiB of JSON; 32 MiB leaves headroom while
/// bounding what a hostile peer can make the daemon buffer.
pub const MAX_LINE_BYTES: usize = 32 * 1024 * 1024;

/// Structured error codes (the `code` field of [`WireError`]).
pub mod codes {
    /// The line was not a valid request document.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The request's `v` is not [`super::PROTO_VERSION`].
    pub const UNSUPPORTED_VERSION: &str = "unsupported_version";
    /// The line exceeded [`super::MAX_LINE_BYTES`]; the connection closes.
    pub const OVERSIZED: &str = "oversized";
    /// `create_session` with a name that is already live.
    pub const SESSION_EXISTS: &str = "session_exists";
    /// The named session does not exist.
    pub const UNKNOWN_SESSION: &str = "unknown_session";
    /// The named policy is not registered (or needs a missing checkpoint).
    pub const UNKNOWN_POLICY: &str = "unknown_policy";
    /// The named dataset preset does not exist.
    pub const UNKNOWN_PRESET: &str = "unknown_preset";
    /// A simulator-level rejection (typed `SimError` rendered in
    /// `message`); the session state is unchanged.
    pub const SIM: &str = "sim";
    /// The session (or an operation against it) is degraded: its durable
    /// log could not be written or its state could not be recovered. The
    /// daemon keeps serving other sessions.
    pub const DEGRADED: &str = "degraded";
    /// The session serves reads but refuses mutations: a durability
    /// failure (failed append/fsync, corrupt recovered log) froze its
    /// write path.
    pub const READ_ONLY: &str = "read_only";
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version ([`PROTO_VERSION`]).
    pub v: u32,
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
}

/// The operations a daemon serves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Register a new live cluster under a name.
    CreateSession(CreateSession),
    /// Mutate a session's cluster with a typed delta.
    ApplyDelta(ApplyDelta),
    /// Request a rescheduling plan.
    Plan(PlanParams),
    /// Server and (optionally) per-session counters.
    Stats(StatsParams),
    /// Capture a session's full state for offline storage.
    Snapshot(SessionRef),
    /// Replace a session's state from a snapshot.
    Restore(Restore),
    /// Export the daemon's metrics registry (counters, gauges, latency
    /// histograms with p50/p99/p999 per request phase).
    Metrics(MetricsParams),
}

/// Parameters of [`Op::CreateSession`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CreateSession {
    /// Session name (the key every later request uses).
    pub name: String,
    /// Synthetic dataset preset to seed the cluster from
    /// (`tiny|small|medium|large|multi|low|mid|high`).
    pub preset: String,
    /// Generation seed.
    pub seed: u64,
    /// Default migration number limit for plan requests.
    pub mnl: usize,
}

/// Parameters of [`Op::ApplyDelta`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplyDelta {
    /// Target session.
    pub session: String,
    /// The mutation.
    pub delta: ClusterDelta,
}

/// Parameters of [`Op::Plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanParams {
    /// Target session.
    pub session: String,
    /// Policy name (`agent|ha|swap|mcts|solver|fleet|auto`).
    pub policy: String,
    /// Migration number limit for this plan (0 = the session default).
    /// Always a *global* budget: the `fleet` policy apportions it across
    /// shards and never serves a longer plan.
    pub mnl: usize,
    /// Sampling seed (stochastic policies are deterministic given it).
    pub seed: u64,
    /// Latency budget in milliseconds; bounds anytime policies (MCTS,
    /// solver) and steers `auto` policy selection. 0 = policy default.
    pub budget_ms: u64,
    /// Shard count for the `fleet` policy (0 = sized from the cluster).
    /// Ignored by non-partitioned policies.
    pub shards: usize,
    /// Worker threads for the `fleet` policy (0 = all cores). Changes
    /// wall-clock only — the served plan is byte-identical for any value.
    pub workers: usize,
    /// Inference numerics for the `agent`/`fleet` policies: `Exact64`
    /// plans bit-identically to training, `Fast32` runs the SIMD f32
    /// fast path (tolerance-equivalent decisions). Heuristic policies
    /// ignore it.
    pub precision: PrecisionConfig,
    /// Deploy the plan into the session's live state on success.
    pub commit: bool,
}

/// Parameters of [`Op::Metrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsParams {
    /// Also render the snapshot as Prometheus text exposition (the JSON
    /// snapshot is always included).
    pub prometheus: bool,
}

/// Payload of [`Reply::Metrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReply {
    /// The structured export: daemon-scoped request/WAL metrics merged
    /// with the process-wide hot-path metrics (simulator repair,
    /// per-precision decision steps, fleet shards).
    pub snapshot: vmr_telemetry::MetricsSnapshot,
    /// Prometheus text exposition of the same snapshot (when requested).
    pub prometheus: Option<String>,
}

/// Parameters of [`Op::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsParams {
    /// Session to include detail for; empty = server-wide counters only.
    pub session: String,
}

/// A bare session reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRef {
    /// Target session.
    pub session: String,
}

/// Parameters of [`Op::Restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Restore {
    /// Target session (must exist).
    pub session: String,
    /// The snapshot to install.
    pub snapshot: SessionSnapshot,
}

/// A session's full transferable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The committed cluster mapping.
    pub state: ClusterState,
    /// Hard service constraints.
    pub constraints: ConstraintSet,
    /// Default migration number limit.
    pub mnl: usize,
    /// Session version at capture time.
    pub version: u64,
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version.
    pub v: u32,
    /// Echo of the request id (0 when the request was unparseable).
    pub id: u64,
    /// Per-request trace id (daemon-assigned, never 0 for dispatched
    /// requests): quote it to correlate this reply with the daemon's
    /// slow-request JSONL records and coalesced-follower spans. 0 when
    /// the request never reached dispatch (unparseable / oversized).
    pub trace: u64,
    /// Outcome.
    pub body: ReplyBody,
}

/// Success-or-error envelope.
// A ReplyBody is built, serialized onto the wire, and dropped — never
// stored in collections — so the size asymmetry between Ok and Err
// costs one stack frame, and boxing would add an allocation per reply.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplyBody {
    /// The operation succeeded.
    Ok(Reply),
    /// The operation failed; the session (if any) is unchanged.
    Err(WireError),
}

/// A structured failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Stable machine-readable code (see [`codes`]).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

/// Success payloads, one per [`Op`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Session registered.
    Created(SessionInfo),
    /// Delta applied.
    DeltaApplied(DeltaApplied),
    /// Plan computed (or served from the coalescing cache).
    Planned(Planned),
    /// Counters.
    Stats(StatsReply),
    /// Captured state.
    Snapshot(SnapshotReply),
    /// Snapshot installed.
    Restored(SessionInfo),
    /// Metrics export.
    Metrics(MetricsReply),
}

/// Shared session summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionInfo {
    /// Session name.
    pub session: String,
    /// PM count.
    pub pms: usize,
    /// VM count.
    pub vms: usize,
    /// Monotone state version (bumped by every delta / commit / restore).
    pub version: u64,
    /// Current objective value (fragment rate).
    pub objective: f64,
}

/// Payload of [`Reply::DeltaApplied`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaApplied {
    /// Post-delta session summary.
    pub info: SessionInfo,
    /// Id of a created VM.
    pub created_vm: Option<u32>,
    /// Old id of a VM renumbered by a delete.
    pub renumbered_from: Option<u32>,
    /// Its new id.
    pub renumbered_to: Option<u32>,
    /// Migrations performed by a drain.
    pub migrations: usize,
}

/// One migration of a served plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireAction {
    /// VM to migrate.
    pub vm: u32,
    /// Its host at plan time.
    pub from_pm: u32,
    /// Destination PM.
    pub to_pm: u32,
}

/// Payload of [`Reply::Planned`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Planned {
    /// Session name.
    pub session: String,
    /// Policy that produced the plan (post-`auto` resolution).
    pub policy: String,
    /// Objective before the plan.
    pub objective_before: f64,
    /// Objective after the plan (validated by replay).
    pub objective_after: f64,
    /// The migrations, in execution order.
    pub plan: Vec<WireAction>,
    /// `false` when this response was answered from the session's
    /// coalescing cache (same state version, same parameters) instead of
    /// a fresh policy invocation.
    pub computed: bool,
    /// Session version the plan was computed against.
    pub version: u64,
}

/// Payload of [`Reply::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Live sessions.
    pub sessions: usize,
    /// Requests parsed (any op).
    pub requests: u64,
    /// Plan responses returned.
    pub plans_served: u64,
    /// Plan responses that ran a policy (≤ `plans_served`; the difference
    /// was answered by a coalesced computation or the session's memo).
    pub plans_computed: u64,
    /// Deltas applied.
    pub deltas: u64,
    /// Error responses returned.
    pub errors: u64,
    /// `errors`, broken out by [`WireError`] code (sums to `errors`).
    pub errors_by_code: ErrorBreakdown,
    /// Milliseconds since the daemon started serving.
    pub uptime_ms: u64,
    /// Connections waiting in the worker queue right now (admitted but
    /// not being served — the backpressure gauge).
    pub queue_depth: u64,
    /// Sessions recovered from the data dir at boot (0 when the daemon
    /// runs without `--data-dir`).
    pub recoveries: u64,
    /// Sessions registered on disk but unrecoverable (every request
    /// against them answers [`codes::DEGRADED`]).
    pub degraded_sessions: usize,
    /// One row per live session (lock-free best effort: a session busy
    /// computing reports `busy` with its detail omitted rather than
    /// blocking the stats op behind a minutes-long plan).
    pub sessions_detail: Vec<SessionDetail>,
    /// Per-session detail when requested.
    pub session: Option<SessionInfo>,
    /// Durability gauges of the requested session (`None` when the
    /// daemon is not durable or no session was named).
    pub durability: Option<DurabilityStats>,
}

/// Error responses by [`WireError`] code (see [`StatsReply::errors_by_code`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorBreakdown {
    /// [`codes::BAD_REQUEST`] responses.
    pub bad_request: u64,
    /// [`codes::UNSUPPORTED_VERSION`] responses.
    pub unsupported_version: u64,
    /// [`codes::OVERSIZED`] responses.
    pub oversized: u64,
    /// [`codes::SESSION_EXISTS`] responses.
    pub session_exists: u64,
    /// [`codes::UNKNOWN_SESSION`] responses.
    pub unknown_session: u64,
    /// [`codes::UNKNOWN_POLICY`] responses.
    pub unknown_policy: u64,
    /// [`codes::UNKNOWN_PRESET`] responses.
    pub unknown_preset: u64,
    /// [`codes::SIM`] responses.
    pub sim: u64,
    /// [`codes::DEGRADED`] responses.
    pub degraded: u64,
    /// [`codes::READ_ONLY`] responses.
    pub read_only: u64,
    /// Responses with a code this build does not know (future-proofing;
    /// always 0 today).
    pub other: u64,
}

/// One session row of [`StatsReply::sessions_detail`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionDetail {
    /// Session name.
    pub session: String,
    /// Monotone state version.
    pub version: u64,
    /// Whether the session lock was held (a plan in flight) when stats
    /// were sampled; `info` is `None` in that case.
    pub busy: bool,
    /// Entity counts and objective (omitted while `busy`).
    pub info: Option<SessionInfo>,
    /// Whether the session refuses mutations (durability degradation).
    pub read_only: bool,
    /// Durability gauges (`None` on a non-durable daemon).
    pub durability: Option<DurabilityStats>,
}

/// Durability gauges of one session (see [`StatsReply::durability`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityStats {
    /// LSN of the last record appended to the write-ahead log.
    pub appended_lsn: u64,
    /// LSN of the last record known fsynced (≤ `appended_lsn`; equal
    /// under the default every-record group-commit policy).
    pub durable_lsn: u64,
    /// LSN the current snapshot file covers (compaction floor).
    pub snapshot_lsn: u64,
    /// Bytes in the live log segment (since the last compaction).
    pub log_bytes: u64,
    /// Whether the session refuses mutations.
    pub read_only: bool,
    /// Why it refuses them (empty when healthy).
    pub reason: String,
}

/// Payload of [`Reply::Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotReply {
    /// The captured state.
    pub snapshot: SessionSnapshot,
}

/// Outcome of reading one frame.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `buf` holds one complete line (without the terminator).
    Line,
    /// The peer closed the stream cleanly.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`]; the stream cannot be
    /// resynchronized and must be closed after an error response.
    Oversized,
}

/// Reads one `\n`-framed line into `buf`, enforcing [`MAX_LINE_BYTES`].
///
/// The caller clears `buf` between frames. Bytes are *appended*: if the
/// underlying stream has a read timeout and this returns an
/// `Err(WouldBlock | TimedOut)`, everything read so far stays in `buf`
/// and a retry resumes accumulating the same frame — which is how the
/// server keeps idle connections from pinning a worker forever.
pub fn read_frame(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<ReadOutcome> {
    let had = buf.len();
    let remaining = (MAX_LINE_BYTES + 1).saturating_sub(had);
    if remaining == 0 {
        return Ok(ReadOutcome::Oversized);
    }
    let mut limited = reader.by_ref().take(remaining as u64);
    let n = limited.read_until(b'\n', buf)?;
    if n == 0 && had == 0 {
        return Ok(ReadOutcome::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        if buf.len() > MAX_LINE_BYTES {
            return Ok(ReadOutcome::Oversized);
        }
        return Ok(ReadOutcome::Line);
    }
    // No terminator: either EOF mid-line (treat as a final line) or the
    // cap was hit with more bytes pending.
    if buf.len() > MAX_LINE_BYTES {
        return Ok(ReadOutcome::Oversized);
    }
    Ok(ReadOutcome::Line)
}

/// Writes one value as a `\n`-framed JSON line and flushes.
pub fn write_frame<T: Serialize>(writer: &mut impl Write, value: &T) -> io::Result<()> {
    let mut line = serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Convenience constructor for an error response (trace 0 — dispatch
/// stamps the request's trace id before writing).
pub fn error_response(id: u64, code: &str, message: impl Into<String>) -> Response {
    Response {
        v: PROTO_VERSION,
        id,
        trace: 0,
        body: ReplyBody::Err(WireError { code: code.to_string(), message: message.into() }),
    }
}

/// Convenience constructor for a success response (trace 0 — dispatch
/// stamps the request's trace id before writing).
pub fn ok_response(id: u64, reply: Reply) -> Response {
    Response { v: PROTO_VERSION, id, trace: 0, body: ReplyBody::Ok(reply) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            v: PROTO_VERSION,
            id: 7,
            op: Op::Plan(PlanParams {
                session: "prod".into(),
                policy: "agent".into(),
                mnl: 10,
                seed: 3,
                budget_ms: 50,
                shards: 0,
                workers: 0,
                precision: PrecisionConfig::Fast32,
                commit: false,
            }),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn delta_ops_roundtrip() {
        use vmr_sim::env::ClusterDelta;
        use vmr_sim::types::{NumaPolicy, PmId, VmId};
        for delta in [
            ClusterDelta::VmCreate { cpu: 4, mem: 8, numa: NumaPolicy::Single },
            ClusterDelta::VmDelete { vm: VmId(3) },
            ClusterDelta::VmResize { vm: VmId(1), cpu: 8, mem: 16 },
            ClusterDelta::PmAdd { cpu_per_numa: 44, mem_per_numa: 128 },
            ClusterDelta::PmDrain { pm: PmId(2) },
        ] {
            let req = Request {
                v: PROTO_VERSION,
                id: 1,
                op: Op::ApplyDelta(ApplyDelta { session: "s".into(), delta }),
            };
            let back: Request =
                serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = ok_response(
            9,
            Reply::Planned(Planned {
                session: "s".into(),
                policy: "ha".into(),
                objective_before: 0.5,
                objective_after: 0.25,
                plan: vec![WireAction { vm: 1, from_pm: 0, to_pm: 2 }],
                computed: true,
                version: 4,
            }),
        );
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(resp, back);
        let err = error_response(0, codes::BAD_REQUEST, "nope");
        let back: Response = serde_json::from_str(&serde_json::to_string(&err).unwrap()).unwrap();
        assert_eq!(err, back);
    }

    #[test]
    fn metrics_op_and_reply_roundtrip() {
        let req = Request {
            v: PROTO_VERSION,
            id: 3,
            op: Op::Metrics(MetricsParams { prometheus: true }),
        };
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(req, back);

        let mut snapshot = vmr_telemetry::MetricsSnapshot::default();
        snapshot.push_counter("serve_requests", 9);
        snapshot.push_gauge("serve_queue_depth", 1);
        let resp = ok_response(
            3,
            Reply::Metrics(MetricsReply { prometheus: Some(snapshot.to_prometheus()), snapshot }),
        );
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn stats_reply_roundtrips_with_observability_fields() {
        let reply = Reply::Stats(StatsReply {
            sessions: 1,
            requests: 10,
            plans_served: 4,
            plans_computed: 2,
            deltas: 3,
            errors: 2,
            errors_by_code: ErrorBreakdown {
                bad_request: 1,
                unknown_session: 1,
                ..ErrorBreakdown::default()
            },
            uptime_ms: 1234,
            queue_depth: 2,
            recoveries: 0,
            degraded_sessions: 0,
            sessions_detail: vec![SessionDetail {
                session: "prod".into(),
                version: 7,
                busy: false,
                info: Some(SessionInfo {
                    session: "prod".into(),
                    pms: 40,
                    vms: 200,
                    version: 7,
                    objective: 0.25,
                }),
                read_only: false,
                durability: None,
            }],
            session: None,
            durability: None,
        });
        let mut resp = ok_response(1, reply);
        resp.trace = 99;
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn read_frame_handles_lines_eof_and_crlf() {
        let mut cur = Cursor::new(b"abc\r\ndef\nrest".to_vec());
        let mut buf = Vec::new();
        assert_eq!(read_frame(&mut cur, &mut buf).unwrap(), ReadOutcome::Line);
        assert_eq!(buf, b"abc");
        buf.clear();
        assert_eq!(read_frame(&mut cur, &mut buf).unwrap(), ReadOutcome::Line);
        assert_eq!(buf, b"def");
        // Unterminated final line is still delivered.
        buf.clear();
        assert_eq!(read_frame(&mut cur, &mut buf).unwrap(), ReadOutcome::Line);
        assert_eq!(buf, b"rest");
        buf.clear();
        assert_eq!(read_frame(&mut cur, &mut buf).unwrap(), ReadOutcome::Eof);
    }

    #[test]
    fn read_frame_caps_line_length() {
        let mut big = vec![b'x'; MAX_LINE_BYTES + 10];
        big.push(b'\n');
        let mut cur = Cursor::new(big);
        let mut buf = Vec::new();
        assert_eq!(read_frame(&mut cur, &mut buf).unwrap(), ReadOutcome::Oversized);
    }

    /// A reader that times out between chunks, like a socket with
    /// `SO_RCVTIMEO` receiving a frame in pieces.
    struct Chunked {
        chunks: Vec<Vec<u8>>,
        next: usize,
    }

    impl io::Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.next >= self.chunks.len() {
                return Ok(0);
            }
            if self.chunks[self.next].is_empty() {
                self.next += 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            let chunk = &mut self.chunks[self.next];
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.next += 1;
            }
            Ok(n)
        }
    }

    #[test]
    fn read_frame_resumes_after_timeouts() {
        let reader =
            Chunked { chunks: vec![b"par".to_vec(), Vec::new(), b"tial\n".to_vec()], next: 0 };
        let mut reader = io::BufReader::new(reader);
        let mut buf = Vec::new();
        let err = read_frame(&mut reader, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(buf, b"par", "partial bytes survive the timeout");
        // The retry resumes the same frame.
        assert_eq!(read_frame(&mut reader, &mut buf).unwrap(), ReadOutcome::Line);
        assert_eq!(buf, b"partial");
    }
}
