//! # vmr-serve — the online rescheduling service
//!
//! The offline stack (train → eval binaries) exercises the paper's agent
//! one episode at a time; this crate makes the whole repo *servable*: a
//! long-running daemon that holds live clusters in memory, ingests typed
//! state deltas, and answers rescheduling plan requests over a versioned
//! JSON-lines TCP protocol — the subsystem every later scale-out PR
//! (sharding, replication, multi-cluster) builds on.
//!
//! * [`session`] — named live clusters, each a [`vmr_sim::env::ReschedEnv`]
//!   whose PR 2 incremental observation engine stays warm across
//!   requests: deltas repair O(touched entities), plan rollouts rewind
//!   instead of resetting, and **no request pays an O(cluster)
//!   featurization rebuild**.
//! * [`proto`] — the wire protocol: `create_session`, `apply_delta`,
//!   `plan`, `stats`, `snapshot`, `restore`; malformed input yields
//!   structured errors, oversized frames are rejected with a bounded
//!   buffer.
//! * [`server`] — `std::net` listener + worker thread pool; identical
//!   concurrent `plan` requests against one session are **coalesced**
//!   into a single policy invocation and memoized until a delta bumps
//!   the state version.
//! * [`policies`] — one [`policies::PlanPolicy`] trait over the trained
//!   VMR2L checkpoint (via [`vmr_core::infer::SharedAgent`]), HA, swap
//!   local search, MCTS, and the branch-and-bound solver; `auto` picks by
//!   the request's latency budget.
//! * [`client`] — the blocking client library behind `vmr request`, the
//!   e2e suites, and the serving benches; bounded retry with full-jitter
//!   exponential backoff for idempotent requests.
//! * [`wal`] — per-session write-ahead log: length-prefixed,
//!   CRC32-checksummed records with monotone LSNs, group-commit fsync,
//!   snapshot compaction, and a fault-injection harness.
//! * [`recovery`] — boot-time crash recovery: snapshot + log-tail replay,
//!   bit-identical to a never-crashed twin; torn tails dropped whole,
//!   corruption degrades to read-only, dead sessions never take down the
//!   daemon.
//! * telemetry (via [`vmr_telemetry`]) — every request carries a trace id
//!   and per-phase span timings (decode, lock wait, plan compute/wait,
//!   WAL append/fsync, response write) recorded into lock-free
//!   histograms; the `metrics` wire op exports them as JSON or Prometheus
//!   text, slow requests emit leveled JSONL events, and `vmr top` renders
//!   the live picture.
//!
//! ## Quick loopback example
//!
//! ```
//! use vmr_serve::client::ServeClient;
//! use vmr_serve::proto::PlanParams;
//! use vmr_serve::server::{serve, ServerConfig};
//!
//! let handle = serve(ServerConfig::default()).unwrap();
//! let mut client = ServeClient::connect(handle.addr()).unwrap();
//! client.create_session("prod", "tiny", 42, 8).unwrap();
//! let planned = client
//!     .plan(PlanParams {
//!         session: "prod".into(),
//!         policy: "ha".into(),
//!         mnl: 4,
//!         seed: 0,
//!         budget_ms: 50, shards: 0, workers: 0,
//!         precision: vmr_core::config::PrecisionConfig::Exact64,
//!         commit: false,
//!     })
//!     .unwrap();
//! assert!(planned.objective_after <= planned.objective_before);
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod client;
pub mod policies;
pub mod proto;
pub mod recovery;
pub mod server;
pub mod session;
pub(crate) mod sync;
pub mod wal;

pub use client::{ClientError, RetryPolicy, ServeClient};
pub use policies::{PlanPolicy, PlanRequest, PolicyRegistry};
pub use proto::{Op, Reply, Request, Response, PROTO_VERSION};
pub use server::{serve, ServerConfig, ServerHandle};
pub use session::Session;
pub use wal::{DurabilityConfig, FaultControl, SessionLog};
