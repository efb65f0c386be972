//! # vmr-telemetry — runtime observability primitives
//!
//! The repo-wide metrics layer: every subsystem that wants to be watched
//! records into this crate, and the serve daemon exports it end to end
//! (the `metrics` wire op, the JSONL slow-request log, `vmr top`).
//!
//! * [`hist`] — allocation-free log-linear latency histograms with
//!   mergeable buckets and exact-rank p50/p99/p999 readout.
//! * [`registry`] — named counters/gauges/histograms behind `Arc`
//!   handles: registration locks, recording is lock-free; snapshots
//!   render as structured JSON and Prometheus text exposition.
//! * [`events`] — a leveled JSONL event log (slow-request records
//!   correlated by trace id).
//! * [`Timer`] / [`set_enabled`] — span timing gated by one process-wide
//!   flag: when telemetry is disabled a timer is `None` and recording is
//!   a no-op, so instrumented hot paths pay one relaxed atomic load.
//!   The *enabled* cost has a 3% budget, checked by paired runs of the
//!   served-plan benchmark (ROADMAP item 1a), not by a CI gate.
//!
//! Scoping: hot-path library metrics (simulator repair, per-precision
//! decision steps) live in the process-wide [`global`] registry;
//! the serve daemon keeps a per-server [`Registry`] so a restart resets
//! its request counters, and merges both into exports.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod events;
pub mod hist;
pub mod registry;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

pub use events::{EventLog, Level};
pub use hist::{HistSnapshot, Histogram, Unit};
pub use registry::{
    global, Counter, CounterSample, Gauge, GaugeSample, HistogramSample, MetricsSnapshot, Registry,
};

/// Process-wide telemetry switch (see [`set_enabled`]).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotone trace-id source; 0 is reserved for "no trace".
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Turns span timing on or off process-wide. Off (the default) compiles
/// instrumented paths down to one relaxed load and a branch — no clock
/// reads, no histogram writes. The serve daemon turns it on at boot
/// unless configured otherwise.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span timing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Allocates the next per-request trace id (process-monotone, never 0).
/// Trace ids correlate a wire reply, its slow-request JSONL record, and
/// any coalesced followers that shared the computation.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// A span timer: reads the clock only when telemetry is enabled.
///
/// ```
/// let hist = vmr_telemetry::global().histogram("doc_example", vmr_telemetry::Unit::Nanos);
/// vmr_telemetry::set_enabled(true);
/// let t = vmr_telemetry::Timer::start();
/// let ns = t.observe(&hist); // records the elapsed nanoseconds
/// assert!(ns > 0 && hist.count() >= 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Timer(Option<Instant>);

impl Timer {
    /// Starts a span; `None` inside when telemetry is disabled.
    pub fn start() -> Timer {
        Timer(if enabled() { Some(Instant::now()) } else { None })
    }

    /// A timer that never records (for unconditionally-constructed
    /// spans on paths that sometimes skip instrumentation).
    pub fn disabled() -> Timer {
        Timer(None)
    }

    /// Elapsed nanoseconds, or `None` when disabled.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0.map(|t0| t0.elapsed().as_nanos() as u64)
    }

    /// Records the elapsed nanoseconds into `hist` and returns them
    /// (0 when disabled — nothing is recorded).
    pub fn observe(&self, hist: &Histogram) -> u64 {
        match self.elapsed_ns() {
            Some(ns) => {
                hist.record(ns);
                ns
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test covers both flag states: the switch is process-global,
    /// so splitting this across `#[test]` fns would race under the
    /// parallel test runner.
    #[test]
    fn timer_is_gated_by_the_enabled_flag() {
        set_enabled(false);
        let h = Histogram::new(Unit::Nanos);
        let t = Timer::start();
        assert_eq!(t.elapsed_ns(), None);
        assert_eq!(t.observe(&h), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(Timer::disabled().observe(&h), 0);

        set_enabled(true);
        let t = Timer::start();
        std::hint::black_box(1 + 1);
        let ns = t.observe(&h);
        assert!(ns > 0);
        assert_eq!(h.count(), 1);
        set_enabled(false);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
