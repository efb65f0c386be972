//! The metrics registry: named counters, gauges, and histograms behind
//! `Arc` handles.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a mutex and is
//! meant for startup paths; hot paths hold the returned `Arc` and touch
//! only lock-free atomics. A registry snapshots into a serde-able
//! [`MetricsSnapshot`] that renders both ways the `metrics` wire op
//! exports: structured JSON and Prometheus text exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::hist::{Histogram, Unit};

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Replaces the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named collection of metrics. Cheap to share (`Arc` it); one per
/// scope whose counters should reset together (e.g. per daemon), plus
/// the process-wide [`global`] registry the library hot paths use.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get-or-register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Counter::new())))
    }

    /// Get-or-register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Gauge::new())))
    }

    /// Get-or-register the histogram `name`. The unit of the first
    /// registration wins.
    pub fn histogram(&self, name: &str, unit: Unit) -> Arc<Histogram> {
        let mut map = self.hists.lock().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new(unit))))
    }

    /// A point-in-time export of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, c)| CounterSample { name: name.clone(), value: c.get() })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, g)| GaugeSample { name: name.clone(), value: g.get() })
            .collect();
        let histograms = self
            .hists
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, h)| {
                let snap = h.snapshot();
                HistogramSample {
                    name: name.clone(),
                    unit: h.unit().as_str().to_string(),
                    count: snap.count,
                    sum: snap.sum,
                    max: snap.max,
                    p50: snap.quantile(0.5),
                    p90: snap.quantile(0.9),
                    p99: snap.quantile(0.99),
                    p999: snap.quantile(0.999),
                }
            })
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// The process-wide registry the library hot paths (simulator repair,
/// per-precision decision steps, fleet shards) record into.
/// Scoped subsystems (the serve daemon) keep their own [`Registry`] so
/// restarts reset their counters, and merge this one into exports.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// One exported counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One exported gauge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// One exported histogram, pre-reduced to the tail quantiles the SLO
/// gates care about (raw nanoseconds for `unit == "ns"`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Value unit (`"ns"` or `"count"`).
    pub unit: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// The full metrics export: what the `metrics` wire op returns as JSON
/// and what [`MetricsSnapshot::to_prometheus`] renders as text.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Appends another snapshot's metrics (e.g. the [`global`] registry
    /// into a daemon-scoped export) and restores name order.
    pub fn merge(&mut self, other: MetricsSnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Adds a synthesized counter (for values kept outside a registry).
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.counters.push(CounterSample { name: name.to_string(), value });
    }

    /// Adds a synthesized gauge.
    pub fn push_gauge(&mut self, name: &str, value: i64) {
        self.gauges.push(GaugeSample { name: name.to_string(), value });
    }

    /// Prometheus text exposition (format version 0.0.4). Counter and
    /// gauge names are prefixed `vmr_`; nanosecond histograms render as
    /// `_seconds` summaries with `quantile` labels, count histograms stay
    /// in their raw unit.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let name = prom_name(&c.name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
        }
        for g in &self.gauges {
            let name = prom_name(&g.name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.value));
        }
        for h in &self.histograms {
            let ns = h.unit == "ns";
            let name =
                if ns { format!("{}_seconds", prom_name(&h.name)) } else { prom_name(&h.name) };
            let scale = |v: u64| if ns { v as f64 / 1e9 } else { v as f64 };
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99), ("0.999", h.p999)] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {}\n", scale(v)));
            }
            out.push_str(&format!("{name}_sum {}\n", scale(h.sum)));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }

    /// Looks up a histogram sample by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }
}

/// Maps a metric name onto the Prometheus charset (`vmr_` prefix, every
/// non-alphanumeric byte folded to `_`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("vmr_");
    for ch in name.chars() {
        out.push(if ch.is_ascii_alphanumeric() || ch == '_' { ch } else { '_' });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("requests");
        let b = reg.counter("requests");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let h1 = reg.histogram("lat", Unit::Nanos);
        let h2 = reg.histogram("lat", Unit::Nanos);
        h1.record(5);
        assert_eq!(h2.count(), 1);
    }

    #[test]
    fn snapshot_sorts_and_reduces() {
        let reg = Registry::new();
        reg.counter("b").add(2);
        reg.counter("a").inc();
        reg.gauge("depth").set(-3);
        let h = reg.histogram("lat", Unit::Nanos);
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters[0].name, "a");
        assert_eq!(snap.counter("b"), Some(2));
        assert_eq!(snap.gauge("depth"), Some(-3));
        let lat = snap.histogram("lat").unwrap();
        assert_eq!(lat.count, 100);
        // Quantiles report the bucket upper bound: within one bucket
        // width (here 2) above the true sample quantile.
        assert!((50..=52).contains(&lat.p50), "p50 = {}", lat.p50);
        assert!(lat.p99 >= 99 && lat.p999 <= lat.max);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = Registry::new();
        reg.counter("x").inc();
        reg.gauge("g").set(7);
        reg.histogram("h", Unit::Count).record(3);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn merge_combines_and_resorts() {
        let a = Registry::new();
        a.counter("zz").inc();
        let b = Registry::new();
        b.counter("aa").add(4);
        let mut snap = a.snapshot();
        snap.merge(b.snapshot());
        assert_eq!(snap.counters[0].name, "aa");
        assert_eq!(snap.counters[1].name, "zz");
    }

    #[test]
    fn prometheus_rendering() {
        let reg = Registry::new();
        reg.counter("serve_requests").add(5);
        reg.gauge("queue_depth").set(2);
        let h = reg.histogram("plan_compute", Unit::Nanos);
        h.record(1_000_000_000);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE vmr_serve_requests counter"));
        assert!(text.contains("vmr_serve_requests 5"));
        assert!(text.contains("# TYPE vmr_queue_depth gauge"));
        assert!(text.contains("# TYPE vmr_plan_compute_seconds summary"));
        assert!(text.contains("vmr_plan_compute_seconds_count 1"));
        assert!(text.contains("quantile=\"0.999\""));
        // Nanoseconds were scaled to seconds.
        assert!(text.contains("vmr_plan_compute_seconds_sum 1\n"));
    }

    #[test]
    fn global_registry_is_shared() {
        let h = global().histogram("test_global_shared", Unit::Count);
        h.record(1);
        assert!(global().snapshot().histogram("test_global_shared").is_some());
    }
}
