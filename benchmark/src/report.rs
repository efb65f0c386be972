//! Turns what a run measured into named metrics, prints them with unit
//! and sample count, and ends with the one-line JSON result.
//!
//! The names here are the names in `BENCHMARK.json`; `tests/smoke.rs`
//! holds the two to each other.

use serde_json::{json, Map, Value};

use vmr_telemetry::HistogramSample;

use crate::drive::{RunOutcome, Sample};
use crate::layers::NnProbe;
use crate::reenact::Reenactment;
use crate::stats::{highest_supported, median_f64, median_of, percentile};
use crate::trace::Span;
use crate::workload::{DELTA_LADDER, PLAN_LADDER};

/// Everything measured at the client, in print order: `(name, unit,
/// better)`. Every run prints all of these by name.
pub const WIRE: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("req_per_s", "1/s", "higher"),
    ("plan_ms_p50", "ms", "lower"),
    ("plan_ms_tail", "ms", "lower"),
    ("delta_ms_p50", "ms", "lower"),
    ("delta_ms_tail", "ms", "lower"),
    ("recover_ms", "ms", "lower"),
    ("rss_peak_mb", "MiB", "lower"),
];

/// The gated end-to-end metrics: `(name, unit, better, default bound)`.
/// The bound is the share of the parent's median a metric may worsen by
/// before a change counts as a regression; `--calibrate` widens it where
/// this host's run-to-run spread demands.
///
/// The other [`WIRE`] metrics are printed and calibrated but carry no
/// bound: on this host the fsync-bound delta latencies, the tails and the
/// single-shot recovery spread wider between identical runs than the
/// widest bound a benchmark may state (see `calibration.json`), and a
/// gate that noise alone trips says nothing about a change.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("req_per_s", "1/s", "higher", 0.10),
    ("plan_ms_p50", "ms", "lower", 0.10),
    ("rss_peak_mb", "MiB", "lower", 0.10),
];

/// Per-layer metrics: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 57] = [
    ("client.plan_ms_tail", "ms", "lower"),
    ("client.delta_ms_p50", "ms", "lower"),
    ("client.delta_ms_tail", "ms", "lower"),
    ("serve.proto.decode_us", "us", "lower"),
    ("serve.proto.write_us", "us", "lower"),
    ("serve.proto.req_bytes", "B", "lower"),
    ("serve.proto.resp_bytes", "B", "lower"),
    ("serve.server.lock_wait_us", "us", "lower"),
    ("serve.server.lock_wait_us_p99", "us", "lower"),
    ("serve.server.plan_wait_us", "us", "lower"),
    ("serve.server.plan_compute_ms", "ms", "lower"),
    ("serve.server.request_us", "us", "lower"),
    ("serve.server.memo_hit_ratio", "ratio", "higher"),
    ("serve.server.memo_hit_us", "us", "lower"),
    ("serve.server.coalesced", "count", "higher"),
    ("serve.wal.append_us", "us", "lower"),
    ("serve.wal.fsync_us", "us", "lower"),
    ("serve.wal.record_bytes", "B", "lower"),
    ("serve.wal.records", "count", "lower"),
    ("serve.wal.compact_ms", "ms", "lower"),
    ("serve.wal.compactions", "count", "lower"),
    ("serve.recovery.recover_ms", "ms", "lower"),
    ("serve.recovery.records_replayed", "count", "lower"),
    ("serve.recovery.snapshot_bytes", "B", "lower"),
    ("serve.session.plan_ms", "ms", "lower"),
    ("serve.session.policy_ms", "ms", "lower"),
    ("serve.session.validate_us", "us", "lower"),
    ("serve.batch.rounds", "count", "lower"),
    ("serve.batch.occupancy_mean", "count", "higher"),
    ("sim.env.apply_delta_us", "us", "lower"),
    ("sim.obs_cache.repair_us", "us", "lower"),
    ("sim.obs_cache.repairs", "count", "lower"),
    ("sim.env.observe_us", "us", "lower"),
    ("sim.env.step_us", "us", "lower"),
    ("sim.constraints.vm_mask_us", "us", "lower"),
    ("sim.constraints.pm_mask_us", "us", "lower"),
    ("sim.shard.fleet_ms", "ms", "lower"),
    ("sim.shard.shard_ms", "ms", "lower"),
    ("sim.shard.shard_ms_max", "ms", "lower"),
    ("sim.shard.stitch_residual_ms", "ms", "lower"),
    ("baselines.ha.plan_ms", "ms", "lower"),
    ("core.features.prepare_us", "us", "lower"),
    ("core.model.embed_ms", "ms", "lower"),
    ("core.model.stage1_ms", "ms", "lower"),
    ("core.agent.act_core_ms", "ms", "lower"),
    ("core.agent.step_ms", "ms", "lower"),
    ("core.agent.steps", "count", "lower"),
    ("nn.attn_tree_ms", "ms", "lower"),
    ("nn.attn_pm_self_ms", "ms", "lower"),
    ("nn.attn_vm_self_ms", "ms", "lower"),
    ("nn.attn_cross_ms", "ms", "lower"),
    ("nn.ff_ms", "ms", "lower"),
    ("nn.stage1_residual_share", "ratio", "lower"),
    ("nn.gflop_per_step", "GFLOP", "lower"),
    ("nn.gflops_achieved", "GFLOP/s", "higher"),
    ("budget.residual_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// One reported metric.
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Sample count and how the value was taken.
    pub note: String,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The waits of `samples`, ascending.
fn latencies(samples: &[Sample]) -> Vec<u64> {
    let mut ns: Vec<u64> = samples.iter().map(|&(_, ns)| ns).collect();
    ns.sort_unstable();
    ns
}

/// The [`WIRE`] metrics of a run: of the whole timed phase, or of its
/// telemetry-on half when traced.
pub fn wire(out: &RunOutcome) -> Vec<Metric> {
    let s = &out.samples;
    let (plans, deltas) = (latencies(&s.plan_ns), latencies(&s.delta_ns));
    let p50 = |sorted: &[u64]| percentile(sorted, 50).unwrap_or(0);
    // The value at the highest rung up to `pct` that the samples support,
    // and that rung. The floors are sized to support `pct` itself; a run
    // cut short of them (its first client done early, a client dead and
    // already counted as failed) reads a lower rung and says so.
    let tail = |sorted: &[u64], ladder: &[u32], pct: u32| {
        let rungs = &ladder[..ladder.iter().position(|&p| p == pct).map_or(1, |i| i + 1)];
        let used = highest_supported(rungs, sorted.len());
        let note = if used == pct {
            format!("n={} p{pct} (highest the floor supports)", sorted.len())
        } else {
            format!("n={} p{used} (the floor supports p{pct}; this run does not)", sorted.len())
        };
        (ms(percentile(sorted, used).unwrap_or(0)), note)
    };
    let value = |name: &str| -> (f64, String) {
        match name {
            "setup_s" => (
                median_of(&out.setup_s),
                format!(
                    "median of {} set-ups: model init, daemon boot, create, warm-up (one before the timed phase, the rest after it)",
                    out.setup_s.len()
                ),
            ),
            "req_per_s" => (
                out.req_per_s,
                format!(
                    "{} requests in {} cycles; per-client rates over reply-wait time, summed",
                    s.all_ns.len(),
                    s.cycles
                ),
            ),
            "plan_ms_p50" => (ms(p50(&plans)), format!("n={} computed plans", plans.len())),
            "plan_ms_tail" => tail(&plans, &PLAN_LADDER, out.tail_pcts.0),
            "delta_ms_p50" => (ms(p50(&deltas)), format!("n={} acked after fsync", deltas.len())),
            "delta_ms_tail" => tail(&deltas, &DELTA_LADDER, out.tail_pcts.1),
            "recover_ms" => (
                median_of(&out.recover_ms),
                format!(
                    "median of {} recover_dir calls on copies of the data dir",
                    out.recover_ms.len()
                ),
            ),
            "rss_peak_mb" => (
                out.rss_peak_mb,
                "VmHWM at the end of the timed phase: one daemon and the generator's mirrors".into(),
            ),
            other => unreachable!("unlisted end-to-end metric {other}"),
        }
    };
    WIRE.iter()
        .map(|&(name, unit, _)| {
            let (value, note) = value(name);
            Metric { name, unit, value, note }
        })
        .collect()
}

/// The [`END_TO_END`] subset of the wire metrics.
pub fn gated(wire: Vec<Metric>) -> Vec<Metric> {
    wire.into_iter().filter(|m| END_TO_END.iter().any(|e| e.0 == m.name)).collect()
}

/// Median duration (ns) of the spans `keep` selects.
fn median_span_ns<'a>(spans: impl Iterator<Item = &'a Span>, keep: impl Fn(&Span) -> bool) -> f64 {
    let mut d: Vec<f64> = spans.filter(|s| keep(s)).map(|s| s.duration_ns() as f64).collect();
    median_f64(&mut d)
}

/// The per-layer metrics of a traced run, and the budget table.
pub fn per_layer(
    out: &RunOutcome,
    e2e: &[Metric],
    re: &Reenactment,
    nn: Option<&NnProbe>,
) -> (Vec<Metric>, String) {
    let daemon = out.daemon.as_ref().expect("traced runs keep the daemon's view");
    let snapshot = &daemon.metrics.snapshot;
    let hist = |name: &str| snapshot.histogram(name);
    let h50 = |name: &str| hist(name).map_or(0, |h| h.p50);
    let count = |name: &str| hist(name).map_or(0, |h| h.count) as f64;
    let mean = |h: Option<&HistogramSample>| {
        h.filter(|h| h.count > 0).map_or(0.0, |h| h.sum as f64 / h.count as f64)
    };
    let (before, after) = (&daemon.stats_before, &daemon.stats_after);
    let served = (after.plans_served - before.plans_served) as f64;
    let computed = (after.plans_computed - before.plans_computed) as f64;
    let median_u64 = |v: &[u64]| median_f64(&mut v.iter().map(|&x| x as f64).collect::<Vec<_>>());

    let spans = re.trace.spans();
    let named = |name: &'static str| median_span_ns(spans.iter(), |s| s.name == name);
    let in_budget = |s: &Span| re.plan_requests.binary_search(&s.request).is_ok();
    let session_plan_ns =
        median_span_ns(spans.iter(), |s| s.name == "serve.session.plan" && in_budget(s));
    // The policy is the one child of a `serve.session.plan` span.
    let policy_ns = median_span_ns(spans.iter(), |s| {
        in_budget(s) && s.parent.is_some_and(|p| spans[p].name == "serve.session.plan")
    });
    // Per agent plan: its steps' summed time and their number.
    let (mut step_sums, mut step_counts) = (Vec::new(), Vec::new());
    // Per fleet plan: what is left once shard time is spread over the workers.
    let mut stitch = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let kids = || spans.iter().filter(move |s| s.parent == Some(i));
        match span.name {
            "core.agent.plan" => {
                step_sums.push(kids().map(|s| s.duration_ns() as f64).sum::<f64>());
                step_counts.push(kids().count() as f64);
            }
            "sim.shard.fleet" => {
                let shards: f64 = kids().map(|s| s.duration_ns() as f64).sum();
                stitch.push(span.duration_ns() as f64 - shards / f64::from(re.workers));
            }
            _ => {}
        }
    }

    let e2e_value = |name: &str| e2e.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let plan_p50_ms = e2e_value("plan_ms_p50");
    let budget = re.trace.budget_ms(&re.plan_requests);
    let budget_sum: f64 = budget.iter().map(|(_, v)| v).sum();
    let residual = if plan_p50_ms > 0.0 { (plan_p50_ms - budget_sum) / plan_p50_ms } else { 0.0 };
    let stage1_ms = named("core.model.stage1") / 1e6;
    let blocks = vmr_core::config::ModelConfig::default().blocks as f64;
    let memo_ns = percentile(&latencies(&out.samples.memo_ns), 50).unwrap_or(0);

    let value = |name: &str| -> f64 {
        match name {
            "client.plan_ms_tail" => e2e_value("plan_ms_tail"),
            "client.delta_ms_p50" => e2e_value("delta_ms_p50"),
            "client.delta_ms_tail" => e2e_value("delta_ms_tail"),
            "serve.proto.decode_us" => us(h50("serve_frame_decode")),
            "serve.proto.write_us" => us(h50("serve_resp_write")),
            "serve.proto.req_bytes" => median_u64(&re.req_bytes),
            "serve.proto.resp_bytes" => median_u64(&re.resp_bytes),
            "serve.server.lock_wait_us" => us(h50("serve_lock_wait")),
            "serve.server.lock_wait_us_p99" => us(hist("serve_lock_wait").map_or(0, |h| h.p99)),
            "serve.server.plan_wait_us" => us(h50("serve_plan_wait")),
            "serve.server.plan_compute_ms" => ms(h50("serve_plan_compute")),
            "serve.server.request_us" => us(h50("serve_request")),
            "serve.server.memo_hit_ratio" if served > 0.0 => 1.0 - computed / served,
            "serve.server.memo_hit_ratio" => 0.0,
            "serve.server.memo_hit_us" => us(memo_ns),
            "serve.server.coalesced" => {
                snapshot.counter("serve_plans_coalesced").unwrap_or(0) as f64
            }
            "serve.wal.append_us" => us(h50("serve_wal_append")),
            "serve.wal.fsync_us" => us(h50("serve_wal_fsync")),
            "serve.wal.record_bytes" => median_u64(&re.record_bytes),
            "serve.wal.records" => count("serve_wal_append"),
            "serve.wal.compact_ms" => ms(h50("serve_wal_compact")),
            "serve.wal.compactions" => count("serve_wal_compact"),
            "serve.recovery.recover_ms" => median_of(&out.recover_ms),
            "serve.recovery.records_replayed" => out.records_replayed as f64,
            "serve.recovery.snapshot_bytes" => out.snapshot_bytes as f64,
            "serve.session.plan_ms" => session_plan_ns / 1e6,
            "serve.session.policy_ms" => policy_ns / 1e6,
            "serve.session.validate_us" => (session_plan_ns - policy_ns).max(0.0) / 1e3,
            "serve.batch.rounds" => count("serve_embed_batch_occupancy"),
            "serve.batch.occupancy_mean" => mean(hist("serve_embed_batch_occupancy")),
            "sim.env.apply_delta_us" => named("sim.env.apply_delta") / 1e3,
            "sim.obs_cache.repair_us" => us(h50("sim_obs_repair")),
            "sim.obs_cache.repairs" => count("sim_obs_repair"),
            "sim.env.observe_us" => named("sim.env.observe") / 1e3,
            "sim.env.step_us" => named("sim.env.step") / 1e3,
            "sim.constraints.vm_mask_us" => named("probe.vm_mask") / 1e3,
            "sim.constraints.pm_mask_us" => named("probe.pm_mask") / 1e3,
            "sim.shard.fleet_ms" => named("sim.shard.fleet") / 1e6,
            "sim.shard.shard_ms" => ms(h50("serve_fleet_shard")),
            "sim.shard.shard_ms_max" => ms(hist("serve_fleet_shard").map_or(0, |h| h.max)),
            "sim.shard.stitch_residual_ms" => median_f64(&mut stitch.clone()) / 1e6,
            "baselines.ha.plan_ms" => named("baselines.ha.plan") / 1e6,
            "core.features.prepare_us" => named("core.features.prepare") / 1e3,
            "core.model.embed_ms" => named("core.model.embed") / 1e6,
            "core.model.stage1_ms" => stage1_ms,
            "core.agent.act_core_ms" => named("core.agent.act_core") / 1e6,
            "core.agent.step_ms" => median_f64(&mut step_sums.clone()) / 1e6,
            "core.agent.steps" => median_f64(&mut step_counts.clone()),
            "nn.attn_tree_ms" => nn.map_or(0.0, |p| p.attn_tree_ms),
            "nn.attn_pm_self_ms" => nn.map_or(0.0, |p| p.attn_pm_self_ms),
            "nn.attn_vm_self_ms" => nn.map_or(0.0, |p| p.attn_vm_self_ms),
            "nn.attn_cross_ms" => nn.map_or(0.0, |p| p.attn_cross_ms),
            "nn.ff_ms" => nn.map_or(0.0, |p| p.ff_ms),
            "nn.stage1_residual_share" => match nn {
                Some(p) if stage1_ms > 0.0 => 1.0 - blocks * p.block_ms() / stage1_ms,
                _ => 0.0,
            },
            "nn.gflop_per_step" => nn.map_or(0.0, |p| p.gflop_per_step),
            "nn.gflops_achieved" => match nn {
                Some(p) if stage1_ms > 0.0 => p.gflop_per_step / (stage1_ms / 1e3),
                _ => 0.0,
            },
            "budget.residual_share" => residual,
            "trace.overhead_share" => match out.untraced_req_per_s {
                Some(off) if out.req_per_s > 0.0 => off / out.req_per_s - 1.0,
                _ => 0.0,
            },
            other => unreachable!("unlisted per-layer metric {other}"),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric { name, unit, value: value(name), note: String::new() })
        .collect();

    let mut table = format!(
        "budget of one computed plan request (n={}; wire plan_ms_p50 {plan_p50_ms:.3} ms; rows are median self times)\n",
        re.plan_requests.len()
    );
    for (name, row_ms) in &budget {
        let share = if plan_p50_ms > 0.0 { row_ms / plan_p50_ms } else { 0.0 };
        table.push_str(&format!("  {name:<32} {row_ms:>12.4} ms {:>7.2} %\n", share * 100.0));
    }
    table.push_str(&format!(
        "  {:<32} {:>12.4} ms {:>7.2} %   (sockets, worker hand-off, locks, batcher)\n",
        "budget.residual_share",
        plan_p50_ms - budget_sum,
        residual * 100.0
    ));
    (metrics, table)
}

/// Prints `metrics` by name with unit, sample count and provenance.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<34} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
}

/// The last line of standard output: one JSON object.
pub fn result_line(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let mut map = Map::new();
    for m in metrics {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        map.insert(m.name.to_string(), json!({ "value": value, "unit": m.unit }));
    }
    json!({
        "correct": failed == 0,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(map)
    })
    .to_string()
}
