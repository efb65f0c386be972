//! End-to-end observability suite: the `metrics` wire op must export
//! phase-split latency histograms, error breakdowns, coalescing
//! counters, the inference row-class counters and the per-decision
//! histograms; slow requests must emit trace-correlated JSONL records;
//! and a daemon with telemetry disabled must serve empty span histograms
//! while its request counters keep working.
//!
//! The telemetry enable flag is process-wide, so every test here
//! serializes on [`FLAG_LOCK`] — two daemons booting with different
//! `telemetry` settings in parallel would race each other's timers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use vmr_core::config::PrecisionConfig;
use vmr_serve::client::{ClientError, ServeClient};
use vmr_serve::proto::{
    CreateSession, Op, PlanParams, ReplyBody, Request, Response, PROTO_VERSION,
};
use vmr_serve::server::{serve, ServerConfig};
use vmr_sim::env::ClusterDelta;
use vmr_sim::types::NumaPolicy;
use vmr_telemetry::EventLog;

static FLAG_LOCK: Mutex<()> = Mutex::new(());

fn plan_params(session: &str, policy: &str, seed: u64, budget_ms: u64) -> PlanParams {
    PlanParams {
        session: session.into(),
        policy: policy.into(),
        mnl: 4,
        seed,
        budget_ms,
        shards: 0,
        workers: 0,
        precision: PrecisionConfig::Exact64,
        commit: false,
    }
}

#[test]
fn metrics_op_exports_phases_errors_and_coalescing() {
    let _guard = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = serve(ServerConfig { threads: 2, ..Default::default() }).unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();

    client.create_session("m", "tiny", 3, 4).unwrap();
    client
        .apply_delta("m", ClusterDelta::VmCreate { cpu: 2, mem: 4, numa: NumaPolicy::Single })
        .unwrap();
    let first = client.plan(plan_params("m", "ha", 0, 50)).unwrap();
    assert!(first.computed, "first plan computes");
    let second = client.plan(plan_params("m", "ha", 0, 50)).unwrap();
    assert!(!second.computed, "identical follow-up is served from the coalescing cache");

    // Two deliberate failures to populate the per-code breakdown.
    match client
        .apply_delta("ghost", ClusterDelta::VmCreate { cpu: 2, mem: 4, numa: NumaPolicy::Single })
    {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "unknown_session"),
        other => panic!("expected unknown_session, got {other:?}"),
    }
    match client.plan(plan_params("m", "nonesuch", 0, 50)) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "unknown_policy"),
        other => panic!("expected unknown_policy, got {other:?}"),
    }

    // Structured export: every request phase shows up with ordered
    // quantiles, and both sides of the coalescing split are counted.
    let m = client.metrics(false).unwrap();
    assert!(m.prometheus.is_none());
    let snap = &m.snapshot;
    for phase in ["serve_request", "serve_frame_decode", "serve_lock_wait", "serve_resp_write"] {
        let h = snap.histogram(phase).unwrap_or_else(|| panic!("{phase} must be exported"));
        assert!(h.count > 0, "{phase} must have samples");
        assert!(h.p50 <= h.p99 && h.p99 <= h.p999 && h.p999 <= h.max, "{phase} quantile order");
    }
    assert!(snap.histogram("serve_plan_compute").unwrap().count >= 1);
    assert!(snap.counter("serve_requests").unwrap() >= 6);
    assert_eq!(snap.counter("serve_plans_computed"), Some(1));
    assert_eq!(snap.counter("serve_plans_coalesced"), Some(1));
    assert_eq!(snap.counter("serve_plans_served"), Some(2));
    assert_eq!(snap.counter("serve_errors"), Some(2));
    assert_eq!(snap.gauge("serve_sessions"), Some(1));
    assert!(snap.gauge("serve_uptime_ms").is_some());

    // Prometheus text exposition of the same snapshot.
    let text = client.metrics(true).unwrap().prometheus.expect("prometheus text");
    assert!(text.contains("# TYPE vmr_serve_request_seconds summary"));
    assert!(text.contains("vmr_serve_request_seconds{quantile=\"0.999\"}"));
    assert!(text.contains("# TYPE vmr_serve_requests counter"));
    assert!(text.contains("# TYPE vmr_serve_queue_depth gauge"));

    // The stats op carries the satellite fields: per-code errors, uptime,
    // queue depth, and the per-session detail table.
    let stats = client.stats("").unwrap();
    assert_eq!(stats.errors, 2, "compatibility total is kept");
    assert_eq!(stats.errors_by_code.unknown_session, 1);
    assert_eq!(stats.errors_by_code.unknown_policy, 1);
    assert_eq!(stats.errors_by_code.bad_request, 0);
    assert_eq!(stats.queue_depth, 0, "no connection may be parked while we are served");
    let detail = &stats.sessions_detail;
    assert_eq!(detail.len(), 1);
    assert_eq!(detail[0].session, "m");
    assert!(!detail[0].busy && !detail[0].read_only);
    assert!(detail[0].info.is_some() && detail[0].durability.is_none());
    let uptime = stats.uptime_ms;
    let later = client.stats("").unwrap();
    assert!(later.uptime_ms >= uptime, "uptime is monotone");

    handle.shutdown();
}

#[test]
fn slow_requests_emit_trace_correlated_jsonl() {
    let _guard = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let events = Arc::new(EventLog::in_memory());
    let handle = serve(ServerConfig {
        threads: 2,
        slow_ms: 1,
        events: Some(Arc::clone(&events)),
        ..Default::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();

    // Building a Medium-scale session (cluster generation + observation
    // engine construction) reliably crosses the 1 ms slow threshold.
    // Raw framing (not the client library) so the reply's trace id is
    // visible for correlation.
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let req = Request {
        v: PROTO_VERSION,
        id: 7,
        op: Op::CreateSession(CreateSession {
            name: "s".into(),
            preset: "medium".into(),
            seed: 1,
            mnl: 4,
        }),
    };
    writer.write_all(format!("{}\n", serde_json::to_string(&req).unwrap()).as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp: Response = serde_json::from_str(&line).unwrap();
    assert!(matches!(resp.body, ReplyBody::Ok(_)), "create must succeed");
    assert!(resp.trace > 0, "dispatched requests carry a trace id");

    // The slow record is emitted just after the response write, so give
    // the worker a beat to land it.
    let record = {
        let mut found = None;
        for _ in 0..100 {
            let slow: Vec<serde_json::Value> = events
                .lines()
                .iter()
                .map(|l| serde_json::from_str(l).expect("every event line is valid JSON"))
                .filter(|v: &serde_json::Value| {
                    v["event"] == "slow_request" && v["trace"].as_u64() == Some(resp.trace)
                })
                .collect();
            if let Some(r) = slow.into_iter().next() {
                found = Some(r);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        found.unwrap_or_else(|| {
            panic!("slow record for trace {} in {:?}", resp.trace, events.lines())
        })
    };
    assert_eq!(record["op"], "create_session");
    assert_eq!(record["session"], "s");
    assert!(record["total_us"].as_u64().unwrap() >= 1_000, "threshold is 1 ms");
    assert!(record["compute_us"].as_u64().is_some(), "phase spans ride along");
    let level = record["level"].as_str().unwrap();
    assert!(level == "warn" || level == "error", "slow records are leveled, got {level}");

    let m = client.metrics(false).unwrap();
    assert!(m.snapshot.counter("serve_slow_requests").unwrap() >= 1);
    handle.shutdown();
}

#[test]
fn disabled_telemetry_serves_counters_but_no_spans() {
    let _guard = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let handle =
        serve(ServerConfig { threads: 2, telemetry: false, ..Default::default() }).unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    client.create_session("quiet", "tiny", 2, 4).unwrap();
    client.plan(plan_params("quiet", "ha", 0, 50)).unwrap();

    let snap = client.metrics(false).unwrap().snapshot;
    for phase in ["serve_request", "serve_frame_decode", "serve_plan_compute"] {
        assert_eq!(snap.histogram(phase).unwrap().count, 0, "{phase} must stay empty");
    }
    // Request accounting is independent of span timing.
    assert!(snap.counter("serve_requests").unwrap() >= 2);
    assert_eq!(snap.counter("serve_plans_computed"), Some(1));

    handle.shutdown();
    // Leave the process-wide flag the way every other daemon boot sets it.
    vmr_telemetry::set_enabled(true);
}

/// A two-worker daemon with a (randomly initialised) agent checkpoint.
fn serve_with_agent() -> vmr_serve::server::ServerHandle {
    use rand::SeedableRng;
    use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig};

    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let model = vmr_core::model::Vmr2lModel::new(
        ModelConfig::default(),
        ExtractorKind::SparseAttention,
        &mut rng,
    );
    let agent = vmr_core::Vmr2lAgent::new(model, ActionMode::TwoStage);
    serve(ServerConfig {
        threads: 2,
        agent: Some(vmr_core::infer::SharedAgent::new(agent)),
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn metrics_op_exports_row_class_counters() {
    use vmr_core::config::ModelConfig;

    let _guard = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = serve_with_agent();
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    client.create_session("rows", "small", 3, 4).unwrap();
    let vms = client.snapshot("rows").unwrap().snapshot.state.num_vms() as u64;

    // The counters are process-wide (like `nn_par_*`): read a delta.
    let rows = |client: &mut ServeClient| {
        let snap = client.metrics(false).unwrap().snapshot;
        let total = snap.counter("nn_rows_total").expect("nn_rows_total is exported");
        let distinct = snap.counter("nn_rows_distinct").expect("nn_rows_distinct is exported");
        (total, distinct)
    };
    let (total0, distinct0) = rows(&mut client);
    let plan = client.plan(PlanParams { mnl: 2, ..plan_params("rows", "agent", 1, 0) }).unwrap();
    let (total1, distinct1) = rows(&mut client);

    // One search per forward (it serves every block) and decision step,
    // over every VM: not one per block.
    let passes = plan.plan.len() as u64;
    assert!(!plan.plan.is_empty(), "the agent must plan on a fresh Small cluster");
    assert!(total1 - total0 >= passes * vms, "{} rows over {passes} passes", total1 - total0);
    let per_block = ModelConfig::default().blocks as u64 * (passes + 1) * vms;
    assert!(total1 - total0 < per_block, "{} rows: a search per block", total1 - total0);
    let (total, distinct) = (total1 - total0, distinct1 - distinct0);
    // A Small cluster packs a handful of flavors onto each PM: some rows
    // are equal, and the counters must say so — the reuse rate is the
    // performance story of a plan.
    assert!(distinct > 0 && distinct < total, "{distinct} distinct of {total}");

    // The arena high-water mark is taken at every reset: an agent plan
    // of two steps rewinds its arena at least twice.
    let snap = client.metrics(false).unwrap().snapshot;
    let arena = snap.gauge("nn_arena_high_water_bytes").expect("the arena high water is exported");
    assert!(arena > 0, "an agent plan must leave an arena high-water mark, read {arena}");

    // Beside them, which SIMD tier computed those rows: what the build
    // enabled, and a CPU that offers at least that (the daemon started).
    let snap = client.metrics(false).unwrap().snapshot;
    let compiled = vmr_nn::tier::compiled();
    assert_eq!(snap.gauge("nn_simd_tier"), Some(compiled.level()));
    assert_eq!(snap.gauge("nn_simd_tier_cpu"), Some(vmr_nn::tier::cpu().level()));
    assert!(vmr_nn::tier::cpu() >= compiled);
    handle.shutdown();
}

#[test]
fn metrics_op_exports_one_decision_sample_per_agent_step() {
    let _guard = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = serve_with_agent();
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    client.create_session("steps", "small", 3, 4).unwrap();

    // Process-wide histograms (like `nn_rows_*`): read a delta.
    let decisions = |client: &mut ServeClient, name: &str| {
        client.metrics(false).unwrap().snapshot.histogram(name).map_or(0, |h| h.count)
    };
    for (precision, name) in [
        (PrecisionConfig::Exact64, "core_decide_f64"),
        (PrecisionConfig::Fast32, "core_decide_f32"),
    ] {
        let before = decisions(&mut client, name);
        let params = PlanParams { mnl: 3, precision, ..plan_params("steps", "agent", 1, 0) };
        let plan = client.plan(params).unwrap();
        assert_eq!(plan.plan.len(), 3, "the agent must use its budget on a fresh Small cluster");
        // The daemon's step loop is the agent's own `act`: one sample per
        // decision, so "why was this plan slow" reads per step.
        assert_eq!(decisions(&mut client, name) - before, 3, "{name}: one sample per decision");
    }
    // Decision steps share nothing: no metric reports on a rendezvous
    // between plans, because there is none.
    let snap = client.metrics(false).unwrap().snapshot;
    let batching: Vec<&str> = snap
        .histograms
        .iter()
        .map(|h| h.name.as_str())
        .filter(|name| name.contains("batch"))
        .collect();
    assert!(batching.is_empty(), "batching metrics exported: {batching:?}");
    handle.shutdown();
}
