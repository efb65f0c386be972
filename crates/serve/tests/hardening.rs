//! Malformed-input hardening: truncated, garbage, binary, and oversized
//! frames must each yield a structured error response — and the daemon
//! (and, for non-oversized inputs, the very same connection) must keep
//! serving afterwards.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use vmr_core::config::PrecisionConfig;
use vmr_serve::proto::{codes, ReplyBody, Response, MAX_LINE_BYTES};
use vmr_serve::server::{serve, ServerConfig};

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("server must answer");
    assert!(!line.is_empty(), "server closed instead of answering");
    serde_json::from_str(&line).expect("every response is valid JSON")
}

fn expect_error(resp: &Response, code: &str) {
    match &resp.body {
        ReplyBody::Err(e) => assert_eq!(e.code, code, "unexpected error: {}", e.message),
        ReplyBody::Ok(_) => panic!("expected {code} error, got success"),
    }
}

#[test]
fn garbage_lines_get_structured_errors_and_the_connection_survives() {
    let handle = serve(ServerConfig { threads: 2, ..Default::default() }).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // 1. Plain garbage.
    writer.write_all(b"this is not json\n").unwrap();
    expect_error(&read_response(&mut reader), codes::BAD_REQUEST);

    // 2. Truncated JSON.
    writer.write_all(b"{\"v\":5,\"id\":\n").unwrap();
    expect_error(&read_response(&mut reader), codes::BAD_REQUEST);

    // 3. Valid JSON, wrong shape.
    writer.write_all(b"{\"hello\":\"world\"}\n").unwrap();
    expect_error(&read_response(&mut reader), codes::BAD_REQUEST);

    // 4. Binary junk (invalid UTF-8).
    writer.write_all(&[0x00, 0xff, 0xfe, 0x80, b'\n']).unwrap();
    expect_error(&read_response(&mut reader), codes::BAD_REQUEST);

    // 5. Wrong protocol version with a parseable envelope.
    writer.write_all(b"{\"v\":99,\"id\":5,\"op\":{\"Stats\":{\"session\":\"\"}}}\n").unwrap();
    let resp = read_response(&mut reader);
    assert_eq!(resp.id, 5, "version errors still echo the request id");
    expect_error(&resp, codes::UNSUPPORTED_VERSION);

    // 6. The same connection still serves valid requests.
    writer
        .write_all(
            b"{\"v\":5,\"id\":6,\"op\":{\"CreateSession\":{\"name\":\"s\",\"preset\":\"tiny\",\"seed\":1,\"mnl\":4}}}\n",
        )
        .unwrap();
    let resp = read_response(&mut reader);
    assert_eq!(resp.id, 6);
    assert!(matches!(resp.body, ReplyBody::Ok(_)), "valid request after garbage must succeed");

    handle.shutdown();
}

#[test]
fn idle_connections_do_not_starve_the_worker_pool() {
    // More silent connections than workers: a worker pool that dedicates
    // one thread per connection would be fully pinned and the next
    // request would hang forever.
    let handle = serve(ServerConfig { threads: 2, ..Default::default() }).unwrap();
    let _idle: Vec<TcpStream> =
        (0..6).map(|_| TcpStream::connect(handle.addr()).unwrap()).collect();
    // Give the workers a moment to pick the idle connections up.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut client = vmr_serve::client::ServeClient::connect(handle.addr()).unwrap();
    client
        .stream_timeout(std::time::Duration::from_secs(10))
        .expect("client read timeout guards the assertion");
    let info = client.create_session("alive", "tiny", 0, 4).expect("idle peers must not starve");
    assert!(info.vms > 0);
    handle.shutdown();
}

#[test]
fn oversized_line_is_rejected_and_server_stays_up() {
    let handle = serve(ServerConfig { threads: 2, ..Default::default() }).unwrap();

    {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // MAX + 2 payload bytes: the server caps its read at MAX + 1 and
        // answers without ever buffering the rest.
        let mut big = vec![b'x'; MAX_LINE_BYTES + 2];
        big.push(b'\n');
        writer.write_all(&big).unwrap();
        let resp = read_response(&mut reader);
        expect_error(&resp, codes::OVERSIZED);
        // The connection is closed after an oversized frame.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection must close");
    }

    // The daemon itself keeps serving fresh connections.
    let mut client = vmr_serve::client::ServeClient::connect(handle.addr()).unwrap();
    let info = client.create_session("after", "tiny", 0, 4).unwrap();
    assert!(info.vms > 0);
    let stats = client.stats("").unwrap();
    assert!(stats.errors >= 1, "hardening failures must be counted");

    handle.shutdown();
}

#[test]
fn degenerate_deltas_get_structured_sim_errors_over_the_wire() {
    use vmr_serve::client::{ClientError, ServeClient};
    use vmr_sim::env::ClusterDelta;
    use vmr_sim::types::{NumaPolicy, VmId};

    let handle = serve(ServerConfig { threads: 2, ..Default::default() }).unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    let info = client.create_session("deg", "tiny", 1, 4).unwrap();
    let vms_before = info.vms;

    // The full audit of degenerate create/resize/add requests: each must
    // come back as a structured `sim` error, not a success, a crash, or a
    // silently mis-allocated VM.
    for delta in [
        ClusterDelta::VmCreate { cpu: 0, mem: 8, numa: NumaPolicy::Single },
        ClusterDelta::VmCreate { cpu: 4, mem: 0, numa: NumaPolicy::Single },
        ClusterDelta::VmCreate { cpu: 3, mem: 8, numa: NumaPolicy::Double },
        ClusterDelta::VmCreate { cpu: 4, mem: 9, numa: NumaPolicy::Double },
        ClusterDelta::VmResize { vm: VmId(0), cpu: 0, mem: 8 },
        ClusterDelta::VmResize { vm: VmId(0), cpu: 4, mem: 0 },
        ClusterDelta::PmAdd { cpu_per_numa: 0, mem_per_numa: 64 },
        ClusterDelta::PmAdd { cpu_per_numa: 44, mem_per_numa: 0 },
    ] {
        match client.apply_delta("deg", delta) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, codes::SIM, "{}", e.message),
            other => panic!("degenerate {delta:?} must yield a sim error, got {other:?}"),
        }
    }

    // The session is unharmed and still plans.
    let stats = client.stats("deg").unwrap();
    assert_eq!(stats.session.as_ref().unwrap().vms, vms_before, "no delta may have landed");
    let planned = client
        .plan(vmr_serve::proto::PlanParams {
            session: "deg".into(),
            policy: "ha".into(),
            mnl: 2,
            seed: 0,
            budget_ms: 50,
            shards: 0,
            workers: 0,
            precision: PrecisionConfig::Exact64,
            commit: false,
        })
        .unwrap();
    assert!(planned.plan.len() <= 2);
    handle.shutdown();
}

#[test]
fn restore_validates_snapshots_like_the_delta_path() {
    use vmr_serve::client::{ClientError, ServeClient};
    use vmr_serve::proto::SessionSnapshot;
    use vmr_sim::types::NumaPlacement;

    let handle = serve(ServerConfig { threads: 2, ..Default::default() }).unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    client.create_session("res", "tiny", 1, 4).unwrap();
    let good = client.snapshot("res").unwrap().snapshot;
    let objective = client.stats("res").unwrap().session.unwrap().objective;
    let pms = good.state.num_pms() as u64;
    let double_vm = good
        .state
        .placements()
        .iter()
        .position(|p| matches!(p.numa, NumaPlacement::Double))
        .expect("tiny preset has double-NUMA VMs");

    // Each corruption mirrors a rule the live delta path enforces. A
    // hostile snapshot arrives as wire JSON, so that is where the test
    // tampers — `restore` must reject each with `bad_request`, leaving
    // the session untouched (and never panicking a worker).
    let wire = serde_json::to_value(&good).unwrap();
    fn state_array<'a>(
        v: &'a mut serde_json::Value,
        field: &str,
    ) -> &'a mut Vec<serde_json::Value> {
        v.as_object_mut()
            .unwrap()
            .get_mut("state")
            .unwrap()
            .as_object_mut()
            .unwrap()
            .get_mut(field)
            .unwrap()
            .as_array_mut()
            .unwrap()
    }
    fn set(v: &mut serde_json::Value, field: &str, idx: usize, key: &str, num: u64) {
        state_array(v, field)[idx]
            .as_object_mut()
            .unwrap()
            .insert(key.to_string(), serde_json::json!(num));
    }

    let mut zero_mem = wire.clone();
    set(&mut zero_mem, "vms", 0, "mem", 0);
    let mut odd_double = wire.clone();
    set(&mut odd_double, "vms", double_vm, "cpu", 3);
    let mut out_of_range = wire.clone();
    set(&mut out_of_range, "placements", 0, "pm", pms + 7);
    let mut stale_index = wire.clone();
    state_array(&mut stale_index, "vms_on_pm")[0] = serde_json::json!([u32::MAX]);

    for (what, tampered) in [
        ("zero-memory VM", &zero_mem),
        ("odd-resource double-NUMA VM", &odd_double),
        ("out-of-range placement", &out_of_range),
        ("corrupt reverse index", &stale_index),
    ] {
        let bad: SessionSnapshot =
            serde_json::from_value(tampered).expect("shape survives tampering");
        match client.restore("res", bad) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, codes::BAD_REQUEST, "{what}: {}", e.message)
            }
            other => panic!("{what} must be rejected, got {other:?}"),
        }
    }

    // A constraint set not covering the cluster is caught too.
    let mut short_constraints = good.clone();
    short_constraints.constraints = vmr_sim::ConstraintSet::new(1);
    match client.restore("res", short_constraints) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, codes::BAD_REQUEST, "{}", e.message),
        other => panic!("undersized constraint set must be rejected, got {other:?}"),
    }

    // The session survived every attempt unchanged, and a good snapshot
    // still restores.
    let stats = client.stats("res").unwrap();
    assert_eq!(stats.session.unwrap().objective, objective, "state must be untouched");
    client.restore("res", good.clone()).expect("valid snapshot restores");

    // A stored reverse index in another order (snapshots written in
    // migration-history order hold one) is no fault: it restores, and
    // comes back ascending — the canonical snapshot again.
    let mut permuted = wire.clone();
    let index = state_array(&mut permuted, "vms_on_pm");
    index.iter_mut().filter_map(serde_json::Value::as_array_mut).for_each(|vms| vms.reverse());
    assert_ne!(permuted, wire, "some PM must host two VMs");
    client.restore("res", serde_json::from_value(&permuted).unwrap()).expect("permuted restores");
    let back = client.snapshot("res").unwrap().snapshot;
    assert!((0..pms as u32).all(|p| back.state.vms_on(vmr_sim::PmId(p)).is_sorted()));
    assert_eq!(back.state, good.state);
    handle.shutdown();
}

/// Stopping the daemon wakes every worker at once. The workers share
/// one receiver behind a mutex and wait on it with a 500 ms poll; left
/// to time out they stop one after another, `threads × 500 ms` in all.
#[test]
fn shutdown_wakes_all_workers_at_once() {
    let handle = serve(ServerConfig { threads: 4, ..Default::default() }).unwrap();
    // One idle peer parks a worker in a blocking read; the other three
    // wait on the queue.
    let mut idle = TcpStream::connect(handle.addr()).unwrap();
    idle.write_all(b"{\"v\":5,\"id\":1,\"op\":{\"Stats\":{\"session\":\"\"}}}\n").unwrap();
    read_response(&mut BufReader::new(idle.try_clone().unwrap()));
    let t0 = std::time::Instant::now();
    handle.shutdown();
    let took = t0.elapsed();
    assert!(
        took < std::time::Duration::from_millis(250),
        "a 4-thread daemon took {took:?} to stop (one poll interval is 500 ms)"
    );
}
