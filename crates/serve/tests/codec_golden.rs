//! The JSON codec, pinned byte for byte: one value of every type that
//! crosses the wire or the disk — every request op, every reply, an error
//! response, both WAL record bodies, a snapshot file, a dataset and a
//! checkpoint — plus one value of every derive shape and std impl the
//! shim encodes (unit, newtype, tuple and struct variants; tuple
//! structs of arity 0, 1 and 2; arrays, tuples, boxes and maps).
//!
//! `tests/golden/wire_codec.txt` holds one `<name> <json>` line per case.
//! It was captured by this fixture at commit a6c6365, whose encoder built
//! a `Value` tree before writing any text, and it is never regenerated
//! from a later commit: a streaming encoder must reproduce every line,
//! and the decoder must give back every value from the captured text.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;

use serde::{Deserialize, Serialize};

use vmr_core::config::PrecisionConfig;
use vmr_nn::{Checkpoint, Tensor};
use vmr_serve::proto::{
    ApplyDelta, CreateSession, DeltaApplied, DurabilityStats, ErrorBreakdown, MetricsParams,
    MetricsReply, Op, PlanParams, Planned, Reply, ReplyBody, Request, Response, Restore,
    SessionDetail, SessionInfo, SessionRef, SessionSnapshot, SnapshotReply, StatsParams,
    StatsReply, WireAction, WireError,
};
use vmr_serve::wal::{SnapshotFile, WalBody, WalRecord};
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, Dataset};
use vmr_sim::env::ClusterDelta;
use vmr_sim::types::{NumaPolicy, PmId, VmId};
use vmr_telemetry::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};

const GOLDEN: &str = include_str!("../../../tests/golden/wire_codec.txt");

/// Every string escape the writer knows, plus non-ASCII of 2, 3 and 4
/// UTF-8 bytes.
const AWKWARD: &str = "q\"b\\s/n\nr\rt\tb\u{8}f\u{c}c\u{1}\u{1f} é 漢字 🦀";

/// Every derive shape, every std impl the shim encodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(i64),
    Tuple(u64, f32, String),
    Empty(),
    Struct { a: Option<u32>, b: Vec<f64> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, i16);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Nothing();

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapped(Pair);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Everything {
    shapes: Vec<Shape>,
    pair: Pair,
    nothing: Nothing,
    wrapped: Wrapped,
    array: [u16; 3],
    tuple: (i8, bool),
    triple: (u32, String, f64),
    boxed: Box<i32>,
    btree: BTreeMap<String, u64>,
    hash: HashMap<String, i32>,
    float32: f32,
    usize_max: usize,
    isize_min: isize,
    u64_max: u64,
    i64_min: i64,
    none: Option<String>,
}

/// Decodes a captured text and compares it with the encoded value.
type Decodes = Box<dyn Fn(&str) -> Result<(), String>>;

/// One pinned encoding and the check that its captured text decodes.
struct Case {
    name: &'static str,
    json: String,
    decodes: Decodes,
}

/// A case whose decoded value must equal the encoded one by `same`.
fn case_by<T: Serialize + Deserialize + Debug + 'static>(
    name: &'static str,
    value: T,
    same: fn(&T, &T) -> bool,
) -> Case {
    let json = serde_json::to_string(&value).expect("encodes");
    let decodes = Box::new(move |text: &str| match serde_json::from_str::<T>(text) {
        Ok(back) if same(&back, &value) => Ok(()),
        Ok(back) => Err(format!("decoded to {back:?}")),
        Err(e) => Err(format!("refused: {e}")),
    });
    Case { name, json, decodes }
}

fn case<T: Serialize + Deserialize + PartialEq + Debug + 'static>(
    name: &'static str,
    value: T,
) -> Case {
    case_by(name, value, |a, b| a == b)
}

fn info(objective: f64) -> SessionInfo {
    SessionInfo { session: format!("séance {AWKWARD}"), pms: 6, vms: 31, version: 9, objective }
}

fn request(id: u64, op: Op) -> Case {
    let name = match &op {
        Op::CreateSession(_) => "request/create_session",
        Op::ApplyDelta(ApplyDelta { delta, .. }) => match delta {
            ClusterDelta::VmCreate { .. } => "request/apply_delta/vm_create",
            ClusterDelta::VmDelete { .. } => "request/apply_delta/vm_delete",
            ClusterDelta::VmResize { .. } => "request/apply_delta/vm_resize",
            ClusterDelta::PmAdd { .. } => "request/apply_delta/pm_add",
            ClusterDelta::PmDrain { .. } => "request/apply_delta/pm_drain",
        },
        Op::Plan(_) => "request/plan",
        Op::Stats(_) => "request/stats",
        Op::Snapshot(_) => "request/snapshot",
        Op::Restore(_) => "request/restore",
        Op::Metrics(_) => "request/metrics",
    };
    case(name, Request { v: 5, id, op })
}

fn reply(name: &'static str, body: ReplyBody) -> Case {
    case(name, Response { v: 5, id: 17, trace: u64::MAX - 1, body })
}

fn snapshot() -> SessionSnapshot {
    let state = generate_mapping(&ClusterConfig::tiny(), 3).expect("tiny mapping");
    let mut constraints = ConstraintSet::new(state.num_vms());
    constraints.add_conflict(VmId(0), VmId(2)).expect("conflict");
    constraints.add_conflict(VmId(0), VmId(1)).expect("conflict");
    constraints.pin(VmId(3)).expect("pin");
    SessionSnapshot { state, constraints, mnl: 6, version: 7 }
}

fn checkpoint() -> Checkpoint {
    let mut tensors = HashMap::new();
    tensors.insert(
        "block0.ff.w".to_string(),
        Tensor::from_vec(
            2,
            3,
            vec![0.1, -0.0, 1.0 / 3.0, f64::from(0.1_f32), -2.5e-300, 1.7976931348623157e308],
        ),
    );
    tensors.insert("block0.ff.b".to_string(), Tensor::from_vec(1, 3, vec![0.0, -1.0, 1e16]));
    let mut meta = HashMap::new();
    meta.insert("step".to_string(), "12".to_string());
    meta.insert(format!("note {AWKWARD}"), AWKWARD.to_string());
    Checkpoint { tensors, meta }
}

fn everything() -> Everything {
    let mut btree = BTreeMap::new();
    btree.insert("z".to_string(), u64::MAX);
    btree.insert("a".to_string(), 0);
    let mut hash = HashMap::new();
    for (k, v) in [("m", -1), ("b", 2), ("x", i32::MIN), (AWKWARD, i32::MAX)] {
        hash.insert(k.to_string(), v);
    }
    Everything {
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(-7),
            Shape::Tuple(u64::MAX, 0.1, AWKWARD.to_string()),
            Shape::Empty(),
            Shape::Struct {
                a: Some(4_000_000_000),
                b: vec![
                    -0.0,
                    0.0,
                    1.0,
                    -1.5,
                    1e15,
                    1e16,
                    1.5e16,
                    1e300,
                    5e-324,
                    f64::MIN_POSITIVE,
                    f64::MAX,
                    f64::from(3.3_f32),
                    f64::from(-1.0e-7_f32),
                    0.1 + 0.2,
                ],
            },
            Shape::Struct { a: None, b: Vec::new() },
        ],
        pair: Pair(255, i16::MIN),
        nothing: Nothing(),
        wrapped: Wrapped(Pair(0, -1)),
        array: [0, 1, u16::MAX],
        tuple: (-128, true),
        triple: (7, String::new(), 2.0),
        boxed: Box::new(-42),
        btree,
        hash,
        float32: 16_777_216.0,
        usize_max: usize::MAX,
        isize_min: isize::MIN,
        u64_max: u64::MAX,
        i64_min: i64::MIN,
        none: None,
    }
}

fn cases() -> Vec<Case> {
    let plan = vec![
        WireAction { vm: 3, from_pm: 0, to_pm: 5 },
        WireAction { vm: u32::MAX, from_pm: 1, to_pm: 1 },
    ];
    let detail = SessionDetail {
        session: "s".to_string(),
        version: 3,
        busy: true,
        info: Some(info(0.25)),
        read_only: true,
        durability: Some(DurabilityStats {
            appended_lsn: u64::MAX,
            durable_lsn: 0,
            snapshot_lsn: 64,
            log_bytes: 1 << 40,
            read_only: true,
            reason: format!("fsync failed: {AWKWARD}"),
        }),
    };
    let metrics = MetricsSnapshot {
        counters: vec![CounterSample { name: "serve_requests".to_string(), value: u64::MAX }],
        gauges: vec![
            GaugeSample { name: "a_min".to_string(), value: i64::MIN },
            GaugeSample { name: "b_max".to_string(), value: i64::MAX },
        ],
        histograms: vec![HistogramSample {
            name: "serve_request_ns".to_string(),
            unit: "ns".to_string(),
            count: 3,
            sum: 3_000,
            max: 2_000,
            p50: 500,
            p90: 1_900,
            p99: 2_000,
            p999: 2_000,
        }],
    };
    let session = || format!("sess {AWKWARD}");
    let delta = |delta| Op::ApplyDelta(ApplyDelta { session: session(), delta });
    vec![
        request(
            u64::MAX,
            Op::CreateSession(CreateSession {
                name: session(),
                preset: "tiny".to_string(),
                seed: u64::MAX,
                mnl: 0,
            }),
        ),
        request(1, delta(ClusterDelta::VmCreate { cpu: 8, mem: 16, numa: NumaPolicy::Double })),
        request(2, delta(ClusterDelta::VmDelete { vm: VmId(0) })),
        request(3, delta(ClusterDelta::VmResize { vm: VmId(4), cpu: 2, mem: u32::MAX })),
        request(4, delta(ClusterDelta::PmAdd { cpu_per_numa: 44, mem_per_numa: 128 })),
        request(5, delta(ClusterDelta::PmDrain { pm: PmId(2) })),
        request(
            6,
            Op::Plan(PlanParams {
                session: session(),
                policy: "ha".to_string(),
                mnl: 50,
                seed: 7,
                budget_ms: 200,
                shards: 3,
                workers: 2,
                precision: PrecisionConfig::Fast32,
                commit: true,
            }),
        ),
        request(7, Op::Stats(StatsParams { session: session() })),
        request(8, Op::Snapshot(SessionRef { session: session() })),
        request(9, Op::Restore(Restore { session: session(), snapshot: snapshot() })),
        request(10, Op::Metrics(MetricsParams { prometheus: false })),
        reply("reply/created", ReplyBody::Ok(Reply::Created(info(0.4919)))),
        reply(
            "reply/delta_applied",
            ReplyBody::Ok(Reply::DeltaApplied(DeltaApplied {
                info: info(1.0),
                created_vm: Some(31),
                renumbered_from: None,
                renumbered_to: Some(u32::MAX),
                migrations: 2,
            })),
        ),
        reply(
            "reply/planned",
            ReplyBody::Ok(Reply::Planned(Planned {
                session: session(),
                policy: "agent".to_string(),
                objective_before: -0.0,
                objective_after: f64::from(0.1_f32),
                plan,
                computed: false,
                version: 12,
            })),
        ),
        reply(
            "reply/stats",
            ReplyBody::Ok(Reply::Stats(StatsReply {
                sessions: 1,
                requests: u64::MAX,
                plans_served: 2,
                plans_computed: 1,
                deltas: 5,
                errors: 1,
                errors_by_code: ErrorBreakdown { bad_request: 1, ..ErrorBreakdown::default() },
                uptime_ms: 12_345,
                queue_depth: 0,
                recoveries: 1,
                degraded_sessions: 0,
                sessions_detail: vec![detail],
                session: None,
                durability: None,
            })),
        ),
        reply(
            "reply/snapshot",
            ReplyBody::Ok(Reply::Snapshot(SnapshotReply { snapshot: snapshot() })),
        ),
        reply("reply/restored", ReplyBody::Ok(Reply::Restored(info(0.0)))),
        reply(
            "reply/metrics",
            ReplyBody::Ok(Reply::Metrics(MetricsReply {
                snapshot: metrics,
                prometheus: Some(format!("# TYPE serve_requests counter\n{AWKWARD} 1\n")),
            })),
        ),
        reply(
            "reply/error",
            ReplyBody::Err(WireError {
                code: "bad_request".to_string(),
                message: format!("bad JSON: {AWKWARD}"),
            }),
        ),
        case(
            "wal/delta",
            WalRecord {
                lsn: u64::MAX,
                body: WalBody::Delta(ClusterDelta::VmCreate {
                    cpu: 4,
                    mem: 8,
                    numa: NumaPolicy::Single,
                }),
            },
        ),
        case(
            "wal/commit",
            WalRecord {
                lsn: 65,
                body: WalBody::Commit(vec![WireAction { vm: 1, from_pm: 2, to_pm: 3 }]),
            },
        ),
        case("wal/snapshot_file", SnapshotFile { lsn: 64, snapshot: snapshot() }),
        case_by(
            "dataset",
            Dataset::generate(&ClusterConfig::tiny(), 2, 5).expect("tiny dataset"),
            |a, b| {
                (&a.name, &a.mappings, &a.train, &a.val, &a.test)
                    == (&b.name, &b.mappings, &b.train, &b.val, &b.test)
            },
        ),
        case_by("checkpoint", checkpoint(), |a, b| a.tensors == b.tensors && a.meta == b.meta),
        case("shapes", everything()),
    ]
}

fn golden() -> Vec<(&'static str, &'static str)> {
    GOLDEN.lines().map(|l| l.split_once(' ').expect("`<name> <json>` line")).collect()
}

#[test]
fn every_wire_and_disk_type_encodes_as_captured() {
    let cases = cases();
    let golden = golden();
    let names: Vec<&str> = cases.iter().map(|c| c.name).collect();
    let captured: Vec<&str> = golden.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, captured, "the fixture's cases differ from the capture's");
    for (case, &(name, json)) in cases.iter().zip(&golden) {
        assert!(
            case.json == json,
            "{name} encodes differently:\n  now:      {}\n  captured: {json}",
            case.json
        );
    }
}

#[test]
fn every_captured_encoding_decodes_to_its_value() {
    for (case, (name, json)) in cases().iter().zip(golden()) {
        if let Err(e) = (case.decodes)(json) {
            panic!("{name}: {e}");
        }
    }
}

/// A non-finite float has no JSON number: it is written as `null`, and a
/// float field refuses `null` when it is read back.
#[test]
fn a_non_finite_float_is_written_as_null_and_refused_back() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let json = serde_json::to_string(&info(x)).expect("encodes");
        assert!(json.ends_with(",\"objective\":null}"), "{json}");
        assert!(serde_json::from_str::<SessionInfo>(&json).is_err(), "{json}");
        assert_eq!(serde_json::to_value(x).expect("to_value"), serde_json::Value::Null);
        assert_eq!(serde_json::to_string(&(x as f32)).expect("encodes"), "null");
    }
}
