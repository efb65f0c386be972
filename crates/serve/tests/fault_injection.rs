//! Fault-injection harness: a daemon on a misbehaving disk. Every
//! injected fault — disk full, failing fsync, torn write, corrupt
//! record, missing snapshot — must degrade to a structured wire error
//! (`degraded` / `read_only`) on the afflicted session while the daemon
//! keeps serving everything else. No fault may panic a worker.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use vmr_serve::client::{ClientError, ServeClient};
use vmr_serve::proto::{codes, PlanParams};
use vmr_serve::server::{serve, ServerConfig};
use vmr_serve::wal::{
    file_io_factory, DurabilityConfig, FaultControl, SessionLog, WalIo, WalIoFactory,
};
use vmr_sim::env::ClusterDelta;
use vmr_sim::types::NumaPolicy;

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vmr_faults_{}_{}_{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn durable_config(dir: &PathBuf, ctl: &std::sync::Arc<FaultControl>) -> DurabilityConfig {
    let mut cfg = DurabilityConfig::new(dir);
    cfg.io = ctl.factory();
    cfg
}

fn small_vm() -> ClusterDelta {
    ClusterDelta::VmCreate { cpu: 1, mem: 2, numa: NumaPolicy::Single }
}

fn plan_params(session: &str) -> PlanParams {
    PlanParams {
        session: session.into(),
        policy: "ha".into(),
        mnl: 2,
        seed: 0,
        budget_ms: 50,
        shards: 0,
        workers: 0,
        precision: vmr_core::config::PrecisionConfig::Exact64,
        commit: false,
    }
}

fn expect_code(result: Result<impl std::fmt::Debug, ClientError>, code: &str, what: &str) {
    match result {
        Err(ClientError::Server(e)) => assert_eq!(e.code, code, "{what}: {}", e.message),
        other => panic!("{what}: expected {code} error, got {other:?}"),
    }
}

/// Disk full (failed append) and failed fsync: the afflicted session is
/// never half-applied — the mutation that could not be made durable is
/// refused with `degraded`, the session turns read-only, and every other
/// session keeps writing.
#[test]
fn disk_full_degrades_one_session_and_spares_the_rest() {
    let dir = scratch("full");
    let ctl = FaultControl::new();
    let handle = serve(ServerConfig {
        threads: 2,
        durability: Some(durable_config(&dir, &ctl)),
        ..Default::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    let a = client.create_session("a", "tiny", 1, 4).unwrap();
    client.create_session("b", "tiny", 2, 4).unwrap();

    // The next WAL append anywhere fails like a full disk; session "a"
    // takes the hit.
    ctl.fail_appends.store(1, Ordering::SeqCst);
    expect_code(client.apply_delta("a", small_vm()), codes::DEGRADED, "unsynced mutation");

    // From now on "a" refuses mutations up front…
    expect_code(client.apply_delta("a", small_vm()), codes::READ_ONLY, "second mutation");
    expect_code(
        client.plan(PlanParams { commit: true, ..plan_params("a") }),
        codes::READ_ONLY,
        "committing plan",
    );

    // …but keeps serving reads and non-committing plans,
    let stats = client.stats("a").unwrap();
    assert_eq!(stats.session.as_ref().unwrap().vms, a.vms, "refused delta must not land");
    let dur = stats.durability.expect("durable session reports gauges");
    assert!(dur.read_only, "gauges must show the degradation");
    assert!(!dur.reason.is_empty());
    assert!(stats.degraded_sessions >= 1);
    client.plan(plan_params("a")).expect("read-only session still plans");

    // …and session "b" never noticed.
    client.apply_delta("b", small_vm()).expect("healthy session keeps writing");
    assert!(!client.stats("b").unwrap().durability.unwrap().read_only);

    // An fsync failure is the same story for "b".
    ctl.fail_syncs.store(1, Ordering::SeqCst);
    expect_code(client.apply_delta("b", small_vm()), codes::DEGRADED, "failed fsync");
    assert!(client.stats("b").unwrap().durability.unwrap().read_only);

    handle.shutdown();
}

/// A torn write (the disk persists half a record but reports success)
/// followed by a crash: recovery drops the torn tail whole and the
/// session resumes read-write from the last intact record.
#[test]
fn torn_write_recovers_to_the_last_intact_record() {
    let dir = scratch("torn");
    let ctl = FaultControl::new();

    let (vms_before, version_before) = {
        let handle = serve(ServerConfig {
            threads: 2,
            durability: Some(durable_config(&dir, &ctl)),
            ..Default::default()
        })
        .unwrap();
        let mut client = ServeClient::connect(handle.addr()).unwrap();
        client.create_session("t", "tiny", 1, 4).unwrap();
        let good = client.apply_delta("t", small_vm()).unwrap();

        // The disk lies on the next append: half the record lands.
        ctl.short_appends.store(1, Ordering::SeqCst);
        let lied = client.apply_delta("t", small_vm()).unwrap();
        assert_eq!(lied.info.version, good.info.version + 1, "the daemon cannot see the lie");
        handle.shutdown();
        (good.info.vms, good.info.version)
    };

    // Reboot on the same directory: the torn record is detected by CRC
    // and dropped whole — never half-applied.
    let handle = serve(ServerConfig {
        threads: 2,
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    })
    .unwrap();
    let report = handle.recovery_report().expect("durable boot reports").to_string();
    assert!(report.contains("torn"), "report must mention the torn tail: {report}");
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    let stats = client.stats("t").unwrap();
    let session = stats.session.unwrap();
    assert_eq!(session.vms, vms_before, "torn delta must be gone in full");
    assert_eq!(session.version, version_before);
    let dur = stats.durability.unwrap();
    assert!(!dur.read_only, "a torn tail is honest crash damage, not corruption");
    assert_eq!(dur.appended_lsn, version_before);

    // The session is read-write again.
    client.apply_delta("t", small_vm()).expect("session resumes read-write");
    handle.shutdown();
}

/// A corrupt record with intact data behind it is NOT a crash artifact —
/// recovery serves the good prefix read-only and leaves the evidence on
/// disk untouched.
#[test]
fn mid_log_corruption_serves_the_good_prefix_read_only() {
    let dir = scratch("corrupt");
    {
        let handle = serve(ServerConfig {
            threads: 2,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        })
        .unwrap();
        let mut client = ServeClient::connect(handle.addr()).unwrap();
        client.create_session("c", "tiny", 1, 4).unwrap();
        for _ in 0..3 {
            client.apply_delta("c", small_vm()).unwrap();
        }
        handle.shutdown();
    }

    // Flip one payload byte inside the FIRST record — records 2 and 3
    // sit behind it, so this cannot be mistaken for a torn tail.
    let (_, wal_path) = SessionLog::files_of(&dir.join("sessions").join("c"));
    let mut wal = fs::read(&wal_path).unwrap();
    let rec0_len = u32::from_le_bytes(wal[0..4].try_into().unwrap()) as usize;
    wal[8 + rec0_len / 2] ^= 0xFF;
    fs::write(&wal_path, &wal).unwrap();

    let handle = serve(ServerConfig {
        threads: 2,
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    })
    .unwrap();
    let report = handle.recovery_report().unwrap().to_string();
    assert!(report.contains("READ-ONLY"), "report must flag the degradation: {report}");
    let mut client = ServeClient::connect(handle.addr()).unwrap();

    let stats = client.stats("c").unwrap();
    assert_eq!(stats.session.unwrap().version, 0, "only the pre-corruption prefix is served");
    let dur = stats.durability.unwrap();
    assert!(dur.read_only);
    expect_code(client.apply_delta("c", small_vm()), codes::READ_ONLY, "mutating corrupt session");
    client.plan(plan_params("c")).expect("good prefix still plans");

    // The evidence is preserved for `vmr recover` forensics.
    assert_eq!(fs::read(&wal_path).unwrap(), wal, "corrupt log must not be rewritten");
    handle.shutdown();
}

/// A session whose snapshot is gone is unrecoverable: it answers every
/// request with a structured `degraded` error, its name stays reserved,
/// and the daemon serves every other session normally.
#[test]
fn missing_snapshot_is_a_dead_session_not_a_dead_daemon() {
    let dir = scratch("missing");
    {
        let handle = serve(ServerConfig {
            threads: 2,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        })
        .unwrap();
        let mut client = ServeClient::connect(handle.addr()).unwrap();
        client.create_session("gone", "tiny", 1, 4).unwrap();
        client.create_session("kept", "tiny", 2, 4).unwrap();
        client.apply_delta("kept", small_vm()).unwrap();
        handle.shutdown();
    }
    let (snap_path, _) = SessionLog::files_of(&dir.join("sessions").join("gone"));
    fs::remove_file(&snap_path).unwrap();

    let handle = serve(ServerConfig {
        threads: 2,
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();

    expect_code(client.stats("gone"), codes::DEGRADED, "stats on a dead session");
    expect_code(client.apply_delta("gone", small_vm()), codes::DEGRADED, "delta on a dead session");
    expect_code(
        client.create_session("gone", "tiny", 1, 4),
        codes::SESSION_EXISTS,
        "a dead session's name stays reserved (its directory still exists)",
    );

    // The rest of the daemon is healthy: the sibling session recovered
    // with its history, and new sessions can be created.
    let stats = client.stats("kept").unwrap();
    assert_eq!(stats.session.unwrap().version, 1);
    assert!(stats.degraded_sessions >= 1);
    assert!(stats.recoveries >= 1);
    client.create_session("fresh", "tiny", 3, 4).unwrap();
    client.apply_delta("fresh", small_vm()).unwrap();
    handle.shutdown();
}

/// A snapshot fsync that parks until the test releases it (a disk that
/// stalls mid-compaction).
#[derive(Default)]
struct SnapshotGate {
    armed: AtomicBool,
    /// (a compaction is parked in its snapshot fsync, released)
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl SnapshotGate {
    fn factory(self: &Arc<Self>) -> WalIoFactory {
        let gate = Arc::clone(self);
        let inner = file_io_factory();
        Arc::new(move |path: &Path| {
            let io = inner(path)?;
            if path.file_name().is_some_and(|n| n == "snapshot.json.tmp") {
                return Ok(
                    Box::new(GatedIo { inner: io, gate: Arc::clone(&gate) }) as Box<dyn WalIo>
                );
            }
            Ok(io)
        })
    }

    fn wait_parked(&self, timeout: Duration) -> bool {
        let state = self.state.lock().unwrap();
        let (state, _) = self.cv.wait_timeout_while(state, timeout, |s| !s.0).unwrap();
        state.0
    }

    fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

struct GatedIo {
    inner: Box<dyn WalIo>,
    gate: Arc<SnapshotGate>,
}

impl WalIo for GatedIo {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.inner.append(buf)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.gate.armed.load(Ordering::SeqCst) {
            let mut state = self.gate.state.lock().unwrap();
            state.0 = true;
            self.gate.cv.notify_all();
            drop(self.gate.cv.wait_while(state, |s| !s.1).unwrap());
        }
        self.inner.sync()
    }
}

/// A compaction stalled on the disk holds up only the mutation that made
/// it due: plans on the same session are served meanwhile (the snapshot
/// is taken under the session lock, its files are written after it is
/// released), and the mutation is acknowledged once the compaction is
/// done.
#[test]
fn stalled_compaction_does_not_block_plans() {
    let dir = scratch("stall");
    let gate = Arc::new(SnapshotGate::default());
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.snapshot_every = 2;
    cfg.io = gate.factory();
    let handle =
        serve(ServerConfig { threads: 2, durability: Some(cfg), ..Default::default() }).unwrap();
    let mut writer = ServeClient::connect(handle.addr()).unwrap();
    let mut reader = ServeClient::connect(handle.addr()).unwrap();
    writer.create_session("s", "tiny", 1, 4).unwrap();
    gate.armed.store(true, Ordering::SeqCst);
    writer.apply_delta("s", small_vm()).unwrap();

    // The second record makes a compaction due; its snapshot fsync parks.
    let writing = std::thread::spawn(move || writer.apply_delta("s", small_vm()));
    assert!(gate.wait_parked(Duration::from_secs(10)), "the compaction never reached its fsync");

    let (tx, rx) = mpsc::channel();
    let planning = std::thread::spawn(move || {
        let planned = reader.plan(plan_params("s"));
        let _ = tx.send(planned);
        reader
    });
    let planned = rx.recv_timeout(Duration::from_secs(10));
    gate.release();
    let planned = planned.expect("a plan waited for a stalled compaction").unwrap();
    assert_eq!(planned.version, 2, "the plan sees the mutation whose compaction is stalled");
    assert!(planned.computed);

    let applied = writing.join().unwrap().expect("the mutation is acknowledged after compaction");
    assert_eq!(applied.info.version, 2);
    let mut reader = planning.join().unwrap();
    let durability = reader.stats("s").unwrap().durability.unwrap();
    assert_eq!(durability.snapshot_lsn, 2, "compacted before the acknowledgement");
    assert!(!durability.read_only);
    handle.shutdown();
}
