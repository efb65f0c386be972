//! Tier-1 durability gate: for ANY kill point in the write stream — a
//! crash at any byte offset of any append — recovery must rebuild a
//! session whose state and warm observation are **bit-identical** to a
//! never-crashed twin that applied exactly the mutations whose records
//! fully survive the cut. Torn tails are dropped whole (a record is
//! applied at recovery either fully or not at all), and a pure
//! truncation must never be misread as corruption.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use proptest::prelude::*;

use vmr_core::config::PrecisionConfig;
use vmr_serve::policies::{HaPolicy, PlanRequest};
use vmr_serve::recovery::{recover_session, wire_plan_actions, RecoveryNote};
use vmr_serve::session::{preset_config, Session};
use vmr_serve::wal::{DurabilityConfig, SessionLog, WalBody};
use vmr_sim::env::ClusterDelta;
use vmr_sim::types::{NumaPolicy, VmId};

/// Fresh scratch directory (no tempfile crate in this workspace).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vmr_prop_wal_{}_{}_{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn plan_req(mnl: usize) -> PlanRequest {
    PlanRequest {
        mnl,
        seed: 0,
        budget: Duration::from_millis(50),
        shards: 0,
        workers: 0,
        precision: PrecisionConfig::Exact64,
    }
}

/// Decodes one generated op into a delta (5 = commit an HA plan).
fn delta_of(kind: u8, a: u32, b: u32, num_vms: u32) -> Option<ClusterDelta> {
    Some(match kind {
        0 => ClusterDelta::VmCreate { cpu: 1 + a % 8, mem: 1 + b % 16, numa: NumaPolicy::Single },
        1 => ClusterDelta::VmCreate {
            cpu: 2 * (1 + a % 4),
            mem: 2 * (1 + b % 8),
            numa: NumaPolicy::Double,
        },
        2 => ClusterDelta::VmDelete { vm: VmId(a % num_vms.max(1)) },
        3 => {
            ClusterDelta::VmResize { vm: VmId(a % num_vms.max(1)), cpu: 1 + b % 8, mem: 1 + a % 16 }
        }
        4 => ClusterDelta::PmAdd { cpu_per_numa: 44, mem_per_numa: 128 },
        _ => return None,
    })
}

/// Runs a random op stream against a durable session rooted at `dir`.
/// Returns the acknowledged bodies in order and the byte length of each
/// record on disk (the boundaries an honest crash can cut between).
fn run_stream(
    session: &mut Session,
    dir: &Path,
    cfg: &DurabilityConfig,
    ops: &[(u8, u32, u32)],
) -> (Vec<WalBody>, Vec<usize>) {
    let snap0 = session.snapshot(0);
    let mut log = SessionLog::install(dir.to_path_buf(), cfg, &snap0, 0).expect("install");
    let mut bodies = Vec::new();
    let mut lens = Vec::new();
    let mut bytes_before = 0u64;
    for &(kind, a, b) in ops {
        let body = match delta_of(kind, a, b, session.env_mut().state().num_vms() as u32) {
            Some(delta) => {
                if session.apply_delta(&delta).is_err() {
                    continue; // refused, never acked, never logged
                }
                WalBody::Delta(delta)
            }
            None => {
                let Ok(result) = session.plan(&HaPolicy, &plan_req(2 + (a % 3) as usize), true)
                else {
                    continue;
                };
                WalBody::Commit(result.plan)
            }
        };
        log.append(&body).expect("healthy disk appends");
        let total = log.stats().log_bytes;
        lens.push((total - bytes_before) as usize);
        bytes_before = total;
        bodies.push(body);
    }
    (bodies, lens)
}

/// Simulates a crash at byte `cut` of the log: copies the snapshot and
/// the truncated log into a fresh directory and recovers there.
fn crash_and_recover(
    src: &Path,
    cut: usize,
    cfg: &DurabilityConfig,
) -> Result<vmr_serve::recovery::RecoveredSession, String> {
    let (snap_src, wal_src) = SessionLog::files_of(src);
    let dir = scratch("cut");
    let (snap_dst, wal_dst) = SessionLog::files_of(&dir);
    fs::copy(&snap_src, &snap_dst).expect("copy snapshot");
    let wal = fs::read(&wal_src).expect("read wal");
    fs::write(&wal_dst, &wal[..cut.min(wal.len())]).expect("write truncated wal");
    let out = recover_session("s", &dir, cfg);
    let _ = fs::remove_dir_all(&dir);
    out
}

/// A session's committed state in the canonical bytes a snapshot file
/// holds.
fn snapshot_bytes(session: &mut Session) -> String {
    serde_json::to_string(&session.snapshot(0)).expect("snapshot encodes")
}

/// The never-crashed twin: a fresh session that applies exactly the
/// first `k` acknowledged mutations.
fn twin_after(seed: u64, k: usize, bodies: &[WalBody]) -> Session {
    let mut twin =
        Session::from_preset("s", &preset_config("tiny").unwrap(), seed, 6).expect("twin");
    for body in &bodies[..k] {
        match body {
            WalBody::Delta(d) => {
                twin.apply_delta(d).expect("acked delta replays");
            }
            WalBody::Commit(plan) => {
                twin.commit_plan(&wire_plan_actions(plan)).expect("acked plan replays");
            }
        }
    }
    twin
}

/// Which record prefix survives a cut at byte `cut`, given record sizes.
fn surviving(lens: &[usize], cut: usize) -> usize {
    let mut end = 0usize;
    let mut k = 0usize;
    for &len in lens {
        end += len;
        if end > cut {
            break;
        }
        k += 1;
    }
    k
}

/// Exhaustive sweep: one fixed op stream, a crash at EVERY byte offset.
/// This is the strongest form of the claim and cheap enough to run whole
/// because the stream is small.
#[test]
fn every_kill_offset_recovers_the_exact_acked_prefix() {
    let seed = 7u64;
    let dir = scratch("sweep");
    let cfg = DurabilityConfig::new(&dir);
    let mut session =
        Session::from_preset("s", &preset_config("tiny").unwrap(), seed, 6).expect("session");
    let ops: Vec<(u8, u32, u32)> =
        vec![(0, 3, 5), (5, 0, 0), (2, 1, 0), (1, 2, 2), (4, 0, 0), (3, 0, 9), (5, 1, 0)];
    let (bodies, lens) = run_stream(&mut session, &dir, &cfg, &ops);
    assert!(bodies.len() >= 5, "stream must exercise several records");
    let wal_len: usize = lens.iter().sum();

    for cut in 0..=wal_len {
        let mut rec = crash_and_recover(&dir, cut, &cfg)
            .unwrap_or_else(|e| panic!("cut {cut}: recovery must not die: {e}"));
        let k = surviving(&lens, cut);
        assert_eq!(rec.replayed, k, "cut {cut}: exactly the whole prefix replays");
        assert_eq!(rec.lsn, k as u64, "cut {cut}");
        assert!(
            !matches!(rec.note, RecoveryNote::CorruptReadOnly { .. }),
            "cut {cut}: truncation is a torn tail, never corruption: {:?}",
            rec.note
        );
        let mut twin = twin_after(seed, k, &bodies);
        assert_eq!(
            rec.session.env_mut().state(),
            twin.env_mut().state(),
            "cut {cut}: recovered state must be bit-identical"
        );
        assert_eq!(
            rec.session.env_mut().observe(),
            twin.env_mut().observe(),
            "cut {cut}: recovered observation must be bit-identical"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random op streams × random kill offsets: the generalization of
    /// the sweep above to arbitrary acknowledged histories.
    #[test]
    fn random_streams_recover_bit_identically_at_random_kill_points(
        seed in 0u64..6,
        ops in prop::collection::vec((0u8..6, 0u32..60, 0u32..60), 1..18),
        cuts in prop::collection::vec(0usize..1_000_000, 1..4),
    ) {
        let dir = scratch("rand");
        let cfg = DurabilityConfig::new(&dir);
        let mut session =
            Session::from_preset("s", &preset_config("tiny").unwrap(), seed, 6).expect("session");
        let (bodies, lens) = run_stream(&mut session, &dir, &cfg, &ops);
        let wal_len: usize = lens.iter().sum();
        for cut in cuts {
            let cut = cut % (wal_len + 1);
            let mut rec = crash_and_recover(&dir, cut, &cfg)
                .unwrap_or_else(|e| panic!("cut {cut}: recovery must not die: {e}"));
            let k = surviving(&lens, cut);
            prop_assert_eq!(rec.replayed, k, "cut {}", cut);
            prop_assert!(
                !matches!(rec.note, RecoveryNote::CorruptReadOnly { .. }),
                "cut {}: {:?}", cut, rec.note
            );
            let mut twin = twin_after(seed, k, &bodies);
            prop_assert_eq!(rec.session.env_mut().state(), twin.env_mut().state(), "cut {}", cut);
            prop_assert!(
                rec.session.env_mut().observe() == twin.env_mut().observe(),
                "cut {}: observation mismatch", cut
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Compaction safety: with aggressive compaction the crash can land
    /// in any of the snapshot-rename / log-swap windows; recovery off the
    /// *live* directory (whatever files the crash left) must still equal
    /// the full never-crashed history.
    #[test]
    fn aggressive_compaction_leaves_a_recoverable_directory(
        seed in 0u64..6,
        ops in prop::collection::vec((0u8..6, 0u32..60, 0u32..60), 1..18),
        snapshot_every in 1usize..4,
    ) {
        let dir = scratch("compact");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.snapshot_every = snapshot_every;
        let mut session =
            Session::from_preset("s", &preset_config("tiny").unwrap(), seed, 6).expect("session");
        let snap0 = session.snapshot(0);
        let mut log = SessionLog::install(dir.clone(), &cfg, &snap0, 0).expect("install");
        let mut bodies = Vec::new();
        for &(kind, a, b) in &ops {
            let body = match delta_of(kind, a, b, session.env_mut().state().num_vms() as u32) {
                Some(delta) => {
                    if session.apply_delta(&delta).is_err() {
                        continue;
                    }
                    WalBody::Delta(delta)
                }
                None => {
                    let Ok(r) = session.plan(&HaPolicy, &plan_req(2), true) else { continue };
                    WalBody::Commit(r.plan)
                }
            };
            let lsn = log.append(&body).expect("append");
            bodies.push(body);
            if log.compaction_due() {
                let snap = session.snapshot(lsn);
                log.maybe_compact(&snap).expect("compaction on a healthy disk");
            }
        }
        drop(log);
        let mut rec = recover_session("s", &dir, &cfg).expect("recover");
        prop_assert!(matches!(rec.note, RecoveryNote::Clean), "{:?}", rec.note);
        prop_assert_eq!(rec.lsn, bodies.len() as u64);
        let mut twin = twin_after(seed, bodies.len(), &bodies);
        // The recovered session is compared with the twin by the bytes
        // a compaction writes: cluster, constraints and MNL.
        prop_assert_eq!(snapshot_bytes(&mut rec.session), snapshot_bytes(&mut twin));
        prop_assert!(rec.session.env_mut().observe() == twin.env_mut().observe());
        let _ = fs::remove_dir_all(&dir);
    }
}
