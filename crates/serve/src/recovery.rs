//! Boot-time crash recovery: rebuild every durable session from its
//! snapshot file plus write-ahead-log tail.
//!
//! The contract (enforced by `tests/prop_wal.rs`): for *any* prefix of
//! the on-disk byte stream — i.e. a crash at any point of any append —
//! recovery yields a session whose state and warm
//! [`vmr_sim::obs_cache::ObsEngine`] observation are **bit-identical**
//! to a never-crashed twin that applied exactly the acknowledged
//! mutations. Torn tails are dropped whole by the CRC scan; mid-log
//! corruption degrades the session to read-only on its recovered good
//! prefix; a missing or invalid snapshot leaves the session registered
//! but dead (every request answers a structured `degraded` error) while
//! the daemon keeps serving everything else.

use std::fs;
use std::path::Path;

use crate::session::Session;
use crate::wal::{scan_log, DurabilityConfig, SessionLog, SnapshotFile, TailState, WalBody};
use vmr_sim::env::Action;
use vmr_sim::types::{PmId, VmId};

/// How one session came back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryNote {
    /// Snapshot + whole log tail replayed; read-write service resumes.
    Clean,
    /// A torn final record (crash mid-append) was detected by CRC and
    /// dropped whole; read-write service resumes from the good prefix.
    TornTailDropped {
        /// Bytes discarded after the last whole record.
        dropped_bytes: usize,
    },
    /// Mid-log corruption: the good prefix was recovered and is served
    /// **read-only**; the on-disk evidence is left untouched.
    CorruptReadOnly {
        /// Why the log was rejected.
        reason: String,
    },
}

/// One successfully (possibly partially) recovered session.
pub struct RecoveredSession {
    /// Session name (the directory name).
    pub name: String,
    /// The rebuilt live session, observation engine already warm.
    pub session: Session,
    /// Its durable stream, ready for further appends (or a read-only
    /// stub after corruption).
    pub log: SessionLog,
    /// LSN the session resumed at.
    pub lsn: u64,
    /// Log records replayed on top of the snapshot.
    pub replayed: usize,
    /// How the recovery went.
    pub note: RecoveryNote,
}

/// A session that could not be brought back at all.
#[derive(Debug, Clone)]
pub struct DeadSession {
    /// Session name.
    pub name: String,
    /// Why recovery failed.
    pub reason: String,
}

/// Everything found under a data dir.
pub struct Recovery {
    /// Sessions serving again (read-write or read-only).
    pub live: Vec<RecoveredSession>,
    /// Sessions registered but unrecoverable.
    pub dead: Vec<DeadSession>,
}

impl Recovery {
    /// A human-readable per-session report (what `vmr serve --data-dir`
    /// prints at boot).
    pub fn report(&self) -> String {
        let mut out = String::new();
        for s in &self.live {
            let status = match &s.note {
                RecoveryNote::Clean => "ok".to_string(),
                RecoveryNote::TornTailDropped { dropped_bytes } => {
                    format!("ok (torn tail: {dropped_bytes} bytes dropped)")
                }
                RecoveryNote::CorruptReadOnly { reason } => format!("READ-ONLY ({reason})"),
            };
            out.push_str(&format!(
                "recovered '{}': lsn {}, {} records replayed — {}\n",
                s.name, s.lsn, s.replayed, status
            ));
        }
        for d in &self.dead {
            out.push_str(&format!("DEGRADED '{}': {}\n", d.name, d.reason));
        }
        if self.live.is_empty() && self.dead.is_empty() {
            out.push_str("no durable sessions found\n");
        }
        out
    }
}

/// Converts a logged wire plan back into simulator actions.
pub fn wire_plan_actions(plan: &[crate::proto::WireAction]) -> Vec<Action> {
    plan.iter().map(|a| Action { vm: VmId(a.vm), pm: PmId(a.to_pm) }).collect()
}

/// A session directory's durable state, rebuilt without writing
/// anything: the validated snapshot with the log's intact records
/// replayed on top, up to the first that fails.
struct Durable {
    /// The rebuilt session, observation engine already warm.
    session: Session,
    /// LSN of the last record applied (the snapshot's when none was).
    lsn: u64,
    /// Records applied on top of the snapshot.
    replayed: usize,
    /// Why replay stopped short of the intact log's end, if it did.
    failed: Option<String>,
    /// The log scan's highest LSN and how it ended.
    last_lsn: u64,
    tail: TailState,
}

/// The one loader behind [`replay_durable`] and [`recover_session`]:
/// read, parse and validate the snapshot, scan the log, replay it.
fn load_durable(name: &str, dir: &Path) -> Result<Durable, String> {
    let (snap_path, wal_path) = SessionLog::files_of(dir);
    let snap_bytes = fs::read(&snap_path)
        .map_err(|e| format!("missing or unreadable snapshot {}: {e}", snap_path.display()))?;
    let snap: SnapshotFile = serde_json::from_slice(&snap_bytes)
        .map_err(|e| format!("unparseable snapshot {}: {e:?}", snap_path.display()))?;
    let mut session = Session::from_snapshot(name, snap.snapshot)
        .map_err(|e| format!("snapshot failed validation: {e}"))?;

    // A missing log with a healthy snapshot is a legal crash window
    // (between the snapshot rename and the fresh-log swap): empty tail.
    let wal_bytes = fs::read(&wal_path).unwrap_or_default();
    let scan = scan_log(&wal_bytes, snap.lsn);

    let (mut lsn, mut replayed, mut failed) = (snap.lsn, 0, None);
    for record in &scan.records {
        let result = match &record.body {
            WalBody::Delta(delta) => session.apply_delta(delta).map(|_| ()),
            WalBody::Commit(plan) => session.commit_plan(&wire_plan_actions(plan)),
        };
        if let Err(e) = result {
            // Only acknowledged (hence once-successful, deterministic)
            // mutations are logged, so a replay failure means the log
            // does not describe this snapshot: stop at the good prefix
            // rather than guess.
            failed = Some(format!("replay of lsn {} failed: {e}", record.lsn));
            break;
        }
        lsn = record.lsn;
        replayed += 1;
    }
    warm(&mut session);
    Ok(Durable { session, lsn, replayed, failed, last_lsn: scan.last_lsn, tail: scan.tail })
}

/// Rebuilds the durable state of a session directory without writing
/// anything: snapshot plus the intact log prefix. The server uses this
/// to re-align its in-memory state after a failed WAL append — the
/// refused mutation was already applied in memory, and the read-only
/// session must serve exactly the acknowledged history, not the
/// refused tail.
pub fn replay_durable(name: &str, dir: &Path) -> Result<(Session, u64), String> {
    let durable = load_durable(name, dir)?;
    Ok((durable.session, durable.lsn))
}

/// Recovers one session directory. `Err(reason)` means the session is
/// dead (nothing trustworthy to serve).
pub fn recover_session(
    name: &str,
    dir: &Path,
    cfg: &DurabilityConfig,
) -> Result<RecoveredSession, String> {
    let Durable { mut session, lsn, replayed, failed, last_lsn, tail } = load_durable(name, dir)?;
    let read_only = |session: Session, lsn: u64, reason: String| RecoveredSession {
        name: name.to_string(),
        session,
        log: SessionLog::read_only_stub(dir.to_path_buf(), cfg, lsn, reason.clone()),
        lsn,
        replayed,
        note: RecoveryNote::CorruptReadOnly { reason },
    };
    // A failed replay degrades to read-only on the good prefix.
    if let Some(reason) = failed {
        return Ok(read_only(session, lsn, reason));
    }
    let lsn = last_lsn;
    let note = match tail {
        TailState::Corrupt { at_offset, reason } => {
            let reason = format!("wal corrupt at byte {at_offset}: {reason}");
            return Ok(read_only(session, lsn, reason));
        }
        TailState::Torn { dropped_bytes } => RecoveryNote::TornTailDropped { dropped_bytes },
        TailState::Clean => RecoveryNote::Clean,
    };
    // Re-anchor durability at the recovered state: fresh snapshot +
    // empty log. If even that fails (e.g. the disk is still broken),
    // serve read-only instead of dying.
    let snapshot = session.snapshot(lsn);
    let log = match SessionLog::install(dir.to_path_buf(), cfg, &snapshot, lsn) {
        Ok(log) => log,
        Err(e) => SessionLog::read_only_stub(
            dir.to_path_buf(),
            cfg,
            lsn,
            format!("cannot re-anchor log after recovery: {e}"),
        ),
    };
    Ok(RecoveredSession { name: name.to_string(), session, log, lsn, replayed, note })
}

/// Rebuilds the warm observation engine so the first request after boot
/// pays no O(cluster) featurization.
fn warm(session: &mut Session) {
    let _ = session.env_mut().observe();
}

/// Scans `<data_dir>/sessions/*` and recovers everything found.
pub fn recover_dir(cfg: &DurabilityConfig) -> std::io::Result<Recovery> {
    let mut live = Vec::new();
    let mut dead = Vec::new();
    let sessions = cfg.sessions_dir();
    if !sessions.exists() {
        return Ok(Recovery { live, dead });
    }
    let mut names: Vec<String> = fs::read_dir(&sessions)?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        let dir = sessions.join(&name);
        match recover_session(&name, &dir, cfg) {
            Ok(s) => live.push(s),
            Err(reason) => dead.push(DeadSession { name, reason }),
        }
    }
    Ok(Recovery { live, dead })
}
