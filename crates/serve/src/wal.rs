//! Per-session write-ahead log: the durable source of truth behind
//! `vmr serve --data-dir`.
//!
//! Every mutation a session acknowledges — an applied [`ClusterDelta`],
//! a committed plan — is first appended to the session's log as a
//! length-prefixed, CRC32-checksummed record carrying a monotone LSN,
//! and fsynced (group-commit: every [`DurabilityConfig::sync_every`]
//! records) before the response goes out. Periodically the log is
//! compacted: the committed state is serialized through the existing
//! [`SessionSnapshot`] shape into an atomically-renamed snapshot file,
//! and a fresh (empty) log replaces the old one. Recovery (see
//! [`crate::recovery`]) is snapshot + log tail.
//!
//! ## On-disk layout
//!
//! ```text
//! <data-dir>/sessions/<name>/snapshot.json   # SnapshotFile { lsn, snapshot }
//! <data-dir>/sessions/<name>/wal.log         # records with lsn > snapshot.lsn
//! ```
//!
//! ## Record format
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = serde_json(WalRecord { lsn, body })
//! ```
//!
//! A torn tail (crash mid-append: short header, short payload, or a
//! checksum mismatch running to end-of-file) is detected and *dropped
//! whole* — a record is either fully applied at recovery or not at all.
//! A checksum/framing failure with more bytes behind it is corruption,
//! not a crash artifact: the scan stops there, recovery serves the good
//! prefix, and the session degrades to read-only instead of guessing.
//!
//! All file writes go through the [`WalIo`] trait so the fault-injection
//! harness ([`FaultControl`]) can fail, short-write, or delay any append
//! or fsync on command — which is how the disk-full / torn-write /
//! corrupt-record recovery paths stay tested instead of theoretical.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use vmr_sim::env::ClusterDelta;
use vmr_telemetry::{Histogram, Timer};

use crate::proto::{DurabilityStats, SessionSnapshot, WireAction};

/// Optional phase histograms a [`SessionLog`] records into. `Default`
/// (all `None`) records nothing; the daemon hands every log its
/// pre-registered `serve_wal_*` handles so append, fsync, and compaction
/// time show up split out in the `metrics` op.
#[derive(Clone, Default)]
pub struct WalMetrics {
    /// Record encode + file append time (excludes the group-commit
    /// fsync, which has its own histogram).
    pub append: Option<Arc<Histogram>>,
    /// Group-commit fsync time.
    pub fsync: Option<Arc<Histogram>>,
    /// Snapshot compaction time (serialize + atomic rename + log swap).
    pub compact: Option<Arc<Histogram>>,
}

impl WalMetrics {
    fn observe(hist: &Option<Arc<Histogram>>, t: Timer) {
        if let Some(h) = hist {
            t.observe(h);
        }
    }
}

/// Sanity cap on one record's payload (far above any real delta; a
/// length field beyond this is treated as corruption, not allocation
/// advice).
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// One durable mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalBody {
    /// A [`ClusterDelta`] the session applied and acknowledged.
    Delta(ClusterDelta),
    /// A plan the session committed (replayed action by action at
    /// recovery, exactly like the live commit path).
    Commit(Vec<WireAction>),
}

/// One log record: monotone LSN plus the mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Log sequence number: strictly increasing within a session, never
    /// reset (compaction remembers it in the snapshot file).
    pub lsn: u64,
    /// The mutation.
    pub body: WalBody,
}

/// The snapshot file: the committed state as of `lsn` (log records with
/// `lsn` ≤ this are already folded in and skipped at replay).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotFile {
    /// LSN the snapshot covers.
    pub lsn: u64,
    /// The state, in the existing wire-snapshot serialization.
    pub snapshot: SessionSnapshot,
}

/// A [`SnapshotFile`] over a borrowed state, serialized to the same bytes
/// (hand-written: the derive shim takes no lifetimes), so compaction
/// writes the file without copying the state first.
struct SnapshotFileRef<'a> {
    lsn: u64,
    snapshot: &'a SessionSnapshot,
}

impl Serialize for SnapshotFileRef<'_> {
    fn __write_json(&self, out: &mut String) {
        out.push_str("{\"lsn\":");
        self.lsn.__write_json(out);
        out.push_str(",\"snapshot\":");
        self.snapshot.__write_json(out);
        out.push('}');
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — table-driven, built at compile time.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c; // vmr-analyze: allow(P001) reason="const fn; i < 256 is the loop bound of the 256-slot table"
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        // vmr-analyze: allow(P001) reason="index masked to 0..=255 against the 256-entry table"
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Encodes one record into the on-disk framing.
pub fn encode_record(record: &WalRecord) -> io::Result<Vec<u8>> {
    let payload = serde_json::to_string(record)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    let payload = payload.as_bytes();
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// How a log scan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailState {
    /// The file ends exactly on a record boundary.
    Clean,
    /// The file ends with an incomplete record (crash mid-append): the
    /// torn bytes were dropped whole.
    Torn {
        /// Bytes discarded after the last whole record.
        dropped_bytes: usize,
    },
    /// A record failed its checksum / framing / LSN-monotonicity check
    /// with more data behind it: real corruption. Everything from the
    /// bad record on is dropped and the session must not append again.
    Corrupt {
        /// Byte offset of the bad record.
        at_offset: usize,
        /// Why the record was rejected.
        reason: String,
    },
}

/// Result of scanning a log file.
#[derive(Debug)]
pub struct LogScan {
    /// The whole, checksummed, monotone records with `lsn > after_lsn`.
    pub records: Vec<WalRecord>,
    /// Highest LSN seen (including skipped pre-snapshot records);
    /// `after_lsn` if the log held none.
    pub last_lsn: u64,
    /// How the scan ended.
    pub tail: TailState,
}

/// Scans raw log bytes, validating framing, CRC, and LSN monotonicity.
///
/// Records with `lsn <= after_lsn` are validated but skipped — they are
/// already folded into the snapshot (a crash between the snapshot rename
/// and the log swap legitimately leaves them behind).
pub fn scan_log(bytes: &[u8], after_lsn: u64) -> LogScan {
    let mut records = Vec::new();
    let mut last_lsn = after_lsn;
    let mut offset = 0usize;
    let mut prev_lsn: Option<u64> = None;
    loop {
        // vmr-analyze: allow(P001) reason="offset advances by exactly the bytes consumed, so it never passes len"
        let rest = &bytes[offset..];
        if rest.is_empty() {
            return LogScan { records, last_lsn, tail: TailState::Clean };
        }
        if rest.len() < 8 {
            return LogScan {
                records,
                last_lsn,
                tail: TailState::Torn { dropped_bytes: rest.len() },
            };
        }
        // vmr-analyze: allow(P001) reason="rest.len() >= 8 checked above; torn tails return before this"
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        // vmr-analyze: allow(P001) reason="rest.len() >= 8 checked above; torn tails return before this"
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_BYTES {
            return LogScan {
                records,
                last_lsn,
                tail: TailState::Corrupt {
                    at_offset: offset,
                    reason: format!("record length {len} exceeds the {MAX_RECORD_BYTES}-byte cap"),
                },
            };
        }
        if rest.len() - 8 < len {
            // The payload runs past end-of-file: a torn append.
            return LogScan {
                records,
                last_lsn,
                tail: TailState::Torn { dropped_bytes: rest.len() },
            };
        }
        // vmr-analyze: allow(P001) reason="rest.len() - 8 >= len checked above (torn-append branch)"
        let payload = &rest[8..8 + len];
        let reject = |reason: String, records: Vec<WalRecord>, last_lsn: u64| {
            // A bad record followed by nothing is indistinguishable from
            // a torn append; a bad record with data behind it is not.
            if offset + 8 + len == bytes.len() {
                LogScan {
                    records,
                    last_lsn,
                    tail: TailState::Torn { dropped_bytes: bytes.len() - offset },
                }
            } else {
                LogScan {
                    records,
                    last_lsn,
                    tail: TailState::Corrupt { at_offset: offset, reason },
                }
            }
        };
        if crc32(payload) != crc {
            return reject("checksum mismatch".into(), records, last_lsn);
        }
        let record: WalRecord = match serde_json::from_slice(payload) {
            Ok(r) => r,
            Err(e) => return reject(format!("unparseable payload: {e:?}"), records, last_lsn),
        };
        if let Some(prev) = prev_lsn {
            if record.lsn <= prev {
                return reject(
                    format!("LSN {} not monotone after {}", record.lsn, prev),
                    records,
                    last_lsn,
                );
            }
        }
        prev_lsn = Some(record.lsn);
        if record.lsn > after_lsn {
            last_lsn = record.lsn;
            records.push(record);
        }
        offset += 8 + len;
    }
}

// ---------------------------------------------------------------------------
// The write path: a pluggable file handle so faults can be injected.
// ---------------------------------------------------------------------------

/// A writable log/snapshot file. The factory always creates (or
/// truncates) the file at the given path — `SessionLog` never reopens a
/// file for append, so every handle starts at offset zero.
pub trait WalIo: Send {
    /// Appends bytes at the end of the file.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Makes everything appended so far durable (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

/// Opens a [`WalIo`] handle (create-or-truncate) at a path.
pub type WalIoFactory = Arc<dyn Fn(&Path) -> io::Result<Box<dyn WalIo>> + Send + Sync>;

struct FileIo(File);

impl WalIo for FileIo {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

/// The production factory: plain `std::fs::File` with `sync_all`.
pub fn file_io_factory() -> WalIoFactory {
    Arc::new(|path: &Path| Ok(Box::new(FileIo(File::create(path)?)) as Box<dyn WalIo>))
}

/// Shared remote control for the fault-injection harness: flip a switch
/// here and the next I/O operation on any [`WalIo`] built by
/// [`FaultControl::factory`] misbehaves accordingly.
#[derive(Default)]
pub struct FaultControl {
    /// Fail the next N appends with `ENOSPC`-style errors (disk full).
    pub fail_appends: AtomicU32,
    /// Short-write the next N appends: write only the first half of the
    /// buffer but report success — the torn-write crash simulation.
    pub short_appends: AtomicU32,
    /// Fail the next N fsyncs.
    pub fail_syncs: AtomicU32,
    /// Delay every append by this many microseconds (slow-disk mode).
    pub delay_us: AtomicU64,
}

impl FaultControl {
    /// A fresh, all-healthy control.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Wraps the production file I/O with this control.
    pub fn factory(self: &Arc<Self>) -> WalIoFactory {
        let ctl = Arc::clone(self);
        let inner = file_io_factory();
        Arc::new(move |path: &Path| {
            let io = inner(path)?;
            Ok(Box::new(FaultyIo { inner: io, ctl: Arc::clone(&ctl) }) as Box<dyn WalIo>)
        })
    }

    fn take(counter: &AtomicU32) -> bool {
        counter.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok()
    }
}

struct FaultyIo {
    inner: Box<dyn WalIo>,
    ctl: Arc<FaultControl>,
}

impl WalIo for FaultyIo {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        // vmr-analyze: allow(A001) reason="fault-injection knob read by the test harness; no ordering contract with other memory"
        let delay = self.ctl.delay_us.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(std::time::Duration::from_micros(delay));
        }
        if FaultControl::take(&self.ctl.fail_appends) {
            return Err(io::Error::new(io::ErrorKind::StorageFull, "injected: disk full"));
        }
        if FaultControl::take(&self.ctl.short_appends) {
            // Half the bytes land, success is reported: the record is
            // torn on disk but the writer does not know.
            // vmr-analyze: allow(P001) reason="len/2 <= len; deliberately short test-harness write"
            return self.inner.append(&buf[..buf.len() / 2]);
        }
        self.inner.append(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        if FaultControl::take(&self.ctl.fail_syncs) {
            return Err(io::Error::new(io::ErrorKind::StorageFull, "injected: fsync failed"));
        }
        self.inner.sync()
    }
}

// ---------------------------------------------------------------------------
// Durability configuration.
// ---------------------------------------------------------------------------

/// Durability settings for a daemon (carried in
/// [`crate::server::ServerConfig`]).
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Root directory; sessions live under `<data_dir>/sessions/<name>`.
    pub data_dir: PathBuf,
    /// Group-commit factor: fsync after every N appended records. 1 (the
    /// default) makes every acknowledged mutation durable before the
    /// response; N > 1 trades an (N−1)-record acked-but-unsynced crash
    /// window for throughput.
    pub sync_every: usize,
    /// Compact (snapshot + fresh log) after this many records.
    pub snapshot_every: usize,
    /// File I/O constructor — swap in [`FaultControl::factory`] to test
    /// failure paths.
    pub io: WalIoFactory,
}

impl DurabilityConfig {
    /// Production defaults rooted at `data_dir`.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: data_dir.into(),
            sync_every: 1,
            snapshot_every: 64,
            io: file_io_factory(),
        }
    }

    /// The directory holding all session subdirectories.
    pub fn sessions_dir(&self) -> PathBuf {
        self.data_dir.join("sessions")
    }
}

/// Maps a session name to its directory name, or `None` when the name is
/// not filesystem-safe (durable daemons reject such names at
/// `create_session`).
pub fn session_dir_name(name: &str) -> Option<&str> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.');
    ok.then_some(name)
}

// ---------------------------------------------------------------------------
// SessionLog: one session's durable stream.
// ---------------------------------------------------------------------------

const SNAPSHOT_FILE: &str = "snapshot.json";
const WAL_FILE: &str = "wal.log";

/// The durable half of one live session: owns the log file handle, LSN
/// counters, the fsync discipline, and compaction. All methods are
/// called under the owning session's lock.
pub struct SessionLog {
    dir: PathBuf,
    io: WalIoFactory,
    sync_every: usize,
    snapshot_every: usize,
    writer: Option<Box<dyn WalIo>>,
    /// LSN of the last appended record (0 = none yet).
    appended_lsn: u64,
    /// LSN of the last record known fsynced.
    durable_lsn: u64,
    /// LSN the current snapshot file covers.
    snapshot_lsn: u64,
    unsynced: usize,
    since_snapshot: usize,
    log_bytes: u64,
    read_only: Option<String>,
    metrics: WalMetrics,
}

impl std::fmt::Debug for SessionLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionLog")
            .field("dir", &self.dir)
            .field("appended_lsn", &self.appended_lsn)
            .field("durable_lsn", &self.durable_lsn)
            .field("snapshot_lsn", &self.snapshot_lsn)
            .field("read_only", &self.read_only)
            .finish()
    }
}

impl SessionLog {
    /// Creates the durable artifacts for a session whose committed state
    /// is `snapshot`, covering everything up to `at_lsn` (0 for a brand
    /// new session): snapshot file first (write-temp + fsync + rename),
    /// then a fresh empty log. Used at `create_session`, at `restore`,
    /// and to finish a recovery.
    pub fn install(
        dir: PathBuf,
        cfg: &DurabilityConfig,
        snapshot: &SessionSnapshot,
        at_lsn: u64,
    ) -> io::Result<SessionLog> {
        fs::create_dir_all(&dir)?;
        let mut log = SessionLog {
            dir,
            io: Arc::clone(&cfg.io),
            sync_every: cfg.sync_every.max(1),
            snapshot_every: cfg.snapshot_every.max(1),
            writer: None,
            appended_lsn: at_lsn,
            durable_lsn: at_lsn,
            snapshot_lsn: at_lsn,
            unsynced: 0,
            since_snapshot: 0,
            log_bytes: 0,
            read_only: None,
            metrics: WalMetrics::default(),
        };
        log.write_snapshot_and_reset(snapshot)?;
        Ok(log)
    }

    /// A stub for a session recovered from a corrupt log: state is
    /// served read-only, nothing is ever appended, the on-disk evidence
    /// is left untouched.
    pub fn read_only_stub(
        dir: PathBuf,
        cfg: &DurabilityConfig,
        at_lsn: u64,
        reason: String,
    ) -> Self {
        SessionLog {
            dir,
            io: Arc::clone(&cfg.io),
            sync_every: cfg.sync_every.max(1),
            snapshot_every: cfg.snapshot_every.max(1),
            writer: None,
            appended_lsn: at_lsn,
            durable_lsn: at_lsn,
            snapshot_lsn: at_lsn,
            unsynced: 0,
            since_snapshot: 0,
            log_bytes: 0,
            read_only: Some(reason),
            metrics: WalMetrics::default(),
        }
    }

    /// Attaches the daemon's WAL phase histograms (recording is skipped
    /// while unset, e.g. in unit tests).
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = metrics;
    }

    /// Why the session refuses mutations, if it does.
    pub fn read_only(&self) -> Option<&str> {
        self.read_only.as_deref()
    }

    /// Degrades the session to read-only (called when an append or fsync
    /// fails: memory may be ahead of disk, so no further mutation can be
    /// made durable truthfully).
    pub fn mark_read_only(&mut self, reason: impl Into<String>) {
        if self.read_only.is_none() {
            self.read_only = Some(reason.into());
            self.writer = None;
        }
    }

    /// Appends one record and applies the group-commit policy. Returns
    /// the record's LSN. On error the caller must degrade the session
    /// ([`SessionLog::mark_read_only`]).
    pub fn append(&mut self, body: &WalBody) -> io::Result<u64> {
        if let Some(reason) = &self.read_only {
            return Err(io::Error::new(io::ErrorKind::ReadOnlyFilesystem, reason.clone()));
        }
        let t = Timer::start();
        let lsn = self.appended_lsn + 1;
        let bytes = encode_record(&WalRecord { lsn, body: body.clone() })?;
        let writer = self
            .writer
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "log writer missing"))?;
        writer.append(&bytes)?;
        WalMetrics::observe(&self.metrics.append, t);
        self.appended_lsn = lsn;
        self.log_bytes += bytes.len() as u64;
        self.unsynced += 1;
        self.since_snapshot += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(lsn)
    }

    /// Fsyncs pending appends (no-op when nothing is pending).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        let writer = self
            .writer
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "log writer missing"))?;
        let t = Timer::start();
        writer.sync()?;
        WalMetrics::observe(&self.metrics.fsync, t);
        self.durable_lsn = self.appended_lsn;
        self.unsynced = 0;
        Ok(())
    }

    /// Whether the next [`SessionLog::maybe_compact`] would compact —
    /// callers check this first so they only serialize the (possibly
    /// large) state when a compaction is actually due.
    pub fn compaction_due(&self) -> bool {
        self.read_only.is_none() && self.since_snapshot >= self.snapshot_every
    }

    /// Re-anchors the durable artifacts at `at_lsn`: fresh snapshot +
    /// empty log, regardless of `snapshot_every`. Used by the `restore`
    /// wire op, whose installed snapshot *is* the new history (the
    /// restore consumes an LSN like any other mutation, so session
    /// versions and LSNs stay aligned across recoveries).
    pub fn reanchor(&mut self, snapshot: &SessionSnapshot, at_lsn: u64) -> io::Result<()> {
        if let Some(reason) = &self.read_only {
            return Err(io::Error::new(io::ErrorKind::ReadOnlyFilesystem, reason.clone()));
        }
        self.sync()?;
        self.appended_lsn = at_lsn;
        self.write_snapshot_and_reset(snapshot)
    }

    /// Compacts when due. Failure is *safe to ignore*: the old snapshot
    /// plus the old log remain a complete recovery source (replay skips
    /// records at or below the snapshot LSN), so the caller just retries
    /// at the next append. Returns whether a compaction happened.
    pub fn maybe_compact(&mut self, snapshot: &SessionSnapshot) -> io::Result<bool> {
        if self.read_only.is_some() || self.since_snapshot < self.snapshot_every {
            return Ok(false);
        }
        let t = Timer::start();
        self.sync()?;
        self.write_snapshot_and_reset(snapshot)?;
        WalMetrics::observe(&self.metrics.compact, t);
        Ok(true)
    }

    /// Writes the snapshot file atomically, then swaps in a fresh log.
    /// On any failure the previous writer (if any) stays active and the
    /// previous files stay authoritative.
    fn write_snapshot_and_reset(&mut self, snapshot: &SessionSnapshot) -> io::Result<()> {
        let file = SnapshotFileRef { lsn: self.appended_lsn, snapshot };
        let body = serde_json::to_string(&file)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        let tmp = self.dir.join("snapshot.json.tmp");
        {
            let mut io = (self.io)(&tmp)?;
            io.append(body.as_bytes())?;
            io.sync()?;
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // New empty log via temp + rename; the renamed handle stays
        // valid (fd-based) and becomes the active writer.
        let wal_tmp = self.dir.join("wal.log.tmp");
        let mut writer = (self.io)(&wal_tmp)?;
        writer.sync()?;
        fs::rename(&wal_tmp, self.dir.join(WAL_FILE))?;
        // Make the renames themselves durable.
        File::open(&self.dir)?.sync_all()?;
        self.writer = Some(writer);
        self.snapshot_lsn = self.appended_lsn;
        self.durable_lsn = self.appended_lsn;
        self.unsynced = 0;
        self.since_snapshot = 0;
        self.log_bytes = 0;
        Ok(())
    }

    /// Wire-visible gauges.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            appended_lsn: self.appended_lsn,
            durable_lsn: self.durable_lsn,
            snapshot_lsn: self.snapshot_lsn,
            log_bytes: self.log_bytes,
            read_only: self.read_only.is_some(),
            reason: self.read_only.clone().unwrap_or_default(),
        }
    }

    /// The session's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Paths of the snapshot and log files inside a session directory.
    pub fn files_of(dir: &Path) -> (PathBuf, PathBuf) {
        (dir.join(SNAPSHOT_FILE), dir.join(WAL_FILE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_sim::types::VmId;

    fn body(i: u32) -> WalBody {
        if i.is_multiple_of(3) {
            WalBody::Commit(vec![WireAction { vm: i, from_pm: 0, to_pm: 1 }])
        } else {
            WalBody::Delta(ClusterDelta::VmResize { vm: VmId(i), cpu: 4, mem: 8 })
        }
    }

    fn encode_stream(n: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        for i in 0..n {
            bytes.extend(encode_record(&WalRecord { lsn: (i + 1) as u64, body: body(i) }).unwrap());
        }
        bytes
    }

    #[test]
    fn the_snapshot_file_is_written_from_the_borrowed_state_byte_for_byte() {
        let state = vmr_sim::dataset::generate_mapping(&vmr_sim::dataset::ClusterConfig::tiny(), 3)
            .expect("tiny mapping");
        let constraints = vmr_sim::constraints::ConstraintSet::new(state.num_vms());
        let snapshot = SessionSnapshot { state, constraints, mnl: 6, version: 7 };
        let dir = std::env::temp_dir().join(format!("vmr_wal_snapshot_ref_{}", std::process::id()));
        let cfg = DurabilityConfig::new(&dir);
        SessionLog::install(dir.clone(), &cfg, &snapshot, 42).expect("install");
        let written = fs::read_to_string(dir.join(SNAPSHOT_FILE)).expect("snapshot file");
        let owned = SnapshotFile { lsn: 42, snapshot: snapshot.clone() };
        assert_eq!(written, serde_json::to_string(&owned).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scan_roundtrips_and_skips_pre_snapshot_records() {
        let bytes = encode_stream(6);
        let scan = scan_log(&bytes, 0);
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.records.len(), 6);
        assert_eq!(scan.last_lsn, 6);
        // Records folded into a snapshot at lsn 4 are skipped.
        let scan = scan_log(&bytes, 4);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].lsn, 5);
    }

    #[test]
    fn every_truncation_point_yields_a_whole_prefix() {
        let bytes = encode_stream(5);
        let full = scan_log(&bytes, 0);
        // Record boundaries, for cross-checking which prefix survives.
        let mut boundaries = vec![0usize];
        {
            let mut off = 0;
            while off < bytes.len() {
                let len = u32::from_le_bytes([
                    bytes[off],
                    bytes[off + 1],
                    bytes[off + 2],
                    bytes[off + 3],
                ]) as usize;
                off += 8 + len;
                boundaries.push(off);
            }
        }
        for cut in 0..bytes.len() {
            let scan = scan_log(&bytes[..cut], 0);
            let whole = boundaries.iter().filter(|&&b| b <= cut && b > 0).count();
            assert_eq!(scan.records.len(), whole, "cut at {cut}");
            assert_eq!(scan.records[..], full.records[..whole], "cut at {cut}");
            if cut == *boundaries.last().unwrap() || boundaries.contains(&cut) {
                assert_eq!(scan.tail, TailState::Clean, "cut at {cut}");
            } else {
                assert!(
                    matches!(scan.tail, TailState::Torn { .. }),
                    "cut at {cut}: {:?}",
                    scan.tail
                );
            }
        }
    }

    #[test]
    fn mid_log_corruption_is_distinguished_from_a_torn_tail() {
        let mut bytes = encode_stream(4);
        // Flip one payload byte inside record 2 (there is data behind it).
        let len0 = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        bytes[8 + len0 + 12] ^= 0x40;
        let scan = scan_log(&bytes, 0);
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(scan.tail, TailState::Corrupt { .. }), "{:?}", scan.tail);
        // The same flip in the *last* record reads as a torn tail.
        let mut bytes = encode_stream(2);
        let n = bytes.len();
        bytes[n - 3] ^= 0x40;
        let scan = scan_log(&bytes, 0);
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(scan.tail, TailState::Torn { .. }), "{:?}", scan.tail);
    }

    #[test]
    fn non_monotone_lsn_is_corruption() {
        let mut bytes = Vec::new();
        bytes.extend(encode_record(&WalRecord { lsn: 3, body: body(1) }).unwrap());
        bytes.extend(encode_record(&WalRecord { lsn: 3, body: body(2) }).unwrap());
        bytes.extend(encode_record(&WalRecord { lsn: 4, body: body(4) }).unwrap());
        let scan = scan_log(&bytes, 0);
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(scan.tail, TailState::Corrupt { .. }));
    }

    #[test]
    fn session_dir_names_are_filesystem_safe() {
        assert!(session_dir_name("prod-eu_1.a").is_some());
        for bad in ["", ".", "..", ".hidden", "a/b", "a\\b", "a b", "naïve", &"x".repeat(200)] {
            assert!(session_dir_name(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn fault_control_counts_down() {
        let ctl = FaultControl::new();
        ctl.fail_appends.store(2, Ordering::SeqCst);
        assert!(FaultControl::take(&ctl.fail_appends));
        assert!(FaultControl::take(&ctl.fail_appends));
        assert!(!FaultControl::take(&ctl.fail_appends));
        assert!(!FaultControl::take(&ctl.fail_appends));
    }
}
