//! The crash-consistent replica store: CRC-framed state log, atomic
//! checkpoints, and an explicit recovery policy.
//!
//! PR 9's store appended raw protocol frames with no checksum, no fsync,
//! and O(applied stores) replay. This module pins the crash semantics
//! down:
//!
//! * **Log format** — every record is `[len u32][crc32 u32][body]` with
//!   the CRC taken over the body, and the body carries a *generation*
//!   stamp tying it to the checkpoint epoch it was written under. The
//!   file opens with an 8-byte `SNLG` header so a wrong-format file is
//!   refused instead of misparsed.
//! * **Torn tail vs. corruption** — an *incomplete* record at EOF is a
//!   crash artifact (the process died mid-append): replay truncates it,
//!   counts `snapshotd.store.truncated_bytes`, and emits a
//!   [`StoreTruncated`](snapshot_obs::Event::StoreTruncated) event. A
//!   *complete* record whose CRC mismatches is silent data damage:
//!   under [`RecoveryPolicy::Fail`] (the `snapshotd` default) it
//!   surfaces as a typed [`StoreError::Corrupt`] naming the byte
//!   offset; under [`RecoveryPolicy::Truncate`] the log is truncated
//!   from the corrupt record onward and recovery continues with what
//!   survived. Garbage is never silently replayed.
//! * **Checkpoints** — [`ReplicaStore::checkpoint`] writes the live
//!   register map to `<log>.ckpt.tmp`, fsyncs, renames over
//!   `<log>.ckpt`, fsyncs the directory, bumps the generation, then
//!   truncates the log. A crash (or truncate failure) after the rename
//!   leaves stale old-generation records in the log; replay skips them
//!   by the generation filter (and the max-by-tag merge is idempotent
//!   besides). Restart replay therefore costs O(live lanes×segments +
//!   records since the last checkpoint), not O(applied stores ever).
//! * **Fsync policy** — [`FsyncPolicy::Always`] syncs after every
//!   applied batch, before its ack (the durability the ABD ack
//!   nominally promises),
//!   `Interval` bounds the loss window, `Never` leaves durability to
//!   the OS (the PR 9 behavior).
//!
//! Everything is observable: `snapshotd.store.*` metrics and the
//! `Store*` obs events cover appends, fsyncs, checkpoints, replay
//! duration, and every byte recovery ever drops.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snapshot_obs::{Counter, Event, Registry, Trace};

use crate::frame::DEFAULT_MAX_FRAME;
use crate::proto::WireTag;
use crate::value::{put_bytes, Reader};

/// Magic opening the state log file.
const LOG_MAGIC: &[u8; 4] = b"SNLG";
/// Magic opening a checkpoint file.
const CKPT_MAGIC: &[u8; 4] = b"SNCK";
/// On-disk format version for both files.
const STORE_VERSION: u16 = 1;
/// Size of the log file header: magic + version + reserved.
const LOG_HEADER: u64 = 8;
/// Default upper bound on a single record body (see
/// [`StoreConfig::max_record`]); anything larger in a length field is
/// treated as corruption, not allocated.
const DEFAULT_MAX_RECORD: u32 = DEFAULT_MAX_FRAME + 64;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven; the workspace takes no checksum
// dependency.
// ---------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
            *slot = crc;
        }
        table
    })
}

/// CRC32 (IEEE) of `bytes` — the checksum framing every log record and
/// sealing every checkpoint.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------
// Policies, errors, configuration.
// ---------------------------------------------------------------------

/// What to do when recovery meets a *complete* log record whose CRC
/// does not match (mid-log corruption — never a torn tail, which is
/// always truncated).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Refuse to open: surface [`StoreError::Corrupt`] naming the
    /// offset. The operator decides; garbage is never replayed. This is
    /// the default.
    #[default]
    Fail,
    /// Truncate the log from the corrupt record onward and continue
    /// with what survived (counted and traced, like a torn tail).
    Truncate,
}

impl RecoveryPolicy {
    /// Parses `truncate` / `fail` (the `--recover` flag values).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "truncate" => Ok(RecoveryPolicy::Truncate),
            "fail" => Ok(RecoveryPolicy::Fail),
            other => Err(format!("--recover: `{other}` is not truncate|fail")),
        }
    }
}

/// When appended records reach the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every applied store batch: an acked write survives
    /// an immediate power cut. The durable choice, and the slow one.
    Always,
    /// Flush to the OS on every append, `fsync` at most once per the
    /// given interval: bounds the loss window without paying a sync per
    /// store.
    Interval(Duration),
    /// Flush to the OS only; durability is whenever the kernel gets to
    /// it.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Interval(Duration::from_millis(100))
    }
}

impl FsyncPolicy {
    /// Parses `always`, `never`, or `interval:MILLIS` (the `--fsync`
    /// flag values).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|e| format!("--fsync interval: {e}")),
                None => Err(format!("--fsync: `{other}` is not always|interval:MS|never")),
            },
        }
    }
}

/// Why a store failed to open or persist.
#[derive(Debug)]
pub enum StoreError {
    /// A complete record (or the checkpoint) failed its CRC or was
    /// structurally unparseable — silent data damage, refused under
    /// [`RecoveryPolicy::Fail`].
    Corrupt {
        /// Byte offset of the damaged record in the offending file.
        offset: u64,
        /// What was wrong, for the operator.
        detail: String,
    },
    /// An underlying filesystem error.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Corrupt { offset, detail } => {
                write!(f, "store corrupt at byte {offset}: {detail}")
            }
            StoreError::Io(e) => write!(f, "store io error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => io,
            corrupt => io::Error::new(io::ErrorKind::InvalidData, corrupt.to_string()),
        }
    }
}

/// Full configuration of a persistent store (the [`ReplicaStore::open`]
/// shorthand uses the defaults).
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// State log path; `None` keeps the store in memory only.
    pub path: Option<PathBuf>,
    /// When appends reach the disk.
    pub fsync: FsyncPolicy,
    /// What to do about mid-log corruption at open.
    pub recovery: RecoveryPolicy,
    /// Auto-checkpoint once the log grows past this many bytes
    /// (`u64::MAX` disables; explicit [`ReplicaStore::checkpoint`]
    /// always works).
    pub checkpoint_bytes: u64,
    /// Upper bound on a single log record body, in bytes. Replay treats
    /// a length field above this as corruption rather than allocating
    /// it, and append skips (and counts) a record that would exceed it,
    /// so an unreplayable record is never written. Servers derive this
    /// from their configured frame cap via
    /// [`StoreConfig::with_max_frame`]; reopening a log needs a cap at
    /// least as large as the one it was written under.
    pub max_record: u32,
    /// Registry for the `snapshotd.store.*` metrics (private when
    /// `None`).
    pub registry: Option<Arc<Registry>>,
    /// Trace for the `Store*` obs events (disabled when `None`).
    pub trace: Option<Trace>,
    /// Replica index stamped on emitted events.
    pub replica: u32,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            path: None,
            fsync: FsyncPolicy::default(),
            recovery: RecoveryPolicy::default(),
            checkpoint_bytes: 4 << 20,
            max_record: DEFAULT_MAX_RECORD,
            registry: None,
            trace: None,
            replica: 0,
        }
    }
}

impl StoreConfig {
    /// A persistent store at `path` with default policies.
    pub fn at(path: PathBuf) -> Self {
        StoreConfig { path: Some(path), ..StoreConfig::default() }
    }

    /// Sets the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the corruption recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the auto-checkpoint threshold in log bytes.
    pub fn with_checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_bytes = bytes;
        self
    }

    /// Derives the record cap from a wire frame cap: any value that
    /// fits in an accepted frame also fits in a log record (record
    /// framing adds well under 64 bytes).
    pub fn with_max_frame(mut self, max_frame: u32) -> Self {
        self.max_record = max_frame.saturating_add(64);
        self
    }

    /// Registers metrics on a shared registry.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Emits `Store*` obs events into `trace`.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Sets the replica index stamped on emitted events.
    pub fn with_replica(mut self, replica: u32) -> Self {
        self.replica = replica;
        self
    }
}

/// What recovery found and did when the store was opened — the numbers
/// `snapshotd` prints in its `recovered:` banner line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Registers restored from the checkpoint file.
    pub checkpoint_registers: u64,
    /// Log records replayed on top of the checkpoint (O(records since
    /// the last checkpoint), the whole point of checkpointing).
    pub replayed_records: u64,
    /// Log records skipped by the generation filter (stale survivors of
    /// a crash between checkpoint rename and log truncate).
    pub stale_records: u64,
    /// Bytes dropped from the log (torn tail, plus everything after a
    /// corrupt record under [`RecoveryPolicy::Truncate`]).
    pub truncated_bytes: u64,
    /// Offset of the mid-log corruption recovery truncated, if any
    /// (under [`RecoveryPolicy::Fail`] the open fails instead).
    pub corrupt_offset: Option<u64>,
    /// The generation the store resumed at.
    pub generation: u64,
    /// Replay wall time in microseconds.
    pub elapsed_us: u64,
}

// ---------------------------------------------------------------------
// Record encoding.
// ---------------------------------------------------------------------

fn encode_record_body(
    generation: u64,
    lane: u32,
    segment: u32,
    tag: WireTag,
    value: &[u8],
) -> Vec<u8> {
    let mut body = Vec::with_capacity(32 + value.len());
    body.extend_from_slice(&generation.to_le_bytes());
    body.extend_from_slice(&lane.to_le_bytes());
    body.extend_from_slice(&segment.to_le_bytes());
    body.extend_from_slice(&tag.seq.to_le_bytes());
    body.extend_from_slice(&tag.writer.to_le_bytes());
    put_bytes(&mut body, value);
    body
}

struct LogRecord {
    generation: u64,
    lane: u32,
    segment: u32,
    tag: WireTag,
    value: Vec<u8>,
}

fn decode_record_body(body: &[u8]) -> Result<LogRecord, String> {
    let mut r = Reader::new(body);
    let generation = r.u64().map_err(|e| e.to_string())?;
    let lane = r.u32().map_err(|e| e.to_string())?;
    let segment = r.u32().map_err(|e| e.to_string())?;
    let seq = r.u64().map_err(|e| e.to_string())?;
    let writer = r.u32().map_err(|e| e.to_string())?;
    let value = r.bytes("value").map_err(|e| e.to_string())?.to_vec();
    r.finish().map_err(|e| e.to_string())?;
    Ok(LogRecord { generation, lane, segment, tag: WireTag { seq, writer }, value })
}

/// Reads exactly `buf.len()` bytes, or returns how many were available
/// before EOF — the primitive that distinguishes a torn tail from a
/// complete-but-damaged record.
fn read_full(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

struct StoreMetrics {
    appends: Counter,
    fsyncs: Counter,
    checkpoints: Counter,
    checkpoint_bytes: Counter,
    replayed_records: Counter,
    replay_us: Counter,
    truncated_bytes: Counter,
    corrupt_records: Counter,
    checkpoint_failures: Counter,
    oversize_records: Counter,
}

impl StoreMetrics {
    fn new(registry: &Registry) -> Self {
        StoreMetrics {
            appends: registry.counter("snapshotd.store.appends"),
            fsyncs: registry.counter("snapshotd.store.fsyncs"),
            checkpoints: registry.counter("snapshotd.store.checkpoints"),
            checkpoint_bytes: registry.counter("snapshotd.store.checkpoint_bytes"),
            replayed_records: registry.counter("snapshotd.store.replayed_records"),
            replay_us: registry.counter("snapshotd.store.replay_us"),
            truncated_bytes: registry.counter("snapshotd.store.truncated_bytes"),
            corrupt_records: registry.counter("snapshotd.store.corrupt_records"),
            checkpoint_failures: registry.counter("snapshotd.store.checkpoint_failures"),
            oversize_records: registry.counter("snapshotd.store.oversize_records"),
        }
    }
}

// ---------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------

struct Persist {
    writer: BufWriter<File>,
    ckpt_path: PathBuf,
    generation: u64,
    /// Bytes currently in the log file, header included.
    log_bytes: u64,
    fsync: FsyncPolicy,
    last_sync: Instant,
    checkpoint_bytes: u64,
    max_record: u32,
}

/// `(lane, segment)` → the highest-tagged `(tag, value)` seen.
type RegisterMap = HashMap<(u32, u32), (WireTag, Arc<[u8]>)>;

/// The tagged register store of one replica: `(lane, segment)` →
/// highest-tagged `(tag, value)` seen, optionally persisted to a
/// CRC-framed, checkpointed state log (see the module docs for the
/// crash-consistency model).
///
/// Lock order is `map` then `log`: reads take only the map lock and
/// never wait on an fsync.
pub struct ReplicaStore {
    map: Mutex<RegisterMap>,
    log: Mutex<Option<Persist>>,
    metrics: StoreMetrics,
    trace: Trace,
    replica: u32,
    recovery: RecoverySummary,
}

impl ReplicaStore {
    /// An empty in-memory store (private metrics, no trace).
    pub fn in_memory() -> Self {
        let registry = Registry::default();
        ReplicaStore {
            map: Mutex::new(HashMap::new()),
            log: Mutex::new(None),
            metrics: StoreMetrics::new(&registry),
            trace: Trace::disabled(),
            replica: 0,
            recovery: RecoverySummary::default(),
        }
    }

    /// Opens (or creates) a persistent store logging to `path` with the
    /// default policies — see [`ReplicaStore::open_with`] for the
    /// configurable form.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::open_with(StoreConfig::at(path.to_path_buf()))
    }

    /// Opens a store per `config`, replaying the checkpoint and the log.
    ///
    /// Recovery is total: a torn tail is truncated (counted in
    /// `snapshotd.store.truncated_bytes` and traced), stale-generation
    /// records are skipped, and mid-log corruption is handled per
    /// `config.recovery` — truncated with the damage reported, or
    /// refused with [`StoreError::Corrupt`] naming the offset. It never
    /// panics on any file content.
    pub fn open_with(config: StoreConfig) -> Result<Self, StoreError> {
        let registry = config.registry.clone().unwrap_or_default();
        let mut store = ReplicaStore {
            map: Mutex::new(HashMap::new()),
            log: Mutex::new(None),
            metrics: StoreMetrics::new(&registry),
            trace: config.trace.clone().unwrap_or_default(),
            replica: config.replica,
            recovery: RecoverySummary::default(),
        };
        let path = match config.path {
            Some(p) => p,
            None => return Ok(store),
        };
        let started = Instant::now();
        let ckpt_path = checkpoint_path(&path);
        let mut summary = RecoverySummary::default();

        // Phase 1: the checkpoint, if one exists. It was written with
        // write-new-then-rename, so a *torn* checkpoint cannot exist —
        // damage here is bit rot, handled per the recovery policy.
        let mut generation = 0u64;
        let mut had_checkpoint = false;
        match load_checkpoint(&ckpt_path) {
            Ok(Some((ckpt_gen, entries))) => {
                generation = ckpt_gen;
                had_checkpoint = true;
                summary.checkpoint_registers = entries.len() as u64;
                let mut map = store.map.lock().unwrap();
                for (lane, segment, tag, value) in entries {
                    map.insert((lane, segment), (tag, Arc::from(value.into_boxed_slice())));
                }
            }
            Ok(None) => {}
            Err(StoreError::Corrupt { offset, detail }) => {
                match config.recovery {
                    RecoveryPolicy::Fail => {
                        return Err(StoreError::Corrupt {
                            offset,
                            detail: format!("checkpoint {}: {detail}", ckpt_path.display()),
                        });
                    }
                    RecoveryPolicy::Truncate => {
                        // Best effort: drop the damaged checkpoint and
                        // recover whatever the log still holds.
                        store.metrics.corrupt_records.inc();
                        store.trace.emit(
                            config.replica as usize,
                            Event::StoreCorrupt {
                                replica: config.replica as usize,
                                offset,
                                truncated: true,
                            },
                        );
                        summary.corrupt_offset = Some(offset);
                        let _ = std::fs::remove_file(&ckpt_path);
                    }
                }
            }
            Err(e) => return Err(e),
        }

        // Phase 2: the log. Offsets are tracked explicitly so both the
        // truncation point and any corruption report are byte-exact.
        let mut valid_len = 0u64;
        if let Ok(file) = File::open(&path) {
            let file_len = file.metadata()?.len();
            let mut reader = io::BufReader::new(file);
            let mut outcome = replay_log(
                &mut reader,
                file_len,
                generation,
                had_checkpoint,
                config.max_record,
                &mut summary,
                &store,
            )?;
            if let Some((offset, detail)) = outcome.corrupt.take() {
                match config.recovery {
                    RecoveryPolicy::Fail => {
                        return Err(StoreError::Corrupt {
                            offset,
                            detail: format!("log {}: {detail}", path.display()),
                        });
                    }
                    RecoveryPolicy::Truncate => {
                        store.metrics.corrupt_records.inc();
                        store.trace.emit(
                            config.replica as usize,
                            Event::StoreCorrupt {
                                replica: config.replica as usize,
                                offset,
                                truncated: true,
                            },
                        );
                        summary.corrupt_offset = Some(offset);
                        outcome.torn_bytes += file_len - offset;
                    }
                }
            }
            if outcome.torn_bytes > 0 {
                summary.truncated_bytes += outcome.torn_bytes;
                store.metrics.truncated_bytes.add(outcome.torn_bytes);
                store.trace.emit(
                    config.replica as usize,
                    Event::StoreTruncated {
                        replica: config.replica as usize,
                        bytes: outcome.torn_bytes,
                    },
                );
            }
            valid_len = outcome.valid_len;
        }

        // Phase 3: reopen for appending, truncating past the last valid
        // record (O_APPEND writes land at the new EOF), and stamp the
        // header on a fresh or fully-truncated log.
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.set_len(valid_len)?;
        let mut writer = BufWriter::new(file);
        let mut log_bytes = valid_len;
        if log_bytes < LOG_HEADER {
            // set_len can only have left 0 here (the header is written
            // whole before any record).
            write_log_header(&mut writer)?;
            writer.flush()?;
            log_bytes = LOG_HEADER;
        }
        summary.generation = generation;
        summary.elapsed_us = started.elapsed().as_micros() as u64;
        store.metrics.replayed_records.add(summary.replayed_records);
        store.metrics.replay_us.add(summary.elapsed_us);
        store.trace.emit(
            config.replica as usize,
            Event::StoreReplayed {
                replica: config.replica as usize,
                checkpoint_registers: summary.checkpoint_registers,
                records: summary.replayed_records,
                elapsed_us: summary.elapsed_us,
            },
        );
        store.recovery = summary;
        *store.log.lock().unwrap() = Some(Persist {
            writer,
            ckpt_path,
            generation,
            log_bytes,
            fsync: config.fsync,
            last_sync: Instant::now(),
            checkpoint_bytes: config.checkpoint_bytes,
            max_record: config.max_record,
        });
        Ok(store)
    }

    /// What recovery found and did when this store was opened (all
    /// zeros for in-memory stores).
    pub fn recovery(&self) -> &RecoverySummary {
        &self.recovery
    }

    /// The current `(tag, value)` for a register, if any store reached
    /// this replica.
    pub fn get(&self, lane: u32, segment: u32) -> Option<(WireTag, Arc<[u8]>)> {
        self.map
            .lock()
            .unwrap()
            .get(&(lane, segment))
            .map(|(t, v)| (*t, Arc::clone(v)))
    }

    /// The current `(tag, value)` of each listed register, in order,
    /// read under one lock: a batched query's answer is a consistent cut
    /// of this replica's map.
    pub fn get_many(&self, registers: &[(u32, u32)]) -> Vec<Option<(WireTag, Arc<[u8]>)>> {
        let map = self.map.lock().unwrap();
        registers
            .iter()
            .map(|key| map.get(key).map(|(t, v)| (*t, Arc::clone(v))))
            .collect()
    }

    /// Max-by-tag merge; returns whether the value was applied (a lower
    /// or equal tag leaves the stored value in place). A batch of one
    /// through [`apply_batch`](Self::apply_batch).
    pub fn apply(&self, lane: u32, segment: u32, tag: WireTag, value: Arc<[u8]>) -> bool {
        self.apply_batch(&[(lane, segment, tag, value)]) == 1
    }

    /// Max-by-tag merge of a batch of `(lane, segment, tag, value)`
    /// entries under one map lock; returns how many were applied. The
    /// applied ones are appended to the state log under the current
    /// generation as one record each, in one write, and synced once per
    /// the fsync policy — an ack for the batch costs one fsync, not one
    /// per register. The log lock is taken inside the map lock so a
    /// concurrent checkpoint can never lose a record.
    pub fn apply_batch(&self, entries: &[(u32, u32, WireTag, Arc<[u8]>)]) -> usize {
        let mut map = self.map.lock().unwrap();
        let mut applied = Vec::with_capacity(entries.len());
        for entry in entries {
            let (lane, segment, tag, value) = entry;
            if merge(&mut map, (*lane, *segment), *tag, value) {
                applied.push(entry);
            }
        }
        if applied.is_empty() {
            return 0;
        }
        let mut log = self.log.lock().unwrap();
        let Some(persist) = log.as_mut() else {
            return applied.len();
        };
        let mut framed = Vec::new();
        let mut records = 0u64;
        for (lane, segment, tag, value) in &applied {
            let body = encode_record_body(persist.generation, *lane, *segment, *tag, value);
            if body.len() as u64 > persist.max_record as u64 {
                // Replay rejects anything above the cap as corruption,
                // so an unreplayable record must never be written. The
                // value keeps being served from memory; the durability
                // gap is counted instead of discovered at restart.
                self.metrics.oversize_records.inc();
                continue;
            }
            framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
            framed.extend_from_slice(&crc32(&body).to_le_bytes());
            framed.extend_from_slice(&body);
            records += 1;
        }
        if records == 0 {
            return applied.len();
        }
        // Lock order is strictly map → log, so the auto-checkpoint
        // snapshot must be taken while the map lock is still held —
        // decided on the pre-append size, which crosses the threshold
        // exactly when the post-append size would (and a
        // threshold-crossing append that then fails still gets its
        // state compacted, since the map already holds it).
        let snapshot = if persist.log_bytes + framed.len() as u64 >= persist.checkpoint_bytes {
            Some(
                map.iter()
                    .map(|(&(l, s), (t, v))| (l, s, *t, v.to_vec()))
                    .collect::<Vec<_>>(),
            )
        } else {
            None
        };
        drop(map);
        // A failed append is deliberately non-fatal to the serving path
        // (the replica keeps answering from memory); the next restart
        // simply recovers less.
        if persist.writer.write_all(&framed).is_ok() {
            persist.log_bytes += framed.len() as u64;
            self.metrics.appends.add(records);
            let _ = persist.writer.flush();
            let sync_due = match persist.fsync {
                FsyncPolicy::Always => true,
                FsyncPolicy::Interval(every) => persist.last_sync.elapsed() >= every,
                FsyncPolicy::Never => false,
            };
            if sync_due {
                if persist.writer.get_ref().sync_data().is_ok() {
                    self.metrics.fsyncs.inc();
                }
                persist.last_sync = Instant::now();
            }
        }
        if let Some(snapshot) = snapshot {
            if self.checkpoint_locked(persist, snapshot).is_err() {
                // Surfaced, not swallowed: the log keeps growing and the
                // next threshold crossing retries.
                self.metrics.checkpoint_failures.inc();
                self.trace.emit(
                    self.replica as usize,
                    Event::StoreCheckpointFailed {
                        replica: self.replica as usize,
                    },
                );
            }
        }
        applied.len()
    }

    /// Writes a durable checkpoint of the live register map and
    /// truncates the log: write `<log>.ckpt.tmp`, fsync, rename over
    /// `<log>.ckpt`, fsync the directory, bump the generation, truncate
    /// the log. No-op (Ok) for in-memory stores.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let map = self.map.lock().unwrap();
        let snapshot: Vec<_> = map
            .iter()
            .map(|(&(lane, segment), (tag, value))| (lane, segment, *tag, value.to_vec()))
            .collect();
        let mut log = self.log.lock().unwrap();
        drop(map);
        match log.as_mut() {
            Some(persist) => self.checkpoint_locked(persist, snapshot),
            None => Ok(()),
        }
    }

    fn checkpoint_locked(
        &self,
        persist: &mut Persist,
        snapshot: Vec<(u32, u32, WireTag, Vec<u8>)>,
    ) -> Result<(), StoreError> {
        let new_generation = persist.generation + 1;
        let mut bytes = Vec::with_capacity(64 + snapshot.len() * 48);
        bytes.extend_from_slice(CKPT_MAGIC);
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&new_generation.to_le_bytes());
        bytes.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
        for (lane, segment, tag, value) in &snapshot {
            bytes.extend_from_slice(&lane.to_le_bytes());
            bytes.extend_from_slice(&segment.to_le_bytes());
            bytes.extend_from_slice(&tag.seq.to_le_bytes());
            bytes.extend_from_slice(&tag.writer.to_le_bytes());
            put_bytes(&mut bytes, value);
        }
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());

        let tmp_path = {
            let mut s = persist.ckpt_path.clone().into_os_string();
            s.push(".tmp");
            PathBuf::from(s)
        };
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&bytes)?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &persist.ckpt_path)?;
        // Make the rename itself durable. Directory fsync is a Unix-ism;
        // failure (or a pathless parent) degrades durability, not
        // correctness, so it is best-effort.
        if let Some(parent) = persist.ckpt_path.parent() {
            if let Ok(dir) = File::open(if parent.as_os_str().is_empty() {
                std::path::Path::new(".")
            } else {
                parent
            }) {
                let _ = dir.sync_all();
            }
        }
        self.metrics.fsyncs.inc();

        // The on-disk checkpoint now claims `new_generation`: adopt it
        // *before* the fallible truncate below. Replay tolerates an
        // untruncated log (the generation filter skips old records),
        // but an append stamped with the pre-checkpoint generation
        // after the rename would be classified stale on the next
        // restart — an acked, even fsynced, write silently dropped.
        persist.generation = new_generation;
        self.metrics.checkpoints.inc();
        self.metrics.checkpoint_bytes.add(bytes.len() as u64);
        self.trace.emit(
            self.replica as usize,
            Event::StoreCheckpoint {
                replica: self.replica as usize,
                registers: snapshot.len() as u64,
                bytes: bytes.len() as u64,
            },
        );

        // The checkpoint is durable: drop the replayed prefix. O_APPEND
        // writes land at the new EOF, so truncating to the header is
        // enough. A crash or error before this set_len leaves stale
        // records the generation filter skips on replay.
        persist.writer.flush()?;
        persist.writer.get_ref().set_len(LOG_HEADER)?;
        let _ = persist.writer.get_ref().sync_data();
        persist.log_bytes = LOG_HEADER;
        persist.last_sync = Instant::now();
        Ok(())
    }

    /// Flushes buffered appends to the OS and, when `sync` is set,
    /// fsyncs them to disk — the graceful-shutdown tail when a final
    /// checkpoint is not wanted.
    pub fn flush(&self, sync: bool) -> Result<(), StoreError> {
        if let Some(persist) = self.log.lock().unwrap().as_mut() {
            persist.writer.flush()?;
            if sync {
                persist.writer.get_ref().sync_data()?;
                self.metrics.fsyncs.inc();
                persist.last_sync = Instant::now();
            }
        }
        Ok(())
    }

    /// Current size of the state log in bytes (header included); zero
    /// for in-memory stores. Tests use this to assert replay is O(state).
    pub fn log_bytes(&self) -> u64 {
        self.log.lock().unwrap().as_ref().map_or(0, |p| p.log_bytes)
    }

    /// The path of the checkpoint file next to `path` (public so tests
    /// and tools can find it).
    pub fn checkpoint_path_for(path: &std::path::Path) -> PathBuf {
        checkpoint_path(path)
    }

    /// Number of registers this replica holds state for.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when no store has ever reached this replica.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for ReplicaStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaStore")
            .field("registers", &self.len())
            .field("recovery", &self.recovery)
            .finish()
    }
}

fn checkpoint_path(path: &std::path::Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".ckpt");
    PathBuf::from(s)
}

fn write_log_header(writer: &mut impl Write) -> io::Result<()> {
    writer.write_all(LOG_MAGIC)?;
    writer.write_all(&STORE_VERSION.to_le_bytes())?;
    writer.write_all(&0u16.to_le_bytes())?;
    Ok(())
}

/// Loads and CRC-verifies the checkpoint: `Ok(None)` when the file does
/// not exist, `Err(Corrupt)` when it exists but fails verification.
#[allow(clippy::type_complexity)]
fn load_checkpoint(
    path: &std::path::Path,
) -> Result<Option<(u64, Vec<(u32, u32, WireTag, Vec<u8>)>)>, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let corrupt = |offset: u64, detail: &str| StoreError::Corrupt {
        offset,
        detail: detail.to_string(),
    };
    if bytes.len() < 4 + 2 + 2 + 8 + 4 + 4 {
        return Err(corrupt(0, "checkpoint shorter than its fixed header"));
    }
    if &bytes[..4] != CKPT_MAGIC {
        return Err(corrupt(0, "bad checkpoint magic"));
    }
    let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(payload) != stored_crc {
        return Err(corrupt(0, "checkpoint CRC mismatch"));
    }
    let mut r = Reader::new(&payload[4..]);
    let version = r.u16().map_err(|e| corrupt(4, &e.to_string()))?;
    if version != STORE_VERSION {
        return Err(corrupt(4, &format!("unsupported checkpoint version {version}")));
    }
    let _reserved = r.u16().map_err(|e| corrupt(6, &e.to_string()))?;
    let generation = r.u64().map_err(|e| corrupt(8, &e.to_string()))?;
    let count = r.u32().map_err(|e| corrupt(16, &e.to_string()))? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for i in 0..count {
        // Offset of this entry within the whole file (4 magic bytes
        // precede the Reader's buffer).
        let at = (4 + (payload.len() - 4 - r.remaining())) as u64;
        let lane = r.u32().map_err(|e| corrupt(at, &format!("entry {i}: {e}")))?;
        let segment = r.u32().map_err(|e| corrupt(at, &format!("entry {i}: {e}")))?;
        let seq = r.u64().map_err(|e| corrupt(at, &format!("entry {i}: {e}")))?;
        let writer = r.u32().map_err(|e| corrupt(at, &format!("entry {i}: {e}")))?;
        let value = r
            .bytes("checkpoint value")
            .map_err(|e| corrupt(at, &format!("entry {i}: {e}")))?
            .to_vec();
        entries.push((lane, segment, WireTag { seq, writer }, value));
    }
    r.finish()
        .map_err(|e| corrupt(bytes.len() as u64 - 4, &e.to_string()))?;
    Ok(Some((generation, entries)))
}

struct ReplayOutcome {
    /// End of the last whole, valid record (where the file is truncated
    /// to before appending resumes).
    valid_len: u64,
    /// Bytes of torn tail past `valid_len` (crash artifact).
    torn_bytes: u64,
    /// Mid-log corruption, if found: `(offset, detail)`. The caller
    /// applies the recovery policy.
    corrupt: Option<(u64, String)>,
}

/// Replays the log into the store map. Pure streaming with explicit
/// offsets; returns rather than applies the corruption decision.
fn replay_log(
    reader: &mut impl Read,
    file_len: u64,
    generation: u64,
    had_checkpoint: bool,
    max_record: u32,
    summary: &mut RecoverySummary,
    store: &ReplicaStore,
) -> Result<ReplayOutcome, StoreError> {
    let mut header = [0u8; LOG_HEADER as usize];
    let got = read_full(reader, &mut header)?;
    if got == 0 {
        // Brand-new or fully truncated file.
        return Ok(ReplayOutcome { valid_len: 0, torn_bytes: 0, corrupt: None });
    }
    if got < header.len() {
        // A header can only be torn by a crash during the very first
        // open; drop it and start over.
        return Ok(ReplayOutcome { valid_len: 0, torn_bytes: got as u64, corrupt: None });
    }
    if &header[..4] != LOG_MAGIC {
        return Ok(ReplayOutcome {
            valid_len: 0,
            torn_bytes: 0,
            corrupt: Some((0, "bad log magic (not a snapshotd state log?)".into())),
        });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != STORE_VERSION {
        return Ok(ReplayOutcome {
            valid_len: 0,
            torn_bytes: 0,
            corrupt: Some((4, format!("unsupported log version {version}"))),
        });
    }

    let mut offset = LOG_HEADER;
    loop {
        let mut prefix = [0u8; 8];
        let got = read_full(reader, &mut prefix)?;
        if got == 0 {
            return Ok(ReplayOutcome { valid_len: offset, torn_bytes: 0, corrupt: None });
        }
        if got < prefix.len() {
            return Ok(ReplayOutcome {
                valid_len: offset,
                torn_bytes: got as u64,
                corrupt: None,
            });
        }
        let len = u32::from_le_bytes(prefix[..4].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(prefix[4..].try_into().unwrap());
        if len == 0 || len > max_record {
            return Ok(ReplayOutcome {
                valid_len: offset,
                torn_bytes: 0,
                corrupt: Some((offset, format!("absurd record length {len}"))),
            });
        }
        // Only allocate what the file can actually hold; a length field
        // pointing past EOF with a full 8-byte header present is
        // indistinguishable from a torn body, and is treated as torn.
        let mut body = vec![0u8; len as usize];
        let got = read_full(reader, &mut body)?;
        if (got as u64) < len as u64 {
            return Ok(ReplayOutcome {
                valid_len: offset,
                torn_bytes: 8 + got as u64,
                corrupt: None,
            });
        }
        if crc32(&body) != stored_crc {
            return Ok(ReplayOutcome {
                valid_len: offset,
                torn_bytes: 0,
                corrupt: Some((offset, "record CRC mismatch".into())),
            });
        }
        let record = match decode_record_body(&body) {
            Ok(r) => r,
            Err(detail) => {
                return Ok(ReplayOutcome {
                    valid_len: offset,
                    torn_bytes: 0,
                    corrupt: Some((offset, format!("record body undecodable: {detail}"))),
                });
            }
        };
        offset += 8 + len as u64;
        debug_assert!(offset <= file_len);
        // The generation filter: records from before the last durable
        // checkpoint (a crash hit between its rename and the log
        // truncate) are already inside the checkpoint. Without a
        // checkpoint every record is live.
        if had_checkpoint && record.generation != generation {
            summary.stale_records += 1;
            continue;
        }
        summary.replayed_records += 1;
        store.apply_in_memory(record.lane, record.segment, record.tag, record.value.into());
    }
}

impl ReplicaStore {
    /// Merge without touching the log — replay applies records that are
    /// already in the log.
    fn apply_in_memory(&self, lane: u32, segment: u32, tag: WireTag, value: Arc<[u8]>) {
        merge(&mut self.map.lock().unwrap(), (lane, segment), tag, &value);
    }
}

/// Max-by-tag merge of one register into `map`; whether `value` was
/// stored (a lower or equal tag leaves the held value in place).
fn merge(
    map: &mut RegisterMap,
    register: (u32, u32),
    tag: WireTag,
    value: &Arc<[u8]>,
) -> bool {
    match map.entry(register) {
        Entry::Occupied(mut occupied) => {
            if tag <= occupied.get().0 {
                return false;
            }
            occupied.insert((tag, Arc::clone(value)));
        }
        Entry::Vacant(vacant) => {
            vacant.insert((tag, Arc::clone(value)));
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "snapshot-store-{name}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(checkpoint_path(&path));
        path
    }

    fn val(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes.to_vec().into_boxed_slice())
    }

    fn cleanup(path: &PathBuf) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(checkpoint_path(path));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn state_survives_restart_and_mid_log_byte_flip_is_a_typed_error() {
        let path = temp_log("flip");
        let store = ReplicaStore::open(&path).unwrap();
        for seq in 1..=8u64 {
            store.apply(0, 0, WireTag { seq, writer: 0 }, val(&[seq as u8]));
        }
        drop(store);

        // Sanity: clean reopen replays everything.
        let store = ReplicaStore::open(&path).unwrap();
        assert_eq!(store.get(0, 0).unwrap().0, WireTag { seq: 8, writer: 0 });
        assert_eq!(store.recovery().replayed_records, 8);
        drop(store);

        // Flip one byte inside an early record's body: Fail policy
        // refuses with the offset, Truncate policy recovers the prefix.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = LOG_HEADER as usize + 8 + 4; // first record, inside the body
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        match ReplicaStore::open(&path) {
            Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, LOG_HEADER),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let store = ReplicaStore::open_with(
            StoreConfig::at(path.clone()).with_recovery(RecoveryPolicy::Truncate),
        )
        .unwrap();
        assert_eq!(store.recovery().corrupt_offset, Some(LOG_HEADER));
        assert!(store.is_empty(), "nothing before the corrupt first record");
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_truncated_counted_and_appends_resume() {
        let path = temp_log("torn");
        let store = ReplicaStore::open(&path).unwrap();
        store.apply(0, 0, WireTag { seq: 1, writer: 0 }, val(&[1]));
        drop(store);

        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAA, 0xBB, 0xCC]).unwrap();
        }

        let registry = Arc::new(Registry::default());
        let store = ReplicaStore::open_with(
            StoreConfig::at(path.clone()).with_registry(Arc::clone(&registry)),
        )
        .unwrap();
        assert_eq!(store.recovery().truncated_bytes, 3);
        assert_eq!(registry.counter("snapshotd.store.truncated_bytes").get(), 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        store.apply(0, 0, WireTag { seq: 2, writer: 0 }, val(&[2]));
        drop(store);

        let store = ReplicaStore::open(&path).unwrap();
        assert_eq!(store.get(0, 0).unwrap().0, WireTag { seq: 2, writer: 0 });
        cleanup(&path);
    }

    #[test]
    fn checkpoint_bounds_replay_to_live_state() {
        let path = temp_log("ckpt");
        let store = ReplicaStore::open(&path).unwrap();
        // Many overwrites of few registers: O(history) ≫ O(state).
        for seq in 1..=500u64 {
            store.apply((seq % 3) as u32, 0, WireTag { seq, writer: 0 }, val(&[7]));
        }
        store.checkpoint().unwrap();
        assert_eq!(store.log_bytes(), LOG_HEADER);
        // A couple of post-checkpoint stores land in the (tiny) log.
        store.apply(0, 1, WireTag { seq: 1, writer: 9 }, val(&[9]));
        drop(store);

        let store = ReplicaStore::open(&path).unwrap();
        assert_eq!(store.recovery().checkpoint_registers, 3);
        assert_eq!(store.recovery().replayed_records, 1);
        assert_eq!(store.len(), 4);
        assert_eq!(store.get(0, 1).unwrap().0, WireTag { seq: 1, writer: 9 });
        cleanup(&path);
    }

    #[test]
    fn stale_generation_records_are_skipped_after_unfinished_checkpoint() {
        let path = temp_log("stale");
        let store = ReplicaStore::open(&path).unwrap();
        store.apply(0, 0, WireTag { seq: 1, writer: 0 }, val(&[1]));
        store.apply(1, 0, WireTag { seq: 2, writer: 0 }, val(&[2]));
        // Keep the pre-checkpoint log bytes, then restore them after the
        // checkpoint to simulate a crash between rename and truncate.
        let pre_ckpt = std::fs::read(&path).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        std::fs::write(&path, &pre_ckpt).unwrap();

        let store = ReplicaStore::open(&path).unwrap();
        assert_eq!(store.recovery().checkpoint_registers, 2);
        assert_eq!(store.recovery().stale_records, 2, "old-generation records skipped");
        assert_eq!(store.recovery().replayed_records, 0);
        assert_eq!(store.get(1, 0).unwrap().0, WireTag { seq: 2, writer: 0 });
        cleanup(&path);
    }

    #[test]
    fn corrupt_checkpoint_fails_or_is_dropped_per_policy() {
        let path = temp_log("ckpt-corrupt");
        let store = ReplicaStore::open(&path).unwrap();
        store.apply(0, 0, WireTag { seq: 3, writer: 0 }, val(&[3]));
        store.checkpoint().unwrap();
        store.apply(0, 0, WireTag { seq: 4, writer: 0 }, val(&[4]));
        drop(store);

        let ckpt = checkpoint_path(&path);
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ckpt, &bytes).unwrap();

        assert!(matches!(
            ReplicaStore::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        let store = ReplicaStore::open_with(
            StoreConfig::at(path.clone()).with_recovery(RecoveryPolicy::Truncate),
        )
        .unwrap();
        // Checkpointed state is gone (that is what corruption costs),
        // but the post-checkpoint record survives: without a checkpoint
        // the generation filter is off.
        assert_eq!(store.get(0, 0).unwrap().0, WireTag { seq: 4, writer: 0 });
        assert!(!ckpt.exists(), "damaged checkpoint removed");
        cleanup(&path);
    }

    #[test]
    fn auto_checkpoint_fires_past_the_byte_threshold() {
        let path = temp_log("auto");
        let registry = Arc::new(Registry::default());
        let store = ReplicaStore::open_with(
            StoreConfig::at(path.clone())
                .with_checkpoint_bytes(512)
                .with_registry(Arc::clone(&registry)),
        )
        .unwrap();
        for seq in 1..=64u64 {
            store.apply(0, 0, WireTag { seq, writer: 0 }, val(&[0u8; 32]));
        }
        assert!(registry.counter("snapshotd.store.checkpoints").get() >= 1);
        assert!(store.log_bytes() < 512 + 128, "log stays bounded");
        drop(store);
        let store = ReplicaStore::open(&path).unwrap();
        assert_eq!(store.get(0, 0).unwrap().0, WireTag { seq: 64, writer: 0 });
        cleanup(&path);
    }

    #[test]
    fn concurrent_applies_with_auto_checkpoint_do_not_deadlock() {
        // Regression: the auto-checkpoint used to re-lock the map while
        // holding the log lock — the reverse of apply()'s map → log
        // order — so two thread-per-connection applies could deadlock
        // the moment the log crossed the checkpoint threshold.
        let path = temp_log("race");
        let store = Arc::new(
            ReplicaStore::open_with(
                StoreConfig::at(path.clone()).with_checkpoint_bytes(256),
            )
            .unwrap(),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        for t in 0..4u32 {
            let store = Arc::clone(&store);
            let tx = tx.clone();
            std::thread::spawn(move || {
                for seq in 1..=200u64 {
                    store.apply(t, 0, WireTag { seq, writer: t }, val(&[0u8; 40]));
                }
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(30))
                .expect("applies deadlocked (map/log lock order violated)");
        }
        drop(store);
        let store = ReplicaStore::open(&path).unwrap();
        assert_eq!(store.get(3, 0).unwrap().0, WireTag { seq: 200, writer: 3 });
        cleanup(&path);
    }

    #[test]
    fn record_cap_follows_the_configured_max_frame() {
        // A server run with --max-frame above the default accepts (and
        // must durably log) values larger than the default record cap;
        // replay under the same configuration takes them back.
        let path = temp_log("bigrec");
        let big = vec![7u8; DEFAULT_MAX_FRAME as usize + 1024];
        let config =
            || StoreConfig::at(path.clone()).with_max_frame(2 * DEFAULT_MAX_FRAME);
        let store = ReplicaStore::open_with(config()).unwrap();
        assert!(store.apply(0, 0, WireTag { seq: 1, writer: 0 }, val(&big)));
        drop(store);
        let store = ReplicaStore::open_with(config()).unwrap();
        assert_eq!(store.recovery().replayed_records, 1);
        assert_eq!(store.get(0, 0).unwrap().1.len(), big.len());
        cleanup(&path);
    }

    #[test]
    fn oversize_record_is_never_written_to_the_log() {
        let path = temp_log("oversize");
        let registry = Arc::new(Registry::default());
        let mut config = StoreConfig::at(path.clone()).with_registry(Arc::clone(&registry));
        config.max_record = 128;
        let store = ReplicaStore::open_with(config).unwrap();
        let logged = store.log_bytes();
        assert!(store.apply(0, 0, WireTag { seq: 1, writer: 0 }, val(&[0u8; 4096])));
        assert_eq!(store.get(0, 0).unwrap().1.len(), 4096, "still served from memory");
        assert_eq!(store.log_bytes(), logged, "unreplayable record not appended");
        assert_eq!(registry.counter("snapshotd.store.oversize_records").get(), 1);
        drop(store);
        // The log stayed replayable: reopening finds no record, not a
        // corruption error.
        let store = ReplicaStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.recovery().corrupt_offset, None);
        cleanup(&path);
    }

    #[test]
    fn fsync_always_counts_a_sync_per_append() {
        let path = temp_log("fsync");
        let registry = Arc::new(Registry::default());
        let store = ReplicaStore::open_with(
            StoreConfig::at(path.clone())
                .with_fsync(FsyncPolicy::Always)
                .with_registry(Arc::clone(&registry)),
        )
        .unwrap();
        for seq in 1..=5u64 {
            store.apply(0, 0, WireTag { seq, writer: 0 }, val(&[1]));
        }
        assert_eq!(registry.counter("snapshotd.store.appends").get(), 5);
        assert_eq!(registry.counter("snapshotd.store.fsyncs").get(), 5);
        cleanup(&path);
    }

    #[test]
    fn fsync_always_counts_one_sync_per_batch() {
        let path = temp_log("fsync-batch");
        let registry = Arc::new(Registry::default());
        let store = ReplicaStore::open_with(
            StoreConfig::at(path.clone())
                .with_fsync(FsyncPolicy::Always)
                .with_registry(Arc::clone(&registry)),
        )
        .unwrap();
        let batch = |seq: u64| -> Vec<_> {
            (0..8u32)
                .map(|lane| (lane, 0, WireTag { seq, writer: 0 }, val(&[seq as u8])))
                .collect()
        };
        assert_eq!(store.apply_batch(&batch(1)), 8);
        assert_eq!(
            registry.counter("snapshotd.store.appends").get(),
            8,
            "one record each"
        );
        assert_eq!(
            registry.counter("snapshotd.store.fsyncs").get(),
            1,
            "one sync for the batch"
        );
        // A stale batch applies nothing, appends nothing, syncs nothing;
        // a half-stale one logs only what it applied.
        assert_eq!(store.apply_batch(&batch(1)), 0);
        let mut mixed = batch(2);
        mixed.truncate(3);
        mixed.extend(batch(1).into_iter().skip(3));
        assert_eq!(store.apply_batch(&mixed), 3);
        assert_eq!(registry.counter("snapshotd.store.appends").get(), 11);
        assert_eq!(registry.counter("snapshotd.store.fsyncs").get(), 2);
        drop(store);

        // The batch is k ordinary records: replay needs no batch notion.
        let store = ReplicaStore::open(&path).unwrap();
        assert_eq!(store.recovery().replayed_records, 11);
        assert_eq!(store.get(2, 0).unwrap().0, WireTag { seq: 2, writer: 0 });
        assert_eq!(store.get(3, 0).unwrap().0, WireTag { seq: 1, writer: 0 });
        let held = store.get_many(&[(7, 0), (9, 9), (0, 0)]);
        assert_eq!(
            held.iter()
                .map(|h| h.as_ref().map(|(t, _)| t.seq))
                .collect::<Vec<_>>(),
            vec![Some(1), None, Some(2)]
        );
        cleanup(&path);
    }

    #[test]
    fn a_tail_torn_inside_a_batch_keeps_the_records_before_the_tear() {
        let path = temp_log("torn-batch");
        let store = ReplicaStore::open(&path).unwrap();
        let before = store.log_bytes();
        let batch: Vec<_> = (0..4u32)
            .map(|lane| {
                (
                    lane,
                    0,
                    WireTag { seq: 1, writer: 0 },
                    val(&[lane as u8; 5]),
                )
            })
            .collect();
        assert_eq!(store.apply_batch(&batch), 4);
        let record = (store.log_bytes() - before) / 4;
        drop(store);

        // The crash cut the write inside the third record's body.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(before + 2 * record + 8 + 3).unwrap();
        drop(file);

        let store = ReplicaStore::open(&path).unwrap();
        assert_eq!(store.recovery().replayed_records, 2);
        assert_eq!(store.recovery().truncated_bytes, 8 + 3);
        assert_eq!(
            store.recovery().corrupt_offset,
            None,
            "a torn tail is not corruption"
        );
        assert_eq!(store.len(), 2);
        assert!(store.get(1, 0).is_some() && store.get(2, 0).is_none());
        assert_eq!(store.log_bytes(), before + 2 * record);
        // Appends resume on the truncated log.
        assert_eq!(store.apply_batch(&batch), 2, "lanes 2 and 3 are new again");
        drop(store);
        let store = ReplicaStore::open(&path).unwrap();
        assert_eq!(store.recovery().replayed_records, 4);
        assert_eq!(store.len(), 4);
        cleanup(&path);
    }

    #[test]
    fn policy_and_error_parsing() {
        assert_eq!(RecoveryPolicy::parse("truncate").unwrap(), RecoveryPolicy::Truncate);
        assert_eq!(RecoveryPolicy::parse("fail").unwrap(), RecoveryPolicy::Fail);
        assert!(RecoveryPolicy::parse("explode").is_err());
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(FsyncPolicy::parse("interval:x").is_err());
        let err = StoreError::Corrupt { offset: 42, detail: "CRC mismatch".into() };
        assert!(err.to_string().contains("byte 42"));
    }
}
