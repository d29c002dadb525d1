//! Write-ahead log: durability for [`crate::TimeSeriesDb`].
//!
//! Every mutation of a shard (series creation, every sample append —
//! including rejected ones, series drops, retention passes) is staged into
//! that shard's reusable in-memory buffer while the shard lock is held.  Once
//! per round the scrape driver calls [`crate::TimeSeriesDb::wal_flush`],
//! which packs every dirty shard's staged records and the round's
//! symbol-table delta into **one CRC-framed frame** and appends it to the
//! round log in **one write**.  A frame that verifies *is* the commit.  When
//! the write lands is governed by [`FsyncMode`]: the default syncs only when
//! a checkpoint is taken — appends survive a process crash via the page
//! cache, power loss may lose the rounds since the last checkpoint — while
//! [`FsyncMode::EveryCommit`] adds one fsync per round and makes every acked
//! round power-loss safe.  The staging buffers and the frame buffer are
//! retained round over round, so the warm durable path stays
//! allocation-free.
//!
//! # On-disk layout
//!
//! A durability directory holds two files, plus `checkpoint.tmp` while a
//! checkpoint is being replaced:
//!
//! | file              | contents                                           |
//! |-------------------|----------------------------------------------------|
//! | `rounds.wal`      | one frame per round committed since the checkpoint |
//! | `checkpoint.snap` | the whole database as of one round, its *base*     |
//!
//! Both files are sequences of the same frame:
//!
//! ```text
//! +----------+----------+---------------------------+
//! | len: u32 | crc: u32 | payload (len bytes)       |   little-endian;
//! +----------+----------+---------------------------+   crc32(payload)
//!      payload[0] = frame type, rest type-specific
//! ```
//!
//! A round frame holds the round's sequence number and then sections, each
//! `[tag: u8][len: u32][bytes]`.  There is one section per dirty shard (tag =
//! shard index) carrying the shard's SERIES/SAMPLES/DROP/RETENTION records in
//! staging order, and last a symbol section: the bindings interned since the
//! previous round and the slots this round's sweep freed.  A checkpoint is a
//! header frame (base round, sweep epoch, every live symbol binding) followed
//! by one frame per shard, in shard order, holding that shard's snapshot
//! with its Gorilla-sealed chunks carried verbatim.
//!
//! # Checkpoints
//!
//! After a commit, once the log holds more than `max(segment_bytes, size of
//! the last checkpoint)` bytes, the database is checkpointed: fsync the log,
//! replace the checkpoint atomically, truncate the log.  Sizing the trigger
//! by the last checkpoint keeps the cost amortized — the state is rewritten
//! at most once per its own size in logged bytes.  Each shard section is
//! encoded under the shard's read lock while its staging buffer is empty, so
//! it is the shard at exactly the base round; an append racing the flush
//! leaves a buffer non-empty and postpones the checkpoint to the next commit.
//! Recovery loads the checkpoint and replays the frames whose sequence number
//! is above its base: a crash between the replace and the truncation leaves
//! older frames in the log, and those are skipped.
//!
//! # Salvage and isolation
//!
//! Recovery scans the log up to the first frame whose length, CRC or
//! structure does not verify, then physically truncates the file there,
//! counting what was dropped through `teemon_obs` probes
//! (`teemon_wal_salvage_total`, `teemon_wal_salvaged_bytes_total`).  A shard
//! whose checkpoint section or round section does not decode comes up empty
//! and flagged in [`crate::StorageStats::wal_failed_shards`], without
//! affecting the other shards.  An unreadable checkpoint header (the symbol
//! table every shard references) and any write or fsync error on the log
//! fail the whole log: all shards are flagged and nothing is written again,
//! while the database keeps serving from memory.
//!
//! # Locking
//!
//! * `"tsdb.wal.shard"` (one instance per shard) guards a shard's staging
//!   buffer.  Taken *after* the shard's `tsdb.shard` lock on the staging
//!   path.
//! * `"tsdb.wal"` guards the round log.  The flush takes it first and then,
//!   one at a time, each `tsdb.wal.shard` (to drain it) and `tsdb.symbols`
//!   (write: delta capture, sweep, commit aging).  The checkpoint takes it
//!   first and then `tsdb.symbols` (read) and, one shard at a time, the
//!   shard's `tsdb.shard` (read) with its `tsdb.wal.shard` inside.
//!
//! The resulting order — `tsdb.wal → tsdb.shard → tsdb.wal.shard`,
//! `tsdb.wal → {tsdb.wal.shard, tsdb.symbols}` — is acyclic, and nothing
//! takes `tsdb.wal` while holding another lock.  The WAL classes are
//! deliberately not marked `no_alloc`: cold-path buffer growth (and the
//! in-memory [`FaultFs`] used by tests) allocates under them, and the
//! allocation-freedom of the *warm* durable round is proven directly by the
//! counting-allocator test instead.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{LockClass, Mutex, MutexGuard, RwLock};
use teemon_obs::{probes, Stopwatch};

use crate::chunk_codec;
use crate::series::{Chunk, ChunkData, Sample};
use crate::storage::SHARD_COUNT;
use crate::symbols::{SymbolId, SymbolTable};

// ---------------------------------------------------------------------------
// CRC32 (IEEE) and framing
// ---------------------------------------------------------------------------

/// IEEE CRC-32 slice-by-8 tables (polynomial `0xEDB88320`), built at
/// compile time.  `CRC_TABLES[0]` is the classic byte-at-a-time table; table
/// `k` advances a byte seen `k` positions earlier, so eight table lookups
/// retire eight input bytes per iteration — the flush runs one CRC over each
/// round's whole frame, and at ~0.5 cycles/byte it stays negligible next to
/// the write syscall.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        // teemon-verify: allow(no-index): i is bounded to 0..256 by the loop.
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // teemon-verify: allow(no-index): k < 8 and i < 256 by the loops.
            let prev = tables[k - 1][i];
            // teemon-verify: allow(no-index): the value is byte-masked first.
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One slice-by-8 table lookup: both indices are masked in range, so the
/// bounds checks fold away.
#[inline(always)]
fn crc_tab(k: usize, idx: u32) -> u32 {
    // teemon-verify: allow(no-index): k masked to 0..8, idx masked to a byte.
    CRC_TABLES[k & 7][(idx & 0xFF) as usize]
}

/// CRC-32 (IEEE) of `bytes`, eight bytes per step.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let (a, b) = chunk.split_at(4);
        let lo = u32::from_le_bytes(a.try_into().unwrap_or_default()) ^ crc;
        let hi = u32::from_le_bytes(b.try_into().unwrap_or_default());
        crc = crc_tab(7, lo)
            ^ crc_tab(6, lo >> 8)
            ^ crc_tab(5, lo >> 16)
            ^ crc_tab(4, lo >> 24)
            ^ crc_tab(3, hi)
            ^ crc_tab(2, hi >> 8)
            ^ crc_tab(1, hi >> 16)
            ^ crc_tab(0, hi >> 24);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ crc_tab(0, crc ^ u32::from(b));
    }
    !crc
}

/// Frame header size: `len: u32` + `crc: u32`.
const FRAME_BYTES: usize = 8;
/// Upper bound a frame length must pass before it is believed (256 MiB).
const MAX_FRAME_LEN: usize = 1 << 28;
/// Upper bound for element counts inside payloads (defends against garbage
/// lengths in CRC-colliding corruption).
const MAX_COUNT: u32 = 1 << 24;

// Frame types.  Round log:
const FRAME_ROUND: u8 = 1;
// Checkpoint: the header, then one shard frame per shard in shard order.
const FRAME_CHECKPOINT: u8 = 2;
const FRAME_SHARD: u8 = 3;
/// Stands in for the snapshot of a shard that failed recovery, so the shard
/// stays failed across restarts instead of coming back with unlogged data.
const FRAME_SHARD_FAILED: u8 = 4;

/// Tag of a round frame's symbol section; shard sections are tagged with
/// their shard index.
const SECTION_SYMBOLS: u8 = 0xFF;
/// Bytes of a section header: tag + length.
const SECTION_HEADER_BYTES: usize = 5;

// Shard records, self-delimiting, back to back inside a shard section.
const REC_SERIES: u8 = 17;
const REC_SAMPLES: u8 = 18;
const REC_DROP: u8 = 19;
const REC_RETENTION: u8 = 20;

/// Bytes of one entry inside a `REC_SAMPLES` batch: `local: u32`,
/// `value: f64`.  The batch header carries the shared `timestamp_ms` once —
/// every sample of a scrape target's round lands at the same timestamp, so
/// hoisting it saves 40% of the staged (and written, and checksummed) bytes;
/// a sample at a different timestamp seals the batch and opens a new one.
const SAMPLE_ENTRY_BYTES: usize = 12;
/// Bytes of a `REC_SAMPLES` batch header: type, entry count, timestamp.
const SAMPLE_HEADER_BYTES: usize = 13;

/// Opens a frame in `buf`: reserves the 8-byte header, returns its offset.
fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_BYTES]);
    at
}

/// Closes the frame opened at `at`: patches payload length and CRC in place.
fn end_frame(buf: &mut [u8], at: usize) {
    let payload_len = buf.len().saturating_sub(at + FRAME_BYTES) as u32;
    let crc = crc32(buf.get(at + FRAME_BYTES..).unwrap_or(&[]));
    if let Some(header) = buf.get_mut(at..at + FRAME_BYTES) {
        let (len_bytes, crc_bytes) = header.split_at_mut(4);
        len_bytes.copy_from_slice(&payload_len.to_le_bytes());
        crc_bytes.copy_from_slice(&crc.to_le_bytes());
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a section: tag, length, body.
fn put_section(buf: &mut Vec<u8>, tag: u8, body: &[u8]) {
    buf.push(tag);
    put_u32(buf, body.len() as u32);
    buf.extend_from_slice(body);
}

/// Appends `(raw id, string)` symbol bindings, count first.
fn put_bindings(buf: &mut Vec<u8>, bindings: &[(u32, Arc<str>)]) {
    put_u32(buf, bindings.len() as u32);
    for (raw, s) in bindings {
        put_u32(buf, *raw);
        put_u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }
}

/// Encoded size of [`put_bindings`]' output.
fn bindings_len(bindings: &[(u32, Arc<str>)]) -> usize {
    4 + bindings.iter().map(|(_, s)| 8 + s.len()).sum::<usize>()
}

/// Bounds-checked little-endian cursor over one frame's payload.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|b| b.first().copied())
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).and_then(|b| <[u8; 4]>::try_from(b).ok()).map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).and_then(|b| <[u8; 8]>::try_from(b).ok()).map(u64::from_le_bytes)
    }

    /// An element count, rejected above [`MAX_COUNT`].
    fn count(&mut self) -> Option<u32> {
        self.u32().filter(|&n| n <= MAX_COUNT)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Reads `(raw id, string)` symbol bindings written by [`put_bindings`].
fn take_bindings(cur: &mut Cur<'_>) -> Option<Vec<(u32, String)>> {
    let count = cur.count()?;
    let mut bindings = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let raw = cur.u32()?;
        let len = cur.u32()? as usize;
        let s = std::str::from_utf8(cur.take(len)?).ok()?;
        bindings.push((raw, s.to_owned()));
    }
    Some(bindings)
}

/// A verified frame: its type and the rest of its payload.
type Frame<'a> = (u8, &'a [u8]);

/// The frame starting at `at`: the offset just past it and, when its CRC
/// verifies, the frame.  `None` when no complete frame of a believable
/// length starts there.
fn frame_at(bytes: &[u8], at: usize) -> Option<(usize, Option<Frame<'_>>)> {
    let header = bytes.get(at..at.checked_add(FRAME_BYTES)?)?;
    let (len_bytes, crc_bytes) = header.split_at(4);
    let len = <[u8; 4]>::try_from(len_bytes).ok().map(u32::from_le_bytes)? as usize;
    let crc = <[u8; 4]>::try_from(crc_bytes).ok().map(u32::from_le_bytes)?;
    if len > MAX_FRAME_LEN {
        return None;
    }
    let end = at + FRAME_BYTES + len;
    let payload = bytes.get(at + FRAME_BYTES..end)?;
    let verified = if crc32(payload) == crc {
        payload.split_first().map(|(&kind, rest)| (kind, rest))
    } else {
        None
    };
    Some((end, verified))
}

/// Walks the frames of a log image, yielding `(type, payload)` per valid
/// frame and stopping at the first frame that fails to verify.  `valid_len`
/// after iteration is the salvage point.
struct FrameScanner<'a> {
    bytes: &'a [u8],
    valid_len: usize,
}

impl<'a> FrameScanner<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, valid_len: 0 }
    }
}

impl<'a> Iterator for FrameScanner<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        let (end, frame) = frame_at(self.bytes, self.valid_len)?;
        let frame = frame?;
        self.valid_len = end;
        Some(frame)
    }
}

// ---------------------------------------------------------------------------
// Filesystem abstraction
// ---------------------------------------------------------------------------

/// One open log file: sequential appends plus durability flushes.
///
/// Implemented by [`RealFs`] over `std::fs::File`, by the deterministic
/// in-memory [`FaultFs`] the fault-injection suite uses, and by
/// [`FailpointWriter`], which wraps any other implementation with injected
/// failures.
pub trait WalFile: Send {
    /// Appends `bytes` at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Durably flushes all previous appends (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem facade the WAL writes through, so tests can substitute a
/// deterministic, fault-injecting implementation for real files.
pub trait WalFs: Send + Sync {
    /// Opens `path` for appending (creating it if absent); also returns the
    /// file's current length.
    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn WalFile>, u64)>;
    /// Reads the whole file; `Ok(None)` when it does not exist.
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;
    /// Atomically replaces `path` with `bytes` (tmp file + rename).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Truncates `path` to `len` bytes, durably.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// Production [`WalFs`]: real files, `sync_data` for fsync, atomic replace
/// via tmp file + rename + best-effort parent directory sync.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

struct RealFile {
    file: fs::File,
}

impl WalFile for RealFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

impl WalFs for RealFs {
    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn WalFile>, u64)> {
        let file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.metadata()?.len();
        Ok((Box::new(RealFile { file }), len))
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_data();
            }
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// How [`FaultFs::crashed`] decides what survives the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashModel {
    /// Writes reach disk in order and tear mid-write once the byte budget is
    /// spent — the classic torn-tail model.
    Torn,
    /// Only data covered by a completed fsync (or an atomic replace) survives;
    /// everything after the last sync point is lost.
    SyncedOnly,
}

#[derive(Debug, Clone)]
enum FsOp {
    Write { path: PathBuf, bytes: Vec<u8> },
    Sync { path: PathBuf },
    Atomic { path: PathBuf, bytes: Vec<u8> },
    Truncate { path: PathBuf, len: u64 },
}

#[derive(Debug, Default)]
struct FaultState {
    files: HashMap<PathBuf, Vec<u8>>,
    /// The files this filesystem started with — empty for [`FaultFs::new`],
    /// the crash image's contents for a filesystem built by
    /// [`FaultFs::crashed`]/[`FaultFs::crashed_at_op`].  Crash images replay
    /// the (post-creation) journal on top of this baseline, so reopening a
    /// crash image, writing to it, and crashing it *again* keeps the files
    /// the second run never touched.
    baseline: HashMap<PathBuf, Vec<u8>>,
    ops: Vec<FsOp>,
    writes: u64,
    fsyncs: u64,
    fail_write_from: Option<u64>,
    fail_fsync_from: Option<u64>,
}

/// Deterministic in-memory [`WalFs`] for the fault-injection suite.
///
/// Every mutation is journalled, so [`FaultFs::crashed`] can reconstruct the
/// exact disk image "as of a crash after `k` appended bytes" under either
/// [`CrashModel`]; [`FaultFs::corrupt`] flips bits in place; and the
/// `fail_*_from` knobs turn later writes into short writes and later fsyncs
/// into errors.
#[derive(Debug, Default, Clone)]
pub struct FaultFs {
    state: Arc<Mutex<FaultState>>,
}

impl FaultFs {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes passed to [`WalFile::append`] so far — the budget domain
    /// for [`FaultFs::crashed`].
    pub fn total_write_bytes(&self) -> u64 {
        let state = self.state.lock();
        state
            .ops
            .iter()
            .map(|op| match op {
                FsOp::Write { bytes, .. } => bytes.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// The disk image after a crash that let `budget` appended bytes reach
    /// the (simulated) disk, under `model`.  The returned filesystem has an
    /// empty journal of its own.
    ///
    /// The budget is charged per *appended byte*: a crash can tear inside
    /// any append, but non-append operations (atomic replaces, truncations,
    /// fsyncs) consume nothing and are applied together with the append
    /// that precedes them.  Use [`FaultFs::crashed_at_op`] to place a crash
    /// *between* two journalled operations — e.g. between a checkpoint's
    /// atomic install and the truncation of the log it replaces.
    pub fn crashed(&self, budget: u64, model: CrashModel) -> FaultFs {
        let state = self.state.lock();
        Self::image(&state.baseline, &state.ops, budget, model)
    }

    /// Number of journalled filesystem operations so far — the sweep domain
    /// for [`FaultFs::crashed_at_op`].
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops.len() as u64
    }

    /// The disk image after a crash between journalled operations: the
    /// first `ops` operations applied in full, everything later lost.
    /// Unlike the byte budget of [`FaultFs::crashed`], this axis can land a
    /// crash between two non-append operations, covering windows like an
    /// interrupted checkpoint (checkpoint installed, log not yet
    /// truncated).
    pub fn crashed_at_op(&self, ops: u64, model: CrashModel) -> FaultFs {
        let state = self.state.lock();
        let keep = usize::try_from(ops).unwrap_or(usize::MAX).min(state.ops.len());
        Self::image(&state.baseline, state.ops.get(..keep).unwrap_or(&[]), u64::MAX, model)
    }

    /// Replays `ops` onto `baseline` (empty for a [`FaultFs::new`]
    /// filesystem; for a crash image, the files it was created with, all
    /// counted as synced — they were on disk), tearing the first append that
    /// exceeds `budget` bytes and dropping everything after it.
    fn image(
        baseline: &HashMap<PathBuf, Vec<u8>>,
        ops: &[FsOp],
        budget: u64,
        model: CrashModel,
    ) -> FaultFs {
        let mut files: HashMap<PathBuf, Vec<u8>> = baseline.clone();
        let mut synced: HashMap<PathBuf, usize> =
            files.iter().map(|(path, data)| (path.clone(), data.len())).collect();
        let mut remaining = budget;
        for op in ops {
            match op {
                FsOp::Write { path, bytes } => {
                    let take = usize::try_from(remaining).unwrap_or(usize::MAX).min(bytes.len());
                    let entry = files.entry(path.clone()).or_default();
                    entry.extend_from_slice(bytes.get(..take).unwrap_or(&[]));
                    remaining -= take as u64;
                    if take < bytes.len() {
                        break;
                    }
                }
                FsOp::Sync { path } => {
                    let len = files.get(path).map(|f| f.len()).unwrap_or(0);
                    synced.insert(path.clone(), len);
                }
                FsOp::Atomic { path, bytes } => {
                    synced.insert(path.clone(), bytes.len());
                    files.insert(path.clone(), bytes.clone());
                }
                FsOp::Truncate { path, len } => {
                    let entry = files.entry(path.clone()).or_default();
                    entry.truncate(*len as usize);
                    synced.insert(path.clone(), entry.len());
                }
            }
        }
        if model == CrashModel::SyncedOnly {
            for (path, data) in files.iter_mut() {
                let keep = synced.get(path).copied().unwrap_or(0);
                data.truncate(keep);
            }
        }
        let baseline = files.clone();
        FaultFs {
            state: Arc::new(Mutex::new(FaultState { files, baseline, ..FaultState::default() })),
        }
    }

    /// XORs the byte at `offset` of `path` with `xor` (no journal entry —
    /// this models silent media corruption).
    pub fn corrupt(&self, path: &Path, offset: usize, xor: u8) {
        let mut state = self.state.lock();
        let state = &mut *state;
        // Media corruption is below the journal: flip the byte in the
        // baseline too, so further crash images keep the damage.
        for files in [&mut state.files, &mut state.baseline] {
            if let Some(b) = files.get_mut(path).and_then(|bytes| bytes.get_mut(offset)) {
                *b ^= xor;
            }
        }
    }

    /// Paths of all files currently present, sorted.
    pub fn file_paths(&self) -> Vec<PathBuf> {
        let state = self.state.lock();
        let mut paths: Vec<PathBuf> = state.files.keys().cloned().collect();
        paths.sort();
        paths
    }

    /// Length of `path`, `None` when absent.
    pub fn file_len(&self, path: &Path) -> Option<u64> {
        let state = self.state.lock();
        state.files.get(path).map(|f| f.len() as u64)
    }

    /// Makes every append after the first `n` a short write that errors.
    pub fn fail_writes_from(&self, n: u64) {
        self.state.lock().fail_write_from = Some(n);
    }

    /// Makes every fsync after the first `n` return an error.
    pub fn fail_fsyncs_from(&self, n: u64) {
        self.state.lock().fail_fsync_from = Some(n);
    }
}

struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    path: PathBuf,
}

impl WalFile for FaultFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock();
        state.writes += 1;
        let fail = state.fail_write_from.map(|n| state.writes > n).unwrap_or(false);
        let written = if fail { bytes.get(..bytes.len() / 2).unwrap_or(&[]) } else { bytes };
        state.ops.push(FsOp::Write { path: self.path.clone(), bytes: written.to_vec() });
        state.files.entry(self.path.clone()).or_default().extend_from_slice(written);
        if fail {
            return Err(io::Error::other("injected short write"));
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut state = self.state.lock();
        state.fsyncs += 1;
        if state.fail_fsync_from.map(|n| state.fsyncs > n).unwrap_or(false) {
            return Err(io::Error::other("injected fsync failure"));
        }
        state.ops.push(FsOp::Sync { path: self.path.clone() });
        Ok(())
    }
}

impl WalFs for FaultFs {
    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn WalFile>, u64)> {
        let len = self.file_len(path).unwrap_or(0);
        Ok((Box::new(FaultFile { state: Arc::clone(&self.state), path: path.to_path_buf() }), len))
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        let state = self.state.lock();
        Ok(state.files.get(path).cloned())
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock();
        state.ops.push(FsOp::Atomic { path: path.to_path_buf(), bytes: bytes.to_vec() });
        state.files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut state = self.state.lock();
        state.ops.push(FsOp::Truncate { path: path.to_path_buf(), len });
        if let Some(bytes) = state.files.get_mut(path) {
            bytes.truncate(len as usize);
        }
        Ok(())
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// Wraps a [`WalFile`] with failure injection: appends past
/// `fail_write_from` become short writes that error, fsyncs past
/// `fail_fsync_from` fail outright.
pub struct FailpointWriter {
    inner: Box<dyn WalFile>,
    writes: u64,
    fsyncs: u64,
    fail_write_from: Option<u64>,
    fail_fsync_from: Option<u64>,
}

impl FailpointWriter {
    /// Wraps `inner`; `None` thresholds never fire.
    pub fn new(
        inner: Box<dyn WalFile>,
        fail_write_from: Option<u64>,
        fail_fsync_from: Option<u64>,
    ) -> Self {
        Self { inner, writes: 0, fsyncs: 0, fail_write_from, fail_fsync_from }
    }
}

impl WalFile for FailpointWriter {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writes += 1;
        if self.fail_write_from.map(|n| self.writes > n).unwrap_or(false) {
            let half = bytes.get(..bytes.len() / 2).unwrap_or(&[]);
            let _ = self.inner.append(half);
            return Err(io::Error::other("injected short write"));
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.fsyncs += 1;
        if self.fail_fsync_from.map(|n| self.fsyncs > n).unwrap_or(false) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync()
    }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// When the write-ahead log calls fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// Fsync every commit: one write **and one fsync** per round.  Every
    /// acked round survives even power loss; the price is the fsync
    /// syscall, which dominates the durability overhead at small batch
    /// sizes.  The crash-exactness property tests run in this mode — it is
    /// the mode in which "acked" equals "synced".
    EveryCommit,
    /// Fsync only when a checkpoint is taken (the log is synced before the
    /// checkpoint replaces the old one, and the replace itself is always
    /// synced).  Rounds still reach the kernel with one `write` each, so
    /// they survive a process crash at full fidelity — the page cache
    /// persists — but power loss may lose the rounds written since the last
    /// checkpoint.  This is the default, the same trade Prometheus' WAL
    /// makes.
    #[default]
    OnRotation,
}

/// Durability configuration for [`crate::TimeSeriesDb::open_with`].
#[derive(Clone)]
pub struct DurabilityOptions {
    /// The round log is checkpointed once it holds more than this many
    /// bytes, or more than the last checkpoint's size if that is larger —
    /// so rewriting the whole state stays amortized over at least as many
    /// logged bytes as the state itself.
    pub segment_bytes: u64,
    /// Fsync policy; see [`FsyncMode`].
    pub fsync: FsyncMode,
    /// Filesystem implementation; tests substitute [`FaultFs`].
    pub fs: Arc<dyn WalFs>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self { segment_bytes: 4 << 20, fsync: FsyncMode::default(), fs: Arc::new(RealFs) }
    }
}

impl fmt::Debug for DurabilityOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurabilityOptions")
            .field("segment_bytes", &self.segment_bytes)
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

/// Reserves `additional` bytes of buffer capacity.  Growth is the cold path
/// (buffers are retained round over round); the lock audit's no-alloc check
/// is suspended for it because staging runs under the `tsdb.shard` lock.
fn reserve_staged(buf: &mut Vec<u8>, additional: usize) {
    if buf.capacity().wrapping_sub(buf.len()) < additional {
        #[cfg(lock_audit)]
        let _allow = parking_lot::audit::allow_alloc();
        buf.reserve(additional.max(1024));
    }
}

/// The round log: file handle, the frame under construction (retained
/// round over round) and the cadence state of the checkpoint.
struct RoundLog {
    file: Option<Box<dyn WalFile>>,
    frame: Vec<u8>,
    /// Bytes in the log file — everything written since the last checkpoint.
    size: u64,
    /// Size of the last checkpoint written or found at startup.
    checkpoint_size: u64,
    /// Sequence number of the last committed round.
    committed: u64,
}

/// One shard's staged records for the next round.
#[derive(Default)]
struct ShardStage {
    staged: Vec<u8>,
    /// Offset and shared timestamp of the currently open `REC_SAMPLES`
    /// record in `staged`, if the most recently staged record is a sample
    /// batch still accepting entries.  Consecutive same-timestamp samples
    /// of a round append to one batch; staging any other record type, a
    /// sample at a different timestamp, or the flush seals it first.
    open_samples: Option<(usize, u64)>,
}

impl ShardStage {
    /// Seals the open sample batch, if any: patches its entry count.
    fn close_samples(&mut self) {
        if let Some((at, _)) = self.open_samples.take() {
            let entries =
                self.staged.len().saturating_sub(at + SAMPLE_HEADER_BYTES) / SAMPLE_ENTRY_BYTES;
            if let Some(slot) = self.staged.get_mut(at + 1..at + 5) {
                slot.copy_from_slice(&(entries as u32).to_le_bytes());
            }
        }
    }
}

/// Bit in [`Wal::failed`] marking the round log broken (shard bits are
/// `1 << shard`).
const LOG_FAILED_BIT: u64 = 1 << 63;

/// The write-ahead log of one durable [`crate::TimeSeriesDb`].
pub(crate) struct Wal {
    fs: Arc<dyn WalFs>,
    fsync: FsyncMode,
    segment_bytes: u64,
    /// Failure bits: `1 << shard` per shard that failed recovery,
    /// [`LOG_FAILED_BIT`] for the log.  Sticky — a failed shard is never
    /// staged again, a failed log never written again.
    failed: AtomicU64,
    log_path: PathBuf,
    checkpoint_path: PathBuf,
    log: Mutex<RoundLog>,
    shards: [Mutex<ShardStage>; SHARD_COUNT],
}

impl Wal {
    /// Marks `shard` broken (sticky): no further staging, counted in
    /// [`Wal::failed_shard_count`].  Used by the storage layer when a
    /// shard's recovered state fails validation during replay.
    pub(crate) fn mark_shard_failed(&self, shard: usize) {
        if shard < SHARD_COUNT {
            self.failed.fetch_or(1 << shard, Ordering::Relaxed);
        }
    }

    fn mark_log_failed(&self) {
        self.failed.fetch_or(LOG_FAILED_BIT, Ordering::Relaxed);
    }

    fn shard_failed(&self, shard: usize) -> bool {
        let mask = self.failed.load(Ordering::Relaxed);
        mask & LOG_FAILED_BIT != 0 || shard < SHARD_COUNT && mask & (1 << shard) != 0
    }

    fn log_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed) & LOG_FAILED_BIT != 0
    }

    /// Number of shards currently flagged as failed (all of them once the
    /// log is broken) — surfaced in [`crate::StorageStats`].
    pub(crate) fn failed_shard_count(&self) -> u64 {
        let mask = self.failed.load(Ordering::Relaxed);
        if mask & LOG_FAILED_BIT != 0 {
            SHARD_COUNT as u64
        } else {
            u64::from((mask & ((1 << SHARD_COUNT) - 1)).count_ones())
        }
    }

    /// A staging handle for `shard`, or `None` once the shard (or the log)
    /// has failed.  Locks the shard's `tsdb.wal.shard` mutex — the caller
    /// already holds the matching `tsdb.shard` lock.
    pub(crate) fn shard_writer(&self, shard: usize) -> Option<ShardWriter<'_>> {
        if self.shard_failed(shard) {
            return None;
        }
        Some(ShardWriter { stage: self.shards.get(shard)?.lock() })
    }

    /// Whether `shard` has nothing staged.  The checkpoint calls it with the
    /// shard's `tsdb.shard` lock held, so nothing can stage in between.
    pub(crate) fn staging_empty(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(|slot| slot.lock().staged.is_empty())
    }

    /// Commits the round: drains every dirty shard's staged records into
    /// one frame, sweeps the symbol table, appends the symbol delta, and
    /// writes the frame in one append (plus one fsync under
    /// [`FsyncMode::EveryCommit`]).  A round with nothing staged and no
    /// symbol change writes nothing.  Returns `false` once the log or any
    /// shard has failed, this round or earlier.
    ///
    /// Called once per scrape round by the single flush driver —
    /// crash-exactness ("recover precisely the acked rounds") is defined for
    /// that single-flusher discipline — but appends racing a flush stay
    /// safe: a record staged after its shard was drained lands in the next
    /// frame, and the symbol delta is captured *after* the drain, so every
    /// binding a drained record references is in the same frame or an
    /// earlier one.  The sweep frees only bindings that cooled for two
    /// commits, so the record that released one is already durable — the
    /// race above delays a releasing record by at most one frame.
    pub(crate) fn flush(&self, symbols: &RwLock<SymbolTable>) -> bool {
        let mut guard = self.log.lock();
        if self.log_failed() {
            return false;
        }
        let log = &mut *guard;
        let seq = log.committed + 1;
        let frame = &mut log.frame;
        frame.clear();
        let at = begin_frame(frame);
        frame.push(FRAME_ROUND);
        put_u64(frame, seq);
        let empty = frame.len();
        for (shard, slot) in self.shards.iter().enumerate() {
            let mut stage = slot.lock();
            if stage.staged.is_empty() {
                continue;
            }
            stage.close_samples();
            reserve_staged(frame, SECTION_HEADER_BYTES + stage.staged.len());
            put_section(frame, shard as u8, &stage.staged);
            stage.staged.clear();
        }
        let swept = {
            let mut table = symbols.write();
            let bound = table.take_dirty_bindings();
            let swept = table.sweep();
            let freed = table.take_freed();
            if !bound.is_empty() || !freed.is_empty() {
                let len = bindings_len(&bound) + 4 + 4 * freed.len();
                reserve_staged(frame, SECTION_HEADER_BYTES + len);
                frame.push(SECTION_SYMBOLS);
                put_u32(frame, len as u32);
                put_bindings(frame, &bound);
                put_u32(frame, freed.len() as u32);
                for raw in &freed {
                    put_u32(frame, *raw);
                }
            }
            swept
        };
        if frame.len() == empty {
            return self.failed.load(Ordering::Relaxed) == 0;
        }
        end_frame(frame, at);
        if self.append_frame(log).is_err() {
            self.mark_log_failed();
            return false;
        }
        log.committed = seq;
        // Age the symbol-GC cooling queue: zero-ref bindings become
        // sweepable only after two of these boundaries.
        symbols.write().commit_durable();
        if swept > 0 {
            probes::SYMBOLS_SWEPT.add(swept as u64);
        }
        self.failed.load(Ordering::Relaxed) == 0
    }

    /// Appends the built frame to the log (opening it on first use) and
    /// fsyncs under [`FsyncMode::EveryCommit`].
    fn append_frame(&self, log: &mut RoundLog) -> io::Result<()> {
        if log.file.is_none() {
            let (file, len) = self.fs.open_append(&self.log_path)?;
            log.file = Some(file);
            log.size = len;
        }
        let Some(file) = log.file.as_mut() else {
            return Ok(());
        };
        file.append(&log.frame)?;
        if self.fsync == FsyncMode::EveryCommit {
            let watch = Stopwatch::start();
            file.sync()?;
            probes::WAL_FSYNC_NS.record_ns(watch.elapsed_ns());
        }
        probes::WAL_BYTES_WRITTEN.add(log.frame.len() as u64);
        log.size += log.frame.len() as u64;
        Ok(())
    }

    /// Checkpoints the database once the log holds more than
    /// `max(segment_bytes, size of the last checkpoint)` bytes.
    /// `encode_shard(shard, out)` appends the shard's snapshot to `out` and
    /// returns `true`, or returns `false` when the shard's staging buffer is
    /// not empty — the checkpoint is then retried after the next commit.
    ///
    /// Order: fsync the log (under [`FsyncMode::OnRotation`] this is where
    /// logged rounds become power-loss safe, even if the replace below
    /// fails), replace the checkpoint atomically, truncate the log.  A
    /// failed fsync fails the log like any other log I/O error.  A failed
    /// replace or truncation is retried after the next commit: recovery
    /// skips frames at or below the checkpoint's base, so frames left
    /// behind only make the log longer.
    pub(crate) fn maybe_checkpoint(
        &self,
        symbols: &RwLock<SymbolTable>,
        mut encode_shard: impl FnMut(usize, &mut Vec<u8>) -> bool,
    ) {
        let mut guard = self.log.lock();
        let log = &mut *guard;
        if self.log_failed() || log.size <= self.segment_bytes.max(log.checkpoint_size) {
            return;
        }
        let mut buf = Vec::new();
        {
            let table = symbols.read();
            let live = table.live_bindings();
            let at = begin_frame(&mut buf);
            buf.push(FRAME_CHECKPOINT);
            put_u64(&mut buf, log.committed);
            put_u64(&mut buf, table.epoch());
            put_bindings(&mut buf, &live);
            end_frame(&mut buf, at);
        }
        for shard in 0..SHARD_COUNT {
            let at = begin_frame(&mut buf);
            if self.shard_failed(shard) {
                buf.push(FRAME_SHARD_FAILED);
            } else {
                buf.push(FRAME_SHARD);
                if !encode_shard(shard, &mut buf) {
                    return;
                }
            }
            end_frame(&mut buf, at);
        }
        if let Some(file) = log.file.as_mut() {
            let watch = Stopwatch::start();
            if file.sync().is_err() {
                self.mark_log_failed();
                return;
            }
            probes::WAL_FSYNC_NS.record_ns(watch.elapsed_ns());
        }
        if self.fs.write_atomic(&self.checkpoint_path, &buf).is_err() {
            return;
        }
        log.checkpoint_size = buf.len() as u64;
        if self.fs.truncate(&self.log_path, 0).is_ok() {
            log.size = 0;
        }
    }
}

/// Staging handle for one shard's buffer, held alongside the shard's data
/// lock while a round's mutations are applied.
pub(crate) struct ShardWriter<'a> {
    stage: MutexGuard<'a, ShardStage>,
}

impl ShardWriter<'_> {
    /// Seals any open sample batch and reserves room for a `need`-byte
    /// record.
    fn begin(&mut self, need: usize) -> &mut Vec<u8> {
        self.stage.close_samples();
        reserve_staged(&mut self.stage.staged, need);
        &mut self.stage.staged
    }

    /// Stages a series-creation record.
    pub(crate) fn series(
        &mut self,
        id: u64,
        name_sym: SymbolId,
        label_syms: &[(SymbolId, SymbolId)],
    ) {
        let buf = self.begin(17 + label_syms.len() * 8);
        buf.push(REC_SERIES);
        put_u64(buf, id);
        put_u32(buf, name_sym.as_u32());
        put_u32(buf, label_syms.len() as u32);
        for (k, v) in label_syms {
            put_u32(buf, k.as_u32());
            put_u32(buf, v.as_u32());
        }
    }

    /// Stages one attempted append (accepted *or* rejected — replay re-runs
    /// the same ingest logic, so rejection is reproduced, not recorded).
    /// Consecutive samples at the same timestamp share one `REC_SAMPLES`
    /// batch, sealed when another record type (or a different timestamp)
    /// is staged or the round flushes — the per-sample cost is a 12-byte
    /// copy, with the timestamp paid once per batch.
    pub(crate) fn sample(&mut self, local: u32, timestamp_ms: u64, value: f64) {
        let stage = &mut *self.stage;
        reserve_staged(&mut stage.staged, SAMPLE_HEADER_BYTES + SAMPLE_ENTRY_BYTES);
        match stage.open_samples {
            Some((_, ts)) if ts == timestamp_ms => {}
            _ => {
                stage.close_samples();
                let at = stage.staged.len();
                stage.staged.push(REC_SAMPLES);
                put_u32(&mut stage.staged, 0); // entry count, patched on close
                put_u64(&mut stage.staged, timestamp_ms);
                stage.open_samples = Some((at, timestamp_ms));
            }
        }
        let mut entry = [0u8; SAMPLE_ENTRY_BYTES];
        // teemon-verify: allow(no-index): fixed-size split of a stack array.
        entry[..4].copy_from_slice(&local.to_le_bytes());
        // teemon-verify: allow(no-index): fixed-size split of a stack array.
        entry[4..].copy_from_slice(&value.to_bits().to_le_bytes());
        stage.staged.extend_from_slice(&entry);
    }

    /// Stages a drop of the series at `victims` (pre-removal local indexes,
    /// ascending — the same order the live path removes them in).
    pub(crate) fn drop_locals(&mut self, victims: &[u32]) {
        let buf = self.begin(5 + victims.len() * 4);
        buf.push(REC_DROP);
        put_u32(buf, victims.len() as u32);
        for v in victims {
            put_u32(buf, *v);
        }
    }

    /// Stages a retention pass at `cutoff_ms`.
    pub(crate) fn retention(&mut self, cutoff_ms: u64) {
        let buf = self.begin(9);
        buf.push(REC_RETENTION);
        put_u64(buf, cutoff_ms);
    }
}

// ---------------------------------------------------------------------------
// Shard snapshots
// ---------------------------------------------------------------------------

/// Borrowed view of one series, assembled by the storage layer for
/// [`encode_shard_snapshot`].
pub(crate) struct SnapSeriesRef<'a> {
    pub(crate) id: u64,
    pub(crate) name_sym: SymbolId,
    pub(crate) label_syms: &'a [(SymbolId, SymbolId)],
    pub(crate) ever_appended: bool,
    pub(crate) head: &'a [Sample],
    pub(crate) sealed: &'a [Arc<Chunk>],
}

/// Chunk payload kind tags inside snapshots.
const CHUNK_RAW: u8 = 0;
const CHUNK_GORILLA: u8 = 1;

fn put_samples(buf: &mut Vec<u8>, samples: &[Sample]) {
    for s in samples {
        put_u64(buf, s.timestamp_ms);
        put_u64(buf, s.value.to_bits());
    }
}

/// Appends a shard's full state to `buf`: generation, rejection count and
/// series count, then each series (head Gorilla-compressed where the codec
/// accepts it, sealed chunk payloads carried byte-identically).  The
/// checkpoint frames it, so it carries no checksum of its own.
pub(crate) fn encode_shard_snapshot(
    buf: &mut Vec<u8>,
    generation: u64,
    rejected: u64,
    series: &[SnapSeriesRef<'_>],
) {
    put_u64(buf, generation);
    put_u64(buf, rejected);
    put_u32(buf, series.len() as u32);
    for s in series {
        put_u64(buf, s.id);
        put_u32(buf, s.name_sym.as_u32());
        buf.push(u8::from(s.ever_appended));
        put_u32(buf, s.label_syms.len() as u32);
        for (k, v) in s.label_syms {
            put_u32(buf, k.as_u32());
            put_u32(buf, v.as_u32());
        }
        // Head: Gorilla when the codec accepts it, raw samples otherwise.
        put_u32(buf, s.head.len() as u32);
        match chunk_codec::encode(s.head) {
            Some(block) if !s.head.is_empty() => {
                buf.push(CHUNK_GORILLA);
                put_u32(buf, block.len() as u32);
                buf.extend_from_slice(&block);
            }
            _ => {
                buf.push(CHUNK_RAW);
                put_samples(buf, s.head);
            }
        }
        // Sealed chunks, payloads verbatim so reopen is byte-identical.
        put_u32(buf, s.sealed.len() as u32);
        for chunk in s.sealed {
            let (kind, len) = match &chunk.data {
                ChunkData::Raw(samples) => (CHUNK_RAW, samples.len() * 16),
                ChunkData::Compressed(bytes) => (CHUNK_GORILLA, bytes.len()),
            };
            buf.push(kind);
            put_u32(buf, chunk.count);
            put_u64(buf, chunk.start_ms);
            put_u64(buf, chunk.end_ms);
            put_u32(buf, len as u32);
            match &chunk.data {
                ChunkData::Raw(samples) => put_samples(buf, samples),
                ChunkData::Compressed(bytes) => buf.extend_from_slice(bytes),
            }
        }
    }
}

/// One series restored from a shard snapshot.
pub(crate) struct SnapSeries {
    pub(crate) id: u64,
    pub(crate) name_sym: SymbolId,
    pub(crate) label_syms: Vec<(SymbolId, SymbolId)>,
    pub(crate) ever_appended: bool,
    pub(crate) head: Vec<Sample>,
    pub(crate) sealed: Vec<Chunk>,
}

/// A decoded shard snapshot: the shard as of the checkpoint's base round.
pub(crate) struct ShardSnapshot {
    pub(crate) generation: u64,
    pub(crate) rejected: u64,
    pub(crate) series: Vec<SnapSeries>,
}

fn take_samples(cur: &mut Cur<'_>, count: u32) -> Option<Vec<Sample>> {
    if count > MAX_COUNT {
        return None;
    }
    let mut samples = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let timestamp_ms = cur.u64()?;
        let value = f64::from_bits(cur.u64()?);
        samples.push(Sample { timestamp_ms, value });
    }
    Some(samples)
}

fn take_label_syms(cur: &mut Cur<'_>) -> Option<Vec<(SymbolId, SymbolId)>> {
    let count = cur.count()?;
    let mut label_syms = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let k = SymbolId::from_u32(cur.u32()?);
        let v = SymbolId::from_u32(cur.u32()?);
        label_syms.push((k, v));
    }
    Some(label_syms)
}

fn take_snap_series(cur: &mut Cur<'_>) -> Option<SnapSeries> {
    let id = cur.u64()?;
    let name_sym = SymbolId::from_u32(cur.u32()?);
    let ever_appended = cur.u8()? != 0;
    let label_syms = take_label_syms(cur)?;
    let head_count = cur.count()?;
    let head = match cur.u8()? {
        CHUNK_RAW => take_samples(cur, head_count)?,
        CHUNK_GORILLA => {
            let len = cur.u32()? as usize;
            let samples = chunk_codec::decode(cur.take(len)?, head_count as usize);
            if samples.len() != head_count as usize {
                return None;
            }
            samples
        }
        _ => return None,
    };
    let sealed_count = cur.count()?;
    let mut sealed = Vec::with_capacity(sealed_count as usize);
    for _ in 0..sealed_count {
        let kind = cur.u8()?;
        let count = cur.count()?;
        let start_ms = cur.u64()?;
        let end_ms = cur.u64()?;
        let len = cur.u32()? as usize;
        let data = match kind {
            CHUNK_RAW if len == count as usize * 16 => ChunkData::Raw(take_samples(cur, count)?),
            CHUNK_GORILLA => ChunkData::Compressed(cur.take(len)?.to_vec()),
            _ => return None,
        };
        sealed.push(Chunk { start_ms, end_ms, count, data });
    }
    Some(SnapSeries { id, name_sym, label_syms, ever_appended, head, sealed })
}

/// Decodes a whole [`encode_shard_snapshot`] image; any truncation or
/// trailing byte rejects it.
fn decode_shard_snapshot(bytes: &[u8]) -> Option<ShardSnapshot> {
    let mut cur = Cur::new(bytes);
    let generation = cur.u64()?;
    let rejected = cur.u64()?;
    let count = cur.count()?;
    let mut series = Vec::with_capacity(count as usize);
    for _ in 0..count {
        series.push(take_snap_series(&mut cur)?);
    }
    cur.done().then_some(ShardSnapshot { generation, rejected, series })
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// One replayable shard operation, in log order.
pub(crate) enum ShardOp {
    /// Series creation.
    Series { id: u64, name_sym: SymbolId, label_syms: Vec<(SymbolId, SymbolId)> },
    /// One attempted append (replay re-runs acceptance).
    Sample { local: u32, timestamp_ms: u64, value: f64 },
    /// `drop_series` removal of these pre-removal local indexes.
    Drop { victims: Vec<u32> },
    /// Retention pass at this cutoff.
    Retention { cutoff_ms: u64 },
}

/// The replay input for one shard: its checkpoint snapshot (if any) and
/// the ops of every later round.
#[derive(Default)]
pub(crate) struct ShardLoad {
    pub(crate) snapshot: Option<ShardSnapshot>,
    pub(crate) ops: Vec<ShardOp>,
}

/// Everything [`Wal::open`] recovered; the storage layer replays it.
pub(crate) struct Recovery {
    /// The live symbol bindings as of the last recovered round, by slot.
    pub(crate) bindings: Vec<(u32, String)>,
    /// Sweep epoch as of the last recovered round.
    pub(crate) epoch: u64,
    /// Per-shard replay input, `SHARD_COUNT` entries; `None` for a shard
    /// that failed recovery (it comes up empty and flagged).
    pub(crate) shards: Vec<Option<ShardLoad>>,
}

/// Decodes one shard section's records into `ops`.  Returns `false` when a
/// record fails to decode.
fn decode_shard_ops(body: &[u8], ops: &mut Vec<ShardOp>) -> bool {
    let mut cur = Cur::new(body);
    while !cur.done() {
        if decode_record(&mut cur, ops).is_none() {
            return false;
        }
    }
    true
}

/// Decodes the record at the cursor; a `REC_SAMPLES` batch expands to one
/// [`ShardOp::Sample`] per entry.
fn decode_record(cur: &mut Cur<'_>, ops: &mut Vec<ShardOp>) -> Option<()> {
    match cur.u8()? {
        REC_SERIES => {
            let id = cur.u64()?;
            let name_sym = SymbolId::from_u32(cur.u32()?);
            let label_syms = take_label_syms(cur)?;
            ops.push(ShardOp::Series { id, name_sym, label_syms });
        }
        REC_SAMPLES => {
            let count = cur.count()?;
            let timestamp_ms = cur.u64()?;
            ops.reserve(count as usize);
            for _ in 0..count {
                let local = cur.u32()?;
                let value = f64::from_bits(cur.u64()?);
                ops.push(ShardOp::Sample { local, timestamp_ms, value });
            }
        }
        REC_DROP => {
            let count = cur.count()?;
            let mut victims = Vec::with_capacity(count as usize);
            for _ in 0..count {
                victims.push(cur.u32()?);
            }
            ops.push(ShardOp::Drop { victims });
        }
        REC_RETENTION => ops.push(ShardOp::Retention { cutoff_ms: cur.u64()? }),
        _ => return None,
    }
    Some(())
}

/// A decoded round frame: its sequence number, the shard sections, and
/// the symbol delta (bindings, then freed slots).
struct RoundFrame<'a> {
    seq: u64,
    sections: Vec<(usize, &'a [u8])>,
    bound: Vec<(u32, String)>,
    freed: Vec<u32>,
}

/// Decodes a round frame's structure; `None` when it is malformed.  The
/// shard sections' records are decoded separately, shard by shard.
fn decode_round(payload: &[u8]) -> Option<RoundFrame<'_>> {
    let mut cur = Cur::new(payload);
    let mut frame =
        RoundFrame { seq: cur.u64()?, sections: Vec::new(), bound: Vec::new(), freed: Vec::new() };
    while !cur.done() {
        let tag = cur.u8()?;
        let len = cur.u32()? as usize;
        let body = cur.take(len)?;
        if usize::from(tag) < SHARD_COUNT {
            frame.sections.push((usize::from(tag), body));
        } else if tag == SECTION_SYMBOLS {
            let mut sym = Cur::new(body);
            frame.bound = take_bindings(&mut sym)?;
            let freed = sym.count()?;
            for _ in 0..freed {
                frame.freed.push(sym.u32()?);
            }
            if !sym.done() {
                return None;
            }
        } else {
            return None;
        }
    }
    Some(frame)
}

/// A decoded checkpoint: base round, sweep epoch, live bindings, and one
/// entry per shard — `None` where the shard's frame did not verify or
/// decode, or recorded a shard that had already failed.
struct Checkpoint {
    base: u64,
    epoch: u64,
    bindings: Vec<(u32, String)>,
    shards: Vec<Option<ShardSnapshot>>,
}

/// Decodes a checkpoint image; `None` when its header (the symbol table
/// every shard depends on) does not verify.  A damaged shard frame fails
/// only that shard, as long as its length still locates the next one.
fn decode_checkpoint(bytes: &[u8]) -> Option<Checkpoint> {
    let (mut at, Some((FRAME_CHECKPOINT, header))) = frame_at(bytes, 0)? else {
        return None;
    };
    let mut cur = Cur::new(header);
    let base = cur.u64()?;
    let epoch = cur.u64()?;
    let bindings = take_bindings(&mut cur)?;
    if !cur.done() {
        return None;
    }
    let mut shards = Vec::with_capacity(SHARD_COUNT);
    for _ in 0..SHARD_COUNT {
        let frame = frame_at(bytes, at);
        let start = at;
        if let Some((end, _)) = frame {
            at = end;
        }
        let marked_failed = matches!(frame, Some((_, Some((FRAME_SHARD_FAILED, _)))));
        let snapshot = match frame {
            Some((_, Some((FRAME_SHARD, payload)))) => decode_shard_snapshot(payload),
            _ => None,
        };
        if snapshot.is_none() && !marked_failed {
            note_salvage(at.saturating_sub(start) as u64);
        }
        shards.push(snapshot);
    }
    Some(Checkpoint { base, epoch, bindings, shards })
}

/// Counts a salvage event: `dropped` bytes did not survive validation.
fn note_salvage(dropped: u64) {
    probes::WAL_SALVAGE.inc();
    probes::WAL_SALVAGED_BYTES.add(dropped);
}

impl Wal {
    /// Opens (or creates) the durability directory and recovers its
    /// contents: the checkpoint, then every verifying round frame above its
    /// base.  Never panics on corrupt input: a damaged log tail is salvaged
    /// by truncation, a shard whose checkpoint or round section does not
    /// decode fails alone, and an unreadable checkpoint header fails the
    /// whole log (symbols are global) — in every case the database still
    /// opens.
    pub(crate) fn open(dir: &Path, options: &DurabilityOptions) -> io::Result<(Self, Recovery)> {
        let fs = Arc::clone(&options.fs);
        fs.create_dir_all(dir)?;
        let log_path = dir.join("rounds.wal");
        let checkpoint_path = dir.join("checkpoint.snap");

        let mut failed = 0u64;
        let mut base = 0u64;
        let mut epoch = 0u64;
        let mut symbols: BTreeMap<u32, String> = BTreeMap::new();
        let mut shards: Vec<Option<ShardLoad>> =
            (0..SHARD_COUNT).map(|_| Some(ShardLoad::default())).collect();
        let mut checkpoint_size = 0u64;
        if let Some(bytes) = fs.read(&checkpoint_path)? {
            checkpoint_size = bytes.len() as u64;
            match decode_checkpoint(&bytes) {
                Some(checkpoint) => {
                    base = checkpoint.base;
                    epoch = checkpoint.epoch;
                    symbols.extend(checkpoint.bindings);
                    for (slot, snapshot) in shards.iter_mut().zip(checkpoint.shards) {
                        *slot = snapshot.map(|snapshot| ShardLoad {
                            snapshot: Some(snapshot),
                            ops: Vec::new(),
                        });
                    }
                }
                None => {
                    note_salvage(bytes.len() as u64);
                    failed = LOG_FAILED_BIT;
                    shards.iter_mut().for_each(|slot| *slot = None);
                }
            }
        }

        let mut committed = base;
        let mut size = 0u64;
        if failed == 0 {
            if let Some(bytes) = fs.read(&log_path)? {
                let mut scanner = FrameScanner::new(&bytes);
                let mut valid = 0;
                while let Some((kind, payload)) = scanner.next() {
                    let Some(frame) =
                        (kind == FRAME_ROUND).then(|| decode_round(payload)).flatten()
                    else {
                        break;
                    };
                    valid = scanner.valid_len;
                    if frame.seq <= base {
                        // Already folded into the checkpoint: left behind
                        // by a crash before the log's truncation.
                        continue;
                    }
                    committed = committed.max(frame.seq);
                    symbols.extend(frame.bound);
                    for raw in &frame.freed {
                        symbols.remove(raw);
                    }
                    if !frame.freed.is_empty() {
                        epoch += 1;
                    }
                    for (shard, body) in frame.sections {
                        let Some(slot) = shards.get_mut(shard) else { continue };
                        let Some(load) = slot else { continue };
                        if !decode_shard_ops(body, &mut load.ops) {
                            probes::WAL_RECORDS_DROPPED.add(load.ops.len() as u64);
                            note_salvage(body.len() as u64);
                            *slot = None;
                        }
                    }
                }
                size = valid as u64;
                if valid < bytes.len() {
                    note_salvage((bytes.len() - valid) as u64);
                    if fs.truncate(&log_path, size).is_err() {
                        failed |= LOG_FAILED_BIT;
                    }
                }
            }
        }

        for (shard, slot) in shards.iter().enumerate() {
            if slot.is_none() {
                failed |= 1 << shard;
            }
        }
        let wal = Wal {
            fs,
            fsync: options.fsync,
            segment_bytes: options.segment_bytes,
            failed: AtomicU64::new(failed),
            log_path,
            checkpoint_path,
            log: Mutex::named(
                RoundLog { file: None, frame: Vec::new(), size, checkpoint_size, committed },
                LockClass::new("tsdb.wal"),
            ),
            shards: std::array::from_fn(|i| {
                Mutex::named(
                    ShardStage::default(),
                    LockClass::new("tsdb.wal.shard").instance(i as u32),
                )
            }),
        };
        Ok((wal, Recovery { bindings: symbols.into_iter().collect(), epoch, shards }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32 (IEEE 802.3) check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        let at = begin_frame(&mut buf);
        buf.push(kind);
        buf.extend_from_slice(body);
        end_frame(&mut buf, at);
        buf
    }

    #[test]
    fn frames_round_trip_through_the_scanner() {
        let mut log = frame(FRAME_ROUND, &7u64.to_le_bytes());
        log.extend_from_slice(&frame(FRAME_CHECKPOINT, &42u64.to_le_bytes()));
        let mut scanner = FrameScanner::new(&log);
        assert!(
            matches!(scanner.next(), Some((FRAME_ROUND, payload)) if payload == 7u64.to_le_bytes())
        );
        assert!(matches!(scanner.next(), Some((FRAME_CHECKPOINT, _))));
        assert!(scanner.next().is_none());
        assert_eq!(scanner.valid_len, log.len());
    }

    #[test]
    fn scanner_salvages_at_torn_and_corrupt_frames() {
        let first = frame(FRAME_ROUND, &1u64.to_le_bytes());
        let second = frame(FRAME_ROUND, &2u64.to_le_bytes());
        // Torn tail: any strict prefix of the second frame is rejected and
        // the salvage point is the end of the first.
        for cut in 0..second.len() {
            let mut log = first.clone();
            log.extend_from_slice(second.get(..cut).unwrap_or(&[]));
            let mut scanner = FrameScanner::new(&log);
            assert!(scanner.next().is_some());
            assert!(scanner.next().is_none(), "cut at {cut} must not verify");
            assert_eq!(scanner.valid_len, first.len());
        }
        // A flipped bit anywhere in the second frame fails its CRC (or its
        // length bound) and salvages at the same point.
        for bit in 0..second.len() * 8 {
            let mut log = first.clone();
            let mut broken = second.clone();
            if let Some(byte) = broken.get_mut(bit / 8) {
                *byte ^= 1 << (bit % 8);
            }
            log.extend_from_slice(&broken);
            let mut scanner = FrameScanner::new(&log);
            assert!(scanner.next().is_some());
            assert!(scanner.next().is_none(), "bit flip at {bit} must not verify");
            assert_eq!(scanner.valid_len, first.len());
        }
    }

    #[test]
    fn fault_fs_crash_models_honour_sync_points() {
        let fs = FaultFs::new();
        let path = Path::new("/x.wal");
        let (mut file, len) = fs.open_append(path).expect("FaultFs open");
        assert_eq!(len, 0);
        file.append(b"aaaa").expect("append");
        file.sync().expect("sync");
        file.append(b"bbbb").expect("append");
        // No sync after "bbbb".
        assert_eq!(fs.total_write_bytes(), 8);

        // Torn with a full budget keeps everything written...
        let torn = fs.crashed(8, CrashModel::Torn);
        assert_eq!(torn.file_len(path), Some(8));
        // ...a smaller budget tears mid-write...
        let torn = fs.crashed(6, CrashModel::Torn);
        assert_eq!(torn.file_len(path), Some(6));
        // ...and SyncedOnly drops everything after the last fsync.
        let synced = fs.crashed(8, CrashModel::SyncedOnly);
        assert_eq!(synced.file_len(path), Some(4));

        // Atomic replaces are all-or-nothing and consume no byte budget —
        // but they still honour journal order: a budget that tears an
        // earlier write never reaches them.
        fs.write_atomic(Path::new("/y.snap"), b"snapshot").expect("atomic");
        let image = fs.crashed(8, CrashModel::SyncedOnly);
        assert_eq!(image.file_len(Path::new("/y.snap")), Some(8));
        assert_eq!(image.file_len(path), Some(4));
        let image = fs.crashed(0, CrashModel::SyncedOnly);
        assert_eq!(image.file_len(Path::new("/y.snap")), None, "torn before the atomic");
    }

    #[test]
    fn op_boundary_crashes_split_non_append_operations() {
        let fs = FaultFs::new();
        let wal = Path::new("/m.wal");
        let snap = Path::new("/m.snap");
        let (mut file, _) = fs.open_append(wal).expect("FaultFs open");
        file.append(b"tail").expect("append");
        fs.write_atomic(snap, b"snapshot").expect("atomic");
        fs.truncate(wal, 0).expect("truncate");
        assert_eq!(fs.op_count(), 3);
        // The byte budget cannot separate the atomic replace from the
        // truncation that follows it: both ride on the last appended byte.
        let image = fs.crashed(4, CrashModel::Torn);
        assert_eq!(image.file_len(snap), Some(8));
        assert_eq!(image.file_len(wal), Some(0));
        // Op boundaries can: a crash after the snapshot install but before
        // the truncation — the window an interrupted rotation leaves.
        let image = fs.crashed_at_op(2, CrashModel::Torn);
        assert_eq!(image.file_len(snap), Some(8));
        assert_eq!(image.file_len(wal), Some(4), "log must not be truncated yet");
        let image = fs.crashed_at_op(1, CrashModel::Torn);
        assert_eq!(image.file_len(snap), None, "crash before the atomic install");
        assert_eq!(image.file_len(wal), Some(4));
    }

    #[test]
    fn failpoint_writer_injects_short_writes_and_fsync_errors() {
        let fs = FaultFs::new();
        let path = Path::new("/fp.wal");
        let (inner, _) = fs.open_append(path).expect("FaultFs open");
        let mut writer = FailpointWriter::new(inner, Some(1), Some(2));
        writer.append(b"12345678").expect("first write passes");
        let err = writer.append(b"12345678").expect_err("second write fails");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        // The failing write left half the bytes behind — a torn tail.
        assert_eq!(fs.file_len(path), Some(12));
        writer.sync().expect("first fsync passes");
        writer.sync().expect("second fsync passes");
        assert!(writer.sync().is_err(), "third fsync must fail");
    }

    #[test]
    fn shard_snapshots_round_trip_byte_identically() {
        let head = vec![
            Sample { timestamp_ms: 1_000, value: 1.5 },
            Sample { timestamp_ms: 2_000, value: -2.25 },
        ];
        let sealed_samples: Vec<Sample> =
            (0..8).map(|i| Sample { timestamp_ms: 10_000 + i * 500, value: i as f64 }).collect();
        let gorilla = Arc::new(Chunk::sealed(sealed_samples.clone(), true));
        let raw = Arc::new(Chunk::sealed(sealed_samples.clone(), false));
        let series = [SnapSeriesRef {
            id: 9,
            name_sym: SymbolId::from_u32(3),
            label_syms: &[(SymbolId::from_u32(1), SymbolId::from_u32(2))],
            ever_appended: true,
            head: &head,
            sealed: &[Arc::clone(&gorilla), Arc::clone(&raw)],
        }];
        let mut bytes = Vec::new();
        encode_shard_snapshot(&mut bytes, 2, 7, &series);
        let snap = decode_shard_snapshot(&bytes).expect("decode");
        assert_eq!(snap.generation, 2);
        assert_eq!(snap.rejected, 7);
        assert_eq!(snap.series.len(), 1);
        let s = &snap.series[0];
        assert_eq!(s.id, 9);
        assert_eq!(s.name_sym, SymbolId::from_u32(3));
        assert_eq!(s.label_syms, vec![(SymbolId::from_u32(1), SymbolId::from_u32(2))]);
        assert!(s.ever_appended);
        assert_eq!(s.head, head);
        assert_eq!(s.sealed.len(), 2);
        // The Gorilla payload is carried verbatim: byte-identical restore.
        match (&s.sealed[0].data, &gorilla.data) {
            (ChunkData::Compressed(restored), ChunkData::Compressed(original)) => {
                assert_eq!(restored, original);
            }
            _ => panic!("sealed chunk must stay compressed"),
        }
        match &s.sealed[1].data {
            ChunkData::Raw(samples) => assert_eq!(samples, &sealed_samples),
            ChunkData::Compressed(_) => panic!("raw chunk must stay raw"),
        }
        // Any truncation of the image is rejected outright — a snapshot is
        // only trusted whole.
        for cut in 0..bytes.len() {
            assert!(decode_shard_snapshot(bytes.get(..cut).unwrap_or(&[])).is_none());
        }
    }
}
