//! The diff store: group-commit WAL, checkpoint files, compaction,
//! recovery.
//!
//! On-disk layout under the data directory:
//!
//! ```text
//! <dir>/wal-<seq>.iwlog      append-only log files, 16-byte header
//!                             ("IWAL", format, file sequence number),
//!                             then CRC-framed records
//! <dir>/ck/<segment>.iwck.0  the segment's two checkpoint-image slots
//! <dir>/ck/<segment>.iwck.1   (records.rs envelope, overwritten in place)
//! ```
//!
//! **Format epoch.** The log header's format field is the directory's
//! epoch. A build reads and writes one ([`LOG_FORMAT`]); a directory with
//! a log of any other format is refused ([`ForeignEpoch`]) untouched.
//!
//! Exactly one log file is *active*; the rest exist only between a
//! compaction's rotate step and its delete step (or, after a restart,
//! until the next compaction reclaims them). Recovery reads
//! every log file in sequence order, so a crash at **any** point of the
//! compaction protocol — rotate, checkpoint each segment, delete old
//! files — leaves a recoverable store: the rotate happens first, so a
//! checkpoint image never describes state newer than a deleted record.
//!
//! **Image slots.** An image overwrites, in place, the slot that does
//! *not* hold the segment's newest durable image, then `fdatasync`s it;
//! only after that sync succeeds does the slot count as newest. So the
//! newest durable image is never the one being written: a crash mid-write
//! tears the other slot, which fails its CRC, and recovery takes the
//! newest CRC-valid image plus the log records after it — records a
//! compaction deletes only after every segment has a newer durable image
//! and the `ck/` directory entries are synced. The slot state is seeded
//! at open from the images recovery read, so the first image after a
//! restart does not overwrite the newest one either.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use bytes::Bytes;
use iw_telemetry::Registry;
use iw_wire::wal::{FrameDefect, FrameReader};
use iw_wire::SegmentDiff;

use crate::records::{
    decode_checkpoint_file, decode_diff_frame, encode_checkpoint_file, encode_diff_frame,
};
use crate::{DurableOptions, Metrics};

/// Magic prefixing every log file.
const LOG_MAGIC: &[u8; 4] = b"IWAL";
/// Log-file header format: the data directory's format epoch.
pub const LOG_FORMAT: u32 = 2;
/// Log-file header length: magic + format + file sequence number.
const LOG_HEADER_LEN: usize = 16;

fn log_file_name(seq: u64) -> String {
    format!("wal-{seq:016x}.iwlog")
}

/// Name of `segment`'s image slot `slot` (0 or 1), with the same
/// escaping as the server's checkpoint codec. Recovery reads the segment
/// name from inside the file and uses this only to tell which slot a
/// file is.
fn slot_file_name(segment: &str, slot: usize) -> String {
    let mut out = String::with_capacity(segment.len() + 7);
    for c in segment.chars() {
        match c {
            '/' => out.push_str("%2F"),
            '%' => out.push_str("%25"),
            c => out.push(c),
        }
    }
    out.push_str(if slot == 0 { ".iwck.0" } else { ".iwck.1" });
    out
}

/// Best-effort directory fsync so file creations and deletions survive
/// power loss. Opening a directory read-only works on unix; elsewhere
/// (and on exotic filesystems) failure is ignored — the data-file
/// fsyncs still hold.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// [`DiffStore::open`]'s refusal of a data directory holding a log of
/// another format epoch than [`LOG_FORMAT`]: the payload of an
/// [`io::ErrorKind::InvalidData`] error. The directory is left as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignEpoch {
    /// The refused data directory.
    pub dir: PathBuf,
    /// The format its log declares.
    pub found: u32,
}

impl fmt::Display for ForeignEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data directory {} holds log format {}, but this build reads only format {LOG_FORMAT}; refused, nothing changed",
            self.dir.display(),
            self.found
        )
    }
}

impl std::error::Error for ForeignEpoch {}

/// State of the recovered store: per-segment images and log tails, plus
/// what the scan saw along the way.
#[derive(Debug, Default)]
pub struct Recovery {
    /// One entry per segment with any durable state, sorted by name.
    pub segments: Vec<SegmentRecovery>,
    /// Diff records accepted for replay (survive the version filter).
    pub replayed_records: u64,
    /// All records scanned across all log files.
    pub scanned_records: u64,
    /// Human-readable anomalies: torn tails truncated, corrupt frames,
    /// undecodable checkpoint files, version gaps. Empty after a clean
    /// shutdown *and* after a plain `kill -9` (a torn tail in the
    /// *final* log file is normal and reported here, not fatal). A log
    /// of another format epoch is not an anomaly but a refusal
    /// ([`ForeignEpoch`]).
    pub warnings: Vec<String>,
}

/// Durable state for one segment: the newest checkpoint image (if any)
/// and the committed diffs to replay on top of it, in version order.
#[derive(Debug)]
pub struct SegmentRecovery {
    /// Segment name.
    pub name: String,
    /// `(captured version, opaque image bytes)` from the newest readable
    /// checkpoint file.
    pub checkpoint: Option<(u64, Bytes)>,
    /// Log tail: contiguous diff chain starting at the checkpoint
    /// version (or 0).
    pub tail: Vec<SegmentDiff>,
}

impl SegmentRecovery {
    /// The version this segment recovers to after image + tail.
    pub fn recovered_version(&self) -> u64 {
        self.tail
            .last()
            .map(|d| d.to_version)
            .or(self.checkpoint.as_ref().map(|&(v, _)| v))
            .unwrap_or(0)
    }
}

struct ActiveLog {
    file: File,
    /// Sequence number baked into the active file's header/name.
    file_seq: u64,
    /// Bytes in the active file (header included).
    bytes: u64,
    /// Bytes across rotated-but-not-yet-deleted files.
    old_bytes: u64,
    /// Rotated files awaiting a successful compaction's delete step.
    old_files: Vec<PathBuf>,
    /// Group commit: records appended so far / highest record known
    /// durable / whether a sync leader is currently running.
    append_seq: u64,
    durable_seq: u64,
    syncing: bool,
}

/// The durable diff store. One per server data directory; all methods
/// take `&self` and are safe to call from concurrent segment shards.
pub struct DiffStore {
    dir: PathBuf,
    ck_dir: PathBuf,
    opts: DurableOptions,
    log: Mutex<ActiveLog>,
    sync_cv: Condvar,
    compacting: AtomicBool,
    /// Per segment, the slot (0 or 1) holding its newest durable image;
    /// absent when no slot does yet (the next image goes to slot 0).
    newest_slot: Mutex<HashMap<String, usize>>,
    metrics: Metrics,
}

impl std::fmt::Debug for DiffStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiffStore")
            .field("dir", &self.dir)
            .field("mode", &self.opts.mode)
            .finish_non_exhaustive()
    }
}

impl DiffStore {
    /// Opens (creating if necessary) the store at `dir`, performing
    /// recovery: newest checkpoint per segment, then the log tail in
    /// file-sequence order, CRC-checked record by record. A torn tail in
    /// the final log file is truncated in place. A fresh active log file
    /// is created, so recovery itself never appends after garbage.
    ///
    /// Metrics are registered under `durable.*` in `registry`.
    ///
    /// # Errors
    ///
    /// I/O failures that prevent the store from operating (cannot create
    /// the directories or the active file), and one refusal: a log file
    /// of another format epoch fails the open with an
    /// [`io::ErrorKind::InvalidData`] error carrying [`ForeignEpoch`],
    /// before anything in `dir` is created, truncated or written.
    /// Otherwise damaged *contents* are never fatal — they surface as
    /// [`Recovery::warnings`].
    pub fn open(
        dir: impl Into<PathBuf>,
        opts: DurableOptions,
        registry: &Arc<Registry>,
    ) -> io::Result<(DiffStore, Recovery)> {
        let dir = dir.into();
        let logs = if dir.is_dir() {
            list_logs(&dir)?
        } else {
            Vec::new()
        };
        check_epoch(&dir, &logs)?;
        let ck_dir = dir.join("ck");
        fs::create_dir_all(&ck_dir)?;
        let metrics = Metrics::new(registry);

        let mut recovery = Recovery::default();
        let checkpoints = read_checkpoints(&ck_dir, &mut recovery.warnings);
        let mut chains: HashMap<String, SegmentRecovery> = HashMap::new();
        let mut newest_slot = HashMap::new();
        for (name, (version, image, slot)) in checkpoints {
            newest_slot.insert(name.clone(), slot);
            chains.insert(
                name.clone(),
                SegmentRecovery {
                    name,
                    checkpoint: Some((version, image)),
                    tail: Vec::new(),
                },
            );
        }

        let mut old_bytes = 0u64;
        let mut old_files = Vec::new();
        for (i, (seq, path)) in logs.iter().enumerate() {
            let last = i + 1 == logs.len();
            match scan_log(path, *seq, last, &mut chains, &mut recovery) {
                Ok(bytes) => old_bytes += bytes,
                Err(e) => recovery
                    .warnings
                    .push(format!("{}: unreadable log file: {e}", path.display())),
            }
            old_files.push(path.clone());
        }

        recovery.segments = chains.into_values().collect();
        recovery.segments.sort_by(|a, b| a.name.cmp(&b.name));
        metrics.recovery_replayed.add(recovery.replayed_records);

        // Fresh active file: one past the highest sequence seen. The
        // recovered files become "old" immediately; the next compaction
        // reclaims them.
        let file_seq = logs.last().map(|&(s, _)| s + 1).unwrap_or(1);
        let path = dir.join(log_file_name(file_seq));
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(LOG_HEADER_LEN);
        header.extend_from_slice(LOG_MAGIC);
        header.extend_from_slice(&LOG_FORMAT.to_be_bytes());
        header.extend_from_slice(&file_seq.to_be_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        sync_dir(&dir);

        let store = DiffStore {
            dir,
            ck_dir,
            opts,
            log: Mutex::new(ActiveLog {
                file,
                file_seq,
                bytes: LOG_HEADER_LEN as u64,
                old_bytes,
                old_files,
                append_seq: 0,
                durable_seq: 0,
                syncing: false,
            }),
            sync_cv: Condvar::new(),
            compacting: AtomicBool::new(false),
            newest_slot: Mutex::new(newest_slot),
            metrics,
        };
        store
            .metrics
            .log_bytes
            .set((old_bytes + LOG_HEADER_LEN as u64) as i64);
        Ok((store, recovery))
    }

    /// The store's tuning knobs.
    pub fn options(&self) -> &DurableOptions {
        &self.opts
    }

    /// Appends one committed diff and, unless fsync is disabled, blocks
    /// until it is durable. Concurrent callers share fsyncs: whoever
    /// finds no sync in flight becomes the leader, syncs *everything
    /// appended so far* outside the lock, and wakes the rest.
    ///
    /// # Errors
    ///
    /// The append's own write error, or — for the leader — the fsync
    /// error. A follower whose leader fails retries the sync itself.
    pub fn append_diff(&self, segment: &str, diff: &SegmentDiff) -> io::Result<()> {
        let r = self.append_frame(&encode_diff_frame(segment, diff));
        if r.is_err() {
            self.metrics.errors.inc();
        }
        r
    }

    fn append_frame(&self, frame: &[u8]) -> io::Result<()> {
        let mut g = self.log.lock().expect("wal lock");
        g.file.write_all(frame)?;
        g.bytes += frame.len() as u64;
        let my_seq = g.append_seq;
        g.append_seq += 1;
        self.metrics.wal_appends.inc();
        self.metrics.wal_bytes.add(frame.len() as u64);
        self.metrics.log_bytes.set((g.bytes + g.old_bytes) as i64);
        if !self.opts.fsync {
            return Ok(());
        }
        loop {
            if g.durable_seq > my_seq {
                return Ok(());
            }
            if !g.syncing {
                // Become the leader: everything appended up to here
                // rides this sync. The file handle is cloned so the
                // fsync runs outside the lock — appends arriving
                // meanwhile form the next batch.
                g.syncing = true;
                let sync_to = g.append_seq;
                let file = g.file.try_clone();
                drop(g);
                let res = match file {
                    Ok(f) => {
                        let t = Instant::now();
                        let r = f.sync_data();
                        self.metrics.fsync_us.record_duration(t.elapsed());
                        self.metrics.fsyncs.inc();
                        r
                    }
                    Err(e) => Err(e),
                };
                let mut g2 = self.log.lock().expect("wal lock");
                g2.syncing = false;
                if res.is_ok() && sync_to > g2.durable_seq {
                    g2.durable_seq = sync_to;
                }
                drop(g2);
                self.sync_cv.notify_all();
                return res;
            }
            g = self.sync_cv.wait(g).expect("wal lock");
        }
    }

    /// Writes segment `segment`'s image at `version` over the slot that
    /// does not hold its newest durable image, `fdatasync`s it, and only
    /// then makes that slot the newest. Images of one segment must not be
    /// written concurrently (the server holds the segment's write lock).
    ///
    /// # Errors
    ///
    /// Any I/O failure along the way; the newest durable image is intact
    /// in that case, and the next image retries the same slot.
    pub fn write_checkpoint(&self, segment: &str, version: u64, image: &[u8]) -> io::Result<()> {
        let r = self.write_checkpoint_inner(segment, version, image);
        if r.is_err() {
            self.metrics.errors.inc();
        }
        r
    }

    fn write_checkpoint_inner(&self, segment: &str, version: u64, image: &[u8]) -> io::Result<()> {
        let slot = match self.newest_slot.lock().expect("slot lock").get(segment) {
            Some(&newest) => 1 - newest,
            None => 0,
        };
        let bytes = encode_checkpoint_file(segment, version, image);
        let t = Instant::now();
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.ck_dir.join(slot_file_name(segment, slot)))?;
        f.write_all(&bytes)?;
        if f.metadata()?.len() != bytes.len() as u64 {
            f.set_len(bytes.len() as u64)?;
        }
        f.sync_data()?;
        self.metrics.checkpoint_us.record_duration(t.elapsed());
        self.newest_slot
            .lock()
            .expect("slot lock")
            .insert(segment.to_string(), slot);
        self.metrics.checkpoints_written.inc();
        Ok(())
    }

    /// Live log bytes: active file plus rotated-but-undeleted files.
    pub fn log_bytes(&self) -> u64 {
        let g = self.log.lock().expect("wal lock");
        g.bytes + g.old_bytes
    }

    /// `true` when the server should run a compaction pass: above the
    /// byte threshold, and no pass already running.
    pub fn needs_compaction(&self) -> bool {
        !self.compacting.load(Ordering::Acquire)
            && self.log_bytes() > self.opts.compact_threshold_bytes
    }

    /// Starts a compaction pass by rotating the log: all further appends
    /// go to a fresh file, so any checkpoint image the caller writes
    /// *after* this call covers every record in the rotated files.
    /// Returns `false` if another pass is already running.
    ///
    /// # Errors
    ///
    /// If the fresh log file cannot be created or the current one cannot
    /// be sealed; the pass is aborted, the fresh file removed, and the
    /// store keeps appending to the current file.
    pub fn begin_compaction(&self) -> io::Result<bool> {
        if self.compacting.swap(true, Ordering::AcqRel) {
            return Ok(false);
        }
        if let Err(e) = self.rotate() {
            self.compacting.store(false, Ordering::Release);
            self.metrics.errors.inc();
            return Err(e);
        }
        Ok(true)
    }

    fn rotate(&self) -> io::Result<()> {
        let next_seq = {
            let g = self.log.lock().expect("wal lock");
            g.file_seq + 1
        };
        let path = self.dir.join(log_file_name(next_seq));
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        let swapped = self.seal_and_swap(file, next_seq);
        if swapped.is_err() {
            // The new file never became active: it holds no record.
            let _ = fs::remove_file(&path);
            sync_dir(&self.dir);
        }
        swapped
    }

    /// Headers the fresh log file `file` (sequence `seq`) before taking
    /// the lock, so the append path is blocked only for the seal and the
    /// swap; then seals the active file and swaps `file` in. On error the
    /// active file is unchanged and none of its records is marked
    /// durable by the seal.
    fn seal_and_swap(&self, mut file: File, seq: u64) -> io::Result<()> {
        let mut header = Vec::with_capacity(LOG_HEADER_LEN);
        header.extend_from_slice(LOG_MAGIC);
        header.extend_from_slice(&LOG_FORMAT.to_be_bytes());
        header.extend_from_slice(&seq.to_be_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        sync_dir(&self.dir);

        let mut g = self.log.lock().expect("wal lock");
        // The old file's tail may still be unsynced; seal it so rotated
        // records are durable even though no future append syncs them.
        g.file.sync_data()?;
        let old_path = self.dir.join(log_file_name(g.file_seq));
        g.file = file;
        g.old_bytes += g.bytes;
        g.bytes = LOG_HEADER_LEN as u64;
        g.old_files.push(old_path);
        g.file_seq = seq;
        // Records in the sealed file are durable by construction.
        g.durable_seq = g.durable_seq.max(g.append_seq);
        drop(g);
        self.sync_cv.notify_all();
        Ok(())
    }

    /// Ends a compaction pass. With `success: true` (every segment's
    /// image was written), the rotated log files are deleted; otherwise
    /// they are kept — recovery reads all files in order, so an aborted
    /// pass costs disk space, never correctness.
    pub fn finish_compaction(&self, success: bool) {
        if success {
            // A segment's first image created its slot file: make those
            // directory entries durable before the records they replace
            // are deleted.
            sync_dir(&self.ck_dir);
            let files = {
                let mut g = self.log.lock().expect("wal lock");
                g.old_bytes = 0;
                self.metrics.log_bytes.set(g.bytes as i64);
                std::mem::take(&mut g.old_files)
            };
            for f in files {
                let _ = fs::remove_file(f);
            }
            sync_dir(&self.dir);
            self.metrics.compactions.inc();
        }
        self.compacting.store(false, Ordering::Release);
    }
}

/// The newest CRC-valid image of one segment: `(version, image, slot)`.
type NewestImage = (u64, Bytes, usize);

/// Reads every image slot, keeping the newest CRC-valid image per
/// segment (higher version wins; a torn slot fails its CRC and is
/// reported as a warning).
fn read_checkpoints(ck_dir: &Path, warnings: &mut Vec<String>) -> HashMap<String, NewestImage> {
    let mut out: HashMap<String, NewestImage> = HashMap::new();
    let entries = match fs::read_dir(ck_dir) {
        Ok(e) => e,
        Err(_) => return out,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let slot = match name.rsplit_once('.') {
            Some((base, "0")) if base.ends_with(".iwck") => 0,
            Some((base, "1")) if base.ends_with(".iwck") => 1,
            _ => continue,
        };
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                warnings.push(format!("{}: unreadable checkpoint: {e}", path.display()));
                continue;
            }
        };
        match decode_checkpoint_file(&bytes) {
            Ok((segment, _, _)) if name != slot_file_name(&segment, slot) => warnings.push(
                format!("{}: not a slot of `{segment}`; skipped", path.display()),
            ),
            Ok((segment, version, image)) => {
                let newest = out.entry(segment).or_insert((0, Bytes::new(), slot));
                if version >= newest.0 {
                    *newest = (version, image, slot);
                }
            }
            Err(e) => warnings.push(format!("{}: bad checkpoint: {e}", path.display())),
        }
    }
    out
}

/// Log files in the data dir, sorted by their sequence number (parsed
/// from the file name; the header is cross-checked during the scan).
fn list_logs(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)?.flatten() {
        let path = entry.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if let Some(hex) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".iwlog"))
        {
            if let Ok(seq) = u64::from_str_radix(hex, 16) {
                out.push((seq, path));
            }
        }
    }
    out.sort_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// Refuses `dir` when a log file's header declares a format other than
/// [`LOG_FORMAT`]. Only reads; a header too short or without the magic
/// names no epoch, and the scan reports it as damage.
fn check_epoch(dir: &Path, logs: &[(u64, PathBuf)]) -> io::Result<()> {
    for (_, path) in logs {
        let mut head = [0u8; 8];
        let read = File::open(path).and_then(|mut f| f.read_exact(&mut head));
        let found = u32::from_be_bytes(head[4..].try_into().expect("4 bytes"));
        if read.is_ok() && &head[..4] == LOG_MAGIC && found != LOG_FORMAT {
            let epoch = ForeignEpoch {
                dir: dir.to_path_buf(),
                found,
            };
            return Err(io::Error::new(io::ErrorKind::InvalidData, epoch));
        }
    }
    Ok(())
}

/// Scans one log file, folding accepted diff records into `chains`.
/// Returns the file's valid byte length (post-truncation for a torn
/// final file).
fn scan_log(
    path: &Path,
    expect_seq: u64,
    is_last: bool,
    chains: &mut HashMap<String, SegmentRecovery>,
    recovery: &mut Recovery,
) -> io::Result<u64> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < LOG_HEADER_LEN {
        // A crash can tear even the 16-byte header write of a brand-new
        // file; on the final file that is a torn tail, not corruption.
        if is_last {
            recovery
                .warnings
                .push(format!("{}: torn log header, file empty", path.display()));
        } else {
            recovery
                .warnings
                .push(format!("{}: log header truncated", path.display()));
        }
        return Ok(bytes.len() as u64);
    }
    if &bytes[0..4] != LOG_MAGIC {
        recovery
            .warnings
            .push(format!("{}: bad log magic, file skipped", path.display()));
        return Ok(bytes.len() as u64);
    }
    // The format was checked before anything was opened for writing.
    let seq = u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if seq != expect_seq {
        recovery.warnings.push(format!(
            "{}: log header mismatch (seq {seq}), file skipped",
            path.display()
        ));
        return Ok(bytes.len() as u64);
    }

    let mut reader = FrameReader::new(&bytes[LOG_HEADER_LEN..]);
    while let Some(frame) = reader.next() {
        recovery.scanned_records += 1;
        let (segment, diff) = match decode_diff_frame(frame.kind, frame.body) {
            Ok(r) => r,
            Err(e) => {
                recovery.warnings.push(format!(
                    "{}: undecodable record at offset {} ({e}); rest of file skipped",
                    path.display(),
                    LOG_HEADER_LEN + frame.end
                ));
                break;
            }
        };
        let chain = chains
            .entry(segment.clone())
            .or_insert_with(|| SegmentRecovery {
                name: segment,
                checkpoint: None,
                tail: Vec::new(),
            });
        let current = chain.recovered_version();
        if diff.to_version <= current {
            continue; // superseded by a checkpoint image or already replayed
        }
        if diff.from_version != current {
            recovery.warnings.push(format!(
                "{}: version gap for segment `{}` (have {current}, record is {}→{}); record skipped",
                path.display(),
                chain.name,
                diff.from_version,
                diff.to_version
            ));
            continue;
        }
        chain.tail.push(diff);
        recovery.replayed_records += 1;
    }

    let valid_len = (LOG_HEADER_LEN + reader.offset()) as u64;
    match reader.defect() {
        None => Ok(bytes.len() as u64),
        Some(FrameDefect::TornTail) if is_last => {
            // The expected shape of a crash mid-append: truncate the
            // file to its last whole record so the garbage is not
            // re-scanned (or mistaken for corruption) on the next start.
            recovery.warnings.push(format!(
                "{}: torn tail truncated at byte {valid_len} (was {})",
                path.display(),
                bytes.len()
            ));
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(valid_len)?;
            f.sync_data()?;
            Ok(valid_len)
        }
        Some(defect) => {
            // Corruption, or a torn tail in a non-final file (records
            // after it were lost): scanning this file stopped; later
            // files are still read, and the per-segment version filter
            // refuses any record that no longer chains.
            recovery.warnings.push(format!(
                "{}: {defect} at byte {valid_len}; rest of file skipped",
                path.display()
            ));
            Ok(bytes.len() as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("iw-durable-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn registry() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    fn diff(from: u64, freed: Vec<u32>) -> SegmentDiff {
        SegmentDiff {
            from_version: from,
            to_version: from + 1,
            new_types: Vec::new(),
            new_blocks: Vec::new(),
            block_diffs: Vec::new(),
            freed,
            ..Default::default()
        }
    }

    fn opts() -> DurableOptions {
        DurableOptions {
            fsync: false, // keep unit tests fast; fsync is exercised by chaos
            ..DurableOptions::default()
        }
    }

    #[test]
    fn fresh_store_recovers_empty() {
        let dir = temp_dir("fresh");
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert!(rec.segments.is_empty());
        assert!(rec.warnings.is_empty());
        assert_eq!(rec.replayed_records, 0);
    }

    #[test]
    fn appended_diffs_replay_in_order() {
        let dir = temp_dir("replay");
        {
            let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
            for v in 0..5 {
                store
                    .append_diff("a/seg", &diff(v, vec![v as u32]))
                    .unwrap();
            }
            store.append_diff("b/seg", &diff(0, vec![])).unwrap();
        }
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        assert_eq!(rec.segments.len(), 2);
        assert_eq!(rec.replayed_records, 6);
        let a = &rec.segments[0];
        assert_eq!(a.name, "a/seg");
        assert!(a.checkpoint.is_none());
        assert_eq!(a.tail.len(), 5);
        assert_eq!(a.recovered_version(), 5);
        for (i, d) in a.tail.iter().enumerate() {
            assert_eq!(d.from_version, i as u64);
        }
    }

    #[test]
    fn checkpoint_supersedes_older_records() {
        let dir = temp_dir("ck");
        {
            let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
            for v in 0..4 {
                store.append_diff("s", &diff(v, vec![])).unwrap();
            }
            store.write_checkpoint("s", 3, b"image@3").unwrap();
            store.append_diff("s", &diff(4, vec![])).unwrap();
        }
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        let s = &rec.segments[0];
        assert_eq!(s.checkpoint.as_ref().unwrap().0, 3);
        assert_eq!(&s.checkpoint.as_ref().unwrap().1[..], b"image@3");
        // Records at versions ≤ 3 are dead; only 3→4 and 4→5 replay.
        assert_eq!(s.tail.len(), 2);
        assert_eq!(s.tail[0].from_version, 3);
        assert_eq!(s.recovered_version(), 5);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = temp_dir("torn");
        {
            let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
            store.append_diff("s", &diff(0, vec![1, 2, 3])).unwrap();
            store.append_diff("s", &diff(1, vec![4, 5, 6])).unwrap();
        }
        // Tear the last append mid-record.
        let log = list_logs(&dir).unwrap().pop().unwrap().1;
        let len = fs::metadata(&log).unwrap().len();
        let f = OpenOptions::new().write(true).open(&log).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert_eq!(rec.replayed_records, 1);
        assert_eq!(rec.segments[0].recovered_version(), 1);
        assert!(rec.warnings.iter().any(|w| w.contains("torn tail")));
        // Truncation happened on disk: a third open sees a clean store.
        let (_store, rec2) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert!(rec2.warnings.is_empty(), "{:?}", rec2.warnings);
        assert_eq!(rec2.segments[0].recovered_version(), 1);
    }

    #[test]
    fn corrupt_record_stops_scan_loudly() {
        let dir = temp_dir("corrupt");
        {
            let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
            store.append_diff("s", &diff(0, vec![])).unwrap();
            store.append_diff("s", &diff(1, vec![])).unwrap();
            store.append_diff("s", &diff(2, vec![])).unwrap();
        }
        let log = list_logs(&dir).unwrap().pop().unwrap().1;
        let mut bytes = fs::read(&log).unwrap();
        // Flip a bit in the middle record's body.
        let frame_len = encode_diff_frame("s", &diff(0, vec![])).len();
        bytes[LOG_HEADER_LEN + frame_len + 12] ^= 0x10;
        fs::write(&log, &bytes).unwrap();
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        // Only the first record survives; the corrupt one and everything
        // after it are dropped, with a warning.
        assert_eq!(rec.replayed_records, 1);
        assert_eq!(rec.segments[0].recovered_version(), 1);
        assert!(rec.warnings.iter().any(|w| w.contains("corrupt")));
    }

    #[test]
    fn duplicated_record_is_skipped_silently() {
        let dir = temp_dir("dup");
        {
            let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
            store.append_diff("s", &diff(0, vec![])).unwrap();
            // Replay the same committed diff twice (e.g. a retried
            // append after a lost ack): idempotent.
            store.append_diff("s", &diff(0, vec![])).unwrap();
            store.append_diff("s", &diff(1, vec![])).unwrap();
        }
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        assert_eq!(rec.replayed_records, 2);
        assert_eq!(rec.segments[0].recovered_version(), 2);
    }

    #[test]
    fn compaction_bounds_replay_to_newest_checkpoint_plus_tail() {
        let dir = temp_dir("compact");
        {
            let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
            for v in 0..10 {
                store.append_diff("s", &diff(v, vec![v as u32])).unwrap();
            }
            assert!(store.begin_compaction().unwrap());
            // Mid-compaction appends land in the rotated-to file.
            store.append_diff("s", &diff(10, vec![])).unwrap();
            store.write_checkpoint("s", 11, b"image@11").unwrap();
            store.finish_compaction(true);
            store.append_diff("s", &diff(11, vec![])).unwrap();
        }
        // Old log is gone; only the post-rotation file(s) remain.
        let logs = list_logs(&dir).unwrap();
        assert_eq!(logs.len(), 1, "compaction must delete rotated files");
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        let s = &rec.segments[0];
        assert_eq!(s.checkpoint.as_ref().unwrap().0, 11);
        assert_eq!(s.tail.len(), 1);
        assert_eq!(s.recovered_version(), 12);
        // Replay read strictly fewer records than were ever appended.
        assert!(rec.scanned_records < 12);
    }

    #[test]
    fn aborted_compaction_keeps_old_files_and_recovers() {
        let dir = temp_dir("abort");
        {
            let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
            for v in 0..6 {
                store.append_diff("s", &diff(v, vec![])).unwrap();
            }
            assert!(store.begin_compaction().unwrap());
            // Crash/failure before any checkpoint was written.
            store.finish_compaction(false);
            store.append_diff("s", &diff(6, vec![])).unwrap();
        }
        assert!(list_logs(&dir).unwrap().len() >= 2);
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        assert_eq!(rec.segments[0].recovered_version(), 7);
    }

    #[test]
    fn concurrent_begin_compaction_is_exclusive() {
        let dir = temp_dir("excl");
        let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert!(store.begin_compaction().unwrap());
        assert!(!store.begin_compaction().unwrap());
        store.finish_compaction(true);
        assert!(store.begin_compaction().unwrap());
        store.finish_compaction(false);
    }

    #[test]
    fn needs_compaction_tracks_threshold_and_running_pass() {
        let dir = temp_dir("thresh");
        let mut o = opts();
        o.compact_threshold_bytes = 64;
        let (store, _) = DiffStore::open(&dir, o, &registry()).unwrap();
        assert!(!store.needs_compaction());
        for v in 0..8 {
            store.append_diff("s", &diff(v, vec![])).unwrap();
        }
        assert!(store.needs_compaction());
        assert!(store.begin_compaction().unwrap());
        assert!(!store.needs_compaction(), "a pass is already running");
        store.finish_compaction(true);
        assert!(!store.needs_compaction(), "the rotated files are gone");
    }

    #[test]
    fn group_commit_from_many_threads_shares_fsyncs() {
        let dir = temp_dir("group");
        let mut o = opts();
        o.fsync = true;
        let reg = registry();
        let (store, _) = DiffStore::open(&dir, o, &reg).unwrap();
        let store = Arc::new(store);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let seg = format!("seg-{t}");
                    for v in 0..16 {
                        store.append_diff(&seg, &diff(v, vec![])).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = reg.snapshot();
        let appends = snap.counter("durable.wal_appends_total").unwrap();
        let fsyncs = snap.counter("durable.fsyncs_total").unwrap();
        assert_eq!(appends, 128);
        assert!(fsyncs >= 1 && fsyncs <= appends);
        drop(store);
        let (_s, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert_eq!(rec.segments.len(), 8);
        for s in &rec.segments {
            assert_eq!(s.recovered_version(), 16, "{}", s.name);
        }
    }

    #[test]
    fn segment_names_with_slashes_checkpoint_cleanly() {
        let dir = temp_dir("names");
        {
            let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
            store.write_checkpoint("org/app%2/seg", 9, b"img").unwrap();
        }
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        assert_eq!(rec.segments[0].name, "org/app%2/seg");
        assert_eq!(rec.segments[0].checkpoint.as_ref().unwrap().0, 9);
    }

    /// An image whose length depends on its version, so consecutive
    /// images of a slot differ in size.
    fn image(v: u64) -> Vec<u8> {
        format!("image@{v};")
            .repeat(20 + (v % 3) as usize * 15)
            .into_bytes()
    }

    fn slot_path(dir: &Path, segment: &str, slot: usize) -> PathBuf {
        dir.join("ck").join(slot_file_name(segment, slot))
    }

    fn slot_version(dir: &Path, segment: &str, slot: usize) -> u64 {
        let bytes = fs::read(slot_path(dir, segment, slot)).unwrap();
        decode_checkpoint_file(&bytes).unwrap().1
    }

    /// A crash mid-image leaves the slot being written torn: its first
    /// bytes new, the rest whatever the slot held before. Recovery must
    /// take the other slot plus the log after it, before and right after
    /// a compaction (whose rotated logs are gone by then).
    #[test]
    fn torn_slot_recovers_from_the_other_slot_plus_the_log() {
        for compact in [false, true] {
            for k in 0..5 {
                let dir = temp_dir("tear");
                let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
                let append = |range: std::ops::Range<u64>| {
                    for v in range {
                        store.append_diff("s", &diff(v, vec![v as u32])).unwrap();
                    }
                };
                append(0..4);
                store.write_checkpoint("s", 4, &image(4)).unwrap(); // slot 0
                append(4..8);
                store.write_checkpoint("s", 8, &image(8)).unwrap(); // slot 1
                let mut base = 8;
                if compact {
                    assert!(store.begin_compaction().unwrap());
                    append(8..10);
                    store.write_checkpoint("s", 10, &image(10)).unwrap(); // slot 0
                    store.finish_compaction(true);
                    base = 10;
                }
                let torn_slot = if compact { 1 } else { 0 };
                append(base..base + 3);
                let end = base + 3;
                let old = fs::read(slot_path(&dir, "s", torn_slot)).unwrap();
                store.write_checkpoint("s", end, &image(end)).unwrap();
                drop(store);
                let new = fs::read(slot_path(&dir, "s", torn_slot)).unwrap();
                let cut = [1, 10, 30, new.len() / 2, new.len() - 1][k];
                let mut torn = old.clone();
                torn.resize(old.len().max(cut), 0);
                torn[..cut].copy_from_slice(&new[..cut]);
                fs::write(slot_path(&dir, "s", torn_slot), &torn).unwrap();

                let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
                let s = &rec.segments[0];
                let ctx = format!("compact {compact}, cut {cut}");
                assert_eq!(
                    s.checkpoint,
                    Some((base, Bytes::from(image(base)))),
                    "{ctx}"
                );
                let want: Vec<SegmentDiff> = (base..end).map(|v| diff(v, vec![v as u32])).collect();
                assert_eq!(s.tail, want, "{ctx}");
                // A cut inside the unchanged magic leaves the old image
                // intact; any other cut fails the CRC, loudly.
                let warned = rec.warnings.iter().any(|w| w.contains("bad checkpoint"));
                assert_eq!(warned, torn != old, "{ctx}: {:?}", rec.warnings);
            }
        }
    }

    /// The first image after a restart goes to the slot that does not
    /// hold the newest image: the slot state survives the reopen.
    #[test]
    fn reopen_never_overwrites_the_newest_slot() {
        let dir = temp_dir("reopen");
        {
            let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
            for v in [2, 4, 6] {
                store.write_checkpoint("a/s", v, &image(v)).unwrap();
            }
        }
        assert_eq!(slot_version(&dir, "a/s", 0), 6);
        let newest = fs::read(slot_path(&dir, "a/s", 0)).unwrap();
        let (store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert_eq!(rec.segments[0].recovered_version(), 6);
        store.write_checkpoint("a/s", 8, &image(8)).unwrap();
        assert_eq!(fs::read(slot_path(&dir, "a/s", 0)).unwrap(), newest);
        assert_eq!(slot_version(&dir, "a/s", 1), 8);
        // However many images, a segment owns exactly two files.
        for v in 9..20 {
            store.write_checkpoint("a/s", v, &image(v)).unwrap();
        }
        assert_eq!(fs::read_dir(dir.join("ck")).unwrap().count(), 2);
        drop(store);
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        assert_eq!(
            rec.segments[0].checkpoint,
            Some((19, Bytes::from(image(19))))
        );
    }

    /// An image write that fails leaves the slot choice alone: the next
    /// image goes to the same slot, never over the newest one.
    #[test]
    fn failed_image_write_keeps_the_slot_choice() {
        let dir = temp_dir("fail");
        let reg = registry();
        let (store, _) = DiffStore::open(&dir, opts(), &reg).unwrap();
        store.write_checkpoint("s", 2, &image(2)).unwrap(); // slot 0
        store.write_checkpoint("s", 4, &image(4)).unwrap(); // slot 1, newest
                                                            // Slot 0 cannot be opened for writing (a directory in its place
                                                            // refuses even a privileged process, unlike a read-only mode).
        let slot0 = slot_path(&dir, "s", 0);
        fs::remove_file(&slot0).unwrap();
        fs::create_dir(&slot0).unwrap();
        assert!(store.write_checkpoint("s", 6, &image(6)).is_err());
        assert_eq!(
            reg.snapshot().counter("durable.errors_total"),
            Some(1),
            "a failed image is counted"
        );
        assert_eq!(slot_version(&dir, "s", 1), 4);
        fs::remove_dir(&slot0).unwrap();
        store.write_checkpoint("s", 8, &image(8)).unwrap();
        assert_eq!(slot_version(&dir, "s", 0), 8);
        assert_eq!(slot_version(&dir, "s", 1), 4);
    }

    /// Only a segment's own slot files are images: a slot copied under
    /// another segment's name is skipped loudly, and a single-file
    /// `<seg>.iwck` (the previous epoch's layout) is not read at all.
    #[test]
    fn only_own_slots_are_read() {
        let dir = temp_dir("slots");
        {
            let (store, _) = DiffStore::open(&dir, opts(), &registry()).unwrap();
            store.write_checkpoint("x", 4, &image(4)).unwrap();
        }
        let ck = dir.join("ck");
        fs::copy(slot_path(&dir, "x", 0), ck.join("y.iwck.1")).unwrap();
        fs::write(ck.join("x.iwck"), encode_checkpoint_file("x", 9, &image(9))).unwrap();
        let (_store, rec) = DiffStore::open(&dir, opts(), &registry()).unwrap();
        assert_eq!(rec.segments.len(), 1);
        assert_eq!(rec.segments[0].checkpoint, Some((4, Bytes::from(image(4)))));
        assert_eq!(rec.warnings.len(), 1, "{:?}", rec.warnings);
        assert!(rec.warnings[0].contains("not a slot of `x`"));
    }

    /// No marker record follows an image: the log holds diffs only.
    #[test]
    fn images_append_nothing_to_the_log() {
        let dir = temp_dir("nomarker");
        let reg = registry();
        let (store, _) = DiffStore::open(&dir, opts(), &reg).unwrap();
        let before = store.log_bytes();
        store.write_checkpoint("s", 3, &image(3)).unwrap();
        assert_eq!(store.log_bytes(), before);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("durable.wal_appends_total"), Some(0));
        assert_eq!(snap.histogram("durable.checkpoint_us").unwrap().count, 1);
    }
}
