//! The InterWeave server: segment table, client registry, and protocol
//! front-end.
//!
//! "An InterWeave server can manage an arbitrary number of segments, and
//! maintains an up-to-date copy of each of them. It also controls access
//! to these segments." (§3.2)
//!
//! A [`Server`] implements [`iw_proto::Handler`], so it can sit behind the
//! loopback transport (in-process experiments) or `iw_net::NetServer`
//! (real sockets) unchanged.
//!
//! # Concurrency
//!
//! `handle_request` takes `&self`: the server is internally sharded so
//! requests against *different* segments execute fully in parallel, and
//! version probes (`Poll` answered `UpToDate`) on the *same* segment
//! share a read lock. The paper's server tracks versions and collects
//! diffs independently per segment, so the sharding follows the data:
//!
//! - the segment table is a `RwLock<HashMap>` of per-segment
//!   `Arc<RwLock<ServerSegment>>` shards (the outer lock is only written
//!   on segment creation / full-sync install);
//! - the reader-writer *client* lock table, the client registry, and the
//!   commit hook each sit behind their own narrow lock.
//!
//! Lock-ordering hierarchy (documented in DESIGN.md §6a): **segment
//! table → segment shard → lock table → ship queue**. A thread may skip
//! levels but never acquires leftward while holding rightward, which
//! makes deadlock impossible; no thread ever holds two segment shards at
//! once (multi-segment commits lock one segment at a time). The commit
//! hook fires *under the segment shard's write lock*, giving the cluster
//! primary a per-segment commit sequence: ship order equals commit
//! order, preserving FIFO replication without a global mutex.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use iw_durable::{DiffStore, DurabilityMode, DurableOptions, Recovery};
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::Coherence;
use iw_telemetry::{Registry, Snapshot};
use iw_wire::diff::SegmentDiff;

use crate::checkpoint;
use crate::error::ServerError;
use crate::locks::LockTable;
use crate::metrics::ServerMetrics;
use crate::segment::ServerSegment;

/// One shard of the segment table.
type SharedSegment = Arc<RwLock<ServerSegment>>;

/// Called under the owning segment's write lock immediately after a
/// client diff commits (write-release or transaction commit). Because
/// the shard lock is still held, invocations for one segment happen in
/// version order — the per-segment commit sequence replication relies
/// on.
pub type CommitHook = Arc<dyn Fn(&str, &SegmentDiff) + Send + Sync>;

/// An InterWeave server instance.
#[derive(Debug, Default)]
pub struct Server {
    /// Segment table: name → independently locked segment shard.
    segments: RwLock<HashMap<String, SharedSegment>>,
    /// Client reader/writer lock table (narrow global lock; grants are
    /// non-blocking so it is never held across I/O or diff work).
    locks: Mutex<LockTable>,
    /// Registered client ids.
    clients: Mutex<HashSet<u64>>,
    next_client: AtomicU64,
    /// Observer for committed client diffs (the cluster primary's ship
    /// queue feed). Fired under the segment write lock.
    commit_hook: RwLock<Option<CommitHook>>,
    /// The durable diff store (`--data-dir`). Committed diffs are
    /// persisted at the same point the commit hook fires — still under
    /// the segment shard's write lock, so the WAL sees every segment's
    /// commits in version order and the PR-3 lock hierarchy gains one
    /// bottom level (… → ship queue → wal) without reordering.
    durable: Option<Arc<DiffStore>>,
    /// High-water mark of `metrics.concurrent_requests`.
    peak_concurrent: AtomicU64,
    metrics: ServerMetrics,
}

/// RAII in-flight accounting for one request: created by
/// [`Server::begin_request`], decrements the concurrency gauge and
/// accumulates `server.busy_us_total` on drop — even when the handler
/// unwinds (a panicking worker must not wedge the gauge).
///
/// Handlers that wrap the server and do their own wire work (the
/// [`Handler`](iw_proto::Handler) impl here, iw-cluster's `Primary`)
/// hold one of these across decode → dispatch → encode, so the busy
/// counter reflects the full span a worker thread spends on a request.
pub struct RequestGuard<'a> {
    metrics: &'a ServerMetrics,
    started: Instant,
}

impl Drop for RequestGuard<'_> {
    fn drop(&mut self) {
        self.metrics.concurrent_requests.sub(1);
        self.metrics
            .busy_us
            .add(self.started.elapsed().as_micros() as u64);
    }
}

impl std::fmt::Debug for RequestGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestGuard").finish_non_exhaustive()
    }
}

impl Server {
    /// Creates a server with no segments.
    pub fn new() -> Self {
        Server::default()
    }

    /// Opens (or creates) the durable diff store at `dir` and recovers
    /// the server's segments from it: newest checkpoint image per
    /// segment, then the WAL tail replayed diff by diff. Returns the
    /// [`Recovery`] report so callers can surface warnings (torn tails,
    /// corrupt records) and the replay count.
    ///
    /// With [`DurabilityMode::Off`] no store is opened and the server
    /// behaves exactly like [`Server::new`].
    ///
    /// # Errors
    ///
    /// I/O errors creating the store, and a data directory of another
    /// format epoch, which is refused untouched
    /// ([`iw_durable::ForeignEpoch`]). Otherwise damaged store *contents*
    /// are not errors — they surface as [`Recovery::warnings`], and a
    /// segment whose checkpoint image no longer decodes is skipped (with
    /// a warning) rather than taking the server down.
    pub fn with_durability(
        dir: PathBuf,
        opts: DurableOptions,
    ) -> Result<(Self, Recovery), ServerError> {
        let server = Server::default();
        if opts.mode == DurabilityMode::Off {
            return Ok((server, Recovery::default()));
        }
        let (store, mut recovery) = DiffStore::open(dir, opts, server.registry())?;
        {
            let mut map = server.segments.write();
            for sr in &recovery.segments {
                let mut seg = match &sr.checkpoint {
                    Some((version, image)) => match checkpoint::decode_segment(image.clone()) {
                        Ok(seg) if seg.name == sr.name && seg.version() == *version => seg,
                        Ok(seg) => {
                            recovery.warnings.push(format!(
                                "checkpoint image mismatch for `{}` (image is `{}` v{}); segment skipped",
                                sr.name,
                                seg.name,
                                seg.version()
                            ));
                            continue;
                        }
                        Err(e) => {
                            recovery.warnings.push(format!(
                                "checkpoint image for `{}` failed to decode ({e}); segment skipped",
                                sr.name
                            ));
                            continue;
                        }
                    },
                    None => ServerSegment::new(&sr.name),
                };
                for diff in &sr.tail {
                    if let Err(e) = seg.apply_diff(diff) {
                        // The store already filtered for a contiguous
                        // chain, so this is a codec-level surprise: keep
                        // the prefix that applied and say so.
                        recovery.warnings.push(format!(
                            "replay stopped for `{}` at v{} ({e})",
                            sr.name,
                            seg.version()
                        ));
                        break;
                    }
                }
                map.insert(sr.name.clone(), Arc::new(RwLock::new(seg)));
            }
        }
        let mut server = server;
        server.durable = Some(Arc::new(store));
        Ok((server, recovery))
    }

    /// The active durability mode ([`DurabilityMode::Off`] unless the
    /// server was built by [`Server::with_durability`]).
    pub fn durability_mode(&self) -> DurabilityMode {
        self.durable
            .as_ref()
            .map(|s| s.options().mode)
            .unwrap_or(DurabilityMode::Off)
    }

    /// Installs the commit observer (see [`CommitHook`]). The cluster
    /// primary uses this to enqueue every committed diff for replication
    /// in per-segment commit order.
    pub fn set_commit_hook(&self, hook: CommitHook) {
        *self.commit_hook.write() = Some(hook);
    }

    /// Registers a client and returns its id.
    ///
    /// A client re-registering after failing over from another replica
    /// marks its info string with `"failover"`, which is how the
    /// `cluster.failovers_total` counter on the surviving replica counts
    /// failover events without a dedicated message type.
    pub fn hello(&self, info: &str) -> u64 {
        if info.contains("failover") {
            self.metrics.failovers.inc();
        }
        let id = self.next_client.fetch_add(1, Ordering::Relaxed) + 1;
        self.clients.lock().insert(id);
        id
    }

    /// Opens (or creates) a segment, returning its current version.
    pub fn open(&self, segment: &str) -> u64 {
        self.segment_or_insert(segment).read().version()
    }

    /// Looks up a segment's shard (cheap: outer table read lock only).
    fn segment_arc(&self, name: &str) -> Option<SharedSegment> {
        self.segments.read().get(name).cloned()
    }

    /// Looks up or creates a segment's shard.
    fn segment_or_insert(&self, name: &str) -> SharedSegment {
        if let Some(seg) = self.segment_arc(name) {
            return seg;
        }
        self.segments
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(RwLock::new(ServerSegment::new(name))))
            .clone()
    }

    /// Acquires a shard's read lock, accounting the wait.
    fn read_seg<'a>(&self, seg: &'a RwLock<ServerSegment>) -> RwLockReadGuard<'a, ServerSegment> {
        self.metrics.segment_lock_wait.add(1);
        let started = Instant::now();
        let guard = seg.read();
        self.metrics.segment_lock_wait.sub(1);
        self.metrics
            .segment_lock_wait_us
            .record_duration(started.elapsed());
        guard
    }

    /// Acquires a shard's write lock, accounting the wait.
    fn write_seg<'a>(&self, seg: &'a RwLock<ServerSegment>) -> RwLockWriteGuard<'a, ServerSegment> {
        self.metrics.segment_lock_wait.add(1);
        let started = Instant::now();
        let guard = seg.write();
        self.metrics.segment_lock_wait.sub(1);
        self.metrics
            .segment_lock_wait_us
            .record_duration(started.elapsed());
        guard
    }

    /// Runs `f` with shared access to a segment's state (benchmarks,
    /// tests, snapshotting).
    pub fn with_segment<R>(&self, name: &str, f: impl FnOnce(&ServerSegment) -> R) -> Option<R> {
        let seg = self.segment_arc(name)?;
        let guard = self.read_seg(&seg);
        Some(f(&guard))
    }

    /// Runs `f` with exclusive access to a segment's state (benchmarks,
    /// tests, the cluster primary's full-sync encoder).
    pub fn with_segment_mut<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut ServerSegment) -> R,
    ) -> Option<R> {
        let seg = self.segment_arc(name)?;
        let mut guard = self.write_seg(&seg);
        Some(f(&mut guard))
    }

    /// A segment's current version, if it exists.
    pub fn segment_version(&self, name: &str) -> Option<u64> {
        self.with_segment(name, ServerSegment::version)
    }

    /// Names of every segment this server holds (the cluster primary
    /// walks these to full-sync a newly attached backup).
    pub fn segment_names(&self) -> Vec<String> {
        self.segments.read().keys().cloned().collect()
    }

    /// Every segment with its current version, sorted by name — the
    /// payload of [`Reply::Frontier`]. Versions are read one shard at a
    /// time (never two shard locks at once), so the frontier is a
    /// per-segment-consistent snapshot, not a cross-segment one — all a
    /// staleness floor needs.
    pub fn frontier(&self) -> Vec<(String, u64)> {
        let mut names = self.segment_names();
        names.sort_unstable();
        names
            .into_iter()
            .filter_map(|n| {
                let v = self.segment_version(&n)?;
                Some((n, v))
            })
            .collect()
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.clients.lock().len()
    }

    /// Drops a client, releasing all its locks and forgetting its
    /// per-segment Diff-coherence counters (so a reused id cannot inherit
    /// stale accumulated-change counts, and the counters do not grow
    /// without bound as clients come and go).
    pub fn disconnect(&self, client: u64) {
        self.clients.lock().remove(&client);
        {
            let mut locks = self.locks.lock();
            let before = locks.held_count();
            locks.release_all(client);
            self.metrics
                .lock_released
                .add((before - locks.held_count()) as u64);
        }
        let shards: Vec<SharedSegment> = self.segments.read().values().cloned().collect();
        for seg in shards {
            self.write_seg(&seg).drop_client(client);
        }
    }

    /// The server's metric registry.
    pub fn registry(&self) -> &Arc<Registry> {
        self.metrics.registry()
    }

    /// Point-in-time copy of every server metric: the registry's
    /// counters/histograms, instantaneous gauges refreshed first, plus
    /// synthetic per-segment entries (`server.segment.<name>.*`) and
    /// aggregates of the per-segment ablation counters.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics
            .locks_held
            .set(self.locks.lock().held_count() as i64);
        self.metrics.clients.set(self.client_count() as i64);
        let mut snap = self.metrics.registry().snapshot();
        snap.counters.push((
            "server.concurrent_requests_peak".into(),
            self.peak_concurrent.load(Ordering::Relaxed),
        ));
        let mut diff_cache_hits = 0u64;
        let mut diff_cache_misses = 0u64;
        let mut chain_compositions = 0u64;
        let mut subblocks_scanned = 0u64;
        let mut pred_hits = 0u64;
        let shards: Vec<(String, SharedSegment)> = self
            .segments
            .read()
            .iter()
            .map(|(n, s)| (n.clone(), s.clone()))
            .collect();
        for (name, shard) in &shards {
            let seg = shard.read();
            diff_cache_hits += seg.diff_cache_hits;
            diff_cache_misses += seg.diff_cache_misses;
            chain_compositions += seg.chain_compositions;
            subblocks_scanned += seg.subblocks_scanned;
            pred_hits += seg.pred_hits;
            snap.counters
                .push((format!("server.segment.{name}.version"), seg.version()));
            snap.gauges.push((
                format!("server.segment.{name}.blocks"),
                seg.block_count() as i64,
            ));
            snap.gauges.push((
                format!("server.segment.{name}.readers"),
                self.locks.lock().reader_count(name) as i64,
            ));
            snap.gauges.push((
                format!("server.segment.{name}.diff_clients"),
                seg.diff_counter_count() as i64,
            ));
        }
        snap.counters
            .push(("server.diff_cache.hits_total".into(), diff_cache_hits));
        snap.counters
            .push(("server.diff_cache.misses_total".into(), diff_cache_misses));
        snap.counters.push((
            "server.diff_cache.chain_compositions_total".into(),
            chain_compositions,
        ));
        snap.counters
            .push(("server.subblocks_scanned_total".into(), subblocks_scanned));
        snap.counters
            .push(("server.pred_hits_total".into(), pred_hits));
        snap.sort();
        snap
    }

    /// Fires the commit hook (if installed) for one committed diff. Must
    /// be called with the segment's write lock held so the per-segment
    /// invocation order equals the version order.
    fn fire_commit_hook(&self, segment: &str, diff: &SegmentDiff) {
        if let Some(hook) = self.commit_hook.read().as_ref() {
            hook(segment, diff);
        }
    }

    /// Persists one committed diff. Called exactly where the commit hook
    /// fires — under the segment's write lock, after `apply_diff`
    /// succeeded, before the reply is encoded — so the fsync completes
    /// before the client sees the ack: **acked ⇒ durable**. The WAL is
    /// the bottom of the lock hierarchy (below the ship queue), and the
    /// group-commit leader fsyncs outside the WAL mutex, so concurrent
    /// shards stack their records into shared syncs instead of
    /// serializing on the disk.
    ///
    /// An append failure cannot fail the commit (the in-memory apply
    /// already happened); it increments `durable.errors_total` and the
    /// server keeps serving with the durability window open — the
    /// documented tradeoff (DESIGN.md §8).
    fn persist_commit(&self, segment: &str, diff: &SegmentDiff, seg: &mut ServerSegment) {
        let Some(store) = &self.durable else {
            return;
        };
        let _ = store.append_diff(segment, diff);
        if seg
            .version()
            .is_multiple_of(store.options().checkpoint_interval.max(1))
        {
            Self::durable_image(store, seg);
        }
    }

    /// Writes a fresh checkpoint image of `seg` into the durable store,
    /// inline under the segment's write lock: one in-place slot write
    /// and one `fdatasync` (best-effort; an error leaves the newest
    /// durable image intact and is counted by the store).
    fn durable_image(store: &DiffStore, seg: &mut ServerSegment) -> bool {
        match checkpoint::encode_segment(seg) {
            Ok(image) => store
                .write_checkpoint(&seg.name, seg.version(), &image)
                .is_ok(),
            Err(_) => false,
        }
    }

    /// Runs a log-compaction pass if the store is over its byte
    /// threshold: rotate the WAL, fold every segment's outstanding diff
    /// chain into a fresh checkpoint image, then delete the rotated
    /// files. Called from `dispatch` *after* all commit-path guards are
    /// dropped; images are taken one shard at a time (never two), so the
    /// lock hierarchy holds. Crash-safe at any point: rotation precedes
    /// the images, so no image ever covers a record that was deleted.
    fn maybe_compact(&self) {
        let Some(store) = &self.durable else {
            return;
        };
        if !store.needs_compaction() {
            return;
        }
        match store.begin_compaction() {
            Ok(true) => {}
            Ok(false) | Err(_) => return, // another pass is running / rotate failed
        }
        let mut ok = true;
        for name in self.segment_names() {
            let wrote = self.with_segment_mut(&name, |seg| Self::durable_image(store, seg));
            if wrote != Some(true) {
                ok = false;
            }
        }
        // On any failure the rotated files are kept: recovery reads all
        // log files in sequence order, so an aborted pass costs disk
        // space, never data.
        store.finish_compaction(ok);
    }

    fn acquire(
        &self,
        client: u64,
        segment: &str,
        mode: LockMode,
        have_version: u64,
        coherence: Coherence,
    ) -> Reply {
        let Some(seg) = self.segment_arc(segment) else {
            return Reply::Error {
                message: format!("no such segment `{segment}`"),
            };
        };
        // Lock order: segment shard before the client lock table.
        let guard = self.read_seg(&seg);
        if !self.locks.lock().acquire(segment, client, mode) {
            self.metrics.lock_busy.inc();
            return Reply::Busy;
        }
        self.metrics.lock_granted.inc();
        // Writers must start from the current version, so they always get
        // a Full-coherence update; readers follow their model.
        let effective = match mode {
            LockMode::Write => Coherence::Full,
            LockMode::Read => coherence,
        };
        if !guard.needs_update(client, have_version, effective) {
            // Version probe / already-fresh client: shared lock only.
            return Reply::Granted {
                version: guard.version(),
                update: None,
                next_serial: guard.next_serial(),
                next_type_serial: guard.next_type_serial(),
            };
        }
        // The update mutates per-segment state (diff cache, Diff-coherence
        // counters): upgrade to the shard's write lock. The client lock
        // just granted keeps writers out, so the version cannot move
        // between the read and write critical sections.
        drop(guard);
        let mut guard = self.write_seg(&seg);
        match guard.collect_update(client, have_version) {
            Ok(d) => Reply::Granted {
                version: guard.version(),
                update: Some(d),
                next_serial: guard.next_serial(),
                next_type_serial: guard.next_type_serial(),
            },
            Err(e) => {
                self.locks.lock().release(segment, client);
                Reply::Error {
                    message: e.to_string(),
                }
            }
        }
    }

    fn release(&self, client: u64, segment: &str, diff: Option<&SegmentDiff>) -> Reply {
        let Some(seg) = self.segment_arc(segment) else {
            return Reply::Error {
                message: format!("no such segment `{segment}`"),
            };
        };
        let version = if let Some(diff) = diff {
            let mut guard = self.write_seg(&seg);
            if !self.locks.lock().is_writer(segment, client) {
                return Reply::Error {
                    message: "release with diff requires the writer lock".into(),
                };
            }
            if let Err(e) = guard.apply_diff(diff) {
                return Reply::Error {
                    message: e.to_string(),
                };
            }
            self.persist_commit(segment, diff, &mut guard);
            self.fire_commit_hook(segment, diff);
            guard.version()
        } else {
            self.read_seg(&seg).version()
        };
        if self.locks.lock().release(segment, client) {
            self.metrics.lock_released.inc();
        }
        Reply::Released { version }
    }

    fn commit(&self, client: u64, entries: &[(String, Option<SegmentDiff>)]) -> Reply {
        // Validate everything first: locks held, versions current,
        // segments exist. Nothing is applied unless all entries pass.
        // Segments are locked strictly one at a time (never two shards at
        // once), so multi-segment commits cannot deadlock; the client's
        // writer locks — verified here — freeze every involved version
        // until the apply phase below.
        for (segment, diff) in entries {
            let Some(seg) = self.segment_arc(segment) else {
                return Reply::Error {
                    message: format!("no such segment `{segment}`"),
                };
            };
            let guard = self.read_seg(&seg);
            if !self.locks.lock().is_writer(segment, client) {
                return Reply::Error {
                    message: format!("commit requires the writer lock on `{segment}`"),
                };
            }
            if let Some(d) = diff {
                if d.from_version != guard.version() {
                    return Reply::Error {
                        message: format!(
                            "commit base version {} stale for `{segment}` (current {})",
                            d.from_version,
                            guard.version()
                        ),
                    };
                }
            }
        }
        let mut versions = Vec::with_capacity(entries.len());
        for (segment, diff) in entries {
            let seg = self.segment_arc(segment).expect("validated");
            let mut guard = self.write_seg(&seg);
            if let Some(d) = diff {
                match guard.apply_diff(d) {
                    Ok(v) => {
                        self.persist_commit(segment, d, &mut guard);
                        self.fire_commit_hook(segment, d);
                        versions.push(v);
                    }
                    Err(e) => {
                        // Structural failure after validation indicates a
                        // client bug; report it (earlier entries stand, as
                        // documented for the prototype).
                        return Reply::Error {
                            message: e.to_string(),
                        };
                    }
                }
            } else {
                versions.push(guard.version());
            }
        }
        for (segment, _) in entries {
            if self.locks.lock().release(segment, client) {
                self.metrics.lock_released.inc();
            }
        }
        Reply::Committed { versions }
    }

    fn poll(
        &self,
        client: u64,
        segment: &str,
        have_version: u64,
        coherence: Coherence,
        floor: u64,
    ) -> Reply {
        let Some(seg) = self.segment_arc(segment) else {
            return Reply::Error {
                message: format!("no such segment `{segment}`"),
            };
        };
        {
            // The common no-op probe ("is my version recent enough?")
            // takes only the shared lock, so polls never serialize
            // against each other or against same-segment readers.
            let guard = self.read_seg(&seg);
            // The staleness floor is checked under the same lock that
            // guards the version, so a served reply always reflects a
            // version >= floor — replicas can never silently serve data
            // older than the client's coherence predicate allows.
            if guard.version() < floor {
                return Reply::NotFresh {
                    version: guard.version(),
                };
            }
            // The floor constrains the *served* version too: a client
            // whose cache is below it must receive an update even when
            // the coherence model alone would tolerate the distance —
            // `UpToDate` would otherwise leave the client holding data
            // older than the floor it asked for.
            if have_version >= floor && !guard.needs_update(client, have_version, coherence) {
                return Reply::UpToDate;
            }
        }
        let mut guard = self.write_seg(&seg);
        match guard.collect_update(client, have_version) {
            Ok(diff) => Reply::Update { diff },
            Err(e) => Reply::Error {
                message: e.to_string(),
            },
        }
    }

    /// Applies one replicated diff (backup role). Idempotent: a diff the
    /// segment already has (retransmitted after a primary restart or a
    /// duplicated ship) is acked without being re-applied.
    fn replicate(&self, segment: &str, from_version: u64, diff: &SegmentDiff) -> Reply {
        let seg = self.segment_or_insert(segment);
        let mut guard = self.write_seg(&seg);
        if diff.to_version <= guard.version() {
            return Reply::Replicated {
                acked_version: guard.version(),
            };
        }
        if from_version != guard.version() || diff.from_version != guard.version() {
            // The primary must fall back to a full catch-up image.
            return Reply::Error {
                message: format!(
                    "replication gap on `{segment}`: have {}, diff is {}..{}",
                    guard.version(),
                    diff.from_version,
                    diff.to_version
                ),
            };
        }
        match guard.apply_diff(diff) {
            Ok(v) => {
                self.metrics.repl_diffs_applied.inc();
                // A durable backup logs replicated diffs too, so a
                // restarted backup re-attaches with most state local.
                self.persist_commit(segment, diff, &mut guard);
                Reply::Replicated { acked_version: v }
            }
            Err(e) => Reply::Error {
                message: e.to_string(),
            },
        }
    }

    /// Replaces a segment with a full catch-up image (backup role). The
    /// image is a checkpoint encoding, so the installed segment is
    /// bit-identical to the primary's — version, serials, subblock
    /// versions and all.
    fn sync_full(&self, segment: &str, image: &Bytes) -> Reply {
        let seg = match checkpoint::decode_segment(image.clone()) {
            Ok(seg) => seg,
            Err(e) => {
                return Reply::Error {
                    message: format!("bad sync image for `{segment}`: {e}"),
                }
            }
        };
        if seg.name != segment {
            return Reply::Error {
                message: format!("sync image is for `{}`, not `{segment}`", seg.name),
            };
        }
        let v = seg.version();
        self.metrics.repl_syncs_applied.inc();
        self.metrics.repl_catchup_bytes.add(image.len() as u64);
        // Swap the image in place inside the existing shard, so any
        // concurrently held Arc keeps pointing at the live state.
        let shard = self.segment_or_insert(segment);
        let mut guard = self.write_seg(&shard);
        *guard = seg;
        // A full sync jumps the version, breaking the WAL's diff chain:
        // persist a full image so recovery has a base to chain
        // subsequent diff records from.
        if let Some(store) = &self.durable {
            Self::durable_image(store, &mut guard);
        }
        Reply::Replicated { acked_version: v }
    }

    /// Opens the in-flight accounting span for one request: bumps the
    /// request and concurrency counters, tracks the concurrency
    /// high-water mark, and returns the guard whose drop closes the
    /// span. Wrapping handlers hold it across their own decode/encode
    /// so `server.busy_us_total` covers the whole in-handler time.
    pub fn begin_request(&self) -> RequestGuard<'_> {
        self.metrics.requests.inc();
        self.metrics.concurrent_requests.add(1);
        let inflight = self.metrics.concurrent_requests.get().max(1) as u64;
        self.peak_concurrent.fetch_max(inflight, Ordering::Relaxed);
        RequestGuard {
            metrics: &self.metrics,
            started: Instant::now(),
        }
    }

    /// Handles one decoded request (the protocol entry point). Safe to
    /// call from any number of threads concurrently.
    pub fn handle_request(&self, req: &Request) -> Reply {
        let _guard = self.begin_request();
        self.dispatch(req)
    }

    /// Dispatches one decoded request *without* opening an accounting
    /// span — the caller must hold a [`RequestGuard`] (wrapping handlers
    /// open it before decoding so the span covers their wire work).
    pub fn dispatch(&self, req: &Request) -> Reply {
        self.metrics.req_kind[req.kind_index()].inc();
        let reply = match req {
            Request::Hello { info } => Reply::welcome(self.hello(info)),
            Request::Open { client: _, segment } => Reply::Opened {
                version: self.open(segment),
            },
            Request::Acquire {
                client,
                segment,
                mode,
                have_version,
                coherence,
            } => self.acquire(*client, segment, *mode, *have_version, *coherence),
            Request::Release {
                client,
                segment,
                diff,
            } => self.release(*client, segment, diff.as_ref()),
            Request::Commit { client, entries } => self.commit(*client, entries),
            Request::Poll {
                client,
                segment,
                have_version,
                coherence,
                floor,
            } => self.poll(*client, segment, *have_version, *coherence, *floor),
            Request::Stats { client: _ } => Reply::Stats {
                snapshot: self.metrics_snapshot(),
            },
            Request::Replicate {
                segment,
                from_version,
                diff,
            } => self.replicate(segment, *from_version, diff),
            Request::SyncFull { segment, image } => self.sync_full(segment, image),
            // Only a cluster primary (iw-cluster's `Primary` wrapper)
            // accepts backups; a bare server refusing keeps a
            // misconfigured `--backup-of` loud instead of silent.
            Request::AttachBackup { .. } => Reply::Error {
                message: "not a cluster primary".into(),
            },
            // Retire a client id (failed-over clients send this against
            // their old id, best-effort). Unknown ids are a no-op, so
            // the reply carries no meaningful version.
            Request::Goodbye { client } => {
                self.disconnect(*client);
                Reply::Released { version: 0 }
            }
            // A bare server advertises no replicas; the cluster wrappers
            // (`Primary`) splice the live advertised set in.
            Request::Frontier { client: _ } => Reply::Frontier {
                segments: self.frontier(),
                replicas: Vec::new(),
            },
        };
        if matches!(reply, Reply::Error { .. }) {
            self.metrics.errors.inc();
        }
        // Commit-shaped requests may have grown the WAL past its
        // threshold; compaction runs here, after every shard guard from
        // the request is gone (lock hierarchy: one shard at a time).
        if matches!(
            req,
            Request::Release { .. }
                | Request::Commit { .. }
                | Request::Replicate { .. }
                | Request::SyncFull { .. }
        ) {
            self.maybe_compact();
        }
        reply
    }

    /// Encodes `reply` and accounts the diff it carries (if any):
    /// `wire.diff_bytes_raw_total` grows by the diff's fixed-width size
    /// (`encoded_len_hint`), `wire.diff_bytes_sent_total` by the
    /// bytes actually leaving, and the encode-cache hit/miss counters
    /// record whether the link bytes were already materialized (fan-out
    /// readers served the same window).
    ///
    /// Shared by this server's own [`Handler`](iw_proto::Handler) front
    /// end and the cluster wrappers, so every front end accounts
    /// `wire.diff_bytes_{raw,sent}_total` identically.
    pub fn encode_reply(&self, reply: &Reply) -> Bytes {
        let diff = match reply {
            Reply::Granted {
                update: Some(d), ..
            } => d,
            Reply::Update { diff } => diff,
            _ => return reply.encode(),
        };
        if diff.enc_cached() {
            self.metrics.enc_cache_hits.inc();
        } else {
            self.metrics.enc_cache_misses.inc();
        }
        // Populates the armed encode cache, so the reply encoding below
        // (and every later reader of the same window) reuses the bytes.
        let sent = diff.encode().len();
        self.metrics
            .diff_bytes_raw
            .add(diff.encoded_len_hint() as u64);
        self.metrics.diff_bytes_sent.add(sent as u64);
        reply.encode()
    }
}

impl iw_proto::Handler for Server {
    fn handle(&self, request: Bytes) -> Bytes {
        // The guard spans decode and encode too: for bulk requests the
        // wire memcpys are a real share of the worker's time, and the
        // busy counter must reflect it.
        let _guard = self.begin_request();
        match Request::decode(request) {
            Ok(req) => self.encode_reply(&self.dispatch(&req)),
            Err(e) => Reply::Error {
                message: format!("bad request: {e}"),
            }
            .encode(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_types::desc::TypeDesc;
    use iw_wire::diff::{NewBlock, SegmentDiff};

    fn seed_diff(from: u64) -> SegmentDiff {
        SegmentDiff {
            from_version: from,
            to_version: from + 1,
            new_types: vec![(0, TypeDesc::int32())],
            new_blocks: vec![NewBlock {
                serial: 0,
                name: None,
                type_serial: 0,
                count: 4,
                data: Bytes::from(vec![0u8; 16]),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn hello_assigns_distinct_ids() {
        let s = Server::new();
        let a = s.hello("x86 client");
        let b = s.hello("sparc client");
        assert_ne!(a, b);
        assert_eq!(s.client_count(), 2);
    }

    #[test]
    fn open_creates_once() {
        let s = Server::new();
        assert_eq!(s.open("h/s"), 0);
        assert_eq!(s.open("h/s"), 0);
        assert!(s.segment_version("h/s").is_some());
    }

    #[test]
    fn write_cycle_advances_version() {
        let s = Server::new();
        let c = s.hello("c");
        s.open("h/s");
        let r = s.handle_request(&Request::Acquire {
            client: c,
            segment: "h/s".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        });
        assert!(matches!(
            r,
            Reply::Granted {
                version: 0,
                update: None,
                ..
            }
        ));
        let r = s.handle_request(&Request::Release {
            client: c,
            segment: "h/s".into(),
            diff: Some(seed_diff(0)),
        });
        assert_eq!(r, Reply::Released { version: 1 });
    }

    #[test]
    fn second_writer_sees_busy_then_grant() {
        let s = Server::new();
        let a = s.hello("a");
        let b = s.hello("b");
        s.open("h/s");
        let acq = |client| Request::Acquire {
            client,
            segment: "h/s".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        };
        assert!(matches!(s.handle_request(&acq(a)), Reply::Granted { .. }));
        assert_eq!(s.handle_request(&acq(b)), Reply::Busy);
        s.handle_request(&Request::Release {
            client: a,
            segment: "h/s".into(),
            diff: None,
        });
        assert!(matches!(s.handle_request(&acq(b)), Reply::Granted { .. }));
    }

    #[test]
    fn release_with_diff_requires_writer() {
        let s = Server::new();
        let c = s.hello("c");
        s.open("h/s");
        let r = s.handle_request(&Request::Release {
            client: c,
            segment: "h/s".into(),
            diff: Some(seed_diff(0)),
        });
        assert!(matches!(r, Reply::Error { .. }));
    }

    #[test]
    fn reader_gets_update_only_when_stale() {
        let s = Server::new();
        let w = s.hello("w");
        let rd = s.hello("r");
        s.open("h/s");
        s.handle_request(&Request::Acquire {
            client: w,
            segment: "h/s".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        });
        s.handle_request(&Request::Release {
            client: w,
            segment: "h/s".into(),
            diff: Some(seed_diff(0)),
        });
        // Stale reader: full transfer.
        let r = s.handle_request(&Request::Acquire {
            client: rd,
            segment: "h/s".into(),
            mode: LockMode::Read,
            have_version: 0,
            coherence: Coherence::Full,
        });
        let Reply::Granted {
            version: 1,
            update: Some(d),
            ..
        } = r
        else {
            panic!("want update, got {r:?}");
        };
        assert_eq!(d.new_blocks.len(), 1);
        s.handle_request(&Request::Release {
            client: rd,
            segment: "h/s".into(),
            diff: None,
        });
        // Fresh reader: no update.
        let r = s.handle_request(&Request::Acquire {
            client: rd,
            segment: "h/s".into(),
            mode: LockMode::Read,
            have_version: 1,
            coherence: Coherence::Full,
        });
        assert!(matches!(r, Reply::Granted { update: None, .. }));
    }

    #[test]
    fn poll_path() {
        let s = Server::new();
        let c = s.hello("c");
        s.open("h/s");
        let r = s.handle_request(&Request::Poll {
            client: c,
            segment: "h/s".into(),
            have_version: 0,
            coherence: Coherence::Full,
            floor: 0,
        });
        assert_eq!(r, Reply::UpToDate);
    }

    #[test]
    fn unknown_segment_errors() {
        let s = Server::new();
        let c = s.hello("c");
        for req in [
            Request::Acquire {
                client: c,
                segment: "nope".into(),
                mode: LockMode::Read,
                have_version: 0,
                coherence: Coherence::Full,
            },
            Request::Poll {
                client: c,
                segment: "nope".into(),
                have_version: 0,
                coherence: Coherence::Full,
                floor: 0,
            },
            Request::Release {
                client: c,
                segment: "nope".into(),
                diff: None,
            },
        ] {
            assert!(matches!(s.handle_request(&req), Reply::Error { .. }));
        }
    }

    #[test]
    fn disconnect_releases_locks() {
        let s = Server::new();
        let a = s.hello("a");
        let b = s.hello("b");
        s.open("h/s");
        s.handle_request(&Request::Acquire {
            client: a,
            segment: "h/s".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        });
        s.disconnect(a);
        let r = s.handle_request(&Request::Acquire {
            client: b,
            segment: "h/s".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        });
        assert!(matches!(r, Reply::Granted { .. }));
    }

    #[test]
    fn goodbye_retires_client_and_frees_locks() {
        let s = Server::new();
        let a = s.hello("a");
        let b = s.hello("b");
        s.open("h/s");
        s.handle_request(&Request::Acquire {
            client: a,
            segment: "h/s".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        });
        // Goodbye over the wire path retires `a`, releasing its lock.
        let r = s.handle_request(&Request::Goodbye { client: a });
        assert!(matches!(r, Reply::Released { .. }));
        let r = s.handle_request(&Request::Acquire {
            client: b,
            segment: "h/s".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        });
        assert!(matches!(r, Reply::Granted { .. }));
        // Goodbye for an id the server never saw is a harmless no-op.
        let r = s.handle_request(&Request::Goodbye { client: 0xdead });
        assert!(matches!(r, Reply::Released { .. }));
    }

    #[test]
    fn disconnect_drops_diff_counters() {
        let s = Server::new();
        let w = s.hello("w");
        let rd = s.hello("r");
        s.open("h/s");
        // Writer publishes v1; reader polls under Diff coherence, which
        // creates its per-segment counter.
        s.handle_request(&Request::Acquire {
            client: w,
            segment: "h/s".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        });
        s.handle_request(&Request::Release {
            client: w,
            segment: "h/s".into(),
            diff: Some(seed_diff(0)),
        });
        s.handle_request(&Request::Poll {
            client: rd,
            segment: "h/s".into(),
            have_version: 0,
            coherence: Coherence::Diff(100),
            floor: 0,
        });
        assert_eq!(
            s.with_segment("h/s", |seg| seg.diff_counter(rd)).unwrap(),
            Some(0)
        );
        s.disconnect(rd);
        assert_eq!(
            s.with_segment("h/s", |seg| seg.diff_counter(rd)).unwrap(),
            None,
            "disconnect must drop the counter"
        );
        assert_eq!(
            s.with_segment("h/s", ServerSegment::diff_counter_count)
                .unwrap(),
            0
        );
    }

    #[test]
    fn stats_request_returns_live_snapshot() {
        let s = Server::new();
        let c = s.hello("c");
        s.open("h/s");
        s.handle_request(&Request::Acquire {
            client: c,
            segment: "h/s".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        });
        let r = s.handle_request(&Request::Stats { client: c });
        let Reply::Stats { snapshot } = r else {
            panic!("want Stats, got {r:?}")
        };
        // hello/open went through the direct methods, not handle_request,
        // so only the Acquire and Stats requests are counted.
        assert_eq!(snapshot.counter("server.req.hello_total"), Some(0));
        assert_eq!(snapshot.counter("server.req.acquire_total"), Some(1));
        assert_eq!(snapshot.counter("server.lock.granted_total"), Some(1));
        assert_eq!(snapshot.gauge("server.locks_held"), Some(1));
        assert_eq!(snapshot.gauge("server.clients"), Some(1));
        assert_eq!(snapshot.counter("server.segment.h/s.version"), Some(0));
        // The Stats request itself was counted before the snapshot.
        assert_eq!(snapshot.counter("server.req.stats_total"), Some(1));
        // The Stats request is the only one in flight right now.
        assert_eq!(snapshot.gauge("server.concurrent_requests"), Some(1));
        assert!(snapshot.counter("server.concurrent_requests_peak").unwrap() >= 1);
    }

    #[test]
    fn replicate_applies_in_order_and_is_idempotent() {
        let s = Server::new();
        let r = s.handle_request(&Request::Replicate {
            segment: "h/s".into(),
            from_version: 0,
            diff: seed_diff(0),
        });
        assert_eq!(r, Reply::Replicated { acked_version: 1 });
        // Re-shipping the same diff acks without re-applying.
        let r = s.handle_request(&Request::Replicate {
            segment: "h/s".into(),
            from_version: 0,
            diff: seed_diff(0),
        });
        assert_eq!(r, Reply::Replicated { acked_version: 1 });
        assert_eq!(s.segment_version("h/s"), Some(1));
        // A gap (diff from v5 when we hold v1) is an error, prompting a
        // full sync from the primary.
        let r = s.handle_request(&Request::Replicate {
            segment: "h/s".into(),
            from_version: 5,
            diff: seed_diff(5),
        });
        assert!(matches!(r, Reply::Error { .. }));
    }

    #[test]
    fn sync_full_installs_bit_identical_segment() {
        // Build a primary-side segment two versions deep.
        let primary = Server::new();
        primary.open("h/s");
        let image = primary
            .with_segment_mut("h/s", |seg| {
                seg.apply_diff(&seed_diff(0)).unwrap();
                let diff2 = SegmentDiff {
                    from_version: 1,
                    to_version: 2,
                    freed: vec![0],
                    ..Default::default()
                };
                seg.apply_diff(&diff2).unwrap();
                checkpoint::encode_segment(seg).unwrap()
            })
            .unwrap();

        let backup = Server::new();
        let r = s_sync(&backup, "h/s", image.clone());
        assert_eq!(r, Reply::Replicated { acked_version: 2 });
        assert_eq!(backup.segment_version("h/s"), Some(2));
        let reencoded = backup
            .with_segment_mut("h/s", |seg| checkpoint::encode_segment(seg).unwrap())
            .unwrap();
        assert_eq!(
            reencoded, image,
            "synced backup re-encodes to the identical image"
        );
        // After the sync, the version chain continues normally.
        let r = backup.handle_request(&Request::Replicate {
            segment: "h/s".into(),
            from_version: 2,
            diff: seed_diff(2),
        });
        assert_eq!(r, Reply::Replicated { acked_version: 3 });

        // Wrong-name and corrupt images are rejected.
        assert!(matches!(
            s_sync(&backup, "h/other", image.clone()),
            Reply::Error { .. }
        ));
        assert!(matches!(
            s_sync(&backup, "h/s", Bytes::from_static(b"junk")),
            Reply::Error { .. }
        ));
    }

    fn s_sync(s: &Server, segment: &str, image: Bytes) -> Reply {
        s.handle_request(&Request::SyncFull {
            segment: segment.into(),
            image,
        })
    }

    #[test]
    fn bare_server_refuses_attach_backup() {
        let s = Server::new();
        let r = s.handle_request(&Request::AttachBackup {
            addr: "127.0.0.1:1".into(),
        });
        assert!(matches!(r, Reply::Error { .. }));
    }

    #[test]
    fn failover_hello_is_counted() {
        let s = Server::new();
        s.hello("x86 client");
        s.hello("x86 client (failover)");
        let snap = s.metrics_snapshot();
        assert_eq!(snap.counter("cluster.failovers_total"), Some(1));
    }

    #[test]
    fn handler_rejects_garbage_bytes() {
        use iw_proto::Handler;
        let s = Server::new();
        let reply = s.handle(Bytes::from_static(&[0xFF, 0x01]));
        assert!(matches!(Reply::decode(reply).unwrap(), Reply::Error { .. }));
    }

    #[test]
    fn commit_hook_fires_per_committed_diff_in_version_order() {
        let s = Server::new();
        let seen: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        s.set_commit_hook(Arc::new(move |segment, diff| {
            sink.lock().push((segment.to_string(), diff.to_version));
        }));
        let c = s.hello("c");
        s.open("h/s");
        for v in 0..3 {
            s.handle_request(&Request::Acquire {
                client: c,
                segment: "h/s".into(),
                mode: LockMode::Write,
                have_version: v,
                coherence: Coherence::Full,
            });
            let diff = if v == 0 {
                seed_diff(0)
            } else {
                SegmentDiff {
                    from_version: v,
                    to_version: v + 1,
                    freed: vec![],
                    ..Default::default()
                }
            };
            s.handle_request(&Request::Release {
                client: c,
                segment: "h/s".into(),
                diff: Some(diff),
            });
        }
        assert_eq!(
            *seen.lock(),
            vec![
                ("h/s".to_string(), 1),
                ("h/s".to_string(), 2),
                ("h/s".to_string(), 3)
            ]
        );
        // Failed releases never fire the hook.
        let before = seen.lock().len();
        let r = s.handle_request(&Request::Release {
            client: c,
            segment: "h/s".into(),
            diff: Some(seed_diff(0)), // stale base; also no writer lock
        });
        assert!(matches!(r, Reply::Error { .. }));
        assert_eq!(seen.lock().len(), before);
    }
}
