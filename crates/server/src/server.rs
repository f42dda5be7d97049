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
//! Lock-ordering hierarchy (documented in DESIGN.md §6a): **compaction
//! gate → segment table → segment shard → lock table → ship queue →
//! wal**. A thread may
//! skip levels but never acquires leftward while holding rightward,
//! which makes deadlock impossible; no thread ever holds two segment
//! shards at once (every commit locks one segment at a time), and no
//! commit holds a shard across its WAL append.
//! The commit hook fires *under the segment shard's write lock*, giving
//! the cluster primary a per-segment commit sequence: ship order equals
//! commit order, preserving FIFO replication without a global mutex.
//!
//! # One commit path
//!
//! A release carrying a diff, a `Commit` and a backup's `Replicate` all
//! go through one sequence: check every entry, append every diff to the
//! WAL, install, image, commit hook. Nothing is written before the last
//! check passes, and nothing is installed before its append succeeded,
//! so a refused request leaves memory, log, hook and locks as they were.
//! A commit of any size claims each segment it checked until it installs
//! there, and holds the compaction gate from its first append to its
//! last install, so neither another diff nor a compaction image can
//! land between its check, its append and its install. No shard lock is
//! held while the append (and its group-commit fsync) runs, so readers
//! are served the last installed version meanwhile; since the install
//! follows the append, that version is always a logged one.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use iw_durable::{DiffStore, DurabilityMode, DurableOptions, Recovery};
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::Coherence;
use iw_telemetry::{Registry, Snapshot};
use iw_wire::diff::SegmentDiff;

use crate::checkpoint;
use crate::error::ServerError;
use crate::locks::LockTable;
use crate::metrics::ServerMetrics;
use crate::segment::{check_step, ServerSegment};

/// One shard of the segment table.
type SharedSegment = Arc<RwLock<ServerSegment>>;

/// Called under the owning segment's write lock immediately after a
/// client diff commits (write-release or transaction commit). Because
/// the shard lock is still held, invocations for one segment happen in
/// version order — the per-segment commit sequence replication relies
/// on.
pub type CommitHook = Arc<dyn Fn(&str, &SegmentDiff) + Send + Sync>;

/// The segments one commit has claimed in the lock table; dropping it
/// ends the claims, whether the commit installed or was refused.
struct Claims<'a>(&'a Mutex<LockTable>, Vec<&'a str>);

impl Drop for Claims<'_> {
    fn drop(&mut self) {
        let mut locks = self.0.lock();
        self.1.iter().for_each(|name| locks.unclaim(name));
    }
}

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
    /// The durable diff store (`--data-dir`). A diff is appended after
    /// every entry of its request checked and before it is installed,
    /// with no shard lock held. The segment's claim (and the writer
    /// lock) keeps each segment's records in version order, and the WAL
    /// is the bottom level of the lock hierarchy (… → ship queue → wal).
    durable: Option<Arc<DiffStore>>,
    /// Held shared by every commit from its first WAL append to its
    /// last install, and exclusively by compaction from its rotation
    /// to its last image, so no image misses a diff whose record sits in
    /// a rotated file. Top level of the lock hierarchy.
    compaction: RwLock<()>,
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
                        // chain, so this is a codec-level surprise. A
                        // refused record changes nothing: the segment
                        // stays at the last record that applied.
                        recovery.warnings.push(format!(
                            "replay stopped for `{}` at its {}..{} record ({e})",
                            sr.name, diff.from_version, diff.to_version
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

    /// Takes a shard lock (`|| shard.read()` or `|| shard.write()`),
    /// accounting the wait.
    fn lock_shard<G>(&self, lock: impl FnOnce() -> G) -> G {
        self.metrics.segment_lock_wait.add(1);
        let started = Instant::now();
        let guard = lock();
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
        let guard = self.lock_shard(|| seg.read());
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
        let mut guard = self.lock_shard(|| seg.write());
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
            self.lock_shard(|| seg.write()).drop_client(client);
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
        let totals = [
            "server.diff_cache.hits_total",
            "server.diff_cache.misses_total",
            "server.diff_cache.chain_compositions_total",
            "server.subblocks_scanned_total",
            "server.pred_hits_total",
        ];
        let mut totals = totals.map(|name| (name.to_string(), 0));
        let shards: Vec<(String, SharedSegment)> = self
            .segments
            .read()
            .iter()
            .map(|(n, s)| (n.clone(), s.clone()))
            .collect();
        for (name, shard) in &shards {
            let seg = shard.read();
            let counts = [
                seg.diff_cache_hits,
                seg.diff_cache_misses,
                seg.chain_compositions,
                seg.subblocks_scanned,
                seg.pred_hits,
            ];
            for ((_, total), n) in totals.iter_mut().zip(counts) {
                *total += n;
            }
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
        snap.counters.extend(totals);
        snap.sort();
        snap
    }

    /// Writes a fresh checkpoint image of `seg` into the durable store,
    /// inline under the segment's lock: one in-place slot write
    /// and one `fdatasync` (best-effort; an error leaves the newest
    /// durable image intact and is counted by the store).
    fn durable_image(store: &DiffStore, seg: &ServerSegment) -> bool {
        checkpoint::encode_segment(seg).is_ok_and(|image| {
            store
                .write_checkpoint(&seg.name, seg.version(), &image)
                .is_ok()
        })
    }

    /// Runs a log-compaction pass if the store is over its byte
    /// threshold: rotate the WAL, fold every segment's outstanding diff
    /// chain into a fresh checkpoint image, then delete the rotated
    /// files. Called from `dispatch` *after* all commit-path guards are
    /// dropped; images are taken one shard at a time (never two), so the
    /// lock hierarchy holds. Crash-safe at any point: rotation precedes
    /// the images, so no image ever covers a record that was deleted;
    /// the gate keeps a commit's logged but not yet installed diffs out
    /// of that window.
    fn maybe_compact(&self) {
        let Some(store) = &self.durable else {
            return;
        };
        if !store.needs_compaction() {
            return;
        }
        let _gate = self.compaction.write();
        match store.begin_compaction() {
            Ok(true) => {}
            Ok(false) | Err(_) => return, // another pass is running / rotate failed
        }
        // Every segment is imaged, even after one fails.
        let ok = self.segment_names().iter().fold(true, |ok, name| {
            let wrote = self.with_segment(name, |seg| Self::durable_image(store, seg));
            ok & (wrote == Some(true))
        });
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
        let guard = self.lock_shard(|| seg.read());
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
        let mut guard = self.lock_shard(|| seg.write());
        match guard.collect_update(client, have_version, effective) {
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

    /// The one commit path. A release with a diff is a 1-entry call, a
    /// `Commit` an n-entry call, and a `Replicate` a 1-entry call with
    /// `client == None`. Each runs check → WAL append → install → image
    /// → commit hook:
    ///
    /// - every entry is checked, and its writer lock verified, before any
    ///   is appended or installed, so a refused request changes nothing;
    /// - the append precedes the install, and an append error refuses
    ///   the request with memory untouched, so an ack means logged and
    ///   no reader is served a version the log does not hold;
    /// - every entry claims its segment in the lock table until the
    ///   request ends, and a claimed segment refuses any other entry or
    ///   diff: a second entry for it in the same request, another
    ///   client's diff after a dropped writer lock, or the same client's
    ///   racing request;
    /// - shards are locked one at a time, never two, and none is held
    ///   across the WAL append (its fsync included), so readers of the
    ///   segment are served its last installed version meanwhile; the
    ///   compaction gate is held shared from the first append to the
    ///   last install.
    ///
    /// Without a client (a primary's replicated diff) no lock is needed,
    /// a diff the segment already holds is acked as is, and no hook fires.
    /// Returns each entry's version; an entry without a diff keeps its own.
    fn commit_diffs(
        &self,
        client: Option<u64>,
        entries: &[(&str, Option<&SegmentDiff>)],
    ) -> Result<Vec<u64>, String> {
        let shards = entries
            .iter()
            .map(|&(name, _)| match client {
                Some(_) => self
                    .segment_arc(name)
                    .ok_or_else(|| format!("no such segment `{name}`")),
                None => Ok(self.segment_or_insert(name)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut claims = Claims(&self.locks, Vec::new());
        let mut versions = Vec::with_capacity(entries.len());
        let mut plans = Vec::with_capacity(entries.len());
        for (&(name, diff), shard) in entries.iter().zip(&shards) {
            let seg = self.lock_shard(|| shard.write());
            if client.is_none() && diff.is_some_and(|d| d.to_version <= seg.version()) {
                return Ok(vec![seg.version()]);
            }
            let mut locks = self.locks.lock();
            if client.is_some_and(|c| !locks.is_writer(name, c)) {
                return Err(format!("commit to `{name}` requires its writer lock"));
            }
            // A claimed segment already has a plan in flight (an earlier
            // entry's or another commit's), and two plans would both
            // start from its base.
            if !locks.claim(name) {
                return Err(format!("`{name}` is named twice or already in flight"));
            }
            drop(locks);
            claims.1.push(name);
            let plan = diff.map(|d| seg.check(d)).transpose();
            plans.push(plan.map_err(|e| format!("commit to `{name}`: {e}"))?);
            versions.push(seg.version());
        }
        let _gate = self.compaction.read();
        if let Some(store) = &self.durable {
            for &(name, diff) in entries {
                if let Some(d) = diff {
                    store
                        .append_diff(name, d)
                        .map_err(|e| format!("commit to `{name}` not logged: {e}"))?;
                }
            }
        }
        let installs = entries.iter().zip(&shards).zip(plans).zip(&mut versions);
        for (((&(name, diff), shard), plan), version) in installs {
            let (Some(diff), Some(plan)) = (diff, plan) else {
                continue;
            };
            let mut seg = self.lock_shard(|| shard.write());
            *version = seg.install(plan);
            if let Some(store) = &self.durable {
                if version.is_multiple_of(store.options().checkpoint_interval.max(1)) {
                    Self::durable_image(store, &seg);
                }
            }
            if client.is_none() {
                self.metrics.repl_diffs_applied.inc();
            } else if let Some(hook) = self.commit_hook.read().as_ref() {
                hook(name, diff);
            }
        }
        Ok(versions)
    }

    fn release(&self, client: u64, segment: &str, diff: Option<&SegmentDiff>) -> Reply {
        let version = match diff {
            Some(d) => self
                .commit_diffs(Some(client), &[(segment, Some(d))])
                .map(|v| v[0]),
            None => self
                .segment_version(segment)
                .ok_or_else(|| format!("no such segment `{segment}`")),
        };
        let version = match version {
            Ok(version) => version,
            Err(message) => return Reply::Error { message },
        };
        if self.locks.lock().release(segment, client) {
            self.metrics.lock_released.inc();
        }
        Reply::Released { version }
    }

    fn commit(&self, client: u64, entries: &[(String, Option<SegmentDiff>)]) -> Reply {
        let entries: Vec<_> = entries
            .iter()
            .map(|(segment, diff)| (segment.as_str(), diff.as_ref()))
            .collect();
        let versions = match self.commit_diffs(Some(client), &entries) {
            Ok(versions) => versions,
            Err(message) => return Reply::Error { message },
        };
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
            let guard = self.lock_shard(|| seg.read());
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
        let mut guard = self.lock_shard(|| seg.write());
        match guard.collect_update(client, have_version, coherence) {
            Ok(diff) => Reply::Update { diff },
            Err(e) => Reply::Error {
                message: e.to_string(),
            },
        }
    }

    /// Applies one replicated diff (backup role) through the commit path
    /// with no writer lock. Idempotent: a diff the segment already has
    /// (retransmitted after a primary restart or a duplicated ship) is
    /// acked without being re-applied. A diff that does not start at this
    /// backup's version is a gap, which the primary answers with a full
    /// image. A durable backup logs replicated diffs too, so a restarted
    /// backup re-attaches with most state local.
    fn replicate(&self, segment: &str, from_version: u64, diff: &SegmentDiff) -> Reply {
        // Refused before the segment is looked up, so a bad step never
        // creates it.
        if from_version != diff.from_version || check_step(diff).is_err() {
            return Reply::Error {
                message: format!(
                    "replicate to `{segment}`: diff {}..{} shipped as from {from_version}",
                    diff.from_version, diff.to_version
                ),
            };
        }
        match self.commit_diffs(None, &[(segment, Some(diff))]) {
            Ok(versions) => Reply::Replicated {
                acked_version: versions[0],
            },
            Err(message) => Reply::Error { message },
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
        // Swap the image in place inside the existing shard, so any
        // concurrently held Arc keeps pointing at the live state.
        let shard = self.segment_or_insert(segment);
        let mut guard = self.lock_shard(|| shard.write());
        if self.locks.lock().is_claimed(segment) {
            return Reply::Error {
                message: format!("a commit to `{segment}` is in flight"),
            };
        }
        self.metrics.repl_syncs_applied.inc();
        self.metrics.repl_catchup_bytes.add(image.len() as u64);
        *guard = seg;
        // A full sync jumps the version, breaking the WAL's diff chain:
        // persist a full image so recovery has a base to chain
        // subsequent diff records from.
        if let Some(store) = &self.durable {
            Self::durable_image(store, &guard);
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
    /// record whether the link bytes were already materialized: received
    /// from the writer (a decoded diff keeps its bytes), or encoded for
    /// an earlier reader of the same window.
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

    /// A writer's `Release` whose diff claims `1 → 4` arrives as raw
    /// request bytes through the handler: it is refused, the segment
    /// stays at v1, and a reader at v1 later gets a current update
    /// instead of the liar's cached window.
    #[test]
    fn release_with_false_to_version_refused() {
        use iw_proto::Handler as _;
        let s = Server::new();
        let w = s.hello("w");
        let rd = s.hello("r");
        s.open("h/s");
        let acquire = |client, mode, have_version| Request::Acquire {
            client,
            segment: "h/s".into(),
            mode,
            have_version,
            coherence: Coherence::Full,
        };
        let release = |diff: SegmentDiff| {
            let bytes = Request::Release {
                client: w,
                segment: "h/s".into(),
                diff: Some(diff),
            }
            .encode();
            Reply::decode(s.handle(bytes)).unwrap()
        };
        let write = |from: u64, to: u64, prim: u64| SegmentDiff {
            from_version: from,
            to_version: to,
            block_diffs: vec![iw_wire::diff::BlockDiff {
                serial: 0,
                runs: vec![iw_wire::diff::DiffRun {
                    start: prim,
                    count: 1,
                    data: Bytes::from((prim as u32 + 100).to_be_bytes().to_vec()),
                }],
            }],
            ..Default::default()
        };
        s.handle_request(&acquire(w, LockMode::Write, 0));
        assert_eq!(release(seed_diff(0)), Reply::Released { version: 1 });

        s.handle_request(&acquire(w, LockMode::Write, 1));
        let r = release(write(1, 4, 0));
        assert!(
            matches!(&r, Reply::Error { message } if message.contains("1..4")),
            "{r:?}"
        );
        assert_eq!(s.segment_version("h/s"), Some(1));
        // The refused release kept its lock; honest releases follow.
        assert_eq!(release(write(1, 2, 0)), Reply::Released { version: 2 });
        for (from, prim) in [(2, 1), (3, 2)] {
            s.handle_request(&acquire(w, LockMode::Write, from));
            assert_eq!(
                release(write(from, from + 1, prim)),
                Reply::Released { version: from + 1 }
            );
        }
        let Reply::Granted {
            version: 4,
            update: Some(d),
            ..
        } = s.handle_request(&acquire(rd, LockMode::Read, 1))
        else {
            panic!("reader at v1 must get an update to v4");
        };
        assert_eq!((d.from_version, d.to_version), (1, 4));
        let starts: Vec<u64> = d.block_diffs[0].runs.iter().map(|r| r.start).collect();
        assert_eq!(starts, [0, 1, 2]);
    }

    /// `commit` and `replicate` refuse a multi-version diff too, before
    /// applying anything.
    #[test]
    fn commit_and_replicate_refuse_false_to_version() {
        let s = Server::new();
        let w = s.hello("w");
        s.open("h/s");
        s.open("h/t");
        for seg in ["h/s", "h/t"] {
            s.handle_request(&Request::Acquire {
                client: w,
                segment: seg.into(),
                mode: LockMode::Write,
                have_version: 0,
                coherence: Coherence::Full,
            });
        }
        let liar = SegmentDiff {
            to_version: 3,
            ..seed_diff(0)
        };
        let r = s.handle_request(&Request::Commit {
            client: w,
            entries: vec![
                ("h/s".into(), Some(seed_diff(0))),
                ("h/t".into(), Some(liar.clone())),
            ],
        });
        assert!(matches!(r, Reply::Error { .. }), "{r:?}");
        assert_eq!(s.segment_version("h/s"), Some(0), "no entry applied");
        let backup = Server::new();
        let r = backup.handle_request(&Request::Replicate {
            segment: "h/s".into(),
            from_version: 0,
            diff: liar,
        });
        assert!(matches!(r, Reply::Error { .. }), "{r:?}");
        assert_eq!(backup.segment_version("h/s"), None);
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
            .with_segment("h/s", |seg| checkpoint::encode_segment(seg).unwrap())
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
