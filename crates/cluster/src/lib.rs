//! Primary/backup segment replication (`iw-cluster`).
//!
//! The paper pins each segment to the single server named by its URL
//! (§2.1); this crate removes that single point of failure. A
//! [`Primary`] wraps a [`Server`] behind the normal [`Handler`]
//! interface and streams every committed write-release diff — the same
//! machine-independent wire diff the coherence protocol already uses —
//! to an ordered set of backup servers over any [`Transport`]
//! (loopback in tests, TCP in production).
//!
//! Replication is **asynchronous**: the commit path only clones the
//! diff into a channel; a background ship thread delivers it. Backups
//! apply diffs through the ordinary version chain
//! (`Request::Replicate`), so their `ServerSegment` state is
//! bit-identical to the primary's. A backup that joins late or falls
//! behind (version gap) is caught up with a full checkpoint-encoded
//! image (`Request::SyncFull`), after which the diff stream resumes.
//!
//! # Ordering under a concurrent server
//!
//! The wrapped server handles requests from many worker threads at
//! once, so the primary cannot learn about commits by watching replies
//! — two replies for one segment could be observed out of commit
//! order. Instead it registers a [`iw_server::CommitHook`], which the
//! server fires *while still holding that segment's write lock*: for
//! any one segment, hook invocations (and therefore ship-queue entries)
//! happen in exactly the version order the diffs committed in, and the
//! single ship thread preserves that FIFO order on the wire. The
//! ship queue is the bottom of the server's lock hierarchy (segment →
//! lock table → ship queue; DESIGN.md §6a).
//!
//! The asynchrony buys a bounded window: diffs acknowledged to a client
//! but not yet shipped are lost if the primary dies. The window is
//! observable as the per-segment `cluster.lag.<segment>` gauge.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bytes::Bytes;

use iw_proto::msg::{Reply, Request};
use iw_proto::{Handler, TcpTransport, Transport};
use iw_server::checkpoint;
use iw_server::Server;
use iw_telemetry::{Counter, Gauge, Registry};
use iw_wire::codec::WireError;
use iw_wire::diff::SegmentDiff;

/// Work for the ship thread.
enum Job {
    /// A committed diff to replicate to every backup.
    Ship {
        segment: String,
        diff: SegmentDiff,
    },
    /// A backup connection established by the caller (tests, local
    /// wiring).
    Attach(Box<dyn Transport>),
    /// A backup that asked to join by address (`iwsrv --backup-of`);
    /// the ship thread dials it so connect timeouts never stall the
    /// request path.
    AttachAddr(String),
    /// Signals when every job enqueued before it has been processed.
    Barrier(mpsc::Sender<()>),
    Stop,
}

/// One backup replica as the ship thread sees it.
struct BackupLink {
    transport: Box<dyn Transport>,
    /// Dial address for address-attached backups (`iwsrv --backup-of`);
    /// used to deduplicate re-announcements. `None` for transports
    /// attached directly via [`Primary::add_backup`].
    addr: Option<String>,
    /// Last version each segment acked; drives catch-up and the lag
    /// gauge.
    acked: HashMap<String, u64>,
    /// Set on a channel error; a dead link is pruned — transport,
    /// acked-version map and all — at the next bookkeeping pass, so a
    /// backup that re-attaches starts from a fresh full sync instead of
    /// inheriting stale ack state.
    dead: bool,
}

/// Counters the ship thread updates, registered in the wrapped server's
/// own registry so `iwstat` against the primary shows them.
struct ShipMetrics {
    registry: Arc<Registry>,
    /// `cluster.diffs_shipped_total` — diffs delivered to a backup.
    diffs_shipped: Arc<Counter>,
    /// `cluster.sync_full_total` — full catch-up images shipped.
    syncs_shipped: Arc<Counter>,
    /// `cluster.catchup_bytes_shipped_total` — bytes of those images.
    catchup_bytes: Arc<Counter>,
    /// `cluster.ship_errors_total` — failed deliveries (backup marked
    /// dead or sync fallback needed).
    ship_errors: Arc<Counter>,
    /// `cluster.resyncs_total` — mid-stream full resyncs forced by a
    /// version gap (attach-time catch-up syncs are *not* counted here).
    resyncs: Arc<Counter>,
    /// `cluster.backups_pruned_total` — dead links discarded together
    /// with their per-segment ack state.
    backups_pruned: Arc<Counter>,
    /// `cluster.backups` — live attached backups.
    backups: Arc<Gauge>,
}

impl ShipMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        ShipMetrics {
            diffs_shipped: registry.counter("cluster.diffs_shipped_total"),
            syncs_shipped: registry.counter("cluster.sync_full_total"),
            catchup_bytes: registry.counter("cluster.catchup_bytes_shipped_total"),
            ship_errors: registry.counter("cluster.ship_errors_total"),
            resyncs: registry.counter("cluster.resyncs_total"),
            backups_pruned: registry.counter("cluster.backups_pruned_total"),
            backups: registry.gauge("cluster.backups"),
            registry,
        }
    }
}

/// A replicating front-end over a [`Server`].
///
/// Implements [`Handler`], so it drops into every place a bare server
/// fits (loopback, `iw_net::NetServer`) and inherits the server's
/// internal concurrency — requests pass straight through with no
/// wrapper lock. Committed diffs reach the ship thread via the server's
/// commit hook (see the module docs), and `AttachBackup` requests
/// register new backups.
pub struct Primary {
    server: Arc<Server>,
    tx: mpsc::Sender<Job>,
    ship: Option<JoinHandle<()>>,
    /// Attached (or attaching) backups. While zero, the commit hook
    /// skips the enqueue entirely — a lone server pays nothing for
    /// being replication-capable. Diffs committed before a pending
    /// attach is processed are covered by its attach-time full sync.
    attached: Arc<AtomicUsize>,
    /// Dial addresses of *live* address-attached backups, advertised to
    /// clients in `Welcome` and `Frontier` replies so they can route
    /// relaxed reads at read replicas. Maintained by the ship thread: a
    /// backup joins the set once its attach-time sync succeeds and
    /// leaves it the moment its dead link is pruned — clients must
    /// never be pointed at a backup the primary has given up on.
    advertised: Arc<Mutex<Vec<String>>>,
}

impl std::fmt::Debug for Primary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Primary").finish_non_exhaustive()
    }
}

impl Primary {
    /// Wraps `server`, spawning the replication ship thread and hooking
    /// the server's commit path.
    pub fn new(server: Server) -> Self {
        let registry = server.registry().clone();
        let server = Arc::new(server);
        let (tx, rx) = mpsc::channel();
        let ship_server = server.clone();
        let metrics = ShipMetrics::new(registry);
        let attached = Arc::new(AtomicUsize::new(0));
        let ship_attached = attached.clone();
        let advertised = Arc::new(Mutex::new(Vec::new()));
        let ship_advertised = advertised.clone();
        let ship = std::thread::Builder::new()
            .name("iw-cluster-ship".into())
            .spawn(move || {
                ship_loop(
                    &rx,
                    &ship_server,
                    &metrics,
                    &ship_attached,
                    &ship_advertised,
                )
            })
            .expect("spawn ship thread");
        let hook_tx = tx.clone();
        let hook_attached = attached.clone();
        server.set_commit_hook(Arc::new(move |segment, diff| {
            if hook_attached.load(Ordering::Relaxed) == 0 {
                // No backups: the commit path stays exactly the bare
                // server's (no clone, no channel, no ship-thread wakeup).
                return;
            }
            let _ = hook_tx.send(Job::Ship {
                segment: segment.to_string(),
                diff: diff.clone(),
            });
        }));
        Primary {
            server,
            tx,
            ship: Some(ship),
            attached,
            advertised,
        }
    }

    /// Dial addresses of live address-attached backups, as advertised to
    /// clients (tests).
    pub fn advertised_replicas(&self) -> Vec<String> {
        self.advertised.lock().expect("advertised set").clone()
    }

    /// The wrapped server (benchmarks and tests).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Attaches an already-connected backup transport (tests, local
    /// wiring). The backup is first brought up to date with full images
    /// of every segment, then follows the diff stream.
    pub fn add_backup(&self, transport: Box<dyn Transport>) {
        self.attached.fetch_add(1, Ordering::SeqCst);
        let _ = self.tx.send(Job::Attach(transport));
    }

    /// Blocks until every job enqueued so far has been shipped (tests:
    /// replication is asynchronous, so assertions need a barrier).
    pub fn drain(&self) {
        let (done_tx, done_rx) = mpsc::channel();
        let _ = self.tx.send(Job::Barrier(done_tx));
        let _ = done_rx.recv_timeout(std::time::Duration::from_secs(10));
    }
}

impl Drop for Primary {
    fn drop(&mut self) {
        let _ = self.tx.send(Job::Stop);
        if let Some(t) = self.ship.take() {
            let _ = t.join();
        }
    }
}

impl Handler for Primary {
    fn handle(&self, request: Bytes) -> Bytes {
        // Hold the server's accounting span across our own decode and
        // encode, so busy/concurrency metrics cover the full in-handler
        // time on clustered servers too.
        let _guard = self.server.begin_request();
        let req = match Request::decode(request) {
            Ok(req) => req,
            Err(e) => return bad_request(&e),
        };
        if let Request::AttachBackup { addr } = &req {
            self.attached.fetch_add(1, Ordering::SeqCst);
            let _ = self.tx.send(Job::AttachAddr(addr.clone()));
            return Reply::Replicated { acked_version: 0 }.encode();
        }
        // Committed diffs are enqueued by the commit hook, under the
        // owning segment's write lock — not here, where concurrent
        // replies could be observed out of commit order.
        let mut reply = self.server.dispatch(&req);
        if let Reply::Welcome { replicas, .. } | Reply::Frontier { replicas, .. } = &mut reply {
            // Advertise the live backup set so clients can discover —
            // and, after a prune, evict — read replicas.
            *replicas = self.advertised.lock().expect("advertised set").clone();
        }
        self.server.encode_reply(&reply)
    }
}

/// The reply to an undecodable request.
fn bad_request(e: &WireError) -> Bytes {
    Reply::Error {
        message: format!("bad request: {e}"),
    }
    .encode()
}

/// The serving face of a backup replica: delegates the read path
/// (`Hello`, `Open`, relaxed `Poll`s, shared `Acquire`s, replication
/// traffic) to the wrapped [`Server`] and refuses write-shaped requests
/// with [`Reply::NotPrimary`], optionally pointing at the primary. A
/// `Poll` carrying a non-zero version floor is a replica-routed read:
/// the wrapped server answers it from the replicated state, refusing
/// with `NotFresh` when it has not caught up to the floor — so a backup
/// can serve relaxed-coherence reads without ever being able to serve
/// one staler than the client's predicate allows.
///
/// Built [`Backup::promotable`], the face additionally *promotes*: the
/// first failover-marked `Hello` (how a client that lost the primary
/// re-registers — see [`Server::hello`]) flips the node to its inner
/// [`Primary`] handler for good, so a dead primary's clients land on a
/// fully writable, replication-capable survivor. While the primary
/// lives, writes still bounce.
pub struct Backup {
    server: Arc<Server>,
    primary: Option<String>,
    /// The full primary face to serve once promoted (`iwsrv
    /// --backup-of` wires the node's own [`Primary`] wrapper here).
    inner: Option<Arc<dyn Handler>>,
    /// Latched by the first failover-marked `Hello`.
    promoted: AtomicBool,
    /// `cluster.replica_reads_served_total` — floored polls this backup
    /// answered (`UpToDate` or `Update`).
    reads_served: Arc<Counter>,
    /// `cluster.replica_not_fresh_total` — floored polls refused
    /// because this backup trailed the requested floor.
    not_fresh: Arc<Counter>,
    /// `cluster.write_redirects_total` — write-shaped requests bounced
    /// with `NotPrimary`.
    redirects: Arc<Counter>,
    /// `cluster.promotions_total` — failover-marked `Hello`s that
    /// flipped this backup to its primary face (0 or 1 per process).
    promotions: Arc<Counter>,
}

impl std::fmt::Debug for Backup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backup")
            .field("primary", &self.primary)
            .finish_non_exhaustive()
    }
}

impl Backup {
    /// Wraps `server` as a read-serving backup. `primary` is the dial
    /// address redirected writers should use, when known. Never
    /// promotes — writes bounce for the process lifetime.
    pub fn new(server: Arc<Server>, primary: Option<String>) -> Self {
        let registry = server.registry().clone();
        Backup {
            reads_served: registry.counter("cluster.replica_reads_served_total"),
            not_fresh: registry.counter("cluster.replica_not_fresh_total"),
            redirects: registry.counter("cluster.write_redirects_total"),
            promotions: registry.counter("cluster.promotions_total"),
            inner: None,
            promoted: AtomicBool::new(false),
            server,
            primary,
        }
    }

    /// As [`Backup::new`], but with a full primary face (`inner`, a
    /// [`Primary`] wrapping the *same* `server`) that takes over
    /// permanently when a failover-marked `Hello` arrives — the
    /// standalone-daemon shape, where a backup must be able to survive
    /// its primary.
    pub fn promotable(
        inner: Arc<dyn Handler>,
        server: Arc<Server>,
        primary: Option<String>,
    ) -> Self {
        let mut b = Backup::new(server, primary);
        b.inner = Some(inner);
        b
    }

    /// `true` once a failover-marked `Hello` flipped this node to its
    /// primary face.
    pub fn is_promoted(&self) -> bool {
        self.promoted.load(Ordering::SeqCst)
    }

    /// The wrapped server (benchmarks and tests).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }
}

impl Handler for Backup {
    fn handle(&self, request: Bytes) -> Bytes {
        if let Some(inner) = &self.inner {
            if self.promoted.load(Ordering::SeqCst) {
                return inner.handle(request);
            }
        }
        let req = match Request::decode(request.clone()) {
            Ok(req) => req,
            Err(e) => {
                let _guard = self.server.begin_request();
                return bad_request(&e);
            }
        };
        if let (Some(inner), Request::Hello { info }) = (&self.inner, &req) {
            // The promotion trigger, checked before the redirect face
            // sees it: a failover-marked `Hello` means the primary is
            // dead as far as that client could tell, and somebody has
            // to own the version chain from here on.
            if info.contains("failover") {
                self.promoted.store(true, Ordering::SeqCst);
                self.promotions.inc();
                return inner.handle(request);
            }
        }
        let _guard = self.server.begin_request();
        match &req {
            // Write-shaped requests mutate the version chain, which only
            // the primary owns. (A diff-less `Release` is a read-lock
            // release and passes through.)
            Request::Acquire {
                mode: iw_proto::LockMode::Write,
                ..
            }
            | Request::Release { diff: Some(_), .. }
            | Request::Commit { .. }
            | Request::AttachBackup { .. } => {
                self.redirects.inc();
                Reply::NotPrimary {
                    primary: self.primary.clone(),
                }
                .encode()
            }
            Request::Poll { floor, .. } if *floor > 0 => {
                let reply = self.server.dispatch(&req);
                match &reply {
                    Reply::NotFresh { .. } => self.not_fresh.inc(),
                    Reply::UpToDate | Reply::Update { .. } => self.reads_served.inc(),
                    _ => {}
                }
                self.server.encode_reply(&reply)
            }
            _ => self.server.encode_reply(&self.server.dispatch(&req)),
        }
    }
}

/// Delivers one diff to one backup, falling back to a full image on a
/// version gap. Returns `false` if the backup's channel died.
fn ship_one(
    backup: &mut BackupLink,
    segment: &str,
    diff: &SegmentDiff,
    server: &Server,
    metrics: &ShipMetrics,
) -> bool {
    if backup.acked.get(segment).copied().unwrap_or(0) >= diff.to_version {
        return true; // already has it (e.g. from the attach-time sync)
    }
    let req = Request::Replicate {
        segment: segment.to_string(),
        from_version: diff.from_version,
        diff: diff.clone(),
    };
    match backup.transport.request(&req) {
        Ok(Reply::Replicated { acked_version }) => {
            backup.acked.insert(segment.to_string(), acked_version);
            metrics.diffs_shipped.inc();
            true
        }
        Ok(_) => {
            // Version gap (or any server-side refusal): catch up with a
            // full image.
            metrics.ship_errors.inc();
            metrics.resyncs.inc();
            sync_one(backup, segment, server, metrics)
        }
        Err(_) => {
            metrics.ship_errors.inc();
            false
        }
    }
}

/// Ships a full checkpoint image of `segment` to one backup. Returns
/// `false` if the backup's channel died.
fn sync_one(
    backup: &mut BackupLink,
    segment: &str,
    server: &Server,
    metrics: &ShipMetrics,
) -> bool {
    let image = match server.with_segment(segment, checkpoint::encode_segment) {
        Some(Ok(image)) => image,
        // Vanished or unencodable: skip, don't kill the link.
        Some(Err(_)) | None => return true,
    };
    let req = Request::SyncFull {
        segment: segment.to_string(),
        image: image.clone(),
    };
    match backup.transport.request(&req) {
        Ok(Reply::Replicated { acked_version }) => {
            backup.acked.insert(segment.to_string(), acked_version);
            metrics.syncs_shipped.inc();
            metrics.catchup_bytes.add(image.len() as u64);
            true
        }
        Ok(_) | Err(_) => {
            metrics.ship_errors.inc();
            false
        }
    }
}

/// Brings a newly attached backup fully up to date.
fn attach(
    mut backup: BackupLink,
    backups: &mut Vec<BackupLink>,
    server: &Server,
    metrics: &ShipMetrics,
) {
    for name in server.segment_names() {
        if !sync_one(&mut backup, &name, server, metrics) {
            backup.dead = true;
            break;
        }
    }
    if !backup.dead {
        backups.push(backup);
    }
    metrics
        .backups
        .set(backups.iter().filter(|b| !b.dead).count() as i64);
}

fn ship_loop(
    rx: &mpsc::Receiver<Job>,
    server: &Arc<Server>,
    metrics: &ShipMetrics,
    attached: &AtomicUsize,
    advertised: &Mutex<Vec<String>>,
) {
    let mut backups: Vec<BackupLink> = Vec::new();
    // Pre-resolved per-segment lag gauges (the registry's name map is a
    // lock; resolve each gauge once, not per shipped diff).
    let mut lag: HashMap<String, Arc<Gauge>> = HashMap::new();
    // Discards dead links — transport, acked map and all — so re-attached
    // backups cannot inherit stale per-segment ack state, then republishes
    // the live count. A failed attach or a death drops the count; pending
    // attaches re-raise it via fetch_add, and any diffs skipped at zero
    // are covered by the pending attach's full sync. The client-facing
    // advertised replica set is rebuilt from the survivors in the same
    // pass: pruning a dead backup evicts it from what clients are told,
    // so no new reader is routed at a replica the primary gave up on.
    let prune_and_refresh = |backups: &mut Vec<BackupLink>| {
        let before = backups.len();
        backups.retain(|b| !b.dead);
        let pruned = before - backups.len();
        if pruned > 0 {
            metrics.backups_pruned.add(pruned as u64);
        }
        metrics.backups.set(backups.len() as i64);
        attached.store(backups.len(), Ordering::SeqCst);
        *advertised.lock().expect("advertised set") = backups
            .iter()
            .filter_map(|b| b.addr.clone())
            .collect::<Vec<_>>();
    };
    while let Ok(job) = rx.recv() {
        match job {
            Job::Stop => break,
            Job::Barrier(done) => {
                let _ = done.send(());
            }
            Job::Attach(transport) => {
                attach(
                    BackupLink {
                        transport,
                        addr: None,
                        acked: HashMap::new(),
                        dead: false,
                    },
                    &mut backups,
                    server,
                    metrics,
                );
                prune_and_refresh(&mut backups);
            }
            Job::AttachAddr(addr) => {
                // A backup re-announcing itself (retried `--backup-of`,
                // restart with the same address) must not open a second
                // stream; the existing live link already covers it.
                if backups
                    .iter()
                    .any(|b| !b.dead && b.addr.as_deref() == Some(addr.as_str()))
                {
                    prune_and_refresh(&mut backups);
                    continue;
                }
                let Ok(sockaddr) = addr.parse::<SocketAddr>() else {
                    metrics.ship_errors.inc();
                    prune_and_refresh(&mut backups);
                    continue;
                };
                match TcpTransport::connect(sockaddr) {
                    Ok(t) => attach(
                        BackupLink {
                            transport: Box::new(t),
                            addr: Some(addr),
                            acked: HashMap::new(),
                            dead: false,
                        },
                        &mut backups,
                        server,
                        metrics,
                    ),
                    Err(_) => metrics.ship_errors.inc(),
                }
                prune_and_refresh(&mut backups);
            }
            Job::Ship { segment, diff } => {
                for backup in &mut backups {
                    if backup.dead {
                        continue;
                    }
                    if !ship_one(backup, &segment, &diff, server, metrics) {
                        backup.dead = true;
                    }
                }
                prune_and_refresh(&mut backups);
                // Lag = newest shipped version minus the slowest
                // backup's ack. Zero backups means nothing to lag behind.
                let min_acked = backups
                    .iter()
                    .map(|b| b.acked.get(&segment).copied().unwrap_or(0))
                    .min();
                if let Some(min_acked) = min_acked {
                    lag.entry(segment.clone())
                        .or_insert_with(|| {
                            metrics.registry.gauge(&format!("cluster.lag.{segment}"))
                        })
                        .set(diff.to_version.saturating_sub(min_acked) as i64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_proto::msg::LockMode;
    use iw_proto::{Coherence, FaultAction, FaultLayer, Loopback};
    use iw_types::desc::TypeDesc;
    use iw_wire::diff::NewBlock;

    fn seed_diff(from: u64) -> SegmentDiff {
        SegmentDiff {
            from_version: from,
            to_version: from + 1,
            new_types: if from == 0 {
                vec![(0, TypeDesc::int32())]
            } else {
                vec![]
            },
            new_blocks: vec![NewBlock {
                serial: from as u32,
                name: None,
                type_serial: 0,
                count: 4,
                data: Bytes::from(vec![from as u8; 16]),
            }],
            ..Default::default()
        }
    }

    fn write_version(primary: &Arc<Primary>, client: u64, from: u64) {
        let mut t = Loopback::new(primary.clone());
        let r = t
            .request(&Request::Acquire {
                client,
                segment: "h/s".into(),
                mode: LockMode::Write,
                have_version: from,
                coherence: Coherence::Full,
            })
            .unwrap();
        assert!(matches!(r, Reply::Granted { .. }), "{r:?}");
        let r = t
            .request(&Request::Release {
                client,
                segment: "h/s".into(),
                diff: Some(seed_diff(from)),
            })
            .unwrap();
        assert_eq!(r, Reply::Released { version: from + 1 });
    }

    /// Primary + one loopback backup server.
    fn cluster() -> (Arc<Primary>, Arc<Server>) {
        let backup = Arc::new(Server::new());
        let primary = Arc::new(Primary::new(Server::new()));
        primary.add_backup(Box::new(Loopback::new(backup.clone())));
        // Settle the attach before the test opens segments, so each
        // test sees a deterministic ship sequence (otherwise the
        // attach-time sync can race ahead of the first writes and
        // legitimately absorb them).
        primary.drain();
        (primary, backup)
    }

    /// A link to `srv` whose channel drops every request.
    fn dead_link(srv: Arc<Server>) -> Loopback {
        struct DropAll;
        impl FaultLayer for DropAll {
            fn plan(&mut self, _req: &Request, _encoded: &Bytes) -> FaultAction {
                FaultAction::Drop
            }
        }
        let mut link = Loopback::new(srv);
        link.set_fault_layer(Box::new(DropAll));
        link
    }

    fn connect(primary: &Arc<Primary>) -> (Loopback, u64) {
        let mut t = Loopback::new(primary.clone());
        let Reply::Welcome { client, .. } =
            t.request(&Request::Hello { info: "t".into() }).unwrap()
        else {
            panic!("no welcome")
        };
        t.request(&Request::Open {
            client,
            segment: "h/s".into(),
        })
        .unwrap();
        (t, client)
    }

    #[test]
    fn diffs_stream_to_backup() {
        let (primary, backup) = cluster();
        let (_t, client) = connect(&primary);
        for v in 0..3 {
            write_version(&primary, client, v);
        }
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), Some(3));
        let snap = primary.server().metrics_snapshot();
        assert_eq!(snap.counter("cluster.diffs_shipped_total"), Some(3));
        let bsnap = backup.metrics_snapshot();
        assert_eq!(bsnap.counter("cluster.diffs_applied_total"), Some(3));
    }

    #[test]
    fn late_backup_catches_up_with_full_image() {
        let primary = Arc::new(Primary::new(Server::new()));
        let (_t, client) = connect(&primary);
        for v in 0..2 {
            write_version(&primary, client, v);
        }
        // Backup joins after two versions already exist.
        let backup = Arc::new(Server::new());
        primary.add_backup(Box::new(Loopback::new(backup.clone())));
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), Some(2));
        // Attach-time sync made the backup bit-identical.
        let image = backup
            .with_segment("h/s", |seg| checkpoint::encode_segment(seg).unwrap())
            .unwrap();
        assert_eq!(
            primary
                .server()
                .with_segment("h/s", |seg| checkpoint::encode_segment(seg).unwrap())
                .unwrap(),
            image
        );
        // And the diff stream continues from there.
        write_version(&primary, client, 2);
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), Some(3));
        let snap = primary.server().metrics_snapshot();
        assert_eq!(snap.counter("cluster.sync_full_total"), Some(1));
        assert!(snap.counter("cluster.catchup_bytes_shipped_total").unwrap() > 0);
    }

    #[test]
    fn version_gap_triggers_full_sync() {
        let (primary, backup) = cluster();
        let (_t, client) = connect(&primary);
        write_version(&primary, client, 0);
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), Some(1));
        // A version applied behind the replication stream's back (as if
        // shipped diffs were lost) opens a gap.
        primary
            .server()
            .with_segment_mut("h/s", |seg| seg.apply_diff(&seed_diff(1)).unwrap())
            .unwrap();
        write_version(&primary, client, 2);
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), Some(3));
        let snap = primary.server().metrics_snapshot();
        assert_eq!(snap.counter("cluster.sync_full_total"), Some(1));
        // The gap forced a mid-stream resync (attach-time catch-up
        // would not count).
        assert_eq!(snap.counter("cluster.resyncs_total"), Some(1));
        let bsnap = backup.metrics_snapshot();
        assert_eq!(bsnap.counter("cluster.sync_full_applied_total"), Some(1));
    }

    #[test]
    fn dead_backup_is_skipped_live_one_keeps_streaming() {
        let (primary, backup) = cluster();
        // Second backup whose channel drops every request.
        let flaky_srv = Arc::new(Server::new());
        primary.add_backup(Box::new(dead_link(flaky_srv.clone())));

        let (_t, client) = connect(&primary);
        for v in 0..3 {
            write_version(&primary, client, v);
        }
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), Some(3));
        assert!(flaky_srv.segment_version("h/s").is_none());
        let snap = primary.server().metrics_snapshot();
        assert!(snap.counter("cluster.ship_errors_total").unwrap() > 0);
        assert_eq!(snap.gauge("cluster.backups"), Some(1));
    }

    #[test]
    fn dead_backup_is_pruned_and_reattach_starts_fresh() {
        let (primary, backup) = cluster();
        // A backup whose channel dies on its first shipped diff.
        let flaky_srv = Arc::new(Server::new());
        primary.add_backup(Box::new(dead_link(flaky_srv.clone())));
        // Settle the attach while no segments exist, so the link dies on
        // a shipped diff (the pruning path under test), not mid-attach.
        primary.drain();
        let (_t, client) = connect(&primary);
        write_version(&primary, client, 0);
        primary.drain();
        let snap = primary.server().metrics_snapshot();
        // The dead link — acked-version map and all — was discarded,
        // not just skipped.
        assert_eq!(snap.counter("cluster.backups_pruned_total"), Some(1));
        assert_eq!(snap.gauge("cluster.backups"), Some(1));
        // A replacement attaches cleanly and full-syncs from scratch.
        let fresh = Arc::new(Server::new());
        primary.add_backup(Box::new(Loopback::new(fresh.clone())));
        primary.drain();
        assert_eq!(fresh.segment_version("h/s"), Some(1));
        let snap = primary.server().metrics_snapshot();
        assert_eq!(snap.gauge("cluster.backups"), Some(2));
        // Both survivors keep streaming.
        write_version(&primary, client, 1);
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), Some(2));
        assert_eq!(fresh.segment_version("h/s"), Some(2));
    }

    #[test]
    fn reannounced_backup_addr_attaches_once() {
        let backup = Arc::new(Server::new());
        let srv = iw_net::NetServer::spawn("127.0.0.1:0".parse().unwrap(), backup.clone()).unwrap();
        let primary = Arc::new(Primary::new(Server::new()));
        let (mut t, client) = connect(&primary);
        let announce = Request::AttachBackup {
            addr: srv.addr().to_string(),
        };
        // The backup announces twice (e.g. a retried `--backup-of`
        // loop); the second announcement must not open a second stream.
        assert!(matches!(
            t.request(&announce).unwrap(),
            Reply::Replicated { .. }
        ));
        primary.drain();
        assert!(matches!(
            t.request(&announce).unwrap(),
            Reply::Replicated { .. }
        ));
        primary.drain();
        let snap = primary.server().metrics_snapshot();
        assert_eq!(snap.gauge("cluster.backups"), Some(1));
        write_version(&primary, client, 0);
        primary.drain();
        // One link ⇒ the diff was shipped exactly once.
        let snap = primary.server().metrics_snapshot();
        assert_eq!(snap.counter("cluster.diffs_shipped_total"), Some(1));
        assert_eq!(backup.segment_version("h/s"), Some(1));
    }

    #[test]
    fn committed_transaction_diffs_replicate() {
        let (primary, backup) = cluster();
        let (mut t, client) = connect(&primary);
        let r = t
            .request(&Request::Acquire {
                client,
                segment: "h/s".into(),
                mode: LockMode::Write,
                have_version: 0,
                coherence: Coherence::Full,
            })
            .unwrap();
        assert!(matches!(r, Reply::Granted { .. }));
        let r = t
            .request(&Request::Commit {
                client,
                entries: vec![("h/s".into(), Some(seed_diff(0)))],
            })
            .unwrap();
        assert!(matches!(r, Reply::Committed { .. }), "{r:?}");
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), Some(1));
    }

    #[test]
    fn lag_gauge_tracks_slowest_backup() {
        let (primary, _backup) = cluster();
        let (_t, client) = connect(&primary);
        write_version(&primary, client, 0);
        primary.drain();
        let snap = primary.server().metrics_snapshot();
        assert_eq!(snap.gauge("cluster.lag.h/s"), Some(0));
    }

    #[test]
    fn recovered_primary_reships_from_persisted_frontier() {
        use iw_server::{DurabilityMode, DurableOptions};
        let dir = std::env::temp_dir().join(format!("iw-cluster-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurableOptions {
            mode: DurabilityMode::WalCheckpoint,
            fsync: false,
            ..DurableOptions::default()
        };
        {
            // A durable primary commits three versions, then "crashes"
            // (dropped without shipping anywhere).
            let (server, _) = Server::with_durability(dir.clone(), opts.clone()).unwrap();
            let primary = Arc::new(Primary::new(server));
            let (_t, client) = connect(&primary);
            for v in 0..3 {
                write_version(&primary, client, v);
            }
        }
        // Restart from disk: the recovered primary's persisted frontier
        // (v3) is what attach-time catch-up ships to a fresh backup.
        let (server, rec) = Server::with_durability(dir.clone(), opts).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        let primary = Arc::new(Primary::new(server));
        let backup = Arc::new(Server::new());
        primary.add_backup(Box::new(Loopback::new(backup.clone())));
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), Some(3));
        let image = |s: &Arc<Server>| {
            s.with_segment("h/s", |seg| checkpoint::encode_segment(seg).unwrap())
                .unwrap()
        };
        assert_eq!(image(primary.server()), image(&backup));
        // The replication stream continues past the recovered frontier.
        let (_t, client) = connect(&primary);
        write_version(&primary, client, 3);
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_release_is_not_replicated() {
        let (primary, backup) = cluster();
        let (mut t, client) = connect(&primary);
        // Release with a diff but no write lock: server refuses, and the
        // refused diff must not reach the backup.
        let r = t
            .request(&Request::Release {
                client,
                segment: "h/s".into(),
                diff: Some(seed_diff(0)),
            })
            .unwrap();
        assert!(matches!(r, Reply::Error { .. }));
        primary.drain();
        assert_eq!(backup.segment_version("h/s"), None);
    }
}
