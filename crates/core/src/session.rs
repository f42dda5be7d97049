//! The InterWeave client session: connection routing and failover, and
//! the lock-and-coherence client protocol. Diff collection, application
//! and pointer swizzling live in [`crate::translate`].
//!
//! A [`Session`] corresponds to one InterWeave client process: it owns the
//! process's heap (in the paper, the InterWeave-managed heap area mapped
//! into the address space), a cached connection to servers, and the
//! per-segment coherence state. The API mirrors the paper's Figure 1:
//! `open_segment`, `wl_acquire`/`wl_release`, `rl_acquire`/`rl_release`,
//! `malloc`, `mip_to_ptr`, `ptr_to_mip`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use iw_heap::{BlockMeta, Heap, SegId};
use iw_proto::msg::{Reply, Request};
use iw_proto::{Coherence, LockMode, Transport, TransportStats};
use iw_telemetry::{Registry, Snapshot};
use iw_types::arch::MachineArch;
use iw_types::desc::{PrimKind, TypeDesc};
use iw_wire::diff::SegmentDiff;
use iw_wire::mip::Mip;

use crate::error::CoreError;
use crate::metrics::SessionMetrics;
use crate::segstate::{SegState, TrackMode};
use crate::translate::{mip_for_va, read_va, write_va, Collected, Pending, Translator};

/// A handle to an open segment (the paper's `IW_handle_t`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SegHandle {
    name: std::sync::Arc<str>,
}

impl SegHandle {
    /// The segment's name (`host/path`).
    pub fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn for_name(name: &str) -> SegHandle {
        SegHandle { name: name.into() }
    }
}

/// A typed pointer into shared memory: a simulated virtual address plus
/// the type of the value it points at (used for field/index navigation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ptr {
    pub(crate) va: u64,
    pub(crate) ty: TypeDesc,
}

impl Ptr {
    /// The simulated virtual address.
    pub fn va(&self) -> u64 {
        self.va
    }

    /// The type of the pointed-at value.
    pub fn ty(&self) -> &TypeDesc {
        &self.ty
    }
}

/// Tunables and ablation switches for a session.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Apply diff-run splicing (§3.3). Disable for ablation.
    pub splice: bool,
    /// Enable no-diff mode adaptation (§3.3). Disable for ablation.
    pub no_diff_adaptation: bool,
    /// Enable last-block prediction during diff application (§3.3).
    pub prediction: bool,
    /// How many times to retry a busy lock before giving up.
    pub lock_retries: u32,
    /// Microseconds to sleep after the first busy-lock retry; each
    /// further retry doubles the sleep (plus deterministic jitter) up to
    /// [`SessionOptions::lock_backoff_cap_us`].
    pub lock_backoff_us: u64,
    /// Upper bound on the exponential busy-lock backoff.
    pub lock_backoff_cap_us: u64,
    /// Rounds through the replica list before a failover gives up.
    pub failover_rounds: u32,
    /// Milliseconds to sleep between failover rounds (with the same
    /// doubling-plus-jitter schedule as lock backoff).
    pub failover_backoff_ms: u64,
    /// Page size for modification tracking (`None` = the platform
    /// default of 4096). Small pages let tests exercise page-boundary
    /// logic cheaply.
    pub page_size: Option<u32>,
    /// Collapse translation to `memcpy` for blocks whose layout is
    /// byte-identical to the wire encoding
    /// ([`iw_types::flat::WireIdentity::Iso`]). The wire diffs and
    /// applied images are byte-identical either way; disable for
    /// ablation benchmarks and differential tests of the general
    /// descriptor walk.
    pub iso_fast_path: bool,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            splice: true,
            no_diff_adaptation: true,
            prediction: true,
            lock_retries: 10_000,
            lock_backoff_us: 100,
            lock_backoff_cap_us: 10_000,
            failover_rounds: 3,
            failover_backoff_ms: 100,
            page_size: None,
            iso_fast_path: true,
        }
    }
}

/// Counters for the optimization experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Serial→block lookups during diff application.
    pub apply_block_lookups: u64,
    /// …of which the last-block predictor answered without a tree search.
    pub apply_pred_hits: u64,
    /// Diffs collected.
    pub diffs_collected: u64,
    /// Diffs applied.
    pub diffs_applied: u64,
    /// Primitive units transmitted in collected diffs.
    pub prims_sent: u64,
    /// Primitive units installed from applied diffs.
    pub prims_received: u64,
}

/// An InterWeave client session (the library a client links against).
pub struct Session {
    pub(crate) heap: Heap,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) client_id: u64,
    pub(crate) segs: HashMap<String, SegState>,
    /// Pointer fields whose target segment is not (yet) cached:
    /// field VA → target MIP. The local word holds 0 until resolved.
    pub(crate) unresolved: HashMap<u64, Mip>,
    pub(crate) opts: SessionOptions,
    pub(crate) metrics: SessionMetrics,
    /// The translation engine (collect, apply, swizzling).
    xlate: Translator,
    /// Open transaction, if any (see [`crate::tx`]).
    pub(crate) tx: Option<crate::tx::TxState>,
    /// Additional servers, keyed by segment-URL host ("Every segment is
    /// managed by an InterWeave server at the IP address corresponding
    /// to the segment's URL. Different segments may be managed by
    /// different servers.", §2.1). Segments whose host has no entry use
    /// the default transport.
    pub(crate) extra_links: HashMap<String, ServerLink>,
}

/// Reconnects to one replica of a server group (`Ok` = a fresh, unused
/// transport). Called again on every failover attempt.
pub type Connector = Box<dyn FnMut() -> Result<Box<dyn Transport>, CoreError> + Send>;

/// A connection to one InterWeave server plus the client id it assigned.
pub(crate) struct ServerLink {
    pub transport: Box<dyn Transport>,
    pub client_id: u64,
    /// Ordered replica group (primary first). Empty for plain
    /// [`Session::add_server`] links, which never fail over.
    pub connectors: Vec<Connector>,
    /// Index into `connectors` of the replica `transport` talks to.
    pub active: usize,
    /// Read replicas relaxed-coherence reads may be served from.
    pub read_replicas: Vec<ReadReplica>,
    /// Backup addresses the primary advertised in its last
    /// `Welcome`/`Frontier` reply (TCP groups; used to discover — and,
    /// when the primary prunes a dead backup, evict — read replicas).
    pub advertised: Vec<String>,
    /// Deterministic rotation state for replica selection.
    pub rr_seed: u64,
}

/// One read replica of a server group: relaxed-coherence reads may be
/// served from it when its version satisfies the session's coherence
/// predicate (see [`Coherence::replica_floor`]). Connected lazily on
/// first use; a channel error marks it dead until the next failover
/// resets the pool.
pub(crate) struct ReadReplica {
    /// Display label (the dial address for TCP replicas).
    pub label: String,
    pub connector: Connector,
    pub transport: Option<Box<dyn Transport>>,
    pub client_id: u64,
    /// Last version this replica was seen to hold, per segment (from
    /// `NotFresh` refusals and served reads), paired with the client's
    /// `best_known` frontier at the time of the observation. The
    /// observation is *staleness evidence* only while the frontier
    /// hasn't advanced past it — the replica follows the ship stream,
    /// so an older refusal says nothing about where it is now. Missing
    /// or outdated entries are treated optimistically: the server-side
    /// floor check keeps a wrong guess safe, it just costs the round
    /// trip.
    pub known: HashMap<String, (u64, u64)>,
    /// Replicas auto-discovered from the primary's advertised set are
    /// evicted when the primary stops advertising them; explicitly
    /// registered ones are kept.
    pub from_advert: bool,
    pub dead: bool,
    /// `cluster.replica_lag.<label>` — how far this replica trails the
    /// client's confirmed frontier, in versions.
    pub lag: Arc<iw_telemetry::Gauge>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("client_id", &self.client_id)
            .field("arch", &self.heap.arch().name)
            .field("segments", &self.segs.len())
            .finish()
    }
}

impl Session {
    /// Creates a session for a client on `arch`, speaking through
    /// `transport`. Performs the Hello handshake.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors from the handshake.
    pub fn new(arch: MachineArch, transport: Box<dyn Transport>) -> Result<Self, CoreError> {
        Session::with_options(arch, transport, SessionOptions::default())
    }

    /// As [`Session::new`] with explicit options.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors from the handshake.
    pub fn with_options(
        arch: MachineArch,
        mut transport: Box<dyn Transport>,
        opts: SessionOptions,
    ) -> Result<Self, CoreError> {
        let metrics = SessionMetrics::new(Arc::new(Registry::new()));
        transport.bind_registry(metrics.registry());
        let info = format!("interweave-rs client on {arch}");
        let client_id = match transport.request(&Request::Hello { info })? {
            Reply::Welcome { client, .. } => client,
            other => return Err(unexpected(other)),
        };
        let heap = match opts.page_size {
            Some(ps) => Heap::with_page_size(arch, ps),
            None => Heap::new(arch),
        };
        let xlate = Translator::new(metrics.registry(), &opts);
        Ok(Session {
            heap,
            transport,
            client_id,
            segs: HashMap::new(),
            unresolved: HashMap::new(),
            opts,
            metrics,
            xlate,
            tx: None,
            extra_links: HashMap::new(),
        })
    }

    /// The architecture this client lays data out for.
    pub fn arch(&self) -> &MachineArch {
        self.heap.arch()
    }

    /// The session's heap (read access for tests and tools).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Optimization counters (a view over the session's metric registry).
    pub fn stats(&self) -> SessionStats {
        let m = &self.xlate.metrics;
        SessionStats {
            apply_block_lookups: m.apply_block_lookups.get(),
            apply_pred_hits: m.apply_pred_hits.get(),
            diffs_collected: m.diffs_collected.get(),
            diffs_applied: m.diffs_applied.get(),
            prims_sent: m.prims_sent.get(),
            prims_received: m.prims_received.get(),
        }
    }

    /// The session's metric registry (transport counters are bound into it
    /// as well, so one scrape sees the whole client).
    pub fn registry(&self) -> &Arc<Registry> {
        self.metrics.registry()
    }

    /// Point-in-time copy of every client metric, with instantaneous
    /// gauges (twin faults) refreshed first.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.twin_faults.set(self.heap.fault_count() as i64);
        self.metrics.registry().snapshot()
    }

    /// Cumulative simulated write faults (page-twin creations) — the
    /// overhead no-diff mode eliminates.
    pub fn twin_faults(&self) -> u64 {
        self.heap.fault_count()
    }

    /// Transport traffic counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Resets transport traffic counters.
    pub fn reset_transport_stats(&mut self) {
        self.transport.reset_stats();
        for l in self.extra_links.values_mut() {
            l.transport.reset_stats();
        }
    }

    /// Registers a connection to the server responsible for segments
    /// whose URL host is `host` (e.g. `"data.example.org"` for segments
    /// named `data.example.org/…`). Performs the Hello handshake.
    /// Segments with unregistered hosts use the session's default
    /// transport.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors from the handshake.
    pub fn add_server(
        &mut self,
        host: &str,
        mut transport: Box<dyn Transport>,
    ) -> Result<(), CoreError> {
        let info = format!("interweave-rs client on {}", self.heap.arch());
        let client_id = match transport.request(&Request::Hello { info })? {
            Reply::Welcome { client, .. } => client,
            other => return Err(unexpected(other)),
        };
        self.extra_links.insert(
            host.to_string(),
            ServerLink {
                transport,
                client_id,
                connectors: Vec::new(),
                active: 0,
                read_replicas: Vec::new(),
                advertised: Vec::new(),
                rr_seed: 0x9E37_79B9u64 ^ client_id,
            },
        );
        Ok(())
    }

    /// Registers a replica *group* (primary first, then ordered backups)
    /// for segments whose URL host is `host`. The session connects to
    /// the first reachable replica; when a request later fails with a
    /// transport error, it transparently reconnects to the next replica,
    /// re-issues `Hello`/`Open`, reconciles cached versions, and retries
    /// — except for in-flight write releases and commits, which surface
    /// as [`CoreError::LockLost`] (the lock died with the old primary).
    ///
    /// # Errors
    ///
    /// [`CoreError::Server`] when no replica is reachable.
    pub fn add_server_group(
        &mut self,
        host: &str,
        mut connectors: Vec<Connector>,
    ) -> Result<(), CoreError> {
        let info = format!("interweave-rs client on {}", self.heap.arch());
        for idx in 0..connectors.len() {
            let Ok(mut transport) = connectors[idx]() else {
                continue;
            };
            transport.bind_registry(self.metrics.registry());
            let Ok(Reply::Welcome { client, replicas }) =
                transport.request(&Request::Hello { info: info.clone() })
            else {
                continue;
            };
            self.extra_links.insert(
                host.to_string(),
                ServerLink {
                    transport,
                    client_id: client,
                    connectors,
                    active: idx,
                    read_replicas: Vec::new(),
                    advertised: replicas,
                    rr_seed: 0x9E37_79B9u64 ^ client,
                },
            );
            return Ok(());
        }
        Err(CoreError::Server(format!(
            "no replica for `{host}` is reachable"
        )))
    }

    /// As [`Session::add_server_group`] for TCP replicas given by socket
    /// address. Backup addresses the primary advertises in its `Welcome`
    /// reply are automatically registered as read replicas (see
    /// [`Session::add_read_replicas`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::Server`] when no replica is reachable.
    pub fn add_tcp_server_group(
        &mut self,
        host: &str,
        addrs: &[std::net::SocketAddr],
    ) -> Result<(), CoreError> {
        let connectors = addrs
            .iter()
            .map(|&addr| -> Connector { tcp_connector(addr) })
            .collect();
        self.add_server_group(host, connectors)?;
        let advertised = self
            .extra_links
            .get(host)
            .map(|l| l.advertised.clone())
            .unwrap_or_default();
        self.sync_advertised_replicas(host, &advertised);
        Ok(())
    }

    /// Registers read replicas for `host`'s server group: relaxed-
    /// coherence read acquisitions (`rl_acquire` under `Delta`,
    /// `Temporal` or `Diff` coherence with a non-zero bound) may be
    /// served from any of them whose version satisfies the coherence
    /// predicate, falling back to the primary otherwise. The write path
    /// is unaffected. Replicas are dialed lazily on first use.
    ///
    /// # Errors
    ///
    /// [`CoreError::Server`] when `host` has no registered server group.
    pub fn add_read_replicas(
        &mut self,
        host: &str,
        connectors: Vec<Connector>,
    ) -> Result<(), CoreError> {
        let registry = self.metrics.registry().clone();
        let link = self
            .extra_links
            .get_mut(host)
            .ok_or_else(|| CoreError::Server(format!("no server group for `{host}`")))?;
        for connector in connectors {
            let label = format!("{host}.r{}", link.read_replicas.len());
            link.read_replicas
                .push(new_replica(label, connector, false, &registry));
        }
        Ok(())
    }

    /// As [`Session::add_read_replicas`] for TCP replicas given by
    /// socket address.
    ///
    /// # Errors
    ///
    /// [`CoreError::Server`] when `host` has no registered server group.
    pub fn add_tcp_read_replicas(
        &mut self,
        host: &str,
        addrs: &[std::net::SocketAddr],
    ) -> Result<(), CoreError> {
        let registry = self.metrics.registry().clone();
        let link = self
            .extra_links
            .get_mut(host)
            .ok_or_else(|| CoreError::Server(format!("no server group for `{host}`")))?;
        for &addr in addrs {
            if link
                .read_replicas
                .iter()
                .any(|r| r.label == addr.to_string())
            {
                continue;
            }
            link.read_replicas.push(new_replica(
                addr.to_string(),
                tcp_connector(addr),
                false,
                &registry,
            ));
        }
        Ok(())
    }

    /// Labels of the read replicas currently registered for `host`'s
    /// server group, in rotation order (tests and fan-out harnesses).
    pub fn read_replica_labels(&self, host: &str) -> Vec<String> {
        self.extra_links.get(host).map_or_else(Vec::new, |l| {
            l.read_replicas.iter().map(|r| r.label.clone()).collect()
        })
    }

    /// Reconciles the auto-discovered read-replica pool with the
    /// primary's currently advertised backup set: newly advertised
    /// addresses are added, and auto-discovered replicas the primary no
    /// longer advertises (pruned dead backups) are evicted. Explicitly
    /// registered replicas are never evicted.
    fn sync_advertised_replicas(&mut self, host: &str, advertised: &[String]) {
        let registry = self.metrics.registry().clone();
        let Some(link) = self.extra_links.get_mut(host) else {
            return;
        };
        link.advertised = advertised.to_vec();
        link.read_replicas
            .retain(|r| !r.from_advert || advertised.iter().any(|a| a == &r.label));
        for addr in advertised {
            if link.read_replicas.iter().any(|r| &r.label == addr) {
                continue;
            }
            let Ok(sockaddr) = addr.parse::<std::net::SocketAddr>() else {
                continue;
            };
            link.read_replicas.push(new_replica(
                addr.clone(),
                tcp_connector(sockaddr),
                true,
                &registry,
            ));
        }
    }

    /// Probes the primary for `host`'s version frontier: a cheap round
    /// trip that refreshes each open segment's confirmed-version anchor
    /// (`best_known`) without transferring any data, and reconciles the
    /// auto-discovered read-replica pool with the primary's advertised
    /// backup set. Called automatically when a Temporal replica read's
    /// anchor has aged out; public so fan-out harnesses can pre-warm.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors from the probe.
    pub fn refresh_frontier(&mut self, host: &str) -> Result<(), CoreError> {
        self.metrics.frontier_probes.inc();
        let reply = self.request_for(host, |client| Request::Frontier { client })?;
        let Reply::Frontier { segments, replicas } = reply else {
            return Err(unexpected(reply));
        };
        let now = Instant::now();
        for (name, version) in segments {
            if Session::host_of(&name) != host {
                continue;
            }
            if let Some(st) = self.segs.get_mut(&name) {
                st.best_known = st.best_known.max(version);
                st.primary_confirm = Some(now);
            }
        }
        if !replicas.is_empty()
            || self
                .extra_links
                .get(host)
                .is_some_and(|l| !l.advertised.is_empty())
        {
            self.sync_advertised_replicas(host, &replicas);
        }
        Ok(())
    }

    /// Records a version confirmed at `segment`'s primary just now:
    /// advances the replica-read floor anchor and re-arms the Temporal
    /// staleness clock.
    fn note_primary_version(&mut self, segment: &str, version: u64) {
        if let Some(st) = self.segs.get_mut(segment) {
            st.best_known = st.best_known.max(version);
            st.primary_confirm = Some(Instant::now());
        }
    }

    /// The host component of a segment name (everything before the first
    /// slash).
    fn host_of(segment: &str) -> &str {
        segment.split('/').next().unwrap_or("")
    }

    /// Performs one request against the server responsible for `segment`,
    /// substituting that server's client id. `make` receives the id (it
    /// may be called more than once: after a failover the request is
    /// rebuilt with the new server's client id).
    ///
    /// A transport (channel) error against a replica *group* triggers
    /// transparent failover and a single retry — except for requests
    /// that carry a committed diff (`Release`/`Commit`), whose write
    /// locks died with the old server: those surface as
    /// [`CoreError::LockLost`] after the local state has been rolled
    /// back.
    pub(crate) fn request_for(
        &mut self,
        segment: &str,
        make: impl Fn(u64) -> Request,
    ) -> Result<Reply, CoreError> {
        let host = Session::host_of(segment).to_string();
        let Some(link) = self.extra_links.get_mut(&host) else {
            return Ok(self.transport.request(&make(self.client_id))?);
        };
        let req = make(link.client_id);
        match link.transport.request(&req) {
            Ok(reply) => Ok(reply),
            Err(iw_proto::ProtoError::Channel(_)) if link.connectors.len() > 1 => {
                // The lock a Release/Commit relies on died with the old
                // server; retrying against the new one cannot succeed
                // and must not silently drop the diff semantics.
                let lock_bound = matches!(
                    req,
                    Request::Release { diff: Some(_), .. } | Request::Commit { .. }
                );
                self.fail_over(&host)?;
                if lock_bound {
                    if let Ok(st) = self.state_mut(segment) {
                        st.lock_lost = false;
                    }
                    return Err(CoreError::LockLost {
                        segment: segment.to_string(),
                    });
                }
                // The closure captured pre-failover state; version
                // reconciliation may have invalidated the cache, so the
                // rebuilt request must carry the *current* version or
                // the new server would skip the refetch.
                let reconciled = self.state(segment).map(|st| st.version).ok();
                let link = self
                    .extra_links
                    .get_mut(&host)
                    .expect("link survives failover");
                let mut retry = make(link.client_id);
                if let Some(version) = reconciled {
                    match &mut retry {
                        Request::Acquire { have_version, .. }
                        | Request::Poll { have_version, .. } => *have_version = version,
                        _ => {}
                    }
                }
                Ok(link.transport.request(&retry)?)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Reconnects the `host` replica group to the next healthy replica:
    /// cycles through the group (with capped exponential backoff between
    /// rounds), re-issues `Hello` (marked as a failover) and `Open` for
    /// every cached segment of that host, and reconciles cached
    /// versions. Held write locks are lost: their local modifications
    /// are rolled back from the twins and the segment is flagged so the
    /// next `wl_release` reports [`CoreError::LockLost`].
    ///
    /// Version reconciliation: replicated version chains are
    /// bit-identical prefixes of the primary's, so a cached version at
    /// or below the replica's is still valid and reads resume
    /// incrementally. A cached version *above* the replica's names
    /// updates the replica never received (the asynchronous-replication
    /// window); the cache cannot be reconciled against the replica's
    /// future chain, so it is invalidated (version 0, full refetch on
    /// next acquisition).
    fn fail_over(&mut self, host: &str) -> Result<(), CoreError> {
        let mut link = self
            .extra_links
            .remove(host)
            .ok_or_else(|| CoreError::Server(format!("no server group for `{host}`")))?;
        let info = format!("interweave-rs client on {} (failover)", self.heap.arch());
        let old_client_id = link.client_id;
        let mut jitter_state = 0x9E37_79B9u64 ^ ((link.active as u64) << 32) ^ host.len() as u64;
        let mut backoff_us = self.opts.failover_backoff_ms.saturating_mul(1000).max(1);
        let mut found: Option<(Box<dyn Transport>, u64, usize)> = None;
        'rounds: for round in 0..self.opts.failover_rounds.max(1) {
            if round > 0 {
                let jitter = splitmix64(&mut jitter_state) % (backoff_us / 2 + 1);
                std::thread::sleep(std::time::Duration::from_micros(backoff_us + jitter));
                backoff_us = backoff_us.saturating_mul(2);
            }
            for step in 1..=link.connectors.len() {
                let idx = (link.active + step) % link.connectors.len();
                let Ok(mut t) = (link.connectors[idx])() else {
                    continue;
                };
                t.bind_registry(self.metrics.registry());
                if let Ok(Reply::Welcome { client, .. }) =
                    t.request(&Request::Hello { info: info.clone() })
                {
                    // Retire the old client id before trusting this
                    // replica. The "dead" server may only have been
                    // unreachable for a moment (a transient transport
                    // fault): if this connection landed on the same
                    // still-alive server, locks held under the old id
                    // would stay orphaned forever. A genuinely new
                    // replica never saw the id and replies trivially, so
                    // requiring the round trip costs nothing there but
                    // makes the retirement reliable — a replica that
                    // cannot deliver it is treated as unreachable.
                    if t.request(&Request::Goodbye {
                        client: old_client_id,
                    })
                    .is_ok()
                    {
                        found = Some((t, client, idx));
                        break 'rounds;
                    }
                }
            }
        }
        let Some((transport, client_id, active)) = found else {
            self.extra_links.insert(host.to_string(), link);
            return Err(CoreError::Server(format!(
                "failover: no replica for `{host}` is reachable"
            )));
        };
        link.transport = transport;
        link.client_id = client_id;
        link.active = active;
        // The read-replica pool was built against the old primary's
        // world: drop connections, dead flags and version knowledge so
        // the pool re-proves itself against the new primary's chain
        // (lazy reconnect; the next Frontier probe re-syncs the
        // advertised set).
        for rep in &mut link.read_replicas {
            rep.transport = None;
            rep.client_id = 0;
            rep.known.clear();
            rep.dead = false;
        }
        self.extra_links.insert(host.to_string(), link);
        self.metrics.failovers.inc();
        self.metrics.reconnects.inc();

        // Re-open this host's segments on the new server and reconcile.
        let names: Vec<String> = self
            .segs
            .keys()
            .filter(|n| Session::host_of(n) == host)
            .cloned()
            .collect();
        let mut write_locked: Vec<String> = Vec::new();
        let mut stale: Vec<String> = Vec::new();
        for name in &names {
            let reply = {
                let link = self.extra_links.get_mut(host).expect("just inserted");
                link.transport.request(&Request::Open {
                    client: link.client_id,
                    segment: name.clone(),
                })?
            };
            let Reply::Opened {
                version: replica_version,
            } = reply
            else {
                return Err(unexpected(reply));
            };
            let st = self.state_mut(name)?;
            // The anchor is *reset*, not maxed: versions past the new
            // primary's chain died with the old one, and a stale floor
            // would refuse every replica forever.
            st.best_known = replica_version;
            st.primary_confirm = Some(Instant::now());
            if st.version > replica_version {
                st.version = 0;
                stale.push(name.clone());
            }
            match st.lock {
                Some(LockMode::Write) => write_locked.push(name.clone()),
                Some(LockMode::Read) => {
                    // Server-side read locks died with the server; the
                    // local read continues (coherence permits staleness)
                    // and rl_release against the new server is a no-op.
                    st.server_locked = false;
                }
                None => {}
            }
        }
        // Write locks are gone: undo the uncommitted modifications (from
        // the twins; exact in Diff mode, see DESIGN.md for the NoDiff
        // caveat) and flag the loss for wl_release.
        self.rollback_segments(&write_locked)?;
        for name in &write_locked {
            let st = self.state_mut(name)?;
            st.lock = None;
            st.server_locked = false;
            st.lock_lost = true;
        }
        if let Some(tx) = &mut self.tx {
            tx.segments.retain(|s| !write_locked.contains(s));
        }
        // A version-0 cache must also be *empty*: the refetch arrives as
        // a from-scratch diff whose new_blocks cannot collide with
        // leftover local blocks.
        for name in &stale {
            let id = self.state(name)?.id;
            self.heap.clear_tracking(id);
            let spans: Vec<(u32, u64, u64)> = self
                .heap
                .segment(id)
                .blocks()
                .map(|b| (b.serial, b.va, b.end()))
                .collect();
            for (serial, bva, bend) in spans {
                self.heap.free_block(id, serial)?;
                self.unresolved.retain(|&va, _| !(bva..bend).contains(&va));
            }
            let st = self.state_mut(name)?;
            st.new_blocks.clear();
            st.freed.clear();
            st.pending_free.clear();
            st.block_nodiff.clear();
            st.block_streak.clear();
        }
        Ok(())
    }

    // ==================================================================
    // Segments and locks
    // ==================================================================

    /// Opens (or creates) a segment: the paper's `IW_open_segment`.
    ///
    /// # Errors
    ///
    /// Protocol errors; opening an already-open segment returns the same
    /// handle.
    pub fn open_segment(&mut self, name: &str) -> Result<SegHandle, CoreError> {
        if !self.segs.contains_key(name) {
            let version = match self.request_for(name, |client| Request::Open {
                client,
                segment: name.to_string(),
            })? {
                Reply::Opened { version } => version,
                other => return Err(unexpected(other)),
            };
            let id = self.heap.create_segment(name)?;
            self.segs.insert(name.to_string(), SegState::new(id));
            self.note_primary_version(name, version);
        }
        Ok(SegHandle { name: name.into() })
    }

    /// Sets the coherence model used by subsequent read-lock acquisitions
    /// on this segment (dynamic, per the paper).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOpen`] when the segment is not open.
    pub fn set_coherence(&mut self, h: &SegHandle, coherence: Coherence) -> Result<(), CoreError> {
        self.state_mut(h.name())?.coherence = coherence;
        Ok(())
    }

    /// Whether this segment's cached copy carries the isomorphic-layout
    /// stamp: every block allocated so far (locally or from an applied
    /// diff) has a layout byte-identical to its wire encoding, so the
    /// whole segment translates by memcpy. An empty segment is vacuously
    /// stamped. The stamp is sticky — freeing the one offending block
    /// does not restore it; the per-block identity check in the
    /// translation paths stays authoritative, so a mixed segment still
    /// fast-paths its isomorphic blocks.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOpen`] when the segment is not open.
    pub fn segment_iso(&self, h: &SegHandle) -> Result<bool, CoreError> {
        Ok(self.state(h.name())?.iso)
    }

    pub(crate) fn state(&self, name: &str) -> Result<&SegState, CoreError> {
        self.segs
            .get(name)
            .ok_or_else(|| CoreError::NotOpen(name.to_string()))
    }

    pub(crate) fn state_mut(&mut self, name: &str) -> Result<&mut SegState, CoreError> {
        self.segs
            .get_mut(name)
            .ok_or_else(|| CoreError::NotOpen(name.to_string()))
    }

    fn acquire_with_retry(
        &mut self,
        name: &str,
        mode: LockMode,
        have_version: u64,
        coherence: Coherence,
    ) -> Result<Reply, CoreError> {
        self.metrics.lock_acquires.inc();
        let started = Instant::now();
        // Capped exponential backoff with deterministic jitter: the
        // doubling bounds total wait under long contention, the jitter
        // de-synchronizes clients that went Busy on the same release,
        // and determinism (seeded from the client id and segment, no
        // clock or OS entropy) keeps test runs reproducible.
        let mut backoff_us = self.opts.lock_backoff_us.max(1);
        let cap_us = self.opts.lock_backoff_cap_us.max(backoff_us);
        let mut jitter_state = self.client_id ^ ((name.len() as u64) << 32) ^ have_version;
        for _ in 0..=self.opts.lock_retries {
            let reply = self.request_for(name, |client| Request::Acquire {
                client,
                segment: name.to_string(),
                mode,
                have_version,
                coherence,
            })?;
            match reply {
                Reply::Busy => {
                    self.metrics.lock_busy_retries.inc();
                    let jitter = splitmix64(&mut jitter_state) % (backoff_us / 2 + 1);
                    std::thread::sleep(std::time::Duration::from_micros(backoff_us + jitter));
                    backoff_us = backoff_us.saturating_mul(2).min(cap_us);
                }
                Reply::Error { message } => return Err(CoreError::Server(message)),
                other => {
                    self.metrics.lock_wait_us.record_duration(started.elapsed());
                    return Ok(other);
                }
            }
        }
        self.metrics.lock_retries_exhausted.inc();
        Err(CoreError::LockTimeout(name.to_string()))
    }

    /// Acquires the write lock: the paper's `IW_wl_acquire`. Brings the
    /// cached copy fully up to date and write-protects its pages for
    /// modification tracking (unless in no-diff mode).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOpen`], [`CoreError::LockTimeout`], protocol
    /// errors.
    pub fn wl_acquire(&mut self, h: &SegHandle) -> Result<(), CoreError> {
        let name = h.name().to_string();
        if self.state(&name)?.lock.is_some() {
            return Err(CoreError::BadPath(format!(
                "`{name}` is already locked by this session (locks do not nest)"
            )));
        }
        let have = self.state(&name)?.version;
        let reply = self.acquire_with_retry(&name, LockMode::Write, have, Coherence::Full)?;
        let Reply::Granted {
            version,
            update,
            next_serial,
            next_type_serial,
        } = reply
        else {
            return Err(unexpected(reply));
        };
        if let Some(diff) = update {
            self.metrics.update_bytes.record(diff.payload_len() as u64);
            self.apply_segment_diff(h, &diff)?;
        }
        self.note_primary_version(&name, version);
        let in_tx = self.tx.is_some();
        let protect = {
            let st = self.state_mut(&name)?;
            st.version = version;
            st.lock = Some(LockMode::Write);
            // A fresh grant supersedes a write lock lost in an earlier
            // failover: the rollback already happened then, and a stale
            // flag would fail this tenure's release spuriously.
            st.lock_lost = false;
            st.server_locked = true;
            st.next_serial = st.next_serial.max(next_serial);
            st.types_synced = next_type_serial;
            st.last_update = Instant::now();
            st.new_blocks.clear();
            st.freed.clear();
            st.pending_free.clear();
            // Transactions need twins for rollback, so no-diff mode is
            // suspended while one is open.
            in_tx || matches!(st.mode, TrackMode::Diff)
        };
        let id = self.state(&name)?.id;
        if protect {
            self.heap.protect_segment(id);
        }
        if in_tx {
            if let Some(tx) = &mut self.tx {
                if !tx.segments.contains(&name) {
                    tx.segments.push(name.clone());
                }
            }
        }
        Ok(())
    }

    /// Releases the write lock: the paper's `IW_wl_release`. Collects the
    /// diff of everything modified under the lock, translates it to wire
    /// format, and ships it to the server.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`] without the write lock; translation and
    /// protocol errors.
    pub fn wl_release(&mut self, h: &SegHandle) -> Result<(), CoreError> {
        let name = h.name().to_string();
        if self.tx.is_some() {
            return Err(CoreError::BadPath(format!(
                "`{name}` is part of an open transaction; use tx_commit/tx_abort"
            )));
        }
        if self.state(&name)?.lock_lost {
            self.state_mut(&name)?.lock_lost = false;
            return Err(CoreError::LockLost { segment: name });
        }
        if self.state(&name)?.lock != Some(LockMode::Write) {
            return Err(CoreError::NotLocked {
                segment: name,
                write: true,
            });
        }
        let (diff, changed, per_block) = self.collect_segment_diff(h)?;
        let is_empty = diff.new_types.is_empty()
            && diff.new_blocks.is_empty()
            && diff.block_diffs.is_empty()
            && diff.freed.is_empty();
        let payload = if is_empty { None } else { Some(diff) };
        let reply = self.request_for(&name, |client| Request::Release {
            client,
            segment: name.clone(),
            diff: payload.clone(),
        })?;
        let Reply::Released { version } = reply else {
            // A failover mid-release: an *empty* release is retried
            // against the new server (unlike diff-carrying ones, which
            // surface as LockLost from request_for directly), and that
            // server never saw our lock. The loss is already flagged —
            // report it as the loss it is, not as an opaque refusal.
            if self.state(&name)?.lock_lost {
                let st = self.state_mut(&name)?;
                st.lock_lost = false;
                return Err(CoreError::LockLost { segment: name });
            }
            return Err(unexpected(reply));
        };
        let id = self.state(&name)?.id;
        self.heap.clear_tracking(id);
        let total: u64 = self
            .heap
            .segment(id)
            .blocks()
            .map(BlockMeta::prim_count)
            .sum();
        let adapt = self.opts.no_diff_adaptation;
        self.note_primary_version(&name, version);
        let st = self.state_mut(&name)?;
        st.version = version;
        st.lock = None;
        st.server_locked = false;
        st.new_blocks.clear();
        st.freed.clear();
        st.last_update = Instant::now();
        if adapt {
            let was_no_diff = matches!(st.mode, TrackMode::NoDiff { .. });
            st.adapt_after_release(changed, total, &per_block);
            if matches!(st.mode, TrackMode::NoDiff { .. }) != was_no_diff {
                self.metrics.no_diff_transitions.inc();
            }
        }
        Ok(())
    }

    /// Acquires a read lock: the paper's `IW_rl_acquire`. Checks whether
    /// the cached copy is "recent enough" under the segment's coherence
    /// model and fetches an update when it is not. Temporal coherence
    /// satisfied by the local real-time stamp never contacts the server;
    /// Delta/Diff coherence poll without taking a server-side lock; Full
    /// coherence takes a genuine shared lock at the server.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOpen`], [`CoreError::LockTimeout`], protocol
    /// errors.
    pub fn rl_acquire(&mut self, h: &SegHandle) -> Result<(), CoreError> {
        let name = h.name().to_string();
        if self.state(&name)?.lock.is_some() {
            return Err(CoreError::BadPath(format!(
                "`{name}` is already locked by this session (locks do not nest)"
            )));
        }
        let (coherence, have, fresh_enough) = {
            let st = self.state(&name)?;
            let fresh = matches!(st.coherence, Coherence::Temporal(ms)
                if st.version > 0
                    && st.last_update.elapsed().as_millis() <= u128::from(ms));
            (st.coherence, st.version, fresh)
        };
        if fresh_enough {
            let st = self.state_mut(&name)?;
            st.lock = Some(LockMode::Read);
            st.server_locked = false;
            return Ok(());
        }
        match coherence {
            Coherence::Full => {
                let reply = self.acquire_with_retry(&name, LockMode::Read, have, coherence)?;
                let Reply::Granted {
                    version, update, ..
                } = reply
                else {
                    return Err(unexpected(reply));
                };
                if let Some(diff) = update {
                    self.metrics.update_bytes.record(diff.payload_len() as u64);
                    self.apply_segment_diff(h, &diff)?;
                }
                self.note_primary_version(&name, version);
                let st = self.state_mut(&name)?;
                st.version = version;
                st.lock = Some(LockMode::Read);
                st.server_locked = true;
                st.last_update = Instant::now();
            }
            _ => {
                // Relaxed models: poll for an update; no server-side
                // lock. The poll is served by a read replica when one
                // satisfies the coherence predicate, else the primary.
                if !self.try_replica_read(h, coherence, have)? {
                    let reply = self.request_for(&name, |client| Request::Poll {
                        client,
                        segment: name.clone(),
                        have_version: have,
                        coherence,
                        floor: 0,
                    })?;
                    match reply {
                        Reply::UpToDate => {
                            // Under Temporal the primary answers
                            // `UpToDate` only at version parity, so the
                            // cache version *is* the current one and
                            // re-arms the anchor. Delta/Diff tolerate a
                            // distance, so parity is not implied — the
                            // cache version is only a frontier bound.
                            if matches!(coherence, Coherence::Temporal(_)) {
                                self.note_primary_version(&name, have);
                            } else if let Ok(st) = self.state_mut(&name) {
                                st.best_known = st.best_known.max(have);
                            }
                        }
                        Reply::Update { diff } => {
                            self.metrics.update_bytes.record(diff.payload_len() as u64);
                            self.apply_segment_diff(h, &diff)?;
                            let version = self.state(&name)?.version;
                            self.note_primary_version(&name, version);
                            let st = self.state_mut(&name)?;
                            st.last_update = Instant::now();
                        }
                        Reply::Error { message } => return Err(CoreError::Server(message)),
                        other => return Err(unexpected(other)),
                    }
                }
                let st = self.state_mut(&name)?;
                st.lock = Some(LockMode::Read);
                st.server_locked = false;
            }
        }
        Ok(())
    }

    /// Attempts to serve a relaxed read from the segment's read-replica
    /// pool. Returns `Ok(true)` when a replica answered within the
    /// coherence predicate — the cache is then current enough and the
    /// Temporal clock is anchored to the primary confirmation the
    /// predicate was evaluated against — and `Ok(false)` when the read
    /// must go to the primary (no pool, zero-bound model, no eligible
    /// replica, or every candidate refused/failed).
    ///
    /// Safety does not rest on the client-side eligibility guesses: the
    /// request carries a version `floor`, and the server refuses
    /// (`NotFresh`) under the same lock that guards its version, so a
    /// replica can never silently serve data below the floor.
    fn try_replica_read(
        &mut self,
        h: &SegHandle,
        coherence: Coherence,
        have: u64,
    ) -> Result<bool, CoreError> {
        let name = h.name().to_string();
        let host = Session::host_of(&name).to_string();
        if self
            .extra_links
            .get(&host)
            .is_none_or(|l| l.read_replicas.is_empty())
        {
            return Ok(false);
        }
        let anchor = |st: &SegState| {
            let age = st.primary_confirm.map_or(u64::MAX, |t| {
                u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
            });
            (st.best_known, age)
        };
        let (mut best_known, mut age_ms) = anchor(self.state(&name)?);
        if coherence.replica_floor(best_known).is_none() {
            // Full or zero-bound: always the primary's to answer.
            return Ok(false);
        }
        // `replica_eligible` with a maximally fresh replica isolates the
        // anchor-age condition: when the Temporal anchor has aged out, a
        // cheap Frontier probe re-arms it so the (potentially heavy)
        // diff fetch can still be offloaded to a replica.
        if !coherence.replica_eligible(u64::MAX, best_known, age_ms)
            && self.refresh_frontier(&host).is_ok()
        {
            (best_known, age_ms) = anchor(self.state(&name)?);
        }
        let floor = match coherence.replica_floor(best_known) {
            Some(f) if coherence.replica_eligible(u64::MAX, best_known, age_ms) => f,
            _ => {
                self.metrics.replica_fallbacks.inc();
                return Ok(false);
            }
        };
        // Never ask a replica for a version below the cache: the floor
        // also forces the *served* version to be >= it (see the server's
        // poll), so a reply can neither regress the cache nor leave it
        // below the coherence floor.
        let wire_floor = floor.max(have);
        let registry = self.metrics.registry().clone();
        let not_fresh = Arc::clone(&self.metrics.replica_not_fresh);
        let info = format!(
            "interweave-rs client on {} (replica-read)",
            self.heap.arch()
        );
        let served = {
            // Re-fetched: the frontier refresh may have failed over or
            // evicted replicas the primary no longer advertises.
            let Some(link) = self.extra_links.get_mut(&host) else {
                self.metrics.replica_fallbacks.inc();
                return Ok(false);
            };
            let n = link.read_replicas.len();
            if n == 0 {
                self.metrics.replica_fallbacks.inc();
                return Ok(false);
            }
            let start = (splitmix64(&mut link.rr_seed) as usize) % n;
            let mut served = None;
            for step in 0..n {
                let idx = (start + step) % n;
                let rep = &mut link.read_replicas[idx];
                if rep.dead {
                    continue;
                }
                if let Some(&(kv, seen_at)) = rep.known.get(&name) {
                    // Known-stale replicas are skipped without a round
                    // trip — but only while the evidence is current
                    // (the frontier hasn't advanced since it was
                    // recorded). Unknown or outdated entries are probed
                    // optimistically.
                    if seen_at >= best_known
                        && !coherence.replica_eligible(kv.max(have), best_known, age_ms)
                    {
                        continue;
                    }
                }
                if rep.transport.is_none() {
                    let Ok(mut t) = (rep.connector)() else {
                        rep.dead = true;
                        continue;
                    };
                    t.bind_registry(&registry);
                    match t.request(&Request::Hello { info: info.clone() }) {
                        Ok(Reply::Welcome { client, .. }) => {
                            rep.client_id = client;
                            rep.transport = Some(t);
                        }
                        _ => {
                            rep.dead = true;
                            continue;
                        }
                    }
                }
                let req = Request::Poll {
                    client: rep.client_id,
                    segment: name.clone(),
                    have_version: have,
                    coherence,
                    floor: wire_floor,
                };
                let reply = match rep.transport.as_mut().expect("connected").request(&req) {
                    Ok(r) => r,
                    Err(_) => {
                        rep.dead = true;
                        rep.transport = None;
                        continue;
                    }
                };
                match reply {
                    Reply::NotFresh { version } => {
                        rep.known.insert(name.clone(), (version, best_known));
                        rep.lag.set(best_known.saturating_sub(version) as i64);
                        not_fresh.inc();
                    }
                    r @ (Reply::UpToDate | Reply::Update { .. }) => {
                        served = Some((idx, r));
                        break;
                    }
                    // NotPrimary, Error, …: this node cannot serve the
                    // read; leave it alone and try the next one.
                    _ => {}
                }
            }
            served
        };
        let Some((idx, reply)) = served else {
            self.metrics.replica_fallbacks.inc();
            return Ok(false);
        };
        // Anchor captured *before* the poll: every version the replica
        // could be missing relative to it was committed after it, so the
        // served data is at most `age_ms` (+ this read's latency) old.
        let confirm = self.state(&name)?.primary_confirm;
        if let Reply::Update { diff } = reply {
            self.metrics.update_bytes.record(diff.payload_len() as u64);
            self.apply_segment_diff(h, &diff)?;
        }
        let version = {
            let st = self.state_mut(&name)?;
            if let Some(t) = confirm {
                st.last_update = t;
            }
            // A replica's chain is a prefix of the primary's, so a
            // version learned from one is a confirmed *version* bound
            // (but not a fresh Temporal time anchor).
            st.best_known = st.best_known.max(st.version);
            st.version
        };
        if version < floor {
            // The server-side floor check makes this unreachable; count
            // it rather than trust it silently.
            self.metrics.replica_violations.inc();
        }
        self.metrics.replica_reads.inc();
        if let Some(link) = self.extra_links.get_mut(&host) {
            let rep = &mut link.read_replicas[idx];
            let known = rep.known.entry(name).or_insert((0, 0));
            known.0 = known.0.max(version);
            known.1 = known.1.max(best_known);
            rep.lag.set(best_known.saturating_sub(version) as i64);
        }
        Ok(true)
    }

    /// Releases a read lock: the paper's `IW_rl_release`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`] when no read lock is held.
    pub fn rl_release(&mut self, h: &SegHandle) -> Result<(), CoreError> {
        let name = h.name().to_string();
        let st = self.state(&name)?;
        if st.lock != Some(LockMode::Read) {
            return Err(CoreError::NotLocked {
                segment: name,
                write: false,
            });
        }
        if st.server_locked {
            let reply = self.request_for(&name, |client| Request::Release {
                client,
                segment: name.clone(),
                diff: None,
            })?;
            if !matches!(reply, Reply::Released { .. }) {
                return Err(unexpected(reply));
            }
        }
        let st = self.state_mut(&name)?;
        st.lock = None;
        st.server_locked = false;
        Ok(())
    }

    pub(crate) fn require_lock(&self, seg: SegId, write: bool) -> Result<(), CoreError> {
        let name = &self.heap.segment(seg).name;
        let st = self.state(name)?;
        let ok = matches!(
            (st.lock, write),
            (Some(LockMode::Write), _) | (Some(LockMode::Read), false)
        );
        if ok {
            Ok(())
        } else {
            Err(CoreError::NotLocked {
                segment: name.clone(),
                write,
            })
        }
    }

    /// Closes a segment: releases any held lock and discards the local
    /// cached copy (the inverse of [`Session::open_segment`]). Pointers
    /// into the segment become dangling; pointer *fields* elsewhere that
    /// referenced it revert to unresolved MIPs and re-fetch on next use.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOpen`]; [`CoreError::BadPath`] while the segment
    /// is part of an open transaction.
    pub fn close_segment(&mut self, h: &SegHandle) -> Result<(), CoreError> {
        let name = h.name().to_string();
        if let Some(tx) = &self.tx {
            if tx.segments.contains(&name) {
                return Err(CoreError::BadPath(format!(
                    "`{name}` is part of an open transaction"
                )));
            }
        }
        let st = self.state(&name)?;
        let id = st.id;
        let locked = st.lock;
        let server_locked = st.server_locked;
        match locked {
            Some(LockMode::Write) => self.wl_release(h)?,
            Some(LockMode::Read) if server_locked => self.rl_release(h)?,
            _ => {}
        }
        // Re-point local pointers into this segment back to MIPs so other
        // segments' caches stay usable.
        let spans: Vec<(u64, u64)> = self
            .heap
            .segment(id)
            .blocks()
            .map(|b| (b.va, b.end()))
            .collect();
        let arch = self.heap.arch().clone();
        // Find pointer fields across all *other* segments that point into
        // this one, and demote them to unresolved MIPs.
        let mut demotions: Vec<(u64, Mip)> = Vec::new();
        let other_ids: Vec<SegId> = self
            .segs
            .values()
            .map(|st| st.id)
            .filter(|&other| other != id)
            .collect();
        for other in other_ids {
            let metas: Vec<BlockMeta> = self.heap.segment(other).blocks().cloned().collect();
            for meta in metas {
                let slice = self.heap.read_bytes(meta.va, meta.size() as usize)?;
                for run in meta.flat.runs() {
                    if run.kind != PrimKind::Ptr {
                        continue;
                    }
                    for k in 0..run.count {
                        let off = (run.local_off + k * run.stride) as usize;
                        let size = arch.pointer_size as usize;
                        let va = read_va(&slice[off..off + size], &arch);
                        if va != 0 && spans.iter().any(|&(lo, hi)| va >= lo && va < hi) {
                            let field_va = meta.va + off as u64;
                            let mip = mip_for_va(&self.heap, va)?;
                            demotions.push((field_va, mip));
                        }
                    }
                }
            }
        }
        for (field_va, mip) in demotions {
            let size = arch.pointer_size as usize;
            let mut zero = vec![0u8; size];
            write_va(&mut zero, &arch, 0);
            self.heap
                .bytes_mut_unprotected(field_va, size)?
                .copy_from_slice(&zero);
            self.unresolved.insert(field_va, mip);
        }
        // Drop unresolved entries whose *field* lived in the segment.
        for &(lo, hi) in &spans {
            self.unresolved.retain(|&va, _| !(lo..hi).contains(&va));
        }
        self.heap.remove_segment(id);
        self.segs.remove(&name);
        Ok(())
    }

    /// Names and cached versions of all open segments.
    pub fn segments(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .segs
            .iter()
            .map(|(n, st)| (n.clone(), st.version))
            .collect();
        out.sort();
        out
    }

    /// The cached version of one open segment.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOpen`].
    pub fn segment_version(&self, h: &SegHandle) -> Result<u64, CoreError> {
        Ok(self.state(h.name())?.version)
    }

    // ==================================================================
    // Bulk raw access and experiment controls
    // ==================================================================

    /// Bulk write of raw local-format bytes at `p` (through modification
    /// tracking). Intended for large array updates where per-element
    /// accessors would dominate; the caller is responsible for encoding
    /// values in this session's architecture format.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`] without the write lock; heap bounds
    /// errors.
    pub fn write_bytes_raw(&mut self, p: &Ptr, bytes: &[u8]) -> Result<(), CoreError> {
        let (seg, meta) = self.heap.block_at(p.va)?;
        self.require_lock(seg, true)?;
        if p.va + bytes.len() as u64 > meta.end() {
            return Err(CoreError::BadPath(format!(
                "raw write of {} bytes overruns block {}",
                bytes.len(),
                meta.serial
            )));
        }
        self.heap.write_bytes(p.va, bytes)?;
        Ok(())
    }

    /// Bulk read of raw local-format bytes at `p`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`] without a lock; heap bounds errors.
    pub fn read_bytes_raw(&self, p: &Ptr, len: usize) -> Result<&[u8], CoreError> {
        let (seg, meta) = self.heap.block_at(p.va)?;
        self.require_lock(seg, false)?;
        if p.va + len as u64 > meta.end() {
            return Err(CoreError::BadPath(format!(
                "raw read of {len} bytes overruns block {}",
                meta.serial
            )));
        }
        Ok(self.heap.read_bytes(p.va, len)?)
    }

    /// Forces the tracking mode of a segment (benchmarks pin `Diff` or
    /// `NoDiff` to measure "collect diff" vs "collect block"; normal
    /// callers rely on the automatic adaptation).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOpen`].
    pub fn set_tracking_mode(&mut self, h: &SegHandle, mode: TrackMode) -> Result<(), CoreError> {
        let st = self.state_mut(h.name())?;
        st.mode = mode;
        let id = st.id;
        let locked_for_write = st.lock == Some(LockMode::Write);
        // Mode changes normally take effect at the next write-lock
        // acquire; if we already hold the write lock, align protection
        // with the mode now.
        if locked_for_write {
            match mode {
                TrackMode::Diff => self.heap.protect_segment(id),
                TrackMode::NoDiff { .. } => self.heap.unprotect_segment(id),
            }
        }
        Ok(())
    }

    /// The current tracking mode of a segment.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOpen`].
    pub fn tracking_mode(&self, h: &SegHandle) -> Result<TrackMode, CoreError> {
        Ok(self.state(h.name())?.mode)
    }

    // ==================================================================
    // Allocation
    // ==================================================================

    /// Allocates a block of `count` elements of `ty`: the paper's
    /// `IW_malloc` (with an optional symbolic name). Requires the write
    /// lock.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`] without the write lock; heap errors for
    /// bad names or sizes.
    pub fn malloc(
        &mut self,
        h: &SegHandle,
        ty: &TypeDesc,
        count: u32,
        name: Option<&str>,
    ) -> Result<Ptr, CoreError> {
        let seg_name = h.name().to_string();
        let st = self.state(&seg_name)?;
        if st.lock != Some(LockMode::Write) {
            return Err(CoreError::NotLocked {
                segment: seg_name,
                write: true,
            });
        }
        let id = st.id;
        let serial = st.next_serial;
        let va = self.heap.alloc_block(id, serial, name, ty, count)?;
        // Register the type so it travels in the next diff (a no-op when
        // already known).
        self.heap.segment_types_mut(id).register(ty);
        let iso = self
            .heap
            .segment(id)
            .block_by_serial(serial)?
            .flat
            .wire_identity()
            .is_iso();
        let st = self.state_mut(&seg_name)?;
        st.next_serial += 1;
        st.new_blocks.push(serial);
        st.iso &= iso;
        Ok(Ptr { va, ty: ty.clone() })
    }

    /// Frees a block: the paper's `IW_free`. The pointer must reference
    /// the start of a block. Requires the write lock.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`]; [`CoreError::BadPath`] when `p` is not a
    /// block start.
    pub fn free(&mut self, h: &SegHandle, p: &Ptr) -> Result<(), CoreError> {
        let seg_name = h.name().to_string();
        let st = self.state(&seg_name)?;
        if st.lock != Some(LockMode::Write) {
            return Err(CoreError::NotLocked {
                segment: seg_name,
                write: true,
            });
        }
        let id = st.id;
        let (bseg, serial, bva, bend) = {
            let (bseg, meta) = self.heap.block_at(p.va)?;
            (bseg, meta.serial, meta.va, meta.end())
        };
        if bseg != id || bva != p.va {
            return Err(CoreError::BadPath(format!(
                "free() requires a pointer to the start of a block in `{seg_name}`"
            )));
        }
        let in_tx = self.tx.is_some();
        let created_here = self.state(&seg_name)?.new_blocks.contains(&serial);
        if in_tx && !created_here {
            // Deferred: the block must stay resurrectable until commit.
            let st = self.state_mut(&seg_name)?;
            if !st.pending_free.contains(&serial) {
                st.pending_free.push(serial);
            }
            return Ok(());
        }
        self.heap.free_block(id, serial)?;
        self.unresolved.retain(|&va, _| !(bva..bend).contains(&va));
        let st = self.state_mut(&seg_name)?;
        if let Some(pos) = st.new_blocks.iter().position(|&s| s == serial) {
            // Created and freed in the same critical section: never tell
            // the server.
            st.new_blocks.remove(pos);
        } else {
            st.freed.push(serial);
        }
        Ok(())
    }

    // ==================================================================
    // Translation (see [`crate::translate`])
    // ==================================================================

    /// Collects the wire-format diff of all modifications made under the
    /// current write lock. Public for the benchmark harness; applications
    /// use [`Session::wl_release`].
    ///
    /// Returns `(diff, changed primitive units, per-block change
    /// fractions)`.
    ///
    /// # Errors
    ///
    /// Translation errors (e.g. a pointer to unmapped memory).
    pub fn collect_segment_diff(&self, h: &SegHandle) -> Result<Collected, CoreError> {
        let st = self.state(h.name())?;
        let pending = Pending {
            seg: st.id,
            from_version: st.version,
            types_synced: st.types_synced,
            new_blocks: &st.new_blocks,
            freed: &st.freed,
            whole_segment: matches!(st.mode, TrackMode::NoDiff { .. }),
            whole_blocks: &st.block_nodiff,
        };
        self.xlate.collect(&self.heap, &self.unresolved, &pending)
    }

    /// Applies a wire diff to the local cached copy. Public for the
    /// benchmark harness; normal callers go through the lock API.
    ///
    /// # Errors
    ///
    /// Wire decoding errors; heap errors on inconsistent diffs.
    pub fn apply_segment_diff(
        &mut self,
        h: &SegHandle,
        diff: &SegmentDiff,
    ) -> Result<(), CoreError> {
        let id = self.state(h.name())?.id;
        let new_blocks_iso = self
            .xlate
            .apply(&mut self.heap, &mut self.unresolved, id, diff)?;
        let st = self.state_mut(h.name())?;
        st.version = diff.to_version;
        st.iso &= new_blocks_iso;
        Ok(())
    }
}

/// SplitMix64 step: cheap deterministic jitter for backoff schedules
/// (no OS entropy, so contention tests stay reproducible).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unexpected(reply: Reply) -> CoreError {
    match reply {
        Reply::Error { message } => CoreError::Server(message),
        other => CoreError::Server(format!("unexpected reply: {other:?}")),
    }
}

/// Builds a [`Connector`] that dials `addr` over TCP.
fn tcp_connector(addr: std::net::SocketAddr) -> Connector {
    Box::new(move || {
        let t = iw_proto::TcpTransport::connect(addr)
            .map_err(|e| CoreError::Proto(iw_proto::ProtoError::Channel(e.to_string())))?;
        Ok(Box::new(t) as Box<dyn Transport>)
    })
}

/// Builds an unconnected [`ReadReplica`] with its lag gauge resolved.
fn new_replica(
    label: String,
    connector: Connector,
    from_advert: bool,
    registry: &Arc<Registry>,
) -> ReadReplica {
    let lag = registry.gauge(&format!("cluster.replica_lag.{label}"));
    ReadReplica {
        label,
        connector,
        transport: None,
        client_id: 0,
        known: HashMap::new(),
        from_advert,
        dead: false,
        lag,
    }
}
