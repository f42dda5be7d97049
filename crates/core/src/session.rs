//! The InterWeave client session: the lock-and-coherence client protocol,
//! failover reconciliation and replica-read floors. Connections,
//! failover dialing and the read-replica pool live in [`crate::links`];
//! diff collection, application and pointer swizzling in
//! [`crate::translate`].
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
use iw_proto::{Coherence, LockMode, ProtoError, Transport};
use iw_telemetry::{Registry, Snapshot};
use iw_types::arch::MachineArch;
use iw_types::desc::TypeDesc;
use iw_wire::diff::SegmentDiff;
use iw_wire::mip::Mip;

use crate::error::CoreError;
use crate::links::{host_of, Backoff, Links};
use crate::metrics::SessionMetrics;
use crate::segstate::{SegState, TrackMode};
use crate::translate::{demote_pointers_into, drop_block, Collected, Pending, Translator};

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

/// An InterWeave client session (the library a client links against).
pub struct Session {
    pub(crate) heap: Heap,
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
    /// Every server connection, keyed by segment-URL host ("Every
    /// segment is managed by an InterWeave server at the IP address
    /// corresponding to the segment's URL. Different segments may be
    /// managed by different servers.", §2.1).
    pub(crate) links: Links,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("client_id", &self.links.client_id())
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
        transport: Box<dyn Transport>,
        opts: SessionOptions,
    ) -> Result<Self, CoreError> {
        let metrics = SessionMetrics::new(Arc::new(Registry::new()));
        let links = Links::new(transport, metrics.registry(), &arch)?;
        let heap = match opts.page_size {
            Some(ps) => Heap::with_page_size(arch, ps),
            None => Heap::new(arch),
        };
        let xlate = Translator::new(metrics.registry(), &opts);
        Ok(Session {
            heap,
            segs: HashMap::new(),
            unresolved: HashMap::new(),
            opts,
            metrics,
            xlate,
            tx: None,
            links,
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
            return Err(CoreError::unexpected(reply));
        };
        for (name, version) in segments {
            if host_of(&name) == host {
                self.confirm_version(&name, version, true);
            }
        }
        self.links.sync_advertised(host, replicas);
        Ok(())
    }

    /// Records `version` as confirmed for `segment`: it advances the
    /// replica-read floor anchor, and, when confirmed `at_primary` just
    /// now, re-arms the Temporal staleness clock.
    fn confirm_version(&mut self, segment: &str, version: u64, at_primary: bool) {
        if let Some(st) = self.segs.get_mut(segment) {
            st.best_known = st.best_known.max(version);
            if at_primary {
                st.primary_confirm = Some(Instant::now());
            }
        }
    }

    /// Performs one request against the server responsible for `segment`
    /// (see [`Links::call`]). `make` receives that server's client id; it
    /// may be called more than once: after a failover the request is
    /// rebuilt with the new server's client id.
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
        match self.links.call(segment, &make) {
            Err(ProtoError::Channel(_)) if self.links.fails_over(segment) => {}
            reply => return Ok(reply?),
        }
        // The lock a Release/Commit relies on died with the old server;
        // retrying against the new one cannot succeed and must not
        // silently drop the diff semantics. (The client id plays no part
        // in the classification.)
        let lock_bound = matches!(
            make(0),
            Request::Release { diff: Some(_), .. } | Request::Commit { .. }
        );
        self.fail_over(host_of(segment))?;
        if lock_bound {
            let _ = self.take_lock_lost(segment);
            return Err(CoreError::LockLost {
                segment: segment.to_string(),
            });
        }
        // The closure captured pre-failover state; version
        // reconciliation may have invalidated the cache, so the rebuilt
        // request must carry the *current* version or the new server
        // would skip the refetch.
        let reconciled = self.state(segment).map(|st| st.version).ok();
        Ok(self.links.call(segment, |client| {
            let mut retry = make(client);
            if let (
                Some(version),
                Request::Acquire { have_version, .. } | Request::Poll { have_version, .. },
            ) = (reconciled, &mut retry)
            {
                *have_version = version;
            }
            retry
        })?)
    }

    /// Fails the `host` replica group over to the next healthy replica
    /// ([`Links::reconnect`]), re-issues `Open` for every cached segment
    /// of that host, and reconciles cached versions. Held write locks
    /// are lost: their local modifications are rolled back from the
    /// twins and the segment is flagged so the next `wl_release` reports
    /// [`CoreError::LockLost`].
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
        let (rounds, backoff_ms) = (self.opts.failover_rounds, self.opts.failover_backoff_ms);
        self.links.reconnect(host, rounds, backoff_ms)?;
        self.metrics.failovers.inc();
        self.metrics.reconnects.inc();
        let names: Vec<String> = self
            .segs
            .keys()
            .filter(|n| host_of(n) == host)
            .cloned()
            .collect();
        let mut write_locked: Vec<String> = Vec::new();
        let mut stale: Vec<String> = Vec::new();
        for name in &names {
            let reply = self.links.call(name, |client| Request::Open {
                client,
                segment: name.clone(),
            })?;
            let Reply::Opened {
                version: replica_version,
            } = reply
            else {
                return Err(CoreError::unexpected(reply));
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
            let serials: Vec<u32> = self.heap.segment(id).blocks().map(|b| b.serial).collect();
            for serial in serials {
                self.drop_block(id, serial)?;
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
                other => return Err(CoreError::unexpected(other)),
            };
            let id = self.heap.create_segment(name)?;
            self.segs.insert(name.to_string(), SegState::new(id));
            self.confirm_version(name, version, true);
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
        // Seeded from the client id and segment, so contention tests
        // replay the same schedule.
        let seed = self.links.client_id() ^ ((name.len() as u64) << 32) ^ have_version;
        let (start_us, cap_us) = (self.opts.lock_backoff_us, self.opts.lock_backoff_cap_us);
        let mut backoff = Backoff::new(start_us, cap_us, seed);
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
                    backoff.sleep();
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

    /// Installs the update (if any) a server sent with a grant, a poll
    /// reply or a release acknowledgement, then records `version` as the
    /// cached version and as confirmed: at the primary (`from_primary`,
    /// which re-arms the Temporal clock) or, from a replica whose chain
    /// is a prefix of the primary's, as a version bound only. Either way
    /// the cache is then as fresh as the last primary confirmation: a
    /// replica read was floored against it.
    fn install_update(
        &mut self,
        name: &str,
        update: Option<SegmentDiff>,
        version: u64,
        from_primary: bool,
    ) -> Result<&mut SegState, CoreError> {
        if let Some(diff) = update {
            self.metrics.update_bytes.record(diff.payload_len() as u64);
            self.apply_segment_diff(&SegHandle::for_name(name), &diff)?;
        }
        self.confirm_version(name, version, from_primary);
        let st = self.state_mut(name)?;
        st.version = version;
        if let Some(t) = st.primary_confirm {
            st.last_update = t;
        }
        Ok(st)
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
        self.require_unlocked(&name)?;
        let have = self.state(&name)?.version;
        let reply = self.acquire_with_retry(&name, LockMode::Write, have, Coherence::Full)?;
        let Reply::Granted {
            version,
            update,
            next_serial,
            next_type_serial,
        } = reply
        else {
            return Err(CoreError::unexpected(reply));
        };
        let in_tx = self.tx.is_some();
        let st = self.install_update(&name, update, version, true)?;
        st.lock = Some(LockMode::Write);
        // A fresh grant supersedes a write lock lost in an earlier
        // failover: the rollback already happened then, and a stale flag
        // would fail this tenure's release spuriously.
        st.lock_lost = false;
        st.server_locked = true;
        st.next_serial = st.next_serial.max(next_serial);
        st.types_synced = next_type_serial;
        st.new_blocks.clear();
        st.freed.clear();
        st.pending_free.clear();
        // Transactions need twins for rollback, so no-diff mode is
        // suspended while one is open.
        if in_tx || matches!(st.mode, TrackMode::Diff) {
            let id = st.id;
            self.heap.protect_segment(id);
        }
        if let Some(tx) = &mut self.tx {
            if !tx.segments.contains(&name) {
                tx.segments.push(name);
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
        self.take_lock_lost(&name)?;
        self.require_lock(self.state(&name)?.id, true)?;
        let (diff, changed, per_block) = self.collect_segment_diff(h)?;
        let payload = (!diff.is_empty()).then_some(diff);
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
            self.take_lock_lost(&name)?;
            return Err(CoreError::unexpected(reply));
        };
        self.finish_release(&name, version, changed, &per_block)
    }

    /// The step a write-lock release and a transaction commit both end
    /// with, once the server has committed `name` at `version`: clears
    /// modification tracking, records the version as confirmed at the
    /// primary, drops the lock, and advances no-diff adaptation with the
    /// collect's `changed` primitives and `per_block` fractions.
    pub(crate) fn finish_release(
        &mut self,
        name: &str,
        version: u64,
        changed: u64,
        per_block: &[(u32, f64)],
    ) -> Result<(), CoreError> {
        let id = self.state(name)?.id;
        self.heap.clear_tracking(id);
        let total: u64 = self
            .heap
            .segment(id)
            .blocks()
            .map(BlockMeta::prim_count)
            .sum();
        let adapt = self.opts.no_diff_adaptation;
        let st = self.install_update(name, None, version, true)?;
        st.lock = None;
        st.server_locked = false;
        st.new_blocks.clear();
        st.freed.clear();
        if adapt {
            let was_no_diff = matches!(st.mode, TrackMode::NoDiff { .. });
            st.adapt_after_release(changed, total, per_block);
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
        self.require_unlocked(&name)?;
        let (coherence, have, fresh_enough) = {
            let st = self.state(&name)?;
            let fresh = matches!(st.coherence, Coherence::Temporal(ms)
                if st.version > 0
                    && st.last_update.elapsed().as_millis() <= u128::from(ms));
            (st.coherence, st.version, fresh)
        };
        let server_locked = !fresh_enough && matches!(coherence, Coherence::Full);
        if server_locked {
            let reply = self.acquire_with_retry(&name, LockMode::Read, have, coherence)?;
            let Reply::Granted {
                version, update, ..
            } = reply
            else {
                return Err(CoreError::unexpected(reply));
            };
            self.install_update(&name, update, version, true)?;
        } else if !fresh_enough && !self.try_replica_read(h, coherence, have)? {
            // Relaxed models: poll for an update; no server-side lock.
            // The poll is served by a read replica when one satisfies the
            // coherence predicate, else the primary.
            let reply = self.request_for(&name, poll(&name, have, coherence, 0))?;
            match reply {
                // Under Temporal the primary answers `UpToDate` only at
                // version parity, so the cache version *is* the current
                // one and re-arms the anchor. Delta/Diff tolerate a
                // distance, so parity is not implied — the cache version
                // is only a frontier bound.
                Reply::UpToDate => {
                    self.confirm_version(&name, have, matches!(coherence, Coherence::Temporal(_)));
                }
                Reply::Update { diff } => {
                    let version = diff.to_version;
                    self.install_update(&name, Some(diff), version, true)?;
                }
                other => return Err(CoreError::unexpected(other)),
            }
        }
        let st = self.state_mut(&name)?;
        st.lock = Some(LockMode::Read);
        st.server_locked = server_locked;
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
        let name = h.name();
        if !self.links.has_replicas(name) {
            return Ok(false);
        }
        let anchor = |st: &SegState| {
            let age = st.primary_confirm.map_or(u64::MAX, |t| {
                u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
            });
            (st.best_known, age)
        };
        let (mut best_known, mut age_ms) = anchor(self.state(name)?);
        if coherence.replica_floor(best_known).is_none() {
            // Full or zero-bound: always the primary's to answer.
            return Ok(false);
        }
        // `replica_eligible` with a maximally fresh replica isolates the
        // anchor-age condition: when the Temporal anchor has aged out, a
        // cheap Frontier probe re-arms it so the (potentially heavy)
        // diff fetch can still be offloaded to a replica.
        if !coherence.replica_eligible(u64::MAX, best_known, age_ms)
            && self.refresh_frontier(host_of(name)).is_ok()
        {
            (best_known, age_ms) = anchor(self.state(name)?);
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
        // Re-checked inside: the frontier refresh may have failed over
        // or evicted replicas the primary no longer advertises.
        let served = self.links.read_replica(
            name,
            have,
            best_known,
            |known| coherence.replica_eligible(known.max(have), best_known, age_ms),
            poll(name, have, coherence, wire_floor),
        );
        // The anchor was captured *before* the poll: every version the
        // replica could be missing relative to it was committed after it,
        // so the served data is at most `age_ms` (+ this read's latency)
        // old.
        let (version, update) = match served {
            Some(Reply::Update { diff }) => (diff.to_version, Some(diff)),
            Some(_) => (self.state(name)?.version, None),
            None => {
                self.metrics.replica_fallbacks.inc();
                return Ok(false);
            }
        };
        if self.install_update(name, update, version, false)?.version < floor {
            // The server-side floor check makes this unreachable; count
            // it rather than trust it silently.
            self.metrics.replica_violations.inc();
        }
        self.metrics.replica_reads.inc();
        Ok(true)
    }

    /// Releases a read lock: the paper's `IW_rl_release`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`] when no read lock is held.
    pub fn rl_release(&mut self, h: &SegHandle) -> Result<(), CoreError> {
        if self.state(h.name())?.lock != Some(LockMode::Read) {
            return Err(CoreError::NotLocked {
                segment: h.name().to_string(),
                write: false,
            });
        }
        self.unlock(h.name())
    }

    /// Drops `name`'s lock here and, when the server holds it too, there
    /// (a `Release` with no diff).
    pub(crate) fn unlock(&mut self, name: &str) -> Result<(), CoreError> {
        if self.state(name)?.server_locked {
            let reply = self.request_for(name, |client| Request::Release {
                client,
                segment: name.to_string(),
                diff: None,
            })?;
            if !matches!(reply, Reply::Released { .. }) {
                return Err(CoreError::unexpected(reply));
            }
        }
        let st = self.state_mut(name)?;
        st.lock = None;
        st.server_locked = false;
        Ok(())
    }

    /// Surfaces a write lock lost in a failover as
    /// [`CoreError::LockLost`], clearing the segment's flag.
    fn take_lock_lost(&mut self, name: &str) -> Result<(), CoreError> {
        if std::mem::take(&mut self.state_mut(name)?.lock_lost) {
            return Err(CoreError::LockLost {
                segment: name.to_string(),
            });
        }
        Ok(())
    }

    fn require_unlocked(&self, name: &str) -> Result<(), CoreError> {
        match self.state(name)?.lock {
            Some(_) => Err(CoreError::BadPath(format!(
                "`{name}` is already locked by this session (locks do not nest)"
            ))),
            None => Ok(()),
        }
    }

    /// Frees a cached block (see [`drop_block`]).
    pub(crate) fn drop_block(&mut self, seg: SegId, serial: u32) -> Result<(), CoreError> {
        drop_block(&mut self.heap, &mut self.unresolved, seg, serial)
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
        if self
            .tx
            .as_ref()
            .is_some_and(|tx| tx.segments.contains(&name))
        {
            return Err(CoreError::BadPath(format!(
                "`{name}` is part of an open transaction"
            )));
        }
        let id = self.state(&name)?.id;
        match self.state(&name)?.lock {
            Some(LockMode::Write) => self.wl_release(h)?,
            Some(LockMode::Read) => self.unlock(&name)?,
            None => {}
        }
        let others: Vec<SegId> = self
            .segs
            .values()
            .map(|st| st.id)
            .filter(|&other| other != id)
            .collect();
        demote_pointers_into(&mut self.heap, &mut self.unresolved, id, &others)?;
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

/// Builds a `Poll` of `segment` for a client holding `have_version`, to be
/// served at or above `floor` (0 = no floor).
pub(crate) fn poll(
    segment: &str,
    have_version: u64,
    coherence: Coherence,
    floor: u64,
) -> impl Fn(u64) -> Request + '_ {
    move |client| Request::Poll {
        client,
        segment: segment.to_string(),
        have_version,
        coherence,
        floor,
    }
}
