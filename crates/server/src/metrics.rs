//! Server-side metrics: a per-server [`Registry`] with pre-resolved
//! handles, scraped remotely via `Request::Stats` (the `iwstat` CLI).
//!
//! Hot per-segment counters (diff-cache hits, subblock scans…) stay plain
//! `u64` fields on [`crate::segment::ServerSegment`] — the segment is
//! always behind the server lock, so atomics would buy nothing — and are
//! aggregated into the snapshot at scrape time.

use std::fmt;
use std::sync::Arc;

use iw_proto::Request;
use iw_telemetry::{Counter, Gauge, Histogram, Registry};

/// Pre-resolved metric handles for one [`crate::Server`].
pub(crate) struct ServerMetrics {
    registry: Arc<Registry>,
    /// `server.requests_total` — requests handled, all kinds.
    pub requests: Arc<Counter>,
    /// `server.req.<kind>_total`, indexed like [`Request::KINDS`].
    pub req_kind: Vec<Arc<Counter>>,
    /// `server.errors_total` — requests answered with `Reply::Error`.
    pub errors: Arc<Counter>,
    /// `server.lock.granted_total` — lock acquisitions granted.
    pub lock_granted: Arc<Counter>,
    /// `server.lock.busy_total` — acquisitions refused as busy.
    pub lock_busy: Arc<Counter>,
    /// `server.lock.released_total` — locks actually released.
    pub lock_released: Arc<Counter>,
    /// `server.locks_held` — locks currently held (refreshed at scrape).
    pub locks_held: Arc<Gauge>,
    /// `server.clients` — registered clients (refreshed at scrape).
    pub clients: Arc<Gauge>,
    /// `server.concurrent_requests` — requests currently inside
    /// `handle_request` (live; the high-water mark is the synthetic
    /// `server.concurrent_requests_peak` snapshot counter).
    pub concurrent_requests: Arc<Gauge>,
    /// `server.segment_lock_wait` — threads currently blocked waiting
    /// for a per-segment lock.
    pub segment_lock_wait: Arc<Gauge>,
    /// `server.segment_lock_wait_us` — time spent acquiring per-segment
    /// locks.
    pub segment_lock_wait_us: Arc<Histogram>,
    /// `server.busy_us_total` — cumulative wall time spent inside
    /// `handle_request`, across all worker threads. Exceeding elapsed
    /// wall time proves requests overlapped.
    pub busy_us: Arc<Counter>,
    /// `cluster.diffs_applied_total` — replication diffs applied (backup
    /// role).
    pub repl_diffs_applied: Arc<Counter>,
    /// `cluster.sync_full_applied_total` — full catch-up images applied
    /// (backup role).
    pub repl_syncs_applied: Arc<Counter>,
    /// `cluster.catchup_bytes_total` — bytes of full catch-up images
    /// applied (backup role).
    pub repl_catchup_bytes: Arc<Counter>,
    /// `cluster.failovers_total` — clients that re-registered here after
    /// failing over from another replica.
    pub failovers: Arc<Counter>,
    /// `wire.diff_bytes_raw_total` — fixed-width size of every diff
    /// shipped in a reply (`SegmentDiff::encoded_len_hint`: every count
    /// a `u32`, every run header 20 bytes, no compression; the baseline
    /// of the compaction ratio).
    pub diff_bytes_raw: Arc<Counter>,
    /// `wire.diff_bytes_sent_total` — bytes diffs actually occupied in
    /// replies, in the link format.
    pub diff_bytes_sent: Arc<Counter>,
    /// `server.enc_cache.hits_total` — reply diffs served straight from
    /// an already-materialized encoding (encode-once/serve-many).
    pub enc_cache_hits: Arc<Counter>,
    /// `server.enc_cache.misses_total` — reply diffs that had to be
    /// encoded on this request.
    pub enc_cache_misses: Arc<Counter>,
}

impl ServerMetrics {
    /// Resolves every handle against `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        let req_kind = Request::KINDS
            .iter()
            .map(|k| registry.counter(&format!("server.req.{k}_total")))
            .collect();
        ServerMetrics {
            requests: registry.counter("server.requests_total"),
            req_kind,
            errors: registry.counter("server.errors_total"),
            lock_granted: registry.counter("server.lock.granted_total"),
            lock_busy: registry.counter("server.lock.busy_total"),
            lock_released: registry.counter("server.lock.released_total"),
            locks_held: registry.gauge("server.locks_held"),
            clients: registry.gauge("server.clients"),
            concurrent_requests: registry.gauge("server.concurrent_requests"),
            segment_lock_wait: registry.gauge("server.segment_lock_wait"),
            segment_lock_wait_us: registry.histogram_us("server.segment_lock_wait_us"),
            busy_us: registry.counter("server.busy_us_total"),
            repl_diffs_applied: registry.counter("cluster.diffs_applied_total"),
            repl_syncs_applied: registry.counter("cluster.sync_full_applied_total"),
            repl_catchup_bytes: registry.counter("cluster.catchup_bytes_total"),
            failovers: registry.counter("cluster.failovers_total"),
            diff_bytes_raw: registry.counter("wire.diff_bytes_raw_total"),
            diff_bytes_sent: registry.counter("wire.diff_bytes_sent_total"),
            enc_cache_hits: registry.counter("server.enc_cache.hits_total"),
            enc_cache_misses: registry.counter("server.enc_cache.misses_total"),
            registry,
        }
    }

    /// The registry behind the handles.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new(Arc::new(Registry::new()))
    }
}

impl fmt::Debug for ServerMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerMetrics")
            .field("requests", &self.requests.get())
            .field("errors", &self.errors.get())
            .finish_non_exhaustive()
    }
}
