//! Client-side metrics: a per-session [`Registry`] with pre-resolved
//! handles for every hot-path counter.
//!
//! The handles are resolved once at session construction; hot paths touch
//! only the atomics behind the cached `Arc`s, never the registry's name
//! map. Per-pointer swizzle/unswizzle cache hits are batched in the cache
//! structs themselves (plain integer increments) and flushed into the
//! counters once per translation call, so pointer-dense workloads pay no
//! per-element atomic traffic.

use std::sync::Arc;

use iw_telemetry::{Counter, Gauge, Histogram, Registry};

/// Pre-resolved metric handles for one [`crate::Session`].
pub(crate) struct SessionMetrics {
    registry: Arc<Registry>,
    /// `client.lock.acquires_total` — lock acquisitions attempted.
    pub lock_acquires: Arc<Counter>,
    /// `client.lock.busy_retries_total` — `Busy` replies retried.
    pub lock_busy_retries: Arc<Counter>,
    /// `client.lock.retries_exhausted_total` — acquisitions that gave up
    /// after the full retry budget (distinct from individual busy
    /// retries).
    pub lock_retries_exhausted: Arc<Counter>,
    /// `client.failovers_total` — successful fail-overs to a backup
    /// replica.
    pub failovers: Arc<Counter>,
    /// `client.reconnects_total` — successful reconnects after a channel
    /// fault, whichever replica answered (the same server after a
    /// transient fault, or a backup). Under chaos testing this counts
    /// recoveries from injected faults.
    pub reconnects: Arc<Counter>,
    /// `client.lock.wait_us` — wall time from first request to grant.
    pub lock_wait_us: Arc<Histogram>,
    /// `client.update.piggyback_bytes` — payload of updates piggybacked on
    /// lock grants and polls.
    pub update_bytes: Arc<Histogram>,
    /// `client.no_diff.transitions_total` — tracking-mode flips either way.
    pub no_diff_transitions: Arc<Counter>,
    /// `client.twin_faults` — cumulative simulated write faults (refreshed
    /// from the heap at snapshot time).
    pub twin_faults: Arc<Gauge>,
    /// `cluster.replica_reads_total` — relaxed reads served by a read
    /// replica instead of the primary.
    pub replica_reads: Arc<Counter>,
    /// `cluster.replica_read_fallbacks_total` — relaxed reads that fell
    /// back to the primary because no replica satisfied the coherence
    /// predicate (or none answered).
    pub replica_fallbacks: Arc<Counter>,
    /// `cluster.replica_read_violations_total` — replica-served reads
    /// whose final cached version landed below the coherence floor.
    /// The server-side floor check makes this impossible; a non-zero
    /// count is a protocol bug.
    pub replica_violations: Arc<Counter>,
    /// `cluster.frontier_probes_total` — version-frontier probes sent to
    /// the primary to refresh the replica-read anchor.
    pub frontier_probes: Arc<Counter>,
}

impl SessionMetrics {
    /// Resolves every handle against `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        SessionMetrics {
            lock_acquires: registry.counter("client.lock.acquires_total"),
            lock_busy_retries: registry.counter("client.lock.busy_retries_total"),
            lock_retries_exhausted: registry.counter("client.lock.retries_exhausted_total"),
            failovers: registry.counter("client.failovers_total"),
            reconnects: registry.counter("client.reconnects_total"),
            lock_wait_us: registry.histogram_us("client.lock.wait_us"),
            update_bytes: registry.histogram_bytes("client.update.piggyback_bytes"),
            no_diff_transitions: registry.counter("client.no_diff.transitions_total"),
            twin_faults: registry.gauge("client.twin_faults"),
            replica_reads: registry.counter("cluster.replica_reads_total"),
            replica_fallbacks: registry.counter("cluster.replica_read_fallbacks_total"),
            replica_violations: registry.counter("cluster.replica_read_violations_total"),
            frontier_probes: registry.counter("cluster.frontier_probes_total"),
            registry,
        }
    }

    /// The registry behind the handles.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

/// Pre-resolved metric handles for one [`crate::translate::Translator`].
pub(crate) struct TranslateMetrics {
    /// `client.diff.collected_total` — diffs collected for write releases.
    pub diffs_collected: Arc<Counter>,
    /// `client.diff.applied_total` — update diffs installed locally.
    pub diffs_applied: Arc<Counter>,
    /// `client.diff.prims_sent_total` — primitive units in collected diffs.
    pub prims_sent: Arc<Counter>,
    /// `client.diff.prims_received_total` — primitive units installed.
    pub prims_received: Arc<Counter>,
    /// `client.diff.collect_us` — wall time of one diff collection.
    pub collect_us: Arc<Histogram>,
    /// `client.diff.apply_us` — wall time of one diff application.
    pub apply_us: Arc<Histogram>,
    /// `client.diff.collected_bytes` — wire payload size per collected diff.
    pub collected_bytes: Arc<Histogram>,
    /// `client.apply.block_lookups_total` — serial→block lookups on apply.
    pub apply_block_lookups: Arc<Counter>,
    /// `client.apply.pred_hits_total` — lookups the predictor answered.
    pub apply_pred_hits: Arc<Counter>,
    /// `client.swizzle.cache_hits_total` — pointer swizzles served by the
    /// one-entry block cache.
    pub swizzle_cache_hits: Arc<Counter>,
    /// `client.swizzle.cache_misses_total` — swizzles that searched the
    /// metadata trees.
    pub swizzle_cache_misses: Arc<Counter>,
    /// `client.unswizzle.cache_hits_total` — MIP resolutions served by the
    /// one-entry prefix cache.
    pub unswizzle_cache_hits: Arc<Counter>,
    /// `client.unswizzle.cache_misses_total` — resolutions that searched.
    pub unswizzle_cache_misses: Arc<Counter>,
    /// `client.translate.iso_collects_total` — collects where at least one
    /// block translated by a one-copy (isomorphic) program.
    pub iso_collects: Arc<Counter>,
    /// `client.translate.iso_applies_total` — applies where at least one
    /// run decoded by a one-copy (isomorphic) program.
    pub iso_applies: Arc<Counter>,
    /// `client.translate.iso_memcpy_bytes_total` — wire bytes translated
    /// by one-copy programs, both directions.
    pub iso_memcpy_bytes: Arc<Counter>,
    /// `client.scan.pages_total` — modified pages word-diffed.
    pub scan_pages: Arc<Counter>,
    /// `client.scan.bytes_total` — bytes covered by twin scans.
    pub scan_bytes: Arc<Counter>,
    /// `client.diff.scan_us` — wall time of one collect's twin-scan phase.
    pub scan_us: Arc<Histogram>,
    /// `client.pool.reuses_total` — scratch buffers served from the pool.
    pub pool_reuses: Arc<Counter>,
    /// `client.pool.allocs_total` — scratch buffers freshly allocated.
    pub pool_allocs: Arc<Counter>,
    /// `client.pool.buffers` — buffers currently held by the pool.
    pub pool_buffers: Arc<Gauge>,
}

impl TranslateMetrics {
    /// Resolves every handle against `registry`.
    pub fn new(registry: &Registry) -> Self {
        TranslateMetrics {
            diffs_collected: registry.counter("client.diff.collected_total"),
            diffs_applied: registry.counter("client.diff.applied_total"),
            prims_sent: registry.counter("client.diff.prims_sent_total"),
            prims_received: registry.counter("client.diff.prims_received_total"),
            collect_us: registry.histogram_us("client.diff.collect_us"),
            apply_us: registry.histogram_us("client.diff.apply_us"),
            collected_bytes: registry.histogram_bytes("client.diff.collected_bytes"),
            apply_block_lookups: registry.counter("client.apply.block_lookups_total"),
            apply_pred_hits: registry.counter("client.apply.pred_hits_total"),
            swizzle_cache_hits: registry.counter("client.swizzle.cache_hits_total"),
            swizzle_cache_misses: registry.counter("client.swizzle.cache_misses_total"),
            unswizzle_cache_hits: registry.counter("client.unswizzle.cache_hits_total"),
            unswizzle_cache_misses: registry.counter("client.unswizzle.cache_misses_total"),
            iso_collects: registry.counter("client.translate.iso_collects_total"),
            iso_applies: registry.counter("client.translate.iso_applies_total"),
            iso_memcpy_bytes: registry.counter("client.translate.iso_memcpy_bytes_total"),
            scan_pages: registry.counter("client.scan.pages_total"),
            scan_bytes: registry.counter("client.scan.bytes_total"),
            scan_us: registry.histogram_us("client.diff.scan_us"),
            pool_reuses: registry.counter("client.pool.reuses_total"),
            pool_allocs: registry.counter("client.pool.allocs_total"),
            pool_buffers: registry.gauge("client.pool.buffers"),
        }
    }
}
