//! # iw-durable — log-structured durable diff store
//!
//! Server state was memory-only: the paper's periodic checkpoints (§2.2)
//! give "partial protection against server failure", but everything
//! since the last checkpoint dies with the process. This crate closes
//! the gap with the classic checkpoint-plus-log design, built around the
//! release-consistency model's natural durability unit — the committed
//! per-segment wire diff:
//!
//! - **Write-ahead log.** Every committed diff is appended to the active
//!   log file as a CRC-framed record ([`iw_wire::wal`]) and fsynced
//!   before the release is acknowledged. Appends from concurrent segment
//!   shards are batched into one `fdatasync` (group commit): the first
//!   appender in a batch becomes the sync leader, everyone who appended
//!   before the leader's sync began rides the same barrier.
//! - **Incremental checkpoints.** Per segment, every
//!   [`DurableOptions::checkpoint_interval`] versions the server writes
//!   a full image (the existing checkpoint codec — unchanged) into the
//!   store's `ck/` directory. A checkpoint makes every older log record
//!   for that segment dead weight.
//! - **Compaction.** When the live log exceeds
//!   [`DurableOptions::compact_threshold_bytes`], the log is rotated and
//!   every segment's outstanding diff chain is folded into a fresh
//!   checkpoint image; the rotated files are then deleted. Recovery
//!   afterwards reads only the newest images plus the (short) new tail.
//! - **Recovery.** On restart the store loads the newest checkpoint per
//!   segment and replays the log tail in append order. A torn tail
//!   (crash mid-append) is truncated, not fatal; a CRC mismatch stops
//!   the scan at the last good record, loudly.
//!
//! The store is deliberately ignorant of server internals: checkpoint
//! images and diff payloads are opaque bytes plus the version metadata
//! needed to order them ([`iw_wire::SegmentDiff`] headers). `iw-server`
//! owns the wiring (what to persist, when to checkpoint, how to rebuild
//! a segment from an image).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod records;
mod store;

use std::sync::Arc;

use iw_telemetry::{Counter, Gauge, Histogram, Registry};

pub use records::{LogRecord, KIND_CHECKPOINT, KIND_DIFF};
pub use store::{DiffStore, Recovery, SegmentRecovery};

/// Whether the server persists at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Nothing is persisted (a server without `--data-dir`).
    Off,
    /// The log plus periodic per-segment checkpoint images and
    /// threshold-triggered compaction — bounded log, bounded recovery
    /// time. What `--data-dir` runs.
    #[default]
    WalCheckpoint,
}

impl std::fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DurabilityMode::Off => "off",
            DurabilityMode::WalCheckpoint => "wal+checkpoint",
        })
    }
}

/// Tuning knobs for a [`DiffStore`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Whether to persist at all (see [`DurabilityMode`]).
    pub mode: DurabilityMode,
    /// Versions between per-segment checkpoint images.
    pub checkpoint_interval: u64,
    /// Live log bytes (active file plus not-yet-deleted rotations) above
    /// which the server triggers compaction.
    pub compact_threshold_bytes: u64,
    /// When `false`, appends skip the fsync barrier. Only for tests and
    /// benchmarks that measure the non-sync cost — an acked release is
    /// then NOT guaranteed durable.
    pub fsync: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            mode: DurabilityMode::WalCheckpoint,
            checkpoint_interval: 64,
            compact_threshold_bytes: 8 << 20,
            fsync: true,
        }
    }
}

/// `durable.*` metric handles, registered in the owning server's
/// registry so one `iwstat` scrape shows durability next to everything
/// else.
pub(crate) struct Metrics {
    /// `durable.wal_appends_total` — records appended to the log.
    pub wal_appends: Arc<Counter>,
    /// `durable.wal_bytes_total` — cumulative framed bytes appended.
    pub wal_bytes: Arc<Counter>,
    /// `durable.fsyncs_total` — group-commit syncs issued (appends per
    /// sync is the batching ratio).
    pub fsyncs: Arc<Counter>,
    /// `durable.fsync_us` — wall time of one group-commit sync.
    pub fsync_us: Arc<Histogram>,
    /// `durable.checkpoints_written_total` — checkpoint images written.
    pub checkpoints_written: Arc<Counter>,
    /// `durable.compactions_total` — completed log compactions.
    pub compactions: Arc<Counter>,
    /// `durable.recovery_replayed_records` — diff records replayed by
    /// the last recovery.
    pub recovery_replayed: Arc<Counter>,
    /// `durable.errors_total` — append/checkpoint I/O failures (the
    /// store keeps serving; an error here means the durability window
    /// is open).
    pub errors: Arc<Counter>,
    /// `durable.log_bytes` — current live log size.
    pub log_bytes: Arc<Gauge>,
}

impl Metrics {
    pub(crate) fn new(registry: &Arc<Registry>) -> Self {
        Metrics {
            wal_appends: registry.counter("durable.wal_appends_total"),
            wal_bytes: registry.counter("durable.wal_bytes_total"),
            fsyncs: registry.counter("durable.fsyncs_total"),
            fsync_us: registry.histogram_us("durable.fsync_us"),
            checkpoints_written: registry.counter("durable.checkpoints_written_total"),
            compactions: registry.counter("durable.compactions_total"),
            recovery_replayed: registry.counter("durable.recovery_replayed_records"),
            errors: registry.counter("durable.errors_total"),
            log_bytes: registry.gauge("durable.log_bytes"),
        }
    }
}
