//! # iw-server — the InterWeave server
//!
//! Server side of InterWeave-rs (the ICDCS'03 InterWeave reproduction):
//!
//! - [`wirestore`] — blocks stored in wire format, with variable-length
//!   strings/MIPs out-of-line (§3.2);
//! - [`segment`] — per-segment versioning: the `svr_blk_number_tree`, the
//!   `blk_version_list` with markers, per-subblock version arrays, diff
//!   application (check, then install) and construction, the diff cache,
//!   Diff-coherence counters, and last-block prediction;
//! - [`locks`] — reader/writer lock table;
//! - [`server`] — the protocol front-end implementing
//!   [`iw_proto::Handler`];
//! - [`checkpoint`] — the machine-independent segment image format;
//! - durability — committed diffs WAL-logged at release time via
//!   `iw-durable` ([`Server::with_durability`]), with checkpoint-plus-log
//!   crash recovery ([`DurabilityMode`], [`DurableOptions`] re-exported).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod locks;
mod metrics;
pub mod segment;
pub mod server;
pub mod wirestore;

pub use error::ServerError;
pub use iw_durable::{DurabilityMode, DurableOptions, Recovery};
pub use locks::LockTable;
pub use segment::{ServerBlock, ServerSegment, DIFF_CACHE_CAP, SUBBLOCK_PRIMS};
pub use server::{CommitHook, RequestGuard, Server};
pub use wirestore::{StoreLayout, WireStore};
