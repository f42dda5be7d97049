//! # iw-net — run-to-completion server front end
//!
//! The nonblocking, readiness-polled connection front end of
//! InterWeave-rs servers. `workers` identical loops each multiplex
//! their own share of the connections through a [`poller::Poller`]
//! (epoll on Linux, `poll(2)` elsewhere); per-connection state machines
//! reassemble frames incrementally and resume partial writes; and the
//! loop that finds a request calls the [`iw_proto::Handler`] itself and
//! writes the reply before it looks at another socket — any
//! `Arc<dyn Handler>`, so `iw-server`, the cluster `Primary`, chaos
//! wrappers, and durability all slot in unchanged.
//!
//! See `DESIGN.md` §9 for the loop structure, the backpressure and
//! fairness rules, and where the handler call sits in the lock
//! hierarchy.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod decode;
pub mod poller;
pub mod server;
pub mod sys;

pub use decode::{FrameDecoder, FrameError, MAX_FRAME};
pub use poller::{Event, Interest, Poller, PollerKind};
pub use server::{NetOptions, NetServer};
