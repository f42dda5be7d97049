//! # iw-proto — the InterWeave client/server protocol
//!
//! Request/reply messages ([`msg`]), relaxed coherence models
//! ([`coherence`]), and transports ([`transport`], [`tcp`]) for
//! InterWeave-rs (the ICDCS'03 InterWeave reproduction).
//!
//! Every transport — including the in-process [`transport::Loopback`] —
//! moves fully *encoded* messages and counts their bytes, so bandwidth
//! measurements (paper Figure 7) are transport-independent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caps;
pub mod coherence;
pub mod msg;
pub mod tcp;
pub mod transport;

pub use caps::PeerCaps;
pub use coherence::Coherence;
pub use msg::{LockMode, Reply, Request};
pub use tcp::TcpTransport;
pub use transport::{
    FaultAction, FaultLayer, Handler, Loopback, ProtoError, Transport, TransportStats,
};
