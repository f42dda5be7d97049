//! Residue of the retired wire-capability negotiation.
//!
//! Every link now emits one diff format (`DiffWire::LINK`) and nothing
//! is negotiated. [`PeerCaps`], `Request::encode_caps` and
//! `Request::decode_full` survive only because `benchmark/src/replay.rs`
//! names them; they die when that benchmark is re-baselined (ROADMAP
//! item 9(a)).

/// Unit stand-in for the retired capability set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerCaps;

impl PeerCaps {
    /// The only value: every peer speaks the one link format.
    pub const ALL: PeerCaps = PeerCaps;
}
