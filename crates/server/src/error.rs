//! Server error type.

use std::error::Error;
use std::fmt;

use iw_wire::codec::WireError;

/// Errors raised by server-side segment operations.
#[derive(Debug)]
pub enum ServerError {
    /// A wire-format payload was malformed.
    Wire(WireError),
    /// A diff's base version did not match the segment's current version.
    VersionMismatch {
        /// The version the diff claims to start from.
        diff_from: u64,
        /// The segment's actual current version.
        current: u64,
    },
    /// A client or replicated diff did not advance exactly one version
    /// (`to_version != from_version + 1`). The server caches and
    /// forwards a received diff under its own header, so a false
    /// `to_version` would label a partial update as current.
    VersionStep {
        /// The version the diff claims to start from.
        from: u64,
        /// The version the diff claims to produce.
        to: u64,
    },
    /// A diff referenced a block the server does not have.
    UnknownBlock(u32),
    /// A diff referenced an unregistered type descriptor.
    UnknownType(u32),
    /// A new block reused an existing serial number.
    DuplicateBlock(u32),
    /// A new block reused an existing symbolic name.
    DuplicateName(String),
    /// A diff run fell outside its block.
    RunOutOfRange {
        /// Block serial.
        serial: u32,
        /// Run start (primitive units).
        start: u64,
        /// Run length (primitive units).
        count: u64,
    },
    /// Checkpoint I/O failed.
    Io(std::io::Error),
    /// A checkpoint file was corrupt.
    BadCheckpoint(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Wire(e) => write!(f, "wire error: {e}"),
            ServerError::VersionMismatch { diff_from, current } => write!(
                f,
                "diff base version {diff_from} does not match current version {current}"
            ),
            ServerError::VersionStep { from, to } => write!(
                f,
                "diff claims versions {from}..{to}; a diff must advance exactly one version"
            ),
            ServerError::UnknownBlock(s) => write!(f, "unknown block serial {s}"),
            ServerError::UnknownType(s) => write!(f, "unknown type serial {s}"),
            ServerError::DuplicateBlock(s) => write!(f, "block serial {s} already exists"),
            ServerError::DuplicateName(n) => write!(f, "block name `{n}` already exists"),
            ServerError::RunOutOfRange {
                serial,
                start,
                count,
            } => write!(
                f,
                "diff run [{start}, {start}+{count}) out of range in block {serial}"
            ),
            ServerError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            ServerError::BadCheckpoint(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl Error for ServerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServerError::Wire(e) => Some(e),
            ServerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ServerError {
    fn from(e: WireError) -> Self {
        ServerError::Wire(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_detail() {
        let e = ServerError::VersionMismatch {
            diff_from: 3,
            current: 5,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
        assert!(ServerError::UnknownBlock(9).to_string().contains('9'));
        let w: ServerError = WireError::InvalidUtf8.into();
        assert!(w.source().is_some());
    }
}
