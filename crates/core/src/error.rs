//! Client-library error type.

use std::error::Error;
use std::fmt;

use iw_heap::HeapError;
use iw_proto::msg::Reply;
use iw_proto::ProtoError;
use iw_types::desc::PrimKind;
use iw_wire::codec::WireError;

/// Errors raised by the InterWeave client library.
#[derive(Debug)]
pub enum CoreError {
    /// A heap operation failed.
    Heap(HeapError),
    /// A wire translation failed.
    Wire(WireError),
    /// A protocol round trip failed.
    Proto(ProtoError),
    /// The segment is not open in this session.
    NotOpen(String),
    /// The operation requires a lock that is not held.
    NotLocked {
        /// The segment in question.
        segment: String,
        /// `true` when a *write* lock specifically was required.
        write: bool,
    },
    /// A lock acquisition gave up after too many busy retries.
    LockTimeout(String),
    /// A write lock was lost when the session failed over to a backup
    /// replica. Local modifications were rolled back to the state at
    /// acquisition; the caller can re-acquire and redo them.
    LockLost {
        /// The segment whose write lock was lost.
        segment: String,
    },
    /// A typed access did not match the declared type.
    TypeMismatch {
        /// What the accessor expected.
        expected: &'static str,
        /// The primitive actually at that address.
        found: PrimKind,
    },
    /// A structure navigation failed (no such field / not a struct /
    /// index out of range).
    BadPath(String),
    /// A pointer was dereferenced whose target cannot be resolved.
    DanglingPointer(String),
    /// The server reported an error.
    Server(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Heap(e) => write!(f, "heap error: {e}"),
            CoreError::Wire(e) => write!(f, "wire error: {e}"),
            CoreError::Proto(e) => write!(f, "protocol error: {e}"),
            CoreError::NotOpen(s) => write!(f, "segment `{s}` is not open"),
            CoreError::NotLocked { segment, write } => write!(
                f,
                "segment `{segment}` requires a {} lock for this operation",
                if *write { "write" } else { "read" }
            ),
            CoreError::LockTimeout(s) => {
                write!(f, "gave up acquiring lock on `{s}` (still busy)")
            }
            CoreError::LockLost { segment } => write!(
                f,
                "write lock on `{segment}` lost in failover; modifications rolled back"
            ),
            CoreError::TypeMismatch { expected, found } => {
                write!(f, "typed access expected {expected}, found {found}")
            }
            CoreError::BadPath(m) => write!(f, "bad navigation: {m}"),
            CoreError::DanglingPointer(m) => write!(f, "dangling pointer: {m}"),
            CoreError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Heap(e) => Some(e),
            CoreError::Wire(e) => Some(e),
            CoreError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for CoreError {
    fn from(e: HeapError) -> Self {
        CoreError::Heap(e)
    }
}

impl From<WireError> for CoreError {
    fn from(e: WireError) -> Self {
        CoreError::Wire(e)
    }
}

impl From<ProtoError> for CoreError {
    fn from(e: ProtoError) -> Self {
        CoreError::Proto(e)
    }
}

impl CoreError {
    /// The error for a reply the protocol does not allow at this point;
    /// a server `Error` reply keeps its message.
    pub(crate) fn unexpected(reply: Reply) -> CoreError {
        match reply {
            Reply::Error { message } => CoreError::Server(message),
            other => CoreError::Server(format!("unexpected reply: {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = CoreError::NotLocked {
            segment: "a/b".into(),
            write: true,
        };
        assert!(e.to_string().contains("write"));
        let e = CoreError::TypeMismatch {
            expected: "int",
            found: PrimKind::Float64,
        };
        assert!(e.to_string().contains("double"));
        let e: CoreError = HeapError::UnknownBlockSerial(3).into();
        assert!(e.source().is_some());
        let e: CoreError = WireError::InvalidUtf8.into();
        assert!(e.source().is_some());
    }
}
