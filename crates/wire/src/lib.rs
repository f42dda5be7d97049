//! # iw-wire — the InterWeave wire format
//!
//! InterWeave's wire format is what lets heterogeneous machines share
//! pointer-rich data: it "captures not only data but also diffs in a machine
//! and language-independent form" (paper abstract). This crate implements:
//!
//! - [`codec`] — the low-level big-endian codec ([`WireWriter`],
//!   [`WireReader`]);
//! - [`prim`] — translation of individual primitives between a machine's
//!   local format and wire format, with caller-supplied pointer swizzling;
//! - [`mip`] — machine-independent pointers
//!   (`segment#block#offset-in-primitive-units`);
//! - [`tdesc`] — wire encoding of type descriptors (how servers learn
//!   types from clients);
//! - [`diff`] — the run-length-encoded wire diff ([`SegmentDiff`]), in
//!   one format (the `0xD2` varint/delta envelope with adaptive LZ);
//! - [`lz`] — the dependency-free LZ compressor the v2 envelope uses
//!   when its entropy heuristic predicts a win;
//! - [`wal`] — CRC-protected log-record framing for the durable diff
//!   store (`iw-durable`).
//!
//! # Examples
//!
//! ```
//! use iw_wire::mip::Mip;
//!
//! let mip: Mip = "data.org/weather#temps#12".parse()?;
//! assert_eq!(mip.offset, 12); // primitive units, not bytes
//! # Ok::<(), iw_wire::codec::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod diff;
pub mod lz;
pub mod mip;
pub mod prim;
pub mod tdesc;
pub mod wal;

pub use codec::{WireError, WireReader, WireWriter};
pub use diff::{BlockDiff, DiffRun, DiffWire, NewBlock, SegmentDiff};
pub use mip::{BlockRef, Mip};
