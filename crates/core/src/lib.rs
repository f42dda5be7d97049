//! # iw-core — the InterWeave client library
//!
//! The primary contribution of *"Efficient Distributed Shared State for
//! Heterogeneous Machine Architectures"* (ICDCS 2003): a client library
//! that lets processes on heterogeneous machines map shared segments and
//! access strongly typed, pointer-rich data, with
//!
//! - **modification tracking** via page twins ([`diffing`]),
//! - **wire-format diffs** translated through type descriptors,
//! - **pointer swizzling** between machine-independent pointers (MIPs)
//!   and local addresses,
//! - relaxed **coherence models** (Full / Delta / Temporal / Diff),
//! - and the §3.3 optimizations (no-diff mode, diff-run splicing,
//!   isomorphic descriptors, last-block prediction, locality layout).
//!
//! # Examples
//!
//! The paper's Figure 1 linked list, in this API:
//!
//! ```
//! use std::sync::Arc;
//! use iw_core::{Session, SessionOptions};
//! use iw_proto::{Handler, Loopback};
//! use iw_server::Server;
//! use iw_types::{idl, MachineArch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server: Arc<dyn Handler> = Arc::new(Server::new());
//! let mut s = Session::new(
//!     MachineArch::x86(),
//!     Box::new(Loopback::new(server)),
//! )?;
//!
//! let module = idl::compile("struct node { int key; struct node *next; };")?;
//! let node_t = module.get("node").unwrap();
//!
//! let h = s.open_segment("host/list")?;
//! s.wl_acquire(&h)?;
//! let head = s.malloc(&h, node_t, 1, Some("head"))?;
//! let first = s.malloc(&h, node_t, 1, None)?;
//! s.write_i32(&s.field(&first, "key")?, 42)?;
//! s.write_ptr(&s.field(&head, "next")?, Some(&first))?;
//! s.wl_release(&h)?;
//!
//! s.rl_acquire(&h)?;
//! let p = s.read_ptr(&s.field(&head, "next")?)?.unwrap();
//! assert_eq!(s.read_i32(&s.field(&p, "key")?)?, 42);
//! s.rl_release(&h)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
pub mod diffing;
mod error;
mod metrics;
mod segstate;
mod session;
pub mod translate;
pub mod tx;

pub use error::CoreError;
pub use segstate::{TrackMode, NO_DIFF_ENTER_FRACTION, NO_DIFF_ENTER_STREAK, NO_DIFF_PROBE_PERIOD};
pub use session::{Connector, Ptr, SegHandle, Session, SessionOptions, SessionStats};
