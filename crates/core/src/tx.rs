//! Transactions over shared segments.
//!
//! The paper's §6 announces this as ongoing work: "We are incorporating
//! transaction support into InterWeave and studying the interplay of
//! transactions, RPC, and global shared state." This module implements
//! that extension on top of the mechanisms the paper already provides:
//!
//! - **Write sets** are exactly the page twins: every tracked write under
//!   a write lock has a pristine copy, so *abort* is "copy the twins
//!   back" — no extra logging.
//! - **Commit** collects the per-segment wire diffs and ships them in a
//!   single [`iw_proto::Request::Commit`], which the server validates
//!   (locks held, versions current) before applying any entry.
//! - Blocks allocated inside the transaction are discarded on abort;
//!   `free` inside a transaction is deferred until commit so the data can
//!   be resurrected by an abort.
//!
//! # Examples
//!
//! ```
//! # use std::sync::Arc;
//! # use iw_core::Session;
//! # use iw_proto::{Handler, Loopback};
//! # use iw_server::Server;
//! # use iw_types::{MachineArch, desc::TypeDesc};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let srv: Arc<dyn Handler> = Arc::new(Server::new());
//! # let mut s = Session::new(MachineArch::x86(), Box::new(Loopback::new(srv)))?;
//! let h = s.open_segment("bank/accounts")?;
//! s.wl_acquire(&h)?;
//! let a = s.malloc(&h, &TypeDesc::int64(), 1, Some("alice"))?;
//! let b = s.malloc(&h, &TypeDesc::int64(), 1, Some("bob"))?;
//! s.write_i64(&a, 100)?;
//! s.wl_release(&h)?;
//!
//! s.tx_begin()?;
//! s.wl_acquire(&h)?;
//! s.write_i64(&a, s.read_i64(&a)? - 30)?;
//! s.write_i64(&b, s.read_i64(&b)? + 30)?;
//! s.tx_commit()?;                      // both updates, atomically
//! # Ok(()) }
//! ```

use std::collections::HashMap;

use iw_proto::msg::{Reply, Request};
use iw_proto::LockMode;
use iw_wire::diff::SegmentDiff;

use crate::error::CoreError;
use crate::links::host_of;
use crate::session::{SegHandle, Session};

/// One commit entry: a segment name and its (possibly empty) diff.
type CommitEntry = (String, Option<SegmentDiff>);

/// Post-release adaptation inputs per segment: `(changed prims,
/// per-block change fractions)`.
type AdaptEntry = (u64, Vec<(u32, f64)>);

/// State of an open transaction.
#[derive(Debug, Default)]
pub(crate) struct TxState {
    /// Segments write-locked during the transaction, in acquisition
    /// order.
    pub segments: Vec<String>,
}

impl Session {
    /// `true` while a transaction is open.
    pub fn in_tx(&self) -> bool {
        self.tx.is_some()
    }

    /// Opens a transaction. Until [`Session::tx_commit`] or
    /// [`Session::tx_abort`], every segment write-locked by this session
    /// joins the transaction: its `wl_release` is deferred to the commit,
    /// and frees are buffered.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPath`] when a transaction is already open or a
    /// write lock is currently held (locks must be acquired *inside* the
    /// transaction so their twins cover the whole write set).
    pub fn tx_begin(&mut self) -> Result<(), CoreError> {
        if self.tx.is_some() {
            return Err(CoreError::BadPath("transaction already open".into()));
        }
        if self
            .segs
            .values()
            .any(|st| st.lock == Some(LockMode::Write))
        {
            return Err(CoreError::BadPath(
                "tx_begin with a write lock already held".into(),
            ));
        }
        self.tx = Some(TxState::default());
        Ok(())
    }

    /// Commits the transaction: collects the wire diff of every joined
    /// segment and applies them at the server in one atomic request,
    /// then releases the locks.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPath`] without an open transaction; translation
    /// and protocol errors. On a server-side rejection the transaction
    /// is aborted locally (twins restored) and the server error
    /// returned.
    pub fn tx_commit(&mut self) -> Result<(), CoreError> {
        let tx = self
            .tx
            .take()
            .ok_or_else(|| CoreError::BadPath("no open transaction".into()))?;
        // Apply deferred frees, then collect per-segment diffs, grouped by
        // server: each server commits its own segments atomically.
        // (Cross-server atomicity would need two-phase commit; this
        // prototype documents per-server atomicity.)
        let mut by_host: Vec<(&str, Vec<CommitEntry>)> = Vec::new();
        let mut adapt: HashMap<&str, AdaptEntry> = HashMap::new();
        for name in &tx.segments {
            let st = self.state_mut(name)?;
            let (id, pending) = (st.id, std::mem::take(&mut st.pending_free));
            for &serial in &pending {
                self.drop_block(id, serial)?;
            }
            self.state_mut(name)?.freed.extend(pending);
            let (diff, changed, fractions) =
                self.collect_segment_diff(&SegHandle::for_name(name))?;
            let entry = (name.clone(), (!diff.is_empty()).then_some(diff));
            match by_host.iter_mut().find(|(h, _)| *h == host_of(name)) {
                Some((_, group)) => group.push(entry),
                None => by_host.push((host_of(name), vec![entry])),
            }
            adapt.insert(name, (changed, fractions));
        }
        let mut committed: Vec<(String, u64)> = Vec::new();
        for (_, group) in &by_host {
            let reply = self.request_for(&group[0].0, |client| Request::Commit {
                client,
                entries: group.clone(),
            })?;
            match reply {
                Reply::Committed { versions } => {
                    committed.extend(group.iter().map(|(n, _)| n.clone()).zip(versions));
                }
                Reply::Error { message } => {
                    // Roll back locally; locks are still ours, so release
                    // them everywhere.
                    self.rollback_segments(&tx.segments)?;
                    for name in &tx.segments {
                        // Best effort: the commit's error is the one to
                        // report, and the lock is dropped here either way.
                        let _ = self.unlock(name);
                        let st = self.state_mut(name)?;
                        st.lock = None;
                        st.server_locked = false;
                    }
                    return Err(CoreError::Server(message));
                }
                other => return Err(CoreError::unexpected(other)),
            }
        }
        for (name, version) in committed {
            let (changed, fractions) = &adapt[name.as_str()];
            self.finish_release(&name, version, *changed, fractions)?;
        }
        Ok(())
    }

    /// Aborts the transaction: every tracked write is rolled back from
    /// its page twin, blocks allocated inside the transaction are
    /// discarded, deferred frees are forgotten, and the write locks are
    /// released with no diff.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPath`] without an open transaction; heap errors on
    /// internal inconsistency.
    pub fn tx_abort(&mut self) -> Result<(), CoreError> {
        let tx = self
            .tx
            .take()
            .ok_or_else(|| CoreError::BadPath("no open transaction".into()))?;
        self.rollback_segments(&tx.segments)?;
        for name in &tx.segments {
            self.unlock(name)?;
        }
        Ok(())
    }

    /// Restores local state of the given segments to their
    /// pre-transaction content.
    pub(crate) fn rollback_segments(&mut self, segments: &[String]) -> Result<(), CoreError> {
        for name in segments {
            let st = self.state_mut(name)?;
            let (id, new_blocks) = (st.id, std::mem::take(&mut st.new_blocks));
            st.freed.clear();
            st.pending_free.clear();
            // Undo tracked writes from twins, then discard tx-allocated
            // blocks (their contents are gone with them).
            self.heap.restore_segment_twins(id);
            for serial in new_blocks {
                self.drop_block(id, serial)?;
            }
        }
        Ok(())
    }
}
