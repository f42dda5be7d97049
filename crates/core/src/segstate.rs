//! Per-segment client state: versions, locks, coherence, and the no-diff
//! adaptation machinery (with its public tracking-mode controls).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use iw_heap::SegId;
use iw_proto::{Coherence, LockMode};

use crate::error::CoreError;
use crate::session::{SegHandle, Session};

/// How modifications are being tracked for a segment (§3.3 "No-diff
/// mode").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackMode {
    /// Normal operation: pages write-protected, twins created, diffs
    /// collected word by word.
    Diff,
    /// The client "simply transmits the whole segment … to the server at
    /// every write lock release", skipping protection, twins, and
    /// comparisons. Reverts to [`TrackMode::Diff`] after `remaining` more
    /// releases, "to capture changes in application behavior".
    NoDiff {
        /// Write-lock releases left before re-probing with diffing.
        remaining: u32,
    },
}

/// Fraction of a segment's primitives that must change to count a release
/// as "mostly modified" for no-diff adaptation.
pub const NO_DIFF_ENTER_FRACTION: f64 = 0.75;

/// Consecutive mostly-modified releases before switching to no-diff mode.
pub const NO_DIFF_ENTER_STREAK: u32 = 2;

/// Write-lock releases spent in no-diff mode before re-probing.
pub const NO_DIFF_PROBE_PERIOD: u32 = 8;

/// Client-side state for one open segment.
#[derive(Debug)]
pub(crate) struct SegState {
    /// Heap-side id.
    pub id: SegId,
    /// Version of the cached copy (0 = nothing cached yet).
    pub version: u64,
    /// Currently held lock, if any.
    pub lock: Option<LockMode>,
    /// Whether the current lock is registered at the server (write locks
    /// and Full-coherence read locks are; relaxed read locks are local).
    pub server_locked: bool,
    /// Coherence model for read-lock acquisitions.
    pub coherence: Coherence,
    /// When the cached copy was last brought up to date (Temporal
    /// coherence).
    pub last_update: Instant,
    /// Newest version of this segment confirmed at the *primary* (or
    /// learned from a replica, whose chains are prefixes of the
    /// primary's). Drives the replica-read eligibility floor
    /// ([`iw_proto::Coherence::replica_floor`]).
    pub best_known: u64,
    /// When `best_known` was last confirmed *at the primary*. Temporal
    /// replica reads anchor their staleness bound to this instant: data
    /// at or above the frontier confirmed then is at most that old.
    /// `None` until the first primary round trip.
    pub primary_confirm: Option<Instant>,
    /// Next block serial to allocate (granted by the server with the
    /// write lock).
    pub next_serial: u32,
    /// Number of type descriptors the server already knows; locally
    /// registered descriptors at or past this serial travel in the next
    /// diff.
    pub types_synced: u32,
    /// Blocks created under the current write lock (transmitted whole).
    pub new_blocks: Vec<u32>,
    /// Blocks freed under the current write lock.
    pub freed: Vec<u32>,
    /// Frees deferred by an open transaction (applied at commit,
    /// forgotten on abort).
    pub pending_free: Vec<u32>,
    /// Segment-level tracking mode.
    pub mode: TrackMode,
    /// Consecutive mostly-modified releases (for no-diff entry).
    pub high_streak: u32,
    /// Blocks individually in no-diff mode (sent whole when touched).
    pub block_nodiff: HashSet<u32>,
    /// Per-block consecutive mostly-modified release counts.
    pub block_streak: HashMap<u32, u32>,
    /// Set when a held write lock was lost in a failover; the next
    /// `wl_release` surfaces it as [`crate::CoreError::LockLost`] and
    /// clears it.
    pub lock_lost: bool,
    /// Isomorphic-layout stamp: true while every block allocated into
    /// this cached copy (locally or from an applied diff) has a layout
    /// byte-identical to its wire encoding, so the whole segment
    /// translates by memcpy. Stamped at open (vacuously true) and
    /// ANDed at every allocation; sticky — freeing the one offending
    /// block does not restore it. The translation paths check per block,
    /// so a mixed segment still fast-paths its isomorphic blocks; this
    /// summary is what [`crate::Session::segment_iso`] reports.
    pub iso: bool,
}

impl SegState {
    pub fn new(id: SegId) -> Self {
        SegState {
            id,
            version: 0,
            lock: None,
            server_locked: false,
            coherence: Coherence::Full,
            last_update: Instant::now(),
            best_known: 0,
            primary_confirm: None,
            next_serial: 0,
            types_synced: 0,
            new_blocks: Vec::new(),
            freed: Vec::new(),
            pending_free: Vec::new(),
            mode: TrackMode::Diff,
            high_streak: 0,
            block_nodiff: HashSet::new(),
            block_streak: HashMap::new(),
            lock_lost: false,
            iso: true,
        }
    }

    /// Advances the no-diff adaptation state after a write-lock release
    /// where `changed` of `total` primitives were transmitted and the
    /// per-block fractions were `block_fractions`.
    pub fn adapt_after_release(
        &mut self,
        changed: u64,
        total: u64,
        block_fractions: &[(u32, f64)],
    ) {
        match self.mode {
            TrackMode::NoDiff { remaining } => {
                if remaining <= 1 {
                    // Re-probe with diffing ("periodically switch back").
                    self.mode = TrackMode::Diff;
                    self.high_streak = 0;
                } else {
                    self.mode = TrackMode::NoDiff {
                        remaining: remaining - 1,
                    };
                }
            }
            TrackMode::Diff => {
                let frac = if total == 0 {
                    0.0
                } else {
                    changed as f64 / total as f64
                };
                if frac >= NO_DIFF_ENTER_FRACTION {
                    self.high_streak += 1;
                    if self.high_streak >= NO_DIFF_ENTER_STREAK {
                        self.mode = TrackMode::NoDiff {
                            remaining: NO_DIFF_PROBE_PERIOD,
                        };
                        self.high_streak = 0;
                        return; // block-level adaptation moot
                    }
                } else {
                    self.high_streak = 0;
                }
                // Block-level adaptation.
                for &(serial, bfrac) in block_fractions {
                    if bfrac >= NO_DIFF_ENTER_FRACTION {
                        let streak = self.block_streak.entry(serial).or_insert(0);
                        *streak += 1;
                        if *streak >= NO_DIFF_ENTER_STREAK {
                            self.block_nodiff.insert(serial);
                        }
                    } else {
                        self.block_streak.remove(&serial);
                        self.block_nodiff.remove(&serial);
                    }
                }
            }
        }
    }
}

impl Session {
    /// Forces the tracking mode of a segment (benchmarks pin `Diff` or
    /// `NoDiff` to measure "collect diff" vs "collect block"; normal
    /// callers rely on the automatic adaptation).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOpen`].
    pub fn set_tracking_mode(&mut self, h: &SegHandle, mode: TrackMode) -> Result<(), CoreError> {
        let st = self.state_mut(h.name())?;
        st.mode = mode;
        let id = st.id;
        let locked_for_write = st.lock == Some(LockMode::Write);
        // Mode changes normally take effect at the next write-lock
        // acquire; if we already hold the write lock, align protection
        // with the mode now.
        if locked_for_write {
            match mode {
                TrackMode::Diff => self.heap.protect_segment(id),
                TrackMode::NoDiff { .. } => self.heap.unprotect_segment(id),
            }
        }
        Ok(())
    }

    /// The current tracking mode of a segment.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOpen`].
    pub fn tracking_mode(&self, h: &SegHandle) -> Result<TrackMode, CoreError> {
        Ok(self.state(h.name())?.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> SegState {
        let mut h = iw_heap::Heap::new(iw_types::MachineArch::x86());
        let id = h.create_segment("h/s").unwrap();
        SegState::new(id)
    }

    #[test]
    fn two_heavy_releases_enter_no_diff() {
        let mut s = state();
        s.adapt_after_release(80, 100, &[]);
        assert_eq!(s.mode, TrackMode::Diff);
        s.adapt_after_release(90, 100, &[]);
        assert_eq!(
            s.mode,
            TrackMode::NoDiff {
                remaining: NO_DIFF_PROBE_PERIOD
            }
        );
    }

    #[test]
    fn light_release_resets_streak() {
        let mut s = state();
        s.adapt_after_release(80, 100, &[]);
        s.adapt_after_release(5, 100, &[]);
        s.adapt_after_release(80, 100, &[]);
        assert_eq!(s.mode, TrackMode::Diff);
    }

    #[test]
    fn no_diff_counts_down_then_reprobes() {
        let mut s = state();
        s.mode = TrackMode::NoDiff { remaining: 2 };
        s.adapt_after_release(100, 100, &[]);
        assert_eq!(s.mode, TrackMode::NoDiff { remaining: 1 });
        s.adapt_after_release(100, 100, &[]);
        assert_eq!(s.mode, TrackMode::Diff, "must re-probe");
    }

    #[test]
    fn per_block_no_diff() {
        let mut s = state();
        s.adapt_after_release(10, 100, &[(3, 0.9), (4, 0.1)]);
        s.adapt_after_release(10, 100, &[(3, 0.8), (4, 0.9)]);
        assert!(s.block_nodiff.contains(&3));
        assert!(!s.block_nodiff.contains(&4));
        // Block 3 calms down: leaves no-diff.
        s.adapt_after_release(10, 100, &[(3, 0.05)]);
        assert!(!s.block_nodiff.contains(&3));
    }

    #[test]
    fn empty_segment_is_not_heavy() {
        let mut s = state();
        s.adapt_after_release(0, 0, &[]);
        s.adapt_after_release(0, 0, &[]);
        assert_eq!(s.mode, TrackMode::Diff);
    }
}
