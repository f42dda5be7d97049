//! Relaxed coherence models.
//!
//! "Among the relaxed coherence models currently supported by InterWeave,
//! *Delta* coherence guarantees that the segment is no more than x versions
//! out-of-date; *Temporal* coherence guarantees that it is no more than x
//! time units out of date; and *Diff-based* coherence guarantees that no
//! more than x% of the primitive data elements in the segment are out of
//! date. In all cases, x can be specified dynamically by the process."
//! (§3.2)

use std::fmt;

use iw_wire::codec::{WireError, WireReader, WireWriter};

/// The coherence requirement a client attaches to a read-lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Coherence {
    /// Always fetch the most recent version (the strictest model; what
    /// plain RPC-by-value would give you).
    #[default]
    Full,
    /// The cached copy may be up to `x` versions out of date.
    Delta(u32),
    /// The cached copy may be up to `x` milliseconds out of date. The
    /// client library enforces this with a per-segment real-time stamp.
    Temporal(u64),
    /// At most `x` *basis points* (hundredths of a percent) of the
    /// segment's primitive data may be out of date. The server enforces
    /// this from the primitives changed by each version since the
    /// reader's (a coarse count: a created block counts as one), and
    /// sends an update to a reader at version 0 or one older than the
    /// history it keeps.
    Diff(u32),
}

impl Coherence {
    /// Convenience constructor for Diff coherence given a percentage.
    ///
    /// # Examples
    ///
    /// ```
    /// use iw_proto::coherence::Coherence;
    /// assert_eq!(Coherence::diff_percent(2.5), Coherence::Diff(250));
    /// ```
    pub fn diff_percent(pct: f64) -> Self {
        Coherence::Diff((pct * 100.0).round() as u32)
    }

    /// Serializes onto a wire writer.
    pub fn encode(&self, w: &mut WireWriter) {
        match self {
            Coherence::Full => w.put_u8(0),
            Coherence::Delta(x) => {
                w.put_u8(1);
                w.put_u32(*x);
            }
            Coherence::Temporal(ms) => {
                w.put_u8(2);
                w.put_u64(*ms);
            }
            Coherence::Diff(bp) => {
                w.put_u8(3);
                w.put_u32(*bp);
            }
        }
    }

    /// Minimum version (`floor`) a read replica must have reached to
    /// serve a read under this model, given `best_known` — the newest
    /// version of the segment the client has confirmed at the primary.
    ///
    /// `None` means reads under this model must always go to the
    /// primary: `Full`, and every zero-bound relaxed model (a bound of
    /// zero collapses to "exactly current", which only the primary can
    /// attest).
    ///
    /// The floor is *knowledge-relative*: `Delta(x)` tolerates a replica
    /// up to `x` versions behind the client's observed frontier, while
    /// `Temporal`/`Diff` require the replica to have caught up to the
    /// frontier itself — Temporal's wall-clock bound is then enforced by
    /// the freshness of the frontier observation (see
    /// [`Coherence::replica_eligible`]), and Diff's divergence bound by
    /// the replica's change history, built from the same diffs as the
    /// primary's.
    pub fn replica_floor(&self, best_known: u64) -> Option<u64> {
        match *self {
            Coherence::Full => None,
            Coherence::Delta(0) | Coherence::Temporal(0) | Coherence::Diff(0) => None,
            Coherence::Delta(x) => Some(best_known.saturating_sub(u64::from(x))),
            Coherence::Temporal(_) | Coherence::Diff(_) => Some(best_known),
        }
    }

    /// Client-side eligibility check: may a replica whose last known
    /// version is `replica_version` serve a read under this model?
    ///
    /// `best_known` is the newest version the client has confirmed at
    /// the primary and `age_ms` is how long ago that confirmation
    /// happened. Only `Temporal` consults the age: every version the
    /// replica might be missing relative to a confirmation made `age_ms`
    /// ago was committed *after* that confirmation, so data at or above
    /// the confirmed frontier is at most `age_ms` stale — the read is
    /// legal exactly while `age_ms` stays within the bound.
    pub fn replica_eligible(&self, replica_version: u64, best_known: u64, age_ms: u64) -> bool {
        match self.replica_floor(best_known) {
            None => false,
            Some(floor) => {
                replica_version >= floor
                    && match *self {
                        Coherence::Temporal(ms) => age_ms <= ms,
                        _ => true,
                    }
            }
        }
    }

    /// Deserializes from a wire reader.
    ///
    /// # Errors
    ///
    /// [`WireError::BadTag`] on an unknown model tag, plus truncation
    /// errors.
    pub fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => Coherence::Full,
            1 => Coherence::Delta(r.get_u32()?),
            2 => Coherence::Temporal(r.get_u64()?),
            3 => Coherence::Diff(r.get_u32()?),
            tag => {
                return Err(WireError::BadTag {
                    what: "coherence model",
                    tag,
                })
            }
        })
    }
}

impl fmt::Display for Coherence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Coherence::Full => f.write_str("full"),
            Coherence::Delta(x) => write!(f, "delta({x})"),
            Coherence::Temporal(ms) => write!(f, "temporal({ms}ms)"),
            Coherence::Diff(bp) => write!(f, "diff({}%)", *bp as f64 / 100.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_models() {
        for c in [
            Coherence::Full,
            Coherence::Delta(3),
            Coherence::Temporal(1500),
            Coherence::Diff(250),
        ] {
            let mut w = WireWriter::new();
            c.encode(&mut w);
            let mut r = WireReader::new(w.finish());
            assert_eq!(Coherence::decode(&mut r).unwrap(), c);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(9);
        let mut r = WireReader::new(w.finish());
        assert!(matches!(
            Coherence::decode(&mut r),
            Err(WireError::BadTag {
                what: "coherence model",
                ..
            })
        ));
    }

    #[test]
    fn display_and_default() {
        assert_eq!(Coherence::default(), Coherence::Full);
        assert_eq!(Coherence::Delta(2).to_string(), "delta(2)");
        assert_eq!(Coherence::Diff(250).to_string(), "diff(2.5%)");
        assert_eq!(Coherence::Temporal(9).to_string(), "temporal(9ms)");
        assert_eq!(Coherence::Full.to_string(), "full");
    }

    #[test]
    fn diff_percent_conversion() {
        assert_eq!(Coherence::diff_percent(0.0), Coherence::Diff(0));
        assert_eq!(Coherence::diff_percent(100.0), Coherence::Diff(10_000));
    }

    #[test]
    fn full_never_replica_eligible() {
        assert_eq!(Coherence::Full.replica_floor(0), None);
        assert_eq!(Coherence::Full.replica_floor(u64::MAX), None);
        assert!(!Coherence::Full.replica_eligible(u64::MAX, 0, 0));
    }

    #[test]
    fn zero_bound_models_always_hit_primary() {
        // A zero bound means "exactly current" — only the primary can
        // attest that, so a replica is never eligible even when it is
        // (as far as the client knows) fully caught up.
        for c in [
            Coherence::Delta(0),
            Coherence::Temporal(0),
            Coherence::Diff(0),
        ] {
            assert_eq!(c.replica_floor(42), None, "{c}");
            assert!(!c.replica_eligible(42, 42, 0), "{c}");
            assert!(!c.replica_eligible(u64::MAX, 0, 0), "{c}");
        }
        assert_eq!(Coherence::diff_percent(0.0).replica_floor(7), None);
    }

    #[test]
    fn delta_floor_saturates_at_version_distance_overflow() {
        // Bound wider than the whole version history: floor saturates to
        // 0 instead of wrapping below it.
        assert_eq!(Coherence::Delta(u32::MAX).replica_floor(5), Some(0));
        assert!(Coherence::Delta(u32::MAX).replica_eligible(0, 5, u64::MAX));
        // Frontier at the u64 ceiling: the subtraction must not panic
        // and the floor lands exactly `x` below the ceiling.
        assert_eq!(
            Coherence::Delta(3).replica_floor(u64::MAX),
            Some(u64::MAX - 3)
        );
        assert!(Coherence::Delta(3).replica_eligible(u64::MAX - 3, u64::MAX, 0));
        assert!(!Coherence::Delta(3).replica_eligible(u64::MAX - 4, u64::MAX, 0));
    }

    #[test]
    fn delta_distance_measured_from_best_known() {
        let c = Coherence::Delta(2);
        assert_eq!(c.replica_floor(10), Some(8));
        assert!(c.replica_eligible(8, 10, u64::MAX)); // age ignored
        assert!(c.replica_eligible(10, 10, 0));
        assert!(c.replica_eligible(11, 10, 0)); // replica ahead of us: fine
        assert!(!c.replica_eligible(7, 10, 0));
    }

    #[test]
    fn temporal_age_at_clock_granularity_boundaries() {
        let c = Coherence::Temporal(50);
        // Exactly at the bound is still legal (<=, not <): a clock that
        // ticks in whole milliseconds must not flap at the boundary.
        assert!(c.replica_eligible(10, 10, 50));
        assert!(!c.replica_eligible(10, 10, 51));
        // Age 0 (confirmation this very tick) with a caught-up replica.
        assert!(c.replica_eligible(10, 10, 0));
        // A caught-up frontier observation that is too old is useless no
        // matter how fresh the replica claims to be.
        assert!(!c.replica_eligible(u64::MAX, 10, u64::MAX));
        // Temporal requires the replica at (or past) the frontier.
        assert!(!c.replica_eligible(9, 10, 0));
        // 1 ms bound at the granularity edge: 0 and 1 pass, 2 fails.
        let tight = Coherence::Temporal(1);
        assert!(tight.replica_eligible(3, 3, 0));
        assert!(tight.replica_eligible(3, 3, 1));
        assert!(!tight.replica_eligible(3, 3, 2));
    }

    #[test]
    fn diff_requires_caught_up_replica() {
        let c = Coherence::Diff(250);
        assert_eq!(c.replica_floor(9), Some(9));
        assert!(c.replica_eligible(9, 9, u64::MAX)); // age ignored
        assert!(!c.replica_eligible(8, 9, 0));
        assert!(c.replica_eligible(u64::MAX, u64::MAX, 0));
    }
}
