//! The server-side reader/writer lock table.
//!
//! "Synchronization takes the form of reader-writer locks that take a
//! segment handle as parameter. A process must hold a writer lock on a
//! segment in order to allocate, free, or modify blocks." (§2.1)
//!
//! Grants are non-blocking: an incompatible request is answered `false`
//! and the client library retries, so a transport thread is never parked
//! holding server state.
//!
//! The table also records *claims*: a segment is claimed while a commit
//! holds a checked, not yet installed plan for it, and no other diff may
//! land on it until the claim ends.

use std::collections::{HashMap, HashSet};

use iw_proto::LockMode;

/// Lock state for one segment.
#[derive(Debug, Default)]
struct LockState {
    readers: HashSet<u64>,
    writer: Option<u64>,
    claimed: bool,
}

/// Reader/writer locks for all segments on a server.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: HashMap<String, LockState>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Attempts to acquire `mode` on `segment` for `client`. Returns
    /// whether the lock was granted. Re-acquisition by the current holder
    /// is idempotent.
    pub fn acquire(&mut self, segment: &str, client: u64, mode: LockMode) -> bool {
        let st = self.locks.entry(segment.to_string()).or_default();
        match mode {
            LockMode::Read => {
                if st.writer.is_some() && st.writer != Some(client) {
                    return false;
                }
                st.readers.insert(client);
                true
            }
            LockMode::Write => {
                if let Some(w) = st.writer {
                    return w == client;
                }
                if st.readers.iter().any(|&r| r != client) {
                    return false;
                }
                st.writer = Some(client);
                true
            }
        }
    }

    /// Releases whatever `client` holds on `segment`. Returns `true` when
    /// the client actually held something.
    pub fn release(&mut self, segment: &str, client: u64) -> bool {
        let Some(st) = self.locks.get_mut(segment) else {
            return false;
        };
        let mut held = st.readers.remove(&client);
        if st.writer == Some(client) {
            st.writer = None;
            held = true;
        }
        held
    }

    /// `true` when `client` currently holds the writer lock on `segment`.
    pub fn is_writer(&self, segment: &str, client: u64) -> bool {
        self.locks
            .get(segment)
            .is_some_and(|st| st.writer == Some(client))
    }

    /// Claims `segment` for one commit, from its check to its install.
    /// Returns `false` if it is already claimed: another commit, or an
    /// earlier entry of the same one, has a plan for it in flight.
    pub fn claim(&mut self, segment: &str) -> bool {
        let st = self.locks.entry(segment.to_string()).or_default();
        !std::mem::replace(&mut st.claimed, true)
    }

    /// Ends a claim taken by [`LockTable::claim`].
    pub fn unclaim(&mut self, segment: &str) {
        if let Some(st) = self.locks.get_mut(segment) {
            st.claimed = false;
        }
    }

    /// `true` while a commit has `segment` claimed.
    pub fn is_claimed(&self, segment: &str) -> bool {
        self.locks.get(segment).is_some_and(|st| st.claimed)
    }

    /// Releases everything `client` holds (client disconnect).
    pub fn release_all(&mut self, client: u64) {
        for st in self.locks.values_mut() {
            st.readers.remove(&client);
            if st.writer == Some(client) {
                st.writer = None;
            }
        }
    }

    /// Number of readers currently holding `segment` (diagnostics).
    pub fn reader_count(&self, segment: &str) -> usize {
        self.locks.get(segment).map_or(0, |st| st.readers.len())
    }

    /// The client holding the writer lock on `segment`, if any.
    pub fn writer(&self, segment: &str) -> Option<u64> {
        self.locks.get(segment).and_then(|st| st.writer)
    }

    /// Total locks currently held across all segments (each reader and
    /// each writer counts as one).
    pub fn held_count(&self) -> usize {
        self.locks
            .values()
            .map(|st| st.readers.len() + usize::from(st.writer.is_some()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_share() {
        let mut t = LockTable::new();
        assert!(t.acquire("s", 1, LockMode::Read));
        assert!(t.acquire("s", 2, LockMode::Read));
        assert_eq!(t.reader_count("s"), 2);
    }

    #[test]
    fn writer_excludes_readers_and_writers() {
        let mut t = LockTable::new();
        assert!(t.acquire("s", 1, LockMode::Write));
        assert!(!t.acquire("s", 2, LockMode::Read));
        assert!(!t.acquire("s", 2, LockMode::Write));
        assert!(t.is_writer("s", 1));
        assert!(!t.is_writer("s", 2));
    }

    #[test]
    fn readers_block_writer() {
        let mut t = LockTable::new();
        assert!(t.acquire("s", 1, LockMode::Read));
        assert!(!t.acquire("s", 2, LockMode::Write));
        t.release("s", 1);
        assert!(t.acquire("s", 2, LockMode::Write));
    }

    #[test]
    fn reacquire_is_idempotent() {
        let mut t = LockTable::new();
        assert!(t.acquire("s", 1, LockMode::Write));
        assert!(t.acquire("s", 1, LockMode::Write));
        assert!(t.acquire("s", 1, LockMode::Read), "writer may also read");
    }

    #[test]
    fn upgrade_when_sole_reader() {
        let mut t = LockTable::new();
        assert!(t.acquire("s", 1, LockMode::Read));
        assert!(
            t.acquire("s", 1, LockMode::Write),
            "sole reader may upgrade"
        );
        assert!(!t.acquire("s", 2, LockMode::Read));
    }

    #[test]
    fn release_reports_holding() {
        let mut t = LockTable::new();
        assert!(!t.release("s", 1));
        t.acquire("s", 1, LockMode::Write);
        assert!(t.release("s", 1));
        assert!(t.acquire("s", 2, LockMode::Write));
    }

    #[test]
    fn release_all_frees_everything() {
        let mut t = LockTable::new();
        t.acquire("a", 1, LockMode::Write);
        t.acquire("b", 1, LockMode::Read);
        t.release_all(1);
        assert!(t.acquire("a", 2, LockMode::Write));
        assert_eq!(t.reader_count("b"), 0);
    }

    #[test]
    fn claims_are_exclusive_and_outlive_lock_releases() {
        let mut t = LockTable::new();
        t.acquire("s", 1, LockMode::Write);
        assert!(t.claim("s"));
        assert!(!t.claim("s"), "a second claim is refused");
        t.release_all(1);
        assert!(t.is_claimed("s"), "dropping the writer lock keeps it");
        t.unclaim("s");
        assert!(!t.is_claimed("s"));
        assert!(t.claim("other"), "an unlocked segment can be claimed");
    }

    #[test]
    fn locks_are_per_segment() {
        let mut t = LockTable::new();
        assert!(t.acquire("a", 1, LockMode::Write));
        assert!(t.acquire("b", 2, LockMode::Write));
    }
}
