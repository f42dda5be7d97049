//! Readiness polling behind one safe interface: Linux `epoll`, interest
//! registered once, wake-ups O(ready), delivered as [`Event`] records
//! keyed by caller tokens.

use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::time::Duration;

use crate::sys;

/// The readiness backend: there is one. Kept, with
/// [`NetOptions::poller`](crate::NetOptions::poller), only because
/// existing callers still name it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollerKind {
    /// Linux `epoll`.
    Epoll,
}

impl PollerKind {
    /// [`PollerKind::Epoll`].
    pub fn default_for_platform() -> PollerKind {
        PollerKind::Epoll
    }
}

impl std::fmt::Display for PollerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("epoll")
    }
}

/// One readiness report for a registered fd.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can take more bytes.
    pub writable: bool,
    /// Error or hangup: the owner should read to EOF / close.
    pub closed: bool,
}

/// The interest set for one registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };

    fn epoll_bits(self) -> u32 {
        // A peer's half-close is only news to a connection being read;
        // asked for unconditionally, it would wake a level-triggered
        // loop forever while reading is paused.
        let mut bits = 0;
        if self.read {
            bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.write {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// A registered set of fds that can be waited on for readiness.
pub struct Poller {
    epfd: OwnedFd,
    buf: Vec<sys::EpollEvent>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("epfd", &self.epfd).finish()
    }
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(Duration::ZERO) => 0,
        // Round up so a 100µs timeout does not busy-spin at 0ms.
        Some(t) => t.as_millis().min(i32::MAX as u128).max(1) as i32,
    }
}

impl Poller {
    /// Creates an epoll instance.
    ///
    /// # Errors
    ///
    /// `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::epoll_create()?,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failure.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.control(sys::EPOLL_CTL_ADD, fd, interest.epoll_bits(), token)
    }

    /// Replaces the interest set of a registered fd.
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failure.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.control(sys::EPOLL_CTL_MOD, fd, interest.epoll_bits(), token)
    }

    /// Removes a registered fd. Errors are swallowed: deregistration
    /// races with peer-driven closes and must be idempotent.
    pub fn deregister(&mut self, fd: RawFd, token: u64) {
        let _ = self.control(sys::EPOLL_CTL_DEL, fd, 0, token);
    }

    fn control(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        sys::epoll_control(self.epfd.as_raw_fd(), op, fd, events, token)
    }

    /// Waits for readiness, appending to `out` (which is cleared first).
    /// `None` blocks indefinitely.
    ///
    /// # Errors
    ///
    /// `epoll_pwait` failure (`EINTR` is absorbed and yields no events).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let n = sys::epoll_ready(self.epfd.as_raw_fd(), &mut self.buf, timeout_ms(timeout))?;
        for ev in &self.buf[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn epoll_backend_sees_accepts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no client yet");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 9 && e.readable),
            "{events:?}"
        );
    }
}
