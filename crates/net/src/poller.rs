//! Readiness polling behind one safe interface.
//!
//! The event loop speaks [`Poller`]; the backend is either **epoll**
//! (Linux, O(ready) wake-ups, the production path) or **`poll(2)`**
//! (POSIX fallback, O(registered) scans — plenty for tests and small
//! deployments, and it keeps the loop honest about portability).
//! Both deliver the same [`Event`] records keyed by caller tokens.

use std::collections::HashMap;
use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::time::Duration;

use crate::sys;

/// Which readiness backend a [`Poller`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollerKind {
    /// Linux `epoll`: interest registered once, wake-ups are O(ready).
    Epoll,
    /// Portable `poll(2)`: the fd set is rebuilt per wait.
    Poll,
}

impl PollerKind {
    /// The preferred backend for this platform.
    pub fn default_for_platform() -> PollerKind {
        if cfg!(target_os = "linux") {
            PollerKind::Epoll
        } else {
            PollerKind::Poll
        }
    }

    /// Parses `"epoll"` / `"poll"`.
    pub fn parse(s: &str) -> Option<PollerKind> {
        match s {
            "epoll" => Some(PollerKind::Epoll),
            "poll" => Some(PollerKind::Poll),
            _ => None,
        }
    }
}

impl std::fmt::Display for PollerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PollerKind::Epoll => "epoll",
            PollerKind::Poll => "poll",
        })
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

    fn poll_bits(self) -> i16 {
        let mut bits = 0;
        if self.read {
            bits |= sys::POLLIN;
        }
        if self.write {
            bits |= sys::POLLOUT;
        }
        bits
    }
}

enum Backend {
    Epoll {
        epfd: OwnedFd,
        buf: Vec<sys::EpollEvent>,
    },
    Poll {
        registered: HashMap<u64, (RawFd, Interest)>,
        /// Scratch `pollfd` array and the token each row maps to,
        /// rebuilt per wait.
        fds: Vec<sys::PollFd>,
        tokens: Vec<u64>,
    },
}

/// A registered set of fds that can be waited on for readiness.
pub struct Poller {
    backend: Backend,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("kind", &self.kind())
            .finish()
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
    /// Creates a poller of the given kind.
    ///
    /// # Errors
    ///
    /// `epoll_create1` failure (epoll backend only).
    pub fn new(kind: PollerKind) -> io::Result<Poller> {
        let backend = match kind {
            PollerKind::Epoll => Backend::Epoll {
                epfd: sys::epoll_create()?,
                buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
            },
            PollerKind::Poll => Backend::Poll {
                registered: HashMap::new(),
                fds: Vec::new(),
                tokens: Vec::new(),
            },
        };
        Ok(Poller { backend })
    }

    /// The backend in use.
    pub fn kind(&self) -> PollerKind {
        match &self.backend {
            Backend::Epoll { .. } => PollerKind::Epoll,
            Backend::Poll { .. } => PollerKind::Poll,
        }
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failure (epoll backend only).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll { epfd, .. } => sys::epoll_control(
                epfd.as_raw_fd(),
                sys::EPOLL_CTL_ADD,
                fd,
                interest.epoll_bits(),
                token,
            ),
            Backend::Poll { registered, .. } => {
                registered.insert(token, (fd, interest));
                Ok(())
            }
        }
    }

    /// Replaces the interest set of a registered fd.
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failure (epoll backend only).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll { epfd, .. } => sys::epoll_control(
                epfd.as_raw_fd(),
                sys::EPOLL_CTL_MOD,
                fd,
                interest.epoll_bits(),
                token,
            ),
            Backend::Poll { registered, .. } => {
                registered.insert(token, (fd, interest));
                Ok(())
            }
        }
    }

    /// Removes a registered fd. Errors are swallowed: deregistration
    /// races with peer-driven closes and must be idempotent.
    pub fn deregister(&mut self, fd: RawFd, token: u64) {
        match &mut self.backend {
            Backend::Epoll { epfd, .. } => {
                let _ = sys::epoll_control(epfd.as_raw_fd(), sys::EPOLL_CTL_DEL, fd, 0, token);
            }
            Backend::Poll { registered, .. } => {
                registered.remove(&token);
            }
        }
    }

    /// Waits for readiness, appending to `out` (which is cleared first).
    /// `None` blocks indefinitely.
    ///
    /// # Errors
    ///
    /// Backend wait failure (`EINTR` is absorbed and yields no events).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        match &mut self.backend {
            Backend::Epoll { epfd, buf } => {
                let n = sys::epoll_pwait(epfd.as_raw_fd(), buf, timeout_ms(timeout))?;
                for ev in &buf[..n] {
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
            Backend::Poll {
                registered,
                fds,
                tokens,
            } => {
                fds.clear();
                tokens.clear();
                for (&token, &(fd, interest)) in registered.iter() {
                    fds.push(sys::PollFd {
                        fd,
                        events: interest.poll_bits(),
                        revents: 0,
                    });
                    tokens.push(token);
                }
                if fds.is_empty() {
                    // Nothing registered: just honor the timeout.
                    if let Some(t) = timeout {
                        std::thread::sleep(t.min(Duration::from_millis(50)));
                    }
                    return Ok(());
                }
                let n = sys::poll_wait(fds, timeout_ms(timeout))?;
                if n > 0 {
                    for (row, &token) in fds.iter().zip(tokens.iter()) {
                        let bits = row.revents;
                        if bits == 0 {
                            continue;
                        }
                        out.push(Event {
                            token,
                            readable: bits & sys::POLLIN != 0,
                            writable: bits & sys::POLLOUT != 0,
                            closed: bits & (sys::POLLERR | sys::POLLHUP) != 0,
                        });
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn pending_connect_becomes_event(kind: PollerKind) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new(kind).unwrap();
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

    #[test]
    fn epoll_backend_sees_accepts() {
        if cfg!(target_os = "linux") {
            pending_connect_becomes_event(PollerKind::Epoll);
        }
    }

    #[test]
    fn poll_backend_sees_accepts() {
        pending_connect_becomes_event(PollerKind::Poll);
    }

    #[test]
    fn kind_parses() {
        assert_eq!(PollerKind::parse("epoll"), Some(PollerKind::Epoll));
        assert_eq!(PollerKind::parse("poll"), Some(PollerKind::Poll));
        assert_eq!(PollerKind::parse("kqueue"), None);
        assert_eq!(PollerKind::Epoll.to_string(), "epoll");
    }
}
