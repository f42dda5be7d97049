//! Raw syscall bindings for readiness polling.
//!
//! The build environment has no crates-registry route, so there is no
//! `libc` crate to lean on. The handful of symbols the event loop needs
//! — `epoll_create1`/`epoll_ctl`/`epoll_pwait`, and `pipe2` for the loop
//! wake-up, all with Linux flag values — are declared here and resolved
//! from the C runtime `std` already links. This is the only
//! module in the workspace that uses `unsafe`; everything above it
//! speaks [`Poller`](crate::poller::Poller) and owned fds.

use std::fs::File;
use std::io;
use std::os::fd::{FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_void};

/// `EPOLLIN`: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: peer shut down the write half.
pub const EPOLLRDHUP: u32 = 0x2000;

/// `epoll_ctl` op: register a new fd.
pub const EPOLL_CTL_ADD: c_int = 1;
/// `epoll_ctl` op: remove a registered fd.
pub const EPOLL_CTL_DEL: c_int = 2;
/// `epoll_ctl` op: change a registered fd's interest set.
pub const EPOLL_CTL_MOD: c_int = 3;

/// `EPOLL_CLOEXEC` for `epoll_create1`.
const EPOLL_CLOEXEC: c_int = 0o200_0000;
/// `O_NONBLOCK` (Linux generic).
const O_NONBLOCK: c_int = 0o4000;
/// `O_CLOEXEC` (Linux generic).
const O_CLOEXEC: c_int = 0o200_0000;

/// One `struct epoll_event`. On x86-64 the kernel ABI packs the struct
/// (u32 events immediately followed by the u64 payload); other
/// architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLL*`).
    pub events: u32,
    /// Caller-owned payload; this crate stores the connection token.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: c_int,
        sigmask: *const c_void,
    ) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Creates an epoll instance (`EPOLL_CLOEXEC`); the returned fd closes
/// itself on drop.
///
/// # Errors
///
/// The raw `epoll_create1` errno.
pub fn epoll_create() -> io::Result<OwnedFd> {
    let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
    // SAFETY: a successful epoll_create1 returns a fresh fd we own.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// `epoll_ctl` over an owned epoll fd.
///
/// # Errors
///
/// The raw `epoll_ctl` errno.
pub fn epoll_control(epfd: RawFd, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent {
        events,
        data: token,
    };
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) })?;
    Ok(())
}

/// Waits on `epfd` (`epoll_pwait` with no signal mask, i.e. a plain
/// epoll wait) into `events`, returning how many entries were filled.
/// `timeout_ms < 0` blocks indefinitely. `EINTR` surfaces as `Ok(0)` so
/// callers simply re-iterate.
///
/// # Errors
///
/// Any other `epoll_pwait` errno.
pub fn epoll_ready(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    let len = events.len() as c_int;
    let n = unsafe { epoll_pwait(epfd, events.as_mut_ptr(), len, timeout_ms, std::ptr::null()) };
    match cvt(n) {
        Ok(n) => Ok(n as usize),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        Err(e) => Err(e),
    }
}

/// Creates a nonblocking close-on-exec pipe `(read, write)` — the event
/// loop's wake-up channel: whoever has news for a loop (an accepted
/// socket, the stop flag) writes a byte, the loop drains it.
///
/// # Errors
///
/// The raw `pipe2` errno.
pub fn wake_pipe() -> io::Result<(File, File)> {
    let mut fds: [c_int; 2] = [-1, -1];
    cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
    // SAFETY: a successful pipe2 returns two fresh fds we own.
    let r = unsafe { File::from_raw_fd(fds[0]) };
    let w = unsafe { File::from_raw_fd(fds[1]) };
    Ok((r, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    #[test]
    fn wake_pipe_roundtrips_and_is_nonblocking() {
        let (mut r, mut w) = wake_pipe().unwrap();
        // Empty pipe: nonblocking read reports WouldBlock instead of hanging.
        let mut buf = [0u8; 8];
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        w.write_all(&[7]).unwrap();
        assert_eq!(r.read(&mut buf).unwrap(), 1);
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn epoll_reports_pipe_readability() {
        let (r, mut w) = wake_pipe().unwrap();
        let ep = epoll_create().unwrap();
        epoll_control(ep.as_raw_fd(), EPOLL_CTL_ADD, r.as_raw_fd(), EPOLLIN, 42).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: times out empty.
        assert_eq!(epoll_ready(ep.as_raw_fd(), &mut events, 0).unwrap(), 0);
        w.write_all(&[1]).unwrap();
        let n = epoll_ready(ep.as_raw_fd(), &mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 42);
    }
}
