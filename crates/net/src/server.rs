//! The run-to-completion server front end.
//!
//! `workers` identical loops (`iw-net-loop-{i}`), each with its own
//! poller, connection slab, read buffer and idle sweep. A loop that
//! finds a complete frame on one of its sockets **calls the shared
//! [`Handler`] itself** with the frame's bytes, frames the reply and
//! writes it on the spot: no queue, no second thread, no wake-up between
//! a request's bytes arriving and its reply leaving. The front end never
//! decodes a request; what the bytes mean is the handler's business.
//! Loop 0 also owns the listener and hands accepted sockets out
//! strictly round-robin, so a connection lives on exactly one loop and
//! its replies are in request order by construction.
//!
//! Connections are per-flow state machines (`Conn`): incremental frame
//! decode on the way in ([`FrameDecoder`]), an outbound queue holding
//! only what a nonblocking write could not take, and explicit limits in
//! between:
//!
//! - **Admission control** — beyond `max_connections`, a fresh
//!   connection's first request is answered with the typed
//!   [`Reply::Overloaded`] and the connection is closed after the
//!   flush; beyond an additional headroom of rejecting slots the
//!   connection is dropped outright (counted, never served). Decided at
//!   accept time by loop 0 on counters all loops share.
//! - **Backpressure** — a connection whose unsent replies exceed a
//!   fixed backlog (`MAX_OUT_BACKLOG`) is neither read nor served until
//!   the peer has taken them; its kernel receive window fills and the
//!   client blocks in its own `write`.
//! - **Fairness** — one `read` and at most `FRAMES_PER_TURN` handler
//!   calls per connection per turn of the loop. Frames left complete in
//!   a decoder are not something a level-triggered poller reports, so
//!   such connections sit on the loop's ready list, which is served
//!   every turn and polled around with a zero timeout.
//! - **Lingering** — a loop that has just answered a peer known to come
//!   straight back keeps polling for `LINGER` before it parks, so that
//!   peer's next request finds the loop looking instead of paying for a
//!   cross-CPU wake-up.
//! - **Idle timeouts** — connections with nothing buffered either way
//!   are closed after `idle_timeout`.
//! - **Graceful drain** — dropping the server stops accepting and
//!   reading; every loop finishes the handler it is in (it *is* the
//!   loop), flushes its outbound queues (bounded by `drain_timeout`),
//!   then exits.
//!
//! A handler that blocks (a WAL fsync, an injected delay) stalls the
//! connections of its own loop and no others, and at most `workers`
//! handlers run at once.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iw_proto::msg::Reply;
use iw_proto::tcp::{accept_retry_delay, is_fd_exhaustion};
use iw_proto::Handler;
use iw_telemetry::{Counter, Gauge, Registry};

use crate::decode::FrameDecoder;
use crate::poller::{Event, Interest, Poller, PollerKind};

/// Token reserved for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token reserved for the wake pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// How many admission-rejected connections may sit in their
/// reply-then-close handshake at once; beyond this the accept loop
/// drops new connections without a reply.
const REJECT_HEADROOM: usize = 256;

/// How long an admission-rejected connection may linger before the
/// loop closes it even if its typed reply never flushed.
const REJECT_LINGER: Duration = Duration::from_secs(10);

/// Unsent reply bytes beyond which a connection is no longer read or
/// served until its queue has drained.
const MAX_OUT_BACKLOG: usize = 1 << 20;

/// Handler calls one connection gets per turn of its loop, so a
/// pipelining client cannot starve the loop's other connections.
const FRAMES_PER_TURN: usize = 32;

/// How long a loop that has just served a quick peer keeps polling
/// (zero timeout, yielding the CPU between looks) before it parks in
/// the poller. A parked loop is woken for the next request by an
/// inter-processor interrupt that costs several times what the handler
/// does (~25 µs against 2–4 µs where this was measured); a loop that is
/// still looking needs no wake-up at all. A peer is quick when its last
/// two requests each followed the one before within [`QUICK_GAP`]: a
/// client that waits for each reply and has little to do in between,
/// which is what an `acquire`/`release` pair around a small write looks
/// like from here. For anyone slower the looking could not pay off.
const LINGER: Duration = Duration::from_micros(50);

/// The request-to-request gap under which a peer counts as quick: the
/// linger window plus a serve and a wake-up, so that a peer served from
/// a parked loop can qualify in the first place.
const QUICK_GAP: Duration = Duration::from_micros(100);

/// The longest a loop sleeps in its poller with nothing to do.
const MAX_TICK: Duration = Duration::from_millis(250);

/// Tuning knobs for a [`NetServer`].
#[derive(Debug)]
pub struct NetOptions {
    /// Run-to-completion loops; each owns its share of the connections
    /// and calls the handler itself, so this is also the number of
    /// handlers that can run (or block) at once.
    pub workers: usize,
    /// Served-connection cap; further connections get the typed
    /// [`Reply::Overloaded`] answer (admission control).
    pub max_connections: usize,
    /// Close connections idle longer than this (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Bound on the graceful drain when the server is dropped.
    pub drain_timeout: Duration,
    /// Readiness backend; epoll is the only one.
    #[doc(hidden)]
    pub poller: PollerKind,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            workers: 4,
            max_connections: 4096,
            idle_timeout: None,
            drain_timeout: Duration::from_secs(5),
            poller: PollerKind::Epoll,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the loops share: the handler, the limits, the admission
/// counters and the front-end telemetry.
struct Shared {
    handler: Arc<dyn Handler>,
    stop: AtomicBool,
    max_connections: usize,
    idle_timeout: Option<Duration>,
    drain_timeout: Duration,
    /// Served connections, counted at accept time by loop 0 and
    /// released by whichever loop closes the connection.
    open: AtomicUsize,
    /// Admission-rejected connections still in their handshake.
    rejecting_open: AtomicUsize,
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    accept_errors: Arc<Counter>,
    open_gauge: Arc<Gauge>,
    read_stalls: Arc<Counter>,
    write_stalls: Arc<Counter>,
    idle_closed: Arc<Counter>,
    panics: Arc<Counter>,
}

impl Shared {
    /// Runs the handler on one request body, turning a panic into a
    /// counted `Reply::Error` so one poison request costs neither the
    /// connection nor the loop.
    fn call(&self, body: Bytes) -> Bytes {
        match catch_unwind(AssertUnwindSafe(|| self.handler.handle(body))) {
            Ok(reply) => reply,
            Err(cause) => {
                self.panics.inc();
                let msg = cause
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| cause.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".into());
                eprintln!("iw-net: handler panicked while serving a request: {msg}");
                Reply::Error {
                    message: format!("internal server error: request handler panicked: {msg}"),
                }
                .encode()
            }
        }
    }

    /// Gives back the admission slot a connection held.
    fn release_slot(&self, rejecting: bool) {
        if rejecting {
            self.rejecting_open.fetch_sub(1, Ordering::SeqCst);
        } else {
            self.open.fetch_sub(1, Ordering::SeqCst);
            self.open_gauge.sub(1);
        }
    }
}

/// How a loop is reached from outside: accepted sockets (with their
/// admission verdict) go into `inbox`, and a byte down `wake_tx` makes
/// the loop look — at the inbox and at the stop flag.
struct Mailbox {
    inbox: Mutex<Vec<(TcpStream, bool)>>,
    wake_tx: File,
}

impl Mailbox {
    fn wake(&self) {
        // A full pipe means a wake is already pending — ignore.
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Reply bytes a nonblocking write could not take, oldest first.
    out: VecDeque<Bytes>,
    out_bytes: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Admission-rejected: first frame is answered `Overloaded`, then
    /// the connection closes.
    rejecting: bool,
    /// Flush the outbound queue, then close.
    close_after_flush: bool,
    /// Over [`MAX_OUT_BACKLOG`]: not read, not served, until `out` is
    /// empty again.
    stalled: bool,
    /// On the loop's ready list (may hold complete frames the poller
    /// knows nothing about); not read again until served.
    queued: bool,
    /// The previous request came within [`QUICK_GAP`] of the one before.
    was_quick: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, rejecting: bool) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: VecDeque::new(),
            out_bytes: 0,
            interest: Interest::READ,
            rejecting,
            close_after_flush: false,
            stalled: false,
            queued: false,
            was_quick: false,
            last_activity: Instant::now(),
        }
    }

    fn push_out(&mut self, bytes: Bytes) {
        if !bytes.is_empty() {
            self.out_bytes += bytes.len();
            self.out.push_back(bytes);
        }
    }

    /// Sends `body` as one frame: one vectored `[prefix, body]` write
    /// when nothing is queued ahead of it, and only what that write did
    /// not take is queued.
    ///
    /// # Errors
    ///
    /// The peer is gone; the connection must be closed.
    fn send_frame(&mut self, body: Bytes, write_stalls: &Counter) -> io::Result<()> {
        let prefix = (body.len() as u32).to_be_bytes();
        let mut done = 0;
        if self.out.is_empty() {
            let total = prefix.len() + body.len();
            while done < total {
                let wrote = if done < prefix.len() {
                    (&self.stream)
                        .write_vectored(&[IoSlice::new(&prefix[done..]), IoSlice::new(&body)])
                } else {
                    (&self.stream).write(&body[done - prefix.len()..])
                };
                match wrote {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => done += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        write_stalls.inc();
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if done == total {
                return Ok(());
            }
        }
        if done < prefix.len() {
            self.push_out(Bytes::copy_from_slice(&prefix[done..]));
            self.push_out(body);
        } else {
            self.push_out(body.slice(done - prefix.len()..));
        }
        Ok(())
    }

    /// Writes queued reply bytes until the queue is empty or the socket
    /// is full.
    ///
    /// # Errors
    ///
    /// The peer is gone; the connection must be closed.
    fn flush(&mut self, write_stalls: &Counter) -> io::Result<()> {
        while let Some(front) = self.out.front_mut() {
            match (&self.stream).write(front) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_bytes -= n;
                    if n == front.len() {
                        self.out.pop_front();
                    } else {
                        *front = front.slice(n..);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Resume when writable again.
                    write_stalls.inc();
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The listener and the round-robin over every loop's mailbox; loop 0
/// only.
struct Acceptor {
    listener: TcpListener,
    registered: bool,
    mailboxes: Vec<Arc<Mailbox>>,
    /// The loop the next accepted socket goes to.
    next: usize,
    paused_until: Option<Instant>,
    errs: u32,
}

struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    wake_rx: File,
    mailbox: Arc<Mailbox>,
    acceptor: Option<Acceptor>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots whose decoder may hold complete frames, or whose backlog
    /// just drained: served every turn, readiness or not.
    ready: Vec<usize>,
    draining: bool,
    drain_deadline: Option<Instant>,
    last_sweep: Instant,
    /// When this loop last served a quick peer (see [`LINGER`]).
    linger_from: Instant,
    read_buf: Vec<u8>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A failed wait is unrecoverable for the loop; exit so
                // Drop does not hang.
                break;
            }
            if events.is_empty() && timeout.is_zero() && self.ready.is_empty() {
                // Polling, not parked: let whatever else wants this CPU
                // (a sibling loop, most of all) have it between looks.
                std::thread::yield_now();
            }
            let mut accept_ready = false;
            let mut woken = false;
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKE => woken = true,
                    token => self.handle_conn_event(token as usize, ev),
                }
            }
            self.serve_ready();
            if woken {
                self.drain_wake_pipe();
                self.install_inbox();
            }
            self.maybe_resume_accept();
            if accept_ready {
                self.do_accept();
            }
            self.sweep_idle();
            if self.shared.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.drain_finished() {
                break;
            }
        }
    }

    /// How often this loop must look at its deadlines when no socket
    /// wakes it.
    fn tick(&self) -> Duration {
        let mut t = MAX_TICK;
        if let Some(idle) = self.shared.idle_timeout {
            t = t.min(idle / 4);
        }
        if self.shared.rejecting_open.load(Ordering::Relaxed) > 0 {
            t = t.min(Duration::from_millis(100));
        }
        t
    }

    fn next_timeout(&self) -> Duration {
        if !self.ready.is_empty() || self.linger_from.elapsed() < LINGER {
            return Duration::ZERO;
        }
        let mut t = self.tick();
        let paused_until = self.acceptor.as_ref().and_then(|a| a.paused_until);
        for deadline in [paused_until, self.drain_deadline].into_iter().flatten() {
            let left = deadline.saturating_duration_since(Instant::now());
            t = t.min(left.max(Duration::from_millis(1)));
        }
        if self.draining {
            t = t.min(Duration::from_millis(20));
        }
        t
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.wake_rx.read(&mut buf), Ok(n) if n == buf.len()) {}
    }

    fn handle_conn_event(&mut self, slot: usize, ev: Event) {
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return; // closed earlier in this batch
        }
        if ev.readable || ev.closed {
            self.pump_read(slot);
        }
        if self.conns[slot].is_some() && (ev.writable || ev.closed) {
            self.pump_write(slot);
        }
    }

    // ---- accept path (loop 0) ---------------------------------------

    fn maybe_resume_accept(&mut self) {
        let Some(acc) = self.acceptor.as_mut() else {
            return;
        };
        if acc
            .paused_until
            .is_some_and(|until| Instant::now() >= until)
        {
            acc.paused_until = None;
            self.register_listener(true);
            self.do_accept();
        }
    }

    fn register_listener(&mut self, on: bool) {
        let Some(acc) = self.acceptor.as_mut() else {
            return;
        };
        let fd = acc.listener.as_raw_fd();
        if on && !acc.registered && !self.draining {
            let _ = self.poller.register(fd, TOKEN_LISTENER, Interest::READ);
            acc.registered = true;
        } else if !on && acc.registered {
            self.poller.deregister(fd, TOKEN_LISTENER);
            acc.registered = false;
        }
    }

    fn do_accept(&mut self) {
        loop {
            let Some(acc) = self.acceptor.as_mut() else {
                return;
            };
            if self.draining || acc.paused_until.is_some() {
                return;
            }
            match acc.listener.accept() {
                Ok((stream, _)) => {
                    acc.errs = 0;
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    self.shared.accept_errors.inc();
                    if is_fd_exhaustion(&e) {
                        // Out of fds: stop accepting for a while and
                        // keep serving the connections we have.
                        let delay = accept_retry_delay(acc.errs);
                        acc.errs = acc.errs.saturating_add(1);
                        acc.paused_until = Some(Instant::now() + delay);
                        self.register_listener(false);
                        return;
                    }
                    // Transient per-connection errors (ECONNABORTED…):
                    // keep accepting.
                }
            }
        }
    }

    /// Decides admission for a fresh socket and hands it to the next
    /// loop in accept order — never to "whichever is idle": two clients
    /// that connect back to back must land on different loops.
    fn admit(&mut self, stream: TcpStream) {
        let shared = &self.shared;
        let rejecting = shared.open.load(Ordering::SeqCst) >= shared.max_connections;
        if rejecting {
            shared.rejected.inc();
            if shared.rejecting_open.load(Ordering::SeqCst) >= REJECT_HEADROOM {
                // No reply slots left either: drop outright.
                return;
            }
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        if rejecting {
            shared.rejecting_open.fetch_add(1, Ordering::SeqCst);
        } else {
            shared.open.fetch_add(1, Ordering::SeqCst);
            shared.accepted.inc();
            shared.open_gauge.add(1);
        }
        let acc = self.acceptor.as_mut().expect("only loop 0 accepts");
        let target = acc.next;
        acc.next = (target + 1) % acc.mailboxes.len();
        if target == 0 {
            self.install_conn(stream, rejecting);
        } else {
            let mailbox = &acc.mailboxes[target];
            lock(&mailbox.inbox).push((stream, rejecting));
            mailbox.wake();
        }
    }

    fn install_inbox(&mut self) {
        let arrived = std::mem::take(&mut *lock(&self.mailbox.inbox));
        for (stream, rejecting) in arrived {
            self.install_conn(stream, rejecting);
        }
    }

    fn install_conn(&mut self, stream: TcpStream, rejecting: bool) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self.draining
            || self
                .poller
                .register(stream.as_raw_fd(), slot as u64, Interest::READ)
                .is_err()
        {
            self.free.push(slot);
            self.shared.release_slot(rejecting);
            return;
        }
        self.conns[slot] = Some(Conn::new(stream, rejecting));
    }

    // ---- read path --------------------------------------------------

    /// One `read` into the connection's decoder, then one turn of
    /// service. Never a second, probing `read`: the poller is
    /// level-triggered and reports whatever this one left behind.
    fn pump_read(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if self.draining || conn.stalled || conn.queued || conn.close_after_flush {
            return; // not reading
        }
        match (&conn.stream).read(&mut self.read_buf) {
            Ok(0) => self.close_conn(slot),
            Ok(n) => {
                conn.decoder.extend(&self.read_buf[..n]);
                self.serve(slot);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => self.close_conn(slot),
        }
    }

    /// Serves every connection on the ready list once.
    fn serve_ready(&mut self) {
        for slot in std::mem::take(&mut self.ready) {
            // A slot closed (and perhaps re-let) since it was listed
            // is no longer `queued`.
            if let Some(conn) = self.conns[slot].as_mut().filter(|c| c.queued) {
                conn.queued = false;
                self.serve(slot);
            }
        }
    }

    /// One turn of service: up to [`FRAMES_PER_TURN`] buffered frames
    /// of `slot` run to completion — handler, reply on the wire. A connection that may hold more goes onto the
    /// ready list.
    fn serve(&mut self, slot: usize) {
        for _ in 0..FRAMES_PER_TURN {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if self.draining || conn.stalled || conn.close_after_flush {
                // Frames stay buffered: a stalled connection resumes
                // through the ready list, the other two never do.
                return;
            }
            let body = match conn.decoder.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => return,
                Err(_) => return self.close_conn(slot), // unframeable stream
            };
            let now = Instant::now();
            let quick = now.duration_since(conn.last_activity) < QUICK_GAP;
            if quick && conn.was_quick {
                self.linger_from = now;
            }
            conn.was_quick = quick;
            conn.last_activity = now;
            let reply = if conn.rejecting {
                // Typed admission answer, then close.
                conn.close_after_flush = true;
                Reply::Overloaded.encode()
            } else {
                self.shared.call(body)
            };
            let sent = conn.send_frame(reply, &self.shared.write_stalls);
            if sent.is_err() || (conn.close_after_flush && conn.out.is_empty()) {
                return self.close_conn(slot);
            }
            if conn.out_bytes > MAX_OUT_BACKLOG {
                conn.stalled = true;
                self.shared.read_stalls.inc();
            }
            self.sync_interest(slot);
        }
        // Turn used up: there may be more, and no readiness event will
        // say so.
        let conn = self.conns[slot].as_mut().expect("served to the end");
        conn.queued = true;
        self.ready.push(slot);
    }

    // ---- write path -------------------------------------------------

    fn pump_write(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.out.is_empty() {
            return;
        }
        let flushed = conn.flush(&self.shared.write_stalls);
        conn.last_activity = Instant::now();
        if flushed.is_err() || (conn.out.is_empty() && conn.close_after_flush) {
            return self.close_conn(slot);
        }
        if conn.out.is_empty() && conn.stalled {
            // Backlog gone: serve what piled up in the decoder, then
            // read again.
            conn.stalled = false;
            if !conn.queued {
                conn.queued = true;
                self.ready.push(slot);
            }
        }
        self.sync_interest(slot);
    }

    // ---- lifecycle --------------------------------------------------

    fn sync_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let want = Interest {
            read: !conn.stalled && !conn.close_after_flush && !self.draining,
            write: !conn.out.is_empty(),
        };
        if want != conn.interest {
            conn.interest = want;
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), slot as u64, want);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        self.poller.deregister(conn.stream.as_raw_fd(), slot as u64);
        self.shared.release_slot(conn.rejecting);
        self.free.push(slot);
        // conn (and its socket) drop here.
    }

    fn sweep_idle(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < self.tick() {
            return;
        }
        self.last_sweep = now;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            let quiet = now.duration_since(conn.last_activity);
            let close = if conn.rejecting {
                quiet > REJECT_LINGER
            } else {
                self.shared
                    .idle_timeout
                    .is_some_and(|t| quiet > t && conn.out.is_empty() && !conn.queued)
            };
            if close {
                self.shared.idle_closed.inc();
                self.close_conn(slot);
            }
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.shared.drain_timeout);
        self.register_listener(false);
        // Stop reading everywhere; what is already answered still
        // leaves.
        self.ready.clear();
        for slot in 0..self.conns.len() {
            self.sync_interest(slot);
        }
    }

    fn drain_finished(&self) -> bool {
        self.drain_deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
            || self.conns.iter().flatten().all(|c| c.out.is_empty())
    }
}

/// A running TCP server wrapping a [`Handler`]: `workers`
/// run-to-completion loops, each owning its sockets and calling the
/// handler itself. Dropping the value drains gracefully (see
/// [`NetOptions`]).
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    mailboxes: Vec<Arc<Mailbox>>,
    loops: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("loops", &self.loops.len())
            .finish()
    }
}

impl NetServer {
    /// Binds `addr` (port 0 for ephemeral) with default options and a
    /// private registry.
    ///
    /// # Errors
    ///
    /// Bind or poller-creation failure.
    pub fn spawn(addr: SocketAddr, handler: Arc<dyn Handler>) -> io::Result<NetServer> {
        NetServer::spawn_with(
            addr,
            handler,
            NetOptions::default(),
            &Arc::new(Registry::new()),
        )
    }

    /// Binds `addr` and serves `handler` with explicit options, homing
    /// the front-end telemetry (`tcp.open_connections`,
    /// `tcp.accepted_total`, `tcp.rejected_total`, stall counters,
    /// `tcp.worker_panics_total`, `tcp.loops`) in `registry`.
    ///
    /// # Errors
    ///
    /// Bind or poller-creation failure.
    pub fn spawn_with(
        addr: SocketAddr,
        handler: Arc<dyn Handler>,
        opts: NetOptions,
        registry: &Arc<Registry>,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let loops = opts.workers.max(1);
        registry.gauge("tcp.loops").set(loops as i64);
        let shared = Arc::new(Shared {
            handler,
            stop: AtomicBool::new(false),
            max_connections: opts.max_connections.max(1),
            idle_timeout: opts.idle_timeout,
            drain_timeout: opts.drain_timeout,
            open: AtomicUsize::new(0),
            rejecting_open: AtomicUsize::new(0),
            accepted: registry.counter("tcp.accepted_total"),
            rejected: registry.counter("tcp.rejected_total"),
            accept_errors: registry.counter("tcp.accept_errors_total"),
            open_gauge: registry.gauge("tcp.open_connections"),
            read_stalls: registry.counter("tcp.read_stalls_total"),
            write_stalls: registry.counter("tcp.write_stalls_total"),
            idle_closed: registry.counter("tcp.idle_closed_total"),
            panics: registry.counter("tcp.worker_panics_total"),
        });

        let mut parts = Vec::with_capacity(loops);
        for _ in 0..loops {
            let mut poller = Poller::new()?;
            let (wake_rx, wake_tx) = crate::sys::wake_pipe()?;
            poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
            let mailbox = Arc::new(Mailbox {
                inbox: Mutex::new(Vec::new()),
                wake_tx,
            });
            parts.push((poller, wake_rx, mailbox));
        }
        let mailboxes: Vec<Arc<Mailbox>> = parts.iter().map(|p| p.2.clone()).collect();
        parts[0]
            .0
            .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let mut acceptor = Some(Acceptor {
            listener,
            registered: true,
            mailboxes: mailboxes.clone(),
            next: 0,
            paused_until: None,
            errs: 0,
        });

        let mut server = NetServer {
            addr: local,
            shared: shared.clone(),
            mailboxes,
            loops: Vec::with_capacity(loops),
        };
        for (i, (poller, wake_rx, mailbox)) in parts.into_iter().enumerate() {
            let event_loop = EventLoop {
                shared: shared.clone(),
                poller,
                wake_rx,
                mailbox,
                acceptor: acceptor.take(),
                conns: Vec::new(),
                free: Vec::new(),
                ready: Vec::new(),
                draining: false,
                drain_deadline: None,
                last_sweep: Instant::now(),
                linger_from: Instant::now(),
                read_buf: vec![0u8; 64 << 10],
            };
            // On failure `server` drops here, stopping the loops
            // already running.
            server.loops.push(
                std::thread::Builder::new()
                    .name(format!("iw-net-loop-{i}"))
                    .spawn(move || event_loop.run())?,
            );
        }
        Ok(server)
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for mailbox in &self.mailboxes {
            mailbox.wake();
        }
        for t in self.loops.drain(..) {
            let _ = t.join();
        }
    }
}
