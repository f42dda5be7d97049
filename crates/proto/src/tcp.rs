//! TCP transport: the same protocol over real sockets.
//!
//! Frames are `u32` big-endian length prefixes followed by the encoded
//! message. The paper's clients cache one TCP connection per segment table
//! entry; here a [`TcpTransport`] is one such cached connection.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use iw_telemetry::Registry;

use crate::caps::PeerCaps;
use crate::msg::{Reply, Request};
use crate::transport::{
    FaultAction, FaultLayer, ProtoError, Transport, TransportMetrics, TransportStats,
};

/// Writes one length-prefixed frame as a single vectored write, so the
/// length prefix and the body leave in one syscall (and, with Nagle off,
/// one TCP segment for small frames) instead of two `write_all` calls.
/// Short writes fall back to plain writes of the remainder.
///
/// Generic over the stream so the blocking transports and test
/// harnesses (in-memory cursors, instrumented sockets) share one
/// codec.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_frame<S: Write>(stream: &mut S, body: &[u8]) -> io::Result<()> {
    let prefix = (body.len() as u32).to_be_bytes();
    let total = prefix.len() + body.len();
    let mut done = 0usize;
    while done < total {
        let n = if done < prefix.len() {
            stream.write_vectored(&[io::IoSlice::new(&prefix[done..]), io::IoSlice::new(body)])?
        } else {
            stream.write(&body[done - prefix.len()..])?
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "failed to write whole frame",
            ));
        }
        done += n;
    }
    stream.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// Generic over the stream (see [`write_frame`]); `iw-net`'s
/// incremental decoder is property-tested byte-for-byte against this
/// function.
///
/// # Errors
///
/// Propagates I/O errors; a frame longer than 256 MiB is rejected as
/// `InvalidData`.
pub fn read_frame<S: Read>(stream: &mut S) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > 256 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// The accept backoff after `errs` consecutive fd-exhaustion failures:
/// 10 ms doubling to a ~1 s cap. Keeps a process at `EMFILE` serving
/// its existing connections instead of spinning on (or abandoning) the
/// accept loop (`iw-net`).
pub fn accept_retry_delay(errs: u32) -> Duration {
    Duration::from_millis(10u64.saturating_mul(1 << errs.min(7)))
}

/// `true` for errno values meaning the process or system ran out of
/// file descriptors (`ENFILE` / `EMFILE`).
pub fn is_fd_exhaustion(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// Default connect/read/write timeout for client connections: long enough
/// for any healthy round trip, short enough that a hung or partitioned
/// server surfaces as a transport error the failover machinery can act
/// on, instead of blocking in `read_frame` forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A client connection to an InterWeave server over TCP.
pub struct TcpTransport {
    stream: TcpStream,
    metrics: TransportMetrics,
    /// Optional per-message fault layer (see `iw-faults`).
    faults: Option<Box<dyn FaultLayer>>,
    /// Capabilities advertised on Hello.
    local_caps: PeerCaps,
    /// Capabilities the server's Welcome agreed to (v1 until then).
    negotiated: PeerCaps,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("stream", &self.stream)
            .field("faulty", &self.faults.is_some())
            .finish()
    }
}

impl TcpTransport {
    /// Connects to a server with [`DEFAULT_IO_TIMEOUT`] applied to the
    /// connect itself and to every subsequent read and write.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        TcpTransport::connect_with_timeout(addr, Some(DEFAULT_IO_TIMEOUT))
    }

    /// Connects to a server with an explicit I/O timeout (`None` =
    /// block indefinitely, the pre-cluster behavior).
    ///
    /// # Errors
    ///
    /// Propagates connection errors, including a connect timeout.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Option<Duration>) -> io::Result<Self> {
        let stream = match timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(TcpTransport {
            stream,
            metrics: TransportMetrics::default(),
            faults: None,
            local_caps: PeerCaps::ALL,
            negotiated: PeerCaps::NONE,
        })
    }

    /// Caps what this client advertises on Hello ([`PeerCaps::NONE`]
    /// simulates a pre-v2 client against a modern server).
    pub fn set_local_caps(&mut self, caps: PeerCaps) {
        self.local_caps = caps;
        self.negotiated = self.negotiated.intersect(caps);
    }

    /// The capabilities negotiated with the server so far.
    pub fn negotiated_caps(&self) -> PeerCaps {
        self.negotiated
    }

    /// Changes the read/write timeouts on the live connection.
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` errors.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Installs a per-message [`FaultLayer`] consulted on every round
    /// trip. Connection-breaking faults (`Drop`, `DropReply`,
    /// `Truncate`) shut the real socket down, so later requests on this
    /// transport fail exactly like they would after a genuine reset.
    pub fn set_fault_layer(&mut self, layer: Box<dyn FaultLayer>) {
        self.faults = Some(layer);
    }

    fn read_reply(&mut self) -> Result<Reply, ProtoError> {
        let bytes = read_frame(&mut self.stream)
            .map_err(|e| ProtoError::Channel(e.to_string()))?
            .ok_or_else(|| ProtoError::Channel("server closed connection".into()))?;
        self.metrics.received(bytes.len() as u64);
        let (reply, caps) = Reply::decode_full(Bytes::from(bytes))?;
        if matches!(reply, Reply::Welcome { .. }) {
            self.negotiated = caps.intersect(self.local_caps);
        }
        Ok(reply)
    }
}

impl Transport for TcpTransport {
    fn request(&mut self, req: &Request) -> Result<Reply, ProtoError> {
        let body = match req {
            Request::Hello { .. } => req.encode_caps(self.local_caps),
            _ => req.encode_caps(self.negotiated),
        };
        self.metrics.sent(req, body.len() as u64);
        let action = match &mut self.faults {
            Some(layer) => layer.plan(req, &body),
            None => FaultAction::Deliver,
        };
        let sent: Bytes = match action {
            FaultAction::Deliver => body,
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                body
            }
            FaultAction::Drop => {
                let _ = self.stream.shutdown(Shutdown::Both);
                return Err(ProtoError::Channel(
                    "injected: connection reset before delivery".into(),
                ));
            }
            FaultAction::DropReply => {
                write_frame(&mut self.stream, &body)
                    .map_err(|e| ProtoError::Channel(e.to_string()))?;
                let _ = self.stream.shutdown(Shutdown::Both);
                return Err(ProtoError::Channel(
                    "injected: connection lost awaiting reply".into(),
                ));
            }
            FaultAction::Corrupt(bytes) => bytes,
            FaultAction::Truncate(n) => {
                // Announce the full frame but deliver only a prefix,
                // then die: the peer observes a torn frame mid-stream.
                let keep = n.min(body.len());
                let announce = (body.len() as u32).to_be_bytes();
                let _ = self
                    .stream
                    .write_all(&announce)
                    .and_then(|()| self.stream.write_all(&body[..keep]))
                    .and_then(|()| self.stream.flush());
                let _ = self.stream.shutdown(Shutdown::Both);
                return Err(ProtoError::Channel("injected: truncated write".into()));
            }
            FaultAction::Duplicate => {
                write_frame(&mut self.stream, &body)
                    .map_err(|e| ProtoError::Channel(e.to_string()))?;
                write_frame(&mut self.stream, &body)
                    .map_err(|e| ProtoError::Channel(e.to_string()))?;
                let first = self.read_reply()?;
                // Drain the duplicate's reply so the stream stays in
                // request/reply sync for the next round trip.
                let _ = read_frame(&mut self.stream);
                return Ok(first);
            }
        };
        write_frame(&mut self.stream, &sent).map_err(|e| ProtoError::Channel(e.to_string()))?;
        self.read_reply()
    }

    fn stats(&self) -> TransportStats {
        self.metrics.view()
    }

    fn reset_stats(&mut self) {
        self.metrics.reset();
    }

    fn bind_registry(&mut self, registry: &Arc<Registry>) {
        self.metrics = TransportMetrics::new(registry);
        if let Some(layer) = &mut self.faults {
            layer.bind_registry(registry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn hung_server_times_out_as_channel_error() {
        // A listener that accepts connections but never answers: without
        // read timeouts the client would block in read_frame forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let mut t =
            TcpTransport::connect_with_timeout(addr, Some(Duration::from_millis(200))).unwrap();
        let started = std::time::Instant::now();
        let err = t.request(&Request::Hello {
            info: "probe".into(),
        });
        assert!(matches!(err, Err(ProtoError::Channel(_))), "{err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "timed out via the socket timeout, not the server's sleep"
        );
        hold.join().unwrap();
    }
}
