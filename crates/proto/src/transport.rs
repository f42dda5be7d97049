//! Transports carrying protocol messages, with byte accounting.
//!
//! All transports move *encoded* messages, even the in-process loopback,
//! so the byte counters reflect exactly what would cross a network. The
//! bandwidth results (paper Figure 7) are computed from these counters.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use iw_telemetry::{Counter, Registry};

use crate::msg::{Reply, Request};

/// Errors raised by transports and protocol handling.
#[derive(Debug)]
pub enum ProtoError {
    /// A message failed to encode or decode.
    Wire(iw_wire::codec::WireError),
    /// The underlying channel failed (connection reset, handler died…).
    Channel(String),
    /// The server reported an error.
    Server(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Wire(e) => write!(f, "wire format error: {e}"),
            ProtoError::Channel(m) => write!(f, "transport failure: {m}"),
            ProtoError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl Error for ProtoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProtoError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<iw_wire::codec::WireError> for ProtoError {
    fn from(e: iw_wire::codec::WireError) -> Self {
        ProtoError::Wire(e)
    }
}

/// Byte and message counters for a transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Bytes sent (requests).
    pub bytes_sent: u64,
    /// Bytes received (replies).
    pub bytes_received: u64,
    /// Number of round trips.
    pub requests: u64,
}

impl TransportStats {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// Pre-resolved traffic counters living in a [`Registry`].
///
/// A transport starts with a private registry; [`Transport::bind_registry`]
/// re-homes the counters into a shared one (typically the session's) so a
/// single scrape sees traffic alongside the client metrics. Names:
/// `proto.requests_total`, `proto.bytes_sent_total`,
/// `proto.bytes_received_total`, and per message kind
/// `proto.req.<kind>_total` / `proto.req.<kind>_bytes_total`.
#[derive(Debug)]
pub(crate) struct TransportMetrics {
    requests: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
    per_kind: Vec<PerKind>,
}

#[derive(Debug)]
struct PerKind {
    count: Arc<Counter>,
    bytes: Arc<Counter>,
}

impl TransportMetrics {
    pub fn new(registry: &Arc<Registry>) -> Self {
        let per_kind = Request::KINDS
            .iter()
            .map(|k| PerKind {
                count: registry.counter(&format!("proto.req.{k}_total")),
                bytes: registry.counter(&format!("proto.req.{k}_bytes_total")),
            })
            .collect();
        TransportMetrics {
            requests: registry.counter("proto.requests_total"),
            bytes_sent: registry.counter("proto.bytes_sent_total"),
            bytes_received: registry.counter("proto.bytes_received_total"),
            per_kind,
        }
    }

    /// Accounts the request leg of one round trip.
    pub fn sent(&self, req: &Request, bytes: u64) {
        self.requests.inc();
        self.bytes_sent.add(bytes);
        let k = &self.per_kind[req.kind_index()];
        k.count.inc();
        k.bytes.add(bytes);
    }

    /// Accounts the reply leg of one round trip.
    pub fn received(&self, bytes: u64) {
        self.bytes_received.add(bytes);
    }

    /// The aggregate counters as a plain [`TransportStats`] value.
    pub fn view(&self) -> TransportStats {
        TransportStats {
            bytes_sent: self.bytes_sent.get(),
            bytes_received: self.bytes_received.get(),
            requests: self.requests.get(),
        }
    }

    /// Zeroes every counter (between experiment phases).
    pub fn reset(&self) {
        self.requests.reset();
        self.bytes_sent.reset();
        self.bytes_received.reset();
        for k in &self.per_kind {
            k.count.reset();
            k.bytes.reset();
        }
    }
}

impl Default for TransportMetrics {
    fn default() -> Self {
        TransportMetrics::new(&Arc::new(Registry::default()))
    }
}

/// A synchronous request/reply transport to one InterWeave server.
///
/// Implementations must count encoded bytes in [`Transport::stats`].
pub trait Transport: Send {
    /// Performs one round trip.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Channel`] on transport failure, [`ProtoError::Wire`]
    /// on undecodable replies.
    fn request(&mut self, req: &Request) -> Result<Reply, ProtoError>;

    /// Cumulative traffic counters.
    fn stats(&self) -> TransportStats;

    /// Resets the traffic counters (between experiment phases).
    fn reset_stats(&mut self);

    /// Re-homes the transport's traffic counters into `registry`, so one
    /// scrape covers transport and application metrics together. Call
    /// before traffic flows: counts accumulated earlier stay behind in
    /// the private registry. Default: no-op for transports that keep no
    /// counters.
    fn bind_registry(&mut self, _registry: &Arc<Registry>) {}
}

/// A message handler: something that can answer encoded requests with
/// encoded replies (in practice, an `iw-server` instance).
///
/// `handle` takes `&self`: handlers are internally synchronized, so a
/// multi-threaded transport front-end (one thread per TCP connection,
/// or many loopback clients) calls straight into the handler with no
/// global serialization. Requests touching disjoint server state run
/// fully in parallel; what still excludes what is the handler's own
/// (fine-grained) locking decision.
pub trait Handler: Send + Sync {
    /// Handles one encoded request, returning the encoded reply.
    fn handle(&self, request: Bytes) -> Bytes;
}

impl<F: Fn(Bytes) -> Bytes + Send + Sync> Handler for F {
    fn handle(&self, request: Bytes) -> Bytes {
        self(request)
    }
}

/// The fate a [`FaultLayer`] chose for one request leg.
///
/// Every variant corresponds to a failure a real network can produce;
/// the transport wearing the layer acts the decision out so the rest of
/// the system sees exactly what it would see in production.
#[derive(Debug)]
pub enum FaultAction {
    /// Pass the message through untouched.
    Deliver,
    /// Sleep, then deliver normally (latency, head-of-line blocking).
    Delay(std::time::Duration),
    /// Never deliver; fail the round trip like a reset connection.
    Drop,
    /// Deliver the request but lose the reply — the connection died
    /// after the server acted, the hardest case for exactly-once
    /// assumptions.
    DropReply,
    /// Deliver these bytes instead of the encoded request (corruption
    /// in flight; the reply path is left intact).
    Corrupt(Bytes),
    /// Partial write: the peer observes only the first `n` encoded
    /// bytes of a frame that announced more, and the caller sees a
    /// channel error (a torn frame from a mid-stream death).
    Truncate(usize),
    /// Deliver the request twice; the first reply wins (retry storms,
    /// at-least-once delivery layers).
    Duplicate,
}

/// A per-message fault-injection layer any [`Transport`] can wear.
///
/// The layer is consulted once per round trip with the decoded request
/// and its encoded bytes, and returns the [`FaultAction`] the transport
/// must act out. Implementations live in `iw-faults` (seeded PRNG plus
/// scripted schedules); transports carry `Option<Box<dyn FaultLayer>>`
/// so the default configuration pays nothing.
pub trait FaultLayer: Send {
    /// Decides the fate of one request leg.
    fn plan(&mut self, req: &Request, encoded: &Bytes) -> FaultAction;

    /// Re-homes any telemetry counters the layer keeps (same contract
    /// as [`Transport::bind_registry`]). Default: no-op.
    fn bind_registry(&mut self, _registry: &Arc<Registry>) {}
}

/// An in-process loopback transport: requests are encoded, handed to a
/// shared [`Handler`], and the encoded reply is decoded — byte-for-byte
/// what a socket would carry, without the socket.
///
/// Cloning produces another client connection to the same handler.
/// Concurrent connections invoke the handler concurrently, exactly like
/// per-connection TCP worker threads.
pub struct Loopback {
    handler: Arc<dyn Handler>,
    metrics: TransportMetrics,
    /// Optional per-message fault layer (see `iw-faults`).
    faults: Option<Box<dyn FaultLayer>>,
}

impl fmt::Debug for Loopback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Loopback")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Loopback {
    /// Wraps a handler.
    pub fn new(handler: Arc<dyn Handler>) -> Self {
        Loopback {
            handler,
            metrics: TransportMetrics::default(),
            faults: None,
        }
    }

    /// Returns a second connection to the same handler (its own counters).
    pub fn another(&self) -> Self {
        Loopback::new(self.handler.clone())
    }

    /// Installs a per-message [`FaultLayer`] consulted on every round
    /// trip (see `iw-faults` for the seeded implementation).
    pub fn set_fault_layer(&mut self, layer: Box<dyn FaultLayer>) {
        self.faults = Some(layer);
    }
}

impl Transport for Loopback {
    fn request(&mut self, req: &Request) -> Result<Reply, ProtoError> {
        let encoded = req.encode();
        self.metrics.sent(req, encoded.len() as u64);
        let action = match &mut self.faults {
            Some(layer) => layer.plan(req, &encoded),
            None => FaultAction::Deliver,
        };
        let delivered = match action {
            FaultAction::Deliver => encoded,
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                encoded
            }
            FaultAction::Drop => {
                return Err(ProtoError::Channel(
                    "injected: connection reset before delivery".into(),
                ));
            }
            FaultAction::DropReply => {
                let _ = self.handler.handle(encoded);
                return Err(ProtoError::Channel(
                    "injected: connection lost awaiting reply".into(),
                ));
            }
            FaultAction::Corrupt(bytes) => bytes,
            FaultAction::Truncate(n) => {
                // The handler observes the torn prefix (as a TCP peer
                // would before the connection died); the caller only
                // learns the write failed.
                let keep = n.min(encoded.len());
                let _ = self.handler.handle(encoded.slice(0..keep));
                return Err(ProtoError::Channel("injected: truncated write".into()));
            }
            FaultAction::Duplicate => {
                let first = self.handler.handle(encoded.clone());
                let _ = self.handler.handle(encoded);
                self.metrics.received(first.len() as u64);
                return Ok(Reply::decode(first)?);
            }
        };
        let reply_bytes = self.handler.handle(delivered);
        self.metrics.received(reply_bytes.len() as u64);
        Ok(Reply::decode(reply_bytes)?)
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

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: Bytes| {
            // Parrot a Welcome whose id is the request length.
            Reply::Welcome {
                client: req.len() as u64,
                replicas: vec![],
            }
            .encode()
        })
    }

    #[test]
    fn loopback_counts_encoded_bytes() {
        let mut t = Loopback::new(echo_handler());
        let req = Request::Hello { info: "abc".into() };
        let expect_len = req.encode().len() as u64;
        let reply = t.request(&req).unwrap();
        assert_eq!(
            reply,
            Reply::Welcome {
                client: expect_len,
                replicas: vec![]
            }
        );
        let s = t.stats();
        assert_eq!(s.requests, 1);
        assert_eq!(s.bytes_sent, expect_len);
        assert!(s.bytes_received > 0);
        assert_eq!(s.total_bytes(), s.bytes_sent + s.bytes_received);
    }

    #[test]
    fn reset_clears_counters() {
        let mut t = Loopback::new(echo_handler());
        t.request(&Request::Hello {
            info: String::new(),
        })
        .unwrap();
        t.reset_stats();
        assert_eq!(t.stats(), TransportStats::default());
    }

    #[test]
    fn cloned_connections_share_handler_not_stats() {
        let mut a = Loopback::new(echo_handler());
        let mut b = a.another();
        a.request(&Request::Hello { info: "x".into() }).unwrap();
        a.request(&Request::Hello { info: "x".into() }).unwrap();
        b.request(&Request::Hello { info: "x".into() }).unwrap();
        assert_eq!(a.stats().requests, 2);
        assert_eq!(b.stats().requests, 1);
    }

    #[test]
    fn fault_layer_scripts_per_message_actions() {
        /// Deterministic script: drop the 2nd leg, duplicate the 4th,
        /// deliver everything else.
        struct Script {
            n: u64,
        }
        impl FaultLayer for Script {
            fn plan(&mut self, _req: &Request, _encoded: &Bytes) -> FaultAction {
                self.n += 1;
                match self.n {
                    2 => FaultAction::Drop,
                    4 => FaultAction::Duplicate,
                    _ => FaultAction::Deliver,
                }
            }
        }
        let mut t = Loopback::new(echo_handler());
        t.set_fault_layer(Box::new(Script { n: 0 }));
        let hello = Request::Hello {
            info: String::new(),
        };
        assert!(t.request(&hello).is_ok());
        assert!(matches!(t.request(&hello), Err(ProtoError::Channel(_))));
        assert!(t.request(&hello).is_ok());
        // The duplicate leg still yields exactly one reply to the caller.
        assert!(t.request(&hello).is_ok());
        assert_eq!(t.stats().requests, 4);
    }

    #[test]
    fn undecodable_reply_is_wire_error() {
        let garbage: Arc<dyn Handler> = Arc::new(|_req: Bytes| Bytes::from_static(&[0xFF, 0x00]));
        let mut t = Loopback::new(garbage);
        assert!(matches!(
            t.request(&Request::Hello {
                info: String::new()
            }),
            Err(ProtoError::Wire(_))
        ));
    }

    #[test]
    fn proto_error_display_and_source() {
        let e = ProtoError::Server("nope".into());
        assert!(e.to_string().contains("nope"));
        assert!(e.source().is_none());
        let w = ProtoError::Wire(iw_wire::codec::WireError::InvalidUtf8);
        assert!(w.source().is_some());
    }
}
