//! In-situ spans recorded from the benchmark's own files, around the
//! calls into each layer: [`TracedTransport`] wraps the client's
//! `TcpTransport` (and the primary's ship link), [`TracedHandler`] wraps
//! the handler given to `NetServer`. Spans stay in memory and are written
//! out when the run ends. Nothing here is installed unless `--trace` is
//! on, so end-to-end numbers never pay for it.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use iw_proto::{Handler, ProtoError, Reply, Request, Transport, TransportStats};
use iw_telemetry::Registry;

/// Request kinds whose spans feed per-layer metrics, as indices into
/// `Request::KINDS`.
pub const KIND_ACQUIRE: u8 = 2;
/// See [`KIND_ACQUIRE`].
pub const KIND_RELEASE: u8 = 3;
/// See [`KIND_ACQUIRE`].
pub const KIND_POLL: u8 = 4;
/// See [`KIND_ACQUIRE`].
pub const KIND_REPLICATE: u8 = 7;

/// How many request bodies of each kind [`TracedHandler`] keeps for the
/// replay spans.
const CAPTURE_PER_KIND: usize = 64;

/// The trace's shared clock and on/off switch. Recording is switched on
/// for the measured phase only, while no request is in flight.
#[derive(Debug)]
pub struct TraceClock {
    origin: Instant,
    on: AtomicBool,
}

impl TraceClock {
    /// A clock starting now, recording off.
    pub fn new() -> Arc<Self> {
        Arc::new(TraceClock {
            origin: Instant::now(),
            on: AtomicBool::new(false),
        })
    }

    /// Nanoseconds since the trace origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `t` as nanoseconds since the trace origin.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Switches recording.
    pub fn set_recording(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn recording(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
}

/// One client-side round trip.
#[derive(Debug, Clone, Copy)]
pub struct RttSpan {
    /// The generator op that issued the request (0 = none, e.g. ship link).
    pub op: u64,
    /// Index into `Request::KINDS`.
    pub kind: u8,
    /// The reply was `Busy` (the gap to the next request is lock backoff).
    pub busy: bool,
    /// Client id the request carried (0 when it carries none).
    pub client: u64,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
}

/// Where one [`TracedTransport`] keeps its spans. The generator stores
/// the id of the op it is executing in `op` before calling into the
/// session, so every span of one op shares that identifier.
#[derive(Debug)]
pub struct ClientSink {
    clock: Arc<TraceClock>,
    /// Id of the op currently executing on this connection.
    pub op: AtomicU64,
    spans: Mutex<Vec<RttSpan>>,
}

impl ClientSink {
    /// An empty sink on `clock`.
    pub fn new(clock: &Arc<TraceClock>) -> Arc<Self> {
        Arc::new(ClientSink {
            clock: clock.clone(),
            op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Takes the recorded spans, in issue order.
    pub fn take(&self) -> Vec<RttSpan> {
        std::mem::take(&mut self.spans.lock().expect("span sink"))
    }
}

/// A `Transport` that times every round trip of the transport it wraps.
pub struct TracedTransport {
    inner: Box<dyn Transport>,
    sink: Arc<ClientSink>,
}

impl TracedTransport {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: Box<dyn Transport>, sink: Arc<ClientSink>) -> Self {
        TracedTransport { inner, sink }
    }
}

impl Transport for TracedTransport {
    fn request(&mut self, req: &Request) -> Result<Reply, ProtoError> {
        if !self.sink.clock.recording() {
            return self.inner.request(req);
        }
        let start = self.sink.clock.now();
        let reply = self.inner.request(req);
        let end = self.sink.clock.now();
        self.sink.spans.lock().expect("span sink").push(RttSpan {
            op: self.sink.op.load(Ordering::Relaxed),
            kind: req.kind_index() as u8,
            busy: matches!(reply, Ok(Reply::Busy)),
            client: req.client_id().unwrap_or(0),
            start,
            end,
        });
        reply
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn bind_registry(&mut self, registry: &Arc<Registry>) {
        self.inner.bind_registry(registry);
    }
}

/// One server-side handler call.
#[derive(Debug, Clone, Copy)]
pub struct HandleSpan {
    /// Index into `Request::KINDS` (the request's leading tag byte).
    pub kind: u8,
    /// Client id peeked from the request (0 when it carries none).
    pub client: u64,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
}

const SHARDS: usize = 8;

/// A `Handler` that times every call into the handler it wraps and keeps
/// a bounded sample of request bodies for the replay spans.
pub struct TracedHandler {
    inner: Arc<dyn Handler>,
    clock: Arc<TraceClock>,
    /// Sharded by client id, so concurrent workers rarely share a lock.
    spans: [Mutex<Vec<HandleSpan>>; SHARDS],
    captured_releases: AtomicUsize,
    captured_acquires: AtomicUsize,
    captured: Mutex<Vec<Bytes>>,
}

impl TracedHandler {
    /// Wraps `inner` on `clock`.
    pub fn new(inner: Arc<dyn Handler>, clock: &Arc<TraceClock>) -> Arc<Self> {
        Arc::new(TracedHandler {
            inner,
            clock: clock.clone(),
            spans: Default::default(),
            captured_releases: AtomicUsize::new(0),
            captured_acquires: AtomicUsize::new(0),
            captured: Mutex::new(Vec::new()),
        })
    }

    /// Takes the recorded spans, ordered by start time.
    pub fn take_spans(&self) -> Vec<HandleSpan> {
        let mut all: Vec<HandleSpan> = Vec::new();
        for shard in &self.spans {
            all.append(&mut shard.lock().expect("span shard"));
        }
        all.sort_by_key(|s| s.start);
        all
    }

    /// The captured request bodies (acquires and diff-carrying releases).
    pub fn captured(&self) -> Vec<Bytes> {
        self.captured.lock().expect("capture").clone()
    }
}

/// Kind and client id of an encoded request, without decoding it: the
/// leading tag byte equals the request's index in `Request::KINDS`, and
/// every kind that carries a client id puts it next, big-endian.
fn peek(request: &[u8]) -> (u8, u64) {
    let kind = request.first().copied().unwrap_or(u8::MAX);
    // hello, replicate, syncfull and attach carry no client id.
    let client = match kind {
        0 | 7 | 8 | 9 => 0,
        _ => request
            .get(1..9)
            .map_or(0, |b| u64::from_be_bytes(b.try_into().expect("8 bytes"))),
    };
    (kind, client)
}

/// Whether an encoded release has its diff flag set (the byte after the
/// length-prefixed segment name).
fn release_carries_diff(request: &[u8]) -> bool {
    let Some(len) = request.get(9..13) else {
        return false;
    };
    let len = u32::from_be_bytes(len.try_into().expect("4 bytes")) as usize;
    request.get(13 + len) == Some(&1)
}

impl Handler for TracedHandler {
    fn handle(&self, request: Bytes) -> Bytes {
        if !self.clock.recording() {
            return self.inner.handle(request);
        }
        let (kind, client) = peek(&request);
        let counter = match kind {
            KIND_RELEASE if release_carries_diff(&request) => Some(&self.captured_releases),
            KIND_ACQUIRE => Some(&self.captured_acquires),
            _ => None,
        };
        if let Some(counter) = counter {
            if counter.load(Ordering::Relaxed) < CAPTURE_PER_KIND
                && counter.fetch_add(1, Ordering::Relaxed) < CAPTURE_PER_KIND
            {
                self.captured.lock().expect("capture").push(request.clone());
            }
        }
        let start = self.clock.now();
        let reply = self.inner.handle(request);
        let end = self.clock.now();
        self.spans[client as usize % SHARDS]
            .lock()
            .expect("span shard")
            .push(HandleSpan {
                kind,
                client,
                start,
                end,
            });
        reply
    }
}

/// One generator op (a commit or a read), the root span of its requests.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    /// Unique id, shared with the op's [`RttSpan`]s.
    pub id: u64,
    /// `true` for a read (`rl_acquire`..`rl_release`), `false` for a commit.
    pub read: bool,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
}

/// Where the time of one op went. By construction
/// `span = self_ns + backoff_ns + Σ(transit + handle)` exactly.
#[derive(Debug, Clone)]
pub struct OpBreakdown {
    /// The op.
    pub op: OpSpan,
    /// Client-library time: span minus round trips and backoff sleeps.
    pub self_ns: u64,
    /// Sleeps after `Busy` replies (gap from a busy reply to the next
    /// request of the op).
    pub backoff_ns: u64,
    /// Per round trip: `(kind, transit ns, handle ns)`; transit is the
    /// round trip minus the matching handler span.
    pub legs: Vec<(u8, u64, u64)>,
}

/// Pairs every client round trip with its handler span and breaks each op
/// down. Connections are closed-loop, so the n-th round trip of a client
/// id is the n-th handler call for it. Returns an error when the two
/// sides disagree in count or a handler span does not nest inside its
/// round trip — either means the trace is not trustworthy.
pub fn breakdown(
    ops: &[OpSpan],
    rtts: &[RttSpan],
    handles: &[HandleSpan],
) -> Result<Vec<OpBreakdown>, String> {
    use std::collections::HashMap;
    let mut by_client: HashMap<u64, Vec<&HandleSpan>> = HashMap::new();
    for h in handles {
        by_client.entry(h.client).or_default().push(h);
    }
    let mut next: HashMap<u64, usize> = HashMap::new();
    let mut legs_of: HashMap<u64, Vec<(RttSpan, u64)>> = HashMap::new();
    let mut sorted: Vec<&RttSpan> = rtts.iter().collect();
    sorted.sort_by_key(|r| r.start);
    for r in sorted {
        let i = next.entry(r.client).or_insert(0);
        let h = by_client
            .get(&r.client)
            .and_then(|v| v.get(*i))
            .ok_or_else(|| format!("client {}: round trip {} has no handler span", r.client, i))?;
        *i += 1;
        if h.kind != r.kind || h.start < r.start || h.end > r.end {
            return Err(format!(
                "client {}: handler span {}..{} (kind {}) does not nest in round trip {}..{} (kind {})",
                r.client, h.start, h.end, h.kind, r.start, r.end, r.kind
            ));
        }
        legs_of.entry(r.op).or_default().push((*r, h.end - h.start));
    }
    for (client, used) in &next {
        let have = by_client.get(client).map_or(0, Vec::len);
        if have != *used {
            return Err(format!(
                "client {client}: {have} handler spans for {used} round trips"
            ));
        }
    }
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        let legs = legs_of.remove(&op.id).unwrap_or_default();
        let mut rtt_total = 0u64;
        let mut backoff = 0u64;
        for (i, (r, _)) in legs.iter().enumerate() {
            if r.start < op.start || r.end > op.end {
                return Err(format!("op {}: a round trip falls outside the op", op.id));
            }
            rtt_total += r.end - r.start;
            if r.busy {
                if let Some((nextr, _)) = legs.get(i + 1) {
                    backoff += nextr.start - r.end;
                }
            }
        }
        out.push(OpBreakdown {
            op: *op,
            self_ns: (op.end - op.start) - rtt_total - backoff,
            backoff_ns: backoff,
            legs: legs
                .iter()
                .map(|(r, h)| (r.kind, (r.end - r.start) - h, *h))
                .collect(),
        });
    }
    Ok(out)
}

/// Spans of one traced pass.
#[derive(Debug, Default)]
pub struct TraceData {
    /// Generator ops.
    pub ops: Vec<OpSpan>,
    /// Client round trips, every connection.
    pub rtts: Vec<RttSpan>,
    /// Primary handler calls.
    pub handles: Vec<HandleSpan>,
    /// Backup handler calls.
    pub backup_handles: Vec<HandleSpan>,
    /// Ship-link round trips.
    pub ship: Vec<RttSpan>,
    /// Request bodies captured at the primary's handler.
    pub captured: Vec<Bytes>,
}

/// Writes every span as one JSON document: a header naming the columns
/// and one row per span, children pointing at their parent's id.
pub fn write_json(path: &Path, workload: &str, seed: u64, t: &TraceData) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since trace origin\",\
         \"columns\":[\"layer\",\"name\",\"op\",\"client\",\"start_ns\",\"end_ns\"],\
         \"note\":\"rows with the same op belong to one request chain: bench op > proto.rtt > server.handle \
         (matched per client in issue order); self time = span minus children\",\"spans\":["
    )?;
    let kind = |k: u8| Request::KINDS.get(k as usize).copied().unwrap_or("unknown");
    let mut sep = "";
    let mut row =
        |layer: &str, prefix: &str, name: &str, op: u64, client: u64, span: (u64, u64)| {
            let (start, end) = span;
            let r = write!(
                w,
                "{sep}\n[\"{layer}\",\"{prefix}{name}\",{op},{client},{start},{end}]"
            );
            sep = ",";
            r
        };
    for o in &t.ops {
        let name = if o.read { "read" } else { "commit" };
        row("bench", "", name, o.id, 0, (o.start, o.end))?;
    }
    for r in &t.rtts {
        row(
            "proto",
            "rtt.",
            kind(r.kind),
            r.op,
            r.client,
            (r.start, r.end),
        )?;
    }
    for h in &t.handles {
        row(
            "server",
            "handle.",
            kind(h.kind),
            0,
            h.client,
            (h.start, h.end),
        )?;
    }
    for r in &t.ship {
        row("cluster", "ship.", kind(r.kind), 0, 0, (r.start, r.end))?;
    }
    for h in &t.backup_handles {
        row(
            "cluster",
            "backup.handle.",
            kind(h.kind),
            0,
            h.client,
            (h.start, h.end),
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_reads_tag_and_client() {
        let req = Request::Poll {
            client: 77,
            segment: "s".into(),
            have_version: 1,
            coherence: iw_proto::Coherence::Full,
            floor: 0,
        };
        assert_eq!(peek(&req.encode()), (req.kind_index() as u8, 77));
        let release = |diff| Request::Release {
            client: 3,
            segment: "host/seg".into(),
            diff,
        };
        assert!(!release_carries_diff(&release(None).encode()));
        assert!(release_carries_diff(
            &release(Some(iw_wire::SegmentDiff::default())).encode()
        ));
        let hello = Request::Hello { info: "x".into() };
        assert_eq!(peek(&hello.encode()), (0, 0));
        for k in [
            Request::Goodbye { client: 5 },
            Request::Frontier { client: 5 },
            Request::Stats { client: 5 },
        ] {
            assert_eq!(peek(&k.encode()), (k.kind_index() as u8, 5));
        }
    }
}
