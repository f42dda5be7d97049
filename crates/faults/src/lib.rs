//! # iw-faults — deterministic fault injection for InterWeave-rs
//!
//! The failover and replication paths (client→replica-group reconnects,
//! primary→backup diff shipping with catch-up) are the system's
//! hardest-to-trust code, and hand-scripted kill tests only reach a few
//! of their branches. This crate makes *every* recovery branch
//! reachable on demand, reproducibly:
//!
//! - [`FaultInjector`] implements [`iw_proto::FaultLayer`], so any
//!   transport ([`iw_proto::Loopback`] or [`iw_proto::TcpTransport`])
//!   can wear it. Per message it decides — from a splitmix64 PRNG
//!   seeded by the caller, plus an optional scripted schedule — whether
//!   to deliver, delay, drop with connection reset, lose only the
//!   reply, corrupt a byte, truncate the frame mid-stream, or deliver
//!   twice.
//! - Decisions are a pure function of `(seed, message sequence)`: the
//!   same seed over the same request trace injects the same faults, so
//!   any chaos failure reproduces from a logged `seed=…` one-liner.
//! - [`FaultRule`] targets faults by decoded message type ("fail the
//!   3rd `replicate`"), turning one-off regression scenarios — a
//!   truncated `SyncFull` mid-catch-up, a lost `Release` reply — into
//!   two-line schedules.
//! - [`FaultLog`] records every injection (shared across reconnects, so
//!   a trace spans the transports a failing-over session burns through)
//!   and doubles as the kill switch that ends the fault phase of a soak.
//! - [`FaultyHandler`] is the server-side twin: a [`Handler`] ingress
//!   wrapper behind `iwsrv --chaos <seed>`, degrading a whole server
//!   rather than one client's link.
//!
//! The [`chaos`] module builds on these to run whole degraded clusters
//! against a fault-free oracle. The [`kill`] module covers the one
//! fault class no in-process injector can: SIGKILLing a real `iwsrv`
//! mid-commit and proving restart-from-disk recovers byte-identical
//! state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod kill;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use iw_proto::msg::{Reply, Request};
use iw_proto::{FaultAction, FaultLayer, Handler};
use iw_telemetry::{Counter, Registry};
use parking_lot::Mutex;

/// The injectable fault classes, in the fixed order probability draws
/// consult them (order matters for determinism: same seed, same trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Connection reset before the request reaches the peer.
    Drop,
    /// The peer processes the request but the reply is lost
    /// (mid-stream disconnect after delivery).
    DropReply,
    /// One byte of the encoded request is flipped.
    Corrupt,
    /// The peer sees only a prefix of the frame (torn write), then the
    /// connection dies.
    Truncate,
    /// The request is delivered twice; the caller sees one reply.
    Duplicate,
    /// Delivery is delayed.
    Delay,
}

impl FaultKind {
    /// Every kind, in draw order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Drop,
        FaultKind::DropReply,
        FaultKind::Corrupt,
        FaultKind::Truncate,
        FaultKind::Duplicate,
        FaultKind::Delay,
    ];

    /// Stable lowercase name (metric label, trace entry).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::DropReply => "drop_reply",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Truncate => "truncate",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
        }
    }
}

/// One scripted injection: fire `fault` on the `nth` message of kind
/// `kind` (1-based), or the `nth` message overall when `kind` is `None`.
/// Each rule fires at most once.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Decoded message kind to match ([`Request::kind`] name, e.g.
    /// `"replicate"`, `"syncfull"`, `"release"`); `None` matches any.
    pub kind: Option<&'static str>,
    /// Which matching message to hit, 1-based.
    pub nth: u64,
    /// The fault to inject.
    pub fault: FaultKind,
}

/// Per-message fault probabilities (out of 10 000) plus scripted rules.
///
/// Scripted rules are consulted first; the probability draws only run
/// when no rule fires. Classes with rate 0 consume **no** PRNG draws,
/// so e.g. adding a delay rate later does not reshuffle which messages
/// an existing seed drops.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Rate of [`FaultKind::Drop`] per 10 000 messages.
    pub drop_per_10k: u32,
    /// Rate of [`FaultKind::DropReply`] per 10 000 messages.
    pub drop_reply_per_10k: u32,
    /// Rate of [`FaultKind::Corrupt`] per 10 000 messages.
    pub corrupt_per_10k: u32,
    /// Rate of [`FaultKind::Truncate`] per 10 000 messages.
    pub truncate_per_10k: u32,
    /// Rate of [`FaultKind::Duplicate`] per 10 000 messages.
    pub duplicate_per_10k: u32,
    /// Rate of [`FaultKind::Delay`] per 10 000 messages.
    pub delay_per_10k: u32,
    /// Upper bound (exclusive, microseconds) for injected delays.
    pub max_delay_us: u64,
    /// Scripted one-shot injections, consulted before the dice.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// No faults at all (the fault-free oracle's plan).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan of only *recoverable* client-link faults at `per_10k`
    /// each: drops, lost replies, truncations and duplicates — the
    /// classes a correct client must survive — plus short delays.
    /// Corruption is excluded: a corrupted request that still decodes
    /// can poison state in ways no client-side recovery contract
    /// covers (see DESIGN.md §7).
    pub fn recoverable(per_10k: u32) -> FaultPlan {
        FaultPlan {
            drop_per_10k: per_10k,
            drop_reply_per_10k: per_10k,
            truncate_per_10k: per_10k,
            duplicate_per_10k: per_10k,
            delay_per_10k: per_10k,
            max_delay_us: 300,
            ..FaultPlan::default()
        }
    }

    /// Adds a scripted rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    fn rate(&self, kind: FaultKind) -> u32 {
        match kind {
            FaultKind::Drop => self.drop_per_10k,
            FaultKind::DropReply => self.drop_reply_per_10k,
            FaultKind::Corrupt => self.corrupt_per_10k,
            FaultKind::Truncate => self.truncate_per_10k,
            FaultKind::Duplicate => self.duplicate_per_10k,
            FaultKind::Delay => self.delay_per_10k,
        }
    }
}

/// One recorded injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Global message sequence number (every leg counts, faulted or
    /// not), so a trace pinpoints *which* message was hit.
    pub seq: u64,
    /// Decoded request kind ([`Request::kind`]).
    pub msg: &'static str,
    /// Injected fault ([`FaultKind::name`]).
    pub fault: &'static str,
}

struct LogInner {
    seq: AtomicU64,
    enabled: AtomicBool,
    entries: Mutex<Vec<Injection>>,
}

/// Shared injection log and kill switch.
///
/// Clones share state: hand one log to every injector on a link (a
/// failing-over session builds fresh transports mid-run, and their
/// injections belong to the same trace), keep a clone to read the trace
/// and to end the fault phase with [`FaultLog::set_enabled`].
#[derive(Clone)]
pub struct FaultLog {
    inner: Arc<LogInner>,
}

impl Default for FaultLog {
    fn default() -> Self {
        FaultLog::new()
    }
}

impl FaultLog {
    /// A fresh, enabled log.
    pub fn new() -> FaultLog {
        FaultLog {
            inner: Arc::new(LogInner {
                seq: AtomicU64::new(0),
                enabled: AtomicBool::new(true),
                entries: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Turns injection on or off for every injector sharing this log.
    /// Sequence numbers keep advancing while disabled (so re-enabling
    /// continues the same numbering).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether injection is currently enabled.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::SeqCst)
    }

    /// Snapshot of every recorded injection.
    pub fn entries(&self) -> Vec<Injection> {
        self.inner.entries.lock().clone()
    }

    /// Number of recorded injections.
    pub fn len(&self) -> usize {
        self.inner.entries.lock().len()
    }

    /// Whether nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compact textual trace, one `seq:msg:fault` term per injection —
    /// the unit of same-seed-same-trace comparison.
    pub fn trace(&self) -> String {
        self.inner
            .entries
            .lock()
            .iter()
            .map(|i| format!("{}:{}:{}", i.seq, i.msg, i.fault))
            .collect::<Vec<_>>()
            .join(",")
    }

    fn next_seq(&self) -> u64 {
        self.inner.seq.fetch_add(1, Ordering::SeqCst)
    }

    fn record(&self, entry: Injection) {
        self.inner.entries.lock().push(entry);
    }
}

/// `faults.injected_total` plus one `faults.injected.<kind>_total` per
/// class, re-homeable into a server or session registry so `iwstat`
/// shows them next to the recovery counters they cause.
struct FaultMetrics {
    total: Arc<Counter>,
    per_kind: Vec<Arc<Counter>>,
}

impl FaultMetrics {
    fn new(registry: &Registry) -> FaultMetrics {
        FaultMetrics {
            total: registry.counter("faults.injected_total"),
            per_kind: FaultKind::ALL
                .iter()
                .map(|k| registry.counter(&format!("faults.injected.{}_total", k.name())))
                .collect(),
        }
    }

    fn count(&self, kind: FaultKind) {
        self.total.inc();
        self.per_kind[FaultKind::ALL.iter().position(|k| *k == kind).unwrap_or(0)].inc();
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic fault layer: a [`FaultPlan`] driven by splitmix64.
///
/// Install on a transport with `set_fault_layer`. Every decision is a
/// pure function of the construction seed and the sequence of messages
/// offered, so a single-threaded request trace replays bit-identically
/// under the same seed.
pub struct FaultInjector {
    plan: FaultPlan,
    log: FaultLog,
    state: u64,
    /// Messages seen per kind (indexed like [`Request::KINDS`]) and
    /// overall, for `nth`-targeted rules.
    seen_by_kind: [u64; Request::KINDS.len()],
    seen_any: u64,
    fired: Vec<bool>,
    metrics: FaultMetrics,
}

impl FaultInjector {
    /// An injector over `plan`, drawing from `seed`, recording into
    /// `log`.
    pub fn new(seed: u64, plan: FaultPlan, log: FaultLog) -> FaultInjector {
        let fired = vec![false; plan.rules.len()];
        FaultInjector {
            plan,
            log,
            state: seed,
            seen_by_kind: [0; Request::KINDS.len()],
            seen_any: 0,
            fired,
            metrics: FaultMetrics::new(&Registry::new()),
        }
    }

    fn draw(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Materializes `kind` into a concrete action against `encoded`,
    /// recording and counting it. Degenerate cases (truncating or
    /// corrupting an empty frame) deliver unharmed.
    fn action_for(&mut self, kind: FaultKind, req: &Request, encoded: &Bytes) -> FaultAction {
        let action = match kind {
            FaultKind::Drop => FaultAction::Drop,
            FaultKind::DropReply => FaultAction::DropReply,
            FaultKind::Corrupt => {
                if encoded.is_empty() {
                    return FaultAction::Deliver;
                }
                let at = (self.draw() as usize) % encoded.len();
                let mask = (self.draw() % 255) as u8 + 1; // never a no-op flip
                let mut bytes = encoded.to_vec();
                bytes[at] ^= mask;
                FaultAction::Corrupt(Bytes::from(bytes))
            }
            FaultKind::Truncate => {
                if encoded.is_empty() {
                    return FaultAction::Deliver;
                }
                FaultAction::Truncate((self.draw() as usize) % encoded.len())
            }
            FaultKind::Duplicate => FaultAction::Duplicate,
            FaultKind::Delay => {
                let us = self.draw() % self.plan.max_delay_us.max(1);
                FaultAction::Delay(std::time::Duration::from_micros(us))
            }
        };
        self.log.record(Injection {
            seq: self.seen_any - 1,
            msg: req.kind(),
            fault: kind.name(),
        });
        self.metrics.count(kind);
        action
    }
}

impl FaultLayer for FaultInjector {
    fn plan(&mut self, req: &Request, encoded: &Bytes) -> FaultAction {
        // Keep local and global numbering advancing even while disabled,
        // so a re-enabled phase continues the same trace coordinates.
        self.seen_any = self.log.next_seq() + 1;
        self.seen_by_kind[req.kind_index()] += 1;
        if !self.log.enabled() {
            return FaultAction::Deliver;
        }
        // Scripted rules outrank the dice and are one-shot.
        for i in 0..self.plan.rules.len() {
            if self.fired[i] {
                continue;
            }
            let rule = &self.plan.rules[i];
            let n = match rule.kind {
                Some(k) if k == req.kind() => self.seen_by_kind[req.kind_index()],
                Some(_) => continue,
                None => self.seen_any,
            };
            if n == rule.nth {
                self.fired[i] = true;
                let fault = rule.fault;
                return self.action_for(fault, req, encoded);
            }
        }
        for kind in FaultKind::ALL {
            let rate = self.plan.rate(kind);
            if rate == 0 {
                continue; // zero-rate classes consume no draws
            }
            if self.draw() % 10_000 < u64::from(rate) {
                return self.action_for(kind, req, encoded);
            }
        }
        FaultAction::Deliver
    }

    fn bind_registry(&mut self, registry: &Arc<Registry>) {
        self.metrics = FaultMetrics::new(registry);
    }
}

/// Server-side chaos ingress (`iwsrv --chaos <seed>`): wraps any
/// [`Handler`] and subjects every incoming request to a [`FaultPlan`],
/// degrading the whole server rather than one client's link.
///
/// This is the only server-side injector: it sees request bytes, so the
/// front end it runs behind needs no fault hooks of its own. A handler
/// has no connection to reset, so connection faults map to their
/// observable effect and the link stays up: [`FaultKind::Drop`] answers
/// a `Reply::Error` without calling the inner handler (the request
/// never arrived), [`FaultKind::DropReply`] calls it and then answers
/// the error instead of its reply (the request took effect, the ack was
/// lost); truncation and corruption hand the inner handler a damaged
/// frame (it answers `bad request`), duplication calls it twice and
/// returns the first reply, and a delay sleeps on the calling thread
/// before the call.
pub struct FaultyHandler {
    inner: Arc<dyn Handler>,
    injector: Mutex<FaultInjector>,
}

impl FaultyHandler {
    /// Wraps `inner` with an injector over `plan` seeded by `seed`.
    pub fn new(
        inner: Arc<dyn Handler>,
        seed: u64,
        plan: FaultPlan,
        log: FaultLog,
    ) -> FaultyHandler {
        FaultyHandler {
            inner,
            injector: Mutex::new(FaultInjector::new(seed, plan, log)),
        }
    }

    /// Re-homes the injector's counters (typically into the wrapped
    /// server's registry, so `iwstat` scrapes them).
    pub fn bind_registry(&self, registry: &Arc<Registry>) {
        self.injector.lock().bind_registry(registry);
    }
}

impl Handler for FaultyHandler {
    fn handle(&self, request: Bytes) -> Bytes {
        let Ok(req) = Request::decode(request.clone()) else {
            return self.inner.handle(request);
        };
        let action = self.injector.lock().plan(&req, &request);
        match action {
            FaultAction::Deliver => self.inner.handle(request),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                self.inner.handle(request)
            }
            FaultAction::Drop => Reply::Error {
                message: "injected: request dropped by chaos ingress".into(),
            }
            .encode(),
            FaultAction::DropReply => {
                let _ = self.inner.handle(request);
                Reply::Error {
                    message: "injected: reply dropped by chaos ingress".into(),
                }
                .encode()
            }
            FaultAction::Corrupt(bytes) => self.inner.handle(bytes),
            FaultAction::Truncate(n) => {
                let keep = n.min(request.len());
                self.inner.handle(request.slice(0..keep))
            }
            FaultAction::Duplicate => {
                let first = self.inner.handle(request.clone());
                let _ = self.inner.handle(request);
                first
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello() -> (Request, Bytes) {
        let req = Request::Hello {
            info: "chaos".into(),
        };
        let encoded = req.encode();
        (req, encoded)
    }

    /// Feeds `n` identical messages and returns the trace.
    fn run_trace(seed: u64, plan: &FaultPlan, n: usize) -> String {
        let log = FaultLog::new();
        let mut inj = FaultInjector::new(seed, plan.clone(), log.clone());
        let (req, encoded) = hello();
        for _ in 0..n {
            let _ = FaultLayer::plan(&mut inj, &req, &encoded);
        }
        log.trace()
    }

    #[test]
    fn same_seed_same_trace() {
        let plan = FaultPlan::recoverable(900);
        let a = run_trace(42, &plan, 500);
        let b = run_trace(42, &plan, 500);
        assert!(!a.is_empty(), "a 9% plan over 500 messages injects");
        assert_eq!(a, b);
        let c = run_trace(43, &plan, 500);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn zero_rate_classes_do_not_shift_the_stream() {
        // Adding a zero-rate class later must not consume draws and
        // reshuffle which messages an existing seed hits.
        let only_drop = FaultPlan {
            drop_per_10k: 500,
            ..FaultPlan::default()
        };
        let drop_and_zero_delay = FaultPlan {
            drop_per_10k: 500,
            delay_per_10k: 0,
            max_delay_us: 1000,
            ..FaultPlan::default()
        };
        assert_eq!(
            run_trace(7, &only_drop, 400),
            run_trace(7, &drop_and_zero_delay, 400)
        );
    }

    #[test]
    fn rules_target_nth_message_of_kind() {
        let plan = FaultPlan::none().with_rule(FaultRule {
            kind: Some("replicate"),
            nth: 2,
            fault: FaultKind::Drop,
        });
        let log = FaultLog::new();
        let mut inj = FaultInjector::new(1, plan, log.clone());
        let rep = Request::Replicate {
            segment: "h/s".into(),
            from_version: 0,
            diff: iw_wire::diff::SegmentDiff::default(),
        };
        let enc = rep.encode();
        let (hello_req, hello_enc) = hello();
        // hello, replicate#1 pass; replicate#2 is dropped; #3 passes.
        assert!(matches!(
            FaultLayer::plan(&mut inj, &hello_req, &hello_enc),
            FaultAction::Deliver
        ));
        assert!(matches!(
            FaultLayer::plan(&mut inj, &rep, &enc),
            FaultAction::Deliver
        ));
        assert!(matches!(
            FaultLayer::plan(&mut inj, &rep, &enc),
            FaultAction::Drop
        ));
        assert!(matches!(
            FaultLayer::plan(&mut inj, &rep, &enc),
            FaultAction::Deliver
        ));
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].msg, "replicate");
        assert_eq!(entries[0].fault, "drop");
        assert_eq!(entries[0].seq, 2, "hit the third message overall");
    }

    #[test]
    fn kill_switch_stops_injection_but_keeps_numbering() {
        let plan = FaultPlan::none().with_rule(FaultRule {
            kind: None,
            nth: 3,
            fault: FaultKind::Drop,
        });
        let log = FaultLog::new();
        let mut inj = FaultInjector::new(1, plan, log.clone());
        let (req, enc) = hello();
        let _ = FaultLayer::plan(&mut inj, &req, &enc);
        log.set_enabled(false);
        // Message #2 passes silently; #3 would match the rule but the
        // switch is off.
        assert!(matches!(
            FaultLayer::plan(&mut inj, &req, &enc),
            FaultAction::Deliver
        ));
        assert!(matches!(
            FaultLayer::plan(&mut inj, &req, &enc),
            FaultAction::Deliver
        ));
        assert!(log.is_empty());
        // Re-enabled: numbering continued, so the rule's moment passed.
        log.set_enabled(true);
        assert!(matches!(
            FaultLayer::plan(&mut inj, &req, &enc),
            FaultAction::Deliver
        ));
    }

    #[test]
    fn corrupt_always_changes_the_frame() {
        let plan = FaultPlan {
            corrupt_per_10k: 10_000,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(99, plan, FaultLog::new());
        let (req, enc) = hello();
        for _ in 0..50 {
            match FaultLayer::plan(&mut inj, &req, &enc) {
                FaultAction::Corrupt(bytes) => {
                    assert_eq!(bytes.len(), enc.len());
                    assert_ne!(&bytes[..], &enc[..]);
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_faults_surface_in_a_bound_registry() {
        let registry = Arc::new(Registry::new());
        let plan = FaultPlan::none().with_rule(FaultRule {
            kind: None,
            nth: 1,
            fault: FaultKind::Drop,
        });
        let mut inj = FaultInjector::new(1, plan, FaultLog::new());
        inj.bind_registry(&registry);
        let (req, enc) = hello();
        let _ = FaultLayer::plan(&mut inj, &req, &enc);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("faults.injected_total"), Some(1));
        assert_eq!(snap.counter("faults.injected.drop_total"), Some(1));
    }
}
