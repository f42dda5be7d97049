//! Chaos soak harness: N clients against a degraded 2-node cluster.
//!
//! [`run_soak`] builds an in-process primary/backup pair, degrades the
//! client links and the primary→backup ship link with independent
//! [`FaultPlan`]s, runs a slot-writing workload, and then checks the
//! standing invariants once the faults stop:
//!
//! - **Convergence against a fault-free oracle.** Each client `c`
//!   writes `round * 1000 + c` into its own slot of a shared segment,
//!   so the fault-free end state is a pure function of `(clients,
//!   ops)`: slot `c` holds `(ops-1) * 1000 + c`. A run converged when
//!   every slot matches — byte-for-byte what the identical run under
//!   [`FaultPlan::none`] produces (versions may differ: recovered
//!   rounds legitimately re-commit).
//! - **Versions never regress.** Every client asserts its observed
//!   segment version is monotone across acquisitions, failovers
//!   included.
//! - **Backup convergence.** Once faults stop (and the backup
//!   re-attaches, if its link was killed mid-run), the backup's
//!   segment must be byte-identical to the primary's checkpoint
//!   encoding.
//!
//! Both clients in a replica group point at the *same* primary: the
//! backup is a bare [`Server`] that would accept writes, so failing
//! over to it mid-run would split the brain. What the group buys here
//! is recovery from transient link faults — reconnect, old-id
//! retirement, cache reconciliation — which is exactly the machinery
//! under test. (Genuine kill-the-primary failover is covered by the
//! cluster e2e tests.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use iw_cluster::{Backup, Primary};
use iw_core::{Connector, CoreError, Session, SessionOptions};
use iw_proto::{Coherence, Handler, Loopback, Transport};
use iw_server::{checkpoint, Server};
use iw_types::desc::TypeDesc;
use iw_types::MachineArch;

use crate::{splitmix64, FaultInjector, FaultLog, FaultPlan};

/// Everything a soak run needs; fully determines the run together with
/// thread scheduling (single-client runs are fully deterministic).
#[derive(Clone)]
pub struct SoakConfig {
    /// Base PRNG seed; client links and the ship link derive distinct
    /// streams from it.
    pub seed: u64,
    /// Concurrent writer sessions (must be < 1000: the workload encodes
    /// the client id in the low three decimal digits).
    pub clients: usize,
    /// Write rounds per client.
    pub ops: usize,
    /// Fault plan worn by every client link.
    pub client_plan: FaultPlan,
    /// Fault plan worn by the primary→backup ship link.
    pub ship_plan: FaultPlan,
    /// Acquire/write/release attempts per round before a client gives
    /// up and reports a failure.
    pub max_attempts: usize,
}

impl SoakConfig {
    /// A small soak with recoverable fault plans on both links —
    /// the CI configuration.
    pub fn quick(seed: u64) -> SoakConfig {
        SoakConfig {
            seed,
            clients: 3,
            ops: 12,
            client_plan: FaultPlan::recoverable(400),
            ship_plan: FaultPlan::recoverable(400),
            max_attempts: 25,
        }
    }
}

/// What a soak run observed.
#[derive(Debug)]
pub struct SoakReport {
    /// Every slot matched the fault-free oracle and no client reported
    /// a failure.
    pub converged: bool,
    /// Backup checkpoint bytes equal the primary's after faults
    /// stopped.
    pub backup_identical: bool,
    /// Human-readable invariant violations and given-up rounds.
    pub failures: Vec<String>,
    /// Injections on client links / the ship link.
    pub client_injections: usize,
    /// Injections on the ship link.
    pub ship_injections: usize,
    /// `seq:msg:fault` trace of the client links (the determinism
    /// comparison unit; meaningful for single-client runs).
    pub client_trace: String,
    /// `seq:msg:fault` trace of the ship link.
    pub ship_trace: String,
    /// Final version of the shared segment at the primary.
    pub final_version: u64,
    /// Final slot values read back through a clean session.
    pub final_slots: Vec<i64>,
    /// Total successful client reconnects (recoveries from injected
    /// channel faults).
    pub client_reconnects: u64,
    /// The primary's final checkpoint-encoded segment image. When the
    /// soak ran on a durable server, a restart from the same data dir
    /// must recover to exactly these bytes.
    pub primary_image: Option<Vec<u8>>,
    /// Wall time of the fault-injected client phase.
    pub elapsed: std::time::Duration,
    /// Diff payload the primary accounted at its fixed-width size.
    pub diff_bytes_raw: u64,
    /// Diff payload the primary actually put on the wire.
    pub diff_bytes_sent: u64,
}

impl SoakReport {
    /// Diff wire bytes per second of chaos-phase time.
    pub fn wire_bytes_per_sec(&self) -> f64 {
        if self.elapsed.as_secs_f64() > 0.0 {
            self.diff_bytes_sent as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        }
    }
}

const SEGMENT: &str = "chaos/slots";
const BLOCK_MIP: &str = "chaos/slots#slots";

fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut s = base ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s)
}

/// A connector producing loopback links to `primary`, each wearing a
/// fresh injector whose seed is derived from the connection ordinal —
/// a single-threaded session's fault stream is a pure function of the
/// base seed, across however many reconnects it burns through.
fn faulty_connector(
    primary: &Arc<Primary>,
    base_seed: u64,
    plan: &FaultPlan,
    log: &FaultLog,
    conn_counter: &Arc<AtomicU64>,
) -> Connector {
    let primary = primary.clone();
    let plan = plan.clone();
    let log = log.clone();
    let conn_counter = conn_counter.clone();
    Box::new(move || {
        let n = conn_counter.fetch_add(1, Ordering::SeqCst);
        let mut t = Loopback::new(primary.clone());
        t.set_fault_layer(Box::new(FaultInjector::new(
            derive_seed(base_seed, n),
            plan.clone(),
            log.clone(),
        )));
        Ok(Box::new(t) as Box<dyn Transport>)
    })
}

fn soak_options() -> SessionOptions {
    SessionOptions {
        // Short, bounded backoffs: chaos rounds retry at the harness
        // level, so per-call patience just slows the soak down.
        lock_retries: 2_000,
        lock_backoff_us: 10,
        lock_backoff_cap_us: 200,
        failover_rounds: 3,
        failover_backoff_ms: 1,
        ..SessionOptions::default()
    }
}

/// Creates the shared segment with one i64 slot per client, through a
/// clean (fault-free) link — setup is scaffolding, not the code under
/// test.
fn setup_segment(primary: &Arc<Primary>, clients: usize) -> Result<(), CoreError> {
    let mut s = Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(primary.clone())),
        soak_options(),
    )?;
    let h = s.open_segment(SEGMENT)?;
    s.wl_acquire(&h)?;
    let slots = s.malloc(&h, &TypeDesc::int64(), clients.max(1) as u32, Some("slots"))?;
    for c in 0..clients {
        let slot = s.index(&slots, c as u32)?;
        s.write_i64(&slot, -1)?;
    }
    s.wl_release(&h)?;
    Ok(())
}

struct ClientOutcome {
    failures: Vec<String>,
    reconnects: u64,
}

/// One chaos client: `ops` rounds of acquire → write own slot →
/// release, retrying each round until it commits (or `max_attempts` is
/// spent), asserting version monotonicity along the way.
fn run_client(primary: &Arc<Primary>, cfg: &SoakConfig, c: usize, log: &FaultLog) -> ClientOutcome {
    let mut failures = Vec::new();
    let conn_counter = Arc::new(AtomicU64::new(0));
    let base_seed = derive_seed(cfg.seed, 1_000 + c as u64);
    let connectors: Vec<Connector> = (0..2)
        .map(|_| faulty_connector(primary, base_seed, &cfg.client_plan, log, &conn_counter))
        .collect();

    let mut session = match Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(primary.clone())),
        soak_options(),
    )
    .and_then(|mut s| {
        s.add_server_group("chaos", connectors)?;
        Ok(s)
    }) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("client {c}: session setup failed: {e}"));
            return ClientOutcome {
                failures,
                reconnects: 0,
            };
        }
    };
    let h = match session.open_segment(SEGMENT) {
        Ok(h) => h,
        Err(e) => {
            failures.push(format!("client {c}: open failed: {e}"));
            return ClientOutcome {
                failures,
                reconnects: 0,
            };
        }
    };

    let mut last_version = 0u64;
    // `locked` survives failed attempts: when a release fails because a
    // failover itself failed (every replica momentarily unreachable),
    // the session — and the server — still hold the write lock, and the
    // retry must resume at the release, not re-acquire.
    let mut locked = false;
    'rounds: for r in 0..cfg.ops {
        for _attempt in 0..cfg.max_attempts {
            if !locked {
                match session.wl_acquire(&h) {
                    Ok(()) => locked = true,
                    // Recoverable outcomes: the lock died in a failover
                    // (local writes already rolled back), the retry
                    // budget ran out, or the round trip failed — redo.
                    Err(CoreError::LockLost { .. } | CoreError::LockTimeout(_)) => continue,
                    Err(CoreError::Proto(_) | CoreError::Server(_)) => continue,
                    Err(e) => {
                        failures.push(format!("client {c} round {r}: acquire: {e}"));
                        continue;
                    }
                }
                // Invariant: the version observed under the lock never
                // regresses, reconnects and rollbacks included.
                match session.segment_version(&h) {
                    Ok(v) if v < last_version => {
                        failures.push(format!(
                            "client {c} round {r}: version regressed {last_version} -> {v}"
                        ));
                    }
                    Ok(v) => last_version = v,
                    Err(_) => {}
                }
            }
            let wrote = session
                .mip_to_ptr(BLOCK_MIP)
                .and_then(|base| session.index(&base, c as u32))
                .and_then(|slot| session.write_i64(&slot, (r as i64) * 1000 + c as i64));
            if let Err(e) = &wrote {
                failures.push(format!("client {c} round {r}: write: {e}"));
            }
            match session.wl_release(&h) {
                // Committed (an empty failed-write round commits
                // nothing, and the retry below re-runs it).
                Ok(()) if wrote.is_ok() => {
                    locked = false;
                    continue 'rounds;
                }
                Ok(()) => locked = false,
                // Rolled back in a failover: this round never landed.
                Err(CoreError::LockLost { .. }) => locked = false,
                // The failover behind this release reached no replica:
                // the old id was not retired, so the lock (local and
                // server-side) is still ours; retry the release once a
                // replica answers again. (A failover that did reach one
                // dropped the lock and reports `LockLost`.)
                Err(CoreError::Proto(_) | CoreError::Server(_)) => {}
                Err(e) => {
                    failures.push(format!("client {c} round {r}: release: {e}"));
                    locked = false;
                }
            }
        }
        failures.push(format!(
            "client {c} round {r}: gave up after {} attempts",
            cfg.max_attempts
        ));
        break;
    }
    let reconnects = session
        .metrics_snapshot()
        .counter("client.reconnects_total")
        .unwrap_or(0);
    ClientOutcome {
        failures,
        reconnects,
    }
}

/// Runs one soak: build the degraded cluster, run the workload, stop
/// the faults, verify convergence and backup identity.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    run_soak_on(cfg, Server::new())
}

/// [`run_soak`] with a caller-built primary server — the hook the
/// recovery harness uses to run the identical chaos workload on a
/// durable (`Server::with_durability`) primary, then restart it from
/// disk and compare against [`SoakReport::primary_image`].
pub fn run_soak_on(cfg: &SoakConfig, primary_server: Server) -> SoakReport {
    let client_log = FaultLog::new();
    let ship_log = FaultLog::new();
    let mut failures = Vec::new();

    let backup = Arc::new(Server::new());
    let primary = Arc::new(Primary::new(primary_server));
    let mut ship_t = Loopback::new(backup.clone());
    ship_t.set_fault_layer(Box::new(FaultInjector::new(
        derive_seed(cfg.seed, 2),
        cfg.ship_plan.clone(),
        ship_log.clone(),
    )));
    // Ship-link injections land in the primary's registry: one iwstat
    // scrape shows faults next to the recovery counters they cause.
    ship_t.bind_registry(primary.server().registry());
    primary.add_backup(Box::new(ship_t));
    primary.drain();

    if let Err(e) = setup_segment(&primary, cfg.clients) {
        failures.push(format!("setup failed: {e}"));
    }

    let mut reconnects = 0u64;
    let chaos_started = std::time::Instant::now();
    if failures.is_empty() {
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.clients)
                .map(|c| {
                    let primary = &primary;
                    let cfg = &*cfg;
                    let log = &client_log;
                    scope.spawn(move || run_client(primary, cfg, c, log))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| ClientOutcome {
                        failures: vec!["client thread panicked".into()],
                        reconnects: 0,
                    })
                })
                .collect()
        });
        for o in outcomes {
            failures.extend(o.failures);
            reconnects += o.reconnects;
        }
    }
    let elapsed = chaos_started.elapsed();

    // Fault phase over: freeze both links and let replication settle.
    client_log.set_enabled(false);
    ship_log.set_enabled(false);
    primary.drain();
    // A ship link killed mid-run leaves the backup behind with no one
    // streaming to it; re-attach a clean link (the attach-time full
    // sync is the recovery path a rejoining backup uses in production).
    let snap = primary.server().metrics_snapshot();
    if snap.gauge("cluster.backups") != Some(1) {
        primary.add_backup(Box::new(Loopback::new(backup.clone())));
        primary.drain();
    }

    let primary_image = primary
        .server()
        .with_segment(SEGMENT, checkpoint::encode_segment)
        .and_then(Result::ok)
        .map(|b| b.to_vec());
    let backup_identical = match (
        &primary_image,
        backup.with_segment(SEGMENT, checkpoint::encode_segment),
    ) {
        (Some(p), Some(Ok(b))) => p[..] == b[..],
        _ => false,
    };
    if !backup_identical {
        failures.push("backup checkpoint differs from primary after faults stopped".into());
    }

    // Read the end state through a clean session and compare with the
    // fault-free oracle: slot c == (ops-1)*1000 + c.
    let mut final_slots = Vec::new();
    let read = (|| -> Result<(), CoreError> {
        let mut s = Session::with_options(
            MachineArch::x86(),
            Box::new(Loopback::new(primary.clone())),
            soak_options(),
        )?;
        let h = s.open_segment(SEGMENT)?;
        s.rl_acquire(&h)?;
        let base = s.mip_to_ptr(BLOCK_MIP)?;
        for c in 0..cfg.clients {
            let slot = s.index(&base, c as u32)?;
            final_slots.push(s.read_i64(&slot)?);
        }
        s.rl_release(&h)?;
        Ok(())
    })();
    if let Err(e) = read {
        failures.push(format!("end-state read failed: {e}"));
    }
    if cfg.ops > 0 {
        for (c, &got) in final_slots.iter().enumerate() {
            let expected = (cfg.ops as i64 - 1) * 1000 + c as i64;
            if got != expected {
                failures.push(format!(
                    "slot {c}: expected {expected} (fault-free oracle), got {got}"
                ));
            }
        }
    }

    SoakReport {
        converged: failures.is_empty(),
        backup_identical,
        failures,
        client_injections: client_log.len(),
        ship_injections: ship_log.len(),
        client_trace: client_log.trace(),
        ship_trace: ship_log.trace(),
        final_version: primary.server().segment_version(SEGMENT).unwrap_or(0),
        final_slots,
        client_reconnects: reconnects,
        primary_image,
        elapsed,
        diff_bytes_raw: snap.counter("wire.diff_bytes_raw_total").unwrap_or(0),
        diff_bytes_sent: snap.counter("wire.diff_bytes_sent_total").unwrap_or(0),
    }
}

/// The shared segment's checkpoint-encoded image on `server`, if it
/// exists and encodes (the recovery harness compares this against
/// [`SoakReport::primary_image`] after a restart-from-disk).
pub fn soak_segment_image(server: &Server) -> Option<Vec<u8>> {
    server
        .with_segment(SEGMENT, checkpoint::encode_segment)
        .and_then(Result::ok)
        .map(|b| b.to_vec())
}

// ----------------------------------------------------------------------
// Replica-read soak
// ----------------------------------------------------------------------

const FEED: &str = "chaos/feed";
const FEED_MIP: &str = "chaos/feed#x";

/// Configuration for [`run_replica_soak`]: one writer streams versions
/// through the primary while reader sessions pinned to a backup read
/// under relaxed coherence, with the primary→backup ship link degraded
/// by a seeded fault plan. The client↔primary links stay clean — the
/// chaos under test is the *replica lag* the faulty ship link creates,
/// racing the staleness floors the readers carry.
#[derive(Clone)]
pub struct ReplicaSoakConfig {
    /// Base PRNG seed for the ship-link fault stream.
    pub seed: u64,
    /// Concurrent reader sessions, alternating Delta and Temporal
    /// coherence.
    pub readers: usize,
    /// Versions the writer commits while the readers run.
    pub writes: usize,
    /// Locked reads each reader performs.
    pub reads_per_reader: usize,
    /// Fault plan worn by the primary→backup ship link.
    pub ship_plan: FaultPlan,
}

impl ReplicaSoakConfig {
    /// A small soak with a recoverable ship-fault plan — the CI
    /// configuration.
    pub fn quick(seed: u64) -> ReplicaSoakConfig {
        ReplicaSoakConfig {
            seed,
            readers: 4,
            writes: 40,
            reads_per_reader: 50,
            ship_plan: FaultPlan::recoverable(600),
        }
    }
}

/// What a replica-read soak observed.
#[derive(Debug)]
pub struct ReplicaSoakReport {
    /// No invariant violations, the staleness battery stayed clean and
    /// the backup actually served reads.
    pub converged: bool,
    /// Human-readable invariant violations.
    pub failures: Vec<String>,
    /// Injections on the ship link.
    pub ship_injections: usize,
    /// `seq:msg:fault` trace of the ship link (determinism unit).
    pub ship_trace: String,
    /// Reads served by the backup, across all readers (including the
    /// settled probe).
    pub replica_reads: u64,
    /// Reads that fell back to the primary.
    pub replica_fallbacks: u64,
    /// Replica refusals (`NotFresh`) observed client-side.
    pub replica_not_fresh: u64,
    /// Replica-served reads below the client's floor — any non-zero
    /// value is a coherence-protocol bug.
    pub predicate_violations: u64,
    /// Final version of the feed segment at the primary.
    pub final_version: u64,
    /// Full resyncs the primary shipped after a refused or gapped
    /// `Replicate` (`cluster.resyncs_total`).
    pub resyncs: u64,
}

fn clean_connector(handler: &Arc<dyn Handler>) -> Connector {
    let handler = handler.clone();
    Box::new(move || Ok(Box::new(Loopback::new(handler.clone())) as Box<dyn Transport>))
}

/// Seeds `chaos/feed#x = 1` (the value always equals the version that
/// committed it) through a clean link.
fn setup_feed(primary: &Arc<Primary>) -> Result<(), CoreError> {
    let mut s = Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(primary.clone())),
        soak_options(),
    )?;
    let h = s.open_segment(FEED)?;
    s.wl_acquire(&h)?;
    let p = s.malloc(&h, &TypeDesc::int64(), 1, Some("x"))?;
    s.write_i64(&p, 1)?;
    s.wl_release(&h)?;
    Ok(())
}

struct ReaderOutcome {
    failures: Vec<String>,
    replica_reads: u64,
    fallbacks: u64,
    not_fresh: u64,
    violations: u64,
}

fn session_counters(s: &Session) -> (u64, u64, u64, u64) {
    let snap = s.metrics_snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    (
        c("cluster.replica_reads_total"),
        c("cluster.replica_read_fallbacks_total"),
        c("cluster.replica_not_fresh_total"),
        c("cluster.replica_read_violations_total"),
    )
}

/// One soak reader: `reads_per_reader` locked reads pinned to the
/// backup, checking the `value == version` oracle and per-session
/// version monotonicity on every one.
fn run_replica_reader(
    primary: &Arc<Primary>,
    backup: &Arc<dyn Handler>,
    cfg: &ReplicaSoakConfig,
    r: usize,
) -> ReaderOutcome {
    let mut failures = Vec::new();
    // Alternate the two time-like models; vary the bounds so the floors
    // race the replica lag differently per reader.
    let coherence = if r.is_multiple_of(2) {
        Coherence::Delta(1 + (r as u32 / 2) % 3)
    } else {
        Coherence::Temporal(5 * (1 + (r as u64 / 2) % 4))
    };
    let built = Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(primary.clone())),
        soak_options(),
    )
    .and_then(|mut s| {
        let ph: Arc<dyn Handler> = primary.clone();
        s.add_server_group("chaos", vec![clean_connector(&ph)])?;
        s.add_read_replicas("chaos", vec![clean_connector(backup)])?;
        let h = s.open_segment(FEED)?;
        s.set_coherence(&h, coherence)?;
        Ok((s, h))
    });
    let (mut s, h) = match built {
        Ok(sh) => sh,
        Err(e) => {
            failures.push(format!("reader {r}: setup failed: {e}"));
            return ReaderOutcome {
                failures,
                replica_reads: 0,
                fallbacks: 0,
                not_fresh: 0,
                violations: 0,
            };
        }
    };
    let mut last = 0u64;
    for i in 0..cfg.reads_per_reader {
        let read = (|| -> Result<(i64, u64), CoreError> {
            s.rl_acquire(&h)?;
            let p = s.mip_to_ptr(FEED_MIP)?;
            let value = s.read_i64(&p)?;
            let version = s.segment_version(&h)?;
            s.rl_release(&h)?;
            Ok((value, version))
        })();
        match read {
            Ok((value, version)) => {
                if value != version as i64 {
                    failures.push(format!(
                        "reader {r} read {i}: torn read — value {value} at version {version}"
                    ));
                }
                if version < last {
                    failures.push(format!(
                        "reader {r} read {i}: version regressed {last} -> {version}"
                    ));
                }
                last = version;
            }
            Err(e) => failures.push(format!("reader {r} read {i}: {e}")),
        }
        std::thread::yield_now();
    }
    let (replica_reads, fallbacks, not_fresh, violations) = session_counters(&s);
    ReaderOutcome {
        failures,
        replica_reads,
        fallbacks,
        not_fresh,
        violations,
    }
}

/// Runs one replica-read soak: degraded ship link, one writer, readers
/// pinned to the backup, then a settled probe that must be
/// replica-served once the faults stop.
pub fn run_replica_soak(cfg: &ReplicaSoakConfig) -> ReplicaSoakReport {
    let ship_log = FaultLog::new();
    let mut failures = Vec::new();

    let backup_srv = Arc::new(Server::new());
    let primary = Arc::new(Primary::new(Server::new()));
    let mut ship_t = Loopback::new(backup_srv.clone());
    ship_t.set_fault_layer(Box::new(FaultInjector::new(
        derive_seed(cfg.seed, 3),
        cfg.ship_plan.clone(),
        ship_log.clone(),
    )));
    ship_t.bind_registry(primary.server().registry());
    primary.add_backup(Box::new(ship_t));
    primary.drain();
    let backup: Arc<dyn Handler> = Arc::new(Backup::new(backup_srv.clone(), None));

    if let Err(e) = setup_feed(&primary) {
        failures.push(format!("setup failed: {e}"));
    }

    let mut replica_reads = 0u64;
    let mut fallbacks = 0u64;
    let mut not_fresh = 0u64;
    let mut violations = 0u64;
    if failures.is_empty() {
        let outcomes: Vec<ReaderOutcome> = std::thread::scope(|scope| {
            let writer = scope.spawn(|| -> Vec<String> {
                let run = (|| -> Result<(), CoreError> {
                    let mut s = Session::with_options(
                        MachineArch::x86(),
                        Box::new(Loopback::new(primary.clone())),
                        soak_options(),
                    )?;
                    let h = s.open_segment(FEED)?;
                    for _ in 0..cfg.writes {
                        s.wl_acquire(&h)?;
                        let committing = s.segment_version(&h)? + 1;
                        let p = s.mip_to_ptr(FEED_MIP)?;
                        s.write_i64(&p, committing as i64)?;
                        s.wl_release(&h)?;
                        std::thread::yield_now();
                    }
                    Ok(())
                })();
                match run {
                    Ok(()) => Vec::new(),
                    Err(e) => vec![format!("writer failed: {e}")],
                }
            });
            let handles: Vec<_> = (0..cfg.readers)
                .map(|r| {
                    let primary = &primary;
                    let backup = &backup;
                    let cfg = &*cfg;
                    scope.spawn(move || run_replica_reader(primary, backup, cfg, r))
                })
                .collect();
            let outcomes = handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| ReaderOutcome {
                        failures: vec!["reader thread panicked".into()],
                        replica_reads: 0,
                        fallbacks: 0,
                        not_fresh: 0,
                        violations: 0,
                    })
                })
                .collect();
            if let Ok(wf) = writer.join() {
                failures.extend(wf);
            } else {
                failures.push("writer thread panicked".into());
            }
            outcomes
        });
        for o in outcomes {
            failures.extend(o.failures);
            replica_reads += o.replica_reads;
            fallbacks += o.fallbacks;
            not_fresh += o.not_fresh;
            violations += o.violations;
        }
    }

    // Fault phase over: freeze the ship link and let replication
    // settle; re-attach a clean link if the faulty one died.
    ship_log.set_enabled(false);
    primary.drain();
    let snap = primary.server().metrics_snapshot();
    if snap.gauge("cluster.backups") != Some(1) {
        primary.add_backup(Box::new(Loopback::new(backup_srv.clone())));
        primary.drain();
    }

    // Settled probe: with the backup caught up, a fresh Delta reader's
    // floor is satisfiable there, so the read *must* be replica-served
    // and must carry the final version's value.
    let probe = (|| -> Result<(Session, i64, u64), CoreError> {
        let mut s = Session::with_options(
            MachineArch::x86(),
            Box::new(Loopback::new(primary.clone())),
            soak_options(),
        )?;
        let ph: Arc<dyn Handler> = primary.clone();
        s.add_server_group("chaos", vec![clean_connector(&ph)])?;
        s.add_read_replicas("chaos", vec![clean_connector(&backup)])?;
        let h = s.open_segment(FEED)?;
        s.set_coherence(&h, Coherence::Delta(1))?;
        s.rl_acquire(&h)?;
        let p = s.mip_to_ptr(FEED_MIP)?;
        let value = s.read_i64(&p)?;
        let version = s.segment_version(&h)?;
        s.rl_release(&h)?;
        Ok((s, value, version))
    })();
    let final_version = primary.server().segment_version(FEED).unwrap_or(0);
    match probe {
        Ok((s, value, version)) => {
            let (pr, pf, pn, pv) = session_counters(&s);
            replica_reads += pr;
            fallbacks += pf;
            not_fresh += pn;
            violations += pv;
            if pr != 1 {
                failures.push(format!(
                    "settled probe was not replica-served ({pr} replica reads, {pf} fallbacks)"
                ));
            }
            if version != final_version || value != final_version as i64 {
                failures.push(format!(
                    "settled probe read v{version} (value {value}); primary is at v{final_version}"
                ));
            }
        }
        Err(e) => failures.push(format!("settled probe failed: {e}")),
    }
    if violations > 0 {
        failures.push(format!(
            "{violations} replica-served reads violated their coherence predicate"
        ));
    }

    ReplicaSoakReport {
        converged: failures.is_empty(),
        failures,
        ship_injections: ship_log.len(),
        ship_trace: ship_log.trace(),
        replica_reads,
        replica_fallbacks: fallbacks,
        replica_not_fresh: not_fresh,
        predicate_violations: violations,
        final_version,
        resyncs: primary
            .server()
            .metrics_snapshot()
            .counter("cluster.resyncs_total")
            .unwrap_or(0),
    }
}
