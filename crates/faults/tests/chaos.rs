//! Chaos suite: the standing invariants of the failover and
//! replication paths, exercised under every injected fault class.
//!
//! Every scenario is seeded — a failure reproduces from the seed in its
//! assertion message.

use std::sync::Arc;

use iw_cluster::Primary;
use iw_core::{Connector, CoreError, Session, SessionOptions};
use iw_faults::chaos::{run_replica_soak, run_soak, ReplicaSoakConfig, SoakConfig};
use iw_faults::{FaultInjector, FaultKind, FaultLog, FaultPlan, FaultRule};
use iw_net::NetServer;
use iw_proto::{Loopback, TcpTransport, Transport};
use iw_server::{checkpoint, Server};
use iw_types::desc::TypeDesc;
use iw_types::MachineArch;

fn options() -> SessionOptions {
    SessionOptions {
        lock_retries: 500,
        lock_backoff_us: 10,
        lock_backoff_cap_us: 200,
        failover_rounds: 3,
        failover_backoff_ms: 1,
        ..SessionOptions::default()
    }
}

/// A connector to `handler` wearing `plan` (fresh injector per
/// connection, shared log).
fn connector_with(
    handler: Arc<dyn iw_proto::Handler>,
    seed: u64,
    plan: FaultPlan,
    log: FaultLog,
) -> Connector {
    let mut n = 0u64;
    Box::new(move || {
        n += 1;
        let mut t = Loopback::new(handler.clone());
        t.set_fault_layer(Box::new(FaultInjector::new(
            seed.wrapping_add(n.wrapping_mul(0x9E37_79B9)),
            plan.clone(),
            log.clone(),
        )));
        Ok(Box::new(t) as Box<dyn Transport>)
    })
}

/// The CI seed set: `ci.sh` runs exactly these, so a regression in a
/// recovery path fails the build with the seed in the test output.
const CI_SEEDS: [u64; 3] = [1, 7, 42];

#[test]
fn soak_converges_for_ci_seed_set() {
    for seed in CI_SEEDS {
        let report = run_soak(&SoakConfig::quick(seed));
        assert!(
            report.converged,
            "seed={seed}: not converged: {:?}\nclient trace: {}\nship trace: {}",
            report.failures, report.client_trace, report.ship_trace
        );
        assert!(report.backup_identical, "seed={seed}: backup diverged");
        assert!(
            report.client_injections + report.ship_injections > 0,
            "seed={seed}: the chaos run injected nothing — the plans are not exercising anything"
        );
    }
}

/// The staleness-bound battery under a degraded ship link: readers
/// pinned to a lagging backup must never see a torn value, a version
/// regression, or a predicate violation — and once the faults stop the
/// backup must actually serve.
#[test]
fn replica_soak_keeps_staleness_bounds_for_ci_seed_set() {
    for seed in CI_SEEDS {
        let report = run_replica_soak(&ReplicaSoakConfig::quick(seed));
        assert!(
            report.converged,
            "seed={seed}: not converged: {:?}\nship trace: {}",
            report.failures, report.ship_trace
        );
        assert_eq!(
            report.predicate_violations, 0,
            "seed={seed}: coherence predicate violated"
        );
        assert!(
            report.replica_reads > 0,
            "seed={seed}: the backup never served a read — the fan-out path is dead"
        );
        assert!(
            report.ship_injections > 0,
            "seed={seed}: the ship plan injected nothing — the soak is not exercising lag"
        );
    }
}

#[test]
fn same_seed_same_fault_trace() {
    // Single client: the request trace, and therefore the injection
    // trace, is a pure function of the seed.
    let cfg = SoakConfig {
        clients: 1,
        ops: 20,
        ..SoakConfig::quick(1234)
    };
    let a = run_soak(&cfg);
    let b = run_soak(&cfg);
    assert!(a.converged, "seed=1234: {:?}", a.failures);
    assert!(
        a.client_injections > 0,
        "seed=1234 injected nothing on the client link"
    );
    assert_eq!(
        a.client_trace, b.client_trace,
        "client trace not reproducible"
    );
    assert_eq!(a.ship_trace, b.ship_trace, "ship trace not reproducible");
    let c = run_soak(&SoakConfig { seed: 1235, ..cfg });
    assert!(
        a.client_trace != c.client_trace || a.ship_trace != c.ship_trace,
        "different seeds produced identical traces"
    );
}

/// A lost `Release` (dropped before delivery) surfaces as `LockLost`,
/// the twin rollback discards the uncommitted write, and the server
/// never sees the diff.
#[test]
fn lock_lost_rolls_back_twin_writes() {
    let server = Arc::new(Server::new());
    let log = FaultLog::new();
    let plan = FaultPlan::none().with_rule(FaultRule {
        kind: Some("release"),
        nth: 2, // release #1 publishes the block; #2 carries the write under test
        fault: FaultKind::Drop,
    });
    let mut s = Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(server.clone())),
        options(),
    )
    .unwrap();
    s.add_server_group(
        "h",
        vec![
            connector_with(server.clone(), 5, plan.clone(), log.clone()),
            connector_with(server.clone(), 6, plan, log.clone()),
        ],
    )
    .unwrap();
    let h = s.open_segment("h/s").unwrap();
    s.wl_acquire(&h).unwrap();
    let vals = s.malloc(&h, &TypeDesc::int64(), 4, Some("vals")).unwrap();
    let slot = s.index(&vals, 0).unwrap();
    s.write_i64(&slot, 100).unwrap();
    s.wl_release(&h).unwrap();

    s.wl_acquire(&h).unwrap();
    s.write_i64(&slot, 999).unwrap();
    let err = s
        .wl_release(&h)
        .expect_err("the dropped release must not succeed");
    assert!(
        matches!(err, CoreError::LockLost { .. }),
        "expected LockLost, got {err:?}"
    );
    assert_eq!(
        log.len(),
        1,
        "exactly the scripted drop fired: {}",
        log.trace()
    );

    // The uncommitted 999 was rolled back locally and never committed
    // remotely: a fresh read sees the committed 100.
    s.rl_acquire(&h).unwrap();
    assert_eq!(s.read_i64(&slot).unwrap(), 100);
    s.rl_release(&h).unwrap();
    assert_eq!(
        server.segment_version("h/s"),
        Some(1),
        "the dropped diff must not land"
    );

    // And the recovery is observable.
    let snap = s.metrics_snapshot();
    assert!(snap.counter("client.reconnects_total").unwrap() >= 1);
    assert_eq!(snap.counter("faults.injected.drop_total"), Some(1));
}

/// A writer session on `server` over a two-connector group whose first
/// connection wears `first` and whose second (the failover target)
/// wears `second`, holding the write lock on `h/s`; the segment already
/// holds an int64 `slots` block at version 1.
fn locked_writer(server: &Arc<Server>, first: FaultPlan, second: FaultPlan) -> (Session, FaultLog) {
    let log = FaultLog::new();
    let mut setup = Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(server.clone())),
        options(),
    )
    .unwrap();
    let h = setup.open_segment("h/s").unwrap();
    setup.wl_acquire(&h).unwrap();
    let slots = setup
        .malloc(&h, &TypeDesc::int64(), 1, Some("slots"))
        .unwrap();
    setup.write_i64(&slots, 1).unwrap();
    setup.wl_release(&h).unwrap();

    let mut s = Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(server.clone())),
        options(),
    )
    .unwrap();
    let handler: Arc<dyn iw_proto::Handler> = server.clone();
    s.add_server_group(
        "h",
        vec![
            connector_with(handler.clone(), 11, first, log.clone()),
            connector_with(handler, 12, second, log.clone()),
        ],
    )
    .unwrap();
    let h = s.open_segment("h/s").unwrap();
    s.wl_acquire(&h).unwrap();
    (s, log)
}

/// The chaos harness's round after a failed release: a `LockLost`
/// means re-acquire, any other error means the lock is still held.
/// Returns the committed version.
fn commit_round(s: &mut Session, v: i64) -> u64 {
    let h = s.open_segment("h/s").unwrap();
    s.wl_acquire(&h).unwrap();
    let slot = s.mip_to_ptr("h/s#slots").unwrap();
    s.write_i64(&slot, v).unwrap();
    s.wl_release(&h).unwrap();
    s.segment_version(&h).unwrap()
}

fn drop_first(kind: &'static str) -> FaultPlan {
    FaultPlan::none().with_rule(FaultRule {
        kind: Some(kind),
        nth: 1,
        fault: FaultKind::Drop,
    })
}

/// An empty release is retried after its failover, and the failover has
/// already dropped the write lock (the old client id is retired on the
/// new connection). When the retry fails too, the release reports the
/// lock as lost rather than as a protocol error: the caller must
/// re-acquire before it writes again.
#[test]
fn failed_retry_after_failover_reports_the_lost_lock() {
    let server = Arc::new(Server::new());
    let (mut s, log) = locked_writer(&server, drop_first("release"), drop_first("release"));
    let h = s.open_segment("h/s").unwrap();
    let err = s.wl_release(&h).expect_err("both sends were dropped");
    assert!(matches!(err, CoreError::LockLost { .. }), "{err:?}");
    assert_eq!(log.len(), 2, "{}", log.trace());
    assert_eq!(commit_round(&mut s, 7), 2);
    assert_eq!(server.segment_version("h/s"), Some(2));
}

/// A failover that retires the old client id and then fails to reopen
/// the segment has still lost the write lock: the release reports the
/// loss, with the uncommitted write rolled back, instead of leaving the
/// session holding a lock the server no longer knows.
#[test]
fn failover_that_fails_to_reopen_reports_the_lost_lock() {
    let server = Arc::new(Server::new());
    let (mut s, log) = locked_writer(&server, drop_first("release"), drop_first("open"));
    let h = s.open_segment("h/s").unwrap();
    let slot = s.mip_to_ptr("h/s#slots").unwrap();
    s.write_i64(&slot, 5).unwrap();
    let err = s.wl_release(&h).expect_err("the failover failed");
    assert!(matches!(err, CoreError::LockLost { .. }), "{err:?}");
    assert_eq!(log.len(), 2, "{}", log.trace());
    assert_eq!(server.segment_version("h/s"), Some(1), "nothing landed");
    assert_eq!(commit_round(&mut s, 7), 2);
    s.rl_acquire(&h).unwrap();
    assert_eq!(s.read_i64(&slot).unwrap(), 7);
    s.rl_release(&h).unwrap();
}

/// Failover reconciliation never serves a torn image: when the client's
/// cache is *ahead* of the surviving replica (the asynchronous
/// replication window), the whole cached segment is invalidated and
/// refetched — reads after failover see one consistent version, never a
/// mix of new and old blocks.
#[test]
fn failover_reconciliation_never_serves_torn_state() {
    let backup = Arc::new(Server::new());
    let primary = Arc::new(Primary::new(Server::new()));
    // Ship link that the test kills on demand: zero rates while the
    // log is disabled, drops everything once enabled.
    let ship_log = FaultLog::new();
    ship_log.set_enabled(false);
    let always_drop = FaultPlan {
        drop_per_10k: 10_000,
        ..FaultPlan::default()
    };
    let mut ship_t = Loopback::new(backup.clone());
    ship_t.set_fault_layer(Box::new(FaultInjector::new(
        1,
        always_drop.clone(),
        ship_log.clone(),
    )));
    primary.add_backup(Box::new(ship_t));
    primary.drain();

    // Client link: connector 0 is the primary (killable, same switch
    // pattern), connector 1 the backup server, clean.
    let client_log = FaultLog::new();
    client_log.set_enabled(false);
    let mut s = Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(primary.clone())),
        options(),
    )
    .unwrap();
    let primary_handler: Arc<dyn iw_proto::Handler> = primary.clone();
    let backup_handler: Arc<dyn iw_proto::Handler> = backup.clone();
    let clean = FaultPlan::none();
    s.add_server_group(
        "h",
        vec![
            connector_with(primary_handler, 7, always_drop.clone(), client_log.clone()),
            connector_with(backup_handler, 8, clean, FaultLog::new()),
        ],
    )
    .unwrap();

    let h = s.open_segment("h/s").unwrap();
    s.wl_acquire(&h).unwrap();
    let vals = s.malloc(&h, &TypeDesc::int64(), 4, Some("vals")).unwrap();
    for i in 0..4 {
        let slot = s.index(&vals, i).unwrap();
        s.write_i64(&slot, 100 + i64::from(i)).unwrap();
    }
    s.wl_release(&h).unwrap();
    primary.drain(); // backup holds version 1: [100, 101, 102, 103]

    // Cut replication, then commit version 2 — the backup stays at 1.
    ship_log.set_enabled(true);
    s.wl_acquire(&h).unwrap();
    for i in 0..4 {
        let slot = s.index(&vals, i).unwrap();
        s.write_i64(&slot, 200 + i64::from(i)).unwrap();
    }
    s.wl_release(&h).unwrap();
    primary.drain();
    assert_eq!(primary.server().segment_version("h/s"), Some(2));
    assert_eq!(backup.segment_version("h/s"), Some(1));

    // Kill the primary link: the next round trip fails over to the
    // backup, whose chain is *behind* the client's cached version 2.
    client_log.set_enabled(true);
    s.rl_acquire(&h).unwrap();
    let got: Vec<i64> = (0..4)
        .map(|i| {
            let slot = s.index(&vals, i).unwrap();
            s.read_i64(&slot).unwrap()
        })
        .collect();
    s.rl_release(&h).unwrap();
    // One consistent image — all version-1 values, no 200s bleeding in.
    assert_eq!(
        got,
        vec![100, 101, 102, 103],
        "torn image served after failover"
    );
    assert_eq!(s.segment_version(&h).unwrap(), 1);
    assert!(
        s.metrics_snapshot()
            .counter("client.failovers_total")
            .unwrap()
            >= 1
    );
}

/// Satellite regression: a `SyncFull` truncated mid-stream on the real
/// TCP wire kills the ship link but leaves the backup clean, and a
/// retried attach converges byte-identically.
#[test]
fn truncated_syncfull_over_tcp_retries_and_converges() {
    let backup = Arc::new(Server::new());
    let srv = NetServer::spawn("127.0.0.1:0".parse().unwrap(), backup.clone()).unwrap();
    let primary = Arc::new(Primary::new(Server::new()));

    // Two committed versions before any backup exists, so the attach
    // must catch up with a SyncFull.
    let mut s = Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(primary.clone())),
        options(),
    )
    .unwrap();
    let h = s.open_segment("h/s").unwrap();
    s.wl_acquire(&h).unwrap();
    let vals = s.malloc(&h, &TypeDesc::int64(), 8, Some("vals")).unwrap();
    s.wl_release(&h).unwrap();
    s.wl_acquire(&h).unwrap();
    let slot = s.index(&vals, 0).unwrap();
    s.write_i64(&slot, 7).unwrap();
    s.wl_release(&h).unwrap();

    // First attach: the catch-up SyncFull is torn mid-frame.
    let log = FaultLog::new();
    let plan = FaultPlan::none().with_rule(FaultRule {
        kind: Some("syncfull"),
        nth: 1,
        fault: FaultKind::Truncate,
    });
    let mut t = TcpTransport::connect(srv.addr()).unwrap();
    t.set_fault_layer(Box::new(FaultInjector::new(11, plan, log.clone())));
    primary.add_backup(Box::new(t));
    primary.drain();
    assert_eq!(
        log.len(),
        1,
        "the scripted truncation fired: {}",
        log.trace()
    );
    // The torn frame never decoded server-side: the backup is untouched,
    // not half-written.
    assert_eq!(backup.segment_version("h/s"), None);
    let snap = primary.server().metrics_snapshot();
    assert!(snap.counter("cluster.ship_errors_total").unwrap() >= 1);
    // The link died during attach, so it was never registered — no live
    // backups remain.
    assert_eq!(snap.gauge("cluster.backups"), Some(0));

    // Retry the attach over a clean connection: full catch-up, then the
    // diff stream resumes, byte-identical state.
    let t = TcpTransport::connect(srv.addr()).unwrap();
    primary.add_backup(Box::new(t));
    primary.drain();
    assert_eq!(backup.segment_version("h/s"), Some(2));
    s.wl_acquire(&h).unwrap();
    s.write_i64(&slot, 8).unwrap();
    s.wl_release(&h).unwrap();
    primary.drain();
    assert_eq!(backup.segment_version("h/s"), Some(3));
    let p = primary
        .server()
        .with_segment("h/s", |seg| checkpoint::encode_segment(seg).unwrap())
        .unwrap();
    let b = backup
        .with_segment("h/s", |seg| checkpoint::encode_segment(seg).unwrap())
        .unwrap();
    assert_eq!(
        p[..],
        b[..],
        "backup not byte-identical after retried attach"
    );
}

/// Every fault-reachable `CoreError` recovery path, on demand from a
/// two-line schedule.
#[test]
fn scripted_faults_reach_core_error_paths() {
    let server = Arc::new(Server::new());

    // Channel error with a single connector (no replica to fail over
    // to) surfaces as CoreError::Proto.
    let log = FaultLog::new();
    let mut t = Loopback::new(server.clone());
    t.set_fault_layer(Box::new(FaultInjector::new(
        3,
        FaultPlan::none().with_rule(FaultRule {
            kind: Some("open"),
            nth: 1,
            fault: FaultKind::Drop,
        }),
        log,
    )));
    let mut s = Session::with_options(MachineArch::x86(), Box::new(t), options()).unwrap();
    let err = s.open_segment("h/s").expect_err("dropped open must error");
    assert!(matches!(err, CoreError::Proto(_)), "got {err:?}");

    // A corrupted frame is answered with a server error
    // (CoreError::Server). A single byte flip can still decode as a
    // *valid* request — even an Acquire for a phantom client id that
    // takes the lock and never releases it (the reason recoverable()
    // plans exclude corruption). Sweep a few seeds on fresh servers and
    // require that the error path was reached — every failure must be a
    // clean per-call error, never a wedged session.
    let mut server_errors = 0;
    for seed in 0..16u64 {
        let mut t = Loopback::new(Arc::new(Server::new()));
        t.set_fault_layer(Box::new(FaultInjector::new(
            seed,
            FaultPlan::none().with_rule(FaultRule {
                kind: Some("acquire"),
                nth: 1,
                fault: FaultKind::Corrupt,
            }),
            FaultLog::new(),
        )));
        let mut s = Session::with_options(MachineArch::x86(), Box::new(t), options()).unwrap();
        let h = s.open_segment("h/s").unwrap();
        match s.wl_acquire(&h) {
            Ok(()) => {
                s.wl_release(&h).unwrap();
            }
            Err(CoreError::Server(_)) => server_errors += 1,
            // Undecodable frame, or a phantom-client grant starving the
            // real acquire until its retry budget runs out.
            Err(CoreError::Proto(_) | CoreError::LockTimeout(_)) => {}
            Err(e) => panic!("corrupted acquire must fail cleanly, got {e:?}"),
        }
    }
    assert!(
        server_errors > 0,
        "no seed in the sweep reached the server-error path"
    );
}
