//! End-to-end replica-read fan-out: a `Session` whose relaxed-coherence
//! reads are served by a [`Backup`] while the write path and Full reads
//! stay pinned to the [`Primary`].
//!
//! The value stored at `clu/data#x` always equals the committed version
//! that wrote it, so every read doubles as a content oracle: a torn or
//! mis-versioned reply shows up as `value != version`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use iw_cluster::{Backup, Primary};
use iw_core::{Connector, SegHandle, Session};
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::{Coherence, Handler, Loopback, Transport};
use iw_server::{checkpoint, Server};
use iw_types::desc::TypeDesc;
use iw_types::MachineArch;
use iw_wire::diff::{NewBlock, SegmentDiff};

fn connector(h: &Arc<dyn Handler>) -> Connector {
    let h = h.clone();
    Box::new(move || Ok(Box::new(Loopback::new(h.clone())) as Box<dyn Transport>))
}

/// A session whose `clu/*` group is the primary, with the given read
/// replicas registered.
fn session(primary: &Arc<Primary>, replicas: &[Arc<dyn Handler>]) -> Session {
    let scratch: Arc<dyn Handler> = Arc::new(Server::new());
    let mut s = Session::new(MachineArch::x86(), Box::new(Loopback::new(scratch))).unwrap();
    let ph: Arc<dyn Handler> = primary.clone();
    s.add_server_group("clu", vec![connector(&ph)]).unwrap();
    s.add_read_replicas("clu", replicas.iter().map(connector).collect())
        .unwrap();
    s
}

/// Seeds `clu/data#x = 1` (version 1: value == version) and returns the
/// writer with its handle.
fn writer(primary: &Arc<Primary>) -> (Session, SegHandle) {
    let mut s = session(primary, &[]);
    let h = s.open_segment("clu/data").unwrap();
    s.wl_acquire(&h).unwrap();
    let p = s.malloc(&h, &TypeDesc::int64(), 1, Some("x")).unwrap();
    s.write_i64(&p, 1).unwrap();
    s.wl_release(&h).unwrap();
    (s, h)
}

/// Commits one more version keeping the `value == version` oracle.
fn bump(s: &mut Session, h: &SegHandle) {
    s.wl_acquire(h).unwrap();
    let committing = s.segment_version(h).unwrap() + 1;
    let p = s.mip_to_ptr("clu/data#x").unwrap();
    s.write_i64(&p, committing as i64).unwrap();
    s.wl_release(h).unwrap();
}

fn counter(s: &Session, name: &str) -> u64 {
    s.metrics_snapshot().counter(name).unwrap_or(0)
}

/// One locked read returning `(value, version)`.
fn read(s: &mut Session, h: &SegHandle) -> (i64, u64) {
    s.rl_acquire(h).unwrap();
    let p = s.mip_to_ptr("clu/data#x").unwrap();
    let v = s.read_i64(&p).unwrap();
    let version = s.segment_version(h).unwrap();
    s.rl_release(h).unwrap();
    (v, version)
}

/// Hand-ships a full image primary → backup (the ship thread's
/// `SyncFull`), pinning the backup at the primary's current version.
fn sync(primary: &Arc<Server>, backup: &Arc<Server>, segment: &str) {
    let image = primary
        .with_segment_mut(segment, |seg| {
            checkpoint::encode_segment(seg).expect("image encodes")
        })
        .expect("segment exists on primary");
    let reply = backup.handle_request(&Request::SyncFull {
        segment: segment.to_string(),
        image,
    });
    assert!(matches!(reply, Reply::Replicated { .. }), "{reply:?}");
}

#[test]
fn relaxed_reads_are_served_by_a_caught_up_backup() {
    let bsrv = Arc::new(Server::new());
    let primary = Arc::new(Primary::new(Server::new()));
    let bh: Arc<dyn Handler> = bsrv.clone();
    primary.add_backup(Box::new(Loopback::new(bh)));
    primary.drain();
    let (mut w, hw) = writer(&primary);
    bump(&mut w, &hw);
    bump(&mut w, &hw); // primary and (after the drain) backup at v3
    primary.drain();
    assert_eq!(bsrv.segment_version("clu/data"), Some(3));

    let backup: Arc<dyn Handler> = Arc::new(Backup::new(bsrv.clone(), None));
    let mut r = session(&primary, std::slice::from_ref(&backup));
    let h = r.open_segment("clu/data").unwrap();
    r.set_coherence(&h, Coherence::Delta(1)).unwrap();

    // First read: the cache is empty, so the update diff itself comes
    // from the backup. Second read: version parity — the backup answers
    // `UpToDate`.
    assert_eq!(read(&mut r, &h), (3, 3));
    assert_eq!(read(&mut r, &h), (3, 3));

    assert_eq!(counter(&r, "cluster.replica_reads_total"), 2);
    assert_eq!(counter(&r, "cluster.replica_read_fallbacks_total"), 0);
    assert_eq!(counter(&r, "cluster.replica_read_violations_total"), 0);
    // Both floored polls landed on the backup, none on the primary.
    assert_eq!(
        bsrv.metrics_snapshot()
            .counter("cluster.replica_reads_served_total"),
        Some(2)
    );
    // The write path never touched the replica machinery.
    assert_eq!(counter(&w, "cluster.replica_reads_total"), 0);
}

#[test]
fn stale_backup_refuses_and_the_primary_serves() {
    let primary = Arc::new(Primary::new(Server::new()));
    let bsrv = Arc::new(Server::new());
    let (mut w, hw) = writer(&primary);
    // Pin the backup at v1, then advance the primary to v3: the backup
    // trails the Delta(1) floor (v2).
    sync(primary.server(), &bsrv, "clu/data");
    bump(&mut w, &hw);
    bump(&mut w, &hw);

    let backup: Arc<dyn Handler> = Arc::new(Backup::new(bsrv.clone(), None));
    let mut r = session(&primary, std::slice::from_ref(&backup));
    let h = r.open_segment("clu/data").unwrap();
    r.set_coherence(&h, Coherence::Delta(1)).unwrap();

    // The backup refuses (`NotFresh`), the primary serves, the caller
    // never notices.
    assert_eq!(read(&mut r, &h), (3, 3));
    assert_eq!(counter(&r, "cluster.replica_reads_total"), 0);
    assert_eq!(counter(&r, "cluster.replica_not_fresh_total"), 1);
    assert_eq!(counter(&r, "cluster.replica_read_fallbacks_total"), 1);
    assert_eq!(
        bsrv.metrics_snapshot()
            .counter("cluster.replica_not_fresh_total"),
        Some(1)
    );
    // The refusal recorded the backup's version; its lag is observable.
    assert_eq!(
        r.metrics_snapshot().gauge("cluster.replica_lag.clu.r0"),
        Some(2)
    );

    // Once the backup catches up, the same session offloads again.
    sync(primary.server(), &bsrv, "clu/data");
    assert_eq!(read(&mut r, &h), (3, 3));
    assert_eq!(counter(&r, "cluster.replica_reads_total"), 1);
    assert_eq!(counter(&r, "cluster.replica_read_violations_total"), 0);
}

#[test]
fn aged_temporal_anchor_probes_the_frontier_then_offloads() {
    let bsrv = Arc::new(Server::new());
    let primary = Arc::new(Primary::new(Server::new()));
    let bh: Arc<dyn Handler> = bsrv.clone();
    primary.add_backup(Box::new(Loopback::new(bh)));
    primary.drain();
    let (mut w, hw) = writer(&primary);
    primary.drain(); // backup at v1

    let backup: Arc<dyn Handler> = Arc::new(Backup::new(bsrv.clone(), None));
    let mut r = session(&primary, std::slice::from_ref(&backup));
    let h = r.open_segment("clu/data").unwrap();
    r.set_coherence(&h, Coherence::Temporal(300)).unwrap();
    // Initial fetch: the anchor from `Open` is fresh, so even this first
    // read is replica-served.
    assert_eq!(read(&mut r, &h), (1, 1));
    assert_eq!(counter(&r, "cluster.replica_reads_total"), 1);
    let base_probes = counter(&r, "cluster.frontier_probes_total");

    bump(&mut w, &hw); // v2
    primary.drain();
    std::thread::sleep(Duration::from_millis(350));

    // The anchor aged out: one cheap frontier probe against the primary
    // re-arms it, and the heavy diff fetch still lands on the backup.
    assert_eq!(read(&mut r, &h), (2, 2));
    assert_eq!(
        counter(&r, "cluster.frontier_probes_total"),
        base_probes + 1
    );
    assert_eq!(counter(&r, "cluster.replica_reads_total"), 2);

    // Within the staleness window the read is satisfied locally — no
    // network traffic at all.
    assert_eq!(read(&mut r, &h), (2, 2));
    assert_eq!(
        counter(&r, "cluster.frontier_probes_total"),
        base_probes + 1
    );
    assert_eq!(counter(&r, "cluster.replica_reads_total"), 2);
    assert_eq!(counter(&r, "cluster.replica_read_violations_total"), 0);
}

#[test]
fn write_shaped_requests_bounce_with_not_primary() {
    let bsrv = Arc::new(Server::new());
    let backup: Arc<dyn Handler> =
        Arc::new(Backup::new(bsrv.clone(), Some("10.1.2.3:7777".into())));
    let mut t = Loopback::new(backup);
    let Reply::Welcome { client, .. } = t.request(&Request::Hello { info: "w".into() }).unwrap()
    else {
        panic!("no welcome")
    };
    t.request(&Request::Open {
        client,
        segment: "clu/data".into(),
    })
    .unwrap();

    let bounced = [
        Request::Acquire {
            client,
            segment: "clu/data".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        },
        Request::Release {
            client,
            segment: "clu/data".into(),
            diff: Some(SegmentDiff::default()),
        },
        Request::Commit {
            client,
            entries: vec![],
        },
        Request::AttachBackup {
            addr: "127.0.0.1:1".into(),
        },
    ];
    for req in bounced {
        assert_eq!(
            t.request(&req).unwrap(),
            Reply::NotPrimary {
                primary: Some("10.1.2.3:7777".into())
            },
            "{req:?} must be redirected"
        );
    }
    assert_eq!(
        bsrv.metrics_snapshot()
            .counter("cluster.write_redirects_total"),
        Some(4)
    );

    // Read-shaped traffic passes through to the replicated state: a
    // shared acquire takes a real (local) read lock and releases it.
    let r = t
        .request(&Request::Acquire {
            client,
            segment: "clu/data".into(),
            mode: LockMode::Read,
            have_version: 0,
            coherence: Coherence::Full,
        })
        .unwrap();
    assert!(matches!(r, Reply::Granted { .. }), "{r:?}");
    let r = t
        .request(&Request::Release {
            client,
            segment: "clu/data".into(),
            diff: None,
        })
        .unwrap();
    assert!(matches!(r, Reply::Released { .. }), "{r:?}");
}

/// A promotable backup (the `iwsrv --backup-of` shape) serves the
/// redirect face while the primary lives, then flips to its inner
/// primary face on the first failover-marked `Hello` — so PR 2's
/// kill-the-primary failover keeps working with the read-replica face
/// in front.
#[test]
fn failover_hello_promotes_a_promotable_backup() {
    let full = Primary::new(Server::new());
    let srv = full.server().clone();
    let backup = Arc::new(Backup::promotable(
        Arc::new(full),
        srv.clone(),
        Some("10.0.0.1:1".into()),
    ));
    let bh: Arc<dyn Handler> = backup.clone();
    let mut t = Loopback::new(bh);

    // While the primary is presumed alive: ordinary clients get the
    // redirect face.
    let Reply::Welcome { client, .. } = t.request(&Request::Hello { info: "w".into() }).unwrap()
    else {
        panic!("no welcome")
    };
    t.request(&Request::Open {
        client,
        segment: "clu/data".into(),
    })
    .unwrap();
    assert_eq!(
        t.request(&Request::Acquire {
            client,
            segment: "clu/data".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        })
        .unwrap(),
        Reply::NotPrimary {
            primary: Some("10.0.0.1:1".into())
        }
    );
    assert!(!backup.is_promoted());

    // A client that lost the primary re-registers with the failover
    // marker (`Session::fail_over`'s `Hello`): the backup latches its
    // primary face.
    let Reply::Welcome { client, .. } = t
        .request(&Request::Hello {
            info: "iw client on x86 (failover)".into(),
        })
        .unwrap()
    else {
        panic!("no welcome after failover")
    };
    assert!(backup.is_promoted());

    // The survivor owns the version chain now: writes succeed.
    t.request(&Request::Open {
        client,
        segment: "clu/data".into(),
    })
    .unwrap();
    let r = t
        .request(&Request::Acquire {
            client,
            segment: "clu/data".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        })
        .unwrap();
    assert!(matches!(r, Reply::Granted { .. }), "{r:?}");
    let diff = SegmentDiff {
        from_version: 0,
        to_version: 1,
        new_types: vec![(0, TypeDesc::int32())],
        new_blocks: vec![NewBlock {
            serial: 0,
            name: None,
            type_serial: 0,
            count: 4,
            data: Bytes::from(vec![1u8; 16]),
        }],
        ..Default::default()
    };
    assert_eq!(
        t.request(&Request::Release {
            client,
            segment: "clu/data".into(),
            diff: Some(diff),
        })
        .unwrap(),
        Reply::Released { version: 1 }
    );
    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counter("cluster.promotions_total"), Some(1));
    assert_eq!(snap.counter("cluster.failovers_total"), Some(1));
}

/// Satellite: the primary's dead-backup pruning must also evict the
/// backup from what clients are told, and clients must drop their
/// auto-discovered replica in turn — end to end over real TCP.
#[test]
fn pruned_backup_is_evicted_from_the_advertised_set() {
    let bsrv = Arc::new(Server::new());
    let backup = Arc::new(Backup::new(bsrv.clone(), None));
    let poisoned = Arc::new(AtomicBool::new(false));
    let pb = poisoned.clone();
    let handler: Arc<dyn Handler> = Arc::new(move |req: Bytes| {
        if pb.load(Ordering::SeqCst) {
            return Reply::Error {
                message: "injected: backup down".into(),
            }
            .encode();
        }
        backup.handle(req)
    });
    let srv = iw_net::NetServer::spawn("127.0.0.1:0".parse().unwrap(), handler).unwrap();
    let addr = srv.addr().to_string();

    let primary = Arc::new(Primary::new(Server::new()));
    let (mut w, hw) = writer(&primary);
    // The backup announces itself by address, as `iwsrv --backup-of`
    // does.
    let ph: Arc<dyn Handler> = primary.clone();
    let mut t = Loopback::new(ph);
    assert!(matches!(
        t.request(&Request::AttachBackup { addr: addr.clone() })
            .unwrap(),
        Reply::Replicated { .. }
    ));
    primary.drain();
    assert_eq!(primary.advertised_replicas(), vec![addr.clone()]);
    let Reply::Welcome { replicas, .. } = t.request(&Request::Hello { info: "x".into() }).unwrap()
    else {
        panic!("no welcome")
    };
    assert_eq!(replicas, vec![addr.clone()]);

    // A session discovers the replica from a frontier probe and serves
    // a relaxed read from it over TCP.
    let mut r = session(&primary, &[]);
    r.refresh_frontier("clu").unwrap();
    assert_eq!(r.read_replica_labels("clu"), vec![addr.clone()]);
    bump(&mut w, &hw);
    bump(&mut w, &hw); // v3
    primary.drain();
    let h = r.open_segment("clu/data").unwrap();
    r.set_coherence(&h, Coherence::Delta(1)).unwrap();
    assert_eq!(read(&mut r, &h), (3, 3));
    assert_eq!(counter(&r, "cluster.replica_reads_total"), 1);

    // The backup dies; the next shipped diff detects it, the primary
    // prunes the link and withdraws the advertisement...
    poisoned.store(true, Ordering::SeqCst);
    bump(&mut w, &hw);
    bump(&mut w, &hw); // v5: two versions past the reader's cache, so
    primary.drain(); // Delta(1) must fetch, not answer from the cache
    assert!(primary.advertised_replicas().is_empty());

    // ...and the client's next probe evicts its auto-discovered replica,
    // so reads fall back to the primary instead of a dead node.
    r.refresh_frontier("clu").unwrap();
    assert!(r.read_replica_labels("clu").is_empty());
    assert_eq!(read(&mut r, &h), (5, 5));
    assert_eq!(counter(&r, "cluster.replica_reads_total"), 1);
    assert_eq!(counter(&r, "cluster.replica_read_violations_total"), 0);
}
