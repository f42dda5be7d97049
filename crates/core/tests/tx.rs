//! Transaction semantics: atomic multi-segment commits, twin-based
//! rollback on abort, deferred frees, and failure handling.

use std::sync::Arc;

use iw_core::{CoreError, Session, TrackMode};
use iw_proto::{Handler, Loopback};
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_types::{idl, MachineArch};

fn server() -> Arc<dyn Handler> {
    Arc::new(Server::new())
}

fn session(srv: &Arc<dyn Handler>) -> Session {
    Session::new(MachineArch::x86(), Box::new(Loopback::new(srv.clone()))).unwrap()
}

#[test]
fn commit_applies_updates_across_segments_atomically() {
    let srv = server();
    let mut s = session(&srv);
    let ha = s.open_segment("tx/a").unwrap();
    let hb = s.open_segment("tx/b").unwrap();
    for h in [&ha, &hb] {
        s.wl_acquire(h).unwrap();
        let x = s.malloc(h, &TypeDesc::int64(), 1, Some("bal")).unwrap();
        s.write_i64(&x, 100).unwrap();
        s.wl_release(h).unwrap();
    }

    s.tx_begin().unwrap();
    s.wl_acquire(&ha).unwrap();
    s.wl_acquire(&hb).unwrap();
    let a = s.mip_to_ptr("tx/a#bal").unwrap();
    let b = s.mip_to_ptr("tx/b#bal").unwrap();
    s.write_i64(&a, 70).unwrap();
    s.write_i64(&b, 130).unwrap();
    s.tx_commit().unwrap();
    assert!(!s.in_tx());

    // Another client observes the committed state everywhere.
    let mut r = session(&srv);
    for (seg, want) in [("tx/a", 70), ("tx/b", 130)] {
        let h = r.open_segment(seg).unwrap();
        r.rl_acquire(&h).unwrap();
        let p = r.mip_to_ptr(&format!("{seg}#bal")).unwrap();
        assert_eq!(r.read_i64(&p).unwrap(), want);
        r.rl_release(&h).unwrap();
    }
}

#[test]
fn abort_rolls_back_scalar_writes() {
    let srv = server();
    let mut s = session(&srv);
    let h = s.open_segment("tx/rb").unwrap();
    s.wl_acquire(&h).unwrap();
    let arr = s.malloc(&h, &TypeDesc::int32(), 100, Some("arr")).unwrap();
    for i in 0..100 {
        s.write_i32(&s.index(&arr, i).unwrap(), i as i32).unwrap();
    }
    s.wl_release(&h).unwrap();

    s.tx_begin().unwrap();
    s.wl_acquire(&h).unwrap();
    for i in 0..100 {
        s.write_i32(&s.index(&arr, i).unwrap(), -1).unwrap();
    }
    s.tx_abort().unwrap();
    assert!(!s.in_tx());

    // Local copy is pristine again.
    s.rl_acquire(&h).unwrap();
    for i in 0..100 {
        assert_eq!(s.read_i32(&s.index(&arr, i).unwrap()).unwrap(), i as i32);
    }
    s.rl_release(&h).unwrap();

    // And the server never saw the writes.
    let mut r = session(&srv);
    let hr = r.open_segment("tx/rb").unwrap();
    r.rl_acquire(&hr).unwrap();
    let p = r.mip_to_ptr("tx/rb#arr").unwrap();
    assert_eq!(r.read_i32(&r.index(&p, 50).unwrap()).unwrap(), 50);
    r.rl_release(&hr).unwrap();
}

#[test]
fn abort_discards_tx_allocated_blocks_and_pointer_links() {
    let srv = server();
    let mut s = session(&srv);
    let node_t = idl::compile("struct node { int key; struct node *next; };")
        .unwrap()
        .get("node")
        .unwrap()
        .clone();
    let h = s.open_segment("tx/list").unwrap();
    s.wl_acquire(&h).unwrap();
    let head = s.malloc(&h, &node_t, 1, Some("head")).unwrap();
    s.wl_release(&h).unwrap();

    s.tx_begin().unwrap();
    s.wl_acquire(&h).unwrap();
    let n = s.malloc(&h, &node_t, 1, None).unwrap();
    s.write_i32(&s.field(&n, "key").unwrap(), 9).unwrap();
    s.write_ptr(&s.field(&head, "next").unwrap(), Some(&n))
        .unwrap();
    s.tx_abort().unwrap();

    s.rl_acquire(&h).unwrap();
    // The link rolled back to null; the node is gone.
    assert!(s
        .read_ptr(&s.field(&head, "next").unwrap())
        .unwrap()
        .is_none());
    s.rl_release(&h).unwrap();

    // Allocation works normally afterwards (serials not burned locally).
    s.wl_acquire(&h).unwrap();
    let again = s.malloc(&h, &node_t, 1, None).unwrap();
    s.write_i32(&s.field(&again, "key").unwrap(), 1).unwrap();
    s.wl_release(&h).unwrap();
}

#[test]
fn tx_free_is_deferred_and_abortable() {
    let srv = server();
    let mut s = session(&srv);
    let h = s.open_segment("tx/free").unwrap();
    s.wl_acquire(&h).unwrap();
    let victim = s.malloc(&h, &TypeDesc::int32(), 4, Some("victim")).unwrap();
    s.write_i32(&s.index(&victim, 0).unwrap(), 5).unwrap();
    s.wl_release(&h).unwrap();

    // Abort: the block survives.
    s.tx_begin().unwrap();
    s.wl_acquire(&h).unwrap();
    let v = s.mip_to_ptr("tx/free#victim").unwrap();
    s.free(&h, &v).unwrap();
    s.tx_abort().unwrap();
    s.rl_acquire(&h).unwrap();
    let victim2 = s.mip_to_ptr("tx/free#victim").unwrap();
    assert_eq!(s.read_i32(&s.index(&victim2, 0).unwrap()).unwrap(), 5);
    s.rl_release(&h).unwrap();

    // Commit: the block is gone, here and remotely.
    s.tx_begin().unwrap();
    s.wl_acquire(&h).unwrap();
    let v = s.mip_to_ptr("tx/free#victim").unwrap();
    s.free(&h, &v).unwrap();
    s.tx_commit().unwrap();
    assert!(s.mip_to_ptr("tx/free#victim").is_err());
    let mut r = session(&srv);
    r.open_segment("tx/free").unwrap();
    assert!(r.mip_to_ptr("tx/free#victim").is_err());
}

#[test]
fn tx_protocol_violations_are_rejected() {
    let srv = server();
    let mut s = session(&srv);
    let h = s.open_segment("tx/viol").unwrap();

    // Nested transactions.
    s.tx_begin().unwrap();
    assert!(matches!(s.tx_begin(), Err(CoreError::BadPath(_))));
    // wl_release inside a transaction.
    s.wl_acquire(&h).unwrap();
    assert!(matches!(s.wl_release(&h), Err(CoreError::BadPath(_))));
    s.tx_abort().unwrap();

    // Commit/abort without a transaction.
    assert!(matches!(s.tx_commit(), Err(CoreError::BadPath(_))));
    assert!(matches!(s.tx_abort(), Err(CoreError::BadPath(_))));

    // tx_begin while already holding a write lock.
    s.wl_acquire(&h).unwrap();
    assert!(matches!(s.tx_begin(), Err(CoreError::BadPath(_))));
    s.wl_release(&h).unwrap();
}

#[test]
fn empty_transaction_commits_cleanly() {
    let srv = server();
    let mut s = session(&srv);
    s.tx_begin().unwrap();
    s.tx_commit().unwrap();
    assert!(!s.in_tx());
}

#[test]
fn commits_count_no_diff_transitions_like_releases() {
    // Fully dirty tenures move a segment into no-diff mode whether they
    // end in wl_release or tx_commit; both must count the transition.
    let srv = server();
    for via_tx in [false, true] {
        let mut s = session(&srv);
        let h = s.open_segment(&format!("tx/nodiff-{via_tx}")).unwrap();
        s.wl_acquire(&h).unwrap();
        let arr = s.malloc(&h, &TypeDesc::int32(), 64, Some("arr")).unwrap();
        s.wl_release(&h).unwrap();
        for round in 1..=3 {
            if via_tx {
                s.tx_begin().unwrap();
            }
            s.wl_acquire(&h).unwrap();
            for i in 0..64 {
                let v = round * 1_000 + i as i32;
                s.write_i32(&s.index(&arr, i).unwrap(), v).unwrap();
            }
            if via_tx {
                s.tx_commit().unwrap();
            } else {
                s.wl_release(&h).unwrap();
            }
        }
        assert!(matches!(
            s.tracking_mode(&h).unwrap(),
            TrackMode::NoDiff { .. }
        ));
        let transitions = s
            .metrics_snapshot()
            .counter("client.no_diff.transitions_total");
        assert_eq!(transitions, Some(1), "via_tx = {via_tx}");
    }
}

#[test]
fn concurrent_transfer_transactions_preserve_total() {
    // The classic bank-transfer test across two segments, four threads.
    let srv = server();
    let mut init = session(&srv);
    for seg in ["bank/a", "bank/b"] {
        let h = init.open_segment(seg).unwrap();
        init.wl_acquire(&h).unwrap();
        let x = init.malloc(&h, &TypeDesc::int64(), 1, Some("bal")).unwrap();
        init.write_i64(&x, 1000).unwrap();
        init.wl_release(&h).unwrap();
    }
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let srv = srv.clone();
            std::thread::spawn(move || {
                let mut s = session(&srv);
                let ha = s.open_segment("bank/a").unwrap();
                let hb = s.open_segment("bank/b").unwrap();
                for i in 0..10 {
                    let amount = ((t * 10 + i) % 7) as i64 - 3;
                    s.tx_begin().unwrap();
                    s.wl_acquire(&ha).unwrap();
                    s.wl_acquire(&hb).unwrap();
                    let a = s.mip_to_ptr("bank/a#bal").unwrap();
                    let b = s.mip_to_ptr("bank/b#bal").unwrap();
                    let av = s.read_i64(&a).unwrap();
                    let bv = s.read_i64(&b).unwrap();
                    s.write_i64(&a, av - amount).unwrap();
                    s.write_i64(&b, bv + amount).unwrap();
                    if i % 3 == 0 {
                        s.tx_abort().unwrap();
                    } else {
                        s.tx_commit().unwrap();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut s = session(&srv);
    let mut total = 0i64;
    for seg in ["bank/a", "bank/b"] {
        let h = s.open_segment(seg).unwrap();
        s.rl_acquire(&h).unwrap();
        let bal = s.mip_to_ptr(&format!("{seg}#bal")).unwrap();
        total += s.read_i64(&bal).unwrap();
        s.rl_release(&h).unwrap();
    }
    assert_eq!(total, 2000, "transfers must conserve the total");
}
