//! End-to-end cluster failover: a primary/backup `iwsrv` pair over TCP,
//! a client writing through a replica group, the primary killed mid-run,
//! transparent failover, and a fresh reader verifying the backup holds
//! bit-identical pre-kill contents.

mod common;

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use common::{iwstat, json_value, spawn_iwsrv};
use iw_core::Session;
use iw_types::{desc::TypeDesc, MachineArch};

/// Polls the backup until its copy of `clu/data` reaches `version`.
fn await_backup_version(backup: SocketAddr, version: u64) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let json = iwstat(backup, &["--json"]);
        if json_value(&json, "server.segment.clu/data.version") >= Some(version) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "backup never reached version {version}: {json}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn two_node_cluster_survives_primary_death() {
    let primary = spawn_iwsrv(&[]);
    let backup = spawn_iwsrv(&["--backup-of", &primary.addr.to_string()]);

    // The client speaks to the replica group: primary first, backup next.
    let addrs = [primary.addr, backup.addr];
    let mut s = Session::new(
        MachineArch::x86(),
        Box::new(iw_proto::TcpTransport::connect(addrs[0]).expect("primary reachable")),
    )
    .unwrap();
    s.add_tcp_server_group("clu", &addrs).unwrap();

    // Version 1: the block; versions 2..=5: distinct values.
    let h = s.open_segment("clu/data").unwrap();
    s.wl_acquire(&h).unwrap();
    let vals = s.malloc(&h, &TypeDesc::int64(), 8, Some("vals")).unwrap();
    s.wl_release(&h).unwrap();
    for round in 0..4u64 {
        s.wl_acquire(&h).unwrap();
        let slot = s.index(&vals, round as u32).unwrap();
        s.write_i64(&slot, 100 + round as i64).unwrap();
        s.wl_release(&h).unwrap();
    }

    // Replication is asynchronous: wait for the backup to catch up, so
    // everything written so far survives the kill.
    await_backup_version(backup.addr, 5);
    let primary_stats = iwstat(primary.addr, &["--json"]);
    assert!(
        json_value(&primary_stats, "cluster.diffs_shipped_total") > Some(0),
        "{primary_stats}"
    );
    assert_eq!(
        json_value(&primary_stats, "cluster.backups"),
        Some(1),
        "{primary_stats}"
    );

    // Kill the primary between releases; the next lock round trip hits a
    // dead socket and must fail over transparently.
    drop(primary);
    for round in 4..6u64 {
        s.wl_acquire(&h).unwrap();
        let slot = s.index(&vals, round as u32).unwrap();
        s.write_i64(&slot, 100 + round as i64).unwrap();
        s.wl_release(&h).unwrap();
    }
    assert_eq!(
        s.metrics_snapshot().counter("client.failovers_total"),
        Some(1)
    );

    // A fresh reader bound to the backup alone sees every write: the
    // replicated pre-kill versions and the failed-over post-kill ones.
    let mut r = Session::new(
        MachineArch::alpha(),
        Box::new(iw_proto::TcpTransport::connect(addrs[1]).unwrap()),
    )
    .unwrap();
    let hr = r.open_segment("clu/data").unwrap();
    r.rl_acquire(&hr).unwrap();
    let rv = r.mip_to_ptr("clu/data#vals").unwrap();
    for round in 0..6u64 {
        let slot = r.index(&rv, round as u32).unwrap();
        assert_eq!(r.read_i64(&slot).unwrap(), 100 + round as i64);
    }
    r.rl_release(&hr).unwrap();

    // The backup's own registry shows the replication and the failover.
    let backup_stats = iwstat(backup.addr, &["--json"]);
    assert!(
        json_value(&backup_stats, "cluster.diffs_applied_total") > Some(0),
        "{backup_stats}"
    );
    assert!(
        json_value(&backup_stats, "cluster.failovers_total") >= Some(1),
        "{backup_stats}"
    );
}
