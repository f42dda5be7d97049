//! End-to-end metrics test: spawn `iwsrv`, drive a writer/reader workload
//! through the client library over TCP, then scrape the server with
//! `iwstat` and check the diff, lock, and diff-cache metrics are live.

mod common;

use std::net::SocketAddr;

use common::{iwstat, json_value, spawn_iwsrv};
use iw_core::Session;
use iw_proto::{Coherence, TcpTransport};
use iw_types::{idl, MachineArch};

/// `json_value`, but a missing metric fails the test.
fn json_counter(json: &str, name: &str) -> u64 {
    json_value(json, name).unwrap_or_else(|| panic!("{name} not in {json}"))
}

fn connect(addr: SocketAddr) -> Session {
    Session::new(
        MachineArch::x86(),
        Box::new(TcpTransport::connect(addr).unwrap()),
    )
    .unwrap()
}

#[test]
fn workload_metrics_visible_through_iwstat() {
    let srv = spawn_iwsrv(&[]);
    let addr = srv.addr;

    let ty = idl::compile("struct pt { int x; int y; };")
        .unwrap()
        .get("pt")
        .unwrap()
        .clone();

    // Writer: create blocks, then publish several versions.
    let mut w = connect(addr);
    let hw = w.open_segment("stats/demo").unwrap();
    w.wl_acquire(&hw).unwrap();
    let blk = w.malloc(&hw, &ty, 64, Some("pts")).unwrap();
    w.wl_release(&hw).unwrap();
    for round in 0..4 {
        w.wl_acquire(&hw).unwrap();
        let f = w.index(&blk, round as u32).unwrap();
        w.write_i32(&w.field(&f, "x").unwrap(), round + 1).unwrap();
        w.wl_release(&hw).unwrap();
    }

    // Reader: lag behind, then catch up twice — the second catch-up from
    // an intermediate version exercises the diff cache.
    let mut r = connect(addr);
    let hr = r.open_segment("stats/demo").unwrap();
    r.set_coherence(&hr, Coherence::Full).unwrap();
    r.rl_acquire(&hr).unwrap();
    r.rl_release(&hr).unwrap();
    for round in 4..8 {
        w.wl_acquire(&hw).unwrap();
        let f = w.index(&blk, round as u32).unwrap();
        w.write_i32(&w.field(&f, "x").unwrap(), round + 1).unwrap();
        w.wl_release(&hw).unwrap();
    }
    r.rl_acquire(&hr).unwrap();
    r.rl_release(&hr).unwrap();
    // A second reader from scratch re-requests an update the cache may
    // now serve.
    let mut r2 = connect(addr);
    let hr2 = r2.open_segment("stats/demo").unwrap();
    r2.rl_acquire(&hr2).unwrap();
    r2.rl_release(&hr2).unwrap();

    // Client-side registry saw the same workload.
    let client_snap = w.metrics_snapshot();
    assert!(client_snap.counter("client.diff.collected_total").unwrap() >= 9);
    assert!(client_snap.counter("client.lock.acquires_total").unwrap() >= 9);
    assert!(client_snap.counter("proto.requests_total").unwrap() > 0);

    // Scrape over TCP with the real binary.
    let json = iwstat(addr, &["--json"]);
    assert!(json_counter(&json, "server.req.acquire_total") >= 12);
    assert!(json_counter(&json, "server.req.release_total") >= 12);
    assert!(json_counter(&json, "server.lock.granted_total") >= 12);
    assert!(
        json_counter(&json, "server.diff_cache.misses_total") > 0,
        "updates were built: {json}"
    );
    assert!(
        json_counter(&json, "server.diff_cache.hits_total")
            + json_counter(&json, "server.diff_cache.misses_total")
            >= 3,
        "three stale readers requested updates: {json}"
    );
    assert!(
        json_counter(&json, "server.segment.stats/demo.version") >= 9,
        "version: {json}"
    );

    // Text rendering carries the same numbers.
    let text = iwstat(addr, &[]);
    assert!(text.contains("server.requests_total"), "{text}");
    // Prometheus rendering sanitizes names.
    let prom = iwstat(addr, &["--prom"]);
    assert!(
        prom.contains("# TYPE server_requests_total counter"),
        "{prom}"
    );
    // Filtering keeps only the requested prefix.
    let filtered = iwstat(addr, &["--json", "--filter", "server.lock."]);
    assert!(filtered.contains("server.lock.granted_total"), "{filtered}");
    assert!(!filtered.contains("server.req.acquire_total"), "{filtered}");
}

#[test]
fn probe_mode_surfaces_client_iso_counters() {
    let srv = spawn_iwsrv(&[]);
    let addr = srv.addr;

    // The probe runs as a big-endian machine over a packed int array, so
    // both translation directions must take the isomorphic fast path.
    let json = iwstat(addr, &["--probe", "--json"]);
    assert!(
        json_counter(&json, "client.translate.iso_collects_total") > 0,
        "probe writer skipped the fast path: {json}"
    );
    assert!(
        json_counter(&json, "client.translate.iso_applies_total") > 0,
        "probe reader skipped the fast path: {json}"
    );
    // 4096 ints travel by memcpy at least once in each direction.
    assert!(
        json_counter(&json, "client.translate.iso_memcpy_bytes_total") >= 2 * 4096 * 4,
        "iso memcpy volume too low: {json}"
    );
    // The merged scrape still carries the server's own sections.
    assert!(json_counter(&json, "server.req.acquire_total") > 0);

    // A second probe against the same server reuses the probe segment.
    let again = iwstat(addr, &["--probe", "--json"]);
    assert!(json_counter(&again, "client.translate.iso_collects_total") > 0);

    // Probe counters compose with --filter and --prom like any metric.
    let filtered = iwstat(
        addr,
        &["--probe", "--json", "--filter", "client.translate.iso"],
    );
    assert!(
        filtered.contains("client.translate.iso_applies_total"),
        "{filtered}"
    );
    assert!(!filtered.contains("server.req.acquire_total"), "{filtered}");
    let prom = iwstat(addr, &["--probe", "--prom"]);
    assert!(
        prom.contains("# TYPE client_translate_iso_collects_total counter"),
        "{prom}"
    );
}
