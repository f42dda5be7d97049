//! End-to-end contention: two clients on *different* segments over real
//! TCP sockets against one `iwsrv`. With the sharded segment table the
//! server works on both connections at once, so its cumulative
//! in-handler time (`server.busy_us_total`) exceeds the wall-clock
//! elapsed time of the workload — impossible under the old global
//! handler mutex, which pinned busy ≤ elapsed by construction.
//!
//! The measured overlap ratio is printed for EXPERIMENTS.md.

mod common;

use std::net::SocketAddr;
use std::thread;
use std::time::Instant;

use bytes::Bytes;
use common::{iwstat, json_value, spawn_iwsrv, Srv};
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::{Coherence, TcpTransport, Transport};
use iw_types::desc::TypeDesc;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};

/// Primitives per segment block: 1 MiB of int32 per diff, so each
/// handler span is long enough for the scheduler to interleave the two
/// workers inside it.
const PRIMS: u32 = 256 * 1024;
/// Write cycles per client per attempt.
const OPS: u64 = 25;

/// Removes the server's data dir once the test is done with it.
struct DataDir(std::path::PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn_srv() -> (DataDir, Srv) {
    // Durable store checkpointing every version: each release then logs
    // the diff and encodes and writes the whole segment inside the
    // handler — substantial server-side work with no client-side
    // counterpart, which widens the measurable overlap window.
    let dir = std::env::temp_dir().join(format!("iw-contention-{}", std::process::id()));
    let srv = spawn_iwsrv(&[
        "--data-dir",
        dir.to_str().unwrap(),
        "--checkpoint-every",
        "1",
    ]);
    (DataDir(dir), srv)
}

fn server_metric(addr: SocketAddr, name: &str) -> u64 {
    json_value(&iwstat(addr, &["--json"]), name).unwrap_or_else(|| panic!("no {name}"))
}

/// One client over a real socket: `OPS` write cycles on its own
/// segment, each shipping a full-block 256 KiB diff.
fn hammer(addr: SocketAddr, segment: String, fill: i32) {
    let mut t = TcpTransport::connect(addr).expect("connect");
    let Reply::Welcome { client, .. } = t
        .request(&Request::Hello {
            info: format!("contender-{segment}"),
        })
        .expect("hello")
    else {
        panic!("no welcome")
    };
    t.request(&Request::Open {
        client,
        segment: segment.clone(),
    })
    .expect("open");
    // Build the payload once; `Bytes` clones are O(1), keeping the
    // client's per-op cost low so the measurement is server-bound.
    let mut raw = Vec::with_capacity(PRIMS as usize * 4);
    for _ in 0..PRIMS {
        raw.extend_from_slice(&fill.to_be_bytes());
    }
    let payload = Bytes::from(raw);
    for op in 0..OPS {
        // Deliberately stale `have_version` (stuck at the first write):
        // every acquire makes the server compose the cached diff chain
        // into one update — server-side work with no client-side
        // counterpart, which is exactly what the overlap measurement
        // wants to observe.
        let have = u64::from(op > 0);
        let granted = loop {
            match t
                .request(&Request::Acquire {
                    client,
                    segment: segment.clone(),
                    mode: LockMode::Write,
                    have_version: have,
                    coherence: Coherence::Full,
                })
                .expect("acquire")
            {
                Reply::Granted { version, .. } => break version,
                Reply::Busy => thread::yield_now(),
                other => panic!("unexpected acquire reply: {other:?}"),
            }
        };
        let diff = if granted == 0 {
            SegmentDiff {
                from_version: 0,
                to_version: 1,
                new_types: vec![(0, TypeDesc::int32())],
                new_blocks: vec![NewBlock {
                    serial: 0,
                    name: None,
                    type_serial: 0,
                    count: PRIMS,
                    data: payload.clone(),
                }],
                ..Default::default()
            }
        } else {
            SegmentDiff {
                from_version: granted,
                to_version: granted + 1,
                block_diffs: vec![BlockDiff {
                    serial: 0,
                    runs: vec![DiffRun {
                        start: 0,
                        count: PRIMS as u64,
                        data: payload.clone(),
                    }],
                }],
                ..Default::default()
            }
        };
        let r = t
            .request(&Request::Release {
                client,
                segment: segment.clone(),
                diff: Some(diff),
            })
            .expect("release");
        assert!(matches!(r, Reply::Released { .. }), "{r:?}");
    }
}

#[test]
fn disjoint_segment_clients_overlap_on_the_wire() {
    // The server dies before its data dir is removed.
    let (_dir, srv) = spawn_srv();
    let addr = srv.addr;

    // Scheduling noise can thin out the overlap on a loaded machine;
    // the busy counter is cumulative, so simply re-running the workload
    // gives it another chance. Three attempts bound the worst case.
    let mut measured = None;
    for attempt in 0..3 {
        let busy_before = server_metric(addr, "server.busy_us_total");
        let t0 = Instant::now();
        let a = thread::spawn(move || hammer(addr, format!("c/a{attempt}"), 0x1111));
        let b = thread::spawn(move || hammer(addr, format!("c/b{attempt}"), 0x2222));
        a.join().expect("client a");
        b.join().expect("client b");
        let elapsed_us = t0.elapsed().as_micros() as u64;
        let busy_us = server_metric(addr, "server.busy_us_total").saturating_sub(busy_before);
        let ratio = busy_us as f64 / elapsed_us as f64;
        println!(
            "contention attempt {attempt}: elapsed={elapsed_us}us \
             server_busy={busy_us}us overlap_ratio={ratio:.2}"
        );
        if busy_us as f64 > elapsed_us as f64 * 1.05 {
            measured = Some((elapsed_us, busy_us, ratio));
            break;
        }
    }
    let (elapsed_us, busy_us, ratio) = measured.expect(
        "server in-handler time never exceeded wall-clock: requests on \
         disjoint segments are being serialized",
    );
    println!(
        "contention result: elapsed={elapsed_us}us server_busy={busy_us}us \
         overlap_ratio={ratio:.2}"
    );

    // And the server itself observed ≥2 requests in flight at once.
    let peak = server_metric(addr, "server.concurrent_requests_peak");
    assert!(peak >= 2, "concurrent_requests_peak = {peak}");
}
