//! End-to-end contention: two clients on *different* segments over real
//! TCP sockets against one `iwsrv`. With the sharded segment table the
//! server works on both connections at once, so its cumulative
//! in-handler time (`server.busy_us_total`) exceeds the wall-clock
//! elapsed time of the workload — impossible under the old global
//! handler mutex, which pinned busy ≤ elapsed by construction.
//!
//! The measured overlap ratio is printed for EXPERIMENTS.md.

use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::{Coherence, TcpTransport, Transport};
use iw_types::desc::TypeDesc;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};

const PORT: u16 = 17571;
/// Primitives per segment block: 1 MiB of int32 per diff, so each
/// handler span is long enough for the scheduler to interleave the two
/// workers inside it.
const PRIMS: u32 = 256 * 1024;
/// Write cycles per client per attempt.
const OPS: u64 = 25;

struct Srv(Child, std::path::PathBuf);

impl Drop for Srv {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
        let _ = std::fs::remove_dir_all(&self.1);
    }
}

#[allow(clippy::zombie_processes)] // killed + waited in Srv::drop
fn spawn_srv(port: u16) -> Srv {
    // Durable store checkpointing every version: each release then logs
    // the diff and encodes and writes the whole segment inside the
    // handler — substantial server-side work with no client-side
    // counterpart, which widens the measurable overlap window.
    let ckpt = std::env::temp_dir().join(format!("iw-contention-{}", std::process::id()));
    let child = Command::new(env!("CARGO_BIN_EXE_iwsrv"))
        .arg("--listen")
        .arg(format!("127.0.0.1:{port}"))
        .arg("--data-dir")
        .arg(&ckpt)
        .arg("--checkpoint-every")
        .arg("1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn iwsrv");
    for _ in 0..100 {
        if TcpStream::connect(("127.0.0.1", port)).is_ok() {
            return Srv(child, ckpt);
        }
        thread::sleep(Duration::from_millis(50));
    }
    panic!("iwsrv did not come up on port {port}");
}

fn iwstat_json(port: u16) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_iwstat"))
        .arg("--server")
        .arg(format!("127.0.0.1:{port}"))
        .arg("--json")
        .stderr(Stdio::inherit())
        .output()
        .expect("run iwstat");
    assert!(out.status.success(), "iwstat exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf8")
}

/// Pulls `"name":value` out of the iwstat JSON dump, if present.
fn json_value(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = json.find(&key)?;
    json[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

/// One client over a real socket: `OPS` write cycles on its own
/// segment, each shipping a full-block 256 KiB diff.
fn hammer(segment: String, fill: i32) {
    let addr = format!("127.0.0.1:{PORT}").parse().unwrap();
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
    let _srv = spawn_srv(PORT);

    // Scheduling noise can thin out the overlap on a loaded machine;
    // the busy counter is cumulative, so simply re-running the workload
    // gives it another chance. Three attempts bound the worst case.
    let mut measured = None;
    for attempt in 0..3 {
        let busy_before =
            json_value(&iwstat_json(PORT), "server.busy_us_total").expect("busy metric");
        let t0 = Instant::now();
        let a = thread::spawn(move || hammer(format!("c/a{attempt}"), 0x1111));
        let b = thread::spawn(move || hammer(format!("c/b{attempt}"), 0x2222));
        a.join().expect("client a");
        b.join().expect("client b");
        let elapsed_us = t0.elapsed().as_micros() as u64;
        let busy_us = json_value(&iwstat_json(PORT), "server.busy_us_total")
            .expect("busy metric")
            .saturating_sub(busy_before);
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
    let peak =
        json_value(&iwstat_json(PORT), "server.concurrent_requests_peak").expect("peak metric");
    assert!(peak >= 2, "concurrent_requests_peak = {peak}");
}
