//! Property test: any interleaving of two concurrent writers over two
//! segments is equivalent to *some* serial order — the lock table
//! admits one writer at a time per segment, every committed version is
//! consumed exactly once, and region-disjoint writes never clobber each
//! other.
//!
//! Each client owns an 8-prim region of every segment (client `c` owns
//! prims `c*8 .. c*8+8`), so whatever order the schedule interleaves
//! the lock grants in, the final content of a region must be the last
//! value its owner wrote to that segment — exactly what a serial
//! execution would produce.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::{Coherence, Handler, Loopback, Transport};
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};
use proptest::prelude::*;

const PRIMS: u32 = 64;
const SEGS: [&str; 2] = ["p/ia", "p/ib"];

fn seed_diff() -> SegmentDiff {
    SegmentDiff {
        from_version: 0,
        to_version: 1,
        new_types: vec![(0, TypeDesc::int32())],
        new_blocks: vec![NewBlock {
            serial: 0,
            name: None,
            type_serial: 0,
            count: PRIMS,
            data: Bytes::from(vec![0u8; PRIMS as usize * 4]),
        }],
        ..Default::default()
    }
}

/// Replays int32 runs over a model array; later writes win.
fn replay(model: &mut [i32], diff: &SegmentDiff) {
    for bd in &diff.block_diffs {
        for r in &bd.runs {
            for k in 0..r.count {
                let idx = (r.start + k) as usize;
                let b = &r.data[(k * 4) as usize..(k * 4 + 4) as usize];
                model[idx] = i32::from_be_bytes(b.try_into().expect("4B"));
            }
        }
    }
}

/// What one client did to one segment: how many releases it committed
/// and the last value it wrote there.
#[derive(Debug, Default, Clone, Copy)]
struct PerSeg {
    writes: u64,
    last: Option<i32>,
}

/// Runs one client's schedule on its own loopback connection. Each op
/// `(seg_pick, val)` write-locks the chosen segment (retrying Busy) and
/// writes `val` across the client's own 8-prim region. Returns the
/// per-segment tallies; panics (→ test failure) on any protocol error
/// or non-monotonic committed version.
fn run_client(handler: Arc<dyn Handler>, c: usize, ops: Vec<(bool, i32)>) -> [PerSeg; 2] {
    let mut t = Loopback::new(handler);
    let Reply::Welcome { client, .. } = t
        .request(&Request::Hello {
            info: format!("prop-{c}"),
        })
        .expect("hello")
    else {
        panic!("no welcome")
    };
    for seg in SEGS {
        t.request(&Request::Open {
            client,
            segment: seg.into(),
        })
        .expect("open");
    }
    let mut out = [PerSeg::default(); 2];
    let mut seen = [0u64; 2]; // last committed version per segment
    for (pick, val) in ops {
        let s = usize::from(pick);
        let seg = SEGS[s];
        let granted = loop {
            match t
                .request(&Request::Acquire {
                    client,
                    segment: seg.into(),
                    mode: LockMode::Write,
                    have_version: 0,
                    coherence: Coherence::Full,
                })
                .expect("acquire")
            {
                Reply::Granted { version, .. } => break version,
                Reply::Busy => thread::yield_now(),
                other => panic!("unexpected acquire reply: {other:?}"),
            }
        };
        let mut data = Vec::with_capacity(8 * 4);
        for _ in 0..8 {
            data.extend_from_slice(&val.to_be_bytes());
        }
        let diff = SegmentDiff {
            from_version: granted,
            to_version: granted + 1,
            block_diffs: vec![BlockDiff {
                serial: 0,
                runs: vec![DiffRun {
                    start: c as u64 * 8,
                    count: 8,
                    data: Bytes::from(data),
                }],
            }],
            ..Default::default()
        };
        match t
            .request(&Request::Release {
                client,
                segment: seg.into(),
                diff: Some(diff),
            })
            .expect("release")
        {
            Reply::Released { version } => {
                assert!(
                    version > seen[s],
                    "committed versions must be monotonic per client"
                );
                seen[s] = version;
            }
            other => panic!("unexpected release reply: {other:?}"),
        }
        out[s].writes += 1;
        out[s].last = Some(val);
    }
    out
}

/// Per-client, per-segment tallies from one case.
type Tallies = [[PerSeg; 2]; 2];
/// Final `(version, content)` of each segment.
type Finals = [(u64, Vec<i32>); 2];

/// Executes one whole case (server setup + two concurrent clients)
/// under a deadlock watchdog and returns both clients' tallies plus the
/// final per-segment state.
fn run_case(ops0: Vec<(bool, i32)>, ops1: Vec<(bool, i32)>) -> (Tallies, Finals) {
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let server = Arc::new(Server::new());
        // Seed both segments serially to version 1.
        let seeder = server.hello("seeder");
        for seg in SEGS {
            server.handle_request(&Request::Open {
                client: seeder,
                segment: seg.into(),
            });
            let r = server.handle_request(&Request::Acquire {
                client: seeder,
                segment: seg.into(),
                mode: LockMode::Write,
                have_version: 0,
                coherence: Coherence::Full,
            });
            assert!(matches!(r, Reply::Granted { .. }), "{r:?}");
            let r = server.handle_request(&Request::Release {
                client: seeder,
                segment: seg.into(),
                diff: Some(seed_diff()),
            });
            assert_eq!(r, Reply::Released { version: 1 });
        }

        let h0: Arc<dyn Handler> = server.clone();
        let h1: Arc<dyn Handler> = server.clone();
        let w0 = thread::spawn(move || run_client(h0, 0, ops0));
        let w1 = thread::spawn(move || run_client(h1, 1, ops1));
        let tallies = [w0.join().expect("client 0"), w1.join().expect("client 1")];

        // Final state: version plus full content rebuilt by replaying
        // the server's own 1→current update onto the seed image.
        let finals: [(u64, Vec<i32>); 2] = SEGS.map(|seg| {
            let version = server.segment_version(seg).expect("segment");
            let mut model = vec![0i32; PRIMS as usize];
            if version > 1 {
                let upd = server
                    .with_segment_mut(seg, |s| {
                        s.collect_update(999, 1, iw_proto::Coherence::Full)
                            .expect("update")
                    })
                    .expect("segment");
                assert_eq!(upd.to_version, version);
                replay(&mut model, &upd);
            }
            (version, model)
        });
        let _ = done_tx.send((tallies, finals));
    });
    match done_rx.recv_timeout(Duration::from_secs(30)) {
        Ok(r) => r,
        Err(_) => panic!("interleaving case did not finish within 30s — deadlock?"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_interleavings_equal_some_serial_order(
        ops0 in prop::collection::vec((any::<bool>(), any::<i32>()), 1..10),
        ops1 in prop::collection::vec((any::<bool>(), any::<i32>()), 1..10),
    ) {
        let (tallies, finals) = run_case(ops0.clone(), ops1.clone());

        for (s, (version, model)) in finals.iter().enumerate() {
            // Every successful release advanced the version by exactly
            // one: no committed write is lost or double-applied,
            // whatever the interleaving.
            let writes = tallies[0][s].writes + tallies[1][s].writes;
            prop_assert_eq!(*version, 1 + writes, "segment {}", SEGS[s]);

            // Region-disjoint writes: each client's region holds the
            // last value that client wrote to this segment — the same
            // answer every serial order gives.
            for (c, tally) in tallies.iter().enumerate() {
                let expect = tally[s].last.unwrap_or(0);
                let region = &model[c * 8..c * 8 + 8];
                prop_assert!(
                    region.iter().all(|&v| v == expect),
                    "segment {} client {} region: {:?}, want {}",
                    SEGS[s], c, region, expect
                );
            }
            // Unowned prims stay untouched.
            prop_assert!(model[16..].iter().all(|&v| v == 0));
        }
    }
}
