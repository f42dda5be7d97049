//! Concurrency suite for the sharded server: many threads hammer
//! lock/modify/release cycles through loopback connections, and the
//! final state must equal a serial oracle — with every test wrapped in
//! a deadlock watchdog.
//!
//! These tests exercise exactly the property the sharded segment table
//! claims: requests against disjoint segments are independent (same
//! outcome as any serial order), same-segment writers serialize through
//! the client lock table, and two requests really can be inside
//! `handle_request` at once.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use iw_faults::{FaultInjector, FaultLog, FaultPlan};
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::{Coherence, Handler, Loopback, Transport};
use iw_server::{checkpoint, Server};
use iw_types::desc::TypeDesc;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};

const PRIMS: u32 = 64;

/// Runs `f` on a fresh thread and panics if it has not finished within
/// `secs` — a deadlock in the server's lock hierarchy hangs the worker,
/// and this turns the hang into a loud failure instead of a stuck CI
/// job.
fn with_watchdog(secs: u64, f: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = thread::Builder::new()
        .name("concurrency-test".into())
        .spawn(move || {
            f();
            let _ = done_tx.send(());
        })
        .expect("spawn test worker");
    match done_rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("test worker panicked"),
        Err(_) => panic!("test did not finish within {secs}s — deadlock?"),
    }
}

/// The version-1 diff: one 64-int block, serial 0, all zeros.
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

/// A diff advancing `from` → `from + 1` that writes `vals` starting at
/// prim `start` of block 0.
fn write_diff(from: u64, start: u64, vals: &[i32]) -> SegmentDiff {
    let mut data = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        data.extend_from_slice(&v.to_be_bytes());
    }
    SegmentDiff {
        from_version: from,
        to_version: from + 1,
        block_diffs: vec![BlockDiff {
            serial: 0,
            runs: vec![DiffRun {
                start,
                count: vals.len() as u64,
                data: Bytes::from(data),
            }],
        }],
        ..Default::default()
    }
}

/// The deterministic payload for version `to` of segment index `s`.
fn payload(s: usize, to: u64) -> Vec<i32> {
    (0..8)
        .map(|k| (s as i32) * 1_000_000 + (to as i32) * 100 + k)
        .collect()
}

/// One full write cycle: acquire Write (retrying Busy), release with a
/// diff built from the granted version. Returns the committed version.
fn write_cycle(t: &mut Loopback, client: u64, segment: &str, s: usize) -> u64 {
    let granted = loop {
        let r = t
            .request(&Request::Acquire {
                client,
                segment: segment.into(),
                mode: LockMode::Write,
                have_version: 0,
                coherence: Coherence::Full,
            })
            .expect("acquire");
        match r {
            Reply::Granted { version, .. } => break version,
            Reply::Busy => thread::yield_now(),
            other => panic!("unexpected acquire reply: {other:?}"),
        }
    };
    let diff = if granted == 0 {
        seed_diff()
    } else {
        write_diff(granted, 0, &payload(s, granted + 1))
    };
    let r = t
        .request(&Request::Release {
            client,
            segment: segment.into(),
            diff: Some(diff),
        })
        .expect("release");
    match r {
        Reply::Released { version } => version,
        other => panic!("unexpected release reply: {other:?}"),
    }
}

/// N threads × M disjoint segments: every thread owns its segments
/// outright, so all requests should proceed with zero cross-thread
/// blocking, and the final state must be byte-identical to a serial
/// replay of the same per-segment histories.
#[test]
fn disjoint_segments_match_serial_oracle() {
    with_watchdog(60, || {
        const THREADS: usize = 4;
        const SEGS_PER_THREAD: usize = 2;
        const OPS: u64 = 25;

        let server = Arc::new(Server::new());
        let handler: Arc<dyn Handler> = server.clone();
        let mut workers = Vec::new();
        for t_idx in 0..THREADS {
            let handler = handler.clone();
            workers.push(thread::spawn(move || {
                let mut t = Loopback::new(handler);
                let Reply::Welcome { client, .. } = t
                    .request(&Request::Hello {
                        info: format!("worker-{t_idx}"),
                    })
                    .expect("hello")
                else {
                    panic!("no welcome")
                };
                for j in 0..SEGS_PER_THREAD {
                    let seg = format!("c/t{t_idx}s{j}");
                    t.request(&Request::Open {
                        client,
                        segment: seg.clone(),
                    })
                    .expect("open");
                }
                for op in 0..OPS {
                    for j in 0..SEGS_PER_THREAD {
                        let s = t_idx * SEGS_PER_THREAD + j;
                        let seg = format!("c/t{t_idx}s{j}");
                        let v = write_cycle(&mut t, client, &seg, s);
                        assert_eq!(v, op + 1, "single-owner segment advances one per cycle");
                    }
                }
            }));
        }
        for w in workers {
            w.join().expect("worker");
        }

        // Serial oracle: the same per-segment histories on a fresh
        // server, one request at a time on this thread.
        let oracle = Server::new();
        let client = oracle.hello("oracle");
        for t_idx in 0..THREADS {
            for j in 0..SEGS_PER_THREAD {
                let s = t_idx * SEGS_PER_THREAD + j;
                let seg = format!("c/t{t_idx}s{j}");
                oracle.handle_request(&Request::Open {
                    client,
                    segment: seg.clone(),
                });
                // Drive the oracle directly, same diffs in the same
                // per-segment order.
                for op in 0..OPS {
                    let diff = if op == 0 {
                        seed_diff()
                    } else {
                        write_diff(op, 0, &payload(s, op + 1))
                    };
                    let r = oracle.handle_request(&Request::Acquire {
                        client,
                        segment: seg.clone(),
                        mode: LockMode::Write,
                        have_version: 0,
                        coherence: Coherence::Full,
                    });
                    assert!(matches!(r, Reply::Granted { .. }), "{r:?}");
                    let r = oracle.handle_request(&Request::Release {
                        client,
                        segment: seg.clone(),
                        diff: Some(diff),
                    });
                    assert_eq!(r, Reply::Released { version: op + 1 });
                }
            }
        }

        // Compare: per-segment version and the full checkpoint encoding
        // (name, version, serials, types, blocks, subblock versions).
        for t_idx in 0..THREADS {
            for j in 0..SEGS_PER_THREAD {
                let seg = format!("c/t{t_idx}s{j}");
                assert_eq!(
                    server.segment_version(&seg),
                    Some(OPS),
                    "{seg} final version"
                );
                let concurrent = server
                    .with_segment(&seg, |s| checkpoint::encode_segment(s).expect("encode"))
                    .expect("segment");
                let serial = oracle
                    .with_segment(&seg, |s| checkpoint::encode_segment(s).expect("encode"))
                    .expect("segment");
                assert_eq!(
                    concurrent, serial,
                    "{seg}: concurrent state must be byte-identical to the serial oracle"
                );
            }
        }
    });
}

/// All threads fight over ONE segment: the client lock table must
/// serialize the writers (Busy → retry), every committed version is
/// distinct, and the final version equals the total number of writes.
#[test]
fn same_segment_writers_serialize_without_deadlock() {
    with_watchdog(60, || {
        const THREADS: usize = 4;
        const OPS: u64 = 25;

        let server = Arc::new(Server::new());
        let handler: Arc<dyn Handler> = server.clone();
        let mut workers = Vec::new();
        for t_idx in 0..THREADS {
            let handler = handler.clone();
            workers.push(thread::spawn(move || {
                let mut t = Loopback::new(handler);
                let Reply::Welcome { client, .. } = t
                    .request(&Request::Hello {
                        info: format!("fighter-{t_idx}"),
                    })
                    .expect("hello")
                else {
                    panic!("no welcome")
                };
                t.request(&Request::Open {
                    client,
                    segment: "c/shared".into(),
                })
                .expect("open");
                let mut versions = Vec::with_capacity(OPS as usize);
                for _ in 0..OPS {
                    versions.push(write_cycle(&mut t, client, "c/shared", 0));
                }
                versions
            }));
        }
        let mut all_versions: Vec<u64> = Vec::new();
        for w in workers {
            let vs = w.join().expect("worker");
            assert!(
                vs.windows(2).all(|w| w[0] < w[1]),
                "one client's committed versions must be monotonic: {vs:?}"
            );
            all_versions.extend(vs);
        }
        all_versions.sort_unstable();
        let expect: Vec<u64> = (1..=(THREADS as u64 * OPS)).collect();
        assert_eq!(
            all_versions, expect,
            "every version 1..=N committed exactly once"
        );
        assert_eq!(
            server.segment_version("c/shared"),
            Some(THREADS as u64 * OPS)
        );
        // The lock table refused at least one acquire along the way (4
        // writers × 25 cycles over one lock cannot all be first in line),
        // and nothing is left held.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.gauge("server.locks_held"), Some(0));
        assert_eq!(
            snap.counter("server.lock.granted_total"),
            Some(THREADS as u64 * OPS),
            "one grant per committed write"
        );
    });
}

/// Two requests must be able to be inside `handle_request` at the same
/// time. A commit hook that dwells while holding segment `c/slow`'s
/// write lock keeps one worker in-flight; a second worker polls a
/// *different* segment meanwhile, which the sharded table must admit —
/// observable as `server.concurrent_requests_peak >= 2`. (With the old
/// global handler mutex the peak is pinned at 1 by construction.)
#[test]
fn requests_overlap_across_segments() {
    with_watchdog(60, || {
        let server = Arc::new(Server::new());
        server.set_commit_hook(Arc::new(|_, _| {
            thread::sleep(Duration::from_millis(2));
        }));
        let handler: Arc<dyn Handler> = server.clone();

        // Writer: 50 write cycles on c/slow, each commit dwelling 2 ms
        // inside the handler.
        let writer_handler = handler.clone();
        let writer = thread::spawn(move || {
            let mut t = Loopback::new(writer_handler);
            let Reply::Welcome { client, .. } = t
                .request(&Request::Hello { info: "w".into() })
                .expect("hello")
            else {
                panic!("no welcome")
            };
            t.request(&Request::Open {
                client,
                segment: "c/slow".into(),
            })
            .expect("open");
            for _ in 0..50 {
                write_cycle(&mut t, client, "c/slow", 0);
            }
        });

        // Poller: hammers a different segment until the writer is done.
        let mut t = Loopback::new(handler);
        let Reply::Welcome { client, .. } = t
            .request(&Request::Hello { info: "p".into() })
            .expect("hello")
        else {
            panic!("no welcome")
        };
        t.request(&Request::Open {
            client,
            segment: "c/other".into(),
        })
        .expect("open");
        while !writer.is_finished() {
            let r = t
                .request(&Request::Poll {
                    client,
                    segment: "c/other".into(),
                    have_version: 0,
                    coherence: Coherence::Full,
                    floor: 0,
                })
                .expect("poll");
            assert_eq!(r, Reply::UpToDate);
        }
        writer.join().expect("writer");

        let snap = server.metrics_snapshot();
        let peak = snap
            .counter("server.concurrent_requests_peak")
            .expect("peak metric");
        assert!(
            peak >= 2,
            "two requests never overlapped (peak {peak}) — server is serializing"
        );
        assert_eq!(snap.gauge("server.concurrent_requests"), Some(0));
    });
}

/// Mixed read/write traffic across shared and private segments: a
/// smoke-level schedule shuffle that must never deadlock and must leave
/// coherent versions.
#[test]
fn mixed_readers_and_writers_stay_coherent() {
    with_watchdog(60, || {
        let server = Arc::new(Server::new());
        let handler: Arc<dyn Handler> = server.clone();

        // Seed one shared segment serially.
        let seeder = server.hello("seed");
        server.handle_request(&Request::Open {
            client: seeder,
            segment: "c/mixed".into(),
        });
        let r = server.handle_request(&Request::Acquire {
            client: seeder,
            segment: "c/mixed".into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        });
        assert!(matches!(r, Reply::Granted { .. }));
        server.handle_request(&Request::Release {
            client: seeder,
            segment: "c/mixed".into(),
            diff: Some(seed_diff()),
        });

        let mut workers = Vec::new();
        for t_idx in 0..4usize {
            let handler = handler.clone();
            workers.push(thread::spawn(move || {
                let mut t = Loopback::new(handler);
                let Reply::Welcome { client, .. } = t
                    .request(&Request::Hello {
                        info: format!("m{t_idx}"),
                    })
                    .expect("hello")
                else {
                    panic!("no welcome")
                };
                for req in [
                    Request::Open {
                        client,
                        segment: "c/mixed".into(),
                    },
                    Request::Open {
                        client,
                        segment: format!("c/own{t_idx}"),
                    },
                ] {
                    t.request(&req).expect("open");
                }
                let mut have = 0u64;
                for op in 0..30u64 {
                    if t_idx % 2 == 0 {
                        // Readers: lock, maybe fetch, unlock; versions
                        // they observe must never move backwards.
                        let r = loop {
                            match t
                                .request(&Request::Acquire {
                                    client,
                                    segment: "c/mixed".into(),
                                    mode: LockMode::Read,
                                    have_version: have,
                                    coherence: Coherence::Full,
                                })
                                .expect("rl")
                            {
                                Reply::Busy => thread::yield_now(),
                                other => break other,
                            }
                        };
                        let Reply::Granted { version, .. } = r else {
                            panic!("{r:?}")
                        };
                        assert!(version >= have, "version went backwards");
                        have = version;
                        t.request(&Request::Release {
                            client,
                            segment: "c/mixed".into(),
                            diff: None,
                        })
                        .expect("rel");
                    } else {
                        // Writers alternate between the shared segment
                        // and their private one.
                        let seg = if op % 2 == 0 {
                            "c/mixed".to_string()
                        } else {
                            format!("c/own{t_idx}")
                        };
                        write_cycle(&mut t, client, &seg, t_idx);
                    }
                }
            }));
        }
        for w in workers {
            w.join().expect("worker");
        }
        // 2 writers × 15 shared writes on top of the seed version.
        assert_eq!(server.segment_version("c/mixed"), Some(31));
        let snap = server.metrics_snapshot();
        assert_eq!(snap.gauge("server.locks_held"), Some(0));
    });
}

/// Faults a raw-protocol client can retry through without ambiguity:
/// dropped requests (never delivered — the retry is exact), duplicated
/// deliveries (the second Release hits an already-released lock and its
/// error reply is discarded), and delays. DropReply and Truncate are
/// excluded here: at the raw request/reply layer a lost *reply* to an
/// applied Release can't be told apart from a lost request — that
/// recovery contract belongs to the session layer and is exercised in
/// `crates/faults/tests/chaos.rs`.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        drop_per_10k: 400,
        duplicate_per_10k: 400,
        delay_per_10k: 400,
        max_delay_us: 200,
        ..FaultPlan::none()
    }
}

/// Sends `req` until the link delivers it, treating injected channel
/// errors as retriable.
fn insist(t: &mut Loopback, req: &Request) -> Reply {
    loop {
        match t.request(req) {
            Ok(r) => break r,
            Err(_) => continue,
        }
    }
}

/// `write_cycle` hardened against injected channel faults: a dropped
/// Acquire or Release never reached the server, so resending it is
/// exact.
fn chaos_write_cycle(t: &mut Loopback, client: u64, segment: &str, s: usize) -> u64 {
    let granted = loop {
        match insist(
            t,
            &Request::Acquire {
                client,
                segment: segment.into(),
                mode: LockMode::Write,
                have_version: 0,
                coherence: Coherence::Full,
            },
        ) {
            Reply::Granted { version, .. } => break version,
            Reply::Busy => thread::yield_now(),
            other => panic!("unexpected acquire reply: {other:?}"),
        }
    };
    let diff = if granted == 0 {
        seed_diff()
    } else {
        write_diff(granted, 0, &payload(s, granted + 1))
    };
    match insist(
        t,
        &Request::Release {
            client,
            segment: segment.into(),
            diff: Some(diff),
        },
    ) {
        Reply::Released { version } => version,
        other => panic!("unexpected release reply: {other:?}"),
    }
}

/// The disjoint-segment oracle test under a seeded faulty loopback:
/// drops, duplicates and delays on every worker's link must not change
/// the final bytes — each segment still ends byte-identical to the
/// serial oracle, and each single-owner cycle still commits exactly one
/// version.
#[test]
fn disjoint_segments_match_serial_oracle_under_chaos() {
    with_watchdog(60, || {
        const THREADS: usize = 4;
        const SEGS_PER_THREAD: usize = 2;
        const OPS: u64 = 25;
        const SEED: u64 = 42;

        let server = Arc::new(Server::new());
        let handler: Arc<dyn Handler> = server.clone();
        let log = FaultLog::new();
        let mut workers = Vec::new();
        for t_idx in 0..THREADS {
            let handler = handler.clone();
            let log = log.clone();
            workers.push(thread::spawn(move || {
                let mut t = Loopback::new(handler);
                t.set_fault_layer(Box::new(FaultInjector::new(
                    SEED ^ (t_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    chaos_plan(),
                    log,
                )));
                let Reply::Welcome { client, .. } = insist(
                    &mut t,
                    &Request::Hello {
                        info: format!("chaos-{t_idx}"),
                    },
                ) else {
                    panic!("no welcome")
                };
                for j in 0..SEGS_PER_THREAD {
                    let r = insist(
                        &mut t,
                        &Request::Open {
                            client,
                            segment: format!("x/t{t_idx}s{j}"),
                        },
                    );
                    assert!(matches!(r, Reply::Opened { .. }), "{r:?}");
                }
                for op in 0..OPS {
                    for j in 0..SEGS_PER_THREAD {
                        let s = t_idx * SEGS_PER_THREAD + j;
                        let seg = format!("x/t{t_idx}s{j}");
                        let v = chaos_write_cycle(&mut t, client, &seg, s);
                        assert_eq!(v, op + 1, "one commit per cycle, faults or not");
                    }
                }
            }));
        }
        for w in workers {
            w.join().expect("worker");
        }
        assert!(
            !log.is_empty(),
            "the chaos run injected nothing — the oracle check is vacuous"
        );

        // Serial oracle, fault-free by construction.
        let oracle = Server::new();
        let client = oracle.hello("oracle");
        for t_idx in 0..THREADS {
            for j in 0..SEGS_PER_THREAD {
                let s = t_idx * SEGS_PER_THREAD + j;
                let seg = format!("x/t{t_idx}s{j}");
                oracle.handle_request(&Request::Open {
                    client,
                    segment: seg.clone(),
                });
                for op in 0..OPS {
                    let diff = if op == 0 {
                        seed_diff()
                    } else {
                        write_diff(op, 0, &payload(s, op + 1))
                    };
                    let r = oracle.handle_request(&Request::Acquire {
                        client,
                        segment: seg.clone(),
                        mode: LockMode::Write,
                        have_version: 0,
                        coherence: Coherence::Full,
                    });
                    assert!(matches!(r, Reply::Granted { .. }), "{r:?}");
                    let r = oracle.handle_request(&Request::Release {
                        client,
                        segment: seg.clone(),
                        diff: Some(diff),
                    });
                    assert_eq!(r, Reply::Released { version: op + 1 });
                }
            }
        }

        for t_idx in 0..THREADS {
            for j in 0..SEGS_PER_THREAD {
                let seg = format!("x/t{t_idx}s{j}");
                assert_eq!(server.segment_version(&seg), Some(OPS));
                let concurrent = server
                    .with_segment(&seg, |s| checkpoint::encode_segment(s).expect("encode"))
                    .expect("segment");
                let serial = oracle
                    .with_segment(&seg, |s| checkpoint::encode_segment(s).expect("encode"))
                    .expect("segment");
                assert_eq!(
                    concurrent, serial,
                    "{seg}: chaos-degraded run must end byte-identical to the serial oracle"
                );
            }
        }
        assert_eq!(
            server.metrics_snapshot().gauge("server.locks_held"),
            Some(0)
        );
    });
}
