//! End-to-end durability: a server built with `--data-dir` survives
//! being dropped (or killed — the process-level variant lives in
//! iw-faults) and recovers byte-identical state from checkpoint + WAL.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::Coherence;
use iw_server::checkpoint;
use iw_server::{DurabilityMode, DurableOptions, Server};
use iw_types::desc::TypeDesc;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("iw-srv-dur-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts() -> DurableOptions {
    DurableOptions {
        fsync: false, // unit tests stay fast; real fsync is chaos-tested
        ..DurableOptions::default()
    }
}

/// Version `from` → `from+1`: creates block `from` and rewrites block 0's
/// first word, so every version both grows and mutates state.
fn chain_diff(from: u64) -> SegmentDiff {
    let mut d = SegmentDiff {
        from_version: from,
        to_version: from + 1,
        new_types: if from == 0 {
            vec![(0, TypeDesc::int32())]
        } else {
            Vec::new()
        },
        new_blocks: vec![NewBlock {
            serial: from as u32,
            name: None,
            type_serial: 0,
            count: 4,
            data: Bytes::from((from as u32).to_be_bytes().repeat(4)),
        }],
        ..Default::default()
    };
    if from > 0 {
        d.block_diffs.push(BlockDiff {
            serial: 0,
            runs: vec![DiffRun {
                start: 0,
                count: 1,
                data: Bytes::from((from as u32 * 1000).to_be_bytes().to_vec()),
            }],
        });
    }
    d
}

/// One full write cycle (acquire-write, release-with-diff) as a client.
fn write_cycle(s: &Server, client: u64, segment: &str, from: u64) {
    let r = s.handle_request(&Request::Acquire {
        client,
        segment: segment.into(),
        mode: LockMode::Write,
        have_version: from,
        coherence: Coherence::Full,
    });
    assert!(matches!(r, Reply::Granted { .. }), "{r:?}");
    let r = s.handle_request(&Request::Release {
        client,
        segment: segment.into(),
        diff: Some(chain_diff(from)),
    });
    assert_eq!(r, Reply::Released { version: from + 1 });
}

/// The fault-free oracle: a fresh in-memory server fed the same diffs.
fn oracle(segment: &str, versions: u64) -> Server {
    let s = Server::new();
    let c = s.hello("oracle");
    s.open(segment);
    for v in 0..versions {
        write_cycle(&s, c, segment, v);
    }
    s
}

fn image_of(s: &Server, segment: &str) -> Bytes {
    s.with_segment(segment, |seg| checkpoint::encode_segment(seg).unwrap())
        .unwrap()
}

#[test]
fn wal_replay_recovers_byte_identical_state() {
    // Six versions per segment, under the default checkpoint interval:
    // recovery is the log alone.
    let dir = temp_dir("wal");
    {
        let (s, rec) = Server::with_durability(dir.clone(), opts()).unwrap();
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        let c = s.hello("w");
        for seg in ["a/seg", "b/seg"] {
            s.open(seg);
            for v in 0..6 {
                write_cycle(&s, c, seg, v);
            }
        }
    }
    let (recovered, rec) = Server::with_durability(dir, opts()).unwrap();
    assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
    assert_eq!(rec.replayed_records, 12);
    for seg in ["a/seg", "b/seg"] {
        assert_eq!(recovered.segment_version(seg), Some(6));
        assert_eq!(
            image_of(&recovered, seg),
            image_of(&oracle(seg, 6), seg),
            "recovered `{seg}` differs from the fault-free oracle"
        );
    }
}

#[test]
fn checkpoint_plus_tail_recovers_and_bounds_replay() {
    let dir = temp_dir("ck-tail");
    let o = DurableOptions {
        checkpoint_interval: 4,
        ..opts()
    };
    {
        let (s, _) = Server::with_durability(dir.clone(), o.clone()).unwrap();
        let c = s.hello("w");
        s.open("h/s");
        for v in 0..10 {
            write_cycle(&s, c, "h/s", v);
        }
    }
    let (recovered, rec) = Server::with_durability(dir, o).unwrap();
    assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
    assert_eq!(recovered.segment_version("h/s"), Some(10));
    // The checkpoint at v8 supersedes records 1..=8: only 8→9 and 9→10
    // replay, even though 10 were logged.
    assert_eq!(rec.replayed_records, 2);
    assert_eq!(
        image_of(&recovered, "h/s"),
        image_of(&oracle("h/s", 10), "h/s")
    );
}

#[test]
fn compaction_bounds_log_and_preserves_state() {
    let dir = temp_dir("compact");
    let o = DurableOptions {
        checkpoint_interval: 1000, // periodic images off: compaction does the work
        compact_threshold_bytes: 2_000,
        ..opts()
    };
    {
        let (s, _) = Server::with_durability(dir.clone(), o.clone()).unwrap();
        let c = s.hello("w");
        s.open("h/s");
        for v in 0..60 {
            write_cycle(&s, c, "h/s", v);
        }
        let snap = s.metrics_snapshot();
        assert!(
            snap.counter("durable.compactions_total").unwrap() >= 1,
            "threshold of 2000 bytes must trigger compaction over 60 releases"
        );
        assert!(snap.counter("durable.wal_appends_total").unwrap() >= 60);
    }
    let (recovered, rec) = Server::with_durability(dir, o).unwrap();
    assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
    assert_eq!(recovered.segment_version("h/s"), Some(60));
    // Post-compaction recovery reads only the newest image + tail, not
    // the 60-record history.
    assert!(
        rec.scanned_records < 60,
        "replay scanned {} records; compaction should have folded the chain",
        rec.scanned_records
    );
    assert_eq!(
        image_of(&recovered, "h/s"),
        image_of(&oracle("h/s", 60), "h/s")
    );
}

#[test]
fn mode_off_persists_nothing() {
    let dir = temp_dir("off");
    {
        let off = DurableOptions {
            mode: DurabilityMode::Off,
            ..opts()
        };
        let (s, rec) = Server::with_durability(dir.clone(), off).unwrap();
        assert!(rec.segments.is_empty());
        assert_eq!(s.durability_mode(), DurabilityMode::Off);
        let c = s.hello("w");
        s.open("h/s");
        write_cycle(&s, c, "h/s", 0);
    }
    assert!(!dir.exists(), "Off mode must not create a data dir");
    let (recovered, rec) = Server::with_durability(dir, opts()).unwrap();
    assert!(rec.segments.is_empty());
    assert_eq!(recovered.segment_version("h/s"), None);
}

#[test]
fn multi_segment_commit_is_durable() {
    let dir = temp_dir("txn");
    {
        let (s, _) = Server::with_durability(dir.clone(), opts()).unwrap();
        let c = s.hello("w");
        for seg in ["t/a", "t/b"] {
            s.open(seg);
            let r = s.handle_request(&Request::Acquire {
                client: c,
                segment: seg.into(),
                mode: LockMode::Write,
                have_version: 0,
                coherence: Coherence::Full,
            });
            assert!(matches!(r, Reply::Granted { .. }));
        }
        let r = s.handle_request(&Request::Commit {
            client: c,
            entries: vec![
                ("t/a".into(), Some(chain_diff(0))),
                ("t/b".into(), Some(chain_diff(0))),
            ],
        });
        assert_eq!(
            r,
            Reply::Committed {
                versions: vec![1, 1]
            }
        );
    }
    let (recovered, rec) = Server::with_durability(dir, opts()).unwrap();
    assert_eq!(rec.replayed_records, 2);
    assert_eq!(recovered.segment_version("t/a"), Some(1));
    assert_eq!(recovered.segment_version("t/b"), Some(1));
}

#[test]
fn undecodable_checkpoint_image_skips_that_segment_only() {
    let dir = temp_dir("badimg");
    {
        let (s, _) = Server::with_durability(dir.clone(), opts()).unwrap();
        let c = s.hello("w");
        s.open("h/good");
        for v in 0..3 {
            write_cycle(&s, c, "h/good", v);
        }
    }
    {
        // A well-framed checkpoint file whose payload is not a segment
        // image (the store checks framing; only the server can tell).
        let registry = std::sync::Arc::new(iw_telemetry::Registry::new());
        let (store, _) = iw_durable::DiffStore::open(&dir, opts(), &registry).unwrap();
        store.write_checkpoint("h/bad", 5, b"NOTAMAGIC").unwrap();
    }
    let (recovered, rec) = Server::with_durability(dir.clone(), opts()).unwrap();
    assert_eq!(recovered.segment_version("h/good"), Some(3));
    assert_eq!(
        image_of(&recovered, "h/good"),
        image_of(&oracle("h/good", 3), "h/good")
    );
    assert_eq!(recovered.segment_version("h/bad"), None);
    assert!(
        rec.warnings
            .iter()
            .any(|w| w.contains("h/bad") && w.contains("failed to decode")),
        "{:?}",
        rec.warnings
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A CRC-valid log record that does not apply stops replay and changes
/// nothing: its new block and its valid run stay out of the recovered
/// segment, which matches the image taken before the record was written.
#[test]
fn refused_replay_record_leaves_the_segment_whole() {
    let dir = temp_dir("refused-record");
    let before = {
        let (s, _) = Server::with_durability(dir.clone(), opts()).unwrap();
        let c = s.hello("w");
        s.open("h/s");
        for v in 0..2 {
            write_cycle(&s, c, "h/s", v);
        }
        image_of(&s, "h/s")
    };
    {
        let registry = std::sync::Arc::new(iw_telemetry::Registry::new());
        let (store, _) = iw_durable::DiffStore::open(dir.clone(), opts(), &registry).unwrap();
        let mut bad = chain_diff(2);
        bad.block_diffs[0].runs.push(DiffRun {
            start: 4,
            count: 1,
            data: Bytes::from_static(&[0, 0, 0, 1]),
        });
        store.append_diff("h/s", &bad).unwrap();
    }
    let (s, rec) = Server::with_durability(dir.clone(), opts()).unwrap();
    assert_eq!(s.segment_version("h/s"), Some(2));
    assert_eq!(image_of(&s, "h/s"), before);
    assert!(
        rec.warnings
            .iter()
            .any(|w| w.contains("`h/s`") && w.contains("2..3")),
        "{:?}",
        rec.warnings
    );
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}
