//! The server's one commit path: release, commit and replicate each
//! check every entry before anything is logged or installed, so a
//! refused request leaves memory, the WAL, the commit hook and the
//! writer locks exactly as they were.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::Coherence;
use iw_server::{checkpoint, DurableOptions, Server};
use iw_types::desc::TypeDesc;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("iw-srv-path-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable(dir: &Path) -> Server {
    let opts = DurableOptions {
        fsync: false,
        ..DurableOptions::default()
    };
    Server::with_durability(dir.to_path_buf(), opts).unwrap().0
}

fn int_run(start: u64, v: u32) -> DiffRun {
    DiffRun {
        start,
        count: 1,
        data: Bytes::from(v.to_be_bytes().to_vec()),
    }
}

/// `0 → 1`: one int type and block 0 of four ints.
fn seed(from: u64) -> SegmentDiff {
    SegmentDiff {
        from_version: from,
        to_version: from + 1,
        new_types: vec![(0, TypeDesc::int32())],
        new_blocks: vec![NewBlock {
            serial: 0,
            name: None,
            type_serial: 0,
            count: 4,
            data: Bytes::from(vec![0u8; 16]),
        }],
        ..Default::default()
    }
}

/// `from → from+1` writing `v` into block 0's first int.
fn write(from: u64, v: u32) -> SegmentDiff {
    SegmentDiff {
        from_version: from,
        to_version: from + 1,
        block_diffs: vec![BlockDiff {
            serial: 0,
            runs: vec![int_run(0, v)],
        }],
        ..Default::default()
    }
}

/// `from → from+1` that is valid up to its last run: a new block
/// (serial 5), a run on block 0, then a run past block 0's end.
fn torn(from: u64) -> SegmentDiff {
    SegmentDiff {
        from_version: from,
        to_version: from + 1,
        new_blocks: vec![NewBlock {
            serial: 5,
            name: Some("five".into()),
            type_serial: 0,
            count: 1,
            data: Bytes::from_static(&[0, 0, 0, 5]),
        }],
        block_diffs: vec![BlockDiff {
            serial: 0,
            runs: vec![int_run(0, 99), int_run(4, 1)],
        }],
        ..Default::default()
    }
}

fn acquire(s: &Server, client: u64, segment: &str, mode: LockMode, have: u64) -> Reply {
    s.handle_request(&Request::Acquire {
        client,
        segment: segment.into(),
        mode,
        have_version: have,
        coherence: Coherence::Full,
    })
}

fn commit(s: &Server, client: u64, entries: &[(&str, SegmentDiff)]) -> Reply {
    s.handle_request(&Request::Commit {
        client,
        entries: entries
            .iter()
            .map(|(seg, d)| (seg.to_string(), Some(d.clone())))
            .collect(),
    })
}

fn image(s: &Server, segment: &str) -> Bytes {
    s.with_segment(segment, |seg| checkpoint::encode_segment(seg).unwrap())
        .unwrap()
}

fn wal_appends(s: &Server) -> u64 {
    let snap = s.metrics_snapshot();
    snap.counter("durable.wal_appends_total").unwrap_or(0)
}

/// Counts commit-hook firings.
fn hook_count(s: &Server) -> Arc<Mutex<u64>> {
    let fired = Arc::new(Mutex::new(0));
    let sink = fired.clone();
    s.set_commit_hook(Arc::new(move |_, _| *sink.lock().unwrap() += 1));
    fired
}

#[test]
fn commit_naming_a_segment_twice_is_refused_whole() {
    let dir = temp_dir("twice");
    let s = durable(&dir);
    let fired = hook_count(&s);
    let c = s.hello("w");
    s.open("h/s");
    assert!(matches!(
        acquire(&s, c, "h/s", LockMode::Write, 0),
        Reply::Granted { .. }
    ));
    let r = commit(&s, c, &[("h/s", seed(0)), ("h/s", seed(0))]);
    assert!(
        matches!(&r, Reply::Error { message } if message.contains("twice")),
        "{r:?}"
    );
    assert_eq!(s.segment_version("h/s"), Some(0));
    assert_eq!(wal_appends(&s), 0, "nothing logged");
    assert_eq!(*fired.lock().unwrap(), 0, "no hook");
    // The writer lock is kept, and a well-formed commit then lands.
    assert_eq!(
        commit(&s, c, &[("h/s", seed(0))]),
        Reply::Committed { versions: vec![1] }
    );
    assert_eq!(wal_appends(&s), 1);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refused_multi_segment_commit_changes_nothing() {
    let dir = temp_dir("multi");
    let s = durable(&dir);
    let fired = hook_count(&s);
    let (c, other) = (s.hello("w"), s.hello("other"));
    for seg in ["h/a", "h/b"] {
        s.open(seg);
        acquire(&s, c, seg, LockMode::Write, 0);
    }
    assert_eq!(
        commit(&s, c, &[("h/a", seed(0)), ("h/b", seed(0))]),
        Reply::Committed {
            versions: vec![1, 1]
        }
    );
    let before = (image(&s, "h/a"), image(&s, "h/b"));
    let (appends, hooks) = (wal_appends(&s), *fired.lock().unwrap());
    for seg in ["h/a", "h/b"] {
        acquire(&s, c, seg, LockMode::Write, 1);
    }
    let r = commit(&s, c, &[("h/a", write(1, 7)), ("h/b", torn(1))]);
    assert!(
        matches!(&r, Reply::Error { message } if message.contains("out of range")),
        "{r:?}"
    );
    assert_eq!((image(&s, "h/a"), image(&s, "h/b")), before);
    assert_eq!(wal_appends(&s), appends, "nothing logged");
    assert_eq!(*fired.lock().unwrap(), hooks, "no hook");
    // Both writer locks are still the client's.
    for seg in ["h/a", "h/b"] {
        assert_eq!(acquire(&s, other, seg, LockMode::Write, 1), Reply::Busy);
    }
    assert_eq!(
        commit(&s, c, &[("h/a", write(1, 7)), ("h/b", write(1, 8))]),
        Reply::Committed {
            versions: vec![2, 2]
        }
    );

    // A backup shipped the same bad diff stays unchanged too.
    let backup = Server::new();
    let replicate = |diff: SegmentDiff| {
        backup.handle_request(&Request::Replicate {
            segment: "h/b".into(),
            from_version: diff.from_version,
            diff,
        })
    };
    assert_eq!(replicate(seed(0)), Reply::Replicated { acked_version: 1 });
    let replica = image(&backup, "h/b");
    assert!(matches!(replicate(torn(1)), Reply::Error { .. }));
    assert_eq!(image(&backup, "h/b"), replica);
    assert_eq!(
        replicate(write(1, 8)),
        Reply::Replicated { acked_version: 2 }
    );
    assert_eq!(image(&backup, "h/b"), image(&s, "h/b"));
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_after_refused_release_recovers_the_served_image() {
    let dir = temp_dir("restart");
    let served = {
        let s = durable(&dir);
        let c = s.hello("w");
        s.open("h/s");
        for (from, diff, ok) in [(0, seed(0), true), (1, torn(1), false)] {
            acquire(&s, c, "h/s", LockMode::Write, from);
            let r = s.handle_request(&Request::Release {
                client: c,
                segment: "h/s".into(),
                diff: Some(diff),
            });
            assert_eq!(matches!(r, Reply::Released { .. }), ok, "{r:?}");
        }
        image(&s, "h/s")
    };
    let s = durable(&dir);
    assert_eq!(s.segment_version("h/s"), Some(1));
    assert_eq!(image(&s, "h/s"), served);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `from → from+1` of varied size: `v % 5` runs on block 0 (none makes
/// an empty diff), and on every third version a new two-int block.
fn varied(from: u64) -> SegmentDiff {
    let v = from + 1;
    let new_blocks = v
        .is_multiple_of(3)
        .then(|| NewBlock {
            serial: v as u32,
            name: None,
            type_serial: 0,
            count: 2,
            data: Bytes::from(vec![0, 0, 0, 1, 0, 0, 0, 2]),
        })
        .into_iter()
        .collect();
    let runs: Vec<DiffRun> = (0..v % 5).map(|k| int_run(k, v as u32 + 10)).collect();
    SegmentDiff {
        from_version: from,
        to_version: v,
        new_blocks,
        block_diffs: (!runs.is_empty())
            .then_some(BlockDiff { serial: 0, runs })
            .into_iter()
            .collect(),
        ..Default::default()
    }
}

/// Whether a Diff reader at `have` polling `s` under `bp` gets an update.
fn diff_update(s: &Server, client: u64, have: u64, bp: u32) -> bool {
    let r = s.handle_request(&Request::Poll {
        client,
        segment: "h/s".into(),
        have_version: have,
        coherence: Coherence::Diff(bp),
        floor: 0,
    });
    match r {
        Reply::Update { .. } => true,
        Reply::UpToDate => false,
        r => panic!("poll at v{have}: {r:?}"),
    }
}

/// A primary, a backup fed by `Replicate`, a backup fed by `SyncFull` and
/// then `Replicate`, and the primary reopened from its image and WAL tail
/// answer a Diff reader alike wherever their change history reaches its
/// version. Below a server's history, and at version 0, it gets an
/// update. A reader that read the primary during the history gets the
/// same answers as one that never did.
#[test]
fn servers_answer_diff_readers_alike() {
    const LAST: u64 = 10;
    const BPS: [u32; 6] = [20_000, 5000, 2500, 1000, 300, 0];
    let dir = temp_dir("alike");
    let opts = DurableOptions {
        fsync: false,
        checkpoint_interval: 4,
        ..DurableOptions::default()
    };
    let primary = Server::with_durability(dir.clone(), opts.clone())
        .unwrap()
        .0;
    let (w, reader) = (primary.hello("w"), primary.hello("r"));
    primary.open("h/s");
    let (replicated, synced) = (Server::new(), Server::new());
    for from in 0..LAST {
        acquire(&primary, w, "h/s", LockMode::Write, from);
        let d = if from == 0 { seed(0) } else { varied(from) };
        let r = release(&primary, w, "h/s", Some(d.clone()));
        assert_eq!(r, Reply::Released { version: from + 1 });
        replicated.handle_request(&Request::Replicate {
            segment: "h/s".into(),
            from_version: from,
            diff: d.clone(),
        });
        if from + 1 == 5 {
            let image = image(&primary, "h/s");
            synced.handle_request(&Request::SyncFull {
                segment: "h/s".into(),
                image,
            });
        } else if from >= 5 {
            synced.handle_request(&Request::Replicate {
                segment: "h/s".into(),
                from_version: from,
                diff: d,
            });
        }
        if from + 1 == 3 {
            // A reader of the primary during the history.
            assert!(diff_update(&primary, reader, 0, 2500));
        }
    }
    let answers = |s: &Server, client: u64| -> Vec<bool> {
        let grid = BPS
            .iter()
            .flat_map(|&bp| (0..LAST).map(move |have| (have, bp)));
        grid.map(|(have, bp)| diff_update(s, client, have, bp))
            .collect()
    };
    let want = answers(&primary, reader);
    assert_eq!(answers(&primary, primary.hello("fresh")), want);
    assert!(want.contains(&true) && want.contains(&false), "{want:?}");
    drop(primary);
    let reopened = Server::with_durability(dir.clone(), opts).unwrap().0;
    assert_eq!(reopened.segment_version("h/s"), Some(LAST));

    // Each server with the base of its change history.
    for (name, s, base) in [
        ("replicate", &replicated, 0),
        ("sync_full", &synced, 5),
        ("reopened", &reopened, 8),
    ] {
        assert_eq!(s.segment_version("h/s"), Some(LAST), "{name}");
        let got = answers(s, s.hello("r"));
        for (i, (got, want)) in got.into_iter().zip(&want).enumerate() {
            let (have, bp) = (i as u64 % LAST, BPS[i / LAST as usize]);
            if have == 0 || have < base {
                assert!(got, "{name}: have {have} below the history, Diff({bp})");
            } else {
                assert_eq!(got, *want, "{name}: have {have}, Diff({bp})");
            }
        }
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stale `Poll` and a stale read `Acquire` are each answered under one
/// shard read lock: each adds one shard acquisition.
#[test]
fn a_stale_read_takes_one_shard_lock() {
    let s = Server::new();
    let (w, rd) = (s.hello("w"), s.hello("r"));
    s.open("h/s");
    acquire(&s, w, "h/s", LockMode::Write, 0);
    assert_eq!(
        release(&s, w, "h/s", Some(seed(0))),
        Reply::Released { version: 1 }
    );
    let shard_locks = || {
        let snap = s.metrics_snapshot();
        snap.histogram("server.segment_lock_wait_us").unwrap().count
    };
    let before = shard_locks();
    let r = s.handle_request(&Request::Poll {
        client: rd,
        segment: "h/s".into(),
        have_version: 0,
        coherence: Coherence::Full,
        floor: 0,
    });
    assert!(matches!(r, Reply::Update { .. }), "{r:?}");
    assert_eq!(shard_locks(), before + 1);
    let r = acquire(&s, rd, "h/s", LockMode::Read, 0);
    assert!(
        matches!(
            r,
            Reply::Granted {
                update: Some(_),
                ..
            }
        ),
        "{r:?}"
    );
    assert_eq!(shard_locks(), before + 2);
}

/// Makes the commit hook, on its first firing for `segment`, report on
/// `window` and then wait (at most `patience`) for `resume`: the hook
/// fires after that segment installs, so a multi-entry commit naming it
/// first is paused with its later entries checked and logged but not
/// yet installed.
fn pause_after(
    s: &Server,
    segment: &'static str,
    patience: Duration,
) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (window_tx, window) = mpsc::channel();
    let (resume, resume_rx) = mpsc::channel::<()>();
    let resume_rx = Mutex::new(resume_rx);
    s.set_commit_hook(Arc::new(move |name, _| {
        if name == segment && window_tx.send(()).is_ok() {
            let _ = resume_rx.lock().unwrap().recv_timeout(patience);
        }
    }));
    (window, resume)
}

/// A compaction pass that starts while a multi-entry commit has logged
/// its diffs but not installed them all waits for the installs, so a
/// restart recovers every acked version. Without the wait, a segment
/// imaged before its install loses its record with the rotated log.
#[test]
fn compaction_mid_commit_keeps_every_acked_diff() {
    let segments = [
        "h/x", "h/y1", "h/y2", "h/y3", "h/y4", "h/y5", "h/y6", "h/y7",
    ];
    for _ in 0..2 {
        let dir = temp_dir("compact");
        let opts = DurableOptions {
            fsync: false,
            compact_threshold_bytes: 1,
            ..DurableOptions::default()
        };
        let s = Server::with_durability(dir.clone(), opts.clone())
            .unwrap()
            .0;
        let (c, idle) = (s.hello("w"), s.hello("idle"));
        s.open("h/z");
        for seg in segments {
            s.open(seg);
            acquire(&s, c, seg, LockMode::Write, 0);
        }
        let (window, resume) = pause_after(&s, "h/x", Duration::from_millis(300));
        let entries: Vec<_> = segments.iter().map(|&seg| (seg, seed(0))).collect();
        std::thread::scope(|t| {
            let committer = t.spawn(|| commit(&s, c, &entries));
            window.recv().unwrap();
            // Every release runs a compaction pass after it.
            let compactor = t.spawn(|| {
                let r = s.handle_request(&Request::Release {
                    client: idle,
                    segment: "h/z".into(),
                    diff: None,
                });
                let _ = resume.send(());
                r
            });
            assert_eq!(
                committer.join().unwrap(),
                Reply::Committed {
                    versions: vec![1; segments.len()]
                }
            );
            assert!(matches!(compactor.join().unwrap(), Reply::Released { .. }));
        });
        let compactions = s.metrics_snapshot().counter("durable.compactions_total");
        assert!(compactions.unwrap_or(0) >= 1, "no compaction ran");
        drop(s);
        let s = Server::with_durability(dir.clone(), opts).unwrap().0;
        for seg in segments {
            assert_eq!(s.segment_version(seg), Some(1), "{seg}");
        }
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A writer lock dropped mid-commit (a failed-over client's `Goodbye`
/// for its old id) lets another client acquire the segment, but neither
/// its diff nor a full-image sync lands there until the in-flight
/// commit has installed.
#[test]
fn goodbye_mid_commit_lets_no_other_diff_in() {
    let s = Server::new();
    let (c, next) = (s.hello("w"), s.hello("next"));
    for seg in ["h/a", "h/b"] {
        s.open(seg);
        acquire(&s, c, seg, LockMode::Write, 0);
    }
    let (window, resume) = pause_after(&s, "h/a", Duration::from_secs(10));
    let mut rival = seed(0);
    rival.new_blocks[0].data = Bytes::from(vec![9u8; 16]);
    let oracle = Server::new();
    oracle.open("h/b");
    oracle.with_segment_mut("h/b", |seg| seg.apply_diff(&seed(0)).unwrap());
    std::thread::scope(|t| {
        let committer = t.spawn(|| commit(&s, c, &[("h/a", seed(0)), ("h/b", seed(0))]));
        window.recv().unwrap();
        // Frees `c`'s writer locks at once, then waits for h/a's shard.
        let goodbye = t.spawn(|| s.handle_request(&Request::Goodbye { client: c }));
        let deadline = Instant::now() + Duration::from_secs(10);
        while acquire(&s, next, "h/b", LockMode::Write, 0) == Reply::Busy {
            assert!(Instant::now() < deadline, "c's lock on h/b never freed");
            std::thread::yield_now();
        }
        let r = s.handle_request(&Request::Release {
            client: next,
            segment: "h/b".into(),
            diff: Some(rival),
        });
        assert!(
            matches!(&r, Reply::Error { message } if message.contains("in flight")),
            "{r:?}"
        );
        let r = s.handle_request(&Request::SyncFull {
            segment: "h/b".into(),
            image: image(&oracle, "h/b"),
        });
        assert!(
            matches!(&r, Reply::Error { message } if message.contains("in flight")),
            "{r:?}"
        );
        resume.send(()).unwrap();
        assert_eq!(
            committer.join().unwrap(),
            Reply::Committed {
                versions: vec![1, 1]
            }
        );
        assert!(matches!(goodbye.join().unwrap(), Reply::Released { .. }));
    });
    assert_eq!(image(&s, "h/b"), image(&oracle, "h/b"));
    // Once it has, the next writer's diff (rebased on v1) lands.
    assert_eq!(
        s.handle_request(&Request::Release {
            client: next,
            segment: "h/b".into(),
            diff: Some(write(1, 5)),
        }),
        Reply::Released { version: 2 }
    );
}

fn release(s: &Server, client: u64, segment: &str, diff: Option<SegmentDiff>) -> Reply {
    s.handle_request(&Request::Release {
        client,
        segment: segment.into(),
        diff,
    })
}

/// Runs `release` on a thread and returns once its WAL record is
/// written (`durable.wal_appends_total` moved past `logged`) or it has
/// returned: with fsync on, a release is then in its fsync, logged but
/// not installed, with its segment claimed and no shard lock held.
fn in_append_window<'s, 'scope>(
    t: &'scope std::thread::Scope<'scope, 's>,
    s: &'s Server,
    release: impl FnOnce() -> Reply + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, Reply> {
    let logged = wal_appends(s);
    let writer = t.spawn(release);
    while wal_appends(s) == logged && !writer.is_finished() {
        std::thread::yield_now();
    }
    writer
}

/// `compaction_mid_commit_keeps_every_acked_diff` for lone releases: a
/// compaction pass started while a release is in its append window (an
/// empty release runs one after it) waits for the install, so a
/// restart right after recovers every acked version. Without the wait,
/// the pass images the segment a version short and deletes the record
/// of the acked one; the release's own pass, skipped while that one
/// runs, would otherwise have covered the loss.
#[test]
fn compaction_mid_release_keeps_every_acked_diff() {
    const ROUNDS: u64 = 30;
    let dir = temp_dir("compact1");
    let opts = DurableOptions {
        fsync: true,
        compact_threshold_bytes: 1,
        ..DurableOptions::default()
    };
    let mut compactions = 0;
    for v in 0..=ROUNDS {
        let s = Server::with_durability(dir.clone(), opts.clone())
            .unwrap()
            .0;
        s.open("h/x");
        assert_eq!(s.segment_version("h/x"), Some(v), "acked before restart");
        if v == ROUNDS {
            break;
        }
        let (c, idle) = (s.hello("w"), s.hello("idle"));
        s.open("h/z");
        acquire(&s, c, "h/x", LockMode::Write, v);
        let diff = if v == 0 { seed(0) } else { write(v, v as u32) };
        std::thread::scope(|t| {
            let writer = in_append_window(t, &s, || release(&s, c, "h/x", Some(diff)));
            assert!(matches!(
                release(&s, idle, "h/z", None),
                Reply::Released { .. }
            ));
            assert_eq!(writer.join().unwrap(), Reply::Released { version: v + 1 });
        });
        let snap = s.metrics_snapshot();
        compactions += snap.counter("durable.compactions_total").unwrap_or(0);
    }
    assert!(compactions >= 1, "no compaction ran");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A release fsyncs its WAL record with no shard lock held, and readers
/// of the segment are served meanwhile. What they are served is always
/// a logged version: by the time a `Delta(0)` poll or a `Full` read
/// acquire observes version v, v's record has been fsynced (one writer,
/// so one fsync per record), every observed version is recovered from
/// the data directory, and no reader's version ever goes back.
#[test]
fn reads_never_see_an_unlogged_version() {
    const ROUNDS: u32 = 40;
    let dir = temp_dir("unlogged");
    let opts = DurableOptions {
        fsync: true,
        ..DurableOptions::default()
    };
    let s = Server::with_durability(dir.clone(), opts.clone())
        .unwrap()
        .0;
    let (w, r) = (s.hello("writer"), s.hello("reader"));
    s.open("h/s");
    let (acked, seen) = std::thread::scope(|t| {
        let writer = t.spawn(|| {
            let mut acked = 0;
            for v in 0..ROUNDS {
                while acquire(&s, w, "h/s", LockMode::Write, acked) == Reply::Busy {
                    std::thread::yield_now();
                }
                let diff = if v == 0 { seed(0) } else { write(acked, v) };
                match release(&s, w, "h/s", Some(diff)) {
                    Reply::Released { version } => acked = version,
                    other => panic!("round {v}: {other:?}"),
                }
            }
            acked
        });
        let (mut have, mut seen) = (0, 0);
        let mut observe = |version: u64, how: &str| {
            assert!(
                version >= seen,
                "{how}: version went back {seen} -> {version}"
            );
            let synced = s.metrics_snapshot().counter("durable.fsyncs_total");
            assert!(
                synced.unwrap_or(0) >= version,
                "{how}: served v{version} with {synced:?} records synced"
            );
            seen = version;
        };
        while !writer.is_finished() {
            match s.handle_request(&Request::Poll {
                client: r,
                segment: "h/s".into(),
                have_version: have,
                coherence: Coherence::Delta(0),
                floor: 0,
            }) {
                Reply::UpToDate => observe(have, "poll"),
                Reply::Update { diff } => {
                    have = diff.to_version;
                    observe(have, "poll");
                }
                other => panic!("poll: {other:?}"),
            }
            match acquire(&s, r, "h/s", LockMode::Read, 0) {
                Reply::Granted { version, .. } => {
                    observe(version, "acquire");
                    assert!(matches!(
                        release(&s, r, "h/s", None),
                        Reply::Released { .. }
                    ));
                }
                Reply::Busy => {}
                other => panic!("acquire: {other:?}"),
            }
        }
        (writer.join().unwrap(), seen)
    });
    assert_eq!(acked, u64::from(ROUNDS));
    drop(s);
    let s = Server::with_durability(dir.clone(), opts).unwrap().0;
    let recovered = s.segment_version("h/s").unwrap();
    assert!(recovered >= seen, "read v{seen}, recovered v{recovered}");
    assert_eq!(recovered, acked);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `goodbye_mid_commit_lets_no_other_diff_in` for lone releases. The
/// commit hook fires after the install, so it cannot pause a lone
/// release; the test instead waits until the release is in its append
/// window (its fsync), then says `Goodbye` for the writer, lets the
/// next writer in and sends its rival diff and a full-image sync. The
/// invariant holds whether or not they arrive inside the window: no
/// diff or image lands between the release's check and its install (an
/// install of a stale plan panics), the release lands, and the rival
/// is refused as in flight or as stale.
#[test]
fn goodbye_mid_release_lets_no_other_diff_in() {
    let mut rival = seed(0);
    rival.new_blocks[0].data = Bytes::from(vec![9u8; 16]);
    let mine = {
        let o = Server::new();
        o.open("h/a");
        o.with_segment_mut("h/a", |seg| seg.apply_diff(&seed(0)).unwrap());
        image(&o, "h/a")
    };
    let in_flight =
        |r: &Reply| matches!(r, Reply::Error { message } if message.contains("in flight"));
    for round in 0..20 {
        let dir = temp_dir("goodbye1");
        let opts = DurableOptions {
            fsync: true,
            ..DurableOptions::default()
        };
        let s = Server::with_durability(dir.clone(), opts).unwrap().0;
        let (c, next) = (s.hello("w"), s.hello("next"));
        s.open("h/a");
        acquire(&s, c, "h/a", LockMode::Write, 0);
        std::thread::scope(|t| {
            let writer = in_append_window(t, &s, || release(&s, c, "h/a", Some(seed(0))));
            assert!(matches!(
                s.handle_request(&Request::Goodbye { client: c }),
                Reply::Released { .. }
            ));
            while acquire(&s, next, "h/a", LockMode::Write, 0) == Reply::Busy {
                std::thread::yield_now();
            }
            let sync = s.handle_request(&Request::SyncFull {
                segment: "h/a".into(),
                image: mine.clone(),
            });
            assert!(
                sync == Reply::Replicated { acked_version: 1 } || in_flight(&sync),
                "round {round}: {sync:?}"
            );
            let r = release(&s, next, "h/a", Some(rival.clone()));
            let stale = matches!(&r, Reply::Error { message } if message.contains("version"));
            assert!(in_flight(&r) || stale, "round {round}: {r:?}");
            assert_eq!(writer.join().unwrap(), Reply::Released { version: 1 });
        });
        assert_eq!(s.segment_version("h/a"), Some(1), "round {round}");
        assert_eq!(image(&s, "h/a"), mine, "round {round}");
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
