//! A released diff leaves the server as the bytes it arrived in: the
//! diff body of a writer's `Release` is, byte for byte, the diff a
//! reader is granted, the diff body of the WAL record on a durable
//! primary, and the diff a backup receives in `Replicate`. Each message
//! is put together and taken apart by hand here, so the check does not
//! lean on the codec it is about; and one release sends a compressible
//! diff uncompressed, which a server that re-encoded would compress.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use iw_cluster::Primary;
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::{Coherence, Handler, Loopback};
use iw_server::{DurableOptions, Server};
use iw_types::desc::TypeDesc;
use iw_wire::codec::{WireReader, WireWriter};
use iw_wire::diff::{BlockDiff, DiffRun, DiffWire, NewBlock, SegmentDiff};
use iw_wire::wal::FrameReader;

const SEG: &str = "fwd/data";

/// A backup that keeps every request it receives.
struct Recorder {
    inner: Server,
    seen: Mutex<Vec<Bytes>>,
}

impl Handler for Recorder {
    fn handle(&self, request: Bytes) -> Bytes {
        self.seen.lock().unwrap().push(request.clone());
        self.inner.handle(request)
    }
}

fn temp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("iw-fwd-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One version per diff, each with the envelope the writer sends: a new
/// 4096-int block whose values compress (the LZ codec), a few scattered
/// words (the raw codec), a low-entropy rewrite of the whole block (LZ),
/// and another such rewrite sent uncompressed.
fn releases() -> Vec<(u64, Bytes)> {
    let ints = |f: &dyn Fn(u32) -> u32| -> Bytes {
        (0..4096u32)
            .flat_map(|i| f(i).to_be_bytes())
            .collect::<Vec<u8>>()
            .into()
    };
    let word = |start: u64, v: u32| DiffRun {
        start,
        count: 1,
        data: Bytes::from(v.to_be_bytes().to_vec()),
    };
    let rewrite = |from: u64, f: &dyn Fn(u32) -> u32| SegmentDiff {
        from_version: from,
        to_version: from + 1,
        block_diffs: vec![BlockDiff {
            serial: 0,
            runs: vec![DiffRun {
                start: 0,
                count: 4096,
                data: ints(f),
            }],
        }],
        ..Default::default()
    };
    let diffs = [
        SegmentDiff {
            from_version: 0,
            to_version: 1,
            new_types: vec![(0, TypeDesc::int32())],
            new_blocks: vec![NewBlock {
                serial: 0,
                name: Some("arr".into()),
                type_serial: 0,
                count: 4096,
                data: ints(&|i| i % 7),
            }],
            ..Default::default()
        },
        SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![BlockDiff {
                serial: 0,
                runs: vec![word(3, 0xDEAD_BEEF), word(900, 17), word(4000, 0x0102_0304)],
            }],
            ..Default::default()
        },
        rewrite(2, &|i| (i / 64) % 3),
    ];
    let mut out: Vec<(u64, Bytes)> = diffs.iter().map(|d| (d.from_version, d.encode())).collect();
    let raw = rewrite(3, &|i| (i / 32) % 5).encode_as(DiffWire::V2 { compress: false });
    out.push((3, raw));
    out
}

/// Skips a `u32` length-prefixed string.
fn after_str(r: &mut WireReader) {
    let n = r.get_u32().unwrap() as usize;
    r.get_bytes(n).unwrap();
}

#[test]
fn release_bytes_reach_reader_wal_and_backup_unchanged() {
    let dir = temp_dir();
    let opts = DurableOptions {
        fsync: false,
        ..DurableOptions::default()
    };
    let (server, _) = Server::with_durability(dir.clone(), opts).unwrap();
    let primary = Primary::new(server);
    let backup = Arc::new(Recorder {
        inner: Server::new(),
        seen: Mutex::new(Vec::new()),
    });
    primary.add_backup(Box::new(Loopback::new(backup.clone())));
    primary.drain();

    let call = |req: Request| primary.handle(req.encode());
    let acquire = |client, mode, have_version| Request::Acquire {
        client,
        segment: SEG.into(),
        mode,
        have_version,
        coherence: Coherence::Full,
    };
    let hello = || match Reply::decode(call(Request::Hello { info: "t".into() })) {
        Ok(Reply::Welcome { client, .. }) => client,
        other => panic!("hello: {other:?}"),
    };
    let writer = hello();
    let reader = hello();
    call(Request::Open {
        client: writer,
        segment: SEG.into(),
    });

    let mut sent = Vec::new();
    for (from, body) in releases() {
        call(acquire(writer, LockMode::Write, from));
        // Release: tag, client, segment, diff flag, diff envelope.
        let mut w = WireWriter::new();
        w.put_u8(3);
        w.put_u64(writer);
        w.put_str(SEG);
        w.put_u8(1);
        w.put_len_bytes(&body);
        let reply = Reply::decode(primary.handle(w.finish())).unwrap();
        assert_eq!(reply, Reply::Released { version: from + 1 });

        // A reader one version behind is granted the writer's bytes.
        let reply = call(acquire(reader, LockMode::Read, from));
        let mut r = WireReader::new(reply);
        assert_eq!(r.get_u8().unwrap(), 2, "Granted");
        assert_eq!(r.get_u64().unwrap(), from + 1);
        assert_eq!(r.get_u8().unwrap(), 1, "with an update");
        assert_eq!(r.get_len_bytes().unwrap(), body, "reader at v{from}");
        call(Request::Release {
            client: reader,
            segment: SEG.into(),
            diff: None,
        });
        sent.push(body);
    }
    assert_eq!(sent[0][1], 1, "first diff takes the LZ codec");
    assert_eq!(sent[1][1], 0, "second diff stays raw");
    assert_eq!(sent[2][1], 1, "third diff takes the LZ codec");
    assert_eq!(sent[3][1], 0, "fourth diff is sent raw");

    // Every Replicate the backup received carries the writer's bytes.
    primary.drain();
    let shipped: Vec<Bytes> = backup
        .seen
        .lock()
        .unwrap()
        .iter()
        .filter(|req| req[0] == 7)
        .map(|req| {
            let mut r = WireReader::new(req.clone());
            r.get_u8().unwrap();
            after_str(&mut r);
            r.get_u64().unwrap();
            r.get_len_bytes().unwrap()
        })
        .collect();
    assert_eq!(shipped, sent, "Replicate bodies");

    // The log holds one record per release whose diff body is the
    // writer's bytes.
    let mut logs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "iwlog"))
        .collect();
    logs.sort();
    let mut logged = Vec::new();
    for path in logs {
        let file = std::fs::read(path).unwrap();
        let mut frames = FrameReader::new(&file[16..]);
        while let Some(f) = frames.next() {
            let mut r = WireReader::new(Bytes::copy_from_slice(f.body));
            after_str(&mut r);
            logged.push(r.get_bytes(r.remaining()).unwrap());
        }
    }
    assert_eq!(logged, sent, "WAL record bodies");
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}
