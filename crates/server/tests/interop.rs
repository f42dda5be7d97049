//! One link format, interop without negotiation, and
//! encode-once/serve-many fan-out.
//!
//! Every diff on the link is v2 (+LZ) from the first message on, with
//! no handshake deciding it. Older clients still interoperate because
//! the decoders accept both revisions and ignore trailing bytes: such a
//! client's Hello carries a capability byte and its diffs are v1, and
//! the server takes both. Repeated readers of one update window are
//! served the same encoded bytes without re-encoding.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::{Coherence, Handler, Loopback, Transport};
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_wire::codec::{WireReader, WireWriter};
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff, V2_MAGIC};

const PRIMS: u32 = 256;
const SEG: &str = "h/interop";

/// The version-1 diff: one int block, serial 0, all zeros.
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

/// A diff advancing `from` → `from + 1` writing `vals` at prim `start`.
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

fn hello(t: &mut Loopback) -> u64 {
    match t
        .request(&Request::Hello {
            info: "interop-test".into(),
        })
        .expect("hello")
    {
        Reply::Welcome { client, .. } => client,
        other => panic!("unexpected hello reply: {other:?}"),
    }
}

/// Acquire-write / release-with-diff against version `from`.
fn commit(t: &mut Loopback, client: u64, diff: SegmentDiff) -> u64 {
    t.request(&Request::Open {
        client,
        segment: SEG.into(),
    })
    .expect("open");
    match t
        .request(&Request::Acquire {
            client,
            segment: SEG.into(),
            mode: LockMode::Write,
            have_version: 0,
            coherence: Coherence::Full,
        })
        .expect("acquire")
    {
        Reply::Granted { .. } => {}
        other => panic!("unexpected acquire reply: {other:?}"),
    }
    match t
        .request(&Request::Release {
            client,
            segment: SEG.into(),
            diff: Some(diff),
        })
        .expect("release")
    {
        Reply::Released { version } => version,
        other => panic!("unexpected release reply: {other:?}"),
    }
}

fn poll_update(t: &mut Loopback, client: u64, have_version: u64) -> SegmentDiff {
    match t
        .request(&Request::Poll {
            client,
            segment: SEG.into(),
            have_version,
            coherence: Coherence::Full,
            floor: 0,
        })
        .expect("poll")
    {
        Reply::Update { diff } => diff,
        other => panic!("unexpected poll reply: {other:?}"),
    }
}

/// Seeds the segment and commits one write, returning the server.
fn seeded_server() -> Arc<Server> {
    let server = Arc::new(Server::new());
    let handler: Arc<dyn Handler> = server.clone();
    let mut t = Loopback::new(handler);
    let w = hello(&mut t);
    assert_eq!(commit(&mut t, w, seed_diff()), 1);
    let vals: Vec<i32> = (0..64).collect();
    assert_eq!(commit(&mut t, w, write_diff(1, 16, &vals)), 2);
    server
}

fn counter(server: &Server, name: &str) -> u64 {
    server.metrics_snapshot().counter(name).unwrap_or(0)
}

/// The diff bytes a `Release` request embeds, if it carries one.
fn release_diff(req: &Bytes) -> Option<Bytes> {
    let mut r = WireReader::new(req.clone());
    if r.get_u8().ok()? != 3 {
        return None;
    }
    r.get_u64().ok()?;
    r.get_str().ok()?;
    if r.get_u8().ok()? != 1 {
        return None;
    }
    r.get_len_bytes().ok()
}

/// The diff bytes a `Granted` or `Update` reply embeds, if it carries one.
fn reply_diff(reply: &Bytes) -> Option<Bytes> {
    let mut r = WireReader::new(reply.clone());
    match r.get_u8().ok()? {
        2 => {
            r.get_u64().ok()?;
            if r.get_u8().ok()? != 1 {
                return None;
            }
        }
        6 => {}
        _ => return None,
    }
    r.get_len_bytes().ok()
}

/// `write_diff(from, start, vals)` in the v1 layout, written field by
/// field the way a pre-v2 encoder laid it out.
fn v1_write_diff(from: u64, start: u64, vals: &[i32]) -> Bytes {
    let data: Vec<u8> = vals.iter().flat_map(|v| v.to_be_bytes()).collect();
    let mut w = WireWriter::new();
    w.put_u64(from);
    w.put_u64(from + 1);
    w.put_u32(0); // type descriptors
    w.put_u32(0); // new blocks
    w.put_u32(1); // block diffs
    w.put_u32(0); // serial
    w.put_u32(data.len() as u32); // declared diff length
    w.put_u32(1); // runs
    w.put_u64(start);
    w.put_u64(vals.len() as u64);
    w.put_len_bytes(&data);
    w.put_u32(0); // freed
    w.finish()
}

/// A connection that never said Hello still sends and receives every
/// diff in the link format: nothing waits for a handshake to pick it.
#[test]
fn loopback_without_hello_speaks_the_link_format() {
    let server = seeded_server();
    let client = server.hello("registered out of band");
    let log: Arc<Mutex<Vec<(Bytes, Bytes)>>> = Arc::default();
    let tap = {
        let (server, log) = (server.clone(), log.clone());
        move |req: Bytes| {
            let reply = server.handle(req.clone());
            log.lock().unwrap().push((req, reply.clone()));
            reply
        }
    };
    let mut t = Loopback::new(Arc::new(tap));
    let vals: Vec<i32> = (200..232).collect();
    // The write acquire from version 0 piggybacks a full update.
    assert_eq!(commit(&mut t, client, write_diff(2, 32, &vals)), 3);
    poll_update(&mut t, client, 2);

    let log = log.lock().unwrap();
    let sent: Vec<Bytes> = log.iter().filter_map(|(q, _)| release_diff(q)).collect();
    let received: Vec<Bytes> = log.iter().filter_map(|(_, r)| reply_diff(r)).collect();
    assert_eq!(
        (sent.len(), received.len()),
        (1, 2),
        "release; grant + update"
    );
    for body in sent.iter().chain(&received) {
        assert_eq!(body[0], V2_MAGIC);
    }
}

/// A client built when v2 still sat behind a capability handshake: its
/// Hello carries a trailing capability byte, and with no byte in the
/// Welcome its diffs stay v1. The server accepts both, and serves what
/// it committed back in the link format.
#[test]
fn older_client_commits_v1_and_reads_v2() {
    let server = seeded_server();
    let mut hello = Request::Hello {
        info: "older client".into(),
    }
    .encode()
    .to_vec();
    hello.push(0b11);
    let welcome = server.handle(Bytes::from(hello));
    let Ok(Reply::Welcome { client, .. }) = Reply::decode(welcome.clone()) else {
        panic!("unexpected hello reply")
    };
    // No capability byte comes back, so such a client keeps sending v1.
    assert_eq!(welcome, Reply::welcome(client).encode());

    let call = |req: &Request| Reply::decode(server.handle(req.encode())).unwrap();
    call(&Request::Open {
        client,
        segment: SEG.into(),
    });
    let granted = call(&Request::Acquire {
        client,
        segment: SEG.into(),
        mode: LockMode::Write,
        have_version: 2,
        coherence: Coherence::Full,
    });
    assert!(matches!(granted, Reply::Granted { .. }), "{granted:?}");

    let vals: Vec<i32> = (300..316).collect();
    let diff = write_diff(2, 8, &vals);
    let v1 = v1_write_diff(2, 8, &vals);
    assert_ne!(v1[0], V2_MAGIC);
    assert_eq!(v1.len(), diff.encoded_len_hint());
    let mut w = WireWriter::new();
    w.put_u8(3); // Release
    w.put_u64(client);
    w.put_str(SEG);
    w.put_u8(1);
    w.put_len_bytes(&v1);
    let released = Reply::decode(server.handle(w.finish())).unwrap();
    assert_eq!(released, Reply::Released { version: 3 });

    let reader = server.hello("reader");
    let reply = server.handle(
        Request::Poll {
            client: reader,
            segment: SEG.into(),
            have_version: 2,
            coherence: Coherence::Full,
            floor: 0,
        }
        .encode(),
    );
    assert_eq!(reply_diff(&reply).expect("an update")[0], V2_MAGIC);
    assert_eq!(Reply::decode(reply).unwrap(), Reply::Update { diff });
}

/// 200 readers of the same update window: the first poll pays the
/// encode, everyone after is served the cached bytes — ≥95% of reply
/// diffs must come straight from the encode cache.
#[test]
fn fanout_readers_hit_encoded_cache() {
    let server = seeded_server();
    const READERS: usize = 200;
    for _ in 0..READERS {
        let mut t = Loopback::new(server.clone() as Arc<dyn Handler>);
        let c = hello(&mut t);
        let upd = poll_update(&mut t, c, 1);
        assert_eq!((upd.from_version, upd.to_version), (1, 2));
    }
    let hits = counter(&server, "server.enc_cache.hits_total");
    let misses = counter(&server, "server.enc_cache.misses_total");
    println!("fan-out encode cache: {hits} hits / {misses} misses");
    // The seeding writer's piggybacked acquire update may add one more
    // accounted diff on top of the 200 reader polls.
    assert!(hits + misses >= READERS as u64);
    assert!(
        hits * 100 >= (hits + misses) * 95,
        "want ≥95% encode-cache serves, got {hits} hits / {misses} misses"
    );
}
