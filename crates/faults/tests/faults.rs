//! `FaultyHandler`, the server-side chaos ingress behind `iwsrv --chaos`:
//! scripted drops, lost replies, duplicates and delays acted out in
//! front of a real handler, and a seeded chaos smoke in front of a
//! `NetServer` with reconnecting clients over real TCP.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iw_faults::{FaultInjector, FaultKind, FaultLog, FaultPlan, FaultRule, FaultyHandler};
use iw_net::NetServer;
use iw_proto::msg::LockMode;
use iw_proto::tcp::{read_frame, write_frame};
use iw_proto::{
    Coherence, FaultAction, FaultLayer, Handler, Loopback, Reply, Request, TcpTransport, Transport,
};
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_wire::diff::{NewBlock, SegmentDiff};

/// Answers Hello with `Welcome { client: info.len() }` and counts calls.
fn counting_handler(calls: Arc<AtomicU64>) -> Arc<dyn Handler> {
    Arc::new(move |req: Bytes| {
        calls.fetch_add(1, Ordering::SeqCst);
        match Request::decode(req) {
            Ok(Request::Hello { info }) => Reply::welcome(info.len() as u64).encode(),
            _ => Reply::Error {
                message: "unexpected".into(),
            }
            .encode(),
        }
    })
}

/// `fault` on the `nth` request (1-based), nothing else.
fn script(nth: u64, fault: FaultKind) -> FaultPlan {
    FaultPlan::none().with_rule(FaultRule {
        kind: None,
        nth,
        fault,
    })
}

/// A `NetServer` serving `counting_handler` behind a `FaultyHandler`.
fn faulty_server(seed: u64, plan: FaultPlan, log: FaultLog, calls: Arc<AtomicU64>) -> NetServer {
    let faulty = FaultyHandler::new(counting_handler(calls), seed, plan, log);
    NetServer::spawn("127.0.0.1:0".parse().unwrap(), Arc::new(faulty)).unwrap()
}

fn hello(info: &str) -> Request {
    Request::Hello { info: info.into() }
}

fn round_trip(stream: &mut TcpStream, req: &Request) -> Reply {
    write_frame(stream, &req.encode()).unwrap();
    let body = read_frame(stream).unwrap().expect("a reply frame");
    Reply::decode(Bytes::from(body)).unwrap()
}

#[test]
fn injected_delay_is_visible_on_the_wire() {
    let plan = FaultPlan {
        max_delay_us: 300_000,
        ..script(1, FaultKind::Delay)
    };
    // Same seed, same plan: a bare injector predicts the delay.
    let FaultAction::Delay(planned) = FaultInjector::new(5, plan.clone(), FaultLog::new())
        .plan(&hello("zz"), &hello("zz").encode())
    else {
        panic!("the rule scripts a delay");
    };
    assert!(planned >= Duration::from_millis(20), "{planned:?}");
    let server = faulty_server(5, plan, FaultLog::new(), Arc::default());
    let mut t = TcpTransport::connect(server.addr()).unwrap();
    let started = Instant::now();
    assert_eq!(t.request(&hello("zz")).unwrap(), Reply::welcome(2));
    assert!(
        started.elapsed() >= planned,
        "delay swallowed: {:?} < {planned:?}",
        started.elapsed()
    );
}

#[test]
fn injected_drop_answers_error_on_a_live_link() {
    let calls = Arc::new(AtomicU64::new(0));
    let server = faulty_server(
        1,
        script(2, FaultKind::Drop),
        FaultLog::new(),
        calls.clone(),
    );
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    assert_eq!(round_trip(&mut stream, &hello("a")), Reply::welcome(1));
    assert!(matches!(
        round_trip(&mut stream, &hello("bb")),
        Reply::Error { .. }
    ));
    // The dropped request never reached the handler...
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    // ...and the connection it arrived on still serves.
    assert_eq!(round_trip(&mut stream, &hello("ccc")), Reply::welcome(3));
    assert_eq!(calls.load(Ordering::SeqCst), 2);
}

#[test]
fn injected_duplicate_sends_one_reply_and_stays_in_sync() {
    let calls = Arc::new(AtomicU64::new(0));
    let server = faulty_server(
        1,
        script(1, FaultKind::Duplicate),
        FaultLog::new(),
        calls.clone(),
    );
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    assert_eq!(round_trip(&mut stream, &hello("dup")), Reply::welcome(3));
    // The duplicate executed but produced no second frame; the next
    // round trip must not read a stale reply.
    assert_eq!(round_trip(&mut stream, &hello("next1")), Reply::welcome(5));
    assert_eq!(calls.load(Ordering::SeqCst), 3, "dup executed twice");
}

/// A lost ack: the release takes effect, its reply does not arrive.
/// The writer sees an error, the segment has moved on, and the next
/// acquire hands the writer the version its commit produced — the
/// adopt-the-server's-version path `iwload --chaos` depends on.
#[test]
fn injected_drop_reply_executes_then_answers_error() {
    const SEGMENT: &str = "faults/lost-ack";
    let server = Arc::new(Server::new());
    let plan = FaultPlan::none().with_rule(FaultRule {
        kind: Some("release"),
        nth: 1,
        fault: FaultKind::DropReply,
    });
    let log = FaultLog::new();
    let faulty = FaultyHandler::new(server.clone(), 1, plan, log.clone());
    let mut t = Loopback::new(Arc::new(faulty));
    let Reply::Welcome { client, .. } = t.request(&hello("writer")).unwrap() else {
        panic!("no welcome");
    };
    t.request(&Request::Open {
        client,
        segment: SEGMENT.into(),
    })
    .unwrap();
    let acquire = Request::Acquire {
        client,
        segment: SEGMENT.into(),
        mode: LockMode::Write,
        have_version: 0,
        coherence: Coherence::Full,
    };
    assert!(matches!(
        t.request(&acquire).unwrap(),
        Reply::Granted { version: 0, .. }
    ));
    let diff = SegmentDiff {
        from_version: 0,
        to_version: 1,
        new_types: vec![(0, TypeDesc::int32())],
        new_blocks: vec![NewBlock {
            serial: 0,
            name: None,
            type_serial: 0,
            count: 1,
            data: Bytes::from_static(&[0, 0, 0, 7]),
        }],
        ..Default::default()
    };
    let reply = t
        .request(&Request::Release {
            client,
            segment: SEGMENT.into(),
            diff: Some(diff),
        })
        .unwrap();
    assert!(matches!(reply, Reply::Error { .. }), "{reply:?}");
    assert_eq!(log.trace(), "3:release:drop_reply");
    assert_eq!(
        server.segment_version(SEGMENT),
        Some(1),
        "the release landed"
    );
    // The lock came off with it: the writer gets back in at v1.
    assert!(matches!(
        t.request(&acquire).unwrap(),
        Reply::Granted { version: 1, .. }
    ));
}

#[test]
fn seeded_chaos_smoke_with_reconnecting_clients() {
    // A recoverable fault mix at a high rate in front of a real TCP
    // server. The client treats any failed call as "reconnect and
    // retry", as `iwload --chaos` does. The server must survive, keep
    // answering, and fail only calls the injector hit.
    let log = FaultLog::new();
    let server = faulty_server(
        0xC0FFEE,
        FaultPlan::recoverable(700),
        log.clone(),
        Arc::default(),
    );
    let addr = server.addr();
    let connect =
        || TcpTransport::connect_with_timeout(addr, Some(Duration::from_secs(2))).unwrap();
    let (mut ok, mut failed) = (0usize, 0usize);
    let mut t = connect();
    for i in 0..200 {
        let info = format!("r{i}");
        match t.request(&hello(&info)) {
            Ok(Reply::Welcome { client, .. }) => {
                assert_eq!(client, info.len() as u64);
                ok += 1;
            }
            Ok(Reply::Error { .. }) | Err(_) => {
                failed += 1;
                t = connect();
            }
            Ok(other) => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(ok > 100, "most requests should land (got {ok}/200)");
    assert!(failed > 0, "a 7% plan over 200 requests failed nothing");
    assert!(
        failed <= log.len(),
        "{failed} failed calls but only {} injections",
        log.len()
    );
    // The server is still healthy after the chaos phase.
    log.set_enabled(false);
    assert_eq!(
        connect().request(&hello("post")).unwrap(),
        Reply::welcome(4)
    );
}
