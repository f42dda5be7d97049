//! End-to-end tests for the run-to-completion front end: real sockets,
//! real readiness loops, loop placement,
//! pipelining, fairness, backpressure, admission control, idle reaping,
//! graceful drain, and panic isolation.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use iw_net::{NetOptions, NetServer};
use iw_proto::tcp::{read_frame, write_frame};
use iw_proto::{Handler, Reply, Request, TcpTransport, Transport};
use iw_telemetry::Registry;

/// A handler speaking the Hello leg of the protocol: `Welcome` with
/// `client = info.len()`. An info of `sleep:<ms>:<pad>` sleeps first,
/// so tests can hold requests in flight deliberately.
fn echo_handler() -> Arc<dyn Handler> {
    Arc::new(|req: Bytes| match Request::decode(req) {
        Ok(Request::Hello { info }) => {
            let len = info.len() as u64;
            if let Some(rest) = info.strip_prefix("sleep:") {
                let ms: u64 = rest
                    .split(':')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                std::thread::sleep(Duration::from_millis(ms));
            }
            Reply::welcome(len).encode()
        }
        _ => Reply::Error {
            message: "unexpected".into(),
        }
        .encode(),
    })
}

fn hello(info: &str) -> Request {
    Request::Hello { info: info.into() }
}

fn opts() -> NetOptions {
    NetOptions::default()
}

/// Answers `Hello { info: "<n>" }` with `Welcome { client: n }` after
/// `work`, so a reply names the request it answers.
fn numbered_handler(work: Duration) -> Arc<dyn Handler> {
    Arc::new(move |req: Bytes| {
        std::thread::sleep(work);
        match Request::decode(req) {
            Ok(Request::Hello { info }) => {
                Reply::welcome(info.parse().unwrap_or(u64::MAX)).encode()
            }
            _ => Reply::Error {
                message: "unexpected".into(),
            }
            .encode(),
        }
    })
}

/// `count` numbered requests as one byte string, for a single `write`.
fn numbered_burst(count: u64) -> Vec<u8> {
    let mut burst = Vec::new();
    for i in 0..count {
        write_frame(&mut burst, &hello(&i.to_string()).encode()).unwrap();
    }
    burst
}

fn read_reply(stream: &mut TcpStream) -> Reply {
    let body = read_frame(stream).unwrap().expect("reply frame");
    Reply::decode(Bytes::from(body)).unwrap()
}

#[test]
fn roundtrip_updates_transport_stats() {
    let server = NetServer::spawn("127.0.0.1:0".parse().unwrap(), echo_handler()).unwrap();
    let mut t = TcpTransport::connect(server.addr()).unwrap();
    let reply = t.request(&hello("abcd")).unwrap();
    assert_eq!(reply, Reply::welcome(4));
    assert_eq!(t.stats().requests, 1);
    assert!(t.stats().bytes_sent > 0);
    assert!(t.stats().bytes_received > 0);
}

#[test]
fn one_connection_one_loop_and_accepts_go_round_robin() {
    // The handler runs on the loop that owns the socket, so the thread
    // it sees is the connection's placement: constant for one
    // connection, and four consecutive accepts on four distinct loops.
    let seen: Arc<Mutex<Vec<(String, String)>>> = Arc::default();
    let handler: Arc<dyn Handler> = {
        let seen = seen.clone();
        Arc::new(move |req: Bytes| {
            let Ok(Request::Hello { info }) = Request::decode(req) else {
                panic!("test sends only Hello");
            };
            let thread = std::thread::current().name().unwrap_or("").to_string();
            seen.lock().unwrap().push((info, thread));
            Reply::welcome(0).encode()
        })
    };
    let server = NetServer::spawn_with(
        "127.0.0.1:0".parse().unwrap(),
        handler,
        NetOptions {
            workers: 4,
            ..opts()
        },
        &Arc::new(Registry::new()),
    )
    .unwrap();
    let mut conns: Vec<TcpTransport> = (0..4)
        .map(|i| {
            let mut t = TcpTransport::connect(server.addr()).unwrap();
            t.request(&hello(&format!("c{i}"))).unwrap();
            t
        })
        .collect();
    for _ in 0..20 {
        conns[0].request(&hello("c0")).unwrap();
    }
    let seen = seen.lock().unwrap();
    let threads_of = |conn: &str| -> std::collections::BTreeSet<&str> {
        seen.iter()
            .filter(|(info, _)| info == conn)
            .map(|(_, thread)| thread.as_str())
            .collect()
    };
    assert_eq!(threads_of("c0").len(), 1, "{seen:?}");
    let all: std::collections::BTreeSet<&str> =
        seen.iter().map(|(_, thread)| thread.as_str()).collect();
    assert_eq!(all.len(), 4, "{all:?}");
    assert!(all.iter().all(|t| t.starts_with("iw-net-loop-")), "{all:?}");
}

#[test]
fn slow_handler_delays_only_its_own_loop() {
    let server = NetServer::spawn("127.0.0.1:0".parse().unwrap(), echo_handler()).unwrap();
    // Consecutive accepts: A and B live on different loops. One round
    // trip each proves both are installed before A's handler blocks.
    let mut a = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut a, &hello("a").encode()).unwrap();
    read_reply(&mut a);
    let mut b = TcpTransport::connect(server.addr()).unwrap();
    b.request(&hello("b")).unwrap();

    write_frame(&mut a, &hello("sleep:200:a").encode()).unwrap();
    let started = Instant::now();
    std::thread::sleep(Duration::from_millis(20)); // A's handler is asleep by now
    let asked = Instant::now();
    assert_eq!(b.request(&hello("bb")).unwrap(), Reply::welcome(2));
    assert!(
        asked.elapsed() < Duration::from_millis(50),
        "B waited {:?} behind A's handler",
        asked.elapsed()
    );
    assert!(matches!(read_reply(&mut a), Reply::Welcome { .. }));
    assert!(started.elapsed() >= Duration::from_millis(200));
}

#[test]
fn pipelining_connection_cannot_starve_its_loop() {
    const BURST: u64 = 5000;
    let server = NetServer::spawn_with(
        "127.0.0.1:0".parse().unwrap(),
        numbered_handler(Duration::from_micros(100)),
        NetOptions {
            workers: 1,
            ..opts()
        },
        &Arc::new(Registry::new()),
    )
    .unwrap();
    let mut b = TcpTransport::connect(server.addr()).unwrap();
    assert_eq!(b.request(&hello("7")).unwrap(), Reply::welcome(7));
    let mut a = TcpStream::connect(server.addr()).unwrap();
    let started = Instant::now();
    a.write_all(&numbered_burst(BURST)).unwrap();
    // The burst is being served...
    assert_eq!(read_reply(&mut a), Reply::welcome(0));
    // ...and B's single request gets a turn long before it is over.
    let asked = Instant::now();
    assert_eq!(b.request(&hello("8")).unwrap(), Reply::welcome(8));
    let b_waited = asked.elapsed();
    for i in 1..BURST {
        assert_eq!(read_reply(&mut a), Reply::welcome(i), "reply {i}");
    }
    let burst_took = started.elapsed();
    assert!(
        b_waited * 4 < burst_took,
        "B waited {b_waited:?} of a {burst_took:?} burst"
    );
}

#[test]
fn frames_buffered_past_one_turn_are_served_without_new_bytes() {
    // One write, so one read puts every frame in the decoder; nothing
    // arrives afterwards, so no readiness event announces the frames a
    // bounded turn left behind. They must be served all the same.
    let server = NetServer::spawn_with(
        "127.0.0.1:0".parse().unwrap(),
        numbered_handler(Duration::ZERO),
        NetOptions {
            workers: 1,
            ..opts()
        },
        &Arc::new(Registry::new()),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&numbered_burst(200)).unwrap();
    for i in 0..200 {
        assert_eq!(read_reply(&mut stream), Reply::welcome(i), "reply {i}");
    }
}

#[test]
fn many_concurrent_clients() {
    let registry = Arc::new(Registry::new());
    let server = NetServer::spawn_with(
        "127.0.0.1:0".parse().unwrap(),
        echo_handler(),
        opts(),
        &registry,
    )
    .unwrap();
    let threads: Vec<_> = (0..16)
        .map(|i| {
            let addr = server.addr();
            std::thread::spawn(move || {
                let mut t = TcpTransport::connect(addr).unwrap();
                for _ in 0..20 {
                    let reply = t.request(&hello(&"x".repeat(i + 1))).unwrap();
                    assert_eq!(reply, Reply::welcome((i + 1) as u64));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("tcp.accepted_total"), Some(16));
    assert_eq!(snap.counter("tcp.rejected_total"), Some(0));
    // All clients disconnected: the gauge drains back to zero.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if registry.snapshot().gauge("tcp.open_connections") == Some(0) {
            break;
        }
        assert!(Instant::now() < deadline, "open_connections never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn pipelined_requests_get_ordered_replies() {
    // One loop owns the connection and runs its requests one after
    // another, so replies leave in request order whatever each costs.
    let server = NetServer::spawn("127.0.0.1:0".parse().unwrap(), echo_handler()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut want = Vec::new();
    for i in 0..8usize {
        let pad = "p".repeat(i + 1);
        let info = format!("sleep:{}:{pad}", (8 - i) * 15);
        want.push(info.len() as u64);
        write_frame(&mut stream, &hello(&info).encode()).unwrap();
    }
    for (i, want_len) in want.iter().enumerate() {
        assert_eq!(
            read_reply(&mut stream),
            Reply::welcome(*want_len),
            "reply {i}"
        );
    }
}

#[test]
fn large_reply_resumes_across_partial_writes() {
    // A multi-megabyte reply cannot leave in one nonblocking write;
    // the connection must re-arm write interest and finish the frame.
    let big = "B".repeat(16 << 20);
    let handler: Arc<dyn Handler> = {
        let big = big.clone();
        Arc::new(move |req: Bytes| match Request::decode(req) {
            Ok(Request::Hello { .. }) => Reply::Error {
                message: big.clone(),
            }
            .encode(),
            _ => Reply::Error {
                message: "unexpected".into(),
            }
            .encode(),
        })
    };
    let registry = Arc::new(Registry::new());
    let server =
        NetServer::spawn_with("127.0.0.1:0".parse().unwrap(), handler, opts(), &registry).unwrap();
    // A raw client that does not read for a while: the kernel buffers
    // fill, the nonblocking write hits WouldBlock, and the connection
    // must park the remainder and resume on writability.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut stream, &hello("gimme").encode()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let Reply::Error { message } = read_reply(&mut stream) else {
        panic!("want the big Error reply");
    };
    assert_eq!(message.len(), big.len());
    assert_eq!(message.as_bytes(), big.as_bytes());
    let stalls = registry
        .snapshot()
        .counter("tcp.write_stalls_total")
        .unwrap_or(0);
    assert!(stalls > 0, "a 16 MiB reply to a slow reader must stall");
}

#[test]
fn admission_cap_answers_typed_overloaded() {
    let registry = Arc::new(Registry::new());
    let server = NetServer::spawn_with(
        "127.0.0.1:0".parse().unwrap(),
        echo_handler(),
        NetOptions {
            max_connections: 1,
            ..opts()
        },
        &registry,
    )
    .unwrap();
    // Fill the only slot and prove it is installed with a round trip.
    let mut held = TcpTransport::connect(server.addr()).unwrap();
    assert_eq!(held.request(&hello("x")).unwrap(), Reply::welcome(1));
    // The next connection is admitted only to be told "Overloaded".
    let mut over = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut over, &hello("straggler").encode()).unwrap();
    assert_eq!(read_reply(&mut over), Reply::Overloaded);
    // ...and then closed by the server, not reset mid-reply.
    assert!(matches!(read_frame(&mut over), Ok(None) | Err(_)));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("tcp.rejected_total"), Some(1));
    assert_eq!(snap.counter("tcp.accepted_total"), Some(1));
    // The held session is unaffected.
    assert_eq!(held.request(&hello("yy")).unwrap(), Reply::welcome(2));
}

#[test]
fn idle_connections_are_reaped() {
    let registry = Arc::new(Registry::new());
    let server = NetServer::spawn_with(
        "127.0.0.1:0".parse().unwrap(),
        echo_handler(),
        NetOptions {
            idle_timeout: Some(Duration::from_millis(150)),
            ..opts()
        },
        &registry,
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut stream, &hello("hi").encode()).unwrap();
    assert!(read_frame(&mut stream).unwrap().is_some());
    // Go quiet past the timeout: the server closes us.
    std::thread::sleep(Duration::from_millis(600));
    assert!(matches!(read_frame(&mut stream), Ok(None) | Err(_)));
    assert_eq!(
        registry.snapshot().counter("tcp.idle_closed_total"),
        Some(1)
    );
}

#[test]
fn reply_backlog_stalls_reads_but_serves_everything() {
    // 128 pipelined requests, 256 KiB of reply each, to a client that
    // does not read: once the kernel's buffers are full the replies
    // back up in the connection, and past the backlog limit the loop
    // must stop reading and serving it — then pick up where it stopped
    // when the client finally reads.
    const REQUESTS: u64 = 128;
    let handler: Arc<dyn Handler> = Arc::new(|req: Bytes| {
        let Ok(Request::Hello { info }) = Request::decode(req) else {
            panic!("test sends only Hello");
        };
        Reply::Error {
            message: " ".repeat((256 << 10) - info.len()) + &info,
        }
        .encode()
    });
    let registry = Arc::new(Registry::new());
    let server =
        NetServer::spawn_with("127.0.0.1:0".parse().unwrap(), handler, opts(), &registry).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&numbered_burst(REQUESTS)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry.snapshot().counter("tcp.read_stalls_total") == Some(0) {
        assert!(Instant::now() < deadline, "the backlog never stalled reads");
        std::thread::sleep(Duration::from_millis(10));
    }
    for i in 0..REQUESTS {
        let Reply::Error { message } = read_reply(&mut stream) else {
            panic!("want the padded Error reply");
        };
        assert_eq!(message.len(), 256 << 10);
        assert_eq!(message.trim_start(), i.to_string(), "reply {i}");
    }
}

#[test]
fn graceful_drain_delivers_inflight_reply() {
    let server = NetServer::spawn("127.0.0.1:0".parse().unwrap(), echo_handler()).unwrap();
    let addr = server.addr();
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &hello("sleep:200:pad").encode()).unwrap();
        read_reply(&mut stream)
    });
    // Let the request reach the handler, then shut the server down.
    std::thread::sleep(Duration::from_millis(80));
    drop(server);
    let reply = client.join().unwrap();
    assert!(matches!(reply, Reply::Welcome { .. }), "{reply:?}");
}

#[test]
fn handler_panic_is_isolated_and_counted() {
    let poison: Arc<dyn Handler> = Arc::new(|req: Bytes| match Request::decode(req) {
        Ok(Request::Hello { info }) if info == "poison" => panic!("poison request"),
        Ok(Request::Hello { info }) => Reply::welcome(info.len() as u64).encode(),
        _ => Reply::Error {
            message: "unexpected".into(),
        }
        .encode(),
    });
    let registry = Arc::new(Registry::new());
    let server =
        NetServer::spawn_with("127.0.0.1:0".parse().unwrap(), poison, opts(), &registry).unwrap();
    let mut t = TcpTransport::connect(server.addr()).unwrap();
    let Reply::Error { message } = t.request(&hello("poison")).unwrap() else {
        panic!("want Error");
    };
    assert!(message.contains("panicked"), "{message}");
    assert_eq!(
        registry.snapshot().counter("tcp.worker_panics_total"),
        Some(1)
    );
    // Connection and server both survive.
    assert_eq!(t.request(&hello("ok")).unwrap(), Reply::welcome(2));
    let mut t2 = TcpTransport::connect(server.addr()).unwrap();
    assert_eq!(t2.request(&hello("fresh")).unwrap(), Reply::welcome(5));
    assert_eq!(
        registry.snapshot().counter("tcp.worker_panics_total"),
        Some(1)
    );
}

#[test]
fn server_shutdown_is_clean() {
    let server = NetServer::spawn("127.0.0.1:0".parse().unwrap(), echo_handler()).unwrap();
    let addr = server.addr();
    drop(server);
    // After drop the port no longer speaks our protocol. (A connect may
    // still succeed briefly on some platforms, but a request must fail
    // rather than hang.)
    if let Ok(mut t) = TcpTransport::connect_with_timeout(addr, Some(Duration::from_secs(2))) {
        assert!(t.request(&hello("")).is_err());
    }
}

#[test]
fn loops_run_handlers_in_parallel() {
    let inflight_peak = Arc::new(AtomicU64::new(0));
    let inflight = Arc::new(AtomicU64::new(0));
    let handler: Arc<dyn Handler> = {
        let peak = inflight_peak.clone();
        let cur = inflight.clone();
        Arc::new(move |req: Bytes| {
            let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(100));
            cur.fetch_sub(1, Ordering::SeqCst);
            match Request::decode(req) {
                Ok(Request::Hello { info }) => Reply::welcome(info.len() as u64).encode(),
                _ => Reply::Error {
                    message: "unexpected".into(),
                }
                .encode(),
            }
        })
    };
    let server = NetServer::spawn_with(
        "127.0.0.1:0".parse().unwrap(),
        handler,
        NetOptions {
            workers: 4,
            ..opts()
        },
        &Arc::new(Registry::new()),
    )
    .unwrap();
    let started = Instant::now();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = server.addr();
            std::thread::spawn(move || {
                let mut t = TcpTransport::connect(addr).unwrap();
                t.request(&hello("go")).unwrap()
            })
        })
        .collect();
    for t in threads {
        assert!(matches!(t.join().unwrap(), Reply::Welcome { .. }));
    }
    assert!(
        started.elapsed() < Duration::from_millis(350),
        "4 x 100 ms requests on 4 loops must overlap (took {:?})",
        started.elapsed()
    );
    assert!(inflight_peak.load(Ordering::SeqCst) >= 2);
}
