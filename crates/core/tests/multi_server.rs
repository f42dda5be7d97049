//! Multi-server routing: "Every segment is managed by an InterWeave
//! server at the IP address corresponding to the segment's URL.
//! Different segments may be managed by different servers." (§2.1)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use iw_core::{CoreError, Session};
use iw_proto::msg::{Reply, Request};
use iw_proto::{Handler, Loopback, ProtoError, Transport, TransportStats};
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_types::MachineArch;

fn handler() -> Arc<dyn Handler> {
    Arc::new(Server::new())
}

/// Builds a session whose default server hosts `main.org/*` and with a
/// second server registered for `other.net/*`.
fn dual_session_on(
    main_srv: &Arc<dyn Handler>,
    other_srv: &Arc<dyn Handler>,
    arch: MachineArch,
) -> Session {
    let mut s = Session::new(arch, Box::new(Loopback::new(main_srv.clone()))).unwrap();
    s.add_server("other.net", Box::new(Loopback::new(other_srv.clone())))
        .unwrap();
    s
}

type SharedHandler = Arc<dyn Handler>;

fn dual_session() -> (Session, SharedHandler, SharedHandler) {
    let main_srv = handler();
    let other_srv = handler();
    let s = dual_session_on(&main_srv, &other_srv, MachineArch::x86());
    (s, main_srv, other_srv)
}

#[test]
fn segments_route_to_their_hosts_server() {
    let (mut s, main_srv, other_srv) = dual_session();
    let hm = s.open_segment("main.org/data").unwrap();
    let ho = s.open_segment("other.net/data").unwrap();
    for (h, v) in [(&hm, 1), (&ho, 2)] {
        s.wl_acquire(h).unwrap();
        let p = s.malloc(h, &TypeDesc::int32(), 1, Some("x")).unwrap();
        s.write_i32(&p, v).unwrap();
        s.wl_release(h).unwrap();
    }

    // Each server hosts exactly its own segment.
    let m = main_srv.clone();
    let o = other_srv.clone();
    {
        // Peek through fresh clients bound to a single server each.
        let mut cm = Session::new(MachineArch::alpha(), Box::new(Loopback::new(m))).unwrap();
        let hm2 = cm.open_segment("main.org/data").unwrap();
        cm.rl_acquire(&hm2).unwrap();
        let p = cm.mip_to_ptr("main.org/data#x").unwrap();
        assert_eq!(cm.read_i32(&p).unwrap(), 1);
        cm.rl_release(&hm2).unwrap();
        // The main server never saw other.net/data: opening it there
        // creates a fresh empty segment.
        let h_missing = cm.open_segment("other.net/data").unwrap();
        cm.rl_acquire(&h_missing).unwrap();
        assert!(cm.mip_to_ptr("other.net/data#x").is_err());
        cm.rl_release(&h_missing).unwrap();
    }
    {
        let mut co = Session::new(MachineArch::sparc_v9(), Box::new(Loopback::new(o))).unwrap();
        let ho2 = co.open_segment("other.net/data").unwrap();
        co.rl_acquire(&ho2).unwrap();
        let p = co.mip_to_ptr("other.net/data#x").unwrap();
        assert_eq!(co.read_i32(&p).unwrap(), 2);
        co.rl_release(&ho2).unwrap();
    }
}

#[test]
fn cross_server_pointers_resolve() {
    let (mut s, main_srv, other_srv) = dual_session();
    // An int on the "other" server; a pointer to it on the main server.
    let ho = s.open_segment("other.net/values").unwrap();
    s.wl_acquire(&ho).unwrap();
    let target = s.malloc(&ho, &TypeDesc::int32(), 1, Some("v")).unwrap();
    s.write_i32(&target, 777).unwrap();
    s.wl_release(&ho).unwrap();

    let hm = s.open_segment("main.org/dir").unwrap();
    s.wl_acquire(&hm).unwrap();
    let slot = s
        .malloc(&hm, &TypeDesc::pointer(), 1, Some("slot"))
        .unwrap();
    s.write_ptr(&slot, Some(&target)).unwrap();
    s.wl_release(&hm).unwrap();

    // A second client, also connected to both servers, opens only the
    // directory; following the pointer fetches other.net/values through
    // the *other* server's link on demand.
    let mut c = dual_session_on(&main_srv, &other_srv, MachineArch::alpha());
    let hd = c.open_segment("main.org/dir").unwrap();
    c.rl_acquire(&hd).unwrap();
    let slot_c = c.mip_to_ptr("main.org/dir#slot").unwrap();
    let target_c = c.read_ptr(&slot_c).unwrap().expect("non-null");
    let hv = c.open_segment("other.net/values").unwrap();
    c.rl_acquire(&hv).unwrap();
    assert_eq!(c.read_i32(&target_c).unwrap(), 777);
    c.rl_release(&hv).unwrap();
    c.rl_release(&hd).unwrap();
}

#[test]
fn cross_server_transactions_commit_per_server() {
    let (mut s, _m, _o) = dual_session();
    for seg in ["main.org/acct", "other.net/acct"] {
        let h = s.open_segment(seg).unwrap();
        s.wl_acquire(&h).unwrap();
        let p = s.malloc(&h, &TypeDesc::int64(), 1, Some("bal")).unwrap();
        s.write_i64(&p, 500).unwrap();
        s.wl_release(&h).unwrap();
    }
    let hm = s.open_segment("main.org/acct").unwrap();
    let ho = s.open_segment("other.net/acct").unwrap();
    s.tx_begin().unwrap();
    s.wl_acquire(&hm).unwrap();
    s.wl_acquire(&ho).unwrap();
    let a = s.mip_to_ptr("main.org/acct#bal").unwrap();
    let b = s.mip_to_ptr("other.net/acct#bal").unwrap();
    s.write_i64(&a, 400).unwrap();
    s.write_i64(&b, 600).unwrap();
    s.tx_commit().unwrap();

    s.rl_acquire(&hm).unwrap();
    s.rl_acquire(&ho).unwrap();
    let a = s.mip_to_ptr("main.org/acct#bal").unwrap();
    let b = s.mip_to_ptr("other.net/acct#bal").unwrap();
    assert_eq!(s.read_i64(&a).unwrap(), 400);
    assert_eq!(s.read_i64(&b).unwrap(), 600);
    s.rl_release(&ho).unwrap();
    s.rl_release(&hm).unwrap();
}

#[test]
fn traffic_counters_aggregate_and_reset() {
    let (mut s, _m, _o) = dual_session();
    let hm = s.open_segment("main.org/a").unwrap();
    let ho = s.open_segment("other.net/b").unwrap();
    s.wl_acquire(&hm).unwrap();
    s.wl_release(&hm).unwrap();
    s.wl_acquire(&ho).unwrap();
    s.wl_release(&ho).unwrap();
    // Both links count: two Hellos, two Opens, two Acquire/Release pairs.
    assert_eq!(s.transport_stats().requests, 8);
    s.reset_transport_stats();
    assert_eq!(s.transport_stats().requests, 0);
}

#[test]
fn add_server_links_report_into_the_session_registry() {
    let (mut s, _m, _o) = dual_session();
    let h = s.open_segment("other.net/seen").unwrap();
    s.wl_acquire(&h).unwrap();
    s.wl_release(&h).unwrap();
    // Hello on each link, then Open, Acquire and Release on the second.
    let snap = s.metrics_snapshot();
    assert_eq!(snap.counter("proto.requests_total"), Some(5));
    assert_eq!(snap.counter("proto.req.hello_total"), Some(2));
}

/// A loopback connection that fails like a dead TCP peer once its shared
/// `dead` flag is raised.
struct Killable {
    inner: Loopback,
    dead: Arc<AtomicBool>,
}

impl Transport for Killable {
    fn request(&mut self, req: &Request) -> Result<Reply, ProtoError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(ProtoError::Channel("server is down".into()));
        }
        self.inner.request(req)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

#[test]
fn plain_links_surface_channel_errors_and_never_fail_over() {
    let dead = Arc::new(AtomicBool::new(false));
    let killable = |srv: SharedHandler| {
        Box::new(Killable {
            inner: Loopback::new(srv),
            dead: dead.clone(),
        })
    };
    let mut s = Session::new(MachineArch::x86(), killable(handler())).unwrap();
    s.add_server("other.net", killable(handler())).unwrap();
    let on_default = s.open_segment("main.org/a").unwrap();
    let on_added = s.open_segment("other.net/b").unwrap();
    dead.store(true, Ordering::SeqCst);
    for h in [&on_default, &on_added] {
        match s.wl_acquire(h) {
            Err(CoreError::Proto(ProtoError::Channel(_))) => {}
            other => panic!("{}: want a channel error, got {other:?}", h.name()),
        }
    }
    let snap = s.metrics_snapshot();
    assert_eq!(snap.counter("client.failovers_total"), Some(0));
    assert_eq!(snap.counter("client.reconnects_total"), Some(0));
}
