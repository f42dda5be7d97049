//! Full-stack integration: real TCP sockets, server recovery from the
//! durable store, transport fault injection, and the two paper
//! applications end to end.

use std::path::PathBuf;
use std::sync::Arc;

use iw_astro::{read_frame, write_steering, FrameChannel, Simulation};
use iw_core::{CoreError, Session};
use iw_mining::{generate, read_lattice, GenConfig, Lattice, LatticePublisher};
use iw_net::NetServer;
use iw_proto::{
    Coherence, FaultAction, FaultLayer, Handler, Loopback, ProtoError, Request, TcpTransport,
};
use iw_server::{DurableOptions, Server};
use iw_types::desc::TypeDesc;
use iw_types::{idl, MachineArch};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iw-integ-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn linked_list_over_real_tcp() {
    let handler: Arc<dyn Handler> = Arc::new(Server::new());
    let tcp = NetServer::spawn("127.0.0.1:0".parse().unwrap(), handler).unwrap();

    let node_t = idl::compile("struct node { int key; struct node *next; };")
        .unwrap()
        .get("node")
        .unwrap()
        .clone();

    // Writer on one connection, reader on another, different archs.
    let mut w = Session::new(
        MachineArch::mips32(),
        Box::new(TcpTransport::connect(tcp.addr()).unwrap()),
    )
    .unwrap();
    let h = w.open_segment("tcp/list").unwrap();
    w.wl_acquire(&h).unwrap();
    let head = w.malloc(&h, &node_t, 1, Some("head")).unwrap();
    for key in [10, 20, 30] {
        let n = w.malloc(&h, &node_t, 1, None).unwrap();
        w.write_i32(&w.field(&n, "key").unwrap(), key).unwrap();
        let old = w.read_ptr(&w.field(&head, "next").unwrap()).unwrap();
        w.write_ptr(&w.field(&n, "next").unwrap(), old.as_ref())
            .unwrap();
        w.write_ptr(&w.field(&head, "next").unwrap(), Some(&n))
            .unwrap();
    }
    w.wl_release(&h).unwrap();

    let mut r = Session::new(
        MachineArch::x86_64(),
        Box::new(TcpTransport::connect(tcp.addr()).unwrap()),
    )
    .unwrap();
    let hr = r.open_segment("tcp/list").unwrap();
    r.rl_acquire(&hr).unwrap();
    let head_r = r.mip_to_ptr("tcp/list#head").unwrap();
    let mut keys = Vec::new();
    let mut p = r.read_ptr(&r.field(&head_r, "next").unwrap()).unwrap();
    while let Some(n) = p {
        keys.push(r.read_i32(&r.field(&n, "key").unwrap()).unwrap());
        p = r.read_ptr(&r.field(&n, "next").unwrap()).unwrap();
    }
    r.rl_release(&hr).unwrap();
    assert_eq!(keys, vec![30, 20, 10]);
}

#[test]
fn server_recovers_segments_from_checkpoints() {
    let dir = temp_dir("recover");
    let durable = || {
        let opts = DurableOptions {
            checkpoint_interval: 1,
            ..DurableOptions::default()
        };
        Server::with_durability(dir.clone(), opts).unwrap().0
    };

    // Phase 1: a durable server checkpointing every version.
    {
        let handler: Arc<dyn Handler> = Arc::new(durable());
        let mut s = Session::new(MachineArch::x86(), Box::new(Loopback::new(handler))).unwrap();
        let h = s.open_segment("ck/data").unwrap();
        s.wl_acquire(&h).unwrap();
        let arr = s.malloc(&h, &TypeDesc::int32(), 100, Some("arr")).unwrap();
        for i in 0..100 {
            s.write_i32(&s.index(&arr, i).unwrap(), i as i32 * 3)
                .unwrap();
        }
        s.wl_release(&h).unwrap();
        // A second version.
        s.wl_acquire(&h).unwrap();
        s.write_i32(&s.index(&arr, 50).unwrap(), -777).unwrap();
        s.wl_release(&h).unwrap();
    } // server "crashes"

    // Phase 2: a new server process recovers from the data dir.
    let handler: Arc<dyn Handler> = Arc::new(durable());
    let mut s = Session::new(MachineArch::sparc_v9(), Box::new(Loopback::new(handler))).unwrap();
    let h = s.open_segment("ck/data").unwrap();
    s.rl_acquire(&h).unwrap();
    let arr = s.mip_to_ptr("ck/data#arr").unwrap();
    assert_eq!(s.read_i32(&s.index(&arr, 50).unwrap()).unwrap(), -777);
    assert_eq!(s.read_i32(&s.index(&arr, 99).unwrap()).unwrap(), 297);
    s.rl_release(&h).unwrap();

    // Writes continue from the recovered version.
    s.wl_acquire(&h).unwrap();
    s.write_i32(&s.index(&arr, 0).unwrap(), 1).unwrap();
    s.wl_release(&h).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transport_faults_surface_as_errors_not_corruption() {
    let handler: Arc<dyn Handler> = Arc::new(Server::new());
    /// Drops every fifth request, as a flaky connection would.
    struct DropEveryFifth(u64);
    impl FaultLayer for DropEveryFifth {
        fn plan(&mut self, _req: &Request, _encoded: &bytes::Bytes) -> FaultAction {
            self.0 += 1;
            if self.0.is_multiple_of(5) {
                FaultAction::Drop
            } else {
                FaultAction::Deliver
            }
        }
    }
    let mut t = Loopback::new(handler.clone());
    t.set_fault_layer(Box::new(DropEveryFifth(0)));
    let mut s = Session::new(MachineArch::x86(), Box::new(t)).unwrap();
    let h = s.open_segment("fault/seg").unwrap();
    s.wl_acquire(&h).unwrap();
    let x = s.malloc(&h, &TypeDesc::int32(), 1, Some("x")).unwrap();
    s.write_i32(&x, 1).unwrap();

    // Some operation in this loop will hit the dropped request; the
    // session must return an error and stay usable through a healthy
    // transport afterwards.
    let mut saw_error = false;
    for _ in 0..6 {
        match s.wl_release(&h).and_then(|_| s.wl_acquire(&h)) {
            Ok(()) => {}
            Err(CoreError::Proto(ProtoError::Channel(_))) => {
                saw_error = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(saw_error, "fault injection must surface");

    // A fresh, healthy client still sees consistent server state.
    let mut s2 = Session::new(MachineArch::x86(), Box::new(Loopback::new(handler))).unwrap();
    let h2 = s2.open_segment("fault/seg").unwrap();
    s2.rl_acquire(&h2).unwrap();
    let x2 = s2.mip_to_ptr("fault/seg#x").unwrap();
    let v = s2.read_i32(&x2).unwrap();
    assert!(
        v == 0 || v == 1,
        "value must be one of the committed states"
    );
    s2.rl_release(&h2).unwrap();
}

#[test]
fn mining_pipeline_end_to_end() {
    let handler: Arc<dyn Handler> = Arc::new(Server::new());
    let mut dbsrv = Session::new(
        MachineArch::alpha(),
        Box::new(Loopback::new(handler.clone())),
    )
    .unwrap();
    let mut miner = Session::new(MachineArch::x86(), Box::new(Loopback::new(handler))).unwrap();

    let db = generate(&GenConfig::small(11));
    let mut lattice = Lattice::new(3, 3);
    lattice.update(db.slice(0, 100));
    let mut publisher = LatticePublisher::create(&mut dbsrv, "it/lat").unwrap();
    publisher.publish(&mut dbsrv, &lattice).unwrap();

    let h = miner.open_segment("it/lat").unwrap();
    miner.set_coherence(&h, Coherence::Delta(1)).unwrap();
    let first = read_lattice(&mut miner, "it/lat").unwrap();
    assert_eq!(first, lattice.frequent());

    // Two increments; under delta(1) the reader may lag one version but
    // must converge.
    for round in 0..2 {
        lattice.update(db.slice(100 + round * 50, 50));
        publisher.publish(&mut dbsrv, &lattice).unwrap();
    }
    let view = read_lattice(&mut miner, "it/lat").unwrap();
    // Delta(1) at most one version behind: reading once more must be
    // fully current.
    let final_view = read_lattice(&mut miner, "it/lat").unwrap();
    assert_eq!(final_view, lattice.frequent());
    assert!(view.len() <= final_view.len());
}

#[test]
fn astro_pipeline_end_to_end() {
    let handler: Arc<dyn Handler> = Arc::new(Server::new());
    let mut simc = Session::new(
        MachineArch::alpha(),
        Box::new(Loopback::new(handler.clone())),
    )
    .unwrap();
    let mut viz = Session::new(MachineArch::mips32(), Box::new(Loopback::new(handler))).unwrap();

    let mut sim = Simulation::new(10, 10);
    let mut chan = FrameChannel::create(&mut simc, "it/astro", &sim).unwrap();
    chan.publish(&mut simc, &sim).unwrap();

    // Steer from the visualizer, absorb, advance, publish.
    write_steering(&mut viz, "it/astro", 0.2, 3.0, 0.1).unwrap();
    chan.absorb_steering(&mut simc, &mut sim).unwrap();
    assert_eq!(sim.injection, 3.0);
    for _ in 0..5 {
        sim.step();
    }
    chan.publish(&mut simc, &sim).unwrap();

    let frame = read_frame(&mut viz, "it/astro").unwrap();
    assert_eq!(frame.step, 5);
    assert_eq!(frame.cells.len(), 100);
    assert!((frame.total_mass - sim.total_mass()).abs() < 1e-9);
}

#[test]
fn many_segments_one_server() {
    let handler: Arc<dyn Handler> = Arc::new(Server::new());
    let mut s = Session::new(MachineArch::x86(), Box::new(Loopback::new(handler))).unwrap();
    let mut handles = Vec::new();
    for i in 0..20 {
        let name = format!("multi/seg{i}");
        let h = s.open_segment(&name).unwrap();
        s.wl_acquire(&h).unwrap();
        let p = s.malloc(&h, &TypeDesc::int32(), 4, Some("blk")).unwrap();
        s.write_i32(&s.index(&p, 0).unwrap(), i).unwrap();
        s.wl_release(&h).unwrap();
        handles.push((name, h));
    }
    for (i, (name, h)) in handles.iter().enumerate() {
        s.rl_acquire(h).unwrap();
        let p = s.mip_to_ptr(&format!("{name}#blk")).unwrap();
        assert_eq!(s.read_i32(&s.index(&p, 0).unwrap()).unwrap(), i as i32);
        s.rl_release(h).unwrap();
    }
}

#[test]
fn heterogeneous_quartet_shares_one_structure() {
    // Four architectures collaborating on one counter array.
    let handler: Arc<dyn Handler> = Arc::new(Server::new());
    let archs = [
        MachineArch::x86(),
        MachineArch::alpha(),
        MachineArch::sparc_v9(),
        MachineArch::mips32(),
    ];
    let mut sessions: Vec<Session> = archs
        .iter()
        .map(|a| Session::new(a.clone(), Box::new(Loopback::new(handler.clone()))).unwrap())
        .collect();

    let h0 = sessions[0].open_segment("quad/ctrs").unwrap();
    sessions[0].wl_acquire(&h0).unwrap();
    sessions[0]
        .malloc(&h0, &TypeDesc::int64(), 4, Some("ctrs"))
        .unwrap();
    sessions[0].wl_release(&h0).unwrap();

    // Each client increments its own counter 10 times.
    for round in 0..10 {
        for (i, s) in sessions.iter_mut().enumerate() {
            let h = s.open_segment("quad/ctrs").unwrap();
            s.wl_acquire(&h).unwrap();
            let ctrs = s.mip_to_ptr("quad/ctrs#ctrs").unwrap();
            let c = s.index(&ctrs, i as u32).unwrap();
            let v = s.read_i64(&c).unwrap();
            assert_eq!(v, round as i64, "client {i} sees its own history");
            s.write_i64(&c, v + 1).unwrap();
            s.wl_release(&h).unwrap();
        }
    }
    // Everyone agrees on the final state.
    for s in &mut sessions {
        let h = s.open_segment("quad/ctrs").unwrap();
        s.rl_acquire(&h).unwrap();
        let ctrs = s.mip_to_ptr("quad/ctrs#ctrs").unwrap();
        for i in 0..4 {
            assert_eq!(s.read_i64(&s.index(&ctrs, i).unwrap()).unwrap(), 10);
        }
        s.rl_release(&h).unwrap();
    }
}
