//! Concurrency stress over real TCP: parallel writers on disjoint blocks,
//! concurrent relaxed readers, and lock churn — all against one server.

use std::sync::Arc;

use iw_core::Session;
use iw_net::NetServer;
use iw_proto::{Coherence, Handler, TcpTransport};
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_types::MachineArch;

#[test]
fn parallel_writers_and_relaxed_readers_over_tcp() {
    let handler: Arc<dyn Handler> = Arc::new(Server::new());
    let tcp = NetServer::spawn("127.0.0.1:0".parse().unwrap(), handler).unwrap();
    let addr = tcp.addr();

    // Seed: one counter block per writer.
    const WRITERS: usize = 3;
    const ROUNDS: i64 = 20;
    {
        let mut s = Session::new(
            MachineArch::x86(),
            Box::new(TcpTransport::connect(addr).unwrap()),
        )
        .unwrap();
        let h = s.open_segment("stress/ctrs").unwrap();
        s.wl_acquire(&h).unwrap();
        for i in 0..WRITERS {
            s.malloc(&h, &TypeDesc::int64(), 4, Some(&format!("w{i}")))
                .unwrap();
        }
        s.wl_release(&h).unwrap();
    }

    let archs = [
        MachineArch::x86(),
        MachineArch::sparc_v9(),
        MachineArch::alpha(),
    ];
    let mut threads = Vec::new();
    for (i, arch) in archs.iter().enumerate().take(WRITERS) {
        let arch = arch.clone();
        threads.push(std::thread::spawn(move || {
            let mut s = Session::new(arch, Box::new(TcpTransport::connect(addr).unwrap())).unwrap();
            let h = s.open_segment("stress/ctrs").unwrap();
            for _ in 0..ROUNDS {
                s.wl_acquire(&h).unwrap();
                let p = s.mip_to_ptr(&format!("stress/ctrs#w{i}")).unwrap();
                for k in 0..4 {
                    let c = s.index(&p, k).unwrap();
                    let v = s.read_i64(&c).unwrap();
                    s.write_i64(&c, v + 1).unwrap();
                }
                s.wl_release(&h).unwrap();
            }
        }));
    }
    // Two relaxed readers hammer concurrently; they must only ever see
    // internally consistent snapshots (all four lanes of a block equal,
    // since each writer bumps its four lanes in one critical section).
    for r in 0..2 {
        threads.push(std::thread::spawn(move || {
            let mut s = Session::new(
                MachineArch::mips32(),
                Box::new(TcpTransport::connect(addr).unwrap()),
            )
            .unwrap();
            let h = s.open_segment("stress/ctrs").unwrap();
            s.set_coherence(&h, Coherence::Delta(1 + r)).unwrap();
            for _ in 0..40 {
                s.rl_acquire(&h).unwrap();
                for i in 0..WRITERS {
                    if let Ok(p) = s.mip_to_ptr(&format!("stress/ctrs#w{i}")) {
                        let lane0 = s.read_i64(&s.index(&p, 0).unwrap()).unwrap();
                        for k in 1..4 {
                            let lane = s.read_i64(&s.index(&p, k).unwrap()).unwrap();
                            assert_eq!(
                                lane, lane0,
                                "reader saw a torn block w{i} (lanes {lane0} vs {lane})"
                            );
                        }
                        assert!((0..=ROUNDS).contains(&lane0));
                    }
                }
                s.rl_release(&h).unwrap();
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }

    // Final state: every writer completed all rounds.
    let mut s = Session::new(
        MachineArch::x86_64(),
        Box::new(TcpTransport::connect(addr).unwrap()),
    )
    .unwrap();
    let h = s.open_segment("stress/ctrs").unwrap();
    s.rl_acquire(&h).unwrap();
    for i in 0..WRITERS {
        let p = s.mip_to_ptr(&format!("stress/ctrs#w{i}")).unwrap();
        for k in 0..4 {
            assert_eq!(s.read_i64(&s.index(&p, k).unwrap()).unwrap(), ROUNDS);
        }
    }
    s.rl_release(&h).unwrap();
}
