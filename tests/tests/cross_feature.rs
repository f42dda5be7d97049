//! Cross-feature interactions: optimizations meeting applications and
//! each other.

use std::sync::Arc;

use iw_astro::{FrameChannel, Simulation};
use iw_core::{Session, SessionOptions, TrackMode};
use iw_mining::{read_lattice, CustomerSeq, Lattice, LatticePublisher};
use iw_proto::{Coherence, Handler, Loopback};
use iw_server::{DurableOptions, Server};
use iw_types::desc::TypeDesc;
use iw_types::MachineArch;

fn handler() -> Arc<dyn Handler> {
    Arc::new(Server::new())
}

#[test]
fn astro_frames_drive_no_diff_adaptation() {
    // A simulation rewrites its whole grid every publish: exactly the
    // workload no-diff mode exists for. After a few frames the frame
    // segment must have adapted, and correctness must be unaffected.
    let srv = handler();
    let mut simc = Session::new(MachineArch::x86(), Box::new(Loopback::new(srv.clone()))).unwrap();
    let mut sim = Simulation::new(16, 16);
    let mut chan = FrameChannel::create(&mut simc, "xf/astro", &sim).unwrap();

    for _ in 0..4 {
        sim.step();
        chan.publish(&mut simc, &sim).unwrap();
    }
    let h = simc.open_segment("xf/astro/frame").unwrap();
    let mode = simc.tracking_mode(&h).unwrap();
    assert!(
        matches!(mode, TrackMode::NoDiff { .. }),
        "whole-grid rewrites must engage no-diff mode, got {mode:?}"
    );

    // Back to sparse updates: the re-probe must eventually return to
    // diff mode (probe period is bounded).
    for _ in 0..iw_core::NO_DIFF_PROBE_PERIOD + 2 {
        simc.wl_acquire(&h).unwrap();
        let grid = simc.mip_to_ptr("xf/astro/frame#grid").unwrap();
        let cell = simc.index(&grid, 0).unwrap();
        simc.write_f64(&cell, 42.0).unwrap();
        simc.wl_release(&h).unwrap();
    }
    let mode = simc.tracking_mode(&h).unwrap();
    assert!(
        matches!(mode, TrackMode::Diff),
        "sparse updates after re-probe must return to diffing, got {mode:?}"
    );

    // A fresh reader still sees a consistent frame.
    let mut viz = Session::new(MachineArch::sparc_v9(), Box::new(Loopback::new(srv))).unwrap();
    let frame = iw_astro::read_frame(&mut viz, "xf/astro").unwrap();
    assert_eq!(frame.cells[0], 42.0);
    assert_eq!(frame.cells.len(), 256);
}

#[test]
fn transaction_on_lattice_publisher_rolls_back_cleanly() {
    // Mix transactions with the mining application: an aborted publish
    // leaves the shared lattice exactly as before.
    let srv = handler();
    let mut p = Session::new(MachineArch::x86(), Box::new(Loopback::new(srv.clone()))).unwrap();
    let mut lat = Lattice::new(2, 1);
    lat.update(&[CustomerSeq {
        id: 0,
        transactions: vec![vec![1, 2]],
    }]);
    let mut publisher = LatticePublisher::create(&mut p, "xf/lat").unwrap();
    publisher.publish(&mut p, &lat).unwrap();
    let before = read_lattice(&mut p, "xf/lat").unwrap();

    // Manually mutate a support inside a transaction, then abort.
    let h = p.open_segment("xf/lat").unwrap();
    p.tx_begin().unwrap();
    p.wl_acquire(&h).unwrap();
    let root = p.mip_to_ptr("xf/lat#root").unwrap();
    let first = p
        .read_ptr(&p.field(&root, "first_child").unwrap())
        .unwrap()
        .expect("lattice non-empty");
    p.write_i32(&p.field(&first, "support").unwrap(), 999_999)
        .unwrap();
    p.tx_abort().unwrap();

    let after = read_lattice(&mut p, "xf/lat").unwrap();
    assert_eq!(before, after, "aborted publish must be invisible");
}

#[test]
fn diff_coherence_reader_with_no_diff_writer() {
    // Writer in forced no-diff mode sends whole blocks; a Diff-coherence
    // reader's staleness accounting must still work (whole-block sends
    // count as everything changed, so its bound trips immediately).
    let srv = handler();
    let mut w = Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(srv.clone())),
        SessionOptions {
            no_diff_adaptation: false,
            ..Default::default()
        },
    )
    .unwrap();
    let h = w.open_segment("xf/dc").unwrap();
    w.wl_acquire(&h).unwrap();
    let arr = w.malloc(&h, &TypeDesc::int32(), 256, Some("arr")).unwrap();
    w.wl_release(&h).unwrap();
    w.set_tracking_mode(
        &h,
        TrackMode::NoDiff {
            remaining: u32::MAX,
        },
    )
    .unwrap();

    let mut r = Session::new(MachineArch::x86(), Box::new(Loopback::new(srv))).unwrap();
    let hr = r.open_segment("xf/dc").unwrap();
    r.set_coherence(&hr, Coherence::diff_percent(5.0)).unwrap();
    r.rl_acquire(&hr).unwrap();
    r.rl_release(&hr).unwrap();

    // One whole-segment (no-diff) release: > 5% modified by definition.
    w.wl_acquire(&h).unwrap();
    w.write_i32(&w.index(&arr, 3).unwrap(), 1).unwrap();
    w.wl_release(&h).unwrap();

    r.rl_acquire(&hr).unwrap();
    let p = r.mip_to_ptr("xf/dc#arr").unwrap();
    assert_eq!(
        r.read_i32(&r.index(&p, 3).unwrap()).unwrap(),
        1,
        "whole-block release must trip the diff bound"
    );
    r.rl_release(&hr).unwrap();
}

#[test]
fn checkpoint_recovery_preserves_pointer_graphs() {
    let dir = std::env::temp_dir().join(format!("xf-ck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || {
        let opts = DurableOptions {
            checkpoint_interval: 1,
            ..DurableOptions::default()
        };
        Server::with_durability(dir.clone(), opts).unwrap().0
    };
    {
        let srv: Arc<dyn Handler> = Arc::new(durable());
        let mut s = Session::new(MachineArch::x86(), Box::new(Loopback::new(srv))).unwrap();
        let ty = iw_types::idl::compile("struct n { int v; struct n *next; };")
            .unwrap()
            .get("n")
            .unwrap()
            .clone();
        let h = s.open_segment("xf/ring").unwrap();
        s.wl_acquire(&h).unwrap();
        // A 3-node ring (cycles must survive serialization).
        let a = s.malloc(&h, &ty, 1, Some("a")).unwrap();
        let b = s.malloc(&h, &ty, 1, None).unwrap();
        let c = s.malloc(&h, &ty, 1, None).unwrap();
        for (node, v) in [(&a, 1), (&b, 2), (&c, 3)] {
            s.write_i32(&s.field(node, "v").unwrap(), v).unwrap();
        }
        s.write_ptr(&s.field(&a, "next").unwrap(), Some(&b))
            .unwrap();
        s.write_ptr(&s.field(&b, "next").unwrap(), Some(&c))
            .unwrap();
        s.write_ptr(&s.field(&c, "next").unwrap(), Some(&a))
            .unwrap();
        s.wl_release(&h).unwrap();
    }
    let srv: Arc<dyn Handler> = Arc::new(durable());
    let mut s = Session::new(MachineArch::alpha(), Box::new(Loopback::new(srv))).unwrap();
    let h = s.open_segment("xf/ring").unwrap();
    s.rl_acquire(&h).unwrap();
    let a = s.mip_to_ptr("xf/ring#a").unwrap();
    let mut vals = Vec::new();
    let mut cur = a.clone();
    for _ in 0..6 {
        vals.push(s.read_i32(&s.field(&cur, "v").unwrap()).unwrap());
        cur = s
            .read_ptr(&s.field(&cur, "next").unwrap())
            .unwrap()
            .expect("ring");
    }
    assert_eq!(vals, vec![1, 2, 3, 1, 2, 3], "the ring survived recovery");
    assert_eq!(cur.va(), a.va(), "and it still cycles");
    s.rl_release(&h).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
