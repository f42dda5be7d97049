//! On-line visualization and steering of a running simulation (paper
//! §4.5) — over a real TCP connection.
//!
//! The simulator thread publishes density frames into an InterWeave
//! segment; the visualization client renders them as ASCII art under a
//! temporal coherence bound and steers the simulation by writing the
//! steering segment. The two sides talk to an InterWeave server bound to
//! an ephemeral localhost port.
//!
//! ```text
//! cargo run -p iw-examples --bin astroflow
//! ```

use std::sync::Arc;

use iw_astro::{read_frame, write_steering, FrameChannel, Simulation};
use iw_core::Session;
use iw_net::NetServer;
use iw_proto::{Coherence, Handler, TcpTransport};
use iw_server::Server;
use iw_types::MachineArch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A real server on a real socket.
    let handler: Arc<dyn Handler> = Arc::new(Server::new());
    let tcp = NetServer::spawn("127.0.0.1:0".parse()?, handler)?;
    println!("InterWeave server listening on {}", tcp.addr());

    // Simulator: "runs on a cluster of AlphaServer nodes" — an alpha
    // client here.
    let mut simclient = Session::new(
        MachineArch::alpha(),
        Box::new(TcpTransport::connect(tcp.addr())?),
    )?;
    let mut sim = Simulation::new(24, 16);
    let mut chan = FrameChannel::create(&mut simclient, "astro/demo", &sim)?;
    chan.publish(&mut simclient, &sim)?;

    // Visualizer: "a visualization tool written in Java and running on a
    // Pentium desktop" — an x86 client, 150 ms temporal bound.
    let mut viz = Session::new(
        MachineArch::x86(),
        Box::new(TcpTransport::connect(tcp.addr())?),
    )?;
    let fh = viz.open_segment("astro/demo/frame")?;
    viz.set_coherence(&fh, Coherence::Temporal(150))?;

    for epoch in 0..3 {
        // The simulator advances, absorbing steering between epochs.
        let paused = chan.absorb_steering(&mut simclient, &mut sim)?;
        if !paused {
            for _ in 0..10 {
                sim.step();
            }
            chan.publish(&mut simclient, &sim)?;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));

        let frame = read_frame(&mut viz, "astro/demo")?;
        println!(
            "epoch {epoch}: step {} t={:.2} mass={:.1}",
            frame.step, frame.time, frame.total_mass
        );
        println!("{}", frame.ascii_art(48, 12));

        // The scientist cranks up the injection rate after the first look.
        if epoch == 0 {
            println!("steering: injection 1.0 -> 8.0");
            write_steering(&mut viz, "astro/demo", 0.15, 8.0, 0.6)?;
        }
    }

    let t = viz.transport_stats();
    println!(
        "visualizer traffic: {} KiB over {} requests (temporal bound trimmed polling)",
        t.total_bytes() / 1024,
        t.requests
    );
    println!("astroflow OK");
    Ok(())
}
