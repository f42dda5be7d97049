//! Server-side data-management costs for the Figure 4 workloads.
//!
//! "The data management costs for the InterWeave server are much lower
//! than that on the client in all cases other than pointer and
//! small_string because the server maintains data in wire format. The
//! high costs for pointer and small_string stem from the fact that
//! strings and MIPs are of variable length, and are stored separately
//! from their wire format blocks." (§4.1, referring to the TR for full
//! numbers)
//!
//! For each workload this harness measures, on the server:
//!
//! - `srv_apply`   — applying a fully-changed client diff to wire storage;
//! - `srv_collect` — building the update diff for a stale client (cache
//!   cleared);
//!
//! and prints them next to the client's collect cost for the ratio check.
//!
//! Usage: `cargo run --release -p iw-bench --bin fig4_server [scale]`

use std::sync::Arc;

use iw_bench::{dirty_all, figure4_workloads, secs, setup, time};
use iw_core::Session;
use iw_proto::{Handler, Loopback};
use iw_server::Server;
use iw_types::MachineArch;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    println!("# Figure 4 (server side) — data management costs, {scale} MB (seconds)");
    println!(
        "{:<14} {:>12} {:>11} {:>12} {:>16}",
        "workload", "cli_collect", "srv_apply", "srv_collect", "srv/cli ratio"
    );

    let mut ratios: Vec<(&str, f64)> = Vec::new();
    for w in figure4_workloads(scale) {
        // Build our own server so we can reach inside it.
        let server = Arc::new(Server::new());
        let handler: Arc<dyn Handler> = server.clone();
        let mut writer =
            Session::new(MachineArch::x86(), Box::new(Loopback::new(handler))).expect("writer");
        // Recreate the bed manually against this server.
        let bed_template = setup(&w, MachineArch::x86());
        drop(bed_template); // only needed the workload definition path
        let h = writer.open_segment("bench/data").expect("open");
        writer.wl_acquire(&h).expect("wl");
        let block = writer
            .malloc(&h, &w.ty, w.count, Some("blk"))
            .expect("malloc");
        if w.has_pointers {
            let targets = writer
                .malloc(
                    &h,
                    &iw_types::desc::TypeDesc::int32(),
                    w.count,
                    Some("targets"),
                )
                .expect("targets");
            iw_bench::aim_pointers(&mut writer, &w, &block, &targets);
        }
        writer.wl_release(&h).expect("rel");

        // Dirty everything; collect the full diff client-side.
        writer.wl_acquire(&h).expect("wl");
        dirty_all(&mut writer, &block, &w, 1);
        let ((diff, _, _), d_cli) = time(|| writer.collect_segment_diff(&h).expect("collect"));

        let (d_apply, d_collect) = server
            .with_segment_mut("bench/data", |seg| {
                let (_, d_apply) = time(|| seg.apply_diff(&diff).expect("apply"));
                seg.clear_diff_cache();
                let (_, d_collect) = time(|| {
                    seg.collect_update(901, 1, iw_proto::Coherence::Full)
                        .expect("update")
                });
                (d_apply, d_collect)
            })
            .expect("segment");
        // The diff was applied to the server out of band (for timing), so
        // a normal release would double-apply; just drop the session —
        // each workload gets a fresh server.
        drop(writer);

        let srv_cost = (d_apply + d_collect).as_secs_f64() / 2.0;
        let ratio = srv_cost / d_cli.as_secs_f64().max(1e-9);
        ratios.push((w.name, ratio));
        println!(
            "{:<14} {:>12} {:>11} {:>12} {:>15.2}x",
            w.name,
            secs(d_cli),
            secs(d_apply),
            secs(d_collect),
            ratio
        );
    }

    println!("\n# paper §4.1: server cost ≪ client cost except for pointer and");
    println!("# small_string (variable-length items live out of line).");
    let worst: Vec<&str> = {
        let mut r = ratios.clone();
        r.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        r.iter().take(2).map(|(n, _)| *n).collect()
    };
    println!("# measured worst two ratios: {worst:?}");
}
