//! Figure 5: diff management cost as a function of modification
//! granularity (1 MB total data).
//!
//! A 1 MB integer array is modified at every `ratio`-th word, for ratio ∈
//! {1, 2, 4, …, 16384}; the table reports
//!
//! - `word_diff`  — client word-by-word twin comparison only;
//! - `translate`  — client wire translation (collect − word diffing);
//! - `collect`    — full client diff collection;
//! - `srv_apply`  — server applying the client diff to wire storage;
//! - `srv_collect`— server building the update diff for a stale client
//!   (constant for ratios ≤ 16: subblock granularity loses fine detail);
//! - `cli_apply`  — client applying the server's update diff.
//!
//! Usage: `cargo run --release -p iw-bench --bin fig5_granularity [scale]`

use std::sync::Arc;

use iw_bench::{secs, time};
use iw_core::diffing::find_byte_runs;
use iw_core::Session;
use iw_proto::{Handler, Loopback};
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_types::MachineArch;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let n_ints: u32 = ((1u32 << 20) as f64 * scale / 4.0) as u32;
    println!(
        "# Figure 5 — diff management cost vs modification granularity ({n_ints} ints, seconds)"
    );
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>11} {:>10}",
        "ratio", "word_diff", "translate", "collect", "srv_apply", "srv_collect", "cli_apply"
    );

    let mut ratio = 1u32;
    let mut last_metrics: Option<String> = None;
    while ratio <= 16384 {
        let server = Arc::new(Server::new());
        let handler: Arc<dyn Handler> = server.clone();
        let mut writer = Session::new(MachineArch::x86(), Box::new(Loopback::new(handler.clone())))
            .expect("writer");
        let mut reader =
            Session::new(MachineArch::x86(), Box::new(Loopback::new(handler))).expect("reader");

        // Version 1: the full array.
        let h = writer.open_segment("g/seg").expect("open");
        writer.wl_acquire(&h).expect("wl");
        let arr = writer
            .malloc(&h, &TypeDesc::int32(), n_ints, Some("arr"))
            .expect("malloc");
        let zeros: Vec<u8> = (0..n_ints).flat_map(|i| i.to_le_bytes()).collect();
        writer.write_bytes_raw(&arr, &zeros).expect("fill");
        writer.wl_release(&h).expect("release");
        reader.fetch_segment("g/seg").expect("sync");
        let rh = reader.open_segment("g/seg").expect("open");

        // Touch every `ratio`-th word.
        writer.wl_acquire(&h).expect("wl");
        let mut i = 0;
        while i < n_ints {
            let cell = writer.index(&arr, i).expect("cell");
            writer.write_i32(&cell, -(i as i32) - 1).expect("touch");
            i += ratio;
        }

        // (a) Pure word diffing over the dirty pages.
        let word = MachineArch::x86().word_size as usize;
        let (n_runs, d_word) = time(|| {
            let heap = writer.heap();
            let seg = heap.segment_id("g/seg").expect("seg");
            let mut runs = 0usize;
            for &idx in heap.segment(seg).subseg_indices() {
                for (_, twin, cur) in heap.subseg(idx).modified_pages() {
                    runs += find_byte_runs(twin, cur, word, true).len();
                }
            }
            runs
        });

        // (b) Full client collection (word diffing + translation).
        let ((diff, _, _), d_collect) = time(|| writer.collect_segment_diff(&h).expect("collect"));
        let d_translate = d_collect.saturating_sub(d_word);

        // (c) Server applies the client's diff, then (d) builds the
        // update for a stale (v1) client, cache bypassed so construction
        // cost is visible.
        let (d_srv_apply, upd, d_srv_collect) = server
            .with_segment_mut("g/seg", |seg| {
                let (_, d_srv_apply) = time(|| seg.apply_diff(&diff).expect("apply"));
                seg.clear_diff_cache();
                let (upd, d_srv_collect) = time(|| seg.collect_update(1).expect("update"));
                (d_srv_apply, upd, d_srv_collect)
            })
            .expect("server segment");

        // (e) Client applies the server's update.
        let (_, d_cli_apply) = time(|| reader.apply_segment_diff(&rh, &upd).expect("apply"));

        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>11} {:>10}   ({} page runs, {} B wire)",
            ratio,
            secs(d_word),
            secs(d_translate),
            secs(d_collect),
            secs(d_srv_apply),
            secs(d_srv_collect),
            secs(d_cli_apply),
            n_runs,
            upd.payload_len(),
        );

        // Registry snapshot for the finest granularity (ratio 1): writer
        // client metrics merged with the server's own registry.
        if ratio == 1 {
            let mut snap = writer.metrics_snapshot();
            snap.merge_prefixed("", server.metrics_snapshot());
            last_metrics = Some(snap.to_json());
        }
        ratio *= 2;
    }
    println!("\n# expected artifacts (paper §4.2):");
    println!("#  - srv_collect / cli_apply constant for ratios 1..16 (16-prim subblocks)");
    println!("#  - word_diff knee at ratio 1024 (4 KB pages / 4 B words)");
    println!("#  - translate jump between ratios 2 and 4 (run splicing loses effect)");
    if let Some(json) = last_metrics {
        println!("\n# Metrics snapshot (iw-telemetry JSON, ratio=1 run):");
        println!("{json}");
    }
}
