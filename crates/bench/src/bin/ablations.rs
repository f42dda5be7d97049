//! Ablations for the §3.3 optimizations.
//!
//! "All of them provided measurable improvements in performance and/or
//! bandwidth; space constraints preclude a separate presentation" — this
//! harness provides that separate presentation:
//!
//! 1. **diff-run splicing** — translation time and diff size on the
//!    ratio-2 pattern (every other word modified), spliced vs not;
//! 2. **isomorphic type descriptors** — flattened-layout iteration cost
//!    for a 32-int struct array, merged vs unmerged descriptors;
//! 3. **no-diff mode** — repeated whole-segment overwrites with
//!    adaptation on vs off (release time);
//! 4. **last-block prediction** — diff application hit rate and time with
//!    prediction on vs off;
//! 5. **diff caching** — server update construction, cache warm vs cold.
//!
//! Usage: `cargo run --release -p iw-bench --bin ablations`

use std::sync::Arc;

use iw_bench::{secs, time};
use iw_core::{Session, SessionOptions, TrackMode};
use iw_proto::{Handler, Loopback};
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_types::flat::FlatLayout;
use iw_types::MachineArch;

const N_INTS: u32 = 1 << 18; // 1 MB of ints

fn session_pair(opts: SessionOptions) -> (Session, Session, Arc<Server>) {
    let server = Arc::new(Server::new());
    let handler: Arc<dyn Handler> = server.clone();
    let w = Session::with_options(
        MachineArch::x86(),
        Box::new(Loopback::new(handler.clone())),
        opts.clone(),
    )
    .expect("writer");
    let r = Session::with_options(MachineArch::x86(), Box::new(Loopback::new(handler)), opts)
        .expect("reader");
    (w, r, server)
}

fn main() {
    splicing();
    isomorphic();
    no_diff_mode();
    prediction();
    diff_caching();
}

/// 1. Diff-run splicing on the paper's worst case: every other word.
fn splicing() {
    println!("# ablation 1 — diff-run splicing (ratio-2 pattern, {N_INTS} ints)");
    for (label, splice) in [("spliced", true), ("unspliced", false)] {
        let opts = SessionOptions {
            splice,
            ..Default::default()
        };
        let (mut w, _, _) = session_pair(opts);
        let h = w.open_segment("ab/splice").expect("open");
        w.wl_acquire(&h).expect("wl");
        let arr = w
            .malloc(&h, &TypeDesc::int32(), N_INTS, Some("arr"))
            .expect("m");
        w.wl_release(&h).expect("rel");

        w.wl_acquire(&h).expect("wl");
        let mut i = 0;
        while i < N_INTS {
            let c = w.index(&arr, i).expect("c");
            w.write_i32(&c, -1 - i as i32).expect("w");
            i += 2;
        }
        let ((diff, _, _), d) = time(|| w.collect_segment_diff(&h).expect("collect"));
        let runs: usize = diff.block_diffs.iter().map(|b| b.runs.len()).sum();
        println!(
            "  {label:<10} collect {} s, {} runs, {} B wire",
            secs(d),
            runs,
            diff.payload_len()
        );
        w.wl_release(&h).expect("rel");
    }
    println!();
}

/// 2. Isomorphic type descriptors: merged vs per-field layouts.
fn isomorphic() {
    println!("# ablation 2 — isomorphic type descriptors (struct of 32 ints × 8192)");
    let fields: Vec<(String, TypeDesc)> = (0..32)
        .map(|i| (format!("f{i}"), TypeDesc::int32()))
        .collect();
    let ty = TypeDesc::new(iw_types::desc::TypeKind::Struct {
        name: "int_struct".into(),
        fields: fields
            .into_iter()
            .map(|(name, ty)| iw_types::desc::Field { name, ty })
            .collect(),
    });
    let arr = TypeDesc::array(ty, 8192);
    let arch = MachineArch::x86();
    for (label, fl) in [
        ("merged", FlatLayout::new(&arr, &arch)),
        ("unmerged", FlatLayout::new_unoptimized(&arr, &arch)),
    ] {
        let runs = fl.runs().count();
        let (n, d) = time(|| {
            let mut n = 0u64;
            for _ in 0..8 {
                for r in fl.runs() {
                    n += u64::from(r.count);
                }
            }
            n
        });
        println!(
            "  {label:<10} {} run nodes, walk of {} prims ×8: {} s",
            runs,
            n / 8,
            secs(d)
        );
    }
    println!();
}

/// 3. No-diff mode adaptation under whole-segment overwrites.
fn no_diff_mode() {
    println!("# ablation 3 — no-diff mode (8 whole-array overwrites)");
    for (label, adapt) in [("adaptive", true), ("always-diff", false)] {
        let opts = SessionOptions {
            no_diff_adaptation: adapt,
            ..Default::default()
        };
        let (mut w, _, _) = session_pair(opts);
        let h = w.open_segment("ab/nodiff").expect("open");
        w.wl_acquire(&h).expect("wl");
        let arr = w
            .malloc(&h, &TypeDesc::int32(), N_INTS, Some("arr"))
            .expect("m");
        w.wl_release(&h).expect("rel");

        let mut total = std::time::Duration::ZERO;
        for round in 0..8u32 {
            w.wl_acquire(&h).expect("wl");
            let bytes: Vec<u8> = (0..N_INTS)
                .flat_map(|i| (i ^ round).to_le_bytes())
                .collect();
            w.write_bytes_raw(&arr, &bytes).expect("w");
            let (_, d) = time(|| w.wl_release(&h).expect("rel"));
            total += d;
        }
        let mode = {
            w.wl_acquire(&h).expect("wl");
            let m = w.tracking_mode(&h).expect("mode");
            w.wl_release(&h).expect("rel");
            m
        };
        println!(
            "  {label:<12} 8 releases in {} s, {} write faults (final mode: {})",
            secs(total),
            w.twin_faults(),
            match mode {
                TrackMode::Diff => "diff",
                TrackMode::NoDiff { .. } => "no-diff",
            }
        );
    }
    println!();
}

/// 4. Last-block prediction during diff application.
fn prediction() {
    println!("# ablation 4 — last-block prediction (512 small blocks, 8 update rounds)");
    for (label, pred) in [("predicted", true), ("tree-only", false)] {
        let opts = SessionOptions {
            prediction: pred,
            ..Default::default()
        };
        let (mut w, mut r, _) = session_pair(opts.clone());
        let h = w.open_segment("ab/pred").expect("open");
        w.wl_acquire(&h).expect("wl");
        let blocks: Vec<_> = (0..512)
            .map(|_| w.malloc(&h, &TypeDesc::int32(), 16, None).expect("m"))
            .collect();
        w.wl_release(&h).expect("rel");
        r.fetch_segment("ab/pred").expect("sync");
        let rh = r.open_segment("ab/pred").expect("open");

        let mut total = std::time::Duration::ZERO;
        for round in 0..8 {
            w.wl_acquire(&h).expect("wl");
            for b in &blocks {
                w.write_i32(b, round).expect("w");
            }
            let (diff, _, _) = w.collect_segment_diff(&h).expect("collect");
            w.wl_release(&h).expect("rel");
            let (_, d) = time(|| r.apply_segment_diff(&rh, &diff).expect("apply"));
            total += d;
        }
        let snap = r.metrics_snapshot();
        let count = |name| snap.counter(name).unwrap_or(0);
        println!(
            "  {label:<10} apply {} s, predictor {}/{} lookups",
            secs(total),
            count("client.apply.pred_hits_total"),
            count("client.apply.block_lookups_total")
        );
    }
    println!();
}

/// 5. Server diff caching.
fn diff_caching() {
    println!("# ablation 5 — server diff caching (1 MB array, 1% modified)");
    let (mut w, _, server) = session_pair(SessionOptions::default());
    let h = w.open_segment("ab/cache").expect("open");
    w.wl_acquire(&h).expect("wl");
    let arr = w
        .malloc(&h, &TypeDesc::int32(), N_INTS, Some("arr"))
        .expect("m");
    w.wl_release(&h).expect("rel");
    w.wl_acquire(&h).expect("wl");
    let mut i = 0;
    while i < N_INTS {
        let c = w.index(&arr, i).expect("c");
        w.write_i32(&c, 7).expect("w");
        i += 100;
    }
    w.wl_release(&h).expect("rel");

    let (warm, hits, cold) = server
        .with_segment_mut("ab/cache", |seg| {
            // Warm: the client's own diff is in the cache.
            let (_, warm) = time(|| seg.collect_update(1).expect("upd"));
            let hits = seg.cache_stats().hits;
            seg.clear_diff_cache();
            let (_, cold) = time(|| seg.collect_update(1).expect("upd"));
            (warm, hits, cold)
        })
        .expect("segment");
    println!(
        "  warm cache: {} s (hits {}), cold rebuild: {} s",
        secs(warm),
        hits,
        secs(cold)
    );
    println!();
}
