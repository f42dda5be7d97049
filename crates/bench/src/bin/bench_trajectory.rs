//! Trajectory benchmark for the translation hot path: measures Figure 4
//! collect/apply and the layout-identity dimension (fused vs unfused copy
//! programs), and emits `BENCH_9.json`.
//!
//! Two measurements per mix:
//!
//! - **translation** (on x86, little-endian, so every multi-byte field is
//!   swapped): `collect_segment_diff` and `apply_segment_diff`, each as
//!   seconds and as a ratio to a hot `memcpy` of the same local image
//!   taken in the same run;
//! - **layout identity** (on big-endian sparc_v9, where packed
//!   pointer-free mixes compile to one copy): the same pair with the
//!   fused programs (`iso_fast_path` on) vs the unfused ones (off), plus
//!   a raw `memcpy` bandwidth reference over the same image size.
//!
//! A third dimension measures the wire itself: every mix's full-dirty
//! diff encoded as v2 (varint/delta) and v2 with adaptive LZ
//! compression — bytes on the wire plus encode/decode wall time — next
//! to its fixed-width size (`encoded_len_hint`, the `v1_bytes` column),
//! and emits `BENCH_10.json`. Bytes are deterministic (same diff → same
//! encoding), so the byte gate is far tighter than any timing gate.
//!
//! The JSON doubles as a CI regression gate. Pass `--baseline <path>` to
//! hold every mix's collect and apply ratio (to the hot `memcpy` of its
//! image, both from this run, so the host's speed cancels) under the
//! `<mix>.<phase>_limit` the committed `BENCH_9.json` carries; pass
//! `--wire-baseline <path>` to require the v2/v2+lz byte totals to equal
//! a committed `BENCH_10.json` exactly.
//!
//! Usage:
//! ```console
//! cargo run --release -p iw-bench --bin bench_trajectory -- \
//!   [scale] [--out BENCH_9.json] [--wire-out BENCH_10.json] \
//!   [--baseline path] [--wire-baseline path]
//! ```

use std::io::Write as _;

use iw_bench::{dirty_all, figure4_workloads, setup_with_options, time, Workload};
use iw_core::{Session, SessionOptions, TrackMode};
use iw_proto::Loopback;
use iw_types::{FlatLayout, MachineArch};
use iw_wire::codec::WireReader;
use iw_wire::diff::{DiffWire, SegmentDiff};

/// Dirty rounds per measurement.
const ITERS: u32 = 3;

/// Timed collects and applies per dirty round: both leave the state they
/// read as it was, so repeating them costs no re-dirtying and their
/// best-of shrinks the scheduler's noise.
const REPEATS: u32 = 10;

struct Row {
    name: &'static str,
    /// Best-of collect/apply seconds.
    collect: f64,
    apply: f64,
    /// Local image bytes and the best-of hot `memcpy` seconds over them.
    bytes: usize,
    memcpy_hot_secs: f64,
}

impl Row {
    /// Collect and apply seconds over the same run's hot `memcpy` of the
    /// image: the gated, host-independent figures.
    fn ratios(&self) -> [f64; 2] {
        let m = self.memcpy_hot_secs.max(1e-9);
        [self.collect / m, self.apply / m]
    }
}

/// Best-of-`ITERS × REPEATS` collect, apply and hot-`memcpy` seconds
/// for one workload under the given architecture and session options.
/// A `memcpy` of an image-sized buffer runs beside every collect and
/// apply, so the gated ratios compare samples of the same moments of a
/// noisy host.
fn measure_cfg(w: &Workload, arch: &MachineArch, o: SessionOptions) -> [f64; 3] {
    let mut bed = setup_with_options(w, arch.clone(), o.clone());
    let mut reader =
        Session::with_options(arch.clone(), Box::new(Loopback::new(bed.server.clone())), o)
            .expect("reader");
    reader.fetch_segment("bench/data").expect("sync");
    let rh = reader.open_segment("bench/data").expect("open");
    let bytes = iw_types::layout::layout_of(&w.ty, arch).size as usize * w.count as usize;
    let (src, mut dst) = (vec![0xA5u8; bytes.max(1)], vec![0u8; bytes.max(1)]);
    let mut memcpy = || {
        time(|| {
            dst.copy_from_slice(&src);
            std::hint::black_box(&mut dst);
        })
        .1
    };

    bed.session.wl_acquire(&bed.handle).expect("wl");
    bed.session
        .set_tracking_mode(&bed.handle, TrackMode::Diff)
        .expect("mode");
    let block = bed.block.clone();
    let mut best = [f64::MAX; 3];
    for round in 1..=ITERS {
        dirty_all(&mut bed.session, &block, w, round);
        for _ in 0..REPEATS {
            let ((diff, _, _), d_collect) = time(|| {
                bed.session
                    .collect_segment_diff(&bed.handle)
                    .expect("collect")
            });
            let d_memcpy = memcpy().min(memcpy());
            let (_, d_apply) = time(|| reader.apply_segment_diff(&rh, &diff).expect("apply"));
            for (b, d) in best.iter_mut().zip([d_collect, d_apply, d_memcpy]) {
                *b = b.min(d.as_secs_f64());
            }
        }
    }
    bed.session.wl_release(&bed.handle).expect("release");
    best
}

/// Best-of-`ITERS × REPEATS` seconds to memcpy a buffer of the
/// workload's local image size — the floor any translation scheme can
/// aspire to. Returns
/// `(hot, cold)` seconds: hot reuses a warmed destination (pure copy
/// bandwidth), cold allocates a fresh destination per copy (first-touch
/// page faults included — what applying a network payload into newly
/// mapped segment memory actually pays).
fn measure_memcpy(bytes: usize) -> (f64, f64) {
    let src = vec![0xA5u8; bytes.max(1)];
    let mut dst = vec![0u8; bytes.max(1)];
    let (mut hot, mut cold) = (f64::MAX, f64::MAX);
    for _ in 0..ITERS * REPEATS {
        let (_, d) = time(|| {
            dst.copy_from_slice(&src);
            std::hint::black_box(&mut dst);
        });
        hot = hot.min(d.as_secs_f64());
        let (_, d) = time(|| {
            let mut fresh = vec![0u8; bytes.max(1)];
            fresh.copy_from_slice(&src);
            std::hint::black_box(&mut fresh);
        });
        cold = cold.min(d.as_secs_f64());
    }
    (hot, cold)
}

struct IsoRow {
    name: &'static str,
    eligible: bool,
    /// Best-of collect/apply seconds with the fused and the unfused programs.
    collect: [f64; 2],
    apply: [f64; 2],
    /// Local image bytes and the raw memcpy floors over them.
    bytes: usize,
    memcpy_hot_secs: f64,
    memcpy_cold_secs: f64,
}

/// Per-mix wire measurements: bytes (fixed-width, v2, v2+lz, in that
/// order) and best-of encode/decode seconds for v2 and v2+lz.
struct WireRow {
    name: &'static str,
    bytes: [usize; 3],
    enc_secs: [f64; 2],
    dec_secs: [f64; 2],
}

const WIRE_FORMATS: [DiffWire; 2] = [
    DiffWire::V2 { compress: false },
    DiffWire::V2 { compress: true },
];

/// Collects one full-dirty diff for the workload and measures each wire
/// revision over it. The diff's encode cache stays unarmed, so every
/// `encode_as` really encodes (no serve-many shortcut in the timing).
fn measure_wire(w: &Workload) -> WireRow {
    let mut bed = setup_with_options(w, MachineArch::x86(), SessionOptions::default());
    bed.session.wl_acquire(&bed.handle).expect("wl");
    bed.session
        .set_tracking_mode(&bed.handle, TrackMode::Diff)
        .expect("mode");
    let block = bed.block.clone();
    dirty_all(&mut bed.session, &block, w, 1);
    let (diff, _, _) = bed
        .session
        .collect_segment_diff(&bed.handle)
        .expect("collect");
    bed.session.wl_release(&bed.handle).expect("release");
    measure_formats(w.name, &diff)
}

/// The steady-state traffic shape the full-dirty mixes can't show: many
/// tiny runs, where a fixed-width 20-byte run header would dominate the 4-byte
/// payloads and the v2 delta-varint header is the whole win.
fn measure_wire_sparse(scale: f64) -> WireRow {
    let runs = ((1024.0 * scale) as u64).max(16);
    let mut block_runs = Vec::with_capacity(runs as usize);
    for i in 0..runs {
        block_runs.push(iw_wire::diff::DiffRun {
            start: i * 16,
            count: 1,
            data: bytes::Bytes::from((i as i32).to_be_bytes().to_vec()),
        });
    }
    let diff = SegmentDiff {
        from_version: 7,
        to_version: 8,
        block_diffs: vec![iw_wire::diff::BlockDiff {
            serial: 0,
            runs: block_runs,
        }],
        ..Default::default()
    };
    measure_formats("sparse_stride", &diff)
}

fn measure_formats(name: &'static str, diff: &SegmentDiff) -> WireRow {
    let mut row = WireRow {
        name,
        bytes: [diff.encoded_len_hint(), 0, 0],
        enc_secs: [f64::MAX; 2],
        dec_secs: [f64::MAX; 2],
    };
    for (slot, fmt) in WIRE_FORMATS.iter().enumerate() {
        let mut encoded = diff.encode_as(*fmt);
        row.bytes[slot + 1] = encoded.len();
        for _ in 0..ITERS {
            let (enc, d_enc) = time(|| std::hint::black_box(diff.encode_as(*fmt)));
            encoded = enc;
            let (decoded, d_dec) = time(|| {
                let mut r = WireReader::new(encoded.clone());
                SegmentDiff::decode(&mut r).expect("decode")
            });
            assert_eq!(&decoded, diff, "{fmt:?} must decode losslessly");
            row.enc_secs[slot] = row.enc_secs[slot].min(d_enc.as_secs_f64());
            row.dec_secs[slot] = row.dec_secs[slot].min(d_dec.as_secs_f64());
        }
    }
    row
}

/// Extracts the number following `"key":` in a hand-rolled JSON document.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let tail = doc[at..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut out_path = String::from("BENCH_9.json");
    let mut wire_out_path = String::from("BENCH_10.json");
    let mut baseline: Option<String> = None;
    let mut wire_baseline: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args[i + 1].clone();
                i += 2;
            }
            "--wire-out" => {
                wire_out_path = args[i + 1].clone();
                i += 2;
            }
            "--baseline" => {
                baseline = Some(args[i + 1].clone());
                i += 2;
            }
            "--wire-baseline" => {
                wire_baseline = Some(args[i + 1].clone());
                i += 2;
            }
            s => {
                scale = s.parse().expect("scale");
                i += 1;
            }
        }
    }

    println!("# BENCH_9 — translation trajectory (scale {scale})");
    println!(
        "{:<14} {:>10} {:>10} {:>11} {:>8} {:>8}",
        "workload", "collect", "apply", "memcpy_hot", "c/mcpy", "a/mcpy"
    );

    let x86 = MachineArch::x86();
    let mut rows: Vec<Row> = Vec::new();
    for w in figure4_workloads(scale) {
        let [collect, apply, memcpy_hot_secs] = measure_cfg(&w, &x86, SessionOptions::default());
        let row = Row {
            name: w.name,
            collect,
            apply,
            bytes: iw_types::layout::layout_of(&w.ty, &x86).size as usize * w.count as usize,
            memcpy_hot_secs,
        };
        let [c, a] = row.ratios();
        println!(
            "{:<14} {:>10.4} {:>10.4} {:>11.6} {:>8.1} {:>8.1}",
            w.name, collect, apply, row.memcpy_hot_secs, c, a
        );
        rows.push(row);
    }
    let total: f64 = rows.iter().map(|r| r.collect + r.apply).sum();
    println!("\n# total (collect+apply, nine mixes): {total:.4}s");

    // Layout-identity dimension: the same mixes on a big-endian machine,
    // fused vs unfused programs, against a raw memcpy floor.
    let be = MachineArch::sparc_v9();
    println!(
        "\n# layout identity on {} (fused vs unfused programs)",
        be.name
    );
    println!(
        "{:<14} {:>4} {:>11} {:>11} {:>10} {:>10} {:>8} {:>11} {:>11}",
        "workload",
        "iso",
        "collect_iso",
        "collect_wlk",
        "apply_iso",
        "apply_wlk",
        "c_spdup",
        "iso_bw_mbs",
        "mcpy_bw_mbs"
    );
    let mut iso_rows: Vec<IsoRow> = Vec::new();
    for w in figure4_workloads(scale) {
        let eligible = FlatLayout::new(&w.ty, &be).wire_identity().is_iso();
        let bytes = iw_types::layout::layout_of(&w.ty, &be).size as usize * w.count as usize;
        let [c_iso, a_iso, _] = measure_cfg(
            &w,
            &be,
            SessionOptions {
                iso_fast_path: true,
                ..SessionOptions::default()
            },
        );
        let [c_walk, a_walk, _] = measure_cfg(
            &w,
            &be,
            SessionOptions {
                iso_fast_path: false,
                ..SessionOptions::default()
            },
        );
        let (memcpy_hot_secs, memcpy_cold_secs) = measure_memcpy(bytes);
        let mb = bytes as f64 / 1e6;
        println!(
            "{:<14} {:>4} {:>11.4} {:>11.4} {:>10.4} {:>10.4} {:>7.2}x {:>11.1} {:>11.1}",
            w.name,
            if eligible { "yes" } else { "no" },
            c_iso,
            c_walk,
            a_iso,
            a_walk,
            c_walk / c_iso.max(1e-9),
            mb / c_iso.max(1e-9),
            mb / memcpy_hot_secs.max(1e-9),
        );
        iso_rows.push(IsoRow {
            name: w.name,
            eligible,
            collect: [c_iso, c_walk],
            apply: [a_iso, a_walk],
            bytes,
            memcpy_hot_secs,
            memcpy_cold_secs,
        });
    }
    let total_iso: f64 = iso_rows
        .iter()
        .filter(|r| r.eligible)
        .map(|r| r.collect[0] + r.apply[0])
        .sum();
    let total_walk: f64 = iso_rows
        .iter()
        .filter(|r| r.eligible)
        .map(|r| r.collect[1] + r.apply[1])
        .sum();
    println!(
        "# iso-eligible totals (collect+apply): fused {total_iso:.4}s, unfused {total_walk:.4}s ({:.2}x)",
        total_walk / total_iso.max(1e-9)
    );

    // Wire dimension: per-mix fixed-width and encoded bytes, and
    // encode/decode time for each codec choice.
    println!("\n# wire revisions (full-dirty diff per mix)");
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "workload",
        "fixed_B",
        "v2_B",
        "v2lz_B",
        "v2_sav",
        "lz_sav",
        "enc_v2_us",
        "enc_lz_us",
        "dec_v2_us",
        "dec_lz_us"
    );
    let mut wire_rows: Vec<WireRow> = Vec::new();
    for w in figure4_workloads(scale) {
        let r = measure_wire(&w);
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>6.1}% {:>6.1}% {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            r.name,
            r.bytes[0],
            r.bytes[1],
            r.bytes[2],
            100.0 * (1.0 - r.bytes[1] as f64 / r.bytes[0].max(1) as f64),
            100.0 * (1.0 - r.bytes[2] as f64 / r.bytes[0].max(1) as f64),
            r.enc_secs[0] * 1e6,
            r.enc_secs[1] * 1e6,
            r.dec_secs[0] * 1e6,
            r.dec_secs[1] * 1e6,
        );
        wire_rows.push(r);
    }
    {
        let r = measure_wire_sparse(scale);
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>6.1}% {:>6.1}% {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            r.name,
            r.bytes[0],
            r.bytes[1],
            r.bytes[2],
            100.0 * (1.0 - r.bytes[1] as f64 / r.bytes[0].max(1) as f64),
            100.0 * (1.0 - r.bytes[2] as f64 / r.bytes[0].max(1) as f64),
            r.enc_secs[0] * 1e6,
            r.enc_secs[1] * 1e6,
            r.dec_secs[0] * 1e6,
            r.dec_secs[1] * 1e6,
        );
        wire_rows.push(r);
    }
    let wire_total = |slot: usize| wire_rows.iter().map(|r| r.bytes[slot]).sum::<usize>();
    let (total_v1_b, total_v2_b, total_v2lz_b) = (wire_total(0), wire_total(1), wire_total(2));
    println!(
        "# wire totals: fixed-width {} B, v2 {} B (-{:.1}%), v2+lz {} B (-{:.1}%)",
        total_v1_b,
        total_v2_b,
        100.0 * (1.0 - total_v2_b as f64 / total_v1_b.max(1) as f64),
        total_v2lz_b,
        100.0 * (1.0 - total_v2lz_b as f64 / total_v1_b.max(1) as f64),
    );

    // Hand-rolled JSON (no serde in the tree).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!(
        "  \"bench\": \"BENCH_9\",\n  \"scale\": {scale},\n  \"total_secs\": {total:.6},\n"
    ));
    j.push_str(&format!(
        "  \"total_iso_secs\": {total_iso:.6},\n  \"total_walk_secs\": {total_walk:.6},\n  \"workloads\": [\n"
    ));
    for (k, r) in rows.iter().enumerate() {
        let [c, a] = r.ratios();
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"collect\": {:.6}, \"apply\": {:.6}, \"image_bytes\": {}, \"memcpy_hot\": {:.6}, \"collect_ratio\": {:.2}, \"apply_ratio\": {:.2}}}{}\n",
            r.name,
            r.collect,
            r.apply,
            r.bytes,
            r.memcpy_hot_secs,
            c,
            a,
            if k + 1 < rows.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n  \"iso\": [\n");
    for (k, r) in iso_rows.iter().enumerate() {
        let mb = r.bytes as f64 / 1e6;
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"eligible\": {}, \"collect_iso\": {:.6}, \"collect_walk\": {:.6}, \"apply_iso\": {:.6}, \"apply_walk\": {:.6}, \"collect_speedup\": {:.4}, \"image_bytes\": {}, \"iso_apply_mb_per_s\": {:.1}, \"iso_collect_mb_per_s\": {:.1}, \"memcpy_hot_mb_per_s\": {:.1}, \"memcpy_cold_mb_per_s\": {:.1}}}{}\n",
            r.name,
            r.eligible,
            r.collect[0],
            r.collect[1],
            r.apply[0],
            r.apply[1],
            r.collect[1] / r.collect[0].max(1e-9),
            r.bytes,
            mb / r.apply[0].max(1e-9),
            mb / r.collect[0].max(1e-9),
            mb / r.memcpy_hot_secs.max(1e-9),
            mb / r.memcpy_cold_secs.max(1e-9),
            if k + 1 < iso_rows.len() { "," } else { "" }
        ));
    }
    j.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(&out_path).expect("create output");
    f.write_all(j.as_bytes()).expect("write output");
    println!("# wrote {out_path}");

    // The wire dimension's own JSON (BENCH_10): byte totals are exact,
    // so a committed baseline catches any encoding regression at all.
    let mut jw = String::new();
    jw.push_str("{\n");
    jw.push_str(&format!(
        "  \"bench\": \"BENCH_10\",\n  \"scale\": {scale},\n"
    ));
    jw.push_str(&format!(
        "  \"total_v1_bytes\": {total_v1_b},\n  \"total_v2_bytes\": {total_v2_b},\n  \"total_v2lz_bytes\": {total_v2lz_b},\n"
    ));
    jw.push_str(&format!(
        "  \"v2_reduction_pct\": {:.2},\n  \"v2lz_reduction_pct\": {:.2},\n  \"mixes\": [\n",
        100.0 * (1.0 - total_v2_b as f64 / total_v1_b.max(1) as f64),
        100.0 * (1.0 - total_v2lz_b as f64 / total_v1_b.max(1) as f64),
    ));
    for (k, r) in wire_rows.iter().enumerate() {
        jw.push_str(&format!(
            "    {{\"name\": \"{}\", \"v1_bytes\": {}, \"v2_bytes\": {}, \"v2lz_bytes\": {}, \"enc_v2_us\": {:.1}, \"enc_v2lz_us\": {:.1}, \"dec_v2_us\": {:.1}, \"dec_v2lz_us\": {:.1}}}{}\n",
            r.name,
            r.bytes[0],
            r.bytes[1],
            r.bytes[2],
            r.enc_secs[0] * 1e6,
            r.enc_secs[1] * 1e6,
            r.dec_secs[0] * 1e6,
            r.dec_secs[1] * 1e6,
            if k + 1 < wire_rows.len() { "," } else { "" }
        ));
    }
    jw.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(&wire_out_path).expect("create wire output");
    f.write_all(jw.as_bytes()).expect("write wire output");
    println!("# wrote {wire_out_path}");

    // Ratio gate against a committed baseline: every mix's collect and
    // apply, over the hot memcpy of its image in this same run, must stay
    // under the limit the baseline derived from a ten-run spread.
    if let Some(path) = baseline {
        let doc = std::fs::read_to_string(&path).expect("read baseline");
        let mut failed = false;
        for r in &rows {
            for (phase, ratio) in ["collect", "apply"].into_iter().zip(r.ratios()) {
                let key = format!("{}.{phase}_limit", r.name);
                let Some(limit) = json_number(&doc, &key) else {
                    println!("# baseline lacks {key}; skipping that gate");
                    continue;
                };
                println!("# {key}: ratio {ratio:.1}, limit {limit:.1}");
                if ratio > limit {
                    eprintln!(
                        "BENCH REGRESSION: {} {phase} is {ratio:.1}x a memcpy of its image, \
                         over the limit {limit:.1}x",
                        r.name
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("# bench-smoke: every ratio within its limit");
    }

    // Byte gate against a committed BENCH_10: encodings are
    // deterministic, so any change at all means the wire format (or the
    // diff collector) changed, not the machine. A deliberate change
    // re-commits BENCH_10.json.
    if let Some(path) = wire_baseline {
        let doc = std::fs::read_to_string(&path).expect("read wire baseline");
        let mut failed = false;
        let mut gate = |key: &str, current: usize| {
            let Some(base) = json_number(&doc, key) else {
                println!("# wire baseline lacks {key}; skipping that gate");
                return;
            };
            println!("# wire baseline {key} {base:.0} B, current {current} B");
            if current != base as usize {
                eprintln!(
                    "BENCH CHANGE: {key} {current} B differs from the committed baseline \
                     {base:.0} B (re-commit BENCH_10.json if the change is intended)"
                );
                failed = true;
            }
        };
        gate("total_v2_bytes", total_v2_b);
        gate("total_v2lz_bytes", total_v2lz_b);
        if failed {
            std::process::exit(1);
        }
        println!("# wire gate: totals equal the baseline");
    }
}
