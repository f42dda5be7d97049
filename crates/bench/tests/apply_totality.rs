//! Apply is total: for every Figure 4 mix, a hostile run payload gives a
//! typed error, never a panic, and leaves the reader's cached image and
//! version exactly as they were. Three hostile forms, each on a little-
//! and a big-endian reader:
//!
//! - the payload truncated at every offset;
//! - bit flips and length-prefix bombs in its pointer and string fields
//!   (and one stray trailing byte);
//! - a `count` that overruns the block, alone or after a valid run.
//!
//! The untouched diff then applies cleanly (the positive control).

use bytes::Bytes;
use iw_bench::{dirty_all, figure4_workloads, setup};
use iw_core::{CoreError, SegHandle, Session};
use iw_proto::Loopback;
use iw_types::desc::PrimKind;
use iw_types::MachineArch;
use iw_wire::diff::{DiffRun, SegmentDiff};

/// About 2 KiB per mix on x86: every truncation offset stays cheap.
const SCALE: f64 = 0.002;

struct Case {
    reader: Session,
    rh: SegHandle,
    diff: SegmentDiff,
    /// Index in `diff.block_diffs` of the workload block.
    block: usize,
    /// Primitives in the workload block.
    prims: u64,
    /// `(kind, offset of its length prefix, item length)` of every
    /// pointer and string field in the block's first run payload.
    fields: Vec<(PrimKind, usize, usize)>,
}

/// An x86 writer dirties every element of the mix and collects its diff
/// without releasing it, so the reader stays one version behind it.
fn case(name: &str, reader_arch: &MachineArch) -> Case {
    let w = figure4_workloads(SCALE)
        .into_iter()
        .find(|w| w.name == name)
        .expect("a Figure 4 mix");
    let mut bed = setup(&w, MachineArch::x86());
    let mut reader = Session::new(
        reader_arch.clone(),
        Box::new(Loopback::new(bed.server.clone())),
    )
    .unwrap();
    reader.fetch_segment("bench/data").unwrap();
    let rh = reader.open_segment("bench/data").unwrap();
    bed.session.wl_acquire(&bed.handle).unwrap();
    dirty_all(&mut bed.session, &bed.block.clone(), &w, 1);
    let (diff, ..) = bed.session.collect_segment_diff(&bed.handle).unwrap();
    let (_, meta) = bed.session.heap().block_at(bed.block.va()).unwrap();
    let block = diff
        .block_diffs
        .iter()
        .position(|b| b.serial == meta.serial)
        .expect("the dirtied block is in the diff");
    let run = &diff.block_diffs[block].runs[0];
    let mut fields = Vec::new();
    let mut at = 0usize;
    for p in meta.flat.seek_prim(run.start).take(run.count as usize) {
        match p.kind.wire_size() {
            Some(n) => at += n as usize,
            None => {
                let n = u32::from_be_bytes(run.data[at..at + 4].try_into().unwrap()) as usize;
                fields.push((p.kind, at, n));
                at += 4 + n;
            }
        }
    }
    assert_eq!(at, run.data.len(), "{name}: the walk consumed the payload");
    Case {
        reader,
        rh,
        diff,
        block,
        prims: meta.prim_count(),
        fields,
    }
}

/// Every block image of the reader's cached segment, and its version.
fn image(c: &Case) -> (u64, Vec<Vec<u8>>) {
    let heap = c.reader.heap();
    let seg = heap.segment(heap.segment_id("bench/data").unwrap());
    let blocks = seg
        .blocks()
        .map(|b| heap.read_bytes(b.va, b.size() as usize).unwrap().to_vec())
        .collect();
    (c.reader.segment_version(&c.rh).unwrap(), blocks)
}

/// Applies the diff with its block's runs replaced by `runs` and
/// asserts a typed error and an untouched cache.
fn reject(c: &mut Case, what: &str, runs: Vec<DiffRun>) {
    let mut diff = c.diff.clone();
    diff.block_diffs[c.block].runs = runs;
    let before = image(c);
    match c.reader.apply_segment_diff(&c.rh, &diff) {
        Err(CoreError::Wire(_) | CoreError::Server(_)) => {}
        other => panic!("{what}: expected a typed wire or server error, got {other:?}"),
    }
    assert!(image(c) == before, "{what}: the cached image changed");
}

/// The first run with its payload replaced.
fn with_data(c: &Case, data: Vec<u8>) -> Vec<DiffRun> {
    let mut runs = c.diff.block_diffs[c.block].runs.clone();
    runs[0].data = Bytes::from(data);
    runs
}

fn readers() -> [MachineArch; 2] {
    [MachineArch::x86(), MachineArch::sparc_v9()]
}

fn mixes() -> Vec<&'static str> {
    figure4_workloads(SCALE).iter().map(|w| w.name).collect()
}

#[test]
fn truncated_payloads_are_rejected_at_every_offset() {
    for name in mixes() {
        for arch in readers() {
            let mut c = case(name, &arch);
            let data = c.diff.block_diffs[c.block].runs[0].data.clone();
            for cut in 0..data.len() {
                let runs = with_data(&c, data[..cut].to_vec());
                reject(
                    &mut c,
                    &format!("{name} on {}: cut at {cut}", arch.name),
                    runs,
                );
            }
            c.reader.apply_segment_diff(&c.rh, &c.diff.clone()).unwrap();
        }
    }
}

#[test]
fn bombs_and_flips_in_pointer_and_string_fields_are_rejected() {
    for name in mixes() {
        for arch in readers() {
            let mut c = case(name, &arch);
            let data = c.diff.block_diffs[c.block].runs[0].data.to_vec();
            let mut trailing = data.clone();
            trailing.push(0);
            let runs = with_data(&c, trailing);
            reject(&mut c, &format!("{name}: trailing byte"), runs);
            // A spread of at most eight fields per mix keeps the test fast.
            let step = c.fields.len().div_ceil(8).max(1);
            for &(kind, at, n) in c.fields.clone().iter().step_by(step) {
                let what = |how: &str| format!("{name} on {}: {how} at {at} ({kind:?})", arch.name);
                let remaining = data.len() - at - 4;
                let mut bombs = vec![u32::MAX, 64 << 20, (remaining + 1) as u32];
                if let PrimKind::Str { cap } = kind {
                    bombs.push(cap);
                }
                for bomb in bombs {
                    let mut d = data.clone();
                    d[at..at + 4].copy_from_slice(&bomb.to_be_bytes());
                    let runs = with_data(&c, d);
                    reject(&mut c, &what(&format!("length {bomb}")), runs);
                }
                for bit in [16, 24, 31] {
                    let mut d = data.clone();
                    d[at..at + 4].copy_from_slice(&((n as u32) ^ (1 << bit)).to_be_bytes());
                    let runs = with_data(&c, d);
                    reject(&mut c, &what(&format!("length bit {bit}")), runs);
                }
                if kind == PrimKind::Ptr {
                    // Any MIP byte with its top bit set is not UTF-8.
                    for k in 0..n {
                        let mut d = data.clone();
                        d[at + 4 + k] ^= 0x80;
                        let runs = with_data(&c, d);
                        reject(&mut c, &what(&format!("MIP byte {k} flipped")), runs);
                    }
                }
            }
            c.reader.apply_segment_diff(&c.rh, &c.diff.clone()).unwrap();
        }
    }
}

#[test]
fn counts_that_overrun_the_block_are_rejected() {
    for name in mixes() {
        for arch in readers() {
            let mut c = case(name, &arch);
            let good = c.diff.block_diffs[c.block].runs.clone();
            let first = good[0].clone();
            let overruns = [
                (first.start, c.prims - first.start + 1),
                (first.start, u64::MAX),
                (c.prims, 1),
                (u64::MAX, 2),
            ];
            for (start, count) in overruns {
                let bad = DiffRun {
                    start,
                    count,
                    data: first.data.clone(),
                };
                let what = format!("{name} on {}: run {start}+{count}", arch.name);
                reject(&mut c, &what, vec![bad.clone()]);
                // After a valid run, which must not be installed either.
                let mut runs = good.clone();
                runs.push(bad);
                reject(&mut c, &format!("{what} after the valid runs"), runs);
            }
            c.reader.apply_segment_diff(&c.rh, &c.diff.clone()).unwrap();
        }
    }
}
