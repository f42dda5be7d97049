//! Property test: Diff coherence computed from per-version change sums
//! answers every reader the way per-reader counters did.
//!
//! A writer installs random diffs on one segment — changed runs of any
//! size, new blocks, frees and empty diffs — while several readers read
//! under random coherence models. A test-side model keeps the counter
//! §3.2 describes, one per reader: reset when an update is sent to that
//! reader under Diff coherence, and bumped by every install by the
//! install's coarse size (changed primitives, plus one per created
//! block). Wherever the model holds a counter that was reset at the
//! reader's current version, the server's `needs_update` must agree with
//! it. Where it holds none, the counter's answer was always "update";
//! the history's may differ, except at version 0. Every update served is
//! applied to the reader's copy, which must then equal the writer's.

use std::collections::BTreeMap;

use bytes::Bytes;
use iw_proto::Coherence;
use iw_server::segment::CHANGE_HISTORY;
use iw_server::{checkpoint, ServerSegment};
use iw_types::desc::TypeDesc;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};
use proptest::prelude::*;

const READERS: usize = 3;

/// Block contents by serial: one `i32` per primitive.
type Image = BTreeMap<u32, Vec<i32>>;

#[derive(Debug, Clone)]
enum Op {
    /// Runs `(block pick, start pick, length, value)`, an optional new
    /// block of that many ints, and an optional block pick to free.
    Write {
        runs: Vec<(u16, u16, u8, i32)>,
        create: Option<u8>,
        free: Option<u16>,
    },
    Read {
        reader: usize,
        coherence: Coherence,
    },
}

fn coherence() -> impl Strategy<Value = Coherence> {
    prop_oneof![
        1 => Just(Coherence::Full),
        1 => (0u32..4).prop_map(Coherence::Delta),
        1 => (0u64..100).prop_map(Coherence::Temporal),
        3 => (0u32..12_000).prop_map(Coherence::Diff),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let write = (
        prop::collection::vec((any::<u16>(), any::<u16>(), 1u8..24, any::<i32>()), 0..4),
        prop::option::of(1u8..40),
        prop::option::of(any::<u16>()),
    )
        .prop_map(|(runs, create, free)| Op::Write { runs, create, free });
    let read =
        (0..READERS, coherence()).prop_map(|(reader, coherence)| Op::Read { reader, coherence });
    prop_oneof![3 => write, 2 => read]
}

fn ints(vals: &[i32]) -> Bytes {
    Bytes::from(
        vals.iter()
            .flat_map(|v| v.to_be_bytes())
            .collect::<Vec<u8>>(),
    )
}

fn decode(data: &[u8]) -> Vec<i32> {
    data.chunks_exact(4)
        .map(|b| i32::from_be_bytes(b.try_into().expect("4B")))
        .collect()
}

/// Applies `diff` to `image`: new blocks, then runs in order, then frees.
fn apply(image: &mut Image, diff: &SegmentDiff) {
    for nb in &diff.new_blocks {
        image.insert(nb.serial, decode(&nb.data));
    }
    for bd in &diff.block_diffs {
        let block = image.get_mut(&bd.serial).expect("block the copy holds");
        for run in &bd.runs {
            let at = run.start as usize;
            block[at..at + run.count as usize].copy_from_slice(&decode(&run.data));
        }
    }
    for serial in &diff.freed {
        image.remove(serial);
    }
}

/// The writer's next diff from `op`'s picks, against its image `live`.
fn writer_diff(
    from: u64,
    live: &Image,
    next_serial: &mut u32,
    runs: &[(u16, u16, u8, i32)],
    create: Option<u8>,
    free: Option<u16>,
) -> SegmentDiff {
    let serials: Vec<u32> = live.keys().copied().collect();
    let mut block_runs: BTreeMap<u32, Vec<DiffRun>> = BTreeMap::new();
    for &(bpick, spick, len, val) in runs {
        let serial = serials[usize::from(bpick) % serials.len()];
        let prims = live[&serial].len() as u64;
        let start = u64::from(spick) % prims;
        let count = u64::from(len).min(prims - start);
        let vals: Vec<i32> = (0..count).map(|k| val.wrapping_add(k as i32)).collect();
        block_runs.entry(serial).or_default().push(DiffRun {
            start,
            count,
            data: ints(&vals),
        });
    }
    let new_blocks = create
        .map(|count| {
            let serial = *next_serial;
            *next_serial += 1;
            let vals: Vec<i32> = (0..i32::from(count))
                .map(|k| k * 3 + serial as i32)
                .collect();
            NewBlock {
                serial,
                name: None,
                type_serial: 0,
                count: u32::from(count),
                data: ints(&vals),
            }
        })
        .into_iter()
        .collect();
    // Keep at least one block alive so later runs have a target.
    let freed = free
        .filter(|_| serials.len() > 1)
        .map(|pick| serials[usize::from(pick) % serials.len()])
        .into_iter()
        .collect();
    SegmentDiff {
        from_version: from,
        to_version: from + 1,
        new_blocks,
        block_diffs: block_runs
            .into_iter()
            .map(|(serial, runs)| BlockDiff { serial, runs })
            .collect(),
        freed,
        ..Default::default()
    }
}

/// A fresh segment holding one block of `count` zero ints, at version 1.
fn seeded(count: u32) -> (ServerSegment, SegmentDiff) {
    let mut seg = ServerSegment::new("p/coherence");
    let seed = SegmentDiff {
        from_version: 0,
        to_version: 1,
        new_types: vec![(0, TypeDesc::int32())],
        new_blocks: vec![NewBlock {
            serial: 0,
            name: None,
            type_serial: 0,
            count,
            data: ints(&vec![0; count as usize]),
        }],
        ..Default::default()
    };
    seg.apply_diff(&seed).unwrap();
    (seg, seed)
}

/// One reader: its copy, the version it holds, and the model's counter
/// `(version it was reset at, primitives changed since)`.
#[derive(Debug, Default)]
struct Reader {
    have: u64,
    copy: Image,
    counter: Option<(u64, u64)>,
}

/// The per-reader counter's answer (the rule before change sums).
fn counter_answer(r: &Reader, version: u64, total: u64, coherence: Coherence) -> bool {
    if r.have >= version {
        return false;
    }
    match coherence {
        Coherence::Full | Coherence::Temporal(_) => true,
        Coherence::Delta(x) => version - r.have > u64::from(x),
        Coherence::Diff(bp) => match r.counter {
            Some((_, counter)) if total > 0 => counter * 10_000 > u64::from(bp) * total,
            _ => true,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn change_sums_answer_like_per_reader_counters(
        ops in prop::collection::vec(op(), 1..60),
    ) {
        let (mut seg, seed) = seeded(64);
        let mut writer = Image::new();
        apply(&mut writer, &seed);
        let mut next_serial = 1;
        let mut readers: Vec<Reader> = (0..READERS).map(|_| Reader::default()).collect();

        for op in &ops {
            match op {
                Op::Write { runs, create, free } => {
                    let d = writer_diff(seg.version(), &writer, &mut next_serial, runs, *create, *free);
                    let changed = d.block_diffs.iter().flat_map(|bd| &bd.runs).map(|r| r.count).sum::<u64>()
                        + d.new_blocks.len() as u64;
                    seg.apply_diff(&d).unwrap();
                    apply(&mut writer, &d);
                    for r in &mut readers {
                        if let Some((_, counter)) = &mut r.counter {
                            *counter += changed;
                        }
                    }
                }
                Op::Read { reader, coherence } => {
                    let total: u64 = writer.values().map(|b| b.len() as u64).sum();
                    prop_assert_eq!(seg.total_prims(), total);
                    let r = &mut readers[*reader];
                    let got = seg.needs_update(r.have, *coherence);
                    let want = counter_answer(r, seg.version(), total, *coherence);
                    let counted = r.counter.is_some_and(|(at, _)| at == r.have);
                    if counted || !matches!(coherence, Coherence::Diff(_)) {
                        prop_assert_eq!(got, want, "have {} at v{}, {:?}, {:?}", r.have, seg.version(), coherence, r.counter);
                    } else if r.have == 0 {
                        prop_assert!(got, "a reader at version 0 gets an update");
                    }
                    if got {
                        let upd = seg.collect_update(r.have).unwrap();
                        prop_assert_eq!((upd.from_version, upd.to_version), (r.have, seg.version()));
                        apply(&mut r.copy, &upd);
                        prop_assert_eq!(&r.copy, &writer);
                        r.have = seg.version();
                        if matches!(coherence, Coherence::Diff(_)) {
                            r.counter = Some((r.have, 0));
                        }
                    }
                }
            }
        }
    }
}

/// A Diff reader the change history no longer reaches, or at version 0,
/// gets an update; an image restore starts the history at its version.
#[test]
fn diff_reader_below_the_history_gets_an_update() {
    let (mut seg, _) = seeded(160);
    let empty = |v: u64| SegmentDiff {
        from_version: v,
        to_version: v + 1,
        ..Default::default()
    };
    let last = CHANGE_HISTORY as u64;
    for v in 1..=last {
        seg.apply_diff(&empty(v)).unwrap();
    }
    // Now at `last + 1`, with nothing changed since v1; the history's
    // base is v2.
    assert!(!seg.needs_update(2, Coherence::Diff(0)));
    assert!(seg.needs_update(1, Coherence::Diff(10_000)));
    assert!(seg.needs_update(0, Coherence::Diff(10_000)));

    let image = checkpoint::encode_segment(&seg).unwrap();
    let mut back = checkpoint::decode_segment(image).unwrap();
    assert!(back.needs_update(last, Coherence::Diff(10_000)));
    back.apply_diff(&empty(last + 1)).unwrap();
    assert!(!back.needs_update(last + 1, Coherence::Diff(0)));
    assert!(back.needs_update(last, Coherence::Diff(10_000)));
}
