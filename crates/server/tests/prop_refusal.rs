//! Property test: a refused diff changes nothing.
//!
//! A random valid diff (new types, new blocks with strings and pointers,
//! runs over fixed and variable primitives) gets one corruption planted
//! at a random position. The segment must refuse it, and afterwards hold
//! the exact image and serve the exact update bytes of an oracle segment
//! that never saw it. The uncorrupted diff then commits on both.

use bytes::Bytes;
use iw_proto::Coherence;
use iw_server::{checkpoint, ServerSegment};
use iw_types::desc::TypeDesc;
use iw_wire::codec::WireWriter;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Block 0: 64 ints.
const INTS: u32 = 64;
/// Block 1: 8 `mix` elements of 4 prims each.
const MIXES: u32 = 8;

fn mix() -> TypeDesc {
    TypeDesc::structure(
        "mix",
        vec![
            ("i", TypeDesc::int32()),
            ("s", TypeDesc::string(16)),
            ("d", TypeDesc::float64()),
            ("p", TypeDesc::pointer()),
        ],
    )
}

fn pair() -> TypeDesc {
    TypeDesc::structure(
        "pair",
        vec![("a", TypeDesc::int64()), ("t", TypeDesc::string(8))],
    )
}

/// The wire shape of one primitive.
#[derive(Clone, Copy)]
enum Prim {
    U32,
    U64,
    Str,
}

/// Primitive `k` of a block of type serial `ty`.
fn prim(ty: u32, k: u64) -> Prim {
    match (ty, k) {
        (0, _) => Prim::U32,
        (1, k) if k % 4 == 0 => Prim::U32,
        (1, k) if k % 4 == 2 => Prim::U64,
        (1, _) => Prim::Str,
        (_, k) if k % 2 == 0 => Prim::U64,
        _ => Prim::Str,
    }
}

fn prims_per_elem(ty: u32) -> u64 {
    [1, 4, 2][ty as usize]
}

/// Wire bytes of primitives `[start, start+count)` of a type-`ty`
/// block, plus the offset of every non-empty string's first byte.
fn encode(ty: u32, start: u64, count: u64, rng: &mut TestRng) -> (Bytes, Vec<usize>) {
    let mut w = WireWriter::new();
    let mut strings = Vec::new();
    for k in start..start + count {
        match prim(ty, k) {
            Prim::U32 => w.put_u32(rng.next_u64() as u32),
            Prim::U64 => w.put_u64(rng.next_u64()),
            Prim::Str => {
                let len = 1 + rng.below(6) as usize;
                let s: String = (0..len)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect();
                strings.push(w.len() + 4);
                w.put_str(&s);
            }
        }
    }
    (w.finish(), strings)
}

fn init_diff(rng: &mut TestRng) -> SegmentDiff {
    SegmentDiff {
        from_version: 0,
        to_version: 1,
        new_types: vec![(0, TypeDesc::int32()), (1, mix())],
        new_blocks: vec![
            NewBlock {
                serial: 0,
                name: Some("ints".into()),
                type_serial: 0,
                count: INTS,
                data: encode(0, 0, u64::from(INTS), rng).0,
            },
            NewBlock {
                serial: 1,
                name: Some("mixes".into()),
                type_serial: 1,
                count: MIXES,
                data: encode(1, 0, u64::from(MIXES) * 4, rng).0,
            },
        ],
        ..Default::default()
    }
}

/// Random runs over block `serial` (type `ty`, `prims` primitives).
fn runs(ty: u32, prims: u64, rng: &mut TestRng) -> Vec<DiffRun> {
    (0..1 + rng.below(3))
        .map(|_| {
            let start = rng.below(prims);
            let count = 1 + rng.below((prims - start).min(6));
            let data = encode(ty, start, count, rng).0;
            DiffRun { start, count, data }
        })
        .collect()
}

/// A valid diff from v2: maybe a new type, 0..3 new blocks, runs on
/// blocks 0 and 1.
fn valid_diff(rng: &mut TestRng) -> SegmentDiff {
    let mut d = SegmentDiff {
        from_version: 2,
        to_version: 3,
        ..Default::default()
    };
    let types = if rng.below(2) == 0 {
        d.new_types.push((2, pair()));
        3
    } else {
        2
    };
    for i in 0..rng.below(3) as u32 {
        let ty = rng.below(types) as u32;
        let count = 1 + rng.below(5) as u32;
        let prims = u64::from(count) * prims_per_elem(ty);
        d.new_blocks.push(NewBlock {
            serial: 2 + i,
            name: (rng.below(2) == 0).then(|| format!("new{i}")),
            type_serial: ty,
            count,
            data: encode(ty, 0, prims, rng).0,
        });
    }
    d.block_diffs = vec![
        BlockDiff {
            serial: 0,
            runs: runs(0, u64::from(INTS), rng),
        },
        BlockDiff {
            serial: 1,
            runs: runs(1, u64::from(MIXES) * 4, rng),
        },
    ];
    if rng.below(2) == 0 {
        d.block_diffs.swap(0, 1);
    }
    d
}

/// The corruption kinds.
const KINDS: [&str; 9] = [
    "range", "serial", "name", "type", "length", "utf8", "count", "step", "base",
];

/// The diff of block `serial` in `d`.
fn block(d: &mut SegmentDiff, serial: u32) -> &mut BlockDiff {
    let found = d.block_diffs.iter_mut().find(|bd| bd.serial == serial);
    found.expect("block diff")
}

/// Plants corruption `kind` at a random position of `d`.
fn corrupt(d: &mut SegmentDiff, kind: &str, rng: &mut TestRng) {
    let spare = || NewBlock {
        serial: 9,
        name: None,
        type_serial: 0,
        count: 1,
        data: Bytes::from_static(&[0, 0, 0, 7]),
    };
    let nb = d.new_blocks.len() as u64;
    let at = |rng: &mut TestRng, n: u64| rng.below(n + 1) as usize;
    match kind {
        "range" => {
            let bd = &mut d.block_diffs[rng.below(2) as usize];
            let r = bd.runs.len() - 1;
            let run = &mut bd.runs[r];
            let prims = if bd.serial == 0 { 64 } else { 32 };
            run.start = prims - run.count + 1;
        }
        "serial" => match rng.below(3) {
            0 => {
                let dup = NewBlock {
                    serial: rng.below(2) as u32,
                    ..spare()
                };
                d.new_blocks.insert(at(rng, nb), dup);
            }
            1 => d.block_diffs.push(BlockDiff {
                serial: 77,
                runs: vec![DiffRun {
                    start: 0,
                    count: 1,
                    data: Bytes::from_static(&[0, 0, 0, 1]),
                }],
            }),
            _ => d.freed = vec![0, 0],
        },
        "name" => {
            let dup = NewBlock {
                name: Some(["ints", "mixes"][rng.below(2) as usize].into()),
                ..spare()
            };
            d.new_blocks.insert(at(rng, nb), dup);
        }
        "type" => {
            if rng.below(2) == 0 || d.new_types.is_empty() {
                let bad = NewBlock {
                    type_serial: 5,
                    ..spare()
                };
                d.new_blocks.insert(at(rng, nb), bad);
            } else {
                d.new_types[0].0 = 4;
            }
        }
        "length" => {
            let bd = &mut d.block_diffs[1];
            let r = rng.below(bd.runs.len() as u64) as usize;
            let data = &mut bd.runs[r].data;
            *data = if rng.below(2) == 0 {
                data.slice(..data.len() - 1)
            } else {
                Bytes::from([&data[..], &[0]].concat())
            };
        }
        "utf8" => {
            // A run over mix element 7's string, placed last.
            let (data, strings) = encode(1, 29, 2, rng);
            let mut data = data.to_vec();
            data[strings[0]] = 0xFF;
            block(d, 1).runs.push(DiffRun {
                start: 29,
                count: 2,
                data: Bytes::from(data),
            });
        }
        "count" => {
            if nb > 0 && rng.below(2) == 0 {
                let i = rng.below(nb) as usize;
                d.new_blocks[i].count += 1;
            } else {
                let run = block(d, 0).runs.last_mut().unwrap();
                if run.start + run.count < 64 {
                    run.count += 1;
                } else {
                    run.start -= 1;
                    run.count += 1;
                }
            }
        }
        "step" => d.to_version = 4,
        "base" => {
            d.from_version = 1;
            d.to_version = 2;
        }
        _ => unreachable!(),
    }
}

fn image(seg: &mut ServerSegment) -> Bytes {
    checkpoint::encode_segment(seg).expect("image")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn refused_diff_changes_nothing(seed in any::<u64>(), kind in 0usize..KINDS.len()) {
        let mut rng = TestRng::for_test(&format!("refusal-{seed}"));
        let init = init_diff(&mut rng);
        let step = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![BlockDiff { serial: 0, runs: runs(0, 64, &mut rng) }],
            ..Default::default()
        };
        let mut seg = ServerSegment::new("p/refusal");
        let mut oracle = ServerSegment::new("p/refusal");
        for d in [&init, &step] {
            seg.apply_diff(d).unwrap();
            oracle.apply_diff(d).unwrap();
        }
        let valid = valid_diff(&mut rng);
        let mut bad = valid.clone();
        corrupt(&mut bad, KINDS[kind], &mut rng);

        let refused = seg.apply_diff(&bad);
        prop_assert!(refused.is_err(), "{} corruption accepted (seed {seed})", KINDS[kind]);
        prop_assert_eq!(seg.version(), 2);
        prop_assert_eq!(image(&mut seg), image(&mut oracle), "{} corruption (seed {seed}): {:?}", KINDS[kind], refused);
        for have in [0, 1] {
            let got = seg.collect_update(7, have, Coherence::Full).unwrap();
            let want = oracle.collect_update(7, have, Coherence::Full).unwrap();
            prop_assert_eq!(got.encode(), want.encode(), "update from v{}", have);
        }

        prop_assert_eq!(seg.apply_diff(&valid).unwrap(), 3);
        prop_assert_eq!(oracle.apply_diff(&valid).unwrap(), 3);
        prop_assert_eq!(image(&mut seg), image(&mut oracle));
    }
}
