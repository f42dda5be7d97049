//! Property test: serving a multi-version update via diff-chain
//! composition is always semantically identical to applying the
//! per-version diffs in order (and to the server's own subblock rebuild,
//! on the touched set).

use bytes::Bytes;
use iw_server::ServerSegment;
use iw_types::desc::TypeDesc;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};
use proptest::prelude::*;

const PRIMS: u64 = 96;

/// Replays int runs over a model array; later writes win.
fn replay(model: &mut [i32], diff: &SegmentDiff) {
    for bd in &diff.block_diffs {
        for r in &bd.runs {
            for k in 0..r.count {
                let idx = (r.start + k) as usize;
                let b = &r.data[(k * 4) as usize..(k * 4 + 4) as usize];
                model[idx] = i32::from_be_bytes(b.try_into().expect("4B"));
            }
        }
    }
}

fn run(start: u64, vals: &[i32]) -> DiffRun {
    let mut data = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        data.extend_from_slice(&v.to_be_bytes());
    }
    DiffRun {
        start,
        count: vals.len() as u64,
        data: Bytes::from(data),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn composed_chain_equals_sequential_replay(
        steps in prop::collection::vec(
            prop::collection::vec((0u64..PRIMS, 1u64..12, any::<i32>()), 1..5),
            1..8,
        ),
        have_pick in any::<u8>(),
    ) {
        let mut seg = ServerSegment::new("p/compose");
        let init = SegmentDiff {
            from_version: 0,
            to_version: 1,
            new_types: vec![(0, TypeDesc::int32())],
            new_blocks: vec![NewBlock {
                serial: 0,
                name: None,
                type_serial: 0,
                count: PRIMS as u32,
                data: Bytes::from(vec![0u8; (PRIMS * 4) as usize]),
            }],
            ..Default::default()
        };
        seg.apply_diff(&init).unwrap();

        // Apply every step; keep them for the reference replay.
        let mut applied: Vec<SegmentDiff> = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            let runs: Vec<DiffRun> = step
                .iter()
                .map(|&(start, count, v)| {
                    let count = count.min(PRIMS - start);
                    let vals: Vec<i32> = (0..count).map(|k| v.wrapping_add(k as i32)).collect();
                    run(start, &vals)
                })
                .collect();
            let d = SegmentDiff {
                from_version: 1 + i as u64,
                to_version: 2 + i as u64,
                block_diffs: vec![BlockDiff { serial: 0, runs }],
                ..Default::default()
            };
            seg.apply_diff(&d).unwrap();
            applied.push(d);
        }

        // A client at some version in [1, current) asks for an update.
        let have = 1 + u64::from(have_pick) % (applied.len() as u64);
        let upd = seg.collect_update(have).unwrap();
        prop_assert_eq!(upd.from_version, have);
        prop_assert_eq!(upd.to_version, 1 + applied.len() as u64);

        // Reference: state at `have`, then replay the remaining steps.
        let mut reference = vec![0i32; PRIMS as usize];
        for d in &applied[..(have - 1) as usize] {
            replay(&mut reference, d);
        }
        let mut expect = reference.clone();
        for d in &applied[(have - 1) as usize..] {
            replay(&mut expect, d);
        }

        // Candidate: state at `have`, then the served update.
        let mut got = reference;
        replay(&mut got, &upd);
        prop_assert_eq!(got, expect);
    }
}
