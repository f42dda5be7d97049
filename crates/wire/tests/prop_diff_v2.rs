//! Differential proof battery for the diff wire format.
//!
//! The contract under test: for arbitrary diffs (random type
//! descriptors, block shapes, dirty-run patterns), both codec choices
//! of the envelope — raw, and with adaptive compression — decode back
//! to a structurally identical `SegmentDiff`, and
//! `encoded_len_hint` equals the size of a fixed-width reference
//! encoding. Structural identity is what
//! `apply` consumes, so identical decodes imply byte-identical applied
//! images whether or not compression was on the wire. Hostile-input
//! lemmas ride along: truncation at every byte offset fails cleanly,
//! and bit-flips anywhere in the envelope (codec tag and varint bytes
//! included) never panic the decoder.

use bytes::Bytes;
use iw_types::desc::TypeDesc;
use iw_wire::codec::{WireReader, WireWriter};
use iw_wire::diff::{BlockDiff, DiffRun, DiffWire, NewBlock, SegmentDiff};
use iw_wire::tdesc::encode_type;
use proptest::prelude::*;

fn arb_type() -> impl Strategy<Value = TypeDesc> {
    let leaf = prop_oneof![
        Just(TypeDesc::char8()),
        Just(TypeDesc::int16()),
        Just(TypeDesc::int32()),
        Just(TypeDesc::int64()),
        Just(TypeDesc::float32()),
        Just(TypeDesc::float64()),
        (1u32..300).prop_map(TypeDesc::string),
        Just(TypeDesc::pointer()),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            (inner.clone(), 0u32..5).prop_map(|(t, n)| TypeDesc::array(t, n)),
            (prop::collection::vec(inner, 0..4), "[a-z]{1,8}").prop_map(|(tys, name)| {
                TypeDesc::structure(
                    name,
                    tys.iter()
                        .enumerate()
                        .map(|(i, t)| -> (&str, TypeDesc) {
                            (Box::leak(format!("f{i}").into_boxed_str()), t.clone())
                        })
                        .collect(),
                )
            }),
        ]
    })
}

/// Dirty-run payloads with a knob between compressible (repeating) and
/// incompressible (arbitrary) bytes so both codec branches are hit.
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64),
        (any::<u8>(), 1usize..512).prop_map(|(b, n)| vec![b; n]),
        (0u8..4, 1usize..128)
            .prop_map(|(k, n)| (0..n).map(|i| ((i as u8) % 7) * k).collect::<Vec<u8>>()),
    ]
}

fn arb_run() -> impl Strategy<Value = DiffRun> {
    (0u64..100_000, 1u64..256, arb_payload()).prop_map(|(start, count, data)| DiffRun {
        start,
        count,
        data: Bytes::from(data),
    })
}

fn arb_diff() -> impl Strategy<Value = SegmentDiff> {
    (
        0u64..1_000_000,
        0u64..32,
        prop::collection::vec(arb_type(), 0..3),
        prop::collection::vec(
            (
                0u32..1000,
                prop::option::of("[a-z]{1,12}"),
                0u32..50,
                1u32..64,
                arb_payload(),
            ),
            0..3,
        ),
        prop::collection::vec((0u32..1000, prop::collection::vec(arb_run(), 0..6)), 0..4),
        prop::collection::vec(0u32..10_000, 0..5),
    )
        .prop_map(|(from, delta, types, blocks, diffs, freed)| SegmentDiff {
            from_version: from,
            to_version: from + delta,
            new_types: types
                .into_iter()
                .enumerate()
                .map(|(i, t)| (i as u32, t))
                .collect(),
            new_blocks: blocks
                .into_iter()
                .map(|(serial, name, type_serial, count, data)| NewBlock {
                    serial,
                    name,
                    type_serial,
                    count,
                    data: Bytes::from(data),
                })
                .collect(),
            block_diffs: diffs
                .into_iter()
                .map(|(serial, runs)| BlockDiff { serial, runs })
                .collect(),
            freed,
            ..Default::default()
        })
}

/// The fixed-width layout `encoded_len_hint` sizes: every count and
/// serial a big-endian `u32`, versions and run positions `u64`, byte
/// strings `u32`-length-prefixed, and a declared payload length per
/// block diff. Nothing emits it; it pins the hint.
fn fixed_width(d: &SegmentDiff) -> Bytes {
    let mut w = WireWriter::new();
    w.put_u64(d.from_version);
    w.put_u64(d.to_version);
    w.put_u32(d.new_types.len() as u32);
    for (serial, ty) in &d.new_types {
        w.put_u32(*serial);
        encode_type(&mut w, ty);
    }
    w.put_u32(d.new_blocks.len() as u32);
    for b in &d.new_blocks {
        w.put_u32(b.serial);
        match &b.name {
            Some(n) => {
                w.put_u8(1);
                w.put_str(n);
            }
            None => w.put_u8(0),
        }
        w.put_u32(b.type_serial);
        w.put_u32(b.count);
        w.put_len_bytes(&b.data);
    }
    w.put_u32(d.block_diffs.len() as u32);
    for b in &d.block_diffs {
        w.put_u32(b.serial);
        w.put_u32(b.diff_len() as u32);
        w.put_u32(b.runs.len() as u32);
        for run in &b.runs {
            w.put_u64(run.start);
            w.put_u64(run.count);
            w.put_len_bytes(&run.data);
        }
    }
    w.put_u32(d.freed.len() as u32);
    for s in &d.freed {
        w.put_u32(*s);
    }
    w.finish()
}

const FORMATS: [DiffWire; 2] = [
    DiffWire::V2 { compress: false },
    DiffWire::V2 { compress: true },
];

fn decode_all(b: Bytes) -> SegmentDiff {
    let mut r = WireReader::new(b);
    let d = SegmentDiff::decode(&mut r).expect("well-formed encoding must decode");
    assert!(r.is_empty(), "decode must consume the full encoding");
    d
}

proptest! {
    /// The differential proof: both codec choices of the same diff
    /// decode to structurally identical values, and the size hint is
    /// the exact fixed-width size.
    #[test]
    fn all_revisions_decode_identically(d in arb_diff()) {
        prop_assert_eq!(fixed_width(&d).len(), d.encoded_len_hint(), "hint must be exact");
        for fmt in FORMATS {
            let enc = d.encode_as(fmt);
            let back = decode_all(enc);
            prop_assert_eq!(&back, &d, "{:?} must decode to the original", fmt);
            // Round-trip again through the other codec choice: a decoded
            // diff re-encodes to working bytes either way.
            for fmt2 in FORMATS {
                prop_assert_eq!(&decode_all(back.encode_as(fmt2)), &d);
            }
        }
    }

    /// The varint envelope never exceeds the fixed-width size by more
    /// than its 2-byte header plus one worst-case varint per integer
    /// field.
    #[test]
    fn v2_never_bloats_materially(d in arb_diff()) {
        let fixed = d.encoded_len_hint();
        let v2 = d.encode_as(DiffWire::V2 { compress: false }).len();
        // Integer fields whose varint form can exceed the fixed width
        // by at most 2 bytes each (u64) or 1 byte (u32).
        let ints = 2 + 4
            + d.new_types.len()
            + d.new_blocks.len() * 4
            + d.block_diffs.iter().map(|b| 2 + 3 * b.runs.len()).sum::<usize>()
            + d.freed.len();
        prop_assert!(v2 <= fixed + 2 + 2 * ints, "v2 {} vs fixed-width {}", v2, fixed);
    }

    /// Single-bit flips anywhere in the v2 envelope — magic, codec tag,
    /// varint length bytes, payloads — never panic the decoder, and
    /// anything that still decodes must re-encode/decode consistently.
    #[test]
    fn bit_flips_never_panic(d in arb_diff(), pos_seed in any::<u64>(), bit in 0u8..8) {
        for fmt in [DiffWire::V2 { compress: false }, DiffWire::V2 { compress: true }] {
            let enc = d.encode_as(fmt);
            if enc.is_empty() { continue; }
            let pos = (pos_seed % enc.len() as u64) as usize;
            let mut bytes = enc.to_vec();
            bytes[pos] ^= 1 << bit;
            let mut r = WireReader::new(Bytes::from(bytes));
            if let Ok(mutant) = SegmentDiff::decode(&mut r) {
                // Survivors must still be internally consistent.
                let again = decode_all(mutant.encode_as(fmt));
                prop_assert_eq!(again, mutant);
            }
        }
    }
}

proptest! {
    // Every-offset truncation is O(len²) per case; fewer cases suffice.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating any encoding at any byte offset fails cleanly: every
    /// byte of either codec choice is load-bearing, so no proper prefix may
    /// parse as a valid diff (and none may panic).
    #[test]
    fn truncation_at_every_offset_rejected(d in arb_diff()) {
        for fmt in FORMATS {
            let enc = d.encode_as(fmt);
            for cut in 0..enc.len() {
                let mut r = WireReader::new(enc.slice(..cut));
                prop_assert!(
                    SegmentDiff::decode(&mut r).is_err(),
                    "{:?} cut at {} decoded", fmt, cut
                );
            }
        }
    }
}
