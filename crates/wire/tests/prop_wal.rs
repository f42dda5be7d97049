//! Property tests for WAL record framing (`iw_wire::wal`): arbitrary
//! frame sequences round-trip exactly, and every damage class the
//! recovery path must survive — a bit flip anywhere, a torn tail at any
//! cut point, a duplicated record — leaves the reader stopping cleanly
//! at the first bad record with everything before it intact. The
//! sliced CRC-32 is checked against a bytewise reference.

use iw_wire::wal::{
    crc32, crc32_continue, encode_frame, FrameDefect, FrameReader, FRAME_HEADER_LEN,
};
use proptest::prelude::*;

/// Reference CRC-32/IEEE: one bit at a time, no tables.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// An arbitrary log: up to 8 frames of arbitrary kind and body.
fn arb_log() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    prop::collection::vec(
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..200)),
        0..8,
    )
}

fn encode_log(records: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    for (kind, body) in records {
        buf.extend_from_slice(&encode_frame(*kind, body));
    }
    buf
}

/// Reads until defect or end; returns the decoded records.
fn read_all(buf: &[u8]) -> (Vec<(u8, Vec<u8>)>, Option<FrameDefect>) {
    let mut r = FrameReader::new(buf);
    let mut out = Vec::new();
    while let Some(f) = r.next() {
        out.push((f.kind, f.body.to_vec()));
    }
    (out, r.defect())
}

proptest! {
    /// Any sequence of records round-trips frame-exactly.
    #[test]
    fn round_trip(records in arb_log()) {
        let buf = encode_log(&records);
        let (decoded, defect) = read_all(&buf);
        prop_assert_eq!(defect, None);
        prop_assert_eq!(decoded, records);
    }

    /// Flipping any single bit makes the reader stop at (or before)
    /// the damaged frame — never decode damaged bytes as good, never
    /// lose a frame that ends before the flip.
    #[test]
    fn bit_flip_stops_cleanly(records in arb_log(), flip_at in any::<usize>(), flip_bit in any::<u8>()) {
        let records = {
            let mut r = records;
            if r.is_empty() {
                r.push((1, vec![7, 7, 7]));
            }
            r
        };
        let clean = encode_log(&records);
        let (at, bit) = (flip_at % clean.len(), flip_bit % 8);
        let mut buf = clean.clone();
        buf[at] ^= 1 << bit;

        let (decoded, defect) = read_all(&buf);
        // Frames wholly before the flipped byte are untouched; the
        // reader must deliver all of them.
        let mut intact = 0usize;
        let mut end = 0usize;
        for (kind, body) in &records {
            end += FRAME_HEADER_LEN + 1 + body.len();
            if end <= at {
                intact += 1;
            } else {
                break;
            }
            let _ = kind;
        }
        prop_assert!(decoded.len() >= intact, "lost an undamaged frame");
        // The damaged frame itself must not come back looking valid
        // *unchanged* — either the reader stopped (defect) or, if the
        // flip landed in a later frame's header length field in a way
        // that still frames, the decoded prefix differs from the
        // original. A flip inside a CRC-covered region always stops.
        if decoded.len() == records.len() && defect.is_none() {
            prop_assert!(read_all(&clean).0 != decoded, "flip decoded as the original");
        }
    }

    /// Cutting the log at any point yields exactly the complete frames
    /// before the cut; a mid-frame cut reports `TornTail` (the
    /// recoverable class), never a parse of garbage.
    #[test]
    fn torn_tail_truncates_to_frame_boundary(records in arb_log(), cut in any::<usize>()) {
        let records = {
            let mut r = records;
            if r.is_empty() {
                r.push((2, vec![1, 2, 3]));
            }
            r
        };
        let clean = encode_log(&records);
        let cut = cut % clean.len(); // strictly shorter than the log
        let (decoded, defect) = read_all(&clean[..cut]);

        // How many frames fit entirely within the cut?
        let mut fit = 0usize;
        let mut end = 0usize;
        for (_, body) in &records {
            let next = end + FRAME_HEADER_LEN + 1 + body.len();
            if next <= cut {
                fit += 1;
                end = next;
            } else {
                break;
            }
        }
        prop_assert_eq!(decoded.len(), fit);
        prop_assert_eq!(&decoded[..], &records[..fit]);
        if end == cut {
            prop_assert_eq!(defect, None, "boundary cut is a clean EOF");
        } else {
            prop_assert_eq!(defect, Some(FrameDefect::TornTail));
        }
    }

    /// A duplicated record is *valid framing* (replay-level dedup is the
    /// store's job): the reader delivers both copies and keeps going.
    #[test]
    fn duplicated_record_keeps_framing(records in arb_log(), pick in any::<usize>()) {
        let records = {
            let mut r = records;
            if r.is_empty() {
                r.push((3, vec![9]));
            }
            r
        };
        let pick = pick % records.len();
        let mut doubled = records.clone();
        doubled.insert(pick, records[pick].clone());
        let (decoded, defect) = read_all(&encode_log(&doubled));
        prop_assert_eq!(defect, None);
        prop_assert_eq!(decoded, doubled);
    }

    /// CRC is over kind+body: changing the kind byte alone is caught.
    #[test]
    fn kind_is_crc_covered(kind in any::<u8>(), body in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut buf = encode_frame(kind, &body);
        buf[FRAME_HEADER_LEN] ^= 0xFF; // the kind byte sits right after the header
        let (decoded, defect) = read_all(&buf);
        prop_assert!(decoded.is_empty());
        prop_assert_eq!(defect, Some(FrameDefect::Corrupt));
    }

    /// The sliced CRC equals the bitwise reference on any length (tails
    /// of 0–7 bytes included), from any start offset (unaligned words),
    /// and when continued across any split point.
    #[test]
    fn sliced_crc_matches_bitwise_reference(
        seed in any::<u64>(),
        len in 0usize..70_000,
        offset in 0usize..8,
        split in any::<usize>(),
    ) {
        let mut s = seed;
        let buf: Vec<u8> = (0..offset + len)
            .map(|_| {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect();
        let bytes = &buf[offset..];
        let want = crc32_bitwise(bytes);
        prop_assert_eq!(crc32(bytes), want);
        let split = split % (len + 1);
        prop_assert_eq!(crc32_continue(crc32(&bytes[..split]), &bytes[split..]), want);
    }
}
