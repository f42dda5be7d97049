//! Log records and the checkpoint-file envelope.
//!
//! The framing layer ([`iw_wire::wal`]) moves opaque `(kind, body)` pairs;
//! this module gives them meaning. There is one kind, **Diff**
//! (`kind = 1`): a committed [`SegmentDiff`] for one segment, one per
//! acknowledged release ([`encode_diff_frame`] / [`decode_diff_frame`]).
//! Recovery trusts the checkpoint image files themselves, so no record
//! marks an image.
//!
//! Checkpoint **files** carry their own envelope (`IWDC` magic, version,
//! CRC) around the server's opaque segment image, so recovery can order
//! images against log records without understanding the image encoding.

use bytes::Bytes;
use iw_wire::codec::{WireError, WireReader, WireWriter};
use iw_wire::wal::{crc32, crc32_continue, encode_frame};
use iw_wire::SegmentDiff;

/// Record kind: one committed segment diff.
pub const KIND_DIFF: u8 = 1;

/// Magic prefixing every durable checkpoint file.
const CK_MAGIC: &[u8; 4] = b"IWDC";
/// Checkpoint-file envelope format version.
const CK_FORMAT: u32 = 1;

/// Frames one committed diff of `segment` (header + CRC + kind + body)
/// ready to append. The body is the link format.
pub fn encode_diff_frame(segment: &str, diff: &SegmentDiff) -> Vec<u8> {
    let encoded = diff.encode();
    let mut w = WireWriter::with_capacity(4 + segment.len() + encoded.len());
    w.put_str(segment);
    w.put_bytes(&encoded);
    encode_frame(KIND_DIFF, &w.finish())
}

/// Decodes a frame's kind byte and body into `(segment, diff)`, the
/// inverse of [`encode_diff_frame`].
///
/// # Errors
///
/// [`WireError`] on an unknown kind or a malformed body. With CRC
/// framing underneath, either indicates an encoder bug or a
/// corrupted-but-CRC-colliding record — callers treat both as a stop.
pub fn decode_diff_frame(kind: u8, body: &[u8]) -> Result<(String, SegmentDiff), WireError> {
    if kind != KIND_DIFF {
        return Err(WireError::BadTag {
            what: "durable log record",
            tag: kind,
        });
    }
    let mut r = WireReader::new(Bytes::copy_from_slice(body));
    let segment = r.get_str()?;
    Ok((segment, SegmentDiff::decode(&mut r)?))
}

/// Wraps an opaque segment image in the checkpoint-file envelope: magic,
/// format, then a CRC-protected payload of segment name, captured
/// version, and the image bytes. The segment name travels *inside* the
/// file (recovery only checks a file's name against the escaped name of
/// the segment inside it, to tell which slot it is), so recovery never
/// needs to reverse the escaping.
pub fn encode_checkpoint_file(segment: &str, version: u64, image: &[u8]) -> Vec<u8> {
    // The payload is `head` then the image; its CRC is computed over the
    // two parts so the image is copied once, into `out`.
    let mut w = WireWriter::with_capacity(4 + segment.len() + 8 + 4);
    w.put_str(segment);
    w.put_u64(version);
    w.put_u32(image.len() as u32);
    let head = w.finish();
    let crc = crc32_continue(crc32(&head), image);
    let mut out = Vec::with_capacity(12 + head.len() + image.len());
    out.extend_from_slice(CK_MAGIC);
    out.extend_from_slice(&CK_FORMAT.to_be_bytes());
    out.extend_from_slice(&crc.to_be_bytes());
    out.extend_from_slice(&head);
    out.extend_from_slice(image);
    out
}

/// Unwraps a checkpoint file into `(segment, captured version, image)`.
///
/// # Errors
///
/// A human-readable reason when the envelope is malformed or the payload
/// fails its CRC. Recovery reports these as warnings and falls back to
/// replaying that segment's log from version 0.
pub fn decode_checkpoint_file(bytes: &[u8]) -> Result<(String, u64, Bytes), String> {
    if bytes.len() < 12 {
        return Err(format!("checkpoint file too short ({} bytes)", bytes.len()));
    }
    if &bytes[0..4] != CK_MAGIC {
        return Err("bad checkpoint magic".into());
    }
    let format = u32::from_be_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if format != CK_FORMAT {
        return Err(format!("unsupported checkpoint format {format}"));
    }
    let crc = u32::from_be_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let payload = &bytes[12..];
    if crc32(payload) != crc {
        return Err("checkpoint payload crc mismatch".into());
    }
    let mut r = WireReader::new(Bytes::copy_from_slice(payload));
    let parse = |r: &mut WireReader| -> Result<(String, u64, Bytes), WireError> {
        let segment = r.get_str()?;
        let version = r.get_u64()?;
        let image = r.get_len_bytes()?;
        Ok((segment, version, image))
    };
    let (segment, version, image) =
        parse(&mut r).map_err(|e| format!("malformed checkpoint payload: {e}"))?;
    if !r.is_empty() {
        return Err(format!(
            "checkpoint payload has {} trailing bytes",
            r.remaining()
        ));
    }
    Ok((segment, version, image))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_wire::wal::FrameReader;

    fn sample_diff(from: u64, to: u64) -> SegmentDiff {
        SegmentDiff {
            from_version: from,
            to_version: to,
            new_types: Vec::new(),
            new_blocks: Vec::new(),
            block_diffs: Vec::new(),
            freed: vec![3, 9],
            ..Default::default()
        }
    }

    #[test]
    fn diff_record_roundtrips_through_framing() {
        let frame = encode_diff_frame("org/seg", &sample_diff(4, 5));
        let mut r = FrameReader::new(&frame);
        let f = r.next().unwrap();
        assert_eq!(
            decode_diff_frame(f.kind, f.body).unwrap(),
            ("org/seg".to_string(), sample_diff(4, 5))
        );
        assert_eq!(r.defect(), None);
    }

    /// The WAL's switch to the compressed v2 diff body must halve the
    /// log for representative commits: a typical small-run update
    /// (structural headers dominate) and a payload-heavy commit of
    /// structured data (the compressor dominates). Frame sizes are
    /// compared against the same records with fixed-width diff bodies
    /// (the v1 layout of the previous format epoch).
    #[test]
    fn diff_records_halve_versus_v1_bodies() {
        // Frame header, the segment string (u32 length + bytes), then a
        // fixed-width body, whose size `encoded_len_hint` gives exactly.
        let v1_frame = |segment: &str, diff: &SegmentDiff| {
            encode_frame(KIND_DIFF, &[]).len() + 4 + segment.len() + diff.encoded_len_hint()
        };
        // Case 1: sixteen single-prim runs — the steady-state shape.
        let mut runs = Vec::new();
        for i in 0..16u64 {
            runs.push(iw_wire::diff::DiffRun {
                start: i * 32,
                count: 1,
                data: Bytes::from((i as i64).to_be_bytes().to_vec()),
            });
        }
        let sparse = SegmentDiff {
            from_version: 41,
            to_version: 42,
            block_diffs: vec![iw_wire::diff::BlockDiff { serial: 0, runs }],
            ..Default::default()
        };
        // Case 2: a 4 KiB struct-shaped payload (repeating records).
        let mut data = Vec::with_capacity(4096);
        for i in 0..512u64 {
            data.extend_from_slice(&((i % 7) as i64).to_be_bytes());
        }
        let bulky = SegmentDiff {
            from_version: 42,
            to_version: 43,
            block_diffs: vec![iw_wire::diff::BlockDiff {
                serial: 0,
                runs: vec![iw_wire::diff::DiffRun {
                    start: 0,
                    count: 512,
                    data: Bytes::from(data),
                }],
            }],
            ..Default::default()
        };
        for (name, diff) in [("sparse", &sparse), ("bulky", &bulky)] {
            let frame = encode_diff_frame("org/seg", diff);
            let now = frame.len();
            let v1 = v1_frame("org/seg", diff);
            println!("wal {name}: v1 body {v1} B, current {now} B");
            assert!(
                now * 2 <= v1,
                "{name}: WAL record must halve: v1 {v1} B vs current {now} B"
            );
            // And it still replays.
            let mut r = FrameReader::new(&frame);
            let f = r.next().unwrap();
            assert_eq!(
                decode_diff_frame(f.kind, f.body).unwrap(),
                ("org/seg".to_string(), diff.clone())
            );
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(matches!(
            decode_diff_frame(0x7F, b""),
            Err(WireError::BadTag { tag: 0x7F, .. })
        ));
    }

    /// The envelope is byte-identical to one built the obvious way:
    /// one payload buffer, one CRC over all of it.
    #[test]
    fn checkpoint_file_bytes_match_the_one_buffer_encoding() {
        let image: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        let mut w = WireWriter::new();
        w.put_str("org/seg");
        w.put_u64(42);
        w.put_len_bytes(&image);
        let payload = w.finish();
        let mut want = Vec::new();
        want.extend_from_slice(CK_MAGIC);
        want.extend_from_slice(&CK_FORMAT.to_be_bytes());
        want.extend_from_slice(&crc32(&payload).to_be_bytes());
        want.extend_from_slice(&payload);
        assert_eq!(encode_checkpoint_file("org/seg", 42, &image), want);
    }

    #[test]
    fn checkpoint_file_roundtrips() {
        let image = b"opaque server image bytes";
        let file = encode_checkpoint_file("org/seg", 42, image);
        let (seg, v, img) = decode_checkpoint_file(&file).unwrap();
        assert_eq!(seg, "org/seg");
        assert_eq!(v, 42);
        assert_eq!(&img[..], image);
    }

    #[test]
    fn checkpoint_file_detects_damage() {
        let mut file = encode_checkpoint_file("s", 42, b"image");
        let last = file.len() - 1;
        file[last] ^= 0x40;
        assert!(decode_checkpoint_file(&file)
            .unwrap_err()
            .contains("crc mismatch"));
        assert!(decode_checkpoint_file(b"IW").unwrap_err().contains("short"));
        let mut wrong_magic = encode_checkpoint_file("s", 1, b"x");
        wrong_magic[0] = b'X';
        assert!(decode_checkpoint_file(&wrong_magic)
            .unwrap_err()
            .contains("magic"));
        let mut truncated = encode_checkpoint_file("s", 1, b"image");
        truncated.pop();
        assert!(decode_checkpoint_file(&truncated)
            .unwrap_err()
            .contains("crc mismatch"));
    }
}
