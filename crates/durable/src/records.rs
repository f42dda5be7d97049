//! Typed log records and the checkpoint-file envelope.
//!
//! The framing layer ([`iw_wire::wal`]) moves opaque `(kind, body)` pairs;
//! this module gives the kinds meaning:
//!
//! - **Diff** (`kind = 1`): a committed [`SegmentDiff`] for one segment —
//!   the workhorse record, one per acknowledged release.
//! - **Checkpoint** (`kind = 2`): a marker that segment X's image at
//!   version V was durably written to the `ck/` directory. Recovery does
//!   not depend on markers (it trusts the checkpoint files themselves);
//!   they exist so a log is self-describing when inspected offline.
//!
//! Checkpoint **files** carry their own envelope (`IWDC` magic, version,
//! CRC) around the server's opaque segment image, so recovery can order
//! images against log records without understanding the image encoding.

use bytes::Bytes;
use iw_wire::codec::{WireError, WireReader, WireWriter};
use iw_wire::wal::{crc32, encode_frame};
use iw_wire::SegmentDiff;

/// Record kind: one committed segment diff.
pub const KIND_DIFF: u8 = 1;
/// Record kind: checkpoint-written marker (informational).
pub const KIND_CHECKPOINT: u8 = 2;

/// Magic prefixing every durable checkpoint file.
const CK_MAGIC: &[u8; 4] = b"IWDC";
/// Checkpoint-file envelope format version.
const CK_FORMAT: u32 = 1;

/// A decoded write-ahead-log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A committed diff for `segment`.
    Diff {
        /// Segment name.
        segment: String,
        /// The committed wire diff.
        diff: SegmentDiff,
    },
    /// Segment `segment`'s image at `version` was checkpointed.
    Checkpoint {
        /// Segment name.
        segment: String,
        /// Version the image captures.
        version: u64,
    },
}

impl LogRecord {
    /// Frames this record (header + CRC + kind + body) ready to append.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        let kind = match self {
            LogRecord::Diff { segment, diff } => {
                w.put_str(segment);
                // The link format; old logs (v1 bodies) keep replaying
                // through the same auto-detecting decode.
                w.put_bytes(&diff.encode());
                KIND_DIFF
            }
            LogRecord::Checkpoint { segment, version } => {
                w.put_str(segment);
                w.put_u64(*version);
                KIND_CHECKPOINT
            }
        };
        encode_frame(kind, &w.finish())
    }

    /// Decodes a record from a frame's kind byte and body.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an unknown kind or a malformed body. With CRC
    /// framing underneath, either indicates an encoder bug or a
    /// corrupted-but-CRC-colliding record — callers treat both as a stop.
    pub fn decode(kind: u8, body: &[u8]) -> Result<LogRecord, WireError> {
        let mut r = WireReader::new(Bytes::copy_from_slice(body));
        match kind {
            KIND_DIFF => {
                let segment = r.get_str()?;
                let diff = SegmentDiff::decode(&mut r)?;
                Ok(LogRecord::Diff { segment, diff })
            }
            KIND_CHECKPOINT => {
                let segment = r.get_str()?;
                let version = r.get_u64()?;
                Ok(LogRecord::Checkpoint { segment, version })
            }
            tag => Err(WireError::BadTag {
                what: "durable log record",
                tag,
            }),
        }
    }
}

/// Wraps an opaque segment image in the checkpoint-file envelope: magic,
/// format, then a CRC-protected payload of segment name, captured
/// version, and the image bytes. The segment name travels *inside* the
/// file (the escaped file name is a write-only convenience), so recovery
/// never needs to reverse the escaping.
pub fn encode_checkpoint_file(segment: &str, version: u64, image: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(4 + 4 + 4 + 4 + segment.len() + 8 + 4 + image.len());
    w.put_str(segment);
    w.put_u64(version);
    w.put_len_bytes(image);
    let payload = w.finish();
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(CK_MAGIC);
    out.extend_from_slice(&CK_FORMAT.to_be_bytes());
    out.extend_from_slice(&crc32(&payload).to_be_bytes());
    out.extend_from_slice(&payload);
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
        let rec = LogRecord::Diff {
            segment: "org/seg".into(),
            diff: sample_diff(4, 5),
        };
        let frame = rec.encode_frame();
        let mut r = FrameReader::new(&frame);
        let f = r.next().unwrap();
        assert_eq!(LogRecord::decode(f.kind, f.body).unwrap(), rec);
        assert_eq!(r.defect(), None);
    }

    #[test]
    fn checkpoint_record_roundtrips() {
        let rec = LogRecord::Checkpoint {
            segment: "a/b".into(),
            version: 77,
        };
        let frame = rec.encode_frame();
        let mut r = FrameReader::new(&frame);
        let f = r.next().unwrap();
        assert_eq!(LogRecord::decode(f.kind, f.body).unwrap(), rec);
    }

    /// The WAL's switch to the compressed v2 diff body must halve the
    /// log for representative commits: a typical small-run update
    /// (structural headers dominate) and a payload-heavy commit of
    /// structured data (the compressor dominates). Frame sizes are
    /// compared against the same records with v1 diff bodies.
    #[test]
    fn diff_records_halve_versus_v1_bodies() {
        // Frame header, the segment string (u32 length + bytes), then a
        // v1 body, whose size `encoded_len_hint` gives exactly.
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
            let rec = LogRecord::Diff {
                segment: "org/seg".into(),
                diff: diff.clone(),
            };
            let now = rec.encode_frame().len();
            let v1 = v1_frame("org/seg", diff);
            println!("wal {name}: v1 body {v1} B, current {now} B");
            assert!(
                now * 2 <= v1,
                "{name}: WAL record must halve: v1 {v1} B vs current {now} B"
            );
            // And it still replays.
            let frame = rec.encode_frame();
            let mut r = FrameReader::new(&frame);
            let f = r.next().unwrap();
            assert_eq!(LogRecord::decode(f.kind, f.body).unwrap(), rec);
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(matches!(
            LogRecord::decode(0x7F, b""),
            Err(WireError::BadTag { tag: 0x7F, .. })
        ));
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
