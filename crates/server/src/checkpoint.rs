//! Segment checkpoint images.
//!
//! "As partial protection against server failure, InterWeave periodically
//! checkpoints segments and their metadata to persistent storage." (§2.2)
//!
//! This module is the image format only ([`encode_segment`] /
//! [`decode_segment`]); `iw-durable` decides when images are written and
//! owns the files. The format reuses the wire codec, so an image is
//! readable by any architecture. The same image is what a cluster
//! primary ships in `Request::SyncFull` to bring a lagging backup up to
//! date, so a synced backup is bit-identical to a recovered checkpoint.

use bytes::Bytes;

use iw_wire::codec::{WireReader, WireWriter};
use iw_wire::tdesc::{decode_type, encode_type};

use crate::error::ServerError;
use crate::segment::ServerSegment;

const MAGIC: &[u8; 4] = b"IWCK";
const FORMAT_VERSION: u32 = 1;

/// Serializes a segment into its machine-independent checkpoint image
/// (also the `SyncFull` replication payload).
pub fn encode_segment(seg: &ServerSegment) -> Result<Bytes, ServerError> {
    let mut w = WireWriter::new();
    w.put_bytes(MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_str(&seg.name);
    w.put_u64(seg.version());
    w.put_u32(seg.next_serial());

    w.put_u32(seg.next_type_serial());
    for (ty, intro) in seg.types_iter() {
        encode_type(&mut w, ty);
        w.put_u64(intro);
    }

    w.put_u32(seg.block_count() as u32);
    for b in seg.blocks_iter() {
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
        w.put_u64(b.created_version);
        w.put_u64(b.version);
        let subs = b.subblock_versions();
        w.put_u32(subs.len() as u32);
        subs.iter().for_each(|&v| w.put_u64(v));
        b.put_data(&mut w)?;
    }

    w.put_u32(seg.freed_iter().count() as u32);
    for (v, serial, created) in seg.freed_iter() {
        w.put_u64(v);
        w.put_u32(serial);
        w.put_u64(created);
    }
    Ok(w.finish())
}

/// Largest block element count a checkpoint image may claim: keeps a
/// corrupted count field from driving a giant storage allocation before
/// the (truncated) data would fail to parse anyway.
const MAX_BLOCK_COUNT: u32 = 1 << 26;

/// Reconstructs a segment from a checkpoint image (the inverse of
/// [`encode_segment`]).
///
/// # Errors
///
/// [`ServerError::BadCheckpoint`] or a wire error on corrupt or truncated
/// input — never a panic, whatever the bytes.
pub fn decode_segment(bytes: Bytes) -> Result<ServerSegment, ServerError> {
    let mut r = WireReader::new(bytes);
    let bad = |m: &str| ServerError::BadCheckpoint(m.to_string());

    let magic = r.get_bytes(4).map_err(|_| bad("truncated magic"))?;
    if &magic[..] != MAGIC {
        return Err(bad("wrong magic"));
    }
    if r.get_u32()? != FORMAT_VERSION {
        return Err(bad("unsupported format version"));
    }
    let name = r.get_str()?;
    let version = r.get_u64()?;
    let next_serial = r.get_u32()?;

    let mut seg = ServerSegment::new(name);

    let n_types = r.get_u32()?;
    for _ in 0..n_types {
        let ty = decode_type(&mut r)?;
        let intro = r.get_u64()?;
        seg.register_type(ty, intro);
    }

    let n_blocks = r.get_u32()?;
    for _ in 0..n_blocks {
        let serial = r.get_u32()?;
        let name = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_str()?),
            _ => return Err(bad("bad name flag")),
        };
        let type_serial = r.get_u32()?;
        let count = r.get_u32()?;
        if count > MAX_BLOCK_COUNT {
            return Err(bad("absurd block count"));
        }
        let created = r.get_u64()?;
        let bversion = r.get_u64()?;
        let n_subs = r.get_u32()?;
        if n_subs > 1 << 26 {
            return Err(bad("absurd subblock count"));
        }
        // Pre-size only to what the input can still hold (8 bytes each),
        // so a hostile count cannot reserve memory the image lacks.
        let mut subs = Vec::with_capacity((n_subs as usize).min(r.remaining() / 8));
        for _ in 0..n_subs {
            subs.push(r.get_u64()?);
        }
        let data = r.get_len_bytes()?;
        seg.restore_block(
            serial,
            name,
            type_serial,
            count,
            created,
            bversion,
            subs,
            &data,
        )?;
    }

    let n_freed = r.get_u32()?;
    let mut freed = Vec::with_capacity((n_freed as usize).min(r.remaining() / 20));
    for _ in 0..n_freed {
        let v = r.get_u64()?;
        let s = r.get_u32()?;
        let created = r.get_u64()?;
        freed.push((v, s, created));
    }
    seg.restore_state(version, next_serial, freed);
    Ok(seg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_types::desc::TypeDesc;
    use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};

    fn populated_segment() -> ServerSegment {
        let mut seg = ServerSegment::new("host/data");
        let diff = SegmentDiff {
            from_version: 0,
            to_version: 1,
            new_types: vec![(0, TypeDesc::int32()), (1, TypeDesc::string(8))],
            new_blocks: vec![
                NewBlock {
                    serial: 0,
                    name: Some("nums".into()),
                    type_serial: 0,
                    count: 40,
                    data: Bytes::from(vec![0u8; 160]),
                },
                NewBlock {
                    serial: 1,
                    name: None,
                    type_serial: 1,
                    count: 1,
                    data: {
                        let mut w = WireWriter::new();
                        w.put_str("hi");
                        w.finish()
                    },
                },
            ],
            ..Default::default()
        };
        seg.apply_diff(&diff).unwrap();
        // Another version touching one subblock.
        let diff = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![BlockDiff {
                serial: 0,
                runs: vec![DiffRun {
                    start: 20,
                    count: 1,
                    data: Bytes::from(7u32.to_be_bytes().to_vec()),
                }],
            }],
            freed: vec![1],
            ..Default::default()
        };
        seg.apply_diff(&diff).unwrap();
        seg
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let mut seg = populated_segment();
        let mut back = decode_segment(encode_segment(&seg).unwrap()).unwrap();

        assert_eq!(back.name, "host/data");
        assert_eq!(back.version(), seg.version());
        assert_eq!(back.next_serial(), seg.next_serial());
        assert_eq!(back.next_type_serial(), seg.next_type_serial());
        assert_eq!(back.block_count(), seg.block_count());
        assert_eq!(back.total_prims(), seg.total_prims());
        let (a, b) = (back.block(0).unwrap(), seg.block(0).unwrap());
        assert_eq!(a.subblock_versions(), b.subblock_versions());
        let data = |b: &crate::ServerBlock| {
            let mut w = WireWriter::new();
            b.put_data(&mut w).unwrap();
            w.finish()
        };
        assert_eq!(data(a), data(b));

        // A stale client update built from the restored segment matches
        // one built from the original (bypassing the original's diff
        // cache, which the checkpoint intentionally does not persist).
        seg.clear_diff_cache();
        let a = seg
            .collect_update(99, 1, iw_proto::Coherence::Full)
            .unwrap();
        let b = back
            .collect_update(99, 1, iw_proto::Coherence::Full)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            decode_segment(Bytes::from_static(b"NOTAMAGIC")),
            Err(ServerError::BadCheckpoint(_))
        ));
    }

    #[test]
    fn truncated_checkpoints_error_cleanly() {
        let image = encode_segment(&populated_segment()).unwrap();
        // Every strict prefix must fail with a clean error (the format
        // has no optional tail), and must never panic.
        for len in (0..image.len())
            .step_by(7)
            .chain(image.len() - 3..image.len())
        {
            let err = decode_segment(image.slice(0..len));
            assert!(err.is_err(), "truncation at {len} decoded successfully");
        }
    }

    #[test]
    fn bit_flipped_checkpoints_never_panic() {
        let image = encode_segment(&populated_segment()).unwrap().to_vec();
        for pos in (0..image.len()).step_by(3) {
            for bit in [0u8, 3, 7] {
                let mut corrupt = image.clone();
                corrupt[pos] ^= 1 << bit;
                // A flip in block payload bytes can still decode to a
                // (different) valid segment; the contract is only that
                // decode returns instead of panicking or ballooning.
                let _ = decode_segment(Bytes::from(corrupt));
            }
        }
    }

    #[test]
    fn image_roundtrip_is_bit_identical() {
        let image = encode_segment(&populated_segment()).unwrap();
        let back = decode_segment(image.clone()).unwrap();
        assert_eq!(encode_segment(&back).unwrap(), image);
    }
}
