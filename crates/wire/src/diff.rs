//! The wire-format diff.
//!
//! "A wire-format block diff consists of a block serial number, the length
//! of the diff (measured in bytes), and a series of run length encoded data
//! changes, each of which consists of the starting point and length of the
//! change (both measured in primitive data units), and the updated data (in
//! wire format)." (§3.1)
//!
//! A [`SegmentDiff`] bundles everything needed to move a cached copy of a
//! segment from one version to another: type-descriptor registrations, new
//! blocks (with their full wire images), per-block run diffs, and freed
//! blocks.
//!
//! # Wire format
//!
//! Every link and the WAL carry one encoding, [`DiffWire::LINK`], through
//! [`SegmentDiff::encode`]; nothing is negotiated. It is a self-describing
//! envelope (`0xD2` magic, then a 1-byte codec tag: raw or LZ-compressed)
//! around a varint body: LEB128 varints for all counts/serials/lengths
//! and zigzag *delta-encoded* run starts (each start is stored relative
//! to the previous run's end, so sorted runs cost one or two bytes each).
//! The codec tag is `1` when the body is LZ-compressed ([`crate::lz`]),
//! chosen adaptively per diff by a size + entropy heuristic.
//!
//! [`SegmentDiff::decode`] accepts only this envelope: a body that does
//! not start with the magic is refused with a typed error. The build has
//! one format epoch, and an older one is refused, never half-read.
//!
//! [`SegmentDiff::encoded_len_hint`] gives a diff's *fixed-width size*:
//! its bytes with every count and serial a `u32` and every run header
//! `u64 start + u64 count + u32 len`. It pre-sizes buffers and is the
//! "raw bytes" term of the server's compression accounting.

use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use iw_types::desc::TypeDesc;

use crate::codec::{WireError, WireReader, WireWriter};
use crate::lz;
use crate::tdesc::{decode_type, encode_type, encoded_type_len};

/// First byte of every encoded diff.
pub const V2_MAGIC: u8 = 0xD2;

/// v2 codec tag: the body follows uncompressed.
const CODEC_RAW: u8 = 0;
/// v2 codec tag: the body is LZ-compressed (`varint raw_len`,
/// `varint comp_len`, compressed bytes).
const CODEC_LZ: u8 = 1;

/// Ceiling on a v2 compressed body's declared decompressed size (1 GiB,
/// matching the WAL frame cap).
const MAX_V2_BODY: u64 = 1 << 30;

/// How to emit a [`SegmentDiff`] in the one wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffWire {
    /// Varint/delta envelope; `compress` additionally allows the
    /// adaptive LZ codec when the heuristic predicts a win.
    V2 {
        /// Permit per-diff LZ compression inside the envelope.
        compress: bool,
    },
}

impl DiffWire {
    /// The one format every link and the WAL emit
    /// ([`SegmentDiff::encode`]).
    pub const LINK: DiffWire = DiffWire::V2 { compress: true };
}

/// One run-length-encoded change within a block.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRun {
    /// Starting point of the change, in primitive data units from the
    /// beginning of the block.
    pub start: u64,
    /// Length of the change, in primitive data units.
    pub count: u64,
    /// The updated data, in wire format (`count` primitives).
    pub data: Bytes,
}

/// The diff for a single block: its serial number and RLE runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockDiff {
    /// Serial number of the block within its segment.
    pub serial: u32,
    /// Changed runs, in increasing `start` order.
    pub runs: Vec<DiffRun>,
}

impl BlockDiff {
    /// Total wire size of the run payloads in bytes — the paper's
    /// "length of the diff, measured in bytes".
    pub fn diff_len(&self) -> usize {
        self.runs.iter().map(|r| r.data.len()).sum()
    }

    /// Total number of changed primitive data units. The server adds this
    /// to its per-client counters for Diff coherence (§3.2).
    pub fn prims_changed(&self) -> u64 {
        self.runs.iter().map(|r| r.count).sum()
    }
}

/// A freshly created block travelling in a diff.
#[derive(Debug, Clone, PartialEq)]
pub struct NewBlock {
    /// Serial number assigned by the allocating client.
    pub serial: u32,
    /// Optional symbolic name.
    pub name: Option<String>,
    /// Segment-specific serial of the block's type descriptor.
    pub type_serial: u32,
    /// Number of elements of the type (blocks are allocated as `count`
    /// contiguous values, like `calloc`).
    pub count: u32,
    /// Full wire-format image of the block.
    pub data: Bytes,
}

/// Encode-once/serve-many cache riding a [`SegmentDiff`].
///
/// A diff built in memory (a client's collect, a test) starts disarmed:
/// a single `None` pointer, and [`SegmentDiff::encode`] serializes
/// afresh. A diff from [`SegmentDiff::decode`] arrives *filled* with the
/// exact envelope bytes it was decoded from, so re-sending a received
/// diff (to a reader, the WAL, a backup) forwards those bytes without
/// serializing. The server *arms* the diffs it builds itself before
/// parking them in its serve cache; in every case clones share the same
/// slot, so the first link encoding is kept and every later send of the
/// same version window is a cheap `Bytes` clone. Excluded from
/// equality: two diffs are equal when their structure is, cached bytes
/// or not.
#[derive(Debug, Clone, Default)]
pub struct EncCache(Option<Arc<OnceLock<Bytes>>>);

/// A complete wire diff for one segment version transition.
///
/// `from_version == 0` denotes a full segment transfer (the initial cache
/// fill at first lock acquisition).
#[derive(Debug, Clone, Default)]
pub struct SegmentDiff {
    /// Version the receiver must hold for the diff to apply (0 = none).
    pub from_version: u64,
    /// Version the receiver holds after applying.
    pub to_version: u64,
    /// Type descriptors not previously known to the receiver, as
    /// `(type serial, descriptor)` pairs in ascending serial order.
    pub new_types: Vec<(u32, TypeDesc)>,
    /// Blocks created in this version range.
    pub new_blocks: Vec<NewBlock>,
    /// Modified blocks and their runs.
    pub block_diffs: Vec<BlockDiff>,
    /// Serial numbers of blocks freed in this version range.
    pub freed: Vec<u32>,
    /// Shared encoded-bytes cache (see [`EncCache`]); ignored by `==`.
    pub enc: EncCache,
}

impl PartialEq for SegmentDiff {
    fn eq(&self, other: &Self) -> bool {
        self.from_version == other.from_version
            && self.to_version == other.to_version
            && self.new_types == other.new_types
            && self.new_blocks == other.new_blocks
            && self.block_diffs == other.block_diffs
            && self.freed == other.freed
    }
}

impl SegmentDiff {
    /// Whether the diff changes nothing: no new types, no new blocks, no
    /// modified blocks and no frees. A writer ships no diff for it.
    pub fn is_empty(&self) -> bool {
        self.new_types.is_empty()
            && self.new_blocks.is_empty()
            && self.block_diffs.is_empty()
            && self.freed.is_empty()
    }

    /// Total wire payload size in bytes: run data plus new-block images.
    /// This is the quantity the bandwidth experiments report.
    pub fn payload_len(&self) -> usize {
        self.block_diffs
            .iter()
            .map(BlockDiff::diff_len)
            .sum::<usize>()
            + self.new_blocks.iter().map(|b| b.data.len()).sum::<usize>()
    }

    /// Exact fixed-width size in bytes (see the module docs), including
    /// the type-descriptor section (via [`encoded_type_len`]). It
    /// pre-sizes the encode buffer and transports' message frames (the
    /// varint body rarely exceeds it), and the server uses it as the
    /// "raw bytes" term of its compression-ratio accounting.
    pub fn encoded_len_hint(&self) -> usize {
        let mut n = 8 + 8 + 4 + 4 + 4 + 4; // versions + four section counts
        for (_, ty) in &self.new_types {
            n += 4 + encoded_type_len(ty);
        }
        for b in &self.new_blocks {
            // serial + name flag (+ name) + type serial + count + data
            n += 4 + 1 + b.name.as_ref().map_or(0, |s| 4 + s.len()) + 4 + 4 + 4 + b.data.len();
        }
        for d in &self.block_diffs {
            // serial + declared len + run count, then per run start/count/data
            n += 4 + 4 + 4;
            for run in &d.runs {
                n += 8 + 8 + 4 + run.data.len();
            }
        }
        n + self.freed.len() * 4
    }

    /// Arms the encode-once cache (idempotent). The server calls this
    /// before parking a diff in its serve cache so that the diff, its
    /// cached clones, and every reply built from them share one lazily
    /// encoded copy of the link bytes.
    pub fn arm_enc_cache(&mut self) {
        if self.enc.0.is_none() {
            self.enc.0 = Some(Arc::default());
        }
    }

    /// `true` when [`SegmentDiff::encode`] would be served from the
    /// armed cache without serializing. Always `false` while disarmed.
    pub fn enc_cached(&self) -> bool {
        self.enc.0.as_ref().is_some_and(|s| s.get().is_some())
    }

    /// Serializes the diff in the link format ([`DiffWire::LINK`]).
    /// A decoded diff returns the bytes it was decoded from, whichever
    /// codec they use. With an armed cache
    /// ([`SegmentDiff::arm_enc_cache`]) the first call encodes and every
    /// later call (from any clone sharing the cache) returns the same
    /// `Bytes` for free.
    pub fn encode(&self) -> Bytes {
        match &self.enc.0 {
            Some(s) => s.get_or_init(|| self.encode_as(DiffWire::LINK)).clone(),
            None => self.encode_as(DiffWire::LINK),
        }
    }

    /// Serializes the diff afresh with the given codec choice, never
    /// through the cache: what benchmarks and format tests time and pin.
    pub fn encode_as(&self, fmt: DiffWire) -> Bytes {
        let DiffWire::V2 { compress } = fmt;
        let body = self.encode_v2_body();
        let mut w = WireWriter::with_capacity(body.len() + 12);
        w.put_u8(V2_MAGIC);
        if compress && lz::likely_compressible(&body) {
            if let Some(c) = lz::compress(&body) {
                w.put_u8(CODEC_LZ);
                w.put_varint(body.len() as u64);
                w.put_varint_bytes(&c);
                return w.finish();
            }
        }
        w.put_u8(CODEC_RAW);
        w.put_bytes(&body);
        w.finish()
    }

    fn encode_v2_body(&self) -> Bytes {
        let mut w = WireWriter::with_capacity(self.encoded_len_hint());
        w.put_varint(self.from_version);
        w.put_varint(self.to_version);
        w.put_varint(self.new_types.len() as u64);
        for (serial, ty) in &self.new_types {
            w.put_varint(u64::from(*serial));
            encode_type(&mut w, ty);
        }
        w.put_varint(self.new_blocks.len() as u64);
        for b in &self.new_blocks {
            w.put_varint(u64::from(b.serial));
            match &b.name {
                Some(n) => {
                    w.put_u8(1);
                    w.put_varint_bytes(n.as_bytes());
                }
                None => w.put_u8(0),
            }
            w.put_varint(u64::from(b.type_serial));
            w.put_varint(u64::from(b.count));
            w.put_varint_bytes(&b.data);
        }
        w.put_varint(self.block_diffs.len() as u64);
        for d in &self.block_diffs {
            w.put_varint(u64::from(d.serial));
            w.put_varint(d.runs.len() as u64);
            // Run starts are stored relative to the previous run's end;
            // signed, because chain composition may dedup runs out of
            // strictly ascending order.
            let mut cursor: u64 = 0;
            for run in &d.runs {
                w.put_svarint(run.start.wrapping_sub(cursor) as i64);
                w.put_varint(run.count);
                w.put_varint_bytes(&run.data);
                cursor = run.start.saturating_add(run.count);
            }
        }
        w.put_varint(self.freed.len() as u64);
        for s in &self.freed {
            w.put_varint(u64::from(*s));
        }
        w.finish()
    }

    /// Decodes a diff from the `0xD2` envelope. The diff's encode cache
    /// comes back filled with a zero-copy slice of exactly the envelope
    /// bytes consumed, so [`SegmentDiff::encode`] forwards them as
    /// received.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] arising from truncation, a missing magic or bad
    /// codec tag, hostile length fields, or a corrupt compressed body.
    pub fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let mut envelope = r.clone();
        let mut d = Self::decode_envelope(r)?;
        let consumed = envelope.remaining() - r.remaining();
        let bytes = envelope.get_bytes(consumed)?;
        d.enc = EncCache(Some(Arc::new(OnceLock::from(bytes))));
        Ok(d)
    }

    fn decode_envelope(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            V2_MAGIC => {}
            tag => {
                return Err(WireError::BadTag {
                    what: "diff envelope",
                    tag,
                })
            }
        }
        match r.get_u8()? {
            CODEC_RAW => Self::decode_v2_body(r),
            CODEC_LZ => {
                let raw_len = r.get_varint()?;
                if raw_len > MAX_V2_BODY {
                    return Err(WireError::LengthOverflow { len: raw_len });
                }
                let comp_len = r.get_varint()?;
                if comp_len > MAX_V2_BODY {
                    return Err(WireError::LengthOverflow { len: comp_len });
                }
                let comp = r.get_bytes(comp_len as usize)?;
                let raw = lz::decompress(&comp, raw_len as usize)?;
                let mut br = WireReader::new(Bytes::from(raw));
                let d = Self::decode_v2_body(&mut br)?;
                if !br.is_empty() {
                    return Err(WireError::BadMip(format!(
                        "v2 compressed diff body has {} trailing bytes",
                        br.remaining()
                    )));
                }
                Ok(d)
            }
            tag => Err(WireError::BadTag {
                what: "diff codec",
                tag,
            }),
        }
    }

    fn decode_v2_body(r: &mut WireReader) -> Result<Self, WireError> {
        let get_u32v = |r: &mut WireReader| -> Result<u32, WireError> {
            let v = r.get_varint()?;
            u32::try_from(v).map_err(|_| WireError::LengthOverflow { len: v })
        };
        let from_version = r.get_varint()?;
        let to_version = r.get_varint()?;
        let n_types = checked_count(r)?;
        let mut new_types = Vec::with_capacity(n_types.min(r.remaining()));
        for _ in 0..n_types {
            let serial = get_u32v(r)?;
            let ty = decode_type(r)?;
            new_types.push((serial, ty));
        }
        let n_new = checked_count(r)?;
        let mut new_blocks = Vec::with_capacity(n_new.min(r.remaining()));
        for _ in 0..n_new {
            let serial = get_u32v(r)?;
            let name = match r.get_u8()? {
                0 => None,
                1 => {
                    let b = r.get_varint_bytes()?;
                    Some(String::from_utf8(b.to_vec()).map_err(|_| WireError::InvalidUtf8)?)
                }
                tag => {
                    return Err(WireError::BadTag {
                        what: "block name flag",
                        tag,
                    })
                }
            };
            let type_serial = get_u32v(r)?;
            let count = get_u32v(r)?;
            let data = r.get_varint_bytes()?;
            new_blocks.push(NewBlock {
                serial,
                name,
                type_serial,
                count,
                data,
            });
        }
        let n_diffs = checked_count(r)?;
        let mut block_diffs = Vec::with_capacity(n_diffs.min(r.remaining()));
        for _ in 0..n_diffs {
            let serial = get_u32v(r)?;
            let n_runs = checked_count(r)?;
            let mut runs = Vec::with_capacity(n_runs.min(r.remaining()));
            let mut cursor: u64 = 0;
            for _ in 0..n_runs {
                let delta = r.get_svarint()?;
                let start = cursor.wrapping_add(delta as u64);
                let count = r.get_varint()?;
                let data = r.get_varint_bytes()?;
                cursor = start.saturating_add(count);
                runs.push(DiffRun { start, count, data });
            }
            block_diffs.push(BlockDiff { serial, runs });
        }
        let n_freed = checked_count(r)?;
        let mut freed = Vec::with_capacity(n_freed.min(r.remaining()));
        for _ in 0..n_freed {
            freed.push(get_u32v(r)?);
        }
        Ok(SegmentDiff {
            from_version,
            to_version,
            new_types,
            new_blocks,
            block_diffs,
            freed,
            enc: EncCache::default(),
        })
    }
}

/// Reads an element count, bounded so that no count alone can stand
/// for an allocation bomb (callers also clamp pre-sizing to the input).
fn checked_count(r: &mut WireReader) -> Result<usize, WireError> {
    let n = r.get_varint()?;
    if n > 1 << 24 {
        return Err(WireError::LengthOverflow { len: n });
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SegmentDiff {
        SegmentDiff {
            from_version: 3,
            to_version: 5,
            new_types: vec![(1, TypeDesc::int32()), (2, TypeDesc::string(8))],
            new_blocks: vec![NewBlock {
                serial: 10,
                name: Some("head".into()),
                type_serial: 1,
                count: 4,
                data: Bytes::from_static(&[0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4]),
            }],
            block_diffs: vec![BlockDiff {
                serial: 2,
                runs: vec![
                    DiffRun {
                        start: 0,
                        count: 1,
                        data: Bytes::from_static(&[0, 0, 0, 9]),
                    },
                    DiffRun {
                        start: 7,
                        count: 2,
                        data: Bytes::from_static(&[0, 0, 0, 1, 0, 0, 0, 2]),
                    },
                ],
            }],
            freed: vec![99, 100],
            enc: EncCache::default(),
        }
    }

    #[test]
    fn roundtrip() {
        let d = sample();
        let enc = d.encode();
        let mut r = WireReader::new(enc);
        let out = SegmentDiff::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(out, d);
    }

    #[test]
    fn lengths_and_counts() {
        let d = sample();
        assert_eq!(d.block_diffs[0].diff_len(), 12);
        assert_eq!(d.block_diffs[0].prims_changed(), 3);
        assert_eq!(d.payload_len(), 12 + 16);
    }

    #[test]
    fn len_hint_is_exact() {
        // Fixed-width sizes, section by section: versions and four
        // counts (32); int32 and string<8> descriptors with their
        // serials (6 + 10); the named new block (4 + 1 + 8 + 12 + 16);
        // the block diff (12, then 20 per run header plus 4 + 8 data);
        // two freed serials (8). Pinned against a reference encoder in
        // tests/prop_diff_v2.rs.
        assert_eq!(sample().encoded_len_hint(), 32 + 16 + 41 + 64 + 8);
        let no_types = SegmentDiff {
            new_types: Vec::new(),
            ..sample()
        };
        assert_eq!(no_types.encoded_len_hint(), 32 + 41 + 64 + 8);
        assert_eq!(SegmentDiff::default().encoded_len_hint(), 32);
    }

    #[test]
    fn v2_roundtrips_and_shrinks() {
        let d = sample();
        for fmt in [
            DiffWire::V2 { compress: false },
            DiffWire::V2 { compress: true },
        ] {
            let enc = d.encode_as(fmt);
            assert_eq!(enc[0], V2_MAGIC);
            let mut r = WireReader::new(enc.clone());
            let out = SegmentDiff::decode(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(out, d);
            assert!(
                enc.len() < d.encoded_len_hint(),
                "{fmt:?} must be smaller than the fixed-width size on this sample"
            );
        }
    }

    #[test]
    fn v2_compresses_large_low_entropy_payloads() {
        let d = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![BlockDiff {
                serial: 1,
                runs: vec![DiffRun {
                    start: 0,
                    count: 1024,
                    data: Bytes::from(vec![0u8; 4096]),
                }],
            }],
            ..Default::default()
        };
        let plain = d.encode_as(DiffWire::V2 { compress: false });
        let squeezed = d.encode_as(DiffWire::V2 { compress: true });
        assert!(squeezed.len() < plain.len() / 4);
        let mut r = WireReader::new(squeezed);
        assert_eq!(SegmentDiff::decode(&mut r).unwrap(), d);
    }

    #[test]
    fn v2_handles_non_monotonic_run_starts() {
        // Chain composition can dedup runs out of ascending order; the
        // zigzag delta encoding must survive a backwards jump.
        let d = SegmentDiff {
            from_version: 1,
            to_version: 3,
            block_diffs: vec![BlockDiff {
                serial: 4,
                runs: vec![
                    DiffRun {
                        start: 100,
                        count: 2,
                        data: Bytes::from_static(&[1; 8]),
                    },
                    DiffRun {
                        start: 0,
                        count: 1,
                        data: Bytes::from_static(&[2; 4]),
                    },
                ],
            }],
            ..Default::default()
        };
        let enc = d.encode_as(DiffWire::V2 { compress: false });
        let mut r = WireReader::new(enc);
        assert_eq!(SegmentDiff::decode(&mut r).unwrap(), d);
    }

    #[test]
    fn enc_cache_is_lazy_shared_and_ignored_by_eq() {
        let mut d = sample();
        assert!(!d.enc_cached());
        d.encode(); // disarmed: nothing retained
        assert!(!d.enc_cached());
        d.arm_enc_cache();
        let clone = d.clone();
        assert!(!d.enc_cached());
        let a = clone.encode(); // the *clone* encodes…
        assert!(d.enc_cached()); // …and the original sees it
        assert_eq!(a, d.encode());
        assert_eq!(a, d.encode_as(DiffWire::LINK));
        assert_eq!(a[0], V2_MAGIC);
        // Equality is structural, armed or not.
        assert_eq!(d, sample());
    }

    #[test]
    fn bad_codec_tag_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(V2_MAGIC);
        w.put_u8(9);
        let mut r = WireReader::new(w.finish());
        assert!(matches!(
            SegmentDiff::decode(&mut r),
            Err(WireError::BadTag {
                what: "diff codec",
                ..
            })
        ));
        // Without the magic (the fixed-width layout of an older format
        // epoch starts with a zero byte) the envelope is refused first.
        let mut r = WireReader::new(Bytes::from_static(&[0, 0, 0, 0, 0, 0, 0, 0, 9]));
        assert!(matches!(
            SegmentDiff::decode(&mut r),
            Err(WireError::BadTag {
                what: "diff envelope",
                tag: 0
            })
        ));
    }

    #[test]
    fn corrupt_compressed_body_rejected() {
        let d = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![BlockDiff {
                serial: 1,
                runs: vec![DiffRun {
                    start: 0,
                    count: 256,
                    data: Bytes::from(vec![7u8; 1024]),
                }],
            }],
            ..Default::default()
        };
        let enc = d.encode_as(DiffWire::V2 { compress: true });
        assert_eq!(enc[1], 1, "sample must actually take the LZ path");
        // Truncation anywhere inside the envelope must fail cleanly.
        for cut in 0..enc.len() {
            let mut r = WireReader::new(enc.slice(..cut));
            assert!(SegmentDiff::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_diff_roundtrips() {
        let d = SegmentDiff {
            from_version: 1,
            to_version: 1,
            ..Default::default()
        };
        let mut r = WireReader::new(d.encode());
        assert_eq!(SegmentDiff::decode(&mut r).unwrap(), d);
    }

    /// The LZ envelope declares its body's decompressed length; a body
    /// that decompresses to any other length is refused.
    #[test]
    fn declared_length_mismatch_rejected() {
        let d = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![BlockDiff {
                serial: 1,
                runs: vec![DiffRun {
                    start: 0,
                    count: 256,
                    data: Bytes::from(vec![7u8; 1024]),
                }],
            }],
            ..Default::default()
        };
        let enc = d.encode_as(DiffWire::V2 { compress: true });
        let mut r = WireReader::new(enc.slice(2..));
        let raw_len = r.get_varint().unwrap();
        let comp = r.get_varint_bytes().unwrap();
        for declared in [raw_len - 1, raw_len + 1] {
            let mut w = WireWriter::new();
            w.put_u8(V2_MAGIC);
            w.put_u8(CODEC_LZ);
            w.put_varint(declared);
            w.put_varint_bytes(&comp);
            let mut r = WireReader::new(w.finish());
            assert!(SegmentDiff::decode(&mut r).is_err(), "declared {declared}");
        }
        // Sanity: the untampered encoding still decodes.
        let mut r = WireReader::new(enc);
        assert_eq!(SegmentDiff::decode(&mut r).unwrap(), d);
    }

    /// The header of a raw envelope, then `from`/`to` varints.
    fn raw_envelope() -> WireWriter {
        let mut w = WireWriter::new();
        w.put_u8(V2_MAGIC);
        w.put_u8(CODEC_RAW);
        w.put_varint(0);
        w.put_varint(1);
        w
    }

    #[test]
    fn hostile_counts_rejected() {
        let mut w = raw_envelope();
        w.put_varint(u64::MAX); // absurd type count
        let mut r = WireReader::new(w.finish());
        assert!(matches!(
            SegmentDiff::decode(&mut r),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn bad_name_flag_rejected() {
        let mut w = raw_envelope();
        w.put_varint(0);
        w.put_varint(1); // one new block
        w.put_varint(7); // serial
        w.put_u8(9); // invalid name flag
        let mut r = WireReader::new(w.finish());
        assert!(matches!(
            SegmentDiff::decode(&mut r),
            Err(WireError::BadTag {
                what: "block name flag",
                ..
            })
        ));
    }
}
