//! Differential battery for the LZ codec.
//!
//! The oracle below is the codec's first, byte-at-a-time form: a match
//! found through a per-byte 4-byte hash read and extended one byte at a
//! time, and a decoder that copies every match byte by byte. The codec
//! in `iw_wire::lz` loads words and copies in blocks; it must choose
//! exactly the same matches, so its compressed bytes are identical to
//! the oracle's, and decode every stream (well-formed or hostile) to the
//! same output or the same refusal.

use bytes::Bytes;
use iw_wire::codec::WireError;
use iw_wire::diff::{BlockDiff, DiffRun, DiffWire, SegmentDiff};
use iw_wire::lz::{compress, decompress};
use proptest::prelude::*;

mod oracle {
    use iw_wire::codec::WireError;

    const MIN_MATCH: usize = 4;
    const HASH_BITS: u32 = 12;
    const MAX_DECOMPRESSED: usize = 1 << 30;

    pub fn hash4(src: &[u8], i: usize) -> usize {
        let v = u32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]]);
        (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
    }

    fn put_ext_len(out: &mut Vec<u8>, mut n: usize) {
        while n >= 255 {
            out.push(255);
            n -= 255;
        }
        out.push(n as u8);
    }

    fn put_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
        let lit_nib = literals.len().min(15) as u8;
        let match_nib = m.map_or(0, |(mlen, _)| (mlen - MIN_MATCH).min(15) as u8);
        out.push((lit_nib << 4) | match_nib);
        if literals.len() >= 15 {
            put_ext_len(out, literals.len() - 15);
        }
        out.extend_from_slice(literals);
        if let Some((mlen, offset)) = m {
            out.extend_from_slice(&(offset as u16).to_be_bytes());
            if mlen - MIN_MATCH >= 15 {
                put_ext_len(out, mlen - MIN_MATCH - 15);
            }
        }
    }

    pub fn compress(src: &[u8]) -> Option<Vec<u8>> {
        if src.len() < MIN_MATCH + 1 {
            return None;
        }
        let mut out = Vec::with_capacity(src.len());
        let mut table = vec![u32::MAX; 1 << HASH_BITS];
        let mut anchor = 0usize;
        let mut i = 0usize;
        let end = src.len() - MIN_MATCH;
        while i <= end {
            let h = hash4(src, i);
            let cand = table[h] as usize;
            table[h] = i as u32;
            let found = cand != u32::MAX as usize
                && i - cand <= u16::MAX as usize
                && i != cand
                && src[cand..cand + MIN_MATCH] == src[i..i + MIN_MATCH];
            if !found {
                i += 1;
                continue;
            }
            let mut mlen = MIN_MATCH;
            while i + mlen < src.len() && src[cand + mlen] == src[i + mlen] {
                mlen += 1;
            }
            put_sequence(&mut out, &src[anchor..i], Some((mlen, i - cand)));
            if out.len() >= src.len() {
                return None;
            }
            i += mlen;
            anchor = i;
        }
        if anchor < src.len() {
            put_sequence(&mut out, &src[anchor..], None);
        }
        (out.len() < src.len()).then_some(out)
    }

    fn get_ext_len(src: &[u8], pos: &mut usize) -> Result<usize, WireError> {
        let mut n = 0usize;
        loop {
            let b = *src.get(*pos).ok_or(WireError::UnexpectedEof {
                wanted: *pos + 1,
                available: src.len(),
            })?;
            *pos += 1;
            n += b as usize;
            if b != 255 {
                return Ok(n);
            }
            if n > MAX_DECOMPRESSED {
                return Err(WireError::LengthOverflow { len: n as u64 });
            }
        }
    }

    pub fn decompress(src: &[u8], expected_len: usize) -> Result<Vec<u8>, WireError> {
        if expected_len > MAX_DECOMPRESSED {
            return Err(WireError::LengthOverflow {
                len: expected_len as u64,
            });
        }
        let mut out = Vec::with_capacity(expected_len.min(src.len().saturating_mul(256)));
        let mut pos = 0usize;
        let eof = |wanted: usize| WireError::UnexpectedEof {
            wanted,
            available: src.len(),
        };
        while pos < src.len() {
            let token = src[pos];
            pos += 1;
            let mut lit = (token >> 4) as usize;
            if lit == 15 {
                lit += get_ext_len(src, &mut pos)?;
            }
            if pos + lit > src.len() {
                return Err(eof(pos + lit));
            }
            out.extend_from_slice(&src[pos..pos + lit]);
            pos += lit;
            if out.len() > expected_len {
                return Err(WireError::LengthOverflow {
                    len: out.len() as u64,
                });
            }
            if pos == src.len() {
                break;
            }
            if pos + 2 > src.len() {
                return Err(eof(pos + 2));
            }
            let offset = u16::from_be_bytes([src[pos], src[pos + 1]]) as usize;
            pos += 2;
            let mut mlen = (token & 0x0F) as usize + MIN_MATCH;
            if mlen - MIN_MATCH == 15 {
                mlen += get_ext_len(src, &mut pos)?;
            }
            if offset == 0 || offset > out.len() {
                return Err(WireError::BadTag {
                    what: "lz back-reference offset",
                    tag: (offset & 0xFF) as u8,
                });
            }
            if out.len() + mlen > expected_len {
                return Err(WireError::LengthOverflow {
                    len: (out.len() + mlen) as u64,
                });
            }
            let start = out.len() - offset;
            for k in 0..mlen {
                let b = out[start + k];
                out.push(b);
            }
        }
        if out.len() != expected_len {
            return Err(WireError::UnexpectedEof {
                wanted: expected_len,
                available: out.len(),
            });
        }
        Ok(out)
    }
}

/// `WireError` has no `PartialEq`; its rendering names the variant and
/// every field, so equal strings mean equal refusals.
fn render(r: Result<Vec<u8>, WireError>) -> Result<Vec<u8>, String> {
    r.map_err(|e| format!("{e:?}"))
}

/// Compresses with both codecs and requires identical bytes; a stream
/// that came out must decode back to `src` under both decoders.
fn check_same(src: &[u8]) {
    let ours = compress(src);
    assert_eq!(ours, oracle::compress(src), "compressed bytes differ");
    if let Some(c) = ours {
        assert_eq!(decompress(&c, src.len()).expect("decode"), src);
        assert_eq!(oracle::decompress(&c, src.len()).expect("oracle"), src);
    }
}

/// Inputs with long, short, overlapping and far matches, plus noise.
fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        prop::collection::vec(any::<u8>(), 0..40),
        (any::<u8>(), 1usize..600).prop_map(|(b, n)| vec![b; n]),
        (prop::collection::vec(any::<u8>(), 1..17), 1usize..400).prop_map(|(p, n)| p
            .iter()
            .copied()
            .cycle()
            .take(n)
            .collect()),
        (0u32..8, 1usize..256).prop_map(|(k, n)| (0..n as u32)
            .flat_map(|v| (v % (k + 2)).to_be_bytes())
            .collect()),
    ];
    prop::collection::vec(piece, 1..8).prop_map(|ps| ps.concat())
}

proptest! {
    #[test]
    fn compress_matches_oracle(src in arb_input()) {
        check_same(&src);
    }

    /// Random streams, mostly hostile: both decoders produce the same
    /// output or the same refusal.
    #[test]
    fn decompress_matches_oracle_on_any_stream(
        stream in prop::collection::vec(any::<u8>(), 0..200),
        expected in 0usize..2000,
    ) {
        prop_assert_eq!(
            render(decompress(&stream, expected)),
            render(oracle::decompress(&stream, expected))
        );
    }

    /// A well-formed stream with a tail cut or a byte flipped.
    #[test]
    fn decompress_matches_oracle_on_damaged_streams(
        src in arb_input(),
        pos_seed in any::<u64>(),
        flip in any::<u8>(),
        cut in any::<bool>(),
    ) {
        if let Some(c) = compress(&src) {
            let pos = (pos_seed % c.len() as u64) as usize;
            let mut bad = c.clone();
            if cut {
                bad.truncate(pos);
            } else {
                bad[pos] ^= flip;
            }
            prop_assert_eq!(
                render(decompress(&bad, src.len())),
                render(oracle::decompress(&bad, src.len()))
            );
        }
    }
}

/// Every self-overlapping offset the block copy can meet, at every match
/// length up to 300 (across the 15-nibble and 255-extension steps).
#[test]
fn every_overlapping_offset_and_length() {
    for offset in 1usize..=16 {
        let lit: Vec<u8> = (0..offset as u8)
            .map(|b| b.wrapping_mul(37) ^ 0x5A)
            .collect();
        for mlen in 4usize..=300 {
            // Hand-built stream: `offset` literals, then one match
            // `offset` back of `mlen` bytes.
            let mut stream = Vec::new();
            let match_nib = (mlen - 4).min(15) as u8;
            stream.push(((offset as u8).min(15) << 4) | match_nib);
            if offset >= 15 {
                stream.push(offset as u8 - 15);
            }
            stream.extend_from_slice(&lit);
            stream.extend_from_slice(&(offset as u16).to_be_bytes());
            if mlen - 4 >= 15 {
                let mut n = mlen - 4 - 15;
                while n >= 255 {
                    stream.push(255);
                    n -= 255;
                }
                stream.push(n as u8);
            }
            let want: Vec<u8> = lit.iter().copied().cycle().take(offset + mlen).collect();
            let got = decompress(&stream, want.len()).expect("decode");
            assert_eq!(got, want, "offset {offset} len {mlen}");
            assert_eq!(
                oracle::decompress(&stream, want.len()).expect("oracle"),
                want
            );
            // The same periodic bytes through both compressors.
            check_same(&want);
        }
    }
}

/// A match exactly at the edge of the 64 KiB window, one byte inside
/// it and one byte past it. The filler between the two copies of the
/// pattern compresses (so the result is not `None` either way) and no
/// 4-byte window of the input other than the two copies hashes to the
/// pattern's slot, so the first copy is still the candidate when the
/// second is reached.
#[test]
fn window_edge_matches_oracle() {
    let pattern = *b"EDGE";
    let slot = oracle::hash4(&pattern, 0);
    for dist in [65_534usize, 65_535, 65_536] {
        let src = (b'a'..=b'z')
            .flat_map(|a| (b'a'..=b'z').map(move |b| [a, b, b'.']))
            .map(|cycle| {
                let mut src = pattern.to_vec();
                src.extend(cycle.iter().copied().cycle().take(dist - 4));
                src.extend_from_slice(&pattern);
                src
            })
            .find(|src| (1..dist).all(|i| oracle::hash4(src, i) != slot))
            .expect("a filler that avoids the pattern's slot");
        let ours = compress(&src).expect("the filler compresses");
        assert_eq!(Some(ours), oracle::compress(&src), "distance {dist}");
    }
}

/// The module's own sample payloads and the v2 bodies of full-dirty
/// diffs shaped like the Figure 4 mixes.
#[test]
fn corpora_match_oracle() {
    let mut corpus: Vec<Vec<u8>> = vec![
        vec![0u8; 4096],
        (0..2048u32).flat_map(|v| (v % 5).to_be_bytes()).collect(),
        b"hello interweave wire diff "
            .iter()
            .copied()
            .cycle()
            .take(2000)
            .collect(),
        {
            let mut v = vec![7u8; 1000];
            v[0] = 3;
            v
        },
        b"abcdabcdabcdabcdabcdabcd".to_vec(),
        vec![5u8; 300],
    ];
    let mut x = 0x12345678u32;
    corpus.push(
        (0..2048)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect(),
    );
    let ints: Vec<u8> = (0..16_384u32).flat_map(|v| v.to_be_bytes()).collect();
    let doubles: Vec<u8> = (0..8_192u32)
        .flat_map(|v| (f64::from(v) * 1.5).to_be_bytes())
        .collect();
    let structs: Vec<u8> = (0..4_096u32)
        .flat_map(|v| {
            let mut rec = v.to_be_bytes().to_vec();
            rec.extend_from_slice(&(f64::from(v) / 3.0).to_be_bytes());
            rec
        })
        .collect();
    let strings: Vec<u8> = (0..2_048u32)
        .flat_map(|v| {
            let s = format!("name-{v:05}");
            let mut rec = (s.len() as u32).to_be_bytes().to_vec();
            rec.extend_from_slice(s.as_bytes());
            rec
        })
        .collect();
    for payload in [ints, doubles, structs, strings] {
        let count = payload.len() as u64 / 4;
        let d = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![BlockDiff {
                serial: 0,
                runs: vec![DiffRun {
                    start: 0,
                    count,
                    data: Bytes::from(payload),
                }],
            }],
            ..Default::default()
        };
        corpus.push(d.encode_as(DiffWire::V2 { compress: false })[2..].to_vec());
    }
    for src in &corpus {
        check_same(src);
    }
}
