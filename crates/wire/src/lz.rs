//! Dependency-free LZ77 byte compressor for diff payloads.
//!
//! The format is LZ4-block-shaped: a stream of sequences, each a token
//! byte (high nibble = literal length, low nibble = match length − 4,
//! value 15 in either nibble means "more length bytes follow, 255 per
//! byte"), the literals, then a big-endian `u16` back-reference offset
//! (1..=65535). The final sequence is literals-only — the decoder stops
//! when input is exhausted after copying literals. Matches are found
//! greedily through a 4-byte rolling hash table; compression aborts
//! early ([`compress`] returns `None`) the moment output would reach
//! input size, so callers only ever ship a compressed body that is a
//! strict win.
//!
//! This is a private transport codec, not an interchange format: both
//! sides of the wire are this module (every link may carry it), and
//! the decompressor is fully bounds-checked against hostile input
//! (bad offsets, declared-length mismatches, output bombs).

use crate::codec::WireError;

/// Minimum back-reference length worth encoding (the token's match
/// nibble stores `len - MIN_MATCH`).
const MIN_MATCH: usize = 4;

/// log2 of the match-finder hash table size. 4096 entries keeps the
/// table cache-resident while still finding nearly all repeats within
/// the 64 KiB offset window on diff-sized payloads.
const HASH_BITS: u32 = 12;

/// The 4 bytes at `src[i..i+4]` as one little-endian load.
#[inline]
fn load32(src: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(src[i..i + 4].try_into().expect("4 bytes"))
}

/// The 8 bytes at `src[i..i+8]` as one little-endian load.
#[inline]
fn load64(src: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(src[i..i + 8].try_into().expect("8 bytes"))
}

/// Hashes a 4-byte load into a table index.
#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Length of the match at `i` against the earlier `cand`, whose first
/// [`MIN_MATCH`] bytes are known equal, extended to the end of `src`.
/// Compares 8 bytes per step: the first differing byte of a
/// little-endian load is the lowest nonzero byte of the XOR.
#[inline]
fn match_len(src: &[u8], cand: usize, i: usize) -> usize {
    let mut n = MIN_MATCH;
    while i + n + 8 <= src.len() {
        let x = load64(src, cand + n) ^ load64(src, i + n);
        if x != 0 {
            return n + (x.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while i + n < src.len() && src[cand + n] == src[i + n] {
        n += 1;
    }
    n
}

/// Appends an LZ length (token nibble already holds `min(n, 15)`) as
/// 255-run extension bytes when `n >= 15`.
fn put_ext_len(out: &mut Vec<u8>, mut n: usize) {
    while n >= 255 {
        out.push(255);
        n -= 255;
    }
    out.push(n as u8);
}

/// Emits one sequence: `literals` then, unless this is the final
/// sequence, a match of `mlen` bytes at `offset` back.
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

/// Compresses `src`, or returns `None` when the result would be no
/// smaller than the input (including all incompressible and tiny
/// inputs). The encoder aborts as soon as output size catches up with
/// input size, so a `None` costs at most one wasted pass.
pub fn compress(src: &[u8]) -> Option<Vec<u8>> {
    if src.len() < MIN_MATCH + 1 {
        return None;
    }
    let mut out = Vec::with_capacity(src.len());
    // A fixed-size array, so the hashed index needs no bounds check.
    let mut table = [u32::MAX; 1 << HASH_BITS];
    let mut anchor = 0usize; // start of pending literals
    let mut i = 0usize;
    // Leave room so hash4/match extension never read past the end.
    let end = src.len() - MIN_MATCH;
    while i <= end {
        let v = load32(src, i);
        let h = hash4(v);
        let cand = table[h] as usize;
        table[h] = i as u32;
        // A candidate is an earlier position 1..=65535 bytes back; the
        // empty-slot marker wraps to a huge distance.
        let dist = i.wrapping_sub(cand);
        let found = dist.wrapping_sub(1) < u16::MAX as usize && load32(src, cand) == v;
        if !found {
            i += 1;
            continue;
        }
        let mlen = match_len(src, cand, i);
        put_sequence(&mut out, &src[anchor..i], Some((mlen, i - cand)));
        if out.len() >= src.len() {
            return None;
        }
        i += mlen;
        anchor = i;
    }
    // No empty trailing sequence: a stream may end at a match boundary,
    // so every emitted byte stays load-bearing under truncation.
    if anchor < src.len() {
        put_sequence(&mut out, &src[anchor..], None);
    }
    (out.len() < src.len()).then_some(out)
}

/// Reads an extended length run (`255*` then a terminator byte).
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

/// Bytes a short literal or match copy moves at once in [`decompress`].
const WILD: usize = 16;

/// Hard ceiling on a single decompressed payload (1 GiB) — backstop
/// against corrupt extension-length runs before the `expected_len`
/// check can engage.
const MAX_DECOMPRESSED: usize = 1 << 30;

/// Decompresses `src` into exactly `expected_len` bytes.
///
/// # Errors
///
/// [`WireError`] on any malformed stream: truncated sequences, an
/// offset of zero or beyond the bytes produced so far, or output that
/// over- or under-runs `expected_len`. Never reads or writes out of
/// bounds.
pub fn decompress(src: &[u8], expected_len: usize) -> Result<Vec<u8>, WireError> {
    if expected_len > MAX_DECOMPRESSED {
        return Err(WireError::LengthOverflow {
            len: expected_len as u64,
        });
    }
    let mut out = Vec::with_capacity(expected_len.min(src.len().saturating_mul(256)) + WILD);
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
        let op = out.len();
        if op + lit > expected_len {
            return Err(WireError::LengthOverflow {
                len: (op + lit) as u64,
            });
        }
        // Short copies move a fixed `WILD` bytes and cut the excess off
        // again: one inline copy instead of a length-dependent one.
        if lit <= WILD && pos + WILD <= src.len() {
            out.extend_from_slice(&src[pos..pos + WILD]);
            out.truncate(op + lit);
        } else {
            out.extend_from_slice(&src[pos..pos + lit]);
        }
        pos += lit;
        if pos == src.len() {
            break; // final, literals-only sequence
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
        let op = out.len();
        if offset == 0 || offset > op {
            return Err(WireError::BadTag {
                what: "lz back-reference offset",
                tag: (offset & 0xFF) as u8,
            });
        }
        if op + mlen > expected_len {
            return Err(WireError::LengthOverflow {
                len: (op + mlen) as u64,
            });
        }
        let start = op - offset;
        if mlen <= WILD && offset >= WILD {
            out.extend_from_within(start..start + WILD);
            out.truncate(op + mlen);
            continue;
        }
        // A match may overlap its own output (RLE-style): the bytes from
        // `start` on repeat with period `offset`, so each step copies all
        // of them written so far (one copy when the match does not
        // overlap), doubling the span until the match is done.
        let mut left = mlen;
        while left > 0 {
            let n = left.min(out.len() - start);
            out.extend_from_within(start..start + n);
            left -= n;
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

/// Payloads below this size never engage compression: the codec tag and
/// length headers eat any plausible win and the entropy sample is too
/// small to mean anything.
pub const MIN_COMPRESS_LEN: usize = 64;

/// Cheap pre-filter: samples up to 512 evenly-strided bytes and
/// estimates Shannon entropy over the sample. Returns `false` for
/// payloads that look incompressible (near-random bytes, already
/// compressed or encrypted data) so [`compress`]'s full pass is only
/// spent where a win is plausible. High-entropy false negatives merely
/// cost ratio, never correctness.
pub fn likely_compressible(data: &[u8]) -> bool {
    if data.len() < MIN_COMPRESS_LEN {
        return false;
    }
    const SAMPLES: usize = 512;
    let stride = (data.len() / SAMPLES).max(1);
    let mut hist = [0u32; 256];
    let mut n = 0u32;
    let mut i = 0;
    while i < data.len() && (n as usize) < SAMPLES {
        hist[data[i] as usize] += 1;
        n += 1;
        i += stride;
    }
    let mut entropy = 0.0f64;
    for &c in &hist {
        if c > 0 {
            let p = f64::from(c) / f64::from(n);
            entropy -= p * p.log2();
        }
    }
    entropy < 7.2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &[u8]) -> bool {
        match compress(src) {
            Some(c) => {
                assert!(c.len() < src.len(), "compressed output must shrink");
                assert_eq!(decompress(&c, src.len()).unwrap(), src);
                true
            }
            None => false,
        }
    }

    #[test]
    fn compressible_payloads_roundtrip_and_shrink() {
        assert!(roundtrip(&[0u8; 4096]));
        // Struct-shaped data: a small field cycling inside zero padding,
        // like sparse dirty runs of big-endian integers.
        let records: Vec<u8> = (0..2048u32).flat_map(|v| (v % 5).to_be_bytes()).collect();
        assert!(roundtrip(&records));
        let repeats: Vec<u8> = b"hello interweave wire diff "
            .iter()
            .copied()
            .cycle()
            .take(2000)
            .collect();
        assert!(roundtrip(&repeats));
    }

    #[test]
    fn overlapping_match_rle_roundtrips() {
        // A long run compresses to a self-overlapping match (offset 1).
        let mut v = vec![7u8; 1000];
        v[0] = 3;
        assert!(roundtrip(&v));
    }

    #[test]
    fn incompressible_input_returns_none() {
        // A permutation of 0..=255 repeated twice has no 4-byte repeats
        // close enough to win; a pseudo-random stream surely doesn't.
        let mut x = 0x12345678u32;
        let noise: Vec<u8> = (0..2048)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        assert_eq!(compress(&noise), None);
        assert_eq!(compress(b"tiny"), None);
        assert_eq!(compress(b""), None);
    }

    #[test]
    fn decompress_rejects_bad_offsets() {
        // Token: 1 literal, match nibble 0 (match len 4), offset 0.
        let stream = [0x10, b'a', 0x00, 0x00, 0x00];
        assert!(matches!(
            decompress(&stream, 5),
            Err(WireError::BadTag { .. })
        ));
        // Offset beyond bytes produced so far.
        let stream = [0x10, b'a', 0x00, 0x09, 0x00];
        assert!(matches!(
            decompress(&stream, 5),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn decompress_rejects_truncation_everywhere() {
        let src: Vec<u8> = b"abcdabcdabcdabcdabcdabcd".to_vec();
        let c = compress(&src).unwrap();
        for cut in 0..c.len() {
            assert!(
                decompress(&c[..cut], src.len()).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn decompress_rejects_wrong_expected_len() {
        let src = vec![5u8; 300];
        let c = compress(&src).unwrap();
        assert!(decompress(&c, 299).is_err());
        assert!(decompress(&c, 301).is_err());
        assert!(decompress(&c, 0).is_err());
    }

    #[test]
    fn decompress_bounds_output_bombs() {
        assert!(matches!(
            decompress(&[0x00], MAX_DECOMPRESSED + 1),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn heuristic_separates_structured_from_random() {
        let zeros = vec![0u8; 1024];
        assert!(likely_compressible(&zeros));
        let structured: Vec<u8> = (0..512u32).flat_map(|v| v.to_be_bytes()).collect();
        assert!(likely_compressible(&structured));
        let mut x = 0x9E3779B9u32;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        assert!(!likely_compressible(&noise));
        assert!(!likely_compressible(&[1, 2, 3]));
    }
}
