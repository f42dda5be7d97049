//! Low-level wire codec.
//!
//! All multi-byte quantities on the wire are big-endian ("network order"),
//! floats are IEEE 754, strings are `u32` length-prefixed UTF-8. This is the
//! canonical format every InterWeave client translates its local format to
//! and from; it never depends on any machine architecture.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// An error while decoding wire-format bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the expected datum.
    UnexpectedEof {
        /// How many bytes the decoder wanted.
        wanted: usize,
        /// How many were available.
        available: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// An enumeration tag byte had no defined meaning.
    BadTag {
        /// The decoder context (e.g. `"type descriptor"`).
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A declared length exceeded a sanity bound.
    LengthOverflow {
        /// The declared length.
        len: u64,
    },
    /// A MIP string failed to parse.
    BadMip(String),
    /// A self-delimiting item was followed by bytes nothing consumes.
    TrailingBytes {
        /// How many bytes were left over.
        len: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { wanted, available } => write!(
                f,
                "unexpected end of wire data (wanted {wanted} bytes, {available} available)"
            ),
            WireError::InvalidUtf8 => f.write_str("wire string is not valid UTF-8"),
            WireError::BadTag { what, tag } => {
                write!(f, "invalid {what} tag {tag:#04x}")
            }
            WireError::LengthOverflow { len } => {
                write!(f, "declared length {len} exceeds sanity bound")
            }
            WireError::BadMip(s) => write!(f, "malformed MIP `{s}`"),
            WireError::TrailingBytes { len } => {
                write!(f, "{len} trailing bytes after the last datum")
            }
        }
    }
}

impl Error for WireError {}

/// Maximum length accepted for any single length-prefixed item (64 MiB).
/// Protects decoders from corrupt or hostile length fields.
pub const MAX_ITEM_LEN: u64 = 64 << 20;

/// An append-only wire-format writer.
///
/// # Examples
///
/// ```
/// use iw_wire::codec::{WireReader, WireWriter};
///
/// let mut w = WireWriter::new();
/// w.put_u32(7);
/// w.put_str("hello");
/// let bytes = w.finish();
///
/// let mut r = WireReader::new(bytes);
/// assert_eq!(r.get_u32()?, 7);
/// assert_eq!(r.get_str()?, "hello");
/// assert!(r.is_empty());
/// # Ok::<(), iw_wire::codec::WireError>(())
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter {
            buf: BytesMut::new(),
        }
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// Appends a big-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64(v);
    }

    /// Appends a big-endian IEEE 754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64(v);
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Appends `n` zero bytes and returns them for the caller to fill in
    /// place, so a bulk encoder writes each byte once with no per-item
    /// capacity checks.
    pub fn put_zeroed(&mut self, n: usize) -> &mut [u8] {
        let at = self.buf.len();
        self.buf.resize(at + n, 0);
        &mut self.buf[at..]
    }

    /// Appends `u32` length-prefixed raw bytes.
    pub fn put_len_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v);
    }

    /// Appends a `u32` length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_len_bytes(v.as_bytes());
    }

    /// Appends an LEB128 unsigned varint (7 data bits per byte,
    /// little-endian groups, high bit = continuation). Values below 128
    /// cost one byte; a full `u64` costs at most ten.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.put_u8((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        self.buf.put_u8(v as u8);
    }

    /// Appends a zigzag-mapped signed varint: small magnitudes of either
    /// sign encode to few bytes (`0 → 0`, `-1 → 1`, `1 → 2`, …).
    pub fn put_svarint(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends varint length-prefixed raw bytes.
    pub fn put_varint_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.put_bytes(v);
    }

    /// Finalizes the writer into immutable bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// A wire-format reader over immutable bytes.
#[derive(Debug, Clone)]
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// Wraps `buf` for reading.
    pub fn new(buf: Bytes) -> Self {
        WireReader { buf }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// `true` when all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.len() < n {
            return Err(WireError::UnexpectedEof {
                wanted: n,
                available: self.buf.len(),
            });
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when the buffer is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer than 2 bytes remain.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        self.need(2)?;
        Ok(self.buf.get_u16())
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    /// Reads a big-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer than 8 bytes remain.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_i64())
    }

    /// Reads a big-endian IEEE 754 `f64`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer than 8 bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_f64())
    }

    /// Reads `n` raw bytes (zero-copy slice of the underlying buffer).
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer than `n` bytes remain.
    pub fn get_bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        self.need(n)?;
        Ok(self.buf.split_to(n))
    }

    /// Copies exactly `dst.len()` bytes into `dst`, advancing the reader.
    /// The allocation-free fast path for bulk fixed-size decoding.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer bytes remain.
    pub fn copy_into(&mut self, dst: &mut [u8]) -> Result<(), WireError> {
        self.need(dst.len())?;
        self.buf.copy_to_slice(dst);
        Ok(())
    }

    /// Lends the next `n` bytes to `f` and then advances past them: the
    /// borrowing counterpart of [`WireReader::get_bytes`] for decoders
    /// that consume bytes in place.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer than `n` bytes remain
    /// (`f` is not called).
    pub fn with_bytes<R>(&mut self, n: usize, f: impl FnOnce(&[u8]) -> R) -> Result<R, WireError> {
        self.need(n)?;
        let out = f(&self.buf[..n]);
        self.buf.advance(n);
        Ok(out)
    }

    /// Reads `u32` length-prefixed raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] on truncation;
    /// [`WireError::LengthOverflow`] when the declared length exceeds
    /// [`MAX_ITEM_LEN`].
    pub fn get_len_bytes(&mut self) -> Result<Bytes, WireError> {
        let n = self.get_u32()?;
        if u64::from(n) > MAX_ITEM_LEN {
            return Err(WireError::LengthOverflow { len: u64::from(n) });
        }
        self.get_bytes(n as usize)
    }

    /// Lends `u32` length-prefixed raw bytes to `f` without taking a
    /// reference to the buffer: [`WireReader::get_len_bytes`] for
    /// decoders that only inspect the item.
    ///
    /// # Errors
    ///
    /// As [`WireReader::get_len_bytes`].
    pub fn with_len_bytes<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> Result<R, WireError> {
        let Some((len, item)) = self.buf.split_first_chunk::<4>() else {
            return Err(WireError::UnexpectedEof {
                wanted: 4,
                available: self.buf.len(),
            });
        };
        let n = u32::from_be_bytes(*len);
        if u64::from(n) > MAX_ITEM_LEN {
            return Err(WireError::LengthOverflow { len: u64::from(n) });
        }
        let Some(item) = item.get(..n as usize) else {
            return Err(WireError::UnexpectedEof {
                wanted: n as usize,
                available: item.len(),
            });
        };
        let out = f(item);
        self.buf.advance(4 + item.len());
        Ok(out)
    }

    /// Reads a `u32` length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// As [`WireReader::get_len_bytes`], plus [`WireError::InvalidUtf8`].
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let b = self.get_len_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }

    /// Peeks at the next byte without consuming it, or `None` at EOF.
    pub fn peek_u8(&self) -> Option<u8> {
        self.buf.first().copied()
    }

    /// Reads an LEB128 unsigned varint (see [`WireWriter::put_varint`]).
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] on truncation;
    /// [`WireError::LengthOverflow`] on an encoding longer than ten bytes
    /// or whose tenth byte carries bits a `u64` cannot hold (overlong or
    /// overflowing encodings are rejected, never wrapped).
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let b = self.get_u8()?;
            if i == 9 && b > 1 {
                return Err(WireError::LengthOverflow { len: u64::MAX });
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::LengthOverflow { len: u64::MAX })
    }

    /// Reads a zigzag-mapped signed varint (see [`WireWriter::put_svarint`]).
    ///
    /// # Errors
    ///
    /// As [`WireReader::get_varint`].
    pub fn get_svarint(&mut self) -> Result<i64, WireError> {
        let z = self.get_varint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// Reads varint length-prefixed raw bytes (zero-copy).
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] on truncation;
    /// [`WireError::LengthOverflow`] when the declared length exceeds
    /// [`MAX_ITEM_LEN`].
    pub fn get_varint_bytes(&mut self) -> Result<Bytes, WireError> {
        let n = self.get_varint()?;
        if n > MAX_ITEM_LEN {
            return Err(WireError::LengthOverflow { len: n });
        }
        self.get_bytes(n as usize)
    }
}

/// Number of bytes [`WireWriter::put_varint`] emits for `v`.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0102_0304_0506_0708);
        w.put_i64(-42);
        w.put_f64(6.5);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 6.5);
        assert!(r.is_empty());
    }

    #[test]
    fn wire_is_big_endian() {
        let mut w = WireWriter::new();
        w.put_u32(0x0102_0304);
        let b = w.finish();
        assert_eq!(&b[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn strings_and_bytes() {
        let mut w = WireWriter::new();
        w.put_str("héllo");
        w.put_len_bytes(&[9, 8, 7]);
        w.put_bytes(&[1, 2]);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(&r.get_len_bytes().unwrap()[..], &[9, 8, 7]);
        assert_eq!(&r.get_bytes(2).unwrap()[..], &[1, 2]);
    }

    #[test]
    fn eof_is_detected() {
        let mut r = WireReader::new(Bytes::from_static(&[1, 2]));
        let err = r.get_u32().unwrap_err();
        assert_eq!(
            err,
            WireError::UnexpectedEof {
                wanted: 4,
                available: 2
            }
        );
        assert!(err.to_string().contains("unexpected end"));
    }

    #[test]
    fn bad_utf8_is_detected() {
        let mut w = WireWriter::new();
        w.put_len_bytes(&[0xFF, 0xFE]);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_str().unwrap_err(), WireError::InvalidUtf8);
    }

    #[test]
    fn hostile_length_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        let mut r = WireReader::new(w.finish());
        assert!(matches!(
            r.get_len_bytes().unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn borrowed_reads_match_owned_reads() {
        let mut w = WireWriter::new();
        w.put_len_bytes(b"mip#1");
        w.put_bytes(&[7, 8]);
        w.put_len_bytes(b"");
        let bytes = w.finish();
        let (mut a, mut b) = (WireReader::new(bytes.clone()), WireReader::new(bytes));
        assert_eq!(
            b.with_len_bytes(<[u8]>::to_vec).unwrap(),
            &a.get_len_bytes().unwrap()[..]
        );
        assert_eq!(
            b.with_bytes(2, <[u8]>::to_vec).unwrap(),
            &a.get_bytes(2).unwrap()[..]
        );
        assert_eq!(b.with_len_bytes(<[u8]>::len).unwrap(), 0);
        assert!(b.is_empty());
        // Every truncation and a hostile length fail as the owned read does.
        let mut w = WireWriter::new();
        w.put_len_bytes(b"abc");
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut a = WireReader::new(bytes.slice(..cut));
            let mut b = WireReader::new(bytes.slice(..cut));
            assert_eq!(
                b.with_len_bytes(|_| ()).unwrap_err(),
                a.get_len_bytes().unwrap_err()
            );
        }
        let mut r = WireReader::new(Bytes::from(u32::MAX.to_be_bytes().to_vec()));
        assert!(matches!(
            r.with_len_bytes(|_| ()).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
        assert!(WireReader::new(Bytes::new()).with_bytes(1, |_| ()).is_err());
    }

    #[test]
    fn put_zeroed_appends_a_fillable_tail() {
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_zeroed(3).copy_from_slice(&[2, 3, 4]);
        assert_eq!(&w.finish()[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn truncated_len_bytes() {
        let mut w = WireWriter::new();
        w.put_u32(10);
        w.put_bytes(&[1, 2, 3]);
        let mut r = WireReader::new(w.finish());
        assert!(matches!(
            r.get_len_bytes().unwrap_err(),
            WireError::UnexpectedEof {
                wanted: 10,
                available: 3
            }
        ));
    }

    #[test]
    fn varint_roundtrip_and_lengths() {
        let cases = [
            (0u64, 1usize),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ];
        for (v, want_len) in cases {
            let mut w = WireWriter::new();
            w.put_varint(v);
            assert_eq!(w.len(), want_len, "encoded length of {v}");
            assert_eq!(varint_len(v), want_len, "varint_len of {v}");
            let mut r = WireReader::new(w.finish());
            assert_eq!(r.get_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn svarint_zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, 63, -64, 64, i64::MAX, i64::MIN] {
            let mut w = WireWriter::new();
            w.put_svarint(v);
            let mut r = WireReader::new(w.finish());
            assert_eq!(r.get_svarint().unwrap(), v);
        }
        // Small magnitudes of either sign stay single-byte.
        let mut w = WireWriter::new();
        w.put_svarint(-1);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn varint_overflow_and_truncation_rejected() {
        // Eleven continuation bytes: longer than any valid u64 varint.
        let mut r = WireReader::new(Bytes::from_static(&[0xFF; 11]));
        assert!(matches!(
            r.get_varint().unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
        // Tenth byte carrying bits beyond 2^64.
        let mut bytes = vec![0x80u8; 9];
        bytes.push(0x7F);
        let mut r = WireReader::new(Bytes::from(bytes));
        assert!(matches!(
            r.get_varint().unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
        // Truncated mid-varint.
        let mut r = WireReader::new(Bytes::from_static(&[0x80]));
        assert!(matches!(
            r.get_varint().unwrap_err(),
            WireError::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn varint_bytes_roundtrip_and_bounds() {
        let mut w = WireWriter::new();
        w.put_varint_bytes(&[1, 2, 3]);
        let mut r = WireReader::new(w.finish());
        assert_eq!(&r.get_varint_bytes().unwrap()[..], &[1, 2, 3]);
        let mut w = WireWriter::new();
        w.put_varint(MAX_ITEM_LEN + 1);
        let mut r = WireReader::new(w.finish());
        assert!(matches!(
            r.get_varint_bytes().unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = WireReader::new(Bytes::from_static(&[9, 8]));
        assert_eq!(r.peek_u8(), Some(9));
        assert_eq!(r.get_u8().unwrap(), 9);
        assert_eq!(r.peek_u8(), Some(8));
        assert_eq!(r.get_u8().unwrap(), 8);
        assert_eq!(r.peek_u8(), None);
    }

    #[test]
    fn writer_capacity_and_len() {
        let mut w = WireWriter::with_capacity(64);
        assert!(w.is_empty());
        w.put_u8(1);
        assert_eq!(w.len(), 1);
    }
}
