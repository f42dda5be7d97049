//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors the small slice of `bytes` it actually uses: a cheaply
//! cloneable immutable byte buffer ([`Bytes`]), a growable builder
//! ([`BytesMut`]), and the [`Buf`]/[`BufMut`] cursor traits with big-endian
//! accessors. Semantics match the upstream crate for this subset (panics on
//! out-of-range reads, zero-copy `slice`/`split_to` sharing one allocation).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, contiguous, immutable slice of memory.
///
/// Backed by `Arc<Vec<u8>>` rather than `Arc<[u8]>` so that
/// `Bytes::from(Vec<u8>)` (and therefore [`BytesMut::freeze`]) adopts the
/// vector's allocation instead of copying it — the hot translation paths
/// finalize multi-megabyte wire buffers and must not pay a copy (plus the
/// page faults of a second fresh allocation) per diff.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Creates `Bytes` from a static slice (copied once into shared storage).
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes {
            data: Arc::new(s.to_vec()),
            start: 0,
            end: s.len(),
        }
    }

    /// Copies `s` into a new `Bytes`.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes {
            data: Arc::new(s.to_vec()),
            start: 0,
            end: s.len(),
        }
    }

    /// Number of bytes in view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a view of `self` for the given subrange, sharing storage.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds for {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `n` bytes, advancing `self` past them.
    ///
    /// # Panics
    ///
    /// Panics when `n > self.len()`.
    pub fn split_to(&mut self, n: usize) -> Self {
        assert!(
            n <= self.len(),
            "split_to {n} out of bounds for {}",
            self.len()
        );
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Zero-copy: adopts the vector's allocation (excess capacity and all).
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer; finalize with [`BytesMut::freeze`].
#[derive(Debug, Default, Clone)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// Creates an empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
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

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Resizes to `new_len` bytes, filling any new tail with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

/// Read cursor over a byte source; all multi-byte reads are big-endian.
///
/// Every accessor advances the cursor and panics when fewer bytes remain
/// than requested, matching the upstream `bytes::Buf` contract.
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;

    /// Copies `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Reads a big-endian `i64`.
    fn get_i64(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_be_bytes(b)
    }

    /// Reads a big-endian IEEE 754 `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "buffer underflow");
        dst.copy_from_slice(&self.as_slice()[..dst.len()]);
        self.start += dst.len();
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        self.start += cnt;
    }
}

/// Write cursor; all multi-byte writes are big-endian.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, s: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i64`.
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian IEEE 754 `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_split_share_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let mut rest = b.slice(..);
        let head = rest.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&rest[..], &[3, 4, 5]);
    }

    #[test]
    fn buf_reads_big_endian() {
        let mut b = Bytes::from(vec![0, 0, 1, 2, 0xFF]);
        assert_eq!(b.get_u32(), 0x0102);
        assert_eq!(b.get_u8(), 0xFF);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn bufmut_writes_big_endian() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u16(0x0102);
        m.put_u8(3);
        let b = m.freeze();
        assert_eq!(&b[..], &[1, 2, 3]);
    }
}
