//! Log-record framing for the durable diff store (`iw-durable`).
//!
//! A write-ahead log is a byte stream that must survive being cut at an
//! arbitrary point (`kill -9` mid-`write`), so every record travels in a
//! self-checking frame:
//!
//! ```text
//! u32 len   — byte length of kind+body
//! u32 crc   — CRC-32 (IEEE) over kind+body
//! u8  kind  — record discriminator (owned by the log's user)
//! body      — len-1 bytes, opaque to the framing layer
//! ```
//!
//! [`FrameReader`] walks a buffer frame by frame and classifies the first
//! defect it meets as either a **torn tail** (the stream ends inside a
//! frame — the normal result of a crash mid-append, recovered by
//! truncation) or **corruption** (a CRC or length-field mismatch on a
//! complete frame — bit rot or a misdirected write, reported loudly).
//! Either way scanning stops at the defect: nothing after the first bad
//! record is trusted, because record boundaries downstream of it are
//! unknowable.
//!
//! The framing knows nothing about what the records mean; `iw-durable`
//! layers segment-diff records on top.

/// Upper bound on one frame's `len` field. Nothing legitimate comes close
/// (the largest payload is one segment diff); anything larger is treated
/// as corruption rather than a reason to wait for gigabytes of "body".
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Bytes of framing overhead per record (len + crc fields).
pub const FRAME_HEADER_LEN: usize = 8;

/// Slicing-by-8 CRC-32 tables, built at compile time. `CRC_TABLES[0]` is
/// the classic bytewise table; `CRC_TABLES[k][i]` is the CRC state after
/// byte `i` is followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the classic
/// zlib/gzip checksum, computed eight bytes at a time (slicing-by-8).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_continue(0, bytes)
}

/// Continues a CRC-32 over more bytes: `crc32_continue(crc32(a), b)`
/// equals `crc32` of `a` followed by `b`, so parts of a record need not
/// be copied into one buffer just to checksum them.
pub fn crc32_continue(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Frames one record (`kind` + `body`) for appending to a log.
pub fn encode_frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let len = (body.len() + 1) as u32;
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + 1 + body.len());
    out.extend_from_slice(&len.to_be_bytes());
    let crc = crc32_continue(crc32(&[kind]), body);
    out.extend_from_slice(&crc.to_be_bytes());
    out.push(kind);
    out.extend_from_slice(body);
    out
}

/// Why a [`FrameReader`] stopped before the end of its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDefect {
    /// The buffer ends inside a frame (header or body cut short): the
    /// expected result of a crash mid-append. Recovery truncates here.
    TornTail,
    /// A complete frame failed its CRC, or a length field is absurd:
    /// corruption rather than a torn write.
    Corrupt,
}

impl std::fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDefect::TornTail => write!(f, "torn tail (stream ends mid-frame)"),
            FrameDefect::Corrupt => write!(f, "corrupt frame (crc or length mismatch)"),
        }
    }
}

/// One decoded frame: its kind byte, body, and the byte offset of the
/// *end* of the frame (i.e. where the valid prefix of the log extends to
/// if this is the last good record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Record discriminator.
    pub kind: u8,
    /// Record body (opaque to the framing layer).
    pub body: &'a [u8],
    /// Offset one past this frame in the scanned buffer.
    pub end: usize,
}

/// Sequential frame scanner over an in-memory log image.
#[derive(Debug)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    defect: Option<FrameDefect>,
}

impl<'a> FrameReader<'a> {
    /// Scans `buf` from its first byte (callers strip any file header
    /// first).
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader {
            buf,
            pos: 0,
            defect: None,
        }
    }

    /// Current offset: end of the last good frame (the truncation point
    /// when a defect stopped the scan).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The defect that stopped the scan, if any.
    pub fn defect(&self) -> Option<FrameDefect> {
        self.defect
    }

    /// Returns the next frame, or `None` at the end of the valid prefix.
    /// After the first defect every further call returns `None`; consult
    /// [`FrameReader::defect`] to distinguish a clean end from a stop.
    #[allow(clippy::should_implement_trait)] // borrow of self.buf: not an Iterator
    pub fn next(&mut self) -> Option<Frame<'a>> {
        if self.defect.is_some() || self.pos == self.buf.len() {
            return None;
        }
        let rest = &self.buf[self.pos..];
        if rest.len() < FRAME_HEADER_LEN {
            self.defect = Some(FrameDefect::TornTail);
            return None;
        }
        let len = u32::from_be_bytes(rest[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_be_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            self.defect = Some(FrameDefect::Corrupt);
            return None;
        }
        let total = FRAME_HEADER_LEN + len as usize;
        if rest.len() < total {
            self.defect = Some(FrameDefect::TornTail);
            return None;
        }
        let payload = &rest[FRAME_HEADER_LEN..total];
        if crc32(payload) != crc {
            self.defect = Some(FrameDefect::Corrupt);
            return None;
        }
        self.pos += total;
        Some(Frame {
            kind: payload[0],
            body: &payload[1..],
            end: self.pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_continue_matches_one_shot() {
        let all = b"abcdefgh";
        for split in 0..all.len() {
            let c = crc32(&all[..split]);
            assert_eq!(crc32_continue(c, &all[split..]), crc32(all));
        }
    }

    fn log_of(records: &[(u8, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for (kind, body) in records {
            out.extend_from_slice(&encode_frame(*kind, body));
        }
        out
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let log = log_of(&[(1, b"hello"), (2, b""), (7, &[0xFF; 300])]);
        let mut r = FrameReader::new(&log);
        let f = r.next().unwrap();
        assert_eq!((f.kind, f.body), (1, &b"hello"[..]));
        let f = r.next().unwrap();
        assert_eq!((f.kind, f.body), (2, &b""[..]));
        let f = r.next().unwrap();
        assert_eq!(f.kind, 7);
        assert_eq!(f.body.len(), 300);
        assert_eq!(f.end, log.len());
        assert!(r.next().is_none());
        assert_eq!(r.defect(), None);
        assert_eq!(r.offset(), log.len());
    }

    #[test]
    fn torn_tail_truncates_cleanly() {
        let log = log_of(&[(1, b"first"), (2, b"second")]);
        let first_end = encode_frame(1, b"first").len();
        // Every cut inside the second frame yields exactly the first
        // record and a TornTail defect at the first frame's end.
        for cut in first_end + 1..log.len() {
            let mut r = FrameReader::new(&log[..cut]);
            assert!(r.next().is_some());
            assert!(r.next().is_none());
            assert_eq!(r.defect(), Some(FrameDefect::TornTail), "cut at {cut}");
            assert_eq!(r.offset(), first_end);
        }
    }

    #[test]
    fn bit_flip_detected_as_corrupt() {
        let log = log_of(&[(1, b"payload-bytes")]);
        // Flip every bit position in turn; the frame must never decode
        // to different contents without being flagged.
        for pos in 0..log.len() {
            for bit in 0..8 {
                let mut bad = log.clone();
                bad[pos] ^= 1 << bit;
                let mut r = FrameReader::new(&bad);
                match r.next() {
                    None => assert!(r.defect().is_some(), "flip at {pos}:{bit} undetected"),
                    Some(f) => panic!("flip at {pos}:{bit} decoded as {:?}", f.kind),
                }
            }
        }
    }

    #[test]
    fn absurd_length_is_corrupt_not_torn() {
        let mut log = encode_frame(1, b"x");
        log[0..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let mut r = FrameReader::new(&log);
        assert!(r.next().is_none());
        assert_eq!(r.defect(), Some(FrameDefect::Corrupt));
    }

    #[test]
    fn nothing_after_first_defect_is_trusted() {
        let mut log = log_of(&[(1, b"good"), (2, b"bad"), (3, b"unreachable")]);
        let first_end = encode_frame(1, b"good").len();
        log[first_end + FRAME_HEADER_LEN + 1] ^= 0x01; // corrupt record 2's body
        let mut r = FrameReader::new(&log);
        assert_eq!(r.next().unwrap().kind, 1);
        assert!(r.next().is_none());
        assert_eq!(r.defect(), Some(FrameDefect::Corrupt));
        assert!(r.next().is_none(), "scan must stay stopped");
        assert_eq!(r.offset(), first_end);
    }

    #[test]
    fn empty_log_is_clean() {
        let mut r = FrameReader::new(&[]);
        assert!(r.next().is_none());
        assert_eq!(r.defect(), None);
    }
}
