//! Seeded input generation and the output oracle.
//!
//! Every byte a workload commits is a pure function of `(seed, segment,
//! op index)`, so the expected image of a segment at any version can be
//! recomputed without looking at the system under test: op `k` of a
//! segment produces version `k + 1` (version 1 is the creation commit).

use iw_types::desc::{PrimKind, TypeDesc};
use iw_types::flat::FlatLayout;
use iw_types::MachineArch;

/// One step of the splitmix64 sequence.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless hash of a `(seed, a, b)` triple.
pub fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    let mut s = seed ^ a.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ b.rotate_left(32);
    splitmix64(&mut s)
}

// ---------------------------------------------------------------------
// Record workloads: one int32-array block per segment, each commit
// overwrites one aligned record.
// ---------------------------------------------------------------------

/// Shape of a record segment.
#[derive(Debug, Clone, Copy)]
pub struct RecordShape {
    /// Local-format bytes in the segment's single block.
    pub seg_bytes: usize,
    /// Bytes overwritten per commit.
    pub rec_bytes: usize,
}

impl RecordShape {
    /// Element count of the `int32` block.
    pub fn elems(&self) -> u32 {
        (self.seg_bytes / 4) as u32
    }

    /// Byte offset op `k` of segment `seg` overwrites.
    pub fn offset(&self, seed: u64, seg: u64, k: u64) -> usize {
        let slots = (self.seg_bytes / self.rec_bytes) as u64;
        (hash3(seed, seg, k) % slots) as usize * self.rec_bytes
    }

    /// Fills `out` with the little-endian record op `k` writes. The first
    /// word is never zero, so no record equals fresh memory.
    pub fn fill(&self, seed: u64, seg: u64, k: u64, out: &mut [u8]) {
        let mut s = hash3(seed ^ 0xA5A5, seg, k);
        for chunk in out.chunks_mut(8) {
            let w = splitmix64(&mut s) | 1;
            chunk.copy_from_slice(&w.to_le_bytes()[..chunk.len()]);
        }
    }

    /// The segment image after ops `0..=last_op` (op 0 is the creation
    /// commit, which writes the whole block).
    pub fn image(&self, seed: u64, seg: u64, last_op: u64) -> Vec<u8> {
        let mut img = vec![0u8; self.seg_bytes];
        let whole = RecordShape {
            rec_bytes: self.seg_bytes,
            ..*self
        };
        whole.fill(seed, seg, 0, &mut img);
        let mut rec = vec![0u8; self.rec_bytes];
        for k in 1..=last_op {
            self.fill(seed, seg, k, &mut rec);
            let off = self.offset(seed, seg, k);
            img[off..off + self.rec_bytes].copy_from_slice(&rec);
        }
        img
    }
}

// ---------------------------------------------------------------------
// Bulk workload: four typed blocks (the Figure 4 mixes `double_array`,
// `int_double`, `pointer`, `mix`), re-declared here so the benchmark
// depends on no other harness.
// ---------------------------------------------------------------------

/// Chunks per block; a chunk is the unit of dirtying (about one 4 KiB
/// page of local-format bytes on x86).
pub const CHUNKS_PER_BLOCK: u32 = 64;
/// Chunks dirtied per block per round (25 %).
pub const DIRTY_PER_BLOCK: u32 = 16;
/// Elements of the `int32` block pointers aim at.
pub const TARGETS: u32 = 1024;

/// One typed block of the bulk segment.
#[derive(Debug, Clone)]
pub struct BlockSpec {
    /// Block (and Figure 4 mix) name.
    pub name: &'static str,
    /// Element type.
    pub ty: TypeDesc,
    /// Elements per chunk (`floor(4096 / x86 element size)`).
    pub per_chunk: u32,
}

impl BlockSpec {
    /// Element count of the block.
    pub fn count(&self) -> u32 {
        self.per_chunk * CHUNKS_PER_BLOCK
    }
}

/// The four blocks, each about 256 KiB on x86.
pub fn bulk_blocks() -> Vec<BlockSpec> {
    let x86 = MachineArch::x86();
    let int_double = TypeDesc::structure(
        "int_double",
        vec![("i", TypeDesc::int32()), ("d", TypeDesc::float64())],
    );
    let mix = TypeDesc::structure(
        "mix",
        vec![
            ("i", TypeDesc::int32()),
            ("d", TypeDesc::float64()),
            ("s", TypeDesc::string(256)),
            ("t", TypeDesc::string(4)),
            ("p", TypeDesc::pointer()),
        ],
    );
    [
        ("double_array", TypeDesc::float64()),
        ("int_double", int_double),
        ("pointer", TypeDesc::pointer()),
        ("mix", mix),
    ]
    .into_iter()
    .map(|(name, ty)| {
        let size = iw_types::layout::layout_of(&ty, &x86).size;
        BlockSpec {
            name,
            per_chunk: 4096 / size,
            ty,
        }
    })
    .collect()
}

/// The chunks of each block round `round` dirties: `DIRTY_PER_BLOCK`
/// distinct chunk indices, ascending (a seeded partial shuffle).
pub fn dirty_chunks(seed: u64, block: u64, round: u64) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..CHUNKS_PER_BLOCK).collect();
    let mut s = hash3(seed ^ 0xC4C4, block, round);
    for i in 0..DIRTY_PER_BLOCK as usize {
        let j = i + (splitmix64(&mut s) % (idx.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(DIRTY_PER_BLOCK as usize);
    idx.sort_unstable();
    idx
}

/// The logical value of one primitive, independent of architecture.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `int`.
    I32(i32),
    /// `double`, compared by bit pattern.
    F64(u64),
    /// NUL-terminated string content.
    Str(Vec<u8>),
    /// Index into the targets block.
    Target(u32),
}

/// The value primitive `prim` of element `elem` of `block` holds after
/// the chunk containing it was last dirtied in `round` (0 = creation).
///
/// `double_array` gets full-entropy mantissas (fails the LZ gate); the
/// other three get counters, text and MIPs (pass it).
pub fn value(seed: u64, block: &BlockSpec, round: u64, elem: u32, kind: PrimKind) -> Value {
    let h = hash3(seed, u64::from(elem), round);
    match kind {
        PrimKind::Int32 => Value::I32((((round as i32) << 8) ^ elem as i32) | 1),
        PrimKind::Float64 if block.name == "double_array" => {
            // A finite double with random mantissa and a fixed exponent.
            Value::F64(0x3FF0_0000_0000_0000 | (h >> 12))
        }
        PrimKind::Float64 => Value::F64((f64::from(elem) + round as f64 * 0.5 + 1.0).to_bits()),
        PrimKind::Str { cap } if cap >= 64 => {
            let mut s = format!("calendar-entry-{round}-{elem:05}-").into_bytes();
            s.resize(200, b'y');
            Value::Str(s)
        }
        PrimKind::Str { .. } => Value::Str(vec![b'a' + (h % 26) as u8, b'b']),
        PrimKind::Ptr => Value::Target((h % u64::from(TARGETS)) as u32),
        other => unreachable!("no {other} primitive in the bulk blocks"),
    }
}

/// Encodes elements `first..first + n` of `block` as local-format bytes
/// in the layout `flat` (the block's element type flattened for one
/// architecture), each primitive holding [`value`] for `round`.
/// `targets_va` is the local address of the targets block.
pub fn encode_elems(
    seed: u64,
    block: &BlockSpec,
    flat: &FlatLayout,
    round: u64,
    first: u32,
    n: u32,
    targets_va: u64,
) -> Vec<u8> {
    let arch = flat.arch();
    let stride = flat.local_size() as usize;
    let mut out = vec![0u8; stride * n as usize];
    let little = arch.endian.is_little();
    for e in 0..n {
        let base = e as usize * stride;
        for p in flat.iter() {
            let at = base + p.local_off as usize;
            let size = p.kind.local_size(arch) as usize;
            let dst = &mut out[at..at + size];
            match value(seed, block, round, first + e, p.kind) {
                Value::I32(v) => put_int(dst, v as u32 as u64, little),
                Value::F64(bits) => put_int(dst, bits, little),
                Value::Str(s) => dst[..s.len()].copy_from_slice(&s),
                Value::Target(t) => put_int(dst, targets_va + u64::from(t) * 4, little),
            }
        }
    }
    out
}

/// Compares two local-format images of the same elements primitive by
/// primitive (strings up to their NUL, padding ignored) and describes
/// the first mismatch.
pub fn first_mismatch(
    block: &BlockSpec,
    flat: &FlatLayout,
    expected: &[u8],
    actual: &[u8],
) -> Option<String> {
    let arch = flat.arch();
    if expected.len() != actual.len() {
        return Some(format!(
            "{}: image is {} bytes, expected {}",
            block.name,
            actual.len(),
            expected.len()
        ));
    }
    let stride = flat.local_size() as usize;
    for e in 0..expected.len() / stride {
        for p in flat.iter() {
            let at = e * stride + p.local_off as usize;
            let size = p.kind.local_size(arch) as usize;
            let (mut want, mut got) = (&expected[at..at + size], &actual[at..at + size]);
            if matches!(p.kind, PrimKind::Str { .. }) {
                let cstr = |b: &'_ [u8]| b.iter().position(|&c| c == 0).unwrap_or(b.len());
                want = &want[..cstr(want)];
                got = &got[..cstr(got)];
            }
            if want != got {
                return Some(format!(
                    "{}: element {e} primitive {} ({}) differs",
                    block.name, p.prim_off, p.kind
                ));
            }
        }
    }
    None
}

fn put_int(dst: &mut [u8], v: u64, little: bool) {
    let n = dst.len();
    if little {
        dst.copy_from_slice(&v.to_le_bytes()[..n]);
    } else {
        dst.copy_from_slice(&v.to_be_bytes()[8 - n..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_image_is_creation_plus_overwrites() {
        let shape = RecordShape {
            seg_bytes: 4096,
            rec_bytes: 64,
        };
        let base = shape.image(7, 1, 0);
        let after = shape.image(7, 1, 3);
        assert_ne!(base, after);
        let off = shape.offset(7, 1, 3);
        let mut rec = vec![0u8; 64];
        shape.fill(7, 1, 3, &mut rec);
        assert_eq!(&after[off..off + 64], &rec[..]);
        assert!(base.chunks(8).all(|w| w[0] & 1 == 1));
    }

    #[test]
    fn dirty_chunks_are_distinct_and_seeded() {
        let a = dirty_chunks(1, 0, 5);
        assert_eq!(a.len(), DIRTY_PER_BLOCK as usize);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a, dirty_chunks(1, 0, 5));
        assert_ne!(a, dirty_chunks(2, 0, 5));
    }

    #[test]
    fn blocks_are_about_a_quarter_mebibyte() {
        let x86 = MachineArch::x86();
        for b in bulk_blocks() {
            let size = iw_types::layout::layout_of(&b.ty, &x86).size * b.count();
            assert!(
                (240 << 10..=256 << 10).contains(&size),
                "{}: {size}",
                b.name
            );
        }
    }
}
