//! Copy programs: a [`FlatLayout`](crate::flat::FlatLayout)'s translation
//! compiled to one flat op list.
//!
//! Translating a value between its local image and the wire is a fixed
//! sequence of byte moves for a given type and architecture, so it is
//! compiled once, when the layout is flattened, instead of being rediscovered
//! by walking the descriptor tree for every element. A program is a list of
//! [`Op`]s that run in order over a value's local image and tile it exactly:
//! every local byte belongs to one op, and padding is an explicit
//! [`Op::Skip`]. A repeated body (an array element that did not collapse into
//! one op) is an [`Op::Repeat`] followed inline by its body's ops.
//!
//! The paper's isomorphic-descriptor optimisation (§3.3) is what the compiler
//! does when it fuses: adjacent copies merge, a repeat whose body is one op
//! tiling its stride becomes that op times the count, and so a layout whose
//! local image *is* its wire encoding compiles to the single op
//! `Copy { len: local_size }`. [`FlatLayout::wire_identity`] is `Iso` exactly
//! when the program is that one copy. The unfused program keeps one op per
//! flattened run and every repeat; it translates to the same bytes and serves
//! as the differential reference for the fusion.
//!
//! What the fixed-size ops do to bytes lives here too, since it depends on
//! nothing but the ops: [`swap`], and [`Columns`], which moves whole
//! iterations of a fixed-size repeat body one field at a time. Pointers and
//! strings need the wire codec and the heap, so their translation is the
//! client library's.
//!
//! [`FlatLayout::wire_identity`]: crate::flat::FlatLayout::wire_identity

use std::ops::Range;

use crate::arch::MachineArch;
use crate::desc::PrimKind;
use crate::flat::FlatNode;

/// One instruction of a copy program. Each op covers
/// [`Op::local_len`] bytes of the local image, starting where the previous
/// op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `len` local bytes that already are their wire encoding (single
    /// bytes, or any fixed kind on a big-endian machine), holding `prims`
    /// primitives: copied verbatim in both directions.
    Copy {
        /// Bytes copied.
        len: u32,
        /// Primitives those bytes hold.
        prims: u32,
        /// Bytes per primitive when they are all one size, else 0 (a
        /// fused copy of mixed fields, cut only at its layout's
        /// primitive boundaries).
        width: u8,
    },
    /// `count` little-endian primitives of `width` (2, 4 or 8) bytes, back
    /// to back: each is byte-reversed into the big-endian wire order and
    /// back.
    Swap {
        /// Bytes per primitive.
        width: u8,
        /// Number of primitives.
        count: u32,
    },
    /// `len` bytes of padding: nothing on the wire, and applying a diff
    /// leaves them as they were.
    Skip {
        /// Bytes skipped.
        len: u32,
    },
    /// `count` pointers of `width` local bytes, back to back: each travels
    /// as a length-prefixed MIP string (§2.1).
    Ptr {
        /// Local pointer size.
        width: u8,
        /// Number of pointers.
        count: u32,
    },
    /// `count` strings of `cap` local bytes, back to back: each travels as
    /// its length-prefixed live bytes.
    Str {
        /// Local capacity, including the terminating NUL.
        cap: u32,
        /// Number of strings.
        count: u32,
    },
    /// `count` iterations, `stride` bytes apart, of a body: the next `ops`
    /// ops of the list, which tile `stride` bytes.
    Repeat {
        /// Number of iterations.
        count: u32,
        /// Local bytes per iteration.
        stride: u32,
        /// Length of the body in ops (nested repeats included).
        ops: u32,
    },
}

impl Op {
    /// Local bytes the op covers; for a repeat, all of its iterations.
    pub fn local_len(self) -> u32 {
        match self {
            Op::Copy { len, .. } | Op::Skip { len } => len,
            Op::Swap { width, count } | Op::Ptr { width, count } => u32::from(width) * count,
            Op::Str { cap, count } => cap * count,
            Op::Repeat { count, stride, .. } => count * stride,
        }
    }
}

/// Iterates an op list one step at a time, yielding each op with its
/// repeat body (empty for every other op). See [`steps`].
#[derive(Debug, Clone)]
pub struct Steps<'a> {
    rest: &'a [Op],
}

impl<'a> Iterator for Steps<'a> {
    type Item = (Op, &'a [Op]);

    fn next(&mut self) -> Option<(Op, &'a [Op])> {
        let (&op, tail) = self.rest.split_first()?;
        let n = match op {
            Op::Repeat { ops, .. } => ops as usize,
            _ => 0,
        };
        let (body, rest) = tail.split_at(n);
        self.rest = rest;
        Some((op, body))
    }
}

/// The steps of an op list (a whole program or a repeat body).
pub fn steps(ops: &[Op]) -> Steps<'_> {
    Steps { rest: ops }
}

/// A compiled copy program (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    ops: Box<[Op]>,
}

impl Program {
    /// Compiles the flattened `nodes` of a `local_size`-byte type on
    /// `arch`. With `fuse`, adjacent ops of one kind merge and repeats of a
    /// single tiling op collapse into it; without it, every flattened run
    /// keeps its own op and every array its repeat.
    pub(crate) fn compile(
        nodes: &[FlatNode],
        arch: &MachineArch,
        local_size: u32,
        fuse: bool,
    ) -> Program {
        let pieces = compile_level(nodes, arch, local_size, fuse);
        let mut ops = Vec::new();
        emit(pieces, &mut ops);
        if ops.is_empty() {
            // An empty type's image is (vacuously) its wire encoding.
            ops.push(Op::Copy {
                len: 0,
                prims: 0,
                width: 0,
            });
        }
        Program { ops: ops.into() }
    }

    /// The op list.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The length of the program's one op when that op is a copy: the
    /// isomorphic case, where translation in either direction is a single
    /// `memcpy` of that many bytes.
    pub fn single_copy(&self) -> Option<u32> {
        match *self.ops {
            [Op::Copy { len, .. }] => Some(len),
            _ => None,
        }
    }

    /// Primitives one run of the program translates.
    pub fn prim_count(&self) -> u64 {
        prim_len(&self.ops)
    }

    /// Wire bytes one run of the program produces, when that is fixed (no
    /// pointers or strings).
    pub fn fixed_wire_size(&self) -> Option<u64> {
        measure(&self.ops).1
    }
}

/// Primitives one run of an op list (a program or a repeat body)
/// translates.
pub fn prim_len(ops: &[Op]) -> u64 {
    measure(ops).0
}

/// Primitive count and fixed wire size of an op list.
fn measure(ops: &[Op]) -> (u64, Option<u64>) {
    let mut prims = 0u64;
    let mut wire = Some(0u64);
    for (op, body) in steps(ops) {
        let (p, w) = match op {
            Op::Copy { len, prims, .. } => (u64::from(prims), Some(u64::from(len))),
            Op::Swap { count, .. } => (u64::from(count), Some(u64::from(op.local_len()))),
            Op::Skip { .. } => (0, Some(0)),
            Op::Ptr { count, .. } | Op::Str { count, .. } => (u64::from(count), None),
            Op::Repeat { count, .. } => {
                let (p, w) = measure(body);
                (u64::from(count) * p, w.map(|w| u64::from(count) * w))
            }
        };
        prims += p;
        wire = wire.zip(w).map(|(a, b)| a + b);
    }
    (prims, wire)
}

/// A program under construction: repeats still own their bodies, so fusion
/// only ever looks at true siblings.
enum Piece {
    Op(Op),
    Repeat {
        count: u32,
        stride: u32,
        body: Vec<Piece>,
    },
}

/// Compiles one scope (the whole type, or a repeat body) of `scope` bytes.
fn compile_level(nodes: &[FlatNode], arch: &MachineArch, scope: u32, fuse: bool) -> Vec<Piece> {
    let mut out = Vec::new();
    let mut at = 0u32;
    for node in nodes {
        match *node {
            FlatNode::Run {
                kind,
                count,
                local_off,
                stride,
                ..
            } => {
                push(&mut out, skip(local_off - at), fuse);
                let width = kind.local_size(arch);
                if count == 1 || stride == width {
                    push(&mut out, elem(kind, arch, count), fuse);
                } else {
                    // A strided run: every element but the last repeats
                    // with its gap; the last one ends the run.
                    let body = vec![
                        Piece::Op(elem(kind, arch, 1)),
                        Piece::Op(skip(stride - width)),
                    ];
                    push_repeat(&mut out, count - 1, stride, body, fuse);
                    push(&mut out, elem(kind, arch, 1), fuse);
                }
                at = local_off + (count - 1) * stride + width;
            }
            FlatNode::Repeat {
                count,
                local_off,
                stride,
                ref body,
                ..
            } => {
                push(&mut out, skip(local_off - at), fuse);
                let body = compile_level(body, arch, stride, fuse);
                push_repeat(&mut out, count, stride, body, fuse);
                at = local_off + count * stride;
            }
        }
    }
    push(&mut out, skip(scope - at), fuse);
    out
}

fn skip(len: u32) -> Op {
    Op::Skip { len }
}

/// The op for `count` back-to-back primitives of `kind`.
fn elem(kind: PrimKind, arch: &MachineArch, count: u32) -> Op {
    let width = kind.local_size(arch);
    match kind {
        PrimKind::Ptr => Op::Ptr {
            width: width as u8,
            count,
        },
        PrimKind::Str { cap } => Op::Str { cap, count },
        _ if width == 1 || !arch.endian.is_little() => Op::Copy {
            len: width * count,
            prims: count,
            width: width as u8,
        },
        _ => Op::Swap {
            width: width as u8,
            count,
        },
    }
}

/// Appends `op`, merging it into a preceding op of the same kind when
/// fusing. Zero-length ops are dropped.
fn push(out: &mut Vec<Piece>, op: Op, fuse: bool) {
    if op.local_len() == 0 {
        return;
    }
    if fuse {
        if let Some(Piece::Op(last)) = out.last_mut() {
            if let Some(merged) = merge(*last, op) {
                *last = merged;
                return;
            }
        }
    }
    out.push(Piece::Op(op));
}

/// `a` followed by `b` as one op, when they are the same kind.
fn merge(a: Op, b: Op) -> Option<Op> {
    Some(match (a, b) {
        (
            Op::Copy { len, prims, width },
            Op::Copy {
                len: l,
                prims: p,
                width: w,
            },
        ) => Op::Copy {
            len: len + l,
            prims: prims + p,
            width: if width == w { width } else { 0 },
        },
        (Op::Swap { width, count }, Op::Swap { width: w, count: c }) if width == w => Op::Swap {
            width,
            count: count + c,
        },
        (Op::Skip { len }, Op::Skip { len: l }) => Op::Skip { len: len + l },
        (Op::Ptr { width, count }, Op::Ptr { count: c, .. }) => Op::Ptr {
            width,
            count: count + c,
        },
        (Op::Str { cap, count }, Op::Str { cap: k, count: c }) if cap == k => Op::Str {
            cap,
            count: count + c,
        },
        _ => return None,
    })
}

/// `op` repeated `k` times back to back, when that is one op.
fn scale(op: Op, k: u32) -> Option<Op> {
    Some(match op {
        Op::Copy { len, prims, width } => Op::Copy {
            len: len * k,
            prims: prims * k,
            width,
        },
        Op::Swap { width, count } => Op::Swap {
            width,
            count: count * k,
        },
        Op::Skip { len } => Op::Skip { len: len * k },
        Op::Ptr { width, count } => Op::Ptr {
            width,
            count: count * k,
        },
        Op::Str { cap, count } => Op::Str {
            cap,
            count: count * k,
        },
        Op::Repeat { .. } => return None,
    })
}

/// Appends `count` iterations of `body`. An empty body (zero-size
/// elements) does nothing. When fusing, a body of one op that tiles the
/// stride becomes that op scaled, and a single iteration is its body.
fn push_repeat(out: &mut Vec<Piece>, count: u32, stride: u32, body: Vec<Piece>, fuse: bool) {
    if body.is_empty() || count == 0 {
        return;
    }
    if fuse {
        if let [Piece::Op(op)] = body[..] {
            if let Some(scaled) = scale(op, count) {
                push(out, scaled, true);
                return;
            }
        }
        if count == 1 {
            for piece in body {
                match piece {
                    Piece::Op(op) => push(out, op, true),
                    repeat => out.push(repeat),
                }
            }
            return;
        }
    }
    out.push(Piece::Repeat {
        count,
        stride,
        body,
    });
}

/// Lays the pieces out as one flat list, each repeat's body inline after
/// it.
fn emit(pieces: Vec<Piece>, out: &mut Vec<Op>) {
    for piece in pieces {
        match piece {
            Piece::Op(op) => out.push(op),
            Piece::Repeat {
                count,
                stride,
                body,
            } => {
                let at = out.len();
                out.push(Op::Skip { len: 0 });
                emit(body, out);
                out[at] = Op::Repeat {
                    count,
                    stride,
                    ops: (out.len() - at - 1) as u32,
                };
            }
        }
    }
}

// ======================================================================
// Byte kernels for the fixed-size ops
// ======================================================================

/// Iterations of a fixed-size body moved per tile: small enough that a
/// tile's local and wire bytes stay in L1 across its columns.
const TILE: usize = 64;

/// A fixed-size repeat body (no pointers or strings) as columns: one per
/// field, each moved for a whole tile of iterations in one strided loop
/// whose kind is decided once. Interpreting the body field by field per
/// iteration costs about ten times as much.
#[derive(Debug, Clone)]
pub struct Columns {
    list: Vec<Column>,
    /// Wire bytes of one iteration.
    wire_len: usize,
    /// Local bytes of one iteration.
    stride: usize,
    /// Whether the body has padding (decode keeps its bytes).
    padded: bool,
}

/// One field of every iteration: `len` bytes at offset `local` of an
/// iteration's local bytes and `wire` of its wire bytes, byte-reversed
/// per `swap`-byte element when `swap > 1`.
#[derive(Debug, Clone)]
struct Column {
    local: usize,
    wire: usize,
    len: usize,
    swap: usize,
}

impl Columns {
    /// The columns of a repeat body, or `None` when it holds pointers or
    /// strings.
    pub fn of(body: &[Op]) -> Option<Columns> {
        if body
            .iter()
            .any(|op| matches!(op, Op::Ptr { .. } | Op::Str { .. }))
        {
            return None;
        }
        let mut cols = Columns {
            list: Vec::new(),
            wire_len: 0,
            stride: steps(body).map(|(op, _)| op.local_len() as usize).sum(),
            padded: false,
        };
        cols.add(body, 0);
        Some(cols)
    }

    /// Local bytes of one iteration.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Wire bytes of one iteration.
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    fn add(&mut self, ops: &[Op], mut at: usize) {
        for (op, body) in steps(ops) {
            let len = op.local_len() as usize;
            let swap = match op {
                Op::Swap { width, .. } => usize::from(width),
                Op::Repeat { count, stride, .. } => {
                    for k in 0..count as usize {
                        self.add(body, at + k * stride as usize);
                    }
                    0
                }
                Op::Skip { .. } => {
                    self.padded = true;
                    0
                }
                _ => 1,
            };
            if swap > 0 {
                self.list.push(Column {
                    local: at,
                    wire: self.wire_len,
                    len,
                    swap,
                });
                self.wire_len += len;
            }
            at += len;
        }
    }

    /// The local and wire byte ranges of each tile of the iterations in
    /// `local_len` local bytes.
    fn tiles(&self, local_len: usize) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
        let n = local_len / self.stride;
        (0..n).step_by(TILE).map(move |t| {
            let k = TILE.min(n - t);
            (
                t * self.stride..(t + k) * self.stride,
                t * self.wire_len..(t + k) * self.wire_len,
            )
        })
    }

    /// Encodes the whole iterations in `local` into `wire`.
    pub fn encode(&self, local: &[u8], wire: &mut [u8]) {
        for (l, w) in self.tiles(local.len()) {
            for c in &self.list {
                c.moves(
                    &local[l.clone()],
                    self.stride,
                    c.local,
                    &mut wire[w.clone()],
                    self.wire_len,
                    c.wire,
                );
            }
        }
    }

    /// Decodes the whole iterations in `wire` into `local`, copying
    /// padding from `old` (the same bytes of the current image).
    pub fn decode(&self, wire: &[u8], local: &mut [u8], old: &[u8]) {
        for (l, w) in self.tiles(local.len()) {
            if self.padded {
                local[l.clone()].copy_from_slice(&old[l.clone()]);
            }
            for c in &self.list {
                c.moves(
                    &wire[w.clone()],
                    self.wire_len,
                    c.wire,
                    &mut local[l.clone()],
                    self.stride,
                    c.local,
                );
            }
        }
    }
}

impl Column {
    /// Moves this field of every iteration from `src` (iterations of
    /// `sn` bytes, the field at `so`) to `dst` (`dn` bytes, at `dof`).
    fn moves(&self, src: &[u8], sn: usize, so: usize, dst: &mut [u8], dn: usize, dof: usize) {
        let pairs = src.chunks_exact(sn).zip(dst.chunks_exact_mut(dn));
        match (self.swap, self.len) {
            (1, 1) => pairs.for_each(|(s, d)| d[dof] = s[so]),
            (1, 4) => pairs.for_each(|(s, d)| move_n::<4>(&s[so..], &mut d[dof..], |v| v)),
            (1, 8) => pairs.for_each(|(s, d)| move_n::<8>(&s[so..], &mut d[dof..], |v| v)),
            (2, 2) => pairs.for_each(|(s, d)| move_n::<2>(&s[so..], &mut d[dof..], swap2)),
            (4, 4) => pairs.for_each(|(s, d)| move_n::<4>(&s[so..], &mut d[dof..], swap4)),
            (8, 8) => pairs.for_each(|(s, d)| move_n::<8>(&s[so..], &mut d[dof..], swap8)),
            (k, n) => pairs.for_each(|(s, d)| swap(k, &s[so..so + n], &mut d[dof..dof + n])),
        }
    }
}

/// Moves the first `N` bytes of `src` through `f` into `dst`: a fixed-
/// size load and store, not a `memcpy` call.
#[inline(always)]
fn move_n<const N: usize>(src: &[u8], dst: &mut [u8], f: impl Fn([u8; N]) -> [u8; N]) {
    let v: [u8; N] = src[..N].try_into().expect("N bytes");
    dst[..N].copy_from_slice(&f(v));
}

fn swap2(v: [u8; 2]) -> [u8; 2] {
    [v[1], v[0]]
}

fn swap4(v: [u8; 4]) -> [u8; 4] {
    u32::from_le_bytes(v).to_be_bytes()
}

fn swap8(v: [u8; 8]) -> [u8; 8] {
    u64::from_le_bytes(v).to_be_bytes()
}

/// Byte-reverses every `width`-byte element of `src` into `dst`: little-
/// endian local order to big-endian wire order, and back. Width 1 is a
/// plain copy.
pub fn swap(width: usize, src: &[u8], dst: &mut [u8]) {
    let pairs = dst.chunks_exact_mut(width).zip(src.chunks_exact(width));
    match width {
        1 => dst.copy_from_slice(src),
        2 => pairs.for_each(|(d, s)| move_n::<2>(s, d, swap2)),
        4 => pairs.for_each(|(d, s)| move_n::<4>(s, d, swap4)),
        8 => pairs.for_each(|(d, s)| move_n::<8>(s, d, swap8)),
        w => unreachable!("swap widths are 1, 2, 4 and 8, not {w}"),
    }
}
