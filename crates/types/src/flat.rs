//! Flattened translation layouts.
//!
//! Diff collection walks "consecutive type descriptors ... retrieved
//! sequentially to convert the run into wire format" (§3.1). To make that
//! walk fast, the library pre-flattens a block's type descriptor for a given
//! architecture into a [`FlatLayout`]: a compact tree of [`FlatNode`]s where
//! runs of identically-typed, evenly-spaced primitives collapse into a
//! single [`FlatNode::Run`].
//!
//! This collapsing *is* the paper's "isomorphic type descriptors"
//! optimization (§3.3): a struct with 10 consecutive integer fields is
//! represented as a 10-element integer run. Building with
//! [`FlatLayout::new_unoptimized`] disables the merge so the ablation
//! benchmark can measure its benefit.
//!
//! A [`PrimIter`] enumerates `(primitive offset, local byte offset, kind)`
//! triples, and supports seeking by primitive offset or by local byte
//! offset; [`FlatLayout::prim_at`] and [`FlatLayout::prim_ending_after`]
//! find one primitive without allocating (apply's run bounds, pointer
//! swizzling). Diff translation itself runs the layout's compiled copy
//! program ([`FlatLayout::program`], see [`crate::program`]).

use std::sync::{Arc, OnceLock};

use crate::arch::MachineArch;
use crate::desc::{PrimKind, TypeDesc, TypeKind};
use crate::layout::{layout_of, Layout};
use crate::program::Program;

/// One node of a flattened layout. Offsets are relative to the enclosing
/// scope (the whole type for top-level nodes, the iteration start inside a
/// [`FlatNode::Repeat`] body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatNode {
    /// `count` primitives of the same kind, spaced `stride` bytes apart.
    Run {
        /// Primitive kind of every element in the run.
        kind: PrimKind,
        /// Number of primitives.
        count: u32,
        /// Local byte offset of the first primitive.
        local_off: u32,
        /// Byte distance between consecutive primitives.
        stride: u32,
        /// Primitive offset of the first primitive.
        prim_off: u64,
    },
    /// `count` repetitions of a heterogeneous body (an array whose element
    /// did not collapse into a single run).
    Repeat {
        /// Number of iterations.
        count: u32,
        /// Local byte offset of iteration 0.
        local_off: u32,
        /// Byte distance between consecutive iterations.
        stride: u32,
        /// Primitive units consumed by one iteration.
        prims_per_iter: u64,
        /// Primitive offset of iteration 0.
        prim_off: u64,
        /// The flattened element layout.
        body: Arc<[FlatNode]>,
    },
}

impl FlatNode {
    fn prim_len(&self) -> u64 {
        match self {
            FlatNode::Run { count, .. } => u64::from(*count),
            FlatNode::Repeat {
                count,
                prims_per_iter,
                ..
            } => u64::from(*count) * prims_per_iter,
        }
    }

    fn prim_off(&self) -> u64 {
        match self {
            FlatNode::Run { prim_off, .. } | FlatNode::Repeat { prim_off, .. } => *prim_off,
        }
    }

    /// Local byte offset of the *end* of the last primitive in this node,
    /// assuming primitives of `kind` occupy `kind.local_size` bytes.
    fn local_end(&self, arch: &MachineArch) -> u32 {
        match self {
            FlatNode::Run {
                kind,
                count,
                local_off,
                stride,
                ..
            } => local_off + (count - 1) * stride + kind.local_size(arch),
            FlatNode::Repeat {
                count,
                local_off,
                stride,
                body,
                ..
            } => {
                let body_end = body.iter().map(|n| n.local_end(arch)).max().unwrap_or(0);
                local_off + (count - 1) * stride + body_end
            }
        }
    }
}

/// A single primitive yielded by a [`PrimIter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimRef {
    /// Machine-independent primitive offset within the block.
    pub prim_off: u64,
    /// Local-format byte offset within the block.
    pub local_off: u32,
    /// Kind of the primitive.
    pub kind: PrimKind,
}

impl PrimRef {
    /// Size in bytes of this primitive in local format on `arch`.
    pub fn local_size(&self, arch: &MachineArch) -> u32 {
        self.kind.local_size(arch)
    }
}

/// The flattened, architecture-specific translation layout of a type.
///
/// # Examples
///
/// ```
/// use iw_types::arch::MachineArch;
/// use iw_types::desc::TypeDesc;
/// use iw_types::flat::FlatLayout;
///
/// // struct of 4 consecutive ints collapses to a single run.
/// let t = TypeDesc::structure(
///     "s",
///     vec![
///         ("a", TypeDesc::int32()),
///         ("b", TypeDesc::int32()),
///         ("c", TypeDesc::int32()),
///         ("d", TypeDesc::int32()),
///     ],
/// );
/// let fl = FlatLayout::new(&t, &MachineArch::x86());
/// assert_eq!(fl.nodes().len(), 1);
/// assert_eq!(fl.prim_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FlatLayout {
    nodes: Arc<[FlatNode]>,
    arch: MachineArch,
    local_size: u32,
    prim_count: u64,
    /// Total wire size in bytes when the type contains no variable-length
    /// primitives; `None` otherwise.
    fixed_wire_size: Option<u64>,
    /// Whether primitives tile `[0, local_size)` with no padding.
    packed: bool,
    /// Whether the local image equals the wire encoding byte for byte
    /// (see [`FlatLayout::wire_identity`]).
    identity: WireIdentity,
    /// The translation compiled with fusion, and (on first use) without.
    program: Program,
    unfused: OnceLock<Program>,
}

/// Why a [`FlatLayout`] is *not* byte-identical to its wire encoding.
///
/// The wire format is the canonical packed big-endian encoding, so each
/// blocker names one axis on which the local representation diverges from
/// it. When several axes diverge at once the first in this declaration
/// order is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsoBlocker {
    /// The layout contains pointer fields. A pointer is
    /// [`MachineArch::pointer_size`] local bytes holding a virtual
    /// address, but travels as a variable-length MIP string — no pointer
    /// width makes the two representations equal, so pointer fields
    /// always need element-wise patching.
    Pointer,
    /// The layout contains string fields: a fixed local capacity versus
    /// length-prefixed live bytes on the wire.
    String,
    /// Alignment padding (or trailing struct padding): the primitives do
    /// not tile `[0, local_size)`, so local byte offsets differ from wire
    /// offsets.
    Padding,
    /// The architecture stores multi-byte primitives little-endian; the
    /// wire is big-endian, so every primitive needs a byte swap.
    Endianness,
}

/// Whether a layout's local image is byte-for-byte identical to its wire
/// encoding (the paper's *isomorphic* case), produced by
/// [`FlatLayout::wire_identity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireIdentity {
    /// Local image == wire encoding for every value: translation in
    /// either direction is a plain `memcpy`.
    Iso,
    /// Translation is required; the blocker names the first axis that
    /// breaks identity.
    NotIso(IsoBlocker),
}

impl WireIdentity {
    /// True for [`WireIdentity::Iso`].
    pub fn is_iso(self) -> bool {
        matches!(self, WireIdentity::Iso)
    }

    /// The blocking axis, if any.
    pub fn blocker(self) -> Option<IsoBlocker> {
        match self {
            WireIdentity::Iso => None,
            WireIdentity::NotIso(b) => Some(b),
        }
    }
}

impl FlatLayout {
    /// Flattens `ty` for `arch` with the isomorphic-descriptor merge
    /// enabled (the production configuration).
    pub fn new(ty: &TypeDesc, arch: &MachineArch) -> Self {
        Self::build(ty, arch, true)
    }

    /// Flattens without merging adjacent same-kind fields, for ablation
    /// measurements of the isomorphic-descriptor optimization.
    pub fn new_unoptimized(ty: &TypeDesc, arch: &MachineArch) -> Self {
        Self::build(ty, arch, false)
    }

    fn build(ty: &TypeDesc, arch: &MachineArch, merge: bool) -> Self {
        let mut nodes = Vec::new();
        let mut prim = 0u64;
        flatten(ty, arch, 0, &mut prim, &mut nodes, merge);
        let layout = layout_of(ty, arch);
        let fixed_wire_size = wire_size_of(ty);
        let packed = nodes_packed(&nodes, arch, layout.size);
        let identity = wire_identity_of(&nodes, arch, packed);
        FlatLayout {
            program: Program::compile(&nodes, arch, layout.size, true),
            unfused: OnceLock::new(),
            nodes: nodes.into(),
            arch: arch.clone(),
            local_size: layout.size,
            prim_count: prim,
            fixed_wire_size,
            packed,
            identity,
        }
    }

    /// The layout's translation as a copy program (see
    /// [`crate::program`]), compiled with fusion: what diff collection and
    /// application run.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The same translation compiled without fusion: one op per flattened
    /// run. It produces the same bytes as [`FlatLayout::program`] and is
    /// the differential reference for it, so it is compiled on first use.
    pub fn unfused_program(&self) -> &Program {
        self.unfused
            .get_or_init(|| Program::compile(&self.nodes, &self.arch, self.local_size, false))
    }

    /// The flattened top-level nodes.
    pub fn nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// The architecture this layout was computed for.
    pub fn arch(&self) -> &MachineArch {
        &self.arch
    }

    /// Local-format size in bytes of one value of the type.
    pub fn local_size(&self) -> u32 {
        self.local_size
    }

    /// Number of primitive units in one value of the type.
    pub fn prim_count(&self) -> u64 {
        self.prim_count
    }

    /// Total wire size in bytes, when fixed (no strings or pointers).
    pub fn fixed_wire_size(&self) -> Option<u64> {
        self.fixed_wire_size
    }

    /// True when the layout's primitives tile `[0, local_size)` back to
    /// back with no padding: every byte of a value belongs to exactly one
    /// primitive, in primitive order. For a packed layout, any contiguous
    /// primitive range fully covers its local byte span — diff
    /// application relies on this to skip pre-filling scratch buffers it
    /// is about to overwrite completely.
    pub fn is_packed(&self) -> bool {
        self.packed
    }

    /// Whether a value's local image equals its wire encoding byte for
    /// byte — the structural layout-identity check behind the isomorphic
    /// fast path. Identity requires all of:
    ///
    /// - no pointer fields (local virtual addresses travel as
    ///   variable-length MIP strings at *any* pointer width);
    /// - no string fields (length-prefixed on the wire);
    /// - a packed layout (field offsets and sizes match the wire's
    ///   back-to-back placement, with no alignment padding);
    /// - matching byte order: the architecture is big-endian, or every
    ///   primitive is a single byte.
    ///
    /// An empty layout (zero primitives, zero bytes) is vacuously
    /// identical. The result is computed once at flatten time, so hot
    /// paths can branch on it per block at no cost.
    ///
    /// # Examples
    ///
    /// ```
    /// use iw_types::arch::MachineArch;
    /// use iw_types::desc::TypeDesc;
    /// use iw_types::flat::{FlatLayout, IsoBlocker};
    ///
    /// let ints = TypeDesc::array(TypeDesc::int32(), 16);
    /// // Big-endian SPARC matches the wire; little-endian x86 does not.
    /// assert!(FlatLayout::new(&ints, &MachineArch::sparc_v9())
    ///     .wire_identity()
    ///     .is_iso());
    /// assert_eq!(
    ///     FlatLayout::new(&ints, &MachineArch::x86())
    ///         .wire_identity()
    ///         .blocker(),
    ///     Some(IsoBlocker::Endianness)
    /// );
    /// ```
    pub fn wire_identity(&self) -> WireIdentity {
        self.identity
    }

    /// Iterates all primitives from the beginning.
    pub fn iter(&self) -> PrimIter<'_> {
        PrimIter::new(self)
    }

    /// Iterates primitives starting at machine-independent offset
    /// `prim_off`. Returns an empty iterator when `prim_off` is past the
    /// end.
    pub fn seek_prim(&self, prim_off: u64) -> PrimIter<'_> {
        let mut it = PrimIter::empty(self);
        if prim_off < self.prim_count {
            it.descend_to_prim(self.nodes.clone(), 0, 0, prim_off);
        }
        it
    }

    /// Iterates primitives starting with the first primitive whose local
    /// extent *ends after* `byte_off` — i.e. the primitive containing
    /// `byte_off`, or the next one when `byte_off` lands in padding.
    pub fn seek_byte(&self, byte_off: u32) -> PrimIter<'_> {
        let mut it = PrimIter::empty(self);
        it.descend_to_byte(self.nodes.clone(), 0, 0, byte_off);
        it
    }

    /// The primitive at machine-independent offset `prim_off`, if in range.
    /// Equals `seek_prim(prim_off).next()`, found by one descent that
    /// allocates nothing.
    pub fn prim_at(&self, prim_off: u64) -> Option<PrimRef> {
        (prim_off < self.prim_count).then(|| find_prim(&self.nodes, 0, 0, prim_off))
    }

    /// The first primitive whose local extent ends after `byte_off`: the
    /// one containing it, or the next one when it lands in padding. Equals
    /// `seek_byte(byte_off).next()`, found without allocating.
    pub fn prim_ending_after(&self, byte_off: u32) -> Option<PrimRef> {
        find_byte(&self.nodes, &self.arch, 0, 0, byte_off)
    }

    /// The primitive whose local extent contains `byte_off`, if any.
    /// Offsets in padding or past the end yield `None`.
    pub fn prim_containing_byte(&self, byte_off: u32) -> Option<PrimRef> {
        let p = self.prim_ending_after(byte_off)?;
        (p.local_off <= byte_off).then_some(p)
    }

    /// When the whole layout is one homogeneous run (arrays of a single
    /// primitive kind — the common case for pointer targets), returns it.
    /// Enables arithmetic primitive lookup without tree descent.
    pub fn single_run(&self) -> Option<RunRef> {
        match &self.nodes[..] {
            [FlatNode::Run {
                kind,
                count,
                local_off,
                stride,
                prim_off,
            }] => Some(RunRef {
                prim_off: *prim_off,
                local_off: *local_off,
                stride: *stride,
                count: *count,
                kind: *kind,
            }),
            _ => None,
        }
    }

    /// Iterates maximal same-kind runs from the beginning. Run-granular
    /// iteration is what makes isomorphic descriptors pay off: translation
    /// loops handle whole runs with tight per-kind loops instead of
    /// dispatching per primitive.
    pub fn runs(&self) -> RunIter<'_> {
        RunIter { inner: self.iter() }
    }

    /// Iterates runs starting at machine-independent offset `prim_off`
    /// (the first yielded run may be a tail of a larger run).
    pub fn seek_prim_runs(&self, prim_off: u64) -> RunIter<'_> {
        RunIter {
            inner: self.seek_prim(prim_off),
        }
    }

    /// Iterates runs starting with the first primitive whose local extent
    /// ends after `byte_off`.
    pub fn seek_byte_runs(&self, byte_off: u32) -> RunIter<'_> {
        RunIter {
            inner: self.seek_byte(byte_off),
        }
    }
}

/// A maximal run of identically-typed, evenly spaced primitives yielded
/// by [`RunIter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRef {
    /// Machine-independent primitive offset of the first element.
    pub prim_off: u64,
    /// Local byte offset of the first element.
    pub local_off: u32,
    /// Byte distance between consecutive elements.
    pub stride: u32,
    /// Number of elements in (the rest of) the run.
    pub count: u32,
    /// Kind of every element.
    pub kind: PrimKind,
}

/// Run-granular iterator over a [`FlatLayout`] (see [`FlatLayout::runs`]).
#[derive(Debug, Clone)]
pub struct RunIter<'a> {
    inner: PrimIter<'a>,
}

impl Iterator for RunIter<'_> {
    type Item = RunRef;

    fn next(&mut self) -> Option<RunRef> {
        loop {
            let frame = self.inner.stack.last_mut()?;
            if frame.node_idx >= frame.nodes.len() {
                self.inner.stack.pop();
                continue;
            }
            match &frame.nodes[frame.node_idx] {
                FlatNode::Run {
                    kind,
                    count,
                    local_off,
                    stride,
                    prim_off,
                } => {
                    if frame.iter < *count {
                        let i = frame.iter;
                        let remaining = *count - i;
                        frame.iter = *count;
                        return Some(RunRef {
                            prim_off: frame.base_prim + prim_off + u64::from(i),
                            local_off: frame.base_local + local_off + i * stride,
                            stride: *stride,
                            count: remaining,
                            kind: *kind,
                        });
                    }
                    frame.iter = 0;
                    frame.node_idx += 1;
                }
                FlatNode::Repeat {
                    count,
                    local_off,
                    stride,
                    prims_per_iter,
                    prim_off,
                    body,
                } => {
                    if frame.iter < *count {
                        let i = frame.iter;
                        frame.iter += 1;
                        let base_local = frame.base_local + local_off + i * stride;
                        let base_prim = frame.base_prim + prim_off + u64::from(i) * prims_per_iter;
                        let body = body.clone();
                        self.inner.stack.push(Frame {
                            nodes: body,
                            node_idx: 0,
                            iter: 0,
                            base_local,
                            base_prim,
                        });
                    } else {
                        frame.iter = 0;
                        frame.node_idx += 1;
                    }
                }
            }
        }
    }
}

/// The primitive at offset `target` (< the subtree's end) of the subtree
/// `nodes` based at `(base_local, base_prim)`.
fn find_prim(nodes: &[FlatNode], base_local: u32, base_prim: u64, target: u64) -> PrimRef {
    let rel = target - base_prim;
    let idx = nodes.partition_point(|n| n.prim_off() + n.prim_len() <= rel);
    match &nodes[idx] {
        FlatNode::Run {
            kind,
            local_off,
            stride,
            prim_off,
            ..
        } => PrimRef {
            prim_off: target,
            local_off: base_local + local_off + (rel - prim_off) as u32 * stride,
            kind: *kind,
        },
        FlatNode::Repeat {
            local_off,
            stride,
            prims_per_iter,
            prim_off,
            body,
            ..
        } => {
            let i = (rel - prim_off) / prims_per_iter;
            find_prim(
                body,
                base_local + local_off + i as u32 * stride,
                base_prim + prim_off + i * prims_per_iter,
                target,
            )
        }
    }
}

/// The first primitive of the subtree `nodes` based at `(base_local,
/// base_prim)` whose local extent ends after `byte`.
fn find_byte(
    nodes: &[FlatNode],
    arch: &MachineArch,
    base_local: u32,
    base_prim: u64,
    byte: u32,
) -> Option<PrimRef> {
    let idx = nodes.partition_point(|n| base_local + n.local_end(arch) <= byte);
    match nodes.get(idx)? {
        FlatNode::Run {
            kind,
            local_off,
            stride,
            prim_off,
            ..
        } => {
            let start = base_local + local_off;
            let step = (*stride).max(1);
            // Element k may already end at or before `byte`.
            let k = match byte.checked_sub(start) {
                Some(d) if start + d / step * step + kind.local_size(arch) <= byte => d / step + 1,
                Some(d) => d / step,
                None => 0,
            };
            Some(PrimRef {
                prim_off: base_prim + prim_off + u64::from(k),
                local_off: start + k * stride,
                kind: *kind,
            })
        }
        FlatNode::Repeat {
            count,
            local_off,
            stride,
            prims_per_iter,
            prim_off,
            body,
        } => {
            let start = base_local + local_off;
            let i = byte.saturating_sub(start) / stride.max(&1);
            // The chosen iteration may end in padding before `byte`; the
            // next one then starts after it.
            (i.min(count - 1)..*count).find_map(|i| {
                find_byte(
                    body,
                    arch,
                    start + i * stride,
                    base_prim + prim_off + u64::from(i) * prims_per_iter,
                    byte,
                )
            })
        }
    }
}

/// Whether `nodes` tile `[0, span)` back to back: each run's stride
/// equals its element width, each repeat's body tiles its own stride,
/// and consecutive nodes leave no gaps. Checked structurally on the
/// compact node tree, so the cost is O(tree), not O(primitives).
fn nodes_packed(nodes: &[FlatNode], arch: &MachineArch, span: u32) -> bool {
    let mut next = 0u32;
    for n in nodes {
        match n {
            FlatNode::Run {
                kind,
                count,
                local_off,
                stride,
                ..
            } => {
                let width = kind.local_size(arch);
                if *local_off != next || *stride != width {
                    return false;
                }
                next = local_off + count * width;
            }
            FlatNode::Repeat {
                count,
                local_off,
                stride,
                body,
                ..
            } => {
                if *local_off != next || !nodes_packed(body, arch, *stride) {
                    return false;
                }
                next = local_off + count * stride;
            }
        }
    }
    next == span
}

/// Computes [`WireIdentity`] for a flattened node tree: scans the tree
/// once for blocking primitive kinds, then applies the axis precedence
/// documented on [`IsoBlocker`]. O(tree), like [`nodes_packed`].
fn wire_identity_of(nodes: &[FlatNode], arch: &MachineArch, packed: bool) -> WireIdentity {
    fn scan(nodes: &[FlatNode], ptr: &mut bool, string: &mut bool, multi: &mut bool) {
        for n in nodes {
            match n {
                FlatNode::Run { kind, .. } => match kind {
                    PrimKind::Ptr => *ptr = true,
                    PrimKind::Str { .. } => *string = true,
                    PrimKind::Char => {}
                    _ => *multi = true,
                },
                FlatNode::Repeat { body, .. } => scan(body, ptr, string, multi),
            }
        }
    }
    let (mut ptr, mut string, mut multi) = (false, false, false);
    scan(nodes, &mut ptr, &mut string, &mut multi);
    if ptr {
        WireIdentity::NotIso(IsoBlocker::Pointer)
    } else if string {
        WireIdentity::NotIso(IsoBlocker::String)
    } else if !packed {
        WireIdentity::NotIso(IsoBlocker::Padding)
    } else if multi && arch.endian.is_little() {
        WireIdentity::NotIso(IsoBlocker::Endianness)
    } else {
        WireIdentity::Iso
    }
}

/// Wire-format size in bytes of a fixed-size type, or `None` when the type
/// contains variable-length primitives.
fn wire_size_of(ty: &TypeDesc) -> Option<u64> {
    match ty.kind() {
        TypeKind::Prim(p) => p.wire_size().map(u64::from),
        TypeKind::Array { elem, len } => wire_size_of(elem).map(|s| s * u64::from(*len)),
        TypeKind::Struct { fields, .. } => fields.iter().map(|f| wire_size_of(&f.ty)).sum(),
    }
}

fn flatten(
    ty: &TypeDesc,
    arch: &MachineArch,
    local_base: u32,
    prim: &mut u64,
    out: &mut Vec<FlatNode>,
    merge: bool,
) {
    match ty.kind() {
        TypeKind::Prim(p) => {
            push_run(out, *p, 1, local_base, p.local_size(arch), *prim, merge);
            *prim += 1;
        }
        TypeKind::Array { elem, len } => {
            if *len == 0 {
                return;
            }
            let el = layout_of(elem, arch);
            let elem_prims = elem.prim_count();
            // Flatten one element at relative offset 0.
            let mut body = Vec::new();
            let mut p0 = 0u64;
            flatten(elem, arch, 0, &mut p0, &mut body, merge);
            // If the element collapsed to a single run that tiles the whole
            // element stride, the array is itself one big run (isomorphic
            // descriptor).
            if merge && body.len() == 1 {
                if let FlatNode::Run {
                    kind,
                    count,
                    local_off,
                    stride,
                    ..
                } = body[0]
                {
                    let covers = local_off == 0
                        && u64::from(count) * u64::from(stride) == u64::from(el.size);
                    if covers {
                        push_run(out, kind, count * len, local_base, stride, *prim, merge);
                        *prim += elem_prims * u64::from(*len);
                        return;
                    }
                }
            }
            out.push(FlatNode::Repeat {
                count: *len,
                local_off: local_base,
                stride: el.size,
                prims_per_iter: elem_prims,
                prim_off: *prim,
                body: body.into(),
            });
            *prim += elem_prims * u64::from(*len);
        }
        TypeKind::Struct { fields, .. } => {
            let mut off = local_base;
            for f in fields {
                let fl = layout_of(&f.ty, arch);
                off = Layout::align_up(off - local_base, fl.align) + local_base;
                flatten(&f.ty, arch, off, prim, out, merge);
                off += fl.size;
            }
        }
    }
}

/// Appends a run, merging with the previous node when the primitives are of
/// the same kind and evenly spaced (the isomorphic-descriptor merge).
fn push_run(
    out: &mut Vec<FlatNode>,
    kind: PrimKind,
    count: u32,
    local_off: u32,
    stride: u32,
    prim_off: u64,
    merge: bool,
) {
    if merge {
        if let Some(FlatNode::Run {
            kind: pk,
            count: pc,
            local_off: po,
            stride: ps,
            prim_off: pp,
        }) = out.last_mut()
        {
            if *pk == kind && prim_off == *pp + u64::from(*pc) {
                let gap = local_off.wrapping_sub(*po + (*pc - 1) * *ps);
                // A single-element run has no committed stride yet; adopt
                // the gap. Multi-element runs must keep their stride.
                if *pc == 1 && (count == 1 || gap == stride) {
                    *ps = gap;
                    *pc += count;
                    return;
                }
                if gap == *ps && (count == 1 || stride == *ps) {
                    *pc += count;
                    return;
                }
            }
        }
    }
    out.push(FlatNode::Run {
        kind,
        count,
        local_off,
        stride,
        prim_off,
    });
}

/// Iterator over the primitives of a [`FlatLayout`].
#[derive(Debug, Clone)]
pub struct PrimIter<'a> {
    arch: &'a MachineArch,
    stack: Vec<Frame>,
}

#[derive(Debug, Clone)]
struct Frame {
    nodes: Arc<[FlatNode]>,
    node_idx: usize,
    iter: u32,
    base_local: u32,
    base_prim: u64,
}

impl<'a> PrimIter<'a> {
    fn new(fl: &'a FlatLayout) -> Self {
        PrimIter {
            arch: &fl.arch,
            stack: vec![Frame {
                nodes: fl.nodes.clone(),
                node_idx: 0,
                iter: 0,
                base_local: 0,
                base_prim: 0,
            }],
        }
    }

    fn empty(fl: &'a FlatLayout) -> Self {
        PrimIter {
            arch: &fl.arch,
            stack: Vec::new(),
        }
    }

    /// Positions the iterator at absolute primitive offset `target`
    /// (which must be < prim_count of the subtree rooted at `nodes`).
    fn descend_to_prim(
        &mut self,
        nodes: Arc<[FlatNode]>,
        base_local: u32,
        base_prim: u64,
        target: u64,
    ) {
        let rel = target - base_prim;
        // Find the node containing `rel`.
        let idx = match nodes.binary_search_by(|n| {
            if n.prim_off() + n.prim_len() <= rel {
                std::cmp::Ordering::Less
            } else if n.prim_off() > rel {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => i,
            Err(_) => unreachable!("target primitive out of node range"),
        };
        match &nodes[idx] {
            FlatNode::Run { prim_off, .. } => {
                let iter = (rel - prim_off) as u32;
                self.stack.push(Frame {
                    nodes: nodes.clone(),
                    node_idx: idx,
                    iter,
                    base_local,
                    base_prim,
                });
            }
            FlatNode::Repeat {
                local_off,
                stride,
                prims_per_iter,
                prim_off,
                body,
                ..
            } => {
                let i = ((rel - prim_off) / prims_per_iter) as u32;
                let child_local = base_local + local_off + i * stride;
                let child_prim = base_prim + prim_off + u64::from(i) * prims_per_iter;
                let body = body.clone();
                self.stack.push(Frame {
                    nodes,
                    node_idx: idx,
                    iter: i + 1,
                    base_local,
                    base_prim,
                });
                self.descend_to_prim(body, child_local, child_prim, target);
            }
        }
    }

    /// Positions the iterator at the first primitive whose local extent
    /// ends after `byte` (absolute). Leaves the stack empty when no such
    /// primitive exists.
    fn descend_to_byte(
        &mut self,
        nodes: Arc<[FlatNode]>,
        base_local: u32,
        base_prim: u64,
        byte: u32,
    ) {
        // Nodes are ordered by local offset for struct fields and arrays.
        // Find the first node whose local end exceeds `byte`.
        let arch = self.arch;
        let idx = nodes.partition_point(|n| base_local + n.local_end(arch) <= byte);
        if idx >= nodes.len() {
            return;
        }
        match &nodes[idx] {
            FlatNode::Run {
                kind,
                count,
                local_off,
                stride,
                prim_off,
            } => {
                let start = base_local + local_off;
                let size = kind.local_size(arch);
                let step = (*stride).max(1);
                let iter = if byte <= start {
                    0
                } else {
                    let k = (byte - start) / step;
                    // Element k may already end at or before `byte`.
                    if start + k * step + size <= byte {
                        k + 1
                    } else {
                        k
                    }
                };
                debug_assert!(iter < *count);
                let _ = prim_off;
                self.stack.push(Frame {
                    nodes: nodes.clone(),
                    node_idx: idx,
                    iter,
                    base_local,
                    base_prim,
                });
            }
            FlatNode::Repeat {
                count,
                local_off,
                stride,
                prims_per_iter,
                prim_off,
                body,
            } => {
                let start = base_local + local_off;
                let i = if byte <= start {
                    0
                } else {
                    ((byte - start) / stride).min(count - 1)
                };
                // The chosen iteration may still end before `byte`
                // (trailing padding); try it, and fall forward if empty.
                for i in i..*count {
                    let child_local = start + i * stride;
                    let child_prim = base_prim + prim_off + u64::from(i) * prims_per_iter;
                    let depth = self.stack.len();
                    self.stack.push(Frame {
                        nodes: nodes.clone(),
                        node_idx: idx,
                        iter: i + 1,
                        base_local,
                        base_prim,
                    });
                    self.descend_to_byte(body.clone(), child_local, child_prim, byte);
                    if self.stack.len() > depth + 1 {
                        return;
                    }
                    // Nothing in this iteration ends after `byte`; undo and
                    // try the next iteration.
                    self.stack.truncate(depth);
                }
                // All iterations exhausted: resume after this node.
                self.stack.push(Frame {
                    nodes,
                    node_idx: idx + 1,
                    iter: 0,
                    base_local,
                    base_prim,
                });
            }
        }
    }
}

impl Iterator for PrimIter<'_> {
    type Item = PrimRef;

    fn next(&mut self) -> Option<PrimRef> {
        loop {
            let frame = self.stack.last_mut()?;
            if frame.node_idx >= frame.nodes.len() {
                self.stack.pop();
                continue;
            }
            // Work around borrow rules: extract what we need first.
            let node = frame.nodes[frame.node_idx].clone();
            match node {
                FlatNode::Run {
                    kind,
                    count,
                    local_off,
                    stride,
                    prim_off,
                } => {
                    if frame.iter < count {
                        let i = frame.iter;
                        frame.iter += 1;
                        return Some(PrimRef {
                            prim_off: frame.base_prim + prim_off + u64::from(i),
                            local_off: frame.base_local + local_off + i * stride,
                            kind,
                        });
                    }
                    frame.iter = 0;
                    frame.node_idx += 1;
                }
                FlatNode::Repeat {
                    count,
                    local_off,
                    stride,
                    prims_per_iter,
                    prim_off,
                    body,
                } => {
                    if frame.iter < count {
                        let i = frame.iter;
                        frame.iter += 1;
                        let base_local = frame.base_local + local_off + i * stride;
                        let base_prim = frame.base_prim + prim_off + u64::from(i) * prims_per_iter;
                        self.stack.push(Frame {
                            nodes: body,
                            node_idx: 0,
                            iter: 0,
                            base_local,
                            base_prim,
                        });
                    } else {
                        frame.iter = 0;
                        frame.node_idx += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x86() -> MachineArch {
        MachineArch::x86()
    }

    #[test]
    fn int_array_is_one_run() {
        let t = TypeDesc::array(TypeDesc::int32(), 1000);
        let fl = FlatLayout::new(&t, &x86());
        assert_eq!(fl.nodes().len(), 1);
        assert!(matches!(
            fl.nodes()[0],
            FlatNode::Run {
                kind: PrimKind::Int32,
                count: 1000,
                stride: 4,
                ..
            }
        ));
        assert_eq!(fl.prim_count(), 1000);
        assert_eq!(fl.local_size(), 4000);
        assert_eq!(fl.fixed_wire_size(), Some(4000));
    }

    #[test]
    fn consecutive_int_fields_merge_isomorphically() {
        let t = TypeDesc::structure(
            "s",
            vec![
                ("a", TypeDesc::int32()),
                ("b", TypeDesc::int32()),
                ("c", TypeDesc::int32()),
            ],
        );
        let fl = FlatLayout::new(&t, &x86());
        assert_eq!(fl.nodes().len(), 1);
        let un = FlatLayout::new_unoptimized(&t, &x86());
        assert_eq!(un.nodes().len(), 3);
        // Both yield the same primitive sequence.
        let a: Vec<_> = fl.iter().collect();
        let b: Vec<_> = un.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn array_of_homogeneous_structs_is_one_run() {
        // struct of 32 ints (the paper's int_struct) tiles perfectly.
        let fields: Vec<(String, TypeDesc)> = (0..32)
            .map(|i| (format!("f{i}"), TypeDesc::int32()))
            .collect();
        let t = TypeDesc::new(TypeKind::Struct {
            name: "int_struct".into(),
            fields: fields
                .into_iter()
                .map(|(name, ty)| crate::desc::Field { name, ty })
                .collect(),
        });
        let arr = TypeDesc::array(t, 100);
        let fl = FlatLayout::new(&arr, &x86());
        assert_eq!(fl.nodes().len(), 1);
        assert_eq!(fl.prim_count(), 3200);
    }

    #[test]
    fn mixed_struct_array_uses_repeat() {
        let t = TypeDesc::structure(
            "m",
            vec![("i", TypeDesc::int32()), ("d", TypeDesc::float64())],
        );
        let arr = TypeDesc::array(t, 4);
        let fl = FlatLayout::new(&arr, &x86());
        assert_eq!(fl.nodes().len(), 1);
        assert!(matches!(fl.nodes()[0], FlatNode::Repeat { count: 4, .. }));
        let prims: Vec<_> = fl.iter().collect();
        assert_eq!(prims.len(), 8);
        // x86: struct size 12 (double 4-aligned): i@0, d@4.
        assert_eq!(prims[0].local_off, 0);
        assert_eq!(prims[1].local_off, 4);
        assert_eq!(prims[2].local_off, 12);
        assert_eq!(prims[3].local_off, 16);
        assert_eq!(prims[2].prim_off, 2);
    }

    #[test]
    fn iteration_order_is_prim_order() {
        let t = TypeDesc::structure(
            "m",
            vec![
                ("c", TypeDesc::char8()),
                ("i", TypeDesc::int32()),
                ("a", TypeDesc::array(TypeDesc::int16(), 3)),
                ("p", TypeDesc::pointer()),
            ],
        );
        let fl = FlatLayout::new(&t, &x86());
        let prims: Vec<_> = fl.iter().collect();
        assert_eq!(prims.len(), 6);
        for (i, p) in prims.iter().enumerate() {
            assert_eq!(p.prim_off, i as u64);
        }
        assert_eq!(prims[0].kind, PrimKind::Char);
        assert_eq!(prims[1].local_off, 4); // int after padding
        assert_eq!(prims[2].local_off, 8); // shorts
        assert_eq!(prims[4].local_off, 12);
        assert_eq!(prims[5].kind, PrimKind::Ptr);
        assert_eq!(prims[5].local_off, 16);
    }

    #[test]
    fn seek_prim_positions_exactly() {
        let t = TypeDesc::array(
            TypeDesc::structure(
                "m",
                vec![("i", TypeDesc::int32()), ("d", TypeDesc::float64())],
            ),
            100,
        );
        let fl = FlatLayout::new(&t, &x86());
        for target in [0u64, 1, 2, 7, 100, 137, 199] {
            let got: Vec<_> = fl.seek_prim(target).take(3).collect();
            let want: Vec<_> = fl.iter().skip(target as usize).take(3).collect();
            assert_eq!(got, want, "seek to {target}");
        }
        assert_eq!(fl.seek_prim(200).next(), None);
        assert_eq!(fl.seek_prim(10_000).next(), None);
    }

    #[test]
    fn seek_byte_finds_containing_or_next() {
        let t = TypeDesc::structure(
            "m",
            vec![("c", TypeDesc::char8()), ("i", TypeDesc::int32())],
        );
        let fl = FlatLayout::new(&t, &x86());
        // byte 0 -> char
        assert_eq!(fl.seek_byte(0).next().unwrap().kind, PrimKind::Char);
        // byte 1..3 are padding -> int at 4
        for b in 1..=4 {
            let p = fl.seek_byte(b).next().unwrap();
            assert_eq!(p.kind, PrimKind::Int32);
            assert_eq!(p.local_off, 4);
        }
        // middle of the int still returns the int
        assert_eq!(fl.seek_byte(6).next().unwrap().local_off, 4);
        // past the end
        assert_eq!(fl.seek_byte(8).next(), None);
    }

    #[test]
    fn seek_byte_into_array_elements() {
        let t = TypeDesc::array(TypeDesc::int32(), 10);
        let fl = FlatLayout::new(&t, &x86());
        let p = fl.seek_byte(17).next().unwrap();
        assert_eq!(p.local_off, 16);
        assert_eq!(p.prim_off, 4);
        let p = fl.seek_byte(20).next().unwrap();
        assert_eq!(p.local_off, 20);
    }

    #[test]
    fn seek_byte_skips_trailing_padding_of_iteration() {
        // struct {double d; char c;} has 3 bytes padding per element on x86.
        let t = TypeDesc::array(
            TypeDesc::structure(
                "s",
                vec![("d", TypeDesc::float64()), ("c", TypeDesc::char8())],
            ),
            3,
        );
        let fl = FlatLayout::new(&t, &x86());
        // stride 12; element 0: d@0..8, c@8..9, pad 9..12.
        let p = fl.seek_byte(9).next().unwrap();
        assert_eq!(p.local_off, 12, "padding should skip to next element");
        assert_eq!(p.kind, PrimKind::Float64);
        // Also exactly at the end of data.
        assert_eq!(fl.seek_byte(33).next(), None);
    }

    #[test]
    fn prim_containing_byte_rejects_padding() {
        let t = TypeDesc::structure(
            "m",
            vec![("c", TypeDesc::char8()), ("i", TypeDesc::int32())],
        );
        let fl = FlatLayout::new(&t, &x86());
        assert!(fl.prim_containing_byte(0).is_some());
        assert!(fl.prim_containing_byte(2).is_none());
        assert_eq!(fl.prim_containing_byte(5).unwrap().local_off, 4);
        assert!(fl.prim_containing_byte(100).is_none());
    }

    #[test]
    fn strings_and_pointers_make_wire_size_variable() {
        let t = TypeDesc::structure(
            "m",
            vec![("s", TypeDesc::string(8)), ("i", TypeDesc::int32())],
        );
        let fl = FlatLayout::new(&t, &x86());
        assert_eq!(fl.fixed_wire_size(), None);
        let t2 = TypeDesc::array(TypeDesc::float64(), 7);
        assert_eq!(FlatLayout::new(&t2, &x86()).fixed_wire_size(), Some(56));
    }

    #[test]
    fn pointer_size_tracks_arch_in_flat_layout() {
        let t = TypeDesc::array(TypeDesc::pointer(), 4);
        let fl32 = FlatLayout::new(&t, &MachineArch::x86());
        let fl64 = FlatLayout::new(&t, &MachineArch::alpha());
        assert_eq!(fl32.local_size(), 16);
        assert_eq!(fl64.local_size(), 32);
    }

    #[test]
    fn empty_array_yields_no_prims() {
        let t = TypeDesc::array(TypeDesc::int32(), 0);
        let fl = FlatLayout::new(&t, &x86());
        assert_eq!(fl.iter().count(), 0);
        assert_eq!(fl.prim_count(), 0);
        assert_eq!(fl.seek_byte(0).next(), None);
    }

    #[test]
    fn exhaustive_seek_consistency_on_nested_type() {
        // Nested: array of struct { char tag; int v[3]; string<5> s; }
        let t = TypeDesc::array(
            TypeDesc::structure(
                "n",
                vec![
                    ("tag", TypeDesc::char8()),
                    ("v", TypeDesc::array(TypeDesc::int32(), 3)),
                    ("s", TypeDesc::string(5)),
                ],
            ),
            5,
        );
        for arch in MachineArch::all() {
            let fl = FlatLayout::new(&t, &arch);
            let all: Vec<_> = fl.iter().collect();
            assert_eq!(all.len() as u64, fl.prim_count());
            // seek_prim at every index matches suffix of full iteration.
            for (i, _) in all.iter().enumerate() {
                let got: Vec<_> = fl.seek_prim(i as u64).collect();
                assert_eq!(&got[..], &all[i..], "arch {} prim {}", arch.name, i);
            }
            // seek_byte at every byte is the first prim ending after it.
            for byte in 0..fl.local_size() {
                let expect = all
                    .iter()
                    .find(|p| p.local_off + p.local_size(&arch) > byte)
                    .copied();
                let got = fl.seek_byte(byte).next();
                assert_eq!(got, expect, "arch {} byte {}", arch.name, byte);
                assert_eq!(fl.prim_ending_after(byte), expect);
            }
            for (i, p) in all.iter().enumerate() {
                assert_eq!(fl.prim_at(i as u64), Some(*p));
            }
        }
    }
}

#[cfg(test)]
mod run_iter_tests {
    use super::*;

    #[test]
    fn runs_cover_exactly_the_prims() {
        let t = TypeDesc::array(
            TypeDesc::structure(
                "m",
                vec![
                    ("c", TypeDesc::char8()),
                    ("v", TypeDesc::array(TypeDesc::int32(), 3)),
                ],
            ),
            7,
        );
        for arch in MachineArch::all() {
            let fl = FlatLayout::new(&t, &arch);
            let prims: Vec<PrimRef> = fl.iter().collect();
            let mut from_runs = Vec::new();
            for r in fl.runs() {
                for k in 0..r.count {
                    from_runs.push(PrimRef {
                        prim_off: r.prim_off + u64::from(k),
                        local_off: r.local_off + k * r.stride,
                        kind: r.kind,
                    });
                }
            }
            assert_eq!(from_runs, prims, "arch {}", arch.name);
        }
    }

    #[test]
    fn seek_prim_runs_yields_run_tail() {
        let t = TypeDesc::array(TypeDesc::int32(), 100);
        let fl = FlatLayout::new(&t, &MachineArch::x86());
        let r = fl.seek_prim_runs(37).next().unwrap();
        assert_eq!(r.prim_off, 37);
        assert_eq!(r.count, 63);
        assert_eq!(r.local_off, 148);
        assert_eq!(r.stride, 4);
    }

    #[test]
    fn seek_byte_runs_matches_seek_byte() {
        let t = TypeDesc::array(
            TypeDesc::structure(
                "s",
                vec![("d", TypeDesc::float64()), ("c", TypeDesc::char8())],
            ),
            4,
        );
        let fl = FlatLayout::new(&t, &MachineArch::x86());
        for byte in 0..fl.local_size() {
            let via_prim = fl.seek_byte(byte).next();
            let via_run = fl.seek_byte_runs(byte).next().map(|r| PrimRef {
                prim_off: r.prim_off,
                local_off: r.local_off,
                kind: r.kind,
            });
            assert_eq!(via_run, via_prim, "byte {byte}");
        }
    }

    #[test]
    fn whole_array_is_single_run() {
        let t = TypeDesc::array(TypeDesc::float64(), 500);
        let fl = FlatLayout::new(&t, &MachineArch::alpha());
        let runs: Vec<RunRef> = fl.runs().collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].count, 500);
    }
}
