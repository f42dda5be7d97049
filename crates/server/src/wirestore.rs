//! Wire-format block storage.
//!
//! "To avoid an extra level of translation, the server stores both data and
//! type descriptors in wire format. … In order to avoid unnecessary data
//! relocation, MIPs and character string data are stored separately from
//! their blocks, since they can be of variable size." (§3.2)
//!
//! A [`WireStore`] holds a block as:
//!
//! - a *fixed image*: the big-endian wire bytes of every fixed-size
//!   primitive, packed, with a 4-byte slot in primitive order for each
//!   variable-length primitive (string or MIP);
//! - an *item arena*: one byte buffer holding the out-of-line items, with
//!   an `(offset, length, capacity)` entry per slot. An item that fits its
//!   slot's capacity is overwritten in place, a longer one is appended
//!   with some room to grow, and the arena is compacted once it holds
//!   more than twice its live bytes plus [`ARENA_SLACK`].
//!
//! Every walk over a block goes through its [`StoreLayout`]'s span table,
//! compiled once per `(type, count)`: runs of fixed primitives of one wire
//! size, runs of variable primitives, and repeats of a mixed body.
//! Consecutive fixed primitives of any kind are contiguous in both the wire
//! bytes and the image, so a range of primitives comes out as a few
//! *stretches*: each stretch of fixed primitives is one bounds check and
//! one copy, and each stretch of variable primitives is one pass over its
//! items. An array of `struct { int; double; }` is one stretch however
//! long it is.

use std::sync::Arc;

use bytes::Bytes;
use iw_types::desc::{TypeDesc, TypeKind};
use iw_wire::codec::{WireError, WireWriter, MAX_ITEM_LEN};

/// Dead bytes an item arena may hold beyond its live bytes before it is
/// compacted: an arena never exceeds twice its live bytes plus this.
pub const ARENA_SLACK: usize = 4 << 10;

/// What a span, or a prefix of a block, covers: primitives, fixed-image
/// bytes and variable slots.
#[derive(Debug, Clone, Copy, Default)]
struct Extent {
    prims: u64,
    bytes: u64,
    vars: u64,
}

impl Extent {
    fn plus(self, o: Extent) -> Extent {
        Extent {
            prims: self.prims.saturating_add(o.prims),
            bytes: self.bytes.saturating_add(o.bytes),
            vars: self.vars.saturating_add(o.vars),
        }
    }

    fn times(self, n: u64) -> Extent {
        Extent {
            prims: self.prims.saturating_mul(n),
            bytes: self.bytes.saturating_mul(n),
            vars: self.vars.saturating_mul(n),
        }
    }
}

/// One entry of a compiled span table.
#[derive(Debug)]
enum Span {
    /// `count` consecutive fixed primitives of `size` wire bytes each.
    Fixed { size: u64, count: u64 },
    /// `count` consecutive variable primitives.
    Var { count: u64 },
    /// `count` iterations of a body of several spans, `per` each.
    Repeat {
        count: u64,
        per: Extent,
        body: Box<[Span]>,
    },
}

impl Span {
    fn extent(&self) -> Extent {
        match *self {
            Span::Fixed { size, count } => Extent {
                prims: count,
                bytes: size.saturating_mul(count),
                vars: 0,
            },
            Span::Var { count } => Extent {
                prims: count,
                bytes: count.saturating_mul(4),
                vars: count,
            },
            Span::Repeat { count, per, .. } => per.times(count),
        }
    }

    /// Image bytes before primitive `k` of a span that holds no variable
    /// primitive.
    fn fixed_offset(&self, k: u64) -> u64 {
        match self {
            Span::Fixed { size, .. } => k * size,
            Span::Repeat { per, body, .. } => {
                (k / per.prims) * per.bytes + fixed_offset_in(body, k % per.prims)
            }
            Span::Var { .. } => unreachable!("a variable span has no fixed offsets"),
        }
    }
}

/// Image bytes before primitive `k` of a list of fixed spans.
fn fixed_offset_in(spans: &[Span], mut k: u64) -> u64 {
    let mut at = 0;
    for s in spans {
        let e = s.extent();
        if k < e.prims {
            return at + s.fixed_offset(k);
        }
        k -= e.prims;
        at += e.bytes;
    }
    at
}

fn extent_of(spans: &[Span]) -> Extent {
    spans
        .iter()
        .fold(Extent::default(), |a, s| a.plus(s.extent()))
}

/// Appends `span` to `out`, merging it into the last span when both are
/// fixed of one size or both variable.
fn push(out: &mut Vec<Span>, span: Span) {
    match (out.last_mut(), span) {
        (Some(Span::Fixed { size, count }), Span::Fixed { size: s, count: c }) if *size == s => {
            *count = count.saturating_add(c)
        }
        (Some(Span::Var { count }), Span::Var { count: c }) => *count = count.saturating_add(c),
        (_, span) => out.push(span),
    }
}

/// Compiles `ty` into spans appended to `out`.
fn compile(ty: &TypeDesc, out: &mut Vec<Span>) {
    match ty.kind() {
        TypeKind::Prim(kind) => push(
            out,
            match kind.wire_size() {
                Some(size) => Span::Fixed {
                    size: u64::from(size),
                    count: 1,
                },
                None => Span::Var { count: 1 },
            },
        ),
        TypeKind::Struct { fields, .. } => fields.iter().for_each(|f| compile(&f.ty, out)),
        TypeKind::Array { elem, len } => {
            let len = u64::from(*len);
            let mut body = Vec::new();
            compile(elem, &mut body);
            if len == 0 || body.is_empty() {
                return;
            }
            if body.len() == 1 {
                let scaled = match body.pop().expect("one span") {
                    Span::Fixed { size, count } => Span::Fixed {
                        size,
                        count: count.saturating_mul(len),
                    },
                    Span::Var { count } => Span::Var {
                        count: count.saturating_mul(len),
                    },
                    Span::Repeat { count, per, body } => Span::Repeat {
                        count: count.saturating_mul(len),
                        per,
                        body,
                    },
                };
                push(out, scaled);
            } else if len == 1 {
                body.into_iter().for_each(|s| push(out, s));
            } else {
                let per = extent_of(&body);
                let body = body.into_boxed_slice();
                out.push(Span::Repeat {
                    count: len,
                    per,
                    body,
                });
            }
        }
    }
}

/// The fixed-image size of a value of `ty`, from the type alone: the
/// fewest wire bytes it can take (each variable item has a 4-byte length).
/// `None` when it does not fit in a `u64`.
fn wire_floor(ty: &TypeDesc) -> Option<u64> {
    match ty.kind() {
        TypeKind::Prim(kind) => Some(u64::from(kind.wire_size().unwrap_or(4))),
        TypeKind::Array { elem, len } => wire_floor(elem)?.checked_mul(u64::from(*len)),
        TypeKind::Struct { fields, .. } => fields
            .iter()
            .try_fold(0u64, |sum, f| sum.checked_add(wire_floor(&f.ty)?)),
    }
}

/// Refuses `data` as the wire image of a block whose fixed image is
/// `need` bytes (`None`: beyond any image).
fn check_floor(need: Option<u64>, data: &[u8]) -> Result<(), WireError> {
    match need {
        None => Err(WireError::LengthOverflow { len: u64::MAX }),
        Some(n) if n > data.len() as u64 => Err(WireError::UnexpectedEof {
            wanted: usize::try_from(n).unwrap_or(usize::MAX),
            available: data.len(),
        }),
        Some(_) => Ok(()),
    }
}

/// One stretch of a primitive range.
#[derive(Debug, Clone, Copy)]
enum Stretch {
    /// Fixed-image bytes `[at, at + len)`: the wire bytes of consecutive
    /// fixed primitives.
    Fixed { at: usize, len: usize },
    /// Variable slots `[slot, slot + n)`.
    Vars { slot: usize, n: usize },
}

/// Merges the pieces a span walk yields into maximal stretches and hands
/// each to `f`.
struct Stretches<F> {
    f: F,
    pending: Option<Stretch>,
}

impl<F: FnMut(Stretch) -> Result<(), WireError>> Stretches<F> {
    fn push(&mut self, s: Stretch) -> Result<(), WireError> {
        match (&mut self.pending, s) {
            (Some(Stretch::Fixed { at, len }), Stretch::Fixed { at: a, len: l })
                if *at + *len == a =>
            {
                *len += l;
                return Ok(());
            }
            (Some(Stretch::Vars { slot, n }), Stretch::Vars { slot: s, n: m })
                if *slot + *n == s =>
            {
                *n += m;
                return Ok(());
            }
            _ => {}
        }
        match self.pending.replace(s) {
            Some(done) => (self.f)(done),
            None => Ok(()),
        }
    }

    fn finish(mut self) -> Result<(), WireError> {
        match self.pending.take() {
            Some(done) => (self.f)(done),
            None => Ok(()),
        }
    }
}

/// Walks primitives `[skip, skip + take)` of `spans`, which start at `at`.
fn walk<F: FnMut(Stretch) -> Result<(), WireError>>(
    spans: &[Span],
    mut skip: u64,
    mut take: u64,
    mut at: Extent,
    out: &mut Stretches<F>,
) -> Result<(), WireError> {
    for span in spans {
        if take == 0 {
            break;
        }
        let ext = span.extent();
        if skip >= ext.prims {
            skip -= ext.prims;
            at = at.plus(ext);
            continue;
        }
        let n = (ext.prims - skip).min(take);
        match span {
            Span::Var { .. } => out.push(Stretch::Vars {
                slot: (at.vars + skip) as usize,
                n: n as usize,
            })?,
            _ if ext.vars == 0 => {
                let lo = span.fixed_offset(skip);
                let hi = span.fixed_offset(skip + n);
                out.push(Stretch::Fixed {
                    at: (at.bytes + lo) as usize,
                    len: (hi - lo) as usize,
                })?;
            }
            Span::Repeat { per, body, .. } => {
                let (mut i, mut k, mut left) = (skip / per.prims, skip % per.prims, n);
                while left > 0 {
                    let m = (per.prims - k).min(left);
                    walk(body, k, m, at.plus(per.times(i)), out)?;
                    (i, k, left) = (i + 1, 0, left - m);
                }
            }
            Span::Fixed { .. } => unreachable!("a fixed span holds no variable primitive"),
        }
        take -= n;
        skip = 0;
        at = at.plus(ext);
    }
    Ok(())
}

/// Shared, per-`(type, count)` layout of a block in wire storage: its
/// compiled span table.
#[derive(Debug, Clone)]
pub struct StoreLayout {
    spans: Arc<[Span]>,
    total: Extent,
}

impl StoreLayout {
    /// Compiles the layout of `count` elements of `ty`.
    pub fn new(ty: &TypeDesc, count: u32) -> Self {
        let mut spans = Vec::new();
        compile(&TypeDesc::array(ty.clone(), count), &mut spans);
        StoreLayout {
            total: extent_of(&spans),
            spans: spans.into(),
        }
    }

    /// Number of primitive data units in the block.
    pub fn prim_count(&self) -> u64 {
        self.total.prims
    }

    /// Bytes in the fixed image: the wire size of every fixed primitive
    /// plus 4 per variable one, which is also the fewest wire bytes the
    /// whole block can take.
    pub fn fixed_size(&self) -> u64 {
        self.total.bytes
    }

    /// Refuses `data` as the whole wire image of `count` elements of
    /// `ty` when it is shorter than their fixed image. Computed from the
    /// type alone, so a short block is refused before any of its
    /// storage, or its layout, is allocated.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when `data` is too short;
    /// [`WireError::LengthOverflow`] when the size overflows.
    pub(crate) fn check_size(ty: &TypeDesc, count: u32, data: &[u8]) -> Result<(), WireError> {
        check_floor(
            wire_floor(ty).and_then(|n| n.checked_mul(u64::from(count))),
            data,
        )
    }

    /// Hands the stretches of primitives `[start, start+count)` to `f`,
    /// in order, stopping at its first error.
    fn stretches(
        &self,
        start: u64,
        count: u64,
        f: impl FnMut(Stretch) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        let end = start.saturating_add(count);
        if end > self.prim_count() {
            return Err(WireError::LengthOverflow { len: end });
        }
        let mut out = Stretches { f, pending: None };
        walk(&self.spans, start, count, Extent::default(), &mut out)?;
        out.finish()
    }

    /// Checks that `src` holds exactly the wire bytes of primitives
    /// `[start, start+count)` and records, in `out`, the writes that
    /// install them — the server side of diff application, split so that
    /// nothing is written until a whole diff has been checked. The
    /// writes borrow `src`: bytes are copied only by
    /// [`WireStore::install`]. One write covers each stretch, and each
    /// stretch of items is validated once, here.
    ///
    /// # Errors
    ///
    /// Decoding errors from `src` (truncation, item lengths, UTF-8,
    /// trailing bytes); [`WireError::LengthOverflow`] when the range
    /// exceeds the block.
    pub(crate) fn check<'d>(
        &self,
        start: u64,
        count: u64,
        src: &'d [u8],
        out: &mut Vec<Write<'d>>,
    ) -> Result<(), WireError> {
        let mut pos = 0;
        self.stretches(start, count, |s| {
            let rest = &src[pos..];
            let write = match s {
                Stretch::Fixed { at, len } => {
                    let bytes = rest.get(..len).ok_or(WireError::UnexpectedEof {
                        wanted: len,
                        available: rest.len(),
                    })?;
                    Write::Fixed(at, bytes)
                }
                Stretch::Vars { slot, n } => Write::Vars {
                    slot,
                    n,
                    items: &rest[..scan_items(rest, n)?],
                },
            };
            pos += match write {
                Write::Fixed(_, b) | Write::Vars { items: b, .. } => b.len(),
            };
            out.push(write);
            Ok(())
        })?;
        match src.len() - pos {
            0 => Ok(()),
            len => Err(WireError::TrailingBytes { len }),
        }
    }
}

/// The length of the wire item (a `u32` length, then that many bytes)
/// at the front of `src`.
fn item_len(src: &[u8]) -> Result<usize, WireError> {
    let Some((len, item)) = src.split_first_chunk::<4>() else {
        return Err(WireError::UnexpectedEof {
            wanted: 4,
            available: src.len(),
        });
    };
    let n = u32::from_be_bytes(*len);
    if u64::from(n) > MAX_ITEM_LEN {
        return Err(WireError::LengthOverflow { len: u64::from(n) });
    }
    if item.len() < n as usize {
        return Err(WireError::UnexpectedEof {
            wanted: n as usize,
            available: item.len(),
        });
    }
    Ok(n as usize)
}

/// The bytes taken by the `n` wire items at the front of `src`, each
/// checked to be UTF-8. An all-ASCII stretch (length prefixes included)
/// is valid in one pass; any other is checked item by item. A bad item
/// refuses the stretch before a later truncated one, as in an
/// item-by-item check.
fn scan_items(src: &[u8], n: usize) -> Result<usize, WireError> {
    let mut end = 0;
    let mut fault = None;
    for _ in 0..n {
        match item_len(&src[end..]) {
            Ok(len) => end += 4 + len,
            Err(e) => {
                fault = Some(e);
                break;
            }
        }
    }
    if !src[..end].is_ascii() {
        let mut at = 0;
        while at < end {
            let len = item_len(&src[at..]).expect("walked item");
            std::str::from_utf8(&src[at + 4..at + 4 + len]).map_err(|_| WireError::InvalidUtf8)?;
            at += 4 + len;
        }
    }
    fault.map_or(Ok(end), Err)
}

/// One write resolved by [`StoreLayout::check`], borrowing the checked
/// bytes.
#[derive(Debug)]
pub(crate) enum Write<'d> {
    /// Wire bytes copied into the fixed image at this offset.
    Fixed(usize, &'d [u8]),
    /// `n` checked wire items stored into the slots from `slot` on.
    Vars {
        slot: usize,
        n: usize,
        items: &'d [u8],
    },
}

/// The capacity a slot gets when an item of `len` bytes outgrows it.
fn grown(len: u32) -> u32 {
    len + len / 4
}

/// Where one variable item lives in the arena.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    off: usize,
    len: u32,
    cap: u32,
}

/// One block's wire-format contents.
#[derive(Debug, Clone, Default)]
pub struct WireStore {
    /// Packed big-endian fixed image, with a 4-byte slot per variable
    /// primitive.
    fixed: Vec<u8>,
    /// Variable items in primitive order.
    slots: Vec<Slot>,
    /// The bytes of every variable item, dead ones included.
    arena: Vec<u8>,
    /// Bytes of the items the slots hold now.
    live: usize,
}

/// Stores compare by contents: equal images and equal items, wherever
/// the items sit in their arenas.
impl PartialEq for WireStore {
    fn eq(&self, other: &Self) -> bool {
        self.fixed == other.fixed
            && self.slots.len() == other.slots.len()
            && self
                .slots
                .iter()
                .zip(&other.slots)
                .all(|(a, b)| self.item(*a) == other.item(*b))
    }
}

impl WireStore {
    /// Creates zeroed storage for a block laid out by `layout`: a zeroed
    /// fixed image and one empty slot per variable primitive.
    pub fn new(layout: &StoreLayout) -> Self {
        WireStore {
            fixed: vec![0; layout.total.bytes as usize],
            slots: vec![Slot::default(); layout.total.vars as usize],
            arena: Vec::new(),
            live: 0,
        }
    }

    /// Builds a block's storage from its whole wire image, refusing a
    /// `data` shorter than the layout's fixed image before allocating.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when `data` is shorter than the fixed
    /// image; otherwise as [`WireStore::apply`].
    pub fn from_wire(layout: &StoreLayout, data: &[u8]) -> Result<Self, WireError> {
        check_floor(Some(layout.fixed_size()), data)?;
        let mut store = WireStore::new(layout);
        store.apply(layout, 0, layout.prim_count(), data)?;
        Ok(store)
    }

    /// Bytes held in the fixed image (diagnostics).
    pub fn fixed_len(&self) -> usize {
        self.fixed.len()
    }

    /// Number of variable slots (diagnostics).
    pub fn var_count(&self) -> usize {
        self.slots.len()
    }

    /// Bytes held in the item arena, dead ones included (diagnostics).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    fn item(&self, s: Slot) -> &[u8] {
        &self.arena[s.off..s.off + s.len as usize]
    }

    /// Encodes primitives `[start, start+count)` to wire format, appending
    /// to `w` — the server side of diff construction. Because the fixed
    /// image *is* packed wire format, a stretch of fixed primitives is a
    /// single copy; variable primitives emit their items.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOverflow`] when the range exceeds the block.
    pub fn extract(
        &self,
        layout: &StoreLayout,
        start: u64,
        count: u64,
        w: &mut WireWriter,
    ) -> Result<(), WireError> {
        layout.stretches(start, count, |s| {
            match s {
                Stretch::Fixed { at, len } => w.put_bytes(&self.fixed[at..at + len]),
                Stretch::Vars { slot, n } => {
                    // One stretch of items is one write of known length.
                    let slots = &self.slots[slot..slot + n];
                    let len = slots.iter().map(|s| 4 + s.len as usize).sum();
                    let mut out = w.put_zeroed(len);
                    for s in slots {
                        let (head, rest) = out.split_at_mut(4);
                        head.copy_from_slice(&s.len.to_be_bytes());
                        let (item, rest) = rest.split_at_mut(s.len as usize);
                        item.copy_from_slice(self.item(*s));
                        out = rest;
                    }
                }
            }
            Ok(())
        })
    }

    /// Makes the writes [`StoreLayout::check`] recorded against this
    /// store's layout. Cannot fail: every offset, slot and item was
    /// resolved by the check.
    pub(crate) fn install(&mut self, writes: &[Write<'_>]) {
        for w in writes {
            match *w {
                Write::Fixed(at, bytes) => self.fixed[at..at + bytes.len()].copy_from_slice(bytes),
                Write::Vars { slot, n, items } => {
                    let mut at = 0;
                    for slot in slot..slot + n {
                        let len = item_len(&items[at..]).expect("checked item");
                        self.put_item(slot, &items[at + 4..at + 4 + len]);
                        at += 4 + len;
                    }
                }
            }
        }
        if self.arena.len() > 2 * self.live + ARENA_SLACK {
            self.compact();
        }
    }

    /// Stores `item` in `slot`: in place when it fits the slot's
    /// capacity, else appended to the arena. A slot filled for the first
    /// time gets the item's length as its capacity; one an item outgrows
    /// gets [`grown`] capacity, so an item that keeps growing a little (a
    /// MIP whose offset gains a digit) moves once, not on every write.
    fn put_item(&mut self, slot: usize, item: &[u8]) {
        let s = &mut self.slots[slot];
        let len = item.len() as u32;
        self.live = self.live - s.len as usize + item.len();
        if len > s.cap {
            s.cap = if s.cap == 0 { len } else { grown(len) };
            s.off = self.arena.len();
            self.arena.extend_from_slice(item);
            self.arena.resize(s.off + s.cap as usize, 0);
        } else {
            self.arena[s.off..s.off + item.len()].copy_from_slice(item);
        }
        s.len = len;
    }

    /// Rewrites the arena to hold only live items, each slot keeping at
    /// most [`grown`] capacity: the arena ends at no more than 5/4 of its
    /// live bytes.
    fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.live + self.live / 4);
        for s in &mut self.slots {
            let off = arena.len();
            let cap = s.cap.min(grown(s.len));
            arena.extend_from_slice(&self.arena[s.off..s.off + s.len as usize]);
            arena.resize(off + cap as usize, 0);
            *s = Slot {
                off,
                len: s.len,
                cap,
            };
        }
        self.arena = arena;
    }

    /// Decodes the wire bytes of primitives `[start, start+count)` into
    /// this store: checks them all, then installs them, so refused bytes
    /// change nothing.
    ///
    /// # Errors
    ///
    /// Decoding errors from `src` (truncation, item lengths, UTF-8,
    /// trailing bytes); [`WireError::LengthOverflow`] when the range
    /// exceeds the block.
    pub fn apply(
        &mut self,
        layout: &StoreLayout,
        start: u64,
        count: u64,
        src: &[u8],
    ) -> Result<(), WireError> {
        let mut writes = Vec::new();
        layout.check(start, count, src, &mut writes)?;
        self.install(&writes);
        Ok(())
    }

    /// Wire bytes of the whole block: every fixed primitive, and each
    /// item with its 4-byte length.
    pub(crate) fn wire_len(&self) -> usize {
        self.fixed.len() + self.live
    }

    /// Encodes the whole block (full transfers and images).
    ///
    /// # Errors
    ///
    /// As [`WireStore::extract`].
    pub fn extract_all(&self, layout: &StoreLayout) -> Result<Bytes, WireError> {
        let mut w = WireWriter::with_capacity(self.wire_len());
        self.extract(layout, 0, layout.prim_count(), &mut w)?;
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_wire::codec::WireReader;

    fn mix_ty() -> TypeDesc {
        TypeDesc::structure(
            "mix",
            vec![
                ("i", TypeDesc::int32()),
                ("s", TypeDesc::string(16)),
                ("d", TypeDesc::float64()),
                ("p", TypeDesc::pointer()),
            ],
        )
    }

    #[test]
    fn layout_geometry() {
        let l = StoreLayout::new(&mix_ty(), 3);
        assert_eq!(l.prim_count(), 12);
        // per element: 4 (int) + 4 (slot) + 8 (double) + 4 (slot) = 20
        assert_eq!(l.fixed_size(), 60);
        let store = WireStore::new(&l);
        assert_eq!(store.fixed_len(), 60);
        assert_eq!(store.var_count(), 6);
    }

    #[test]
    fn scalar_int_layout() {
        let l = StoreLayout::new(&TypeDesc::int32(), 100);
        assert_eq!(l.prim_count(), 100);
        assert_eq!(l.fixed_size(), 400);
        assert_eq!(WireStore::new(&l).var_count(), 0);
    }

    fn wire_of_mix_elem(i: i32, s: &str, d: f64, p: &str) -> Bytes {
        let mut w = WireWriter::new();
        w.put_u32(i as u32);
        w.put_str(s);
        w.put_f64(d);
        w.put_str(p);
        w.finish()
    }

    #[test]
    fn apply_then_extract_roundtrips() {
        let l = StoreLayout::new(&mix_ty(), 2);
        let mut store = WireStore::new(&l);
        let mut payload = WireWriter::new();
        payload.put_bytes(&wire_of_mix_elem(7, "hello", 2.5, "seg#blk#1"));
        payload.put_bytes(&wire_of_mix_elem(-9, "world", -0.5, ""));
        store.apply(&l, 0, 8, &payload.finish()).unwrap();

        let out = store.extract_all(&l).unwrap();
        let mut rr = WireReader::new(out);
        assert_eq!(rr.get_u32().unwrap(), 7);
        assert_eq!(rr.get_str().unwrap(), "hello");
        assert_eq!(rr.get_f64().unwrap(), 2.5);
        assert_eq!(rr.get_str().unwrap(), "seg#blk#1");
        assert_eq!(rr.get_u32().unwrap() as i32, -9);
        assert_eq!(rr.get_str().unwrap(), "world");
        assert_eq!(rr.get_f64().unwrap(), -0.5);
        assert_eq!(rr.get_str().unwrap(), "");
    }

    #[test]
    fn partial_update_touches_only_range() {
        let l = StoreLayout::new(&mix_ty(), 2);
        let mut store = WireStore::new(&l);
        // Update prims 4..6 (second element's int and string).
        let mut w = WireWriter::new();
        w.put_u32(42);
        w.put_str("mid");
        store.apply(&l, 4, 2, &w.finish()).unwrap();

        let mut out = WireWriter::new();
        store.extract(&l, 4, 2, &mut out).unwrap();
        let mut rr = WireReader::new(out.finish());
        assert_eq!(rr.get_u32().unwrap(), 42);
        assert_eq!(rr.get_str().unwrap(), "mid");
        // Element 0 untouched (zeroed).
        let mut out0 = WireWriter::new();
        store.extract(&l, 0, 1, &mut out0).unwrap();
        let mut r0 = WireReader::new(out0.finish());
        assert_eq!(r0.get_u32().unwrap(), 0);
    }

    #[test]
    fn var_update_reuses_slot() {
        let l = StoreLayout::new(&TypeDesc::string(32), 1);
        let mut store = WireStore::new(&l);
        for s in ["a", "bb", "a-much-longer-string", ""] {
            let mut w = WireWriter::new();
            w.put_str(s);
            store.apply(&l, 0, 1, &w.finish()).unwrap();
            assert_eq!(store.var_count(), 1, "no slot churn");
            let out = store.extract_all(&l).unwrap();
            let mut rr = WireReader::new(out);
            assert_eq!(rr.get_str().unwrap(), s);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let l = StoreLayout::new(&TypeDesc::int32(), 4);
        let store = WireStore::new(&l);
        let mut w = WireWriter::new();
        assert!(store.extract(&l, 3, 2, &mut w).is_err());
        let mut store = store;
        assert!(store
            .apply(&l, 4, 1, &Bytes::from_static(&[0; 64]))
            .is_err());
    }

    #[test]
    fn truncated_apply_rejected() {
        let l = StoreLayout::new(&TypeDesc::int32(), 4);
        let mut store = WireStore::new(&l);
        let short = Bytes::from_static(&[0, 0]); // 2 bytes < 4
        assert!(matches!(
            store.apply(&l, 0, 1, &short),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn nested_arrays_of_strings() {
        let ty = TypeDesc::structure("s", vec![("tags", TypeDesc::array(TypeDesc::string(8), 3))]);
        let l = StoreLayout::new(&ty, 2);
        assert_eq!(l.prim_count(), 6);
        let mut store = WireStore::new(&l);
        assert_eq!(store.var_count(), 6);
        let mut w = WireWriter::new();
        for s in ["a", "b", "c", "d", "e", "f"] {
            w.put_str(s);
        }
        store.apply(&l, 0, 6, &w.finish()).unwrap();
        let out = store.extract_all(&l).unwrap();
        let mut rr = WireReader::new(out);
        for s in ["a", "b", "c", "d", "e", "f"] {
            assert_eq!(rr.get_str().unwrap(), s);
        }
    }
}
