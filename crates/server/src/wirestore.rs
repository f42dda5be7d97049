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
//!   primitive, packed; each variable-length primitive (string or MIP)
//!   occupies a 4-byte slot *reference* into
//! - a *variable table*: the out-of-line strings/MIPs.
//!
//! Offsets into the fixed image come from a [`FlatLayout`] computed over a
//! pseudo-architecture whose "local format" is exactly this packed wire
//! layout (alignment 1 everywhere, 4-byte pointers), applied to a
//! *storage descriptor* in which `string`/`pointer` primitives are
//! replaced by 4-byte slot references. Primitive offsets are machine
//! independent, so they line up with client-side layouts by construction.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use iw_types::arch::{Endian, MachineArch};
use iw_types::desc::{PrimKind, TypeDesc, TypeKind};
use iw_types::flat::{FlatLayout, RunRef};
use iw_wire::codec::{WireError, WireReader, WireWriter};

/// The pseudo-architecture describing packed wire storage.
pub fn wire_arch() -> MachineArch {
    MachineArch {
        name: "wire-store",
        endian: Endian::Big,
        pointer_size: 4, // a variable-table slot reference
        pointer_align: 1,
        int16_align: 1,
        int32_align: 1,
        int64_align: 1,
        float32_align: 1,
        float64_align: 1,
        word_size: 4,
    }
}

/// Rewrites `ty`, replacing every variable-length primitive with a 4-byte
/// slot reference (`int`), so its [`FlatLayout`] on [`wire_arch`] yields
/// fixed-image offsets.
fn storage_type(ty: &TypeDesc, memo: &mut HashMap<TypeDesc, TypeDesc>) -> TypeDesc {
    if let Some(t) = memo.get(ty) {
        return t.clone();
    }
    let out = match ty.kind() {
        TypeKind::Prim(PrimKind::Str { .. }) | TypeKind::Prim(PrimKind::Ptr) => TypeDesc::int32(),
        TypeKind::Prim(_) => ty.clone(),
        TypeKind::Array { elem, len } => TypeDesc::array(storage_type(elem, memo), *len),
        TypeKind::Struct { name, fields } => TypeDesc::structure(
            name.clone(),
            fields
                .iter()
                .map(|f| (f.name.as_str(), storage_type(&f.ty, memo)))
                .collect(),
        ),
    };
    memo.insert(ty.clone(), out.clone());
    out
}

/// Shared, per-type layout information for wire storage.
#[derive(Debug, Clone)]
pub struct StoreLayout {
    /// Offsets of every primitive in the packed fixed image.
    pub storage: Arc<FlatLayout>,
    /// True primitive kinds by the same machine-independent prim offsets.
    pub kinds: Arc<FlatLayout>,
}

impl StoreLayout {
    /// Computes the layout for `count` elements of `ty`.
    pub fn new(ty: &TypeDesc, count: u32) -> Self {
        let block_ty = if count == 1 {
            ty.clone()
        } else {
            TypeDesc::array(ty.clone(), count)
        };
        let mut memo = HashMap::new();
        let st = storage_type(&block_ty, &mut memo);
        StoreLayout {
            storage: Arc::new(FlatLayout::new(&st, &wire_arch())),
            kinds: Arc::new(FlatLayout::new(&block_ty, &wire_arch())),
        }
    }

    /// Number of primitive data units in the block.
    pub fn prim_count(&self) -> u64 {
        self.storage.prim_count()
    }

    /// Bytes in the packed fixed image.
    pub fn fixed_size(&self) -> u32 {
        self.storage.local_size()
    }
}

/// One write resolved by [`WireStore::check`], borrowing the checked
/// bytes.
#[derive(Debug)]
pub(crate) enum Write<'d> {
    /// Wire bytes copied into the fixed image at this offset.
    Fixed(usize, &'d [u8]),
    /// A string stored into this variable slot.
    Var(usize, &'d str),
}

/// One block's wire-format contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireStore {
    /// Packed big-endian fixed image (variable prims hold slot indices).
    fixed: Vec<u8>,
    /// Out-of-line variable-length items (strings and MIPs).
    vars: Vec<String>,
}

impl WireStore {
    /// Creates zeroed storage for a block laid out by `layout`. Every
    /// variable primitive gets its own (empty) slot up front, assigned in
    /// primitive order.
    pub fn new(layout: &StoreLayout) -> Self {
        let mut fixed = vec![0u8; layout.fixed_size() as usize];
        let mut vars = Vec::new();
        for (sp, kp) in layout.storage.iter().zip(layout.kinds.iter()) {
            debug_assert_eq!(sp.prim_off, kp.prim_off);
            if kp.kind.is_variable() {
                let slot = vars.len() as u32;
                vars.push(String::new());
                fixed[sp.local_off as usize..sp.local_off as usize + 4]
                    .copy_from_slice(&slot.to_be_bytes());
            }
        }
        WireStore { fixed, vars }
    }

    /// Bytes held in the fixed image (diagnostics).
    pub fn fixed_len(&self) -> usize {
        self.fixed.len()
    }

    /// Number of variable slots (diagnostics).
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The variable slot whose reference sits at image offset `off`.
    /// References are written once, by [`WireStore::new`]; no write
    /// replaces one.
    fn slot_at(&self, off: usize) -> usize {
        let mut raw = [0; 4];
        raw.copy_from_slice(&self.fixed[off..off + 4]);
        u32::from_be_bytes(raw) as usize
    }

    /// Primitives `[start, start+count)` as runs of one kind, each with
    /// its offset in the fixed image. The image is packed, so the offset
    /// advances deterministically (wire size per fixed prim, 4 bytes per
    /// variable slot): one seek up front, arithmetic after.
    fn runs<'a>(
        &self,
        layout: &'a StoreLayout,
        start: u64,
        count: u64,
    ) -> Result<impl Iterator<Item = (usize, RunRef)> + 'a, WireError> {
        let end = start.saturating_add(count);
        if end > layout.prim_count() {
            return Err(WireError::LengthOverflow { len: end });
        }
        let mut cursor = layout
            .storage
            .prim_at(start)
            .map_or(self.fixed.len(), |p| p.local_off as usize);
        let mut remaining = count;
        Ok(layout
            .kinds
            .seek_prim_runs(start)
            .map_while(move |mut run| {
                run.count = run.count.min(remaining.min(u64::from(u32::MAX)) as u32);
                remaining -= u64::from(run.count);
                let off = cursor;
                cursor += run.kind.wire_size().unwrap_or(4) as usize * run.count as usize;
                (run.count > 0).then_some((off, run))
            }))
    }

    /// Encodes primitives `[start, start+count)` to wire format, appending
    /// to `w` — the server side of diff construction. Because the fixed
    /// image *is* packed wire format, a run of fixed-size primitives is a
    /// single copy; variable primitives emit their out-of-line items.
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
        for (off, run) in self.runs(layout, start, count)? {
            match run.kind.wire_size() {
                Some(size) => {
                    w.put_bytes(&self.fixed[off..off + size as usize * run.count as usize])
                }
                None => (0..run.count as usize)
                    .for_each(|k| w.put_str(&self.vars[self.slot_at(off + 4 * k)])),
            }
        }
        Ok(())
    }

    /// Checks that `src` holds exactly the wire bytes of primitives
    /// `[start, start+count)` and records, in `out`, the writes that
    /// install them — the server side of diff application, split so that
    /// nothing is written until a whole diff has been checked. The
    /// writes borrow `src`: fixed bytes are copied only by
    /// [`WireStore::install`], and each string is validated once, here.
    ///
    /// # Errors
    ///
    /// Decoding errors from `src` (truncation, string lengths, UTF-8,
    /// trailing bytes); [`WireError::LengthOverflow`] when the range
    /// exceeds the block.
    pub(crate) fn check<'d>(
        &self,
        layout: &StoreLayout,
        start: u64,
        count: u64,
        src: &'d Bytes,
        out: &mut Vec<Write<'d>>,
    ) -> Result<(), WireError> {
        let mut r = WireReader::new(src.clone());
        let at = |r: &WireReader| src.len() - r.remaining();
        // Packed storage keeps consecutive fixed prims consecutive in
        // both `src` and the image, so each stretch of them between
        // variable prims is one write: (image offset, `src` offset).
        let mut stretch = None;
        for (off, run) in self.runs(layout, start, count)? {
            if let Some(size) = run.kind.wire_size() {
                stretch.get_or_insert((off, at(&r)));
                r.with_bytes(size as usize * run.count as usize, |_| ())?;
                continue;
            }
            if let Some((o, s)) = stretch.take() {
                out.push(Write::Fixed(o, &src[s..at(&r)]));
            }
            for k in 0..run.count as usize {
                let n = r.with_len_bytes(<[u8]>::len)?;
                let item = std::str::from_utf8(&src[at(&r) - n..at(&r)]);
                let item = item.map_err(|_| WireError::InvalidUtf8)?;
                out.push(Write::Var(self.slot_at(off + 4 * k), item));
            }
        }
        if let Some((o, s)) = stretch {
            out.push(Write::Fixed(o, &src[s..at(&r)]));
        }
        match r.remaining() {
            0 => Ok(()),
            len => Err(WireError::TrailingBytes { len }),
        }
    }

    /// Makes the writes [`WireStore::check`] recorded against this
    /// store. Cannot fail: every offset, slot and string was resolved by
    /// the check. Each string overwrites its slot in place, reusing the
    /// slot's allocation.
    pub(crate) fn install(&mut self, writes: &[Write<'_>]) {
        for w in writes {
            match *w {
                Write::Fixed(off, bytes) => {
                    self.fixed[off..off + bytes.len()].copy_from_slice(bytes)
                }
                Write::Var(slot, s) => {
                    let slot = &mut self.vars[slot];
                    slot.clear();
                    slot.push_str(s);
                }
            }
        }
    }

    /// Decodes the wire bytes of primitives `[start, start+count)` into
    /// this store: [`WireStore::check`], then [`WireStore::install`], so
    /// refused bytes change nothing.
    ///
    /// # Errors
    ///
    /// As [`WireStore::check`].
    pub(crate) fn apply(
        &mut self,
        layout: &StoreLayout,
        start: u64,
        count: u64,
        src: &Bytes,
    ) -> Result<(), WireError> {
        let mut writes = Vec::new();
        self.check(layout, start, count, src, &mut writes)?;
        self.install(&writes);
        Ok(())
    }

    /// Encodes the whole block (convenience for full transfers).
    ///
    /// # Errors
    ///
    /// As [`WireStore::extract`].
    pub fn extract_all(&self, layout: &StoreLayout) -> Result<Bytes, WireError> {
        let mut w = WireWriter::with_capacity(self.fixed.len());
        self.extract(layout, 0, layout.prim_count(), &mut w)?;
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
