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

use iw_types::arch::{Endian, MachineArch};
use iw_types::desc::{PrimKind, TypeDesc, TypeKind};
use iw_types::flat::FlatLayout;
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

    fn slot_at(&self, off: usize) -> Result<usize, WireError> {
        let raw: [u8; 4] =
            self.fixed[off..off + 4]
                .try_into()
                .map_err(|_| WireError::UnexpectedEof {
                    wanted: 4,
                    available: 0,
                })?;
        let slot = u32::from_be_bytes(raw) as usize;
        if slot >= self.vars.len() {
            return Err(WireError::LengthOverflow { len: slot as u64 });
        }
        Ok(slot)
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
        if start + count > layout.prim_count() {
            return Err(WireError::LengthOverflow { len: start + count });
        }
        let mut remaining = count;
        // The fixed image is packed, so the storage offset advances
        // deterministically (wire size per fixed prim, 4 bytes per
        // variable slot): one seek up front, arithmetic after.
        let mut cursor = layout
            .storage
            .prim_at(start)
            .map(|p| p.local_off as usize)
            .unwrap_or(self.fixed.len());
        for mut krun in layout.kinds.seek_prim_runs(start) {
            if remaining == 0 {
                break;
            }
            krun.count = krun.count.min(remaining.min(u64::from(u32::MAX)) as u32);
            remaining -= u64::from(krun.count);
            let s0 = cursor;
            if let Some(size) = krun.kind.wire_size() {
                // Packed storage: the whole run is contiguous.
                let len = size as usize * krun.count as usize;
                w.put_bytes(&self.fixed[s0..s0 + len]);
                cursor += len;
            } else {
                for k in 0..krun.count as usize {
                    let off = s0 + k * 4;
                    let slot = self.slot_at(off)?;
                    w.put_str(&self.vars[slot]);
                }
                cursor += 4 * krun.count as usize;
            }
        }
        Ok(())
    }

    /// Decodes primitives `[start, start+count)` from wire format in `r`,
    /// installing them — the server side of diff application. Fixed runs
    /// are single copies into the packed image; each string or MIP
    /// overwrites its slot in place, reusing the slot's allocation.
    ///
    /// # Errors
    ///
    /// Decoding errors from `r`; [`WireError::LengthOverflow`] when the
    /// range exceeds the block.
    pub fn apply(
        &mut self,
        layout: &StoreLayout,
        start: u64,
        count: u64,
        r: &mut WireReader,
    ) -> Result<(), WireError> {
        if start + count > layout.prim_count() {
            return Err(WireError::LengthOverflow { len: start + count });
        }
        let mut remaining = count;
        let mut cursor = layout
            .storage
            .prim_at(start)
            .map(|p| p.local_off as usize)
            .unwrap_or(self.fixed.len());
        for mut krun in layout.kinds.seek_prim_runs(start) {
            if remaining == 0 {
                break;
            }
            krun.count = krun.count.min(remaining.min(u64::from(u32::MAX)) as u32);
            remaining -= u64::from(krun.count);
            let s0 = cursor;
            if let Some(size) = krun.kind.wire_size() {
                let len = size as usize * krun.count as usize;
                r.copy_into(&mut self.fixed[s0..s0 + len])?;
                cursor += len;
            } else {
                for k in 0..krun.count as usize {
                    let i = self.slot_at(s0 + k * 4)?;
                    let slot = &mut self.vars[i];
                    r.with_len_bytes(|item| {
                        let s = std::str::from_utf8(item).map_err(|_| WireError::InvalidUtf8)?;
                        slot.clear();
                        slot.push_str(s);
                        Ok(())
                    })??;
                }
                cursor += 4 * krun.count as usize;
            }
        }
        Ok(())
    }

    /// Encodes the whole block (convenience for full transfers).
    ///
    /// # Errors
    ///
    /// As [`WireStore::extract`].
    pub fn extract_all(&self, layout: &StoreLayout) -> Result<bytes::Bytes, WireError> {
        let mut w = WireWriter::with_capacity(self.fixed.len());
        self.extract(layout, 0, layout.prim_count(), &mut w)?;
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

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
        let mut r = WireReader::new(payload.finish());
        store.apply(&l, 0, 8, &mut r).unwrap();
        assert!(r.is_empty());

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
        let mut r = WireReader::new(w.finish());
        store.apply(&l, 4, 2, &mut r).unwrap();

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
            let mut r = WireReader::new(w.finish());
            store.apply(&l, 0, 1, &mut r).unwrap();
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
        let mut r = WireReader::new(Bytes::from_static(&[0; 64]));
        assert!(store.apply(&l, 4, 1, &mut r).is_err());
    }

    #[test]
    fn truncated_apply_rejected() {
        let l = StoreLayout::new(&TypeDesc::int32(), 4);
        let mut store = WireStore::new(&l);
        let mut r = WireReader::new(Bytes::from_static(&[0, 0])); // 2 bytes < 4
        assert!(matches!(
            store.apply(&l, 0, 1, &mut r),
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
        let mut r = WireReader::new(w.finish());
        store.apply(&l, 0, 6, &mut r).unwrap();
        let out = store.extract_all(&l).unwrap();
        let mut rr = WireReader::new(out);
        for s in ["a", "b", "c", "d", "e", "f"] {
            assert_eq!(rr.get_str().unwrap(), s);
        }
    }
}
