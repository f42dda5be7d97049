//! Allocation, typed and raw access to shared data, and the public
//! swizzling API.
//!
//! The paper's clients use ordinary reads and writes on swizzled C
//! pointers. Safe Rust cannot hand out raw interior pointers into
//! library-owned buffers, so access goes through typed accessors on
//! [`Session`]: each read checks the primitive kind declared in the IDL,
//! decodes per the session's architecture, and each write routes through
//! modification tracking (so twins appear exactly where a hardware write
//! fault would create them). Navigation (`field`, `index`, `deref`)
//! reproduces pointer arithmetic with the layout engine.
//!
//! `mip_to_ptr`/`ptr_to_mip` are the paper's `IW_mip_to_ptr` and
//! `IW_ptr_to_mip`.

use iw_proto::msg::Reply;
use iw_proto::Coherence;
use iw_types::desc::{PrimKind, TypeDesc, TypeKind};
use iw_types::layout::layout_of;
use iw_wire::mip::{BlockRef, Mip};
use iw_wire::prim::local_str_bytes;

use crate::error::CoreError;
use crate::session::{poll, Ptr, SegHandle, Session};
use crate::translate::{mip_for_va, read_va, resolve_mip, write_va, ResolvedPtr};

impl Session {
    /// Locates the primitive at `p` and checks it has kind `expect`.
    fn prim_window(
        &self,
        p: &Ptr,
        expect: &'static str,
    ) -> Result<(u64, PrimKind, u32), CoreError> {
        let (seg, meta) = self.heap().block_at(p.va)?;
        self.require_lock(seg, false)?;
        let rel = (p.va - meta.va) as u32;
        let prim = meta
            .flat
            .prim_containing_byte(rel)
            .ok_or_else(|| CoreError::BadPath(format!("{:#x} is in padding", p.va)))?;
        if prim.local_off != rel {
            return Err(CoreError::BadPath(format!(
                "{:#x} is not aligned to a primitive",
                p.va
            )));
        }
        let _ = expect;
        Ok((p.va, prim.kind, prim.local_size(self.arch())))
    }

    fn check_kind(&self, found: PrimKind, expect: &'static str, ok: bool) -> Result<(), CoreError> {
        if ok {
            Ok(())
        } else {
            Err(CoreError::TypeMismatch {
                expected: expect,
                found,
            })
        }
    }

    fn read_fixed<const N: usize>(
        &self,
        p: &Ptr,
        expect: &'static str,
        want: PrimKind,
    ) -> Result<[u8; N], CoreError> {
        let (va, kind, size) = self.prim_window(p, expect)?;
        self.check_kind(kind, expect, kind == want)?;
        debug_assert_eq!(size as usize, N);
        let bytes = self.heap().read_bytes(va, N)?;
        Ok(bytes.try_into().expect("size checked"))
    }

    fn write_fixed<const N: usize>(
        &mut self,
        p: &Ptr,
        expect: &'static str,
        want: PrimKind,
        bytes: [u8; N],
    ) -> Result<(), CoreError> {
        let (va, kind, _) = self.prim_window(p, expect)?;
        let (seg, _) = self.heap().block_at(p.va)?;
        self.require_lock(seg, true)?;
        self.check_kind(kind, expect, kind == want)?;
        self.heap_mut().write_bytes(va, &bytes)?;
        Ok(())
    }

    pub(crate) fn heap_mut(&mut self) -> &mut iw_heap::Heap {
        &mut self.heap
    }

    // ------------------------------------------------------------------
    // Scalar accessors
    // ------------------------------------------------------------------

    /// The kind of the primitive stored at `p` (regardless of the
    /// pointer's view type — a pointer at a struct boundary reports the
    /// struct's first primitive).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPath`] for padding or unaligned addresses.
    pub fn kind_at(&self, p: &Ptr) -> Result<PrimKind, CoreError> {
        let (_, kind, _) = self.prim_window(p, "any")?;
        Ok(kind)
    }

    /// Reads a `char` (byte).
    ///
    /// # Errors
    ///
    /// [`CoreError::TypeMismatch`], [`CoreError::NotLocked`], heap errors.
    pub fn read_char(&self, p: &Ptr) -> Result<u8, CoreError> {
        Ok(self.read_fixed::<1>(p, "char", PrimKind::Char)?[0])
    }

    /// Writes a `char` (byte).
    ///
    /// # Errors
    ///
    /// As [`Session::read_char`], plus requires the write lock.
    pub fn write_char(&mut self, p: &Ptr, v: u8) -> Result<(), CoreError> {
        self.write_fixed::<1>(p, "char", PrimKind::Char, [v])
    }

    /// Reads a 16-bit integer.
    ///
    /// # Errors
    ///
    /// [`CoreError::TypeMismatch`], [`CoreError::NotLocked`], heap errors.
    pub fn read_i16(&self, p: &Ptr) -> Result<i16, CoreError> {
        let b = self.read_fixed::<2>(p, "short", PrimKind::Int16)?;
        Ok(if self.arch().endian.is_little() {
            i16::from_le_bytes(b)
        } else {
            i16::from_be_bytes(b)
        })
    }

    /// Writes a 16-bit integer.
    ///
    /// # Errors
    ///
    /// As [`Session::read_i16`], plus requires the write lock.
    pub fn write_i16(&mut self, p: &Ptr, v: i16) -> Result<(), CoreError> {
        let b = if self.arch().endian.is_little() {
            v.to_le_bytes()
        } else {
            v.to_be_bytes()
        };
        self.write_fixed::<2>(p, "short", PrimKind::Int16, b)
    }

    /// Reads a 32-bit integer.
    ///
    /// # Errors
    ///
    /// [`CoreError::TypeMismatch`], [`CoreError::NotLocked`], heap errors.
    pub fn read_i32(&self, p: &Ptr) -> Result<i32, CoreError> {
        let b = self.read_fixed::<4>(p, "int", PrimKind::Int32)?;
        Ok(if self.arch().endian.is_little() {
            i32::from_le_bytes(b)
        } else {
            i32::from_be_bytes(b)
        })
    }

    /// Writes a 32-bit integer.
    ///
    /// # Errors
    ///
    /// As [`Session::read_i32`], plus requires the write lock.
    pub fn write_i32(&mut self, p: &Ptr, v: i32) -> Result<(), CoreError> {
        let b = if self.arch().endian.is_little() {
            v.to_le_bytes()
        } else {
            v.to_be_bytes()
        };
        self.write_fixed::<4>(p, "int", PrimKind::Int32, b)
    }

    /// Reads a 64-bit integer.
    ///
    /// # Errors
    ///
    /// [`CoreError::TypeMismatch`], [`CoreError::NotLocked`], heap errors.
    pub fn read_i64(&self, p: &Ptr) -> Result<i64, CoreError> {
        let b = self.read_fixed::<8>(p, "hyper", PrimKind::Int64)?;
        Ok(if self.arch().endian.is_little() {
            i64::from_le_bytes(b)
        } else {
            i64::from_be_bytes(b)
        })
    }

    /// Writes a 64-bit integer.
    ///
    /// # Errors
    ///
    /// As [`Session::read_i64`], plus requires the write lock.
    pub fn write_i64(&mut self, p: &Ptr, v: i64) -> Result<(), CoreError> {
        let b = if self.arch().endian.is_little() {
            v.to_le_bytes()
        } else {
            v.to_be_bytes()
        };
        self.write_fixed::<8>(p, "hyper", PrimKind::Int64, b)
    }

    /// Reads a 32-bit float.
    ///
    /// # Errors
    ///
    /// [`CoreError::TypeMismatch`], [`CoreError::NotLocked`], heap errors.
    pub fn read_f32(&self, p: &Ptr) -> Result<f32, CoreError> {
        let b = self.read_fixed::<4>(p, "float", PrimKind::Float32)?;
        Ok(if self.arch().endian.is_little() {
            f32::from_le_bytes(b)
        } else {
            f32::from_be_bytes(b)
        })
    }

    /// Writes a 32-bit float.
    ///
    /// # Errors
    ///
    /// As [`Session::read_f32`], plus requires the write lock.
    pub fn write_f32(&mut self, p: &Ptr, v: f32) -> Result<(), CoreError> {
        let b = if self.arch().endian.is_little() {
            v.to_le_bytes()
        } else {
            v.to_be_bytes()
        };
        self.write_fixed::<4>(p, "float", PrimKind::Float32, b)
    }

    /// Reads a 64-bit float.
    ///
    /// # Errors
    ///
    /// [`CoreError::TypeMismatch`], [`CoreError::NotLocked`], heap errors.
    pub fn read_f64(&self, p: &Ptr) -> Result<f64, CoreError> {
        let b = self.read_fixed::<8>(p, "double", PrimKind::Float64)?;
        Ok(if self.arch().endian.is_little() {
            f64::from_le_bytes(b)
        } else {
            f64::from_be_bytes(b)
        })
    }

    /// Writes a 64-bit float.
    ///
    /// # Errors
    ///
    /// As [`Session::read_f64`], plus requires the write lock.
    pub fn write_f64(&mut self, p: &Ptr, v: f64) -> Result<(), CoreError> {
        let b = if self.arch().endian.is_little() {
            v.to_le_bytes()
        } else {
            v.to_be_bytes()
        };
        self.write_fixed::<8>(p, "double", PrimKind::Float64, b)
    }

    /// Reads a string field.
    ///
    /// # Errors
    ///
    /// [`CoreError::TypeMismatch`] unless the field is a string.
    pub fn read_str(&self, p: &Ptr) -> Result<String, CoreError> {
        let (va, kind, size) = self.prim_window(p, "string")?;
        let PrimKind::Str { .. } = kind else {
            return Err(CoreError::TypeMismatch {
                expected: "string",
                found: kind,
            });
        };
        let window = self.heap().read_bytes(va, size as usize)?;
        Ok(String::from_utf8_lossy(local_str_bytes(window)).into_owned())
    }

    /// Writes a string field (NUL-terminated, zero-padded).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPath`] when the string exceeds the declared
    /// capacity; requires the write lock.
    pub fn write_str(&mut self, p: &Ptr, v: &str) -> Result<(), CoreError> {
        let (va, kind, size) = self.prim_window(p, "string")?;
        let PrimKind::Str { cap } = kind else {
            return Err(CoreError::TypeMismatch {
                expected: "string",
                found: kind,
            });
        };
        if v.len() + 1 > cap as usize {
            return Err(CoreError::BadPath(format!(
                "string of {} bytes exceeds capacity {}",
                v.len(),
                cap
            )));
        }
        let (seg, _) = self.heap().block_at(p.va)?;
        self.require_lock(seg, true)?;
        let mut buf = vec![0u8; size as usize];
        buf[..v.len()].copy_from_slice(v.as_bytes());
        self.heap_mut().write_bytes(va, &buf)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pointers
    // ------------------------------------------------------------------

    /// Reads a pointer field, resolving it to a [`Ptr`] (or `None` for
    /// null). If the target segment is not yet cached, it is fetched on
    /// demand — the moral equivalent of the paper's lazy "reserve space
    /// now, copy data at lock time".
    ///
    /// # Errors
    ///
    /// [`CoreError::TypeMismatch`]; [`CoreError::DanglingPointer`] when
    /// an unresolved target cannot be fetched or no longer exists.
    pub fn read_ptr(&mut self, p: &Ptr) -> Result<Option<Ptr>, CoreError> {
        let (va, kind, size) = self.prim_window(p, "pointer")?;
        self.check_kind(kind, "pointer", kind == PrimKind::Ptr)?;
        let window = self.heap().read_bytes(va, size as usize)?.to_vec();
        let target = read_va(&window, self.arch());
        if target != 0 {
            return Ok(Some(self.ptr_at(target)?));
        }
        let Some(mip) = self.unresolved.get(&va).cloned() else {
            return Ok(None);
        };
        // Try to resolve; fetch the target segment if needed.
        match resolve_mip(&self.heap, &mip.to_string())? {
            ResolvedPtr::Local(tva) => {
                self.patch_ptr_word(va, size, tva)?;
                Ok(Some(self.ptr_at(tva)?))
            }
            ResolvedPtr::Unresolved(mip) => {
                self.fetch_segment(&mip.segment)?;
                match resolve_mip(&self.heap, &mip.to_string())? {
                    ResolvedPtr::Local(tva) => {
                        self.patch_ptr_word(va, size, tva)?;
                        Ok(Some(self.ptr_at(tva)?))
                    }
                    _ => Err(CoreError::DanglingPointer(format!(
                        "target `{mip}` does not exist"
                    ))),
                }
            }
            ResolvedPtr::Null => Ok(None),
        }
    }

    /// Writes a pointer field (`None` = null). The target must be shared
    /// data in this session.
    ///
    /// # Errors
    ///
    /// [`CoreError::TypeMismatch`]; requires the write lock.
    pub fn write_ptr(&mut self, p: &Ptr, target: Option<&Ptr>) -> Result<(), CoreError> {
        let (va, kind, size) = self.prim_window(p, "pointer")?;
        self.check_kind(kind, "pointer", kind == PrimKind::Ptr)?;
        let (seg, _) = self.heap().block_at(p.va)?;
        self.require_lock(seg, true)?;
        let tva = match target {
            Some(t) => {
                // Validate the target is shared data now, not at diff time.
                let _ = self.heap().block_at(t.va)?;
                t.va
            }
            None => 0,
        };
        let mut window = vec![0u8; size as usize];
        write_va(&mut window, &self.arch().clone(), tva);
        self.heap_mut().write_bytes(va, &window)?;
        self.unresolved.remove(&va);
        Ok(())
    }

    fn patch_ptr_word(&mut self, field_va: u64, size: u32, target: u64) -> Result<(), CoreError> {
        let arch = self.arch().clone();
        let mut window = vec![0u8; size as usize];
        write_va(&mut window, &arch, target);
        // Library bookkeeping write: must not register as a user
        // modification (the logical value — the MIP — is unchanged).
        self.heap_mut()
            .bytes_mut_unprotected(field_va, size as usize)?
            .copy_from_slice(&window);
        self.unresolved.remove(&field_va);
        Ok(())
    }

    /// Builds a typed [`Ptr`] for an arbitrary shared address.
    ///
    /// # Errors
    ///
    /// Heap errors when `va` is not in a block;
    /// [`CoreError::DanglingPointer`] for padding addresses.
    pub(crate) fn ptr_at(&self, va: u64) -> Result<Ptr, CoreError> {
        let (_, meta) = self.heap().block_at(va)?;
        let rel = (va - meta.va) as u32;
        // At an element boundary the view is the element type; otherwise
        // it is the primitive at that offset.
        let elem_size = layout_of(&meta.ty, self.arch()).size;
        if elem_size > 0 && rel.is_multiple_of(elem_size) {
            return Ok(Ptr {
                va,
                ty: meta.ty.clone(),
            });
        }
        let prim = meta
            .flat
            .prim_containing_byte(rel)
            .ok_or_else(|| CoreError::DanglingPointer(format!("{va:#x} points into padding")))?;
        if prim.local_off != rel {
            return Err(CoreError::DanglingPointer(format!(
                "{va:#x} is not a primitive boundary"
            )));
        }
        Ok(Ptr {
            va,
            ty: TypeDesc::new(TypeKind::Prim(prim.kind)),
        })
    }

    // ------------------------------------------------------------------
    // Navigation
    // ------------------------------------------------------------------

    /// Navigates to a named field of the struct `p` points at.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPath`] when `p` is not a struct or has no such
    /// field.
    pub fn field(&self, p: &Ptr, name: &str) -> Result<Ptr, CoreError> {
        let TypeKind::Struct { fields, .. } = p.ty.kind() else {
            return Err(CoreError::BadPath(format!("`{}` is not a struct", p.ty)));
        };
        let (idx, f) =
            p.ty.field(name)
                .ok_or_else(|| CoreError::BadPath(format!("no field `{name}` in {}", p.ty)))?;
        let offs = iw_types::layout::field_offsets(&p.ty, self.arch());
        let _ = fields;
        Ok(Ptr {
            va: p.va + u64::from(offs[idx]),
            ty: f.ty.clone(),
        })
    }

    /// Navigates to element `i` of the array (or multi-element block
    /// region) `p` points at.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPath`] on non-arrays or out-of-range indices.
    pub fn index(&self, p: &Ptr, i: u32) -> Result<Ptr, CoreError> {
        // Arrays by type, or block elements when p is at a block start
        // with count > 1.
        if let TypeKind::Array { elem, len } = p.ty.kind() {
            if i >= *len {
                return Err(CoreError::BadPath(format!(
                    "index {i} out of range for {}",
                    p.ty
                )));
            }
            let stride = layout_of(elem, self.arch()).size;
            return Ok(Ptr {
                va: p.va + u64::from(i) * u64::from(stride),
                ty: elem.clone(),
            });
        }
        let (_, meta) = self.heap().block_at(p.va)?;
        if p.va == meta.va {
            if i >= meta.count {
                return Err(CoreError::BadPath(format!(
                    "index {i} out of range for block of {} elements",
                    meta.count
                )));
            }
            let stride = layout_of(&meta.ty, self.arch()).size;
            return Ok(Ptr {
                va: p.va + u64::from(i) * u64::from(stride),
                ty: meta.ty.clone(),
            });
        }
        Err(CoreError::BadPath(format!("`{}` is not indexable", p.ty)))
    }

    // ------------------------------------------------------------------
    // MIP conversion (the paper's bootstrap mechanism)
    // ------------------------------------------------------------------

    /// Converts a local pointer to a machine-independent pointer string:
    /// `IW_ptr_to_mip`.
    ///
    /// # Errors
    ///
    /// [`CoreError::DanglingPointer`] when `p` does not reference shared
    /// data at a primitive boundary.
    pub fn ptr_to_mip(&self, p: &Ptr) -> Result<String, CoreError> {
        Ok(mip_for_va(&self.heap, p.va)?.to_string())
    }

    /// Converts a machine-independent pointer to a local pointer:
    /// `IW_mip_to_ptr`. If the segment is not cached, space is reserved
    /// and its current contents fetched.
    ///
    /// # Errors
    ///
    /// [`CoreError::DanglingPointer`] when the target does not exist.
    pub fn mip_to_ptr(&mut self, mip_str: &str) -> Result<Ptr, CoreError> {
        let mip: Mip = mip_str.parse().map_err(CoreError::Wire)?;
        if self.heap().segment_id(&mip.segment).is_none() {
            self.fetch_segment(&mip.segment)?;
        }
        // Target may also be missing because our cached copy predates it.
        match self.lookup_mip(&mip) {
            Ok(p) => Ok(p),
            Err(_) => {
                self.fetch_segment(&mip.segment)?;
                self.lookup_mip(&mip)
            }
        }
    }

    fn lookup_mip(&self, mip: &Mip) -> Result<Ptr, CoreError> {
        let seg_id = self
            .heap()
            .segment_id(&mip.segment)
            .ok_or_else(|| CoreError::NotOpen(mip.segment.clone()))?;
        let seg = self.heap().segment(seg_id);
        let meta = match &mip.block {
            BlockRef::Serial(n) => seg.block_by_serial(*n)?,
            BlockRef::Name(n) => seg.block_by_name(n)?,
        };
        let prim = meta.flat.prim_at(mip.offset).ok_or_else(|| {
            CoreError::DanglingPointer(format!("offset {} outside block", mip.offset))
        })?;
        self.ptr_at(meta.va + u64::from(prim.local_off))
    }

    /// Opens `segment` if needed and brings the cached copy up to the
    /// server's current version (without holding any lock).
    ///
    /// # Errors
    ///
    /// Protocol errors.
    pub fn fetch_segment(&mut self, segment: &str) -> Result<(), CoreError> {
        let h = self.open_segment(segment)?;
        let have = self.segs.get(segment).map(|st| st.version).unwrap_or(0);
        let reply = self.request_for(segment, poll(segment, have, Coherence::Full, 0))?;
        match reply {
            Reply::UpToDate => Ok(()),
            Reply::Update { diff } => self.apply_segment_diff(&h, &diff),
            other => Err(CoreError::unexpected(other)),
        }
    }

    // ------------------------------------------------------------------
    // Bulk raw access
    // ------------------------------------------------------------------

    /// Bulk write of raw local-format bytes at `p` (through modification
    /// tracking). Intended for large array updates where per-element
    /// accessors would dominate; the caller is responsible for encoding
    /// values in this session's architecture format.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`] without the write lock; heap bounds
    /// errors.
    pub fn write_bytes_raw(&mut self, p: &Ptr, bytes: &[u8]) -> Result<(), CoreError> {
        self.raw_window(p, bytes.len(), true)?;
        self.heap.write_bytes(p.va, bytes)?;
        Ok(())
    }

    /// Bulk read of raw local-format bytes at `p`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`] without a lock; heap bounds errors.
    pub fn read_bytes_raw(&self, p: &Ptr, len: usize) -> Result<&[u8], CoreError> {
        self.raw_window(p, len, false)?;
        Ok(self.heap.read_bytes(p.va, len)?)
    }

    /// Checks that `len` raw bytes at `p` lie in one block this session
    /// holds the lock a raw read (or `write`) needs.
    fn raw_window(&self, p: &Ptr, len: usize, write: bool) -> Result<(), CoreError> {
        let (seg, meta) = self.heap.block_at(p.va)?;
        self.require_lock(seg, write)?;
        if p.va + len as u64 > meta.end() {
            let op = if write { "write" } else { "read" };
            return Err(CoreError::BadPath(format!(
                "raw {op} of {len} bytes overruns block {}",
                meta.serial
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates a block of `count` elements of `ty`: the paper's
    /// `IW_malloc` (with an optional symbolic name). Requires the write
    /// lock.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`] without the write lock; heap errors for
    /// bad names or sizes.
    pub fn malloc(
        &mut self,
        h: &SegHandle,
        ty: &TypeDesc,
        count: u32,
        name: Option<&str>,
    ) -> Result<Ptr, CoreError> {
        let (id, serial) = {
            let st = self.state(h.name())?;
            (st.id, st.next_serial)
        };
        self.require_lock(id, true)?;
        let va = self.heap.alloc_block(id, serial, name, ty, count)?;
        // Register the type so it travels in the next diff (a no-op when
        // already known).
        self.heap.segment_types_mut(id).register(ty);
        let iso = self
            .heap
            .segment(id)
            .block_by_serial(serial)?
            .flat
            .wire_identity()
            .is_iso();
        let st = self.state_mut(h.name())?;
        st.next_serial += 1;
        st.new_blocks.push(serial);
        st.iso &= iso;
        Ok(Ptr { va, ty: ty.clone() })
    }

    /// Frees a block: the paper's `IW_free`. The pointer must reference
    /// the start of a block. Requires the write lock.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotLocked`]; [`CoreError::BadPath`] when `p` is not a
    /// block start.
    pub fn free(&mut self, h: &SegHandle, p: &Ptr) -> Result<(), CoreError> {
        let seg_name = h.name();
        let id = self.state(seg_name)?.id;
        self.require_lock(id, true)?;
        let (bseg, meta) = self.heap.block_at(p.va)?;
        let serial = meta.serial;
        if bseg != id || meta.va != p.va {
            return Err(CoreError::BadPath(format!(
                "free() requires a pointer to the start of a block in `{seg_name}`"
            )));
        }
        let in_tx = self.tx.is_some();
        let created_here = self.state(seg_name)?.new_blocks.contains(&serial);
        if in_tx && !created_here {
            // Deferred: the block must stay resurrectable until commit.
            let st = self.state_mut(seg_name)?;
            if !st.pending_free.contains(&serial) {
                st.pending_free.push(serial);
            }
            return Ok(());
        }
        self.drop_block(id, serial)?;
        let st = self.state_mut(seg_name)?;
        if let Some(pos) = st.new_blocks.iter().position(|&s| s == serial) {
            // Created and freed in the same critical section: never tell
            // the server.
            st.new_blocks.remove(pos);
        } else {
            st.freed.push(serial);
        }
        Ok(())
    }
}
