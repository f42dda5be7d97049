//! Translation of single primitives between local and wire format.
//!
//! Fixed-size primitives are byte-reversed as needed between the local
//! architecture's endianness and the big-endian wire format. Strings (fixed
//! local capacity, NUL-terminated) become length-prefixed byte strings.
//! Pointers are delegated to caller-supplied swizzle callbacks, because
//! converting between a local machine address and a MIP requires segment
//! metadata that only the client library holds.

use iw_types::arch::MachineArch;
use iw_types::desc::PrimKind;

use crate::codec::{WireError, WireReader, WireWriter};

/// Copies `src` into `dst` reversing byte order when `little` is `true`
/// (wire format is big-endian).
fn copy_endian(dst: &mut [u8], src: &[u8], little: bool) {
    debug_assert_eq!(dst.len(), src.len());
    if little {
        for (d, s) in dst.iter_mut().zip(src.iter().rev()) {
            *d = *s;
        }
    } else {
        dst.copy_from_slice(src);
    }
}

/// Extracts the logical contents of a local-format string field: the bytes
/// up to (not including) the first NUL, or the whole window if unterminated.
/// Whole 8-byte words with no NUL are skipped in one test each.
pub fn local_str_bytes(window: &[u8]) -> &[u8] {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut at = 0;
    for word in window.chunks_exact(8) {
        let v = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        // Nonzero exactly when some byte of `v` is zero.
        if v.wrapping_sub(ONES) & !v & HIGHS != 0 {
            break;
        }
        at += 8;
    }
    match window[at..].iter().position(|&b| b == 0) {
        Some(n) => &window[..at + n],
        None => window,
    }
}

/// Translates one primitive from local format to wire format.
///
/// `local` must be exactly `kind.local_size(arch)` bytes — the primitive's
/// local window. Pointers call `swizzle` with the window and append the
/// returned MIP string (empty string for null).
///
/// # Errors
///
/// Propagates errors from `swizzle` (e.g. a dangling local pointer).
pub fn prim_to_wire(
    w: &mut WireWriter,
    kind: PrimKind,
    local: &[u8],
    arch: &MachineArch,
    swizzle: &mut dyn FnMut(&[u8]) -> Result<String, WireError>,
) -> Result<(), WireError> {
    debug_assert_eq!(local.len(), kind.local_size(arch) as usize);
    let little = arch.endian.is_little();
    match kind {
        PrimKind::Char => w.put_u8(local[0]),
        PrimKind::Int16 => {
            let mut b = [0u8; 2];
            copy_endian(&mut b, local, little);
            w.put_bytes(&b);
        }
        PrimKind::Int32 | PrimKind::Float32 => {
            let mut b = [0u8; 4];
            copy_endian(&mut b, local, little);
            w.put_bytes(&b);
        }
        PrimKind::Int64 | PrimKind::Float64 => {
            let mut b = [0u8; 8];
            copy_endian(&mut b, local, little);
            w.put_bytes(&b);
        }
        PrimKind::Str { .. } => {
            w.put_len_bytes(local_str_bytes(local));
        }
        PrimKind::Ptr => {
            let mip = swizzle(local)?;
            w.put_str(&mip);
        }
    }
    Ok(())
}

/// Translates one primitive from wire format into a local-format window.
///
/// `local` must be exactly `kind.local_size(arch)` bytes. String windows are
/// NUL-terminated and zero-padded so that local images are deterministic
/// (twin comparison depends on this). Pointers call `unswizzle` with the MIP
/// string and the window to fill.
///
/// # Errors
///
/// [`WireError::UnexpectedEof`] on truncated input;
/// [`WireError::LengthOverflow`] when a wire string does not fit the local
/// capacity; plus any error from `unswizzle`.
#[allow(clippy::type_complexity)]
pub fn prim_from_wire(
    r: &mut WireReader,
    kind: PrimKind,
    local: &mut [u8],
    arch: &MachineArch,
    unswizzle: &mut dyn FnMut(&str, &mut [u8]) -> Result<(), WireError>,
) -> Result<(), WireError> {
    debug_assert_eq!(local.len(), kind.local_size(arch) as usize);
    let little = arch.endian.is_little();
    match kind {
        PrimKind::Char => local[0] = r.get_u8()?,
        PrimKind::Int16 => {
            let b = r.get_bytes(2)?;
            copy_endian(local, &b, little);
        }
        PrimKind::Int32 | PrimKind::Float32 => {
            let b = r.get_bytes(4)?;
            copy_endian(local, &b, little);
        }
        PrimKind::Int64 | PrimKind::Float64 => {
            let b = r.get_bytes(8)?;
            copy_endian(local, &b, little);
        }
        PrimKind::Str { cap } => {
            let b = r.get_len_bytes()?;
            if b.len() + 1 > cap as usize {
                return Err(WireError::LengthOverflow {
                    len: b.len() as u64,
                });
            }
            local[..b.len()].copy_from_slice(&b);
            local[b.len()..].fill(0);
        }
        PrimKind::Ptr => {
            let mip = r.get_str()?;
            unswizzle(&mip, local)?;
        }
    }
    Ok(())
}

/// A swizzle callback for data that contains no pointers; panics if called.
pub fn no_pointers(_: &[u8]) -> Result<String, WireError> {
    panic!("pointer encountered in pointer-free data");
}

/// An unswizzle callback for data that contains no pointers; panics if
/// called.
pub fn no_pointers_in(_: &str, _: &mut [u8]) -> Result<(), WireError> {
    panic!("pointer encountered in pointer-free data");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{WireReader, WireWriter};
    use iw_types::arch::MachineArch;

    fn roundtrip(kind: PrimKind, local_in: &[u8], arch: &MachineArch) -> Vec<u8> {
        let mut w = WireWriter::new();
        prim_to_wire(&mut w, kind, local_in, arch, &mut no_pointers).unwrap();
        let mut r = WireReader::new(w.finish());
        let mut out = vec![0u8; kind.local_size(arch) as usize];
        prim_from_wire(&mut r, kind, &mut out, arch, &mut no_pointers_in).unwrap();
        assert!(r.is_empty());
        out
    }

    #[test]
    fn int32_le_to_wire_is_reversed() {
        let arch = MachineArch::x86();
        let local = 0x0102_0304u32.to_le_bytes();
        let mut w = WireWriter::new();
        prim_to_wire(&mut w, PrimKind::Int32, &local, &arch, &mut no_pointers).unwrap();
        assert_eq!(&w.finish()[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn int32_be_to_wire_is_identity() {
        let arch = MachineArch::sparc_v9();
        let local = 0x0102_0304u32.to_be_bytes();
        let mut w = WireWriter::new();
        prim_to_wire(&mut w, PrimKind::Int32, &local, &arch, &mut no_pointers).unwrap();
        assert_eq!(&w.finish()[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn cross_architecture_transfer_preserves_value() {
        // Write on little-endian x86, read on big-endian SPARC.
        let x86 = MachineArch::x86();
        let sparc = MachineArch::sparc_v9();
        let v = -123456789i32;
        let mut w = WireWriter::new();
        prim_to_wire(
            &mut w,
            PrimKind::Int32,
            &v.to_le_bytes(),
            &x86,
            &mut no_pointers,
        )
        .unwrap();
        let mut r = WireReader::new(w.finish());
        let mut out = [0u8; 4];
        prim_from_wire(
            &mut r,
            PrimKind::Int32,
            &mut out,
            &sparc,
            &mut no_pointers_in,
        )
        .unwrap();
        assert_eq!(i32::from_be_bytes(out), v);
    }

    #[test]
    fn doubles_cross_endianness() {
        let x86 = MachineArch::x86();
        let mips = MachineArch::mips32();
        let v = -2.75e17f64;
        let mut w = WireWriter::new();
        prim_to_wire(
            &mut w,
            PrimKind::Float64,
            &v.to_le_bytes(),
            &x86,
            &mut no_pointers,
        )
        .unwrap();
        let mut r = WireReader::new(w.finish());
        let mut out = [0u8; 8];
        prim_from_wire(
            &mut r,
            PrimKind::Float64,
            &mut out,
            &mips,
            &mut no_pointers_in,
        )
        .unwrap();
        assert_eq!(f64::from_be_bytes(out), v);
    }

    #[test]
    fn all_fixed_kinds_roundtrip_on_all_archs() {
        for arch in MachineArch::all() {
            for (kind, bytes) in [
                (PrimKind::Char, vec![0x7F]),
                (PrimKind::Int16, vec![1, 2]),
                (PrimKind::Int32, vec![1, 2, 3, 4]),
                (PrimKind::Int64, vec![1, 2, 3, 4, 5, 6, 7, 8]),
                (PrimKind::Float32, vec![9, 8, 7, 6]),
                (PrimKind::Float64, vec![9, 8, 7, 6, 5, 4, 3, 2]),
            ] {
                assert_eq!(
                    roundtrip(kind, &bytes, &arch),
                    bytes,
                    "{kind:?} on {}",
                    arch.name
                );
            }
        }
    }

    #[test]
    fn string_roundtrip_pads_with_zeros() {
        let arch = MachineArch::x86();
        let kind = PrimKind::Str { cap: 8 };
        let mut local = *b"hi\0AAAAA"; // garbage after NUL
        let out = roundtrip(kind, &local, &arch);
        assert_eq!(
            &out, b"hi\0\0\0\0\0\0",
            "garbage after NUL must not survive"
        );
        // Unterminated string: whole window travels.
        local = *b"ABCDEFGH";
        let mut w = WireWriter::new();
        prim_to_wire(&mut w, kind, &local, &arch, &mut no_pointers).unwrap();
        let mut r = WireReader::new(w.finish());
        let s = r.get_len_bytes().unwrap();
        assert_eq!(&s[..], b"ABCDEFGH");
    }

    #[test]
    fn oversized_wire_string_is_rejected() {
        let arch = MachineArch::x86();
        let mut w = WireWriter::new();
        w.put_len_bytes(b"way too long");
        let mut r = WireReader::new(w.finish());
        let mut out = [0u8; 4];
        let err = prim_from_wire(
            &mut r,
            PrimKind::Str { cap: 4 },
            &mut out,
            &arch,
            &mut no_pointers_in,
        )
        .unwrap_err();
        assert!(matches!(err, WireError::LengthOverflow { .. }));
    }

    #[test]
    fn pointers_use_callbacks() {
        let x86 = MachineArch::x86();
        let local = 0xDEAD_F00Du32.to_le_bytes();
        let mut w = WireWriter::new();
        let mut seen = None;
        prim_to_wire(&mut w, PrimKind::Ptr, &local, &x86, &mut |bytes| {
            seen = Some(bytes.to_vec());
            Ok("seg#blk#3".to_string())
        })
        .unwrap();
        assert_eq!(seen.unwrap(), local);
        let mut r = WireReader::new(w.finish());
        let mut out = [0u8; 4];
        prim_from_wire(&mut r, PrimKind::Ptr, &mut out, &x86, &mut |mip, dst| {
            assert_eq!(mip, "seg#blk#3");
            dst.copy_from_slice(&0x1234u32.to_le_bytes());
            Ok(())
        })
        .unwrap();
        assert_eq!(u32::from_le_bytes(out), 0x1234);
    }

    #[test]
    fn swizzle_errors_propagate() {
        let x86 = MachineArch::x86();
        let mut w = WireWriter::new();
        let err = prim_to_wire(&mut w, PrimKind::Ptr, &[0; 4], &x86, &mut |_| {
            Err(WireError::BadMip("dangling".into()))
        })
        .unwrap_err();
        assert!(matches!(err, WireError::BadMip(_)));
    }

    #[test]
    fn local_str_bytes_variants() {
        assert_eq!(local_str_bytes(b"abc\0xx"), b"abc");
        assert_eq!(local_str_bytes(b"\0"), b"");
        assert_eq!(local_str_bytes(b"full"), b"full");
    }

    #[test]
    fn local_str_bytes_stops_at_the_first_nul_anywhere() {
        // Fillers include 0x01 and 0x80, the bytes a word-at-a-time
        // zero test is most easily fooled by.
        for len in 0..40usize {
            let filler: Vec<u8> = (0..len).map(|i| [1u8, 0x80, 0xff, b'a'][i % 4]).collect();
            assert_eq!(local_str_bytes(&filler), &filler[..]);
            for nul in 0..len {
                let mut w = filler.clone();
                w[nul] = 0;
                if nul + 3 < len {
                    w[nul + 3] = 0;
                }
                assert_eq!(local_str_bytes(&w), &filler[..nul], "len {len} nul {nul}");
            }
        }
    }
}
