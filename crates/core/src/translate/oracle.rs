//! Differential oracle for the copy-program interpreter.
//!
//! The reference translates one primitive at a time: [`PrimIter`] finds
//! the primitives, and `iw_wire::prim::{prim_to_wire, prim_from_wire}`
//! move each one. It shares nothing with the interpreter but the layout
//! and the swizzling functions. Random type trees (nested structs and
//! arrays, padding, strings, pointers) on all five architectures, random
//! byte ranges (mid-element starts, overlaps resolved by the shared
//! floor) and random apply runs must produce identical wire bytes and
//! identical images, with the fused and the unfused program alike.
//! Pointers are null, unresolved, or aimed at either of two target
//! blocks (offset 0 included), so pointer runs cross swizzle-cache hits
//! and misses.
//!
//! [`PrimIter`]: iw_types::flat::PrimIter

use super::*;
use iw_heap::SegId;
use iw_types::desc::TypeDesc;
use iw_types::flat::PrimRef;
use iw_types::testgen::{arb_fixed_type, arb_type};
use iw_wire::prim::{prim_from_wire, prim_to_wire};
use proptest::prelude::*;

/// Target blocks of pointer fields, and the two blocks under test. `TGT`
/// is one run of ints, so the swizzle cache resolves pointers into it by
/// arithmetic; `TGT2` mixes kinds, so every pointer into it misses.
const TGT: u32 = 0;
const SRC: u32 = 1;
const DST: u32 = 2;
const TGT2: u32 = 3;

/// Deterministic byte noise.
fn noise(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// A heap holding an `int32[16]` target block, a `{int32, float64}[8]`
/// one and two blocks of `count` `ty`, filled with noise: strings
/// NUL-terminated (noise after the NUL), pointers null or aimed at
/// primitives of either target (offset 0 included), padding random.
/// About half the null pointers of the source block carry an unresolved
/// MIP, returned by field address.
fn bed(
    ty: &TypeDesc,
    count: u32,
    arch: &MachineArch,
    seed: u64,
) -> (Heap, SegId, HashMap<u64, Mip>) {
    let mut heap = Heap::new(arch.clone());
    let seg = heap.create_segment("o/seg").unwrap();
    heap.alloc_block(seg, TGT, Some("tgt"), &TypeDesc::int32(), 16)
        .unwrap();
    heap.alloc_block(seg, SRC, Some("src"), ty, count).unwrap();
    heap.alloc_block(seg, DST, None, ty, count).unwrap();
    let pair = TypeDesc::structure(
        "pair",
        vec![("a", TypeDesc::int32()), ("b", TypeDesc::float64())],
    );
    heap.alloc_block(seg, TGT2, None, &pair, 8).unwrap();
    let tgt = heap.segment(seg).block_by_serial(TGT).unwrap().va;
    let tgt2 = heap.segment(seg).block_by_serial(TGT2).unwrap();
    let (tgt2, tgt2_flat) = (tgt2.va, tgt2.flat.clone());
    let mut unresolved = HashMap::new();
    let mut next = noise(seed);
    for serial in [SRC, DST] {
        let meta = heap.segment(seg).block_by_serial(serial).unwrap();
        let (va, flat) = (meta.va, meta.flat.clone());
        let mut img: Vec<u8> = (0..flat.local_size()).map(|_| next() as u8).collect();
        for p in flat.iter() {
            let at = p.local_off as usize;
            match p.kind {
                PrimKind::Str { cap } => {
                    let n = (next() % u64::from(cap)) as usize;
                    for b in &mut img[at..at + n] {
                        *b = b'a' + (next() % 26) as u8;
                    }
                    img[at + n] = 0;
                }
                PrimKind::Ptr => {
                    let target = match next() % 5 {
                        0 => {
                            if serial == SRC && next().is_multiple_of(2) {
                                let mip = Mip::new("far/seg", "blk", next() % 3);
                                unresolved.insert(va + u64::from(p.local_off), mip);
                            }
                            0
                        }
                        1 => tgt,
                        2 => {
                            let k = next() % tgt2_flat.prim_count();
                            tgt2 + u64::from(tgt2_flat.prim_at(k).unwrap().local_off)
                        }
                        k => tgt + 4 * ((k + next()) % 16),
                    };
                    let w = arch.pointer_size as usize;
                    write_va(&mut img[at..at + w], arch, target);
                }
                _ => {}
            }
        }
        heap.bytes_mut_unprotected(va, img.len())
            .unwrap()
            .copy_from_slice(&img);
    }
    (heap, seg, unresolved)
}

fn size(p: &PrimRef, arch: &MachineArch) -> usize {
    p.local_size(arch) as usize
}

/// Reference encode of the primitives `prims` of `meta`: a null pointer
/// with an unresolved MIP sends that MIP.
fn ref_encode(
    heap: &Heap,
    unresolved: &HashMap<u64, Mip>,
    meta: &BlockMeta,
    prims: &[PrimRef],
    w: &mut WireWriter,
) {
    let arch = heap.arch();
    let img = heap.read_bytes(meta.va, meta.size() as usize).unwrap();
    for p in prims {
        let at = p.local_off as usize;
        let field_va = meta.va + u64::from(p.local_off);
        let mut swizzle = |window: &[u8]| -> Result<String, WireError> {
            Ok(match read_va(window, arch) {
                0 => unresolved
                    .get(&field_va)
                    .map_or_else(String::new, Mip::to_string),
                va => mip_for_va(heap, va).unwrap().to_string(),
            })
        };
        prim_to_wire(w, p.kind, &img[at..at + size(p, arch)], arch, &mut swizzle).unwrap();
    }
}

/// Reference collect of byte ranges sharing one floor: each range
/// emits the primitives whose extent meets it, from the floor on.
fn ref_collect(
    heap: &Heap,
    unresolved: &HashMap<u64, Mip>,
    meta: &BlockMeta,
    ranges: &[(u32, u32)],
) -> (Vec<u8>, Vec<Option<(u64, u64)>>) {
    let arch = heap.arch();
    let mut w = WireWriter::new();
    let mut floor = 0u64;
    let mut emitted = Vec::new();
    for &(lo, hi) in ranges {
        let prims: Vec<PrimRef> = meta
            .flat
            .iter()
            .filter(|p| {
                p.prim_off >= floor
                    && p.local_off < hi
                    && p.local_off as usize + size(p, arch) > lo as usize
            })
            .collect();
        ref_encode(heap, unresolved, meta, &prims, &mut w);
        emitted.push(prims.first().map(|p| (p.prim_off, prims.len() as u64)));
        if let Some(p) = prims.last() {
            floor = p.prim_off + 1;
        }
    }
    (w.finish().to_vec(), emitted)
}

/// Reference apply of a run of `prims` from `payload` onto `img`, the
/// image of the block at `va`; returns the unresolved MIPs it met, by
/// field address.
fn ref_apply(
    heap: &Heap,
    va: u64,
    prims: &[PrimRef],
    payload: Bytes,
    img: &mut [u8],
) -> Vec<(u64, Mip)> {
    let arch = heap.arch();
    let mut r = WireReader::new(payload);
    let mut unresolved = Vec::new();
    for p in prims {
        let at = p.local_off as usize;
        let mut unswizzle = |mip: &str, window: &mut [u8]| -> Result<(), WireError> {
            let va = match resolve_mip(heap, mip).map_err(|e| WireError::BadMip(e.to_string()))? {
                ResolvedPtr::Local(va) => va,
                ResolvedPtr::Null => 0,
                ResolvedPtr::Unresolved(mip) => {
                    unresolved.push((va + u64::from(p.local_off), mip));
                    0
                }
            };
            write_va(window, arch, va);
            Ok(())
        };
        prim_from_wire(
            &mut r,
            p.kind,
            &mut img[at..at + size(p, arch)],
            arch,
            &mut unswizzle,
        )
        .unwrap();
    }
    assert!(r.is_empty());
    unresolved
}

fn check(
    ty: &TypeDesc,
    count: u32,
    arch: &MachineArch,
    seed: u64,
    ranges: &[(f64, f64)],
    runs: &[(f64, f64)],
) {
    let (heap, seg, unresolved) = bed(ty, count, arch, seed);
    let registry = Registry::new();
    let metrics = TranslateMetrics::new(&registry);
    let src = heap.segment(seg).block_by_serial(SRC).unwrap();
    let dst = heap.segment(seg).block_by_serial(DST).unwrap();
    let len = src.size();
    let prims: Vec<PrimRef> = src.flat.iter().collect();

    // Byte ranges, ascending by start; later ones may overlap earlier.
    let mut byte_ranges: Vec<(u32, u32)> = ranges
        .iter()
        .map(|&(a, b)| {
            let lo = (a * f64::from(len)) as u32 % len;
            let hi = lo + 1 + (b * f64::from(len - lo)) as u32 % (len - lo);
            (lo, hi)
        })
        .collect();
    byte_ranges.sort_unstable();
    let (want, want_runs) = ref_collect(&heap, &unresolved, src, &byte_ranges);

    for fused in [true, false] {
        let ctx = XlateCtx {
            heap: &heap,
            unresolved: &unresolved,
            metrics: &metrics,
            fused,
        };
        let mut w = WireWriter::new();
        let (mut floor, mut cache) = (0u64, None);
        let mut enc = Encoder::new(&ctx, src, &mut w, &mut cache).unwrap();
        let got_runs: Vec<Option<(u64, u64)>> = byte_ranges
            .iter()
            .map(|&(lo, hi)| {
                let (lo, hi) = (src.va + u64::from(lo), src.va + u64::from(hi));
                enc.range(src, lo, hi, &mut floor).unwrap()
            })
            .collect();
        drop(enc);
        prop_assert_eq!(
            &got_runs,
            &want_runs,
            "fused {} ranges {:?}",
            fused,
            &byte_ranges
        );
        prop_assert_eq!(
            &w.finish()[..],
            &want[..],
            "fused {} ranges {:?}",
            fused,
            &byte_ranges
        );

        // Apply runs of source primitives onto the destination block.
        let mut pool = BufferPool::default();
        let old = heap.read_bytes(dst.va, dst.size() as usize).unwrap();
        for &(a, b) in runs {
            let start = (a * prims.len() as f64) as usize % prims.len();
            let n = 1 + (b * (prims.len() - start) as f64) as usize % (prims.len() - start);
            let run = &prims[start..start + n];
            let mut w = WireWriter::new();
            ref_encode(&heap, &unresolved, src, run, &mut w);
            let payload = w.finish();

            let mut want_img = old.to_vec();
            let want_unresolved = ref_apply(&heap, dst.va, run, payload.clone(), &mut want_img);

            let job = DecodeJob {
                meta: dst,
                start: start as u64,
                count: n as u64,
                data: &payload,
            };
            let d = ctx.decode_run(&job, &mut pool).unwrap();
            let at = (d.span_va - dst.va) as usize;
            prop_assert_eq!(at, run[0].local_off as usize);
            let last = run[n - 1];
            prop_assert_eq!(
                at + d.buf.len(),
                last.local_off as usize + size(&last, arch)
            );
            prop_assert_eq!(&d.unresolved_inserts, &want_unresolved);
            let mut got_img = old.to_vec();
            got_img[at..at + d.buf.len()].copy_from_slice(&d.buf);
            prop_assert_eq!(got_img, want_img, "fused {} run {}+{}", fused, start, n);
            pool.put(d.buf);
        }
    }
}

/// Runs [`check`] on every architecture where the block has primitives.
fn check_all(ty: &TypeDesc, count: u32, seed: u64, ranges: &[(f64, f64)], runs: &[(f64, f64)]) {
    for arch in MachineArch::all() {
        let flat = iw_types::flat::FlatLayout::new(&TypeDesc::array(ty.clone(), count), &arch);
        if flat.prim_count() > 0 {
            check(ty, count, &arch, seed, ranges, runs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interpreter_matches_per_primitive_reference(
        ty in arb_type(),
        count in 1u32..8,
        seed in any::<u64>(),
        ranges in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..6),
        runs in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..6),
    ) {
        check_all(&ty, count, seed, &ranges, &runs);
    }

    /// Fixed-size element types in long arrays: the column kernels, over
    /// more than one tile of whole iterations.
    #[test]
    fn interpreter_matches_reference_on_long_fixed_arrays(
        ty in arb_fixed_type(),
        count in 1u32..200,
        seed in any::<u64>(),
        ranges in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..4),
        runs in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..4),
    ) {
        check_all(&ty, count, seed, &ranges, &runs);
    }
}

/// A pointer into the middle of a primitive of the block the swizzle
/// cache holds is refused, as it is when the cache misses.
#[test]
fn interior_pointer_after_a_cache_hit_is_refused() {
    let arch = MachineArch::x86();
    let (mut heap, seg, unresolved) = bed(&TypeDesc::pointer(), 2, &arch, 1);
    let tgt = heap.segment(seg).block_by_serial(TGT).unwrap().va;
    let src = heap.segment(seg).block_by_serial(SRC).unwrap().va;
    let img = heap.bytes_mut_unprotected(src, 8).unwrap();
    write_va(&mut img[..4], &arch, tgt + 4);
    write_va(&mut img[4..], &arch, tgt + 6);
    let registry = Registry::new();
    let metrics = TranslateMetrics::new(&registry);
    let ctx = XlateCtx {
        heap: &heap,
        unresolved: &unresolved,
        metrics: &metrics,
        fused: true,
    };
    let meta = heap.segment(seg).block_by_serial(SRC).unwrap();
    let mut w = WireWriter::new();
    let mut cache = None;
    let mut enc = Encoder::new(&ctx, meta, &mut w, &mut cache).unwrap();
    let got = enc.range(meta, src, src + 8, &mut 0);
    assert!(matches!(got, Err(CoreError::DanglingPointer(_))), "{got:?}");
}
