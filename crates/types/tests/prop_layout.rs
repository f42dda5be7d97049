//! Property-based tests for the layout engine and flattened layouts.
//!
//! These exercise the invariants diff collection and swizzling rely on:
//! every primitive of a random type tree has a sane, non-overlapping local
//! placement on every architecture, and the seek operations agree with
//! plain iteration.

use iw_types::arch::MachineArch;
use iw_types::flat::{FlatLayout, IsoBlocker, WireIdentity};
use iw_types::layout::{field_offsets, layout_of};
use iw_types::program::{steps, Op};
use iw_types::testgen::arb_type;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn layout_size_is_multiple_of_align(ty in arb_type()) {
        for arch in MachineArch::all() {
            let l = layout_of(&ty, &arch);
            prop_assert!(l.align >= 1);
            prop_assert_eq!(l.size % l.align, 0);
        }
    }

    #[test]
    fn field_offsets_are_aligned_and_monotonic(ty in arb_type()) {
        for arch in MachineArch::all() {
            if let iw_types::desc::TypeKind::Struct { fields, .. } = ty.kind() {
                let offs = field_offsets(&ty, &arch);
                prop_assert_eq!(offs.len(), fields.len());
                let mut prev_end = 0u32;
                for (f, off) in fields.iter().zip(&offs) {
                    let fl = layout_of(&f.ty, &arch);
                    prop_assert_eq!(off % fl.align, 0);
                    prop_assert!(*off >= prev_end, "fields overlap");
                    prev_end = off + fl.size;
                }
                prop_assert!(prev_end <= layout_of(&ty, &arch).size);
            }
        }
    }

    #[test]
    fn prims_are_in_bounds_and_non_overlapping(ty in arb_type()) {
        for arch in MachineArch::all() {
            let fl = FlatLayout::new(&ty, &arch);
            let mut prev_end = 0u32;
            let mut count = 0u64;
            for p in fl.iter() {
                prop_assert_eq!(p.prim_off, count);
                prop_assert!(p.local_off >= prev_end,
                    "prim {} overlaps previous (arch {})", count, arch.name);
                prev_end = p.local_off + p.local_size(&arch);
                count += 1;
            }
            prop_assert_eq!(count, fl.prim_count());
            prop_assert_eq!(count, ty.prim_count());
            prop_assert!(prev_end <= fl.local_size());
        }
    }

    #[test]
    fn optimized_and_unoptimized_flattenings_agree(ty in arb_type()) {
        for arch in MachineArch::all() {
            let a: Vec<_> = FlatLayout::new(&ty, &arch).iter().collect();
            let b: Vec<_> = FlatLayout::new_unoptimized(&ty, &arch).iter().collect();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn wire_identity_invariants(ty in arb_type()) {
        for arch in MachineArch::all() {
            let fl = FlatLayout::new(&ty, &arch);
            let id = fl.wire_identity();
            // Both layout engines agree on identity.
            prop_assert_eq!(
                id,
                FlatLayout::new_unoptimized(&ty, &arch).wire_identity(),
                "engines disagree on {} for {:?}", arch.name, ty
            );
            if id.is_iso() {
                // Identity implies a packed layout whose wire size equals
                // its local size: the memcpy the fast path performs is
                // length-preserving by construction.
                prop_assert!(fl.is_packed());
                prop_assert_eq!(fl.fixed_wire_size(), Some(u64::from(fl.local_size())));
                prop_assert!(!ty.contains_pointer());
                prop_assert!(!ty.contains_variable());
                // Multi-byte primitives only survive on big-endian archs.
                if arch.endian.is_little() {
                    for p in fl.iter() {
                        prop_assert_eq!(p.local_size(&arch), 1);
                    }
                }
            } else {
                // Every blocker names a real divergence.
                match id.blocker().unwrap() {
                    IsoBlocker::Pointer => prop_assert!(ty.contains_pointer()),
                    IsoBlocker::String => prop_assert!(ty.contains_variable()),
                    IsoBlocker::Padding => prop_assert!(!fl.is_packed()),
                    IsoBlocker::Endianness => {
                        prop_assert!(arch.endian.is_little());
                        prop_assert!(fl.iter().any(|p| p.local_size(&arch) > 1));
                    }
                }
            }
            // A packed, variable-free layout on a big-endian arch must be
            // recognized as isomorphic — the predicate can't under-claim.
            if fl.is_packed()
                && !ty.contains_pointer()
                && !ty.contains_variable()
                && !arch.endian.is_little()
            {
                prop_assert_eq!(id, WireIdentity::Iso);
            }
        }
    }

    #[test]
    fn program_invariants(ty in arb_type(), n in 1u32..4) {
        let array = iw_types::desc::TypeDesc::array(ty.clone(), n);
        for arch in MachineArch::all() {
            for fl in [
                FlatLayout::new(&ty, &arch),
                FlatLayout::new_unoptimized(&ty, &arch),
                FlatLayout::new(&array, &arch),
            ] {
                for program in [fl.program(), fl.unfused_program()] {
                    prop_assert_eq!(program.prim_count(), fl.prim_count());
                    prop_assert_eq!(program.fixed_wire_size(), fl.fixed_wire_size());
                    prop_assert_eq!(tiled_len(program.ops(), &arch), fl.local_size());
                }
                // The isomorphic case is exactly the one-copy program.
                prop_assert_eq!(
                    fl.program().single_copy().is_some(),
                    fl.wire_identity().is_iso(),
                    "{} on {}: {:?}", arch.name, ty, fl.program()
                );
                if let Some(len) = fl.program().single_copy() {
                    prop_assert_eq!(len, fl.local_size());
                }
            }
        }
    }

    #[test]
    fn seek_prim_matches_iteration(ty in arb_type(), frac in 0.0f64..1.0) {
        let arch = MachineArch::x86();
        let fl = FlatLayout::new(&ty, &arch);
        let n = fl.prim_count();
        if n > 0 {
            let target = ((n as f64) * frac) as u64 % n;
            let got: Vec<_> = fl.seek_prim(target).take(4).collect();
            let want: Vec<_> = fl.iter().skip(target as usize).take(4).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn seek_byte_matches_linear_scan(ty in arb_type(), frac in 0.0f64..1.0) {
        for arch in [MachineArch::x86(), MachineArch::sparc_v9()] {
            let fl = FlatLayout::new(&ty, &arch);
            let byte = ((fl.local_size() as f64) * frac) as u32;
            let want = fl
                .iter()
                .find(|p| p.local_off + p.local_size(&arch) > byte);
            let got = fl.seek_byte(byte).next();
            prop_assert_eq!(got, want);
        }
    }
}

/// The local bytes `ops` cover, checking that every op has the width its
/// kind implies and that each repeat body tiles its stride exactly.
fn tiled_len(ops: &[Op], arch: &MachineArch) -> u32 {
    steps(ops)
        .map(|(op, body)| {
            match op {
                Op::Swap { width, .. } => assert!(matches!(width, 2 | 4 | 8)),
                Op::Ptr { width, .. } => assert_eq!(u32::from(width), arch.pointer_size),
                Op::Repeat { stride, .. } => assert_eq!(tiled_len(body, arch), stride),
                _ => {}
            }
            op.local_len()
        })
        .sum()
}
