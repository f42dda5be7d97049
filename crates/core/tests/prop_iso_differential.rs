//! Differential proptest battery for the isomorphic-layout fast path.
//!
//! The fast path replaces the descriptor walk with a memcpy whenever a
//! block's local layout is byte-identical to the wire format. Its
//! correctness contract is blunt: with `iso_fast_path` on or off, a
//! session must produce *byte-identical* wire diffs and *byte-identical*
//! applied images — for random type descriptors, random dirty patterns,
//! every architecture, and the coherence models. These properties drive
//! the same workload through both configurations and compare the bytes.

use std::sync::Arc;

use iw_core::{Session, SessionOptions};
use iw_proto::{Coherence, Handler, Loopback};
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_types::layout::layout_of;
use iw_types::testgen::{arb_arch, arb_fixed_type};
use iw_types::MachineArch;
use proptest::prelude::*;

fn server() -> Arc<dyn Handler> {
    Arc::new(Server::new())
}

fn session(srv: &Arc<dyn Handler>, arch: &MachineArch, iso: bool) -> Session {
    Session::with_options(
        arch.clone(),
        Box::new(Loopback::new(srv.clone())),
        SessionOptions {
            iso_fast_path: iso,
            ..SessionOptions::default()
        },
    )
    .unwrap()
}

/// Deterministic byte noise.
fn noise(seed: u64) -> impl FnMut() -> u8 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u8
    }
}

/// Overwrite the chosen elements of `blk` with deterministic noise,
/// leaving the rest of the block's image untouched. Raw byte writes are
/// only safe on fixed (pointer- and string-free) types;
/// `arb_fixed_type` guarantees that.
fn dirty_elements(
    s: &mut Session,
    blk: &iw_core::Ptr,
    elem_size: usize,
    count: usize,
    picks: &[usize],
    seed: u64,
) {
    let mut next = noise(seed);
    let mut img = s.read_bytes_raw(blk, elem_size * count).unwrap().to_vec();
    for &i in picks {
        let span = &mut img[i * elem_size..(i + 1) * elem_size];
        let old0 = span[0];
        for b in span.iter_mut() {
            *b = next();
        }
        // Guarantee the element really changes (an unlucky noise byte
        // could reproduce the old value for single-byte elements).
        span[0] = old0 ^ (next() | 1);
    }
    s.write_bytes_raw(blk, &img).unwrap();
}

/// Element indices to dirty, as fractions so every count gets starts,
/// middles, and ends covered.
fn arb_picks() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, 1..8)
}

fn resolve_picks(fracs: &[f64], count: usize) -> Vec<usize> {
    fracs
        .iter()
        .map(|f| ((*f * count as f64) as usize).min(count - 1))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Writer side: the encoded wire diff is byte-identical with the
    /// fast path on and off, both for the initial new-block diff and for
    /// an incremental dirty-range diff.
    #[test]
    fn collect_wire_identical_with_and_without_fast_path(
        ty in arb_fixed_type(),
        arch in arb_arch(),
        count in 2u32..6,
        picks in arb_picks(),
        seed in any::<u64>(),
    ) {
        let elem = layout_of(&ty, &arch).size as usize;
        let picks = resolve_picks(&picks, count as usize);
        let mut rounds: Vec<[Vec<u8>; 2]> = Vec::new();
        for iso in [true, false] {
            let srv = server();
            let mut w = session(&srv, &arch, iso);
            let h = w.open_segment("p/iso").unwrap();

            // Round 1: fresh allocation — NewBlock translation jobs.
            w.wl_acquire(&h).unwrap();
            let blk = w.malloc(&h, &ty, count, Some("blk")).unwrap();
            dirty_elements(&mut w, &blk, elem, count as usize, &picks, seed);
            // New blocks travel whole, not as changed prims.
            let (d1, _, _) = w.collect_segment_diff(&h).unwrap();
            prop_assert!(!d1.new_blocks.is_empty());
            w.wl_release(&h).unwrap();

            // Round 2: partial overwrite — dirty-range translation jobs.
            w.wl_acquire(&h).unwrap();
            dirty_elements(&mut w, &blk, elem, count as usize, &picks, seed ^ 0x5DEECE66D);
            let (d2, changed, _) = w.collect_segment_diff(&h).unwrap();
            prop_assert!(changed > 0);
            w.wl_release(&h).unwrap();

            rounds.push([d1.encode().to_vec(), d2.encode().to_vec()]);
        }
        prop_assert_eq!(&rounds[0][0], &rounds[1][0], "new-block diffs differ on {}", arch.name);
        prop_assert_eq!(&rounds[0][1], &rounds[1][1], "incremental diffs differ on {}", arch.name);
    }

    /// Reader side: the applied in-memory image is byte-identical with
    /// the fast path on and off, across coherence models, after both the
    /// initial full fetch and an incremental update.
    #[test]
    fn apply_image_identical_with_and_without_fast_path(
        ty in arb_fixed_type(),
        arch in arb_arch(),
        count in 2u32..6,
        picks in arb_picks(),
        seed in any::<u64>(),
        coherence in prop_oneof![
            Just(Coherence::Full),
            Just(Coherence::Delta(1)),
            Just(Coherence::Diff(500)),
        ],
    ) {
        let elem = layout_of(&ty, &arch).size as usize;
        let total = elem * count as usize;
        let picks = resolve_picks(&picks, count as usize);
        let mut images: Vec<[Vec<u8>; 2]> = Vec::new();
        for iso in [true, false] {
            let srv = server();
            // The writer keeps the fast path at its default; only the
            // reader's apply path is under test here.
            let mut w = session(&srv, &arch, true);
            let h = w.open_segment("p/iso").unwrap();
            w.wl_acquire(&h).unwrap();
            let blk = w.malloc(&h, &ty, count, Some("blk")).unwrap();
            dirty_elements(&mut w, &blk, elem, count as usize, &picks, seed);
            w.wl_release(&h).unwrap();

            let mut r = session(&srv, &arch, iso);
            let rh = r.open_segment("p/iso").unwrap();
            r.set_coherence(&rh, coherence).unwrap();
            r.rl_acquire(&rh).unwrap();
            let q = r.mip_to_ptr("p/iso#blk").unwrap();
            let first = r.read_bytes_raw(&q, total).unwrap().to_vec();
            r.rl_release(&rh).unwrap();

            w.wl_acquire(&h).unwrap();
            dirty_elements(&mut w, &blk, elem, count as usize, &picks, seed ^ 0xB5297A4D);
            w.wl_release(&h).unwrap();

            r.rl_acquire(&rh).unwrap();
            let second = r.read_bytes_raw(&q, total).unwrap().to_vec();
            r.rl_release(&rh).unwrap();
            images.push([first, second]);
        }
        prop_assert_eq!(&images[0][0], &images[1][0], "initial images differ on {}", arch.name);
        prop_assert_eq!(&images[0][1], &images[1][1], "updated images differ on {}", arch.name);
    }
}

// ====================================================================
// Mixed segments: isomorphic and non-isomorphic blocks side by side.
// ====================================================================

/// A segment holding an iso-eligible int array, a padded struct, and a
/// pointer block must stay correct when the fast path handles only the
/// eligible block, and the segment-level stamp must reflect the mix.
#[test]
fn mixed_segment_applies_correctly_and_stamps_iso() {
    let padded = TypeDesc::structure(
        "p",
        vec![("c", TypeDesc::char8()), ("i", TypeDesc::int32())],
    );
    for iso in [true, false] {
        let srv = server();
        let arch = MachineArch::sparc_v9();
        let mut w = session(&srv, &arch, true);
        let h = w.open_segment("m/x").unwrap();
        w.wl_acquire(&h).unwrap();
        let ints = w.malloc(&h, &TypeDesc::int32(), 256, Some("ints")).unwrap();
        // After the first block the segment is all-iso…
        assert!(w.segment_iso(&h).unwrap());
        let pad = w.malloc(&h, &padded, 4, Some("pad")).unwrap();
        // …and the padded block makes the stamp stick to false.
        assert!(!w.segment_iso(&h).unwrap());
        let slot = w.malloc(&h, &TypeDesc::pointer(), 1, Some("slot")).unwrap();
        for i in 0..256 {
            w.write_i32(&w.index(&ints, i).unwrap(), i as i32 * 3)
                .unwrap();
        }
        for i in 0..4 {
            let e = w.index(&pad, i).unwrap();
            w.write_char(&w.field(&e, "c").unwrap(), i as u8 + 1)
                .unwrap();
            w.write_i32(&w.field(&e, "i").unwrap(), -(i as i32))
                .unwrap();
        }
        let target = w.index(&ints, 42).unwrap();
        w.write_ptr(&slot, Some(&target)).unwrap();
        w.wl_release(&h).unwrap();

        let mut r = session(&srv, &arch, iso);
        let rh = r.open_segment("m/x").unwrap();
        r.rl_acquire(&rh).unwrap();
        let q = r.mip_to_ptr("m/x#ints").unwrap();
        for i in [0u32, 42, 255] {
            assert_eq!(r.read_i32(&r.index(&q, i).unwrap()).unwrap(), i as i32 * 3);
        }
        let qp = r.mip_to_ptr("m/x#pad").unwrap();
        for i in 0..4 {
            let e = r.index(&qp, i).unwrap();
            assert_eq!(
                r.read_char(&r.field(&e, "c").unwrap()).unwrap(),
                i as u8 + 1
            );
            assert_eq!(r.read_i32(&r.field(&e, "i").unwrap()).unwrap(), -(i as i32));
        }
        // The swizzled pointer lands on element 42 of the iso block.
        let qs = r.mip_to_ptr("m/x#slot").unwrap();
        let t = r.read_ptr(&qs).unwrap().expect("non-null");
        assert_eq!(r.read_i32(&t).unwrap(), 42 * 3);
        // Reader-side stamp agrees: the mix is not all-iso.
        assert!(!r.segment_iso(&rh).unwrap());
        r.rl_release(&rh).unwrap();
    }
}

// ====================================================================
// Session-level negative paths: the fast path must not engage across
// any mismatch axis. Observed through the translation counters.
// ====================================================================

fn iso_collects(s: &mut Session) -> u64 {
    s.metrics_snapshot()
        .counter("client.translate.iso_collects_total")
        .unwrap_or(0)
}

fn run_writer(arch: MachineArch, ty: TypeDesc, count: u32) -> u64 {
    let srv = server();
    let mut w = session(&srv, &arch, true);
    let h = w.open_segment("n/axis").unwrap();
    w.wl_acquire(&h).unwrap();
    let _blk = w.malloc(&h, &ty, count, Some("blk")).unwrap();
    w.wl_release(&h).unwrap();
    iso_collects(&mut w)
}

/// Endianness axis: a little-endian writer never takes the fast path
/// for multi-byte primitives; the same workload on a big-endian writer
/// does (positive control).
#[test]
fn fast_path_never_engages_on_little_endian_multibyte() {
    assert_eq!(run_writer(MachineArch::x86_64(), TypeDesc::int32(), 512), 0);
    assert!(run_writer(MachineArch::sparc_v9(), TypeDesc::int32(), 512) > 0);
}

/// Pointer axis: pointer blocks stay on the descriptor walk even on a
/// big-endian machine, at both pointer widths.
#[test]
fn fast_path_never_engages_on_pointer_blocks() {
    assert_eq!(
        run_writer(MachineArch::sparc_v9(), TypeDesc::pointer(), 64),
        0
    );
    assert_eq!(
        run_writer(MachineArch::mips32(), TypeDesc::pointer(), 64),
        0
    );
}

/// Padding axis: a padded struct stays on the descriptor walk even on a
/// big-endian machine.
#[test]
fn fast_path_never_engages_on_padded_layouts() {
    let padded = TypeDesc::structure(
        "p",
        vec![("c", TypeDesc::char8()), ("i", TypeDesc::int32())],
    );
    assert_eq!(run_writer(MachineArch::sparc_v9(), padded, 64), 0);
}

/// Reader side of the positive control: a big-endian reader applying an
/// int-array update takes the memcpy apply path and says so in the
/// telemetry.
#[test]
fn fast_path_apply_counters_tick_on_big_endian_reader() {
    let srv = server();
    let arch = MachineArch::sparc_v9();
    let mut w = session(&srv, &arch, true);
    let h = w.open_segment("n/pos").unwrap();
    w.wl_acquire(&h).unwrap();
    let blk = w.malloc(&h, &TypeDesc::int32(), 1024, Some("blk")).unwrap();
    for i in 0..1024 {
        w.write_i32(&w.index(&blk, i).unwrap(), i as i32).unwrap();
    }
    w.wl_release(&h).unwrap();

    let mut r = session(&srv, &arch, true);
    let rh = r.open_segment("n/pos").unwrap();
    r.rl_acquire(&rh).unwrap();
    let q = r.mip_to_ptr("n/pos#blk").unwrap();
    assert_eq!(r.read_i32(&r.index(&q, 1023).unwrap()).unwrap(), 1023);
    r.rl_release(&rh).unwrap();

    let snap = r.metrics_snapshot();
    assert!(
        snap.counter("client.translate.iso_applies_total")
            .unwrap_or(0)
            > 0
    );
    assert!(
        snap.counter("client.translate.iso_memcpy_bytes_total")
            .unwrap_or(0)
            >= 4096
    );
    // The segment is a single packed int array: the sticky stamp holds.
    assert!(r.segment_iso(&rh).unwrap());

    // Ablation: the same workload with the fast path disabled reports
    // zero fast-path activity.
    let mut r2 = session(&srv, &arch, false);
    let rh2 = r2.open_segment("n/pos").unwrap();
    r2.rl_acquire(&rh2).unwrap();
    r2.rl_release(&rh2).unwrap();
    let snap2 = r2.metrics_snapshot();
    assert_eq!(
        snap2
            .counter("client.translate.iso_applies_total")
            .unwrap_or(0),
        0
    );
}
