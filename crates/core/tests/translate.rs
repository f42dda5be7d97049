//! The translation engine with no server and no transport: a writer heap
//! on little-endian 32-bit `x86` and a reader heap on big-endian 64-bit
//! `sparc_v9` exchange diffs through [`Translator::collect`] and
//! [`Translator::apply`], and the two images are compared primitive by
//! primitive.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use iw_core::translate::{Pending, Translator};
use iw_core::{CoreError, SessionOptions};
use iw_heap::{Heap, SegId};
use iw_telemetry::Registry;
use iw_types::desc::{PrimKind, TypeDesc};
use iw_types::MachineArch;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};
use iw_wire::mip::{BlockRef, Mip};

const SEG: &str = "h/s";
const NODES: u32 = 0;
const PADDED: u32 = 1;
const INTS: u32 = 2;
const BYTES: u32 = 3;
const N_INTS: u32 = 3000; // three 4 KiB pages on either side

/// One client's translation state: everything `collect`/`apply` take.
struct Side {
    heap: Heap,
    seg: SegId,
    unresolved: HashMap<u64, Mip>,
    xl: Translator,
    registry: Arc<Registry>,
    version: u64,
    /// Block-level no-diff set of an ordinary tenure: empty.
    no_blocks: HashSet<u32>,
}

impl Side {
    fn new(arch: MachineArch) -> Side {
        let mut heap = Heap::new(arch);
        let seg = heap.create_segment(SEG).unwrap();
        let registry = Arc::new(Registry::new());
        Side {
            heap,
            seg,
            unresolved: HashMap::new(),
            xl: Translator::new(&registry, &SessionOptions::default()),
            registry,
            version: 0,
            no_blocks: HashSet::new(),
        }
    }

    fn alloc(&mut self, serial: u32, name: Option<&str>, ty: &TypeDesc, count: u32) {
        self.heap
            .alloc_block(self.seg, serial, name, ty, count)
            .unwrap();
        self.heap.segment_types_mut(self.seg).register(ty);
    }

    /// The bookkeeping of a tenure that only wrote to existing blocks.
    fn pending(&self) -> Pending<'_> {
        Pending {
            seg: self.seg,
            from_version: self.version,
            types_synced: if self.version == 0 { 0 } else { u32::MAX },
            new_blocks: &[],
            freed: &[],
            whole_segment: false,
            whole_blocks: &self.no_blocks,
        }
    }

    fn collect(&self, new_blocks: &[u32], freed: &[u32]) -> SegmentDiff {
        let pending = Pending {
            new_blocks,
            freed,
            ..self.pending()
        };
        self.collect_with(pending).0
    }

    fn collect_with(&self, pending: Pending<'_>) -> (SegmentDiff, u64, Vec<(u32, f64)>) {
        self.xl
            .collect(&self.heap, &self.unresolved, &pending)
            .unwrap()
    }

    /// What a write-lock release then re-acquire does to tracking.
    fn commit(&mut self) {
        self.heap.clear_tracking(self.seg);
        self.heap.protect_segment(self.seg);
        self.version += 1;
    }

    fn apply(&mut self, diff: &SegmentDiff) -> Result<bool, CoreError> {
        let r = self
            .xl
            .apply(&mut self.heap, &mut self.unresolved, self.seg, diff);
        if r.is_ok() {
            self.version = diff.to_version;
        }
        r
    }

    fn va_of(&self, serial: u32, prim: u64) -> u64 {
        let meta = self.heap.segment(self.seg).block_by_serial(serial).unwrap();
        meta.va + u64::from(meta.flat.prim_at(prim).unwrap().local_off)
    }

    /// Writes the low bytes of `bits` into a fixed-size primitive (or a
    /// pointer word) in this side's byte order, through write tracking.
    fn set(&mut self, serial: u32, prim: u64, bits: u64) {
        let meta = self.heap.segment(self.seg).block_by_serial(serial).unwrap();
        let size = meta
            .flat
            .prim_at(prim)
            .unwrap()
            .local_size(self.heap.arch()) as usize;
        let bytes = if self.heap.arch().endian.is_little() {
            bits.to_le_bytes()[..size].to_vec()
        } else {
            bits.to_be_bytes()[8 - size..].to_vec()
        };
        let va = self.va_of(serial, prim);
        self.heap.write_bytes(va, &bytes).unwrap();
    }

    fn set_str(&mut self, serial: u32, prim: u64, s: &str) {
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        let va = self.va_of(serial, prim);
        self.heap.write_bytes(va, &bytes).unwrap();
    }

    /// The block's image, one machine-independent value per primitive.
    fn values(&self, serial: u32) -> Vec<Val> {
        let arch = self.heap.arch();
        let meta = self.heap.segment(self.seg).block_by_serial(serial).unwrap();
        meta.flat
            .iter()
            .map(|p| {
                let va = meta.va + u64::from(p.local_off);
                let w = self
                    .heap
                    .read_bytes(va, p.local_size(arch) as usize)
                    .unwrap();
                if let PrimKind::Str { .. } = p.kind {
                    return Val::Str(w.iter().copied().take_while(|&b| b != 0).collect());
                }
                let bits = w.iter().enumerate().fold(0u64, |acc, (i, &b)| {
                    let shift = if arch.endian.is_little() {
                        i
                    } else {
                        w.len() - 1 - i
                    };
                    acc | (u64::from(b) << (8 * shift))
                });
                match p.kind {
                    PrimKind::Ptr if bits == 0 => Val::Ptr(self.unresolved.get(&va).cloned()),
                    PrimKind::Ptr => {
                        let (seg, target) = self.heap.block_at(bits).unwrap();
                        let rel = (bits - target.va) as u32;
                        Val::Ptr(Some(Mip {
                            segment: self.heap.segment(seg).name.clone(),
                            block: BlockRef::Serial(target.serial),
                            offset: target.flat.prim_containing_byte(rel).unwrap().prim_off,
                        }))
                    }
                    _ => Val::Bits(bits),
                }
            })
            .collect()
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Val {
    Bits(u64),
    Str(Vec<u8>),
    /// Null, or the target as a machine-independent pointer.
    Ptr(Option<Mip>),
}

fn node_ty() -> TypeDesc {
    TypeDesc::structure(
        "node",
        vec![("key", TypeDesc::int32()), ("next", TypeDesc::pointer())],
    )
}

/// `char; double; short; string` — padded differently on each side.
fn padded_ty() -> TypeDesc {
    TypeDesc::structure(
        "padded",
        vec![
            ("c", TypeDesc::char8()),
            ("d", TypeDesc::float64()),
            ("s", TypeDesc::int16()),
            ("tag", TypeDesc::string(12)),
        ],
    )
}

/// A writer holding a pointer block, a padded-struct block, an int array
/// (isomorphic on the reader) and a byte array (isomorphic on both).
fn populated_writer() -> Side {
    let mut w = Side::new(MachineArch::x86());
    w.alloc(NODES, None, &node_ty(), 3);
    w.alloc(PADDED, None, &padded_ty(), 5);
    w.alloc(INTS, None, &TypeDesc::int32(), N_INTS);
    w.alloc(BYTES, None, &TypeDesc::char8(), 100);
    for i in 0..3u64 {
        w.set(NODES, 2 * i, 0xFFFF_FF00 | i); // negative keys
        let next = match i {
            0 => w.va_of(NODES, 2),  // node 1
            1 => w.va_of(PADDED, 5), // interior: padded[1].d
            _ => 0,
        };
        w.set(NODES, 2 * i + 1, next);
    }
    for i in 0..5u64 {
        w.set(PADDED, 4 * i, 0x41 + i);
        w.set(PADDED, 4 * i + 1, (1.5 * i as f64).to_bits());
        w.set(PADDED, 4 * i + 2, 0x8000 | i);
        w.set_str(PADDED, 4 * i + 3, &format!("tag-{i}"));
    }
    for i in 0..u64::from(N_INTS) {
        w.set(INTS, i, i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF);
    }
    for i in 0..100 {
        w.set(BYTES, i, i ^ 0x5A);
    }
    w
}

const ALL: [u32; 4] = [NODES, PADDED, INTS, BYTES];

/// A writer and a reader that has applied the writer's first diff.
fn exchanged() -> (Side, Side) {
    let mut w = populated_writer();
    let mut r = Side::new(MachineArch::sparc_v9());
    let diff = w.collect(&ALL, &[]);
    w.commit();
    r.apply(&diff).unwrap();
    (w, r)
}

fn assert_same_images(w: &Side, r: &Side, blocks: &[u32]) {
    for &serial in blocks {
        assert_eq!(w.values(serial), r.values(serial), "block {serial} differs");
    }
}

#[test]
fn x86_writer_to_sparc_reader_matches_per_primitive() {
    let mut w = populated_writer();
    let mut r = Side::new(MachineArch::sparc_v9());
    let diff = w.collect(&ALL, &[]);
    assert_eq!(diff.new_blocks.len(), 4);
    assert_eq!((diff.from_version, diff.to_version), (0, 1));
    w.commit();

    // Pointer and padded blocks are not isomorphic anywhere; the int
    // array is on the big-endian reader only; bytes are everywhere.
    let all_iso = r.apply(&diff).unwrap();
    assert!(!all_iso);
    let iso = |s: &Side, serial| {
        let seg = s.heap.segment(s.seg);
        let flat = &seg.block_by_serial(serial).unwrap().flat;
        flat.wire_identity().is_iso()
    };
    assert_eq!(
        [iso(&w, INTS), iso(&r, INTS), iso(&w, BYTES)],
        [false, true, true]
    );
    assert!(!iso(&r, NODES) && !iso(&r, PADDED));

    assert_same_images(&w, &r, &ALL);
    // The interior pointer survived as an address on the other layout.
    assert_eq!(
        r.values(NODES)[3],
        Val::Ptr(Some(Mip {
            segment: SEG.into(),
            block: BlockRef::Serial(PADDED),
            offset: 5,
        }))
    );
    assert!(r.unresolved.is_empty());
}

#[test]
fn incremental_diff_carries_only_changed_primitives() {
    let (mut w, mut r) = exchanged();
    // One int on each of two pages, one padded field, one retargeted
    // pointer; the byte block stays clean.
    w.set(INTS, 7, 0xDEAD_BEEF);
    w.set(INTS, 2500, 0x0BAD_CAFE);
    w.set(PADDED, 4 * 3 + 1, 99.25f64.to_bits());
    let target = w.va_of(INTS, 2500);
    w.set(NODES, 5, target);
    let (diff, changed, fractions) = w.collect_with(w.pending());
    w.commit();

    assert!(diff.new_blocks.is_empty() && diff.new_types.is_empty());
    let serials: Vec<u32> = diff.block_diffs.iter().map(|b| b.serial).collect();
    assert_eq!(serials, [NODES, PADDED, INTS], "ascending, bytes untouched");
    let ints = &diff.block_diffs[2];
    let starts: Vec<(u64, u64)> = ints.runs.iter().map(|r| (r.start, r.count)).collect();
    assert_eq!(starts, [(7, 1), (2500, 1)]);
    assert_eq!(changed, 4);
    assert_eq!(fractions.len(), 3);

    r.apply(&diff).unwrap();
    assert_eq!(r.version, 2);
    assert_same_images(&w, &r, &ALL);
}

#[test]
fn undecodable_run_leaves_block_contents_untouched() {
    let (mut w, mut r) = exchanged();
    w.set(INTS, 0, 1);
    w.set(PADDED, 0, 0x7A);
    let mut diff = w.collect(&[], &[]);
    // Starve the last run (the int array, after the padded block).
    let last = diff
        .block_diffs
        .last_mut()
        .unwrap()
        .runs
        .last_mut()
        .unwrap();
    last.data = last.data.slice(0..last.data.len() - 1);

    let before: Vec<Vec<Val>> = ALL.iter().map(|&s| r.values(s)).collect();
    assert!(matches!(r.apply(&diff), Err(CoreError::Wire(_))));
    let after: Vec<Vec<Val>> = ALL.iter().map(|&s| r.values(s)).collect();
    assert_eq!(before, after, "earlier runs must not have been installed");
    assert_eq!(r.version, 1);
}

#[test]
fn pointer_into_uncached_segment_round_trips_as_mip() {
    let mut w = Side::new(MachineArch::x86());
    let other = w.heap.create_segment("h/other").unwrap();
    w.heap
        .alloc_block(other, 0, None, &TypeDesc::int32(), 8)
        .unwrap();
    w.alloc(NODES, None, &node_ty(), 1);
    let far = {
        let meta = w.heap.segment(other).block_by_serial(0).unwrap();
        meta.va + u64::from(meta.flat.prim_at(6).unwrap().local_off)
    };
    w.set(NODES, 1, far);
    let diff = w.collect(&[NODES], &[]);
    w.commit();

    // The reader has no copy of `h/other`: the word is null and the
    // target is remembered as a MIP.
    let mut r = Side::new(MachineArch::sparc_v9());
    r.apply(&diff).unwrap();
    let mip = Mip {
        segment: "h/other".into(),
        block: BlockRef::Serial(0),
        offset: 6,
    };
    assert_eq!(r.values(NODES)[1], Val::Ptr(Some(mip.clone())));
    assert_eq!(r.unresolved.get(&r.va_of(NODES, 1)), Some(&mip));

    // Sent onward from the reader, the field swizzles to the same MIP.
    let (back, ..) = r.collect_with(Pending {
        whole_segment: true,
        ..r.pending()
    });
    assert_eq!(back.block_diffs[0].runs[0].data, diff.new_blocks[0].data);

    // Overwriting the field clears the remembered MIP.
    w.set(NODES, 1, 0);
    let diff = w.collect(&[], &[]);
    r.apply(&diff).unwrap();
    assert_eq!(r.values(NODES)[1], Val::Ptr(None));
    assert!(r.unresolved.is_empty());
}

#[test]
fn no_diff_modes_send_blocks_whole() {
    let (mut w, _) = exchanged();
    let prims = |serial| {
        let seg = w.heap.segment(w.seg);
        seg.block_by_serial(serial).unwrap().prim_count()
    };
    let total: u64 = ALL.iter().map(|&s| prims(s)).sum();

    // Segment level: every block, one run each, no twins consulted.
    let (diff, changed, fractions) = w.collect_with(Pending {
        whole_segment: true,
        ..w.pending()
    });
    assert_eq!(changed, total);
    assert_eq!(diff.block_diffs.len(), 4);
    for bd in &diff.block_diffs {
        assert_eq!(bd.runs.len(), 1);
        assert_eq!((bd.runs[0].start, bd.runs[0].count), (0, prims(bd.serial)));
    }
    assert!(fractions.iter().all(|&(_, f)| f == 1.0));

    // Block level: a flagged block travels whole only when touched.
    // (Twins are compared a word at a time, so one changed byte sends
    // the four of its word.)
    w.set(INTS, 10, 1);
    w.set(BYTES, 3, 2);
    let flagged: HashSet<u32> = [INTS, PADDED].into();
    let (diff, changed, _) = w.collect_with(Pending {
        whole_blocks: &flagged,
        ..w.pending()
    });
    let shape: Vec<(u32, u64)> = diff
        .block_diffs
        .iter()
        .map(|b| (b.serial, b.runs[0].count))
        .collect();
    assert_eq!(shape, [(INTS, u64::from(N_INTS)), (BYTES, 4)]);
    assert_eq!(changed, u64::from(N_INTS) + 4);
}

#[test]
fn freed_blocks_vanish_and_unknown_tombstones_are_ignored() {
    let (mut w, mut r) = exchanged();
    w.heap.free_block(w.seg, PADDED).unwrap();
    // Node 1 pointed into the freed block; the application nulls it.
    w.set(NODES, 3, 0);
    let diff = w.collect(&[], &[PADDED, 99]);
    w.commit();
    assert_eq!(diff.freed, [PADDED, 99]);

    r.apply(&diff).unwrap();
    assert!(r.heap.segment(r.seg).block_by_serial(PADDED).is_err());
    assert_same_images(&w, &r, &[NODES, INTS, BYTES]);
}

/// A reader holding one 4-int block, and a diff skeleton against it.
fn reader_with_ints() -> (Side, SegmentDiff) {
    let mut r = Side::new(MachineArch::sparc_v9());
    let create = SegmentDiff {
        from_version: 0,
        to_version: 1,
        new_types: vec![(0, TypeDesc::int32())],
        new_blocks: vec![NewBlock {
            serial: 0,
            name: None,
            type_serial: 0,
            count: 4,
            data: Bytes::from(vec![0u8; 16]),
        }],
        ..Default::default()
    };
    r.apply(&create).unwrap();
    let next = SegmentDiff {
        from_version: 1,
        to_version: 2,
        ..Default::default()
    };
    (r, next)
}

#[test]
fn run_outside_its_block_is_a_typed_error() {
    let (mut r, mut diff) = reader_with_ints();
    diff.block_diffs.push(BlockDiff {
        serial: 0,
        runs: vec![DiffRun {
            start: 3,
            count: 2,
            data: Bytes::from(vec![0u8; 8]),
        }],
    });
    assert!(matches!(r.apply(&diff), Err(CoreError::Server(_))));
}

#[test]
fn unknown_type_serial_is_a_typed_error() {
    let (mut r, mut diff) = reader_with_ints();
    diff.new_blocks.push(NewBlock {
        serial: 1,
        name: None,
        type_serial: 7,
        count: 1,
        data: Bytes::from(vec![0u8; 4]),
    });
    assert!(matches!(r.apply(&diff), Err(CoreError::Server(_))));
}

#[test]
fn short_isomorphic_payload_is_a_wire_error() {
    // Ints are isomorphic on sparc_v9, so this run would be one memcpy:
    // the length check must happen before it.
    let (mut r, mut diff) = reader_with_ints();
    diff.block_diffs.push(BlockDiff {
        serial: 0,
        runs: vec![DiffRun {
            start: 0,
            count: 4,
            data: Bytes::from(vec![1u8; 15]),
        }],
    });
    assert!(matches!(r.apply(&diff), Err(CoreError::Wire(_))));
    assert_eq!(r.values(0), vec![Val::Bits(0); 4]);
    // The same engine still works afterwards, and counted what it did.
    diff.block_diffs[0].runs[0].data = Bytes::from(vec![1u8; 16]);
    r.apply(&diff).unwrap();
    assert_eq!(r.values(0), vec![Val::Bits(0x0101_0101); 4]);
    let applied = r.registry.snapshot().counter("client.diff.applied_total");
    assert_eq!(applied, Some(2));
}
