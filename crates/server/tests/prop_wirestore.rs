//! Differential property test: wire storage against a per-kind oracle.
//!
//! The oracle below is the store the span table replaced: one walk step
//! per run of one primitive kind, one `String` per variable primitive.
//! Random type trees (nested structs and arrays, strings, pointers), a
//! random first image and random runs — with item lengths that grow,
//! shrink and empty, non-ASCII items, and planted corruptions — must give
//! the same check outcome, the same `extract` and `extract_all` bytes,
//! and the same checkpoint image from the span store as from the oracle.
//! A long churn run holds the item arena to twice its live bytes plus
//! [`ARENA_SLACK`].

use bytes::Bytes;
use iw_server::checkpoint;
use iw_server::wirestore::ARENA_SLACK;
use iw_server::{ServerSegment, StoreLayout, WireStore, SUBBLOCK_PRIMS};
use iw_types::arch::{Endian, MachineArch};
use iw_types::desc::{PrimKind, TypeDesc, TypeKind};
use iw_types::flat::{FlatLayout, RunRef};
use iw_types::testgen::arb_type;
use iw_wire::codec::{WireError, WireReader, WireWriter};
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};
use iw_wire::tdesc::encode_type;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The oracle: per-kind wire storage.
// ---------------------------------------------------------------------

/// Packed wire storage as a machine: alignment 1, 4-byte slot references.
fn wire_arch() -> MachineArch {
    MachineArch {
        name: "wire-store",
        endian: Endian::Big,
        pointer_size: 4,
        pointer_align: 1,
        int16_align: 1,
        int32_align: 1,
        int64_align: 1,
        float32_align: 1,
        float64_align: 1,
        word_size: 4,
    }
}

/// `ty` with every variable primitive replaced by a 4-byte slot.
fn storage_type(ty: &TypeDesc) -> TypeDesc {
    match ty.kind() {
        TypeKind::Prim(k) if k.is_variable() => TypeDesc::int32(),
        TypeKind::Prim(_) => ty.clone(),
        TypeKind::Array { elem, len } => TypeDesc::array(storage_type(elem), *len),
        TypeKind::Struct { name, fields } => TypeDesc::structure(
            name.clone(),
            fields
                .iter()
                .map(|f| (f.name.as_str(), storage_type(&f.ty)))
                .collect(),
        ),
    }
}

struct OracleLayout {
    storage: FlatLayout,
    kinds: FlatLayout,
}

impl OracleLayout {
    fn new(ty: &TypeDesc, count: u32) -> Self {
        let block = TypeDesc::array(ty.clone(), count);
        OracleLayout {
            storage: FlatLayout::new(&storage_type(&block), &wire_arch()),
            kinds: FlatLayout::new(&block, &wire_arch()),
        }
    }

    fn prim_count(&self) -> u64 {
        self.storage.prim_count()
    }
}

#[derive(Clone)]
struct Oracle {
    fixed: Vec<u8>,
    /// Variable items in primitive order.
    vars: Vec<String>,
}

enum OracleWrite {
    Fixed(usize, Vec<u8>),
    Var(usize, String),
}

impl Oracle {
    fn new(l: &OracleLayout) -> Self {
        let vars = l.kinds.iter().filter(|p| p.kind.is_variable()).count();
        Oracle {
            fixed: vec![0; l.storage.local_size() as usize],
            vars: vec![String::new(); vars],
        }
    }

    /// Runs of one kind over `[start, start+count)`, each with its image
    /// offset and first variable slot.
    fn runs(
        l: &OracleLayout,
        start: u64,
        count: u64,
    ) -> Result<Vec<(usize, usize, RunRef)>, WireError> {
        let end = start.saturating_add(count);
        if end > l.prim_count() {
            return Err(WireError::LengthOverflow { len: end });
        }
        let mut slot = l
            .kinds
            .iter()
            .take_while(|p| p.prim_off < start)
            .filter(|p| p.kind.is_variable())
            .count();
        let mut off = l
            .storage
            .prim_at(start)
            .map_or(l.storage.local_size() as usize, |p| p.local_off as usize);
        let mut left = count;
        let mut out = Vec::new();
        for mut run in l.kinds.seek_prim_runs(start) {
            if left == 0 {
                break;
            }
            run.count = run.count.min(left.min(u64::from(u32::MAX)) as u32);
            left -= u64::from(run.count);
            out.push((off, slot, run));
            match run.kind.wire_size() {
                Some(size) => off += size as usize * run.count as usize,
                None => {
                    off += 4 * run.count as usize;
                    slot += run.count as usize;
                }
            }
        }
        Ok(out)
    }

    fn extract(&self, l: &OracleLayout, start: u64, count: u64) -> Result<Bytes, WireError> {
        let mut w = WireWriter::new();
        for (off, slot, run) in Oracle::runs(l, start, count)? {
            match run.kind.wire_size() {
                Some(size) => {
                    w.put_bytes(&self.fixed[off..off + size as usize * run.count as usize])
                }
                None => (0..run.count as usize).for_each(|k| w.put_str(&self.vars[slot + k])),
            }
        }
        Ok(w.finish())
    }

    /// Checks every primitive in order, then installs: a refused run
    /// changes nothing.
    fn apply(
        &mut self,
        l: &OracleLayout,
        start: u64,
        count: u64,
        src: &Bytes,
    ) -> Result<(), WireError> {
        let mut r = WireReader::new(src.clone());
        let mut writes = Vec::new();
        for (off, slot, run) in Oracle::runs(l, start, count)? {
            match run.kind.wire_size() {
                Some(size) => {
                    let b = r.get_bytes(size as usize * run.count as usize)?;
                    writes.push(OracleWrite::Fixed(off, b.to_vec()));
                }
                None => {
                    for k in 0..run.count as usize {
                        writes.push(OracleWrite::Var(slot + k, r.get_str()?));
                    }
                }
            }
        }
        if !r.is_empty() {
            return Err(WireError::TrailingBytes { len: r.remaining() });
        }
        for w in writes {
            match w {
                OracleWrite::Fixed(off, b) => self.fixed[off..off + b.len()].copy_from_slice(&b),
                OracleWrite::Var(slot, s) => self.vars[slot] = s,
            }
        }
        Ok(())
    }

    fn live_bytes(&self) -> usize {
        self.vars.iter().map(String::len).sum()
    }
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// Deterministic noise.
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One variable item: empty, short, long (some past 127 bytes, so a
/// length byte leaves ASCII) or non-ASCII UTF-8.
fn item(rng: &mut Noise) -> String {
    let len = match rng.below(6) {
        0 => 0,
        1 | 2 => 1 + rng.below(6),
        3 => 20 + rng.below(40),
        4 => 120 + rng.below(200),
        _ => return "é".repeat(1 + rng.below(4) as usize),
    };
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

/// Wire bytes of primitives `[start, start+count)`, plus where each
/// item's bytes start (after its length).
fn encode(kinds: &[PrimKind], start: u64, count: u64, rng: &mut Noise) -> (Vec<u8>, Vec<usize>) {
    let mut w = WireWriter::new();
    let mut items = Vec::new();
    for kind in &kinds[start as usize..(start + count) as usize] {
        match kind.wire_size() {
            Some(size) => (0..size).for_each(|_| w.put_u8(rng.next() as u8)),
            None => {
                items.push(w.len() + 4);
                w.put_str(&item(rng));
            }
        }
    }
    (w.finish().to_vec(), items)
}

/// Plants corruption `which` (0 leaves the bytes alone) into `data`.
fn corrupt(which: u8, data: &mut Vec<u8>, items: &[usize], rng: &mut Noise) {
    match which {
        1 if !data.is_empty() => {
            let at = rng.below(data.len() as u64) as usize;
            data.truncate(at);
        }
        2 => data.push(rng.next() as u8),
        3 if !items.is_empty() => {
            // A length past the end of the bytes, or past any item.
            let at = items[rng.below(items.len() as u64) as usize] - 4;
            let len = match rng.below(2) {
                0 => data.len() as u32,
                _ => u32::MAX,
            };
            data[at..at + 4].copy_from_slice(&len.to_be_bytes());
        }
        4 if !items.is_empty() => {
            // Invalid UTF-8 inside a non-empty item.
            let at = items[rng.below(items.len() as u64) as usize];
            let len = u32::from_be_bytes(data[at - 4..at].try_into().unwrap()) as usize;
            if len > 0 {
                data[at + rng.below(len as u64) as usize] = 0xff;
            }
        }
        _ => {}
    }
}

/// The same refusal: equal errors, except that a truncation may name
/// the stretch it cut rather than the one-kind run.
fn same_outcome(a: &Result<(), WireError>, b: &Result<(), WireError>) -> bool {
    match (a, b) {
        (Err(WireError::UnexpectedEof { .. }), Err(WireError::UnexpectedEof { .. })) => true,
        (a, b) => a == b,
    }
}

// ---------------------------------------------------------------------
// Images.
// ---------------------------------------------------------------------

/// What the oracle side knows of a one-block segment's history.
struct History {
    ty: TypeDesc,
    count: u32,
    version: u64,
    block_version: u64,
    subs: Vec<u64>,
}

/// The checkpoint image of a segment holding `h`'s block with the
/// oracle's contents, written field by field.
fn oracle_image(h: &History, data: &[u8]) -> Bytes {
    let mut w = WireWriter::new();
    w.put_bytes(b"IWCK");
    w.put_u32(1);
    w.put_str("h/s");
    w.put_u64(h.version);
    w.put_u32(1); // next serial
    w.put_u32(1); // types
    encode_type(&mut w, &h.ty);
    w.put_u64(1);
    w.put_u32(1); // blocks
    w.put_u32(0);
    w.put_u8(0);
    w.put_u32(0);
    w.put_u32(h.count);
    w.put_u64(1);
    w.put_u64(h.block_version);
    w.put_u32(h.subs.len() as u32);
    h.subs.iter().for_each(|&v| w.put_u64(v));
    w.put_len_bytes(data);
    w.put_u32(0); // freed
    w.finish()
}

fn kinds_of(ty: &TypeDesc, count: u32) -> Vec<PrimKind> {
    FlatLayout::new(&TypeDesc::array(ty.clone(), count), &wire_arch())
        .iter()
        .map(|p| p.kind)
        .collect()
}

/// One random step: a range (sometimes past the end) and its bytes,
/// corrupted one time in three.
fn step(prims: u64, kinds: &[PrimKind], rng: &mut Noise) -> (u64, u64, Bytes) {
    let start = rng.below(prims);
    let count = 1 + rng.below(prims - start);
    if rng.below(16) == 0 {
        return (start, prims - start + 1, Bytes::from(vec![0; 8]));
    }
    let (mut data, items) = encode(kinds, start, count, rng);
    let which = match rng.below(3) {
        0 => 1 + rng.below(4) as u8,
        _ => 0,
    };
    corrupt(which, &mut data, &items, rng);
    (start, count, Bytes::from(data))
}

fn check_history(ty: &TypeDesc, count: u32, seed: u64, steps: usize) {
    let mut rng = Noise(seed | 1);
    let (layout, ol) = (StoreLayout::new(ty, count), OracleLayout::new(ty, count));
    let prims = ol.prim_count();
    prop_assert_eq!(layout.prim_count(), prims);
    prop_assert_eq!(layout.fixed_size(), u64::from(ol.storage.local_size()));
    let kinds = kinds_of(ty, count);

    let (first, _) = encode(&kinds, 0, prims, &mut rng);
    let mut oracle = Oracle::new(&ol);
    oracle
        .apply(&ol, 0, prims, &Bytes::from(first.clone()))
        .unwrap();
    let mut store = WireStore::from_wire(&layout, &first).unwrap();
    let mut seg = ServerSegment::new("h/s");
    seg.apply_diff(&SegmentDiff {
        from_version: 0,
        to_version: 1,
        new_types: vec![(0, ty.clone())],
        new_blocks: vec![NewBlock {
            serial: 0,
            name: None,
            type_serial: 0,
            count,
            data: Bytes::from(first),
        }],
        ..Default::default()
    })
    .unwrap();
    let mut h = History {
        ty: ty.clone(),
        count,
        version: 1,
        block_version: 1,
        subs: vec![1; prims.div_ceil(SUBBLOCK_PRIMS).max(1) as usize],
    };

    for _ in 0..steps {
        if prims == 0 {
            break;
        }
        let (start, n, data) = step(prims, &kinds, &mut rng);
        let want = oracle.apply(&ol, start, n, &data);
        let got = store.apply(&layout, start, n, &data);
        prop_assert!(
            same_outcome(&got, &want),
            "store {:?} oracle {:?}",
            got,
            want
        );

        // The segment refuses a run past the block before reading it.
        if start + n <= prims {
            let diff = SegmentDiff {
                from_version: h.version,
                to_version: h.version + 1,
                block_diffs: vec![BlockDiff {
                    serial: 0,
                    runs: vec![DiffRun {
                        start,
                        count: n,
                        data: data.clone(),
                    }],
                }],
                ..Default::default()
            };
            let got = seg.apply_diff(&diff).map(|_| ()).map_err(|e| match e {
                iw_server::ServerError::Wire(e) => e,
                e => panic!("segment refused with {e}"),
            });
            prop_assert!(
                same_outcome(&got, &want),
                "segment {:?} oracle {:?}",
                got,
                want
            );
            if got.is_ok() {
                h.version += 1;
                h.block_version = h.version;
                let (a, b) = (start / SUBBLOCK_PRIMS, (start + n - 1) / SUBBLOCK_PRIMS);
                (a..=b).for_each(|sb| h.subs[sb as usize] = h.version);
            }
        }

        let all = oracle.extract(&ol, 0, prims).unwrap();
        prop_assert_eq!(store.extract_all(&layout).unwrap(), all.clone());
        let a = rng.below(prims);
        let b = 1 + rng.below(prims - a);
        let mut w = WireWriter::new();
        store.extract(&layout, a, b, &mut w).unwrap();
        prop_assert_eq!(w.finish(), oracle.extract(&ol, a, b).unwrap());
        let mut w = WireWriter::new();
        prop_assert_eq!(
            store.extract(&layout, a, prims - a + 1, &mut w),
            Err(WireError::LengthOverflow { len: prims + 1 })
        );
        prop_assert_eq!(
            checkpoint::encode_segment(&seg).unwrap(),
            oracle_image(&h, &all)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn span_store_matches_per_kind_oracle(
        ty in arb_type(),
        count in 1u32..6,
        seed in any::<u64>(),
    ) {
        check_history(&ty, count, seed, 24);
    }
}

/// A block of strings of three caps and pointers, churned 10⁴ times:
/// items grow, shrink and empty, and the arena stays within twice its
/// live bytes plus the slack after every step.
#[test]
fn arena_stays_bounded_under_churn() {
    let ty = TypeDesc::structure(
        "churn",
        vec![
            ("a", TypeDesc::string(4)),
            ("n", TypeDesc::int32()),
            ("b", TypeDesc::string(64)),
            ("p", TypeDesc::pointer()),
            ("c", TypeDesc::string(4096)),
        ],
    );
    let count = 40;
    let (layout, ol) = (StoreLayout::new(&ty, count), OracleLayout::new(&ty, count));
    let kinds = kinds_of(&ty, count);
    let prims = ol.prim_count();
    let mut rng = Noise(42);
    let mut oracle = Oracle::new(&ol);
    let mut store = WireStore::new(&layout);
    let mut peak = 0;
    for k in 0..10_000 {
        let start = rng.below(prims);
        let n = 1 + rng.below((prims - start).min(12));
        let (data, _) = encode(&kinds, start, n, &mut rng);
        let data = Bytes::from(data);
        oracle.apply(&ol, start, n, &data).unwrap();
        store.apply(&layout, start, n, &data).unwrap();
        let live = oracle.live_bytes();
        assert!(
            store.arena_len() <= 2 * live + ARENA_SLACK,
            "step {k}: arena {} B for {live} live B",
            store.arena_len()
        );
        peak = peak.max(store.arena_len());
    }
    assert_eq!(
        store.extract_all(&layout).unwrap(),
        oracle.extract(&ol, 0, prims).unwrap()
    );
    assert!(peak > ARENA_SLACK, "the churn never outgrew the slack");
}
