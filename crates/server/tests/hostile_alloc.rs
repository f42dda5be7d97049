//! Hostile inputs at three boundaries give typed errors without large
//! allocations: a diff body shaped like the fixed-width layout of an
//! older format epoch (declaring 2²⁴ new blocks), a checkpoint image
//! declaring 2²⁶ subblock versions, and a release whose one new block
//! claims 4 000 000 pointers with no bytes. A counting global allocator
//! records the largest single request made on the test's own thread, so
//! nothing else the harness does can interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use iw_server::checkpoint::decode_segment;
use iw_server::{ServerError, ServerSegment};
use iw_types::desc::TypeDesc;
use iw_wire::codec::{WireError, WireReader, WireWriter};
use iw_wire::diff::{NewBlock, SegmentDiff};

/// No single allocation while decoding may exceed this.
const LIMIT: usize = 64 << 10;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; `note` only
// updates a const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the largest single allocation
/// it made on this thread.
fn largest_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// 24 bytes: `from`, `to`, `n_types = 0`, `n_new = 2²⁴`, fixed-width.
fn pre_epoch_diff_body() -> Bytes {
    let mut w = WireWriter::new();
    w.put_u64(0);
    w.put_u64(1);
    w.put_u32(0);
    w.put_u32(1 << 24);
    w.finish()
}

/// 66 bytes: a checkpoint image whose one block declares 2²⁶ subblock
/// versions and then ends.
fn image_with_hostile_subs() -> Bytes {
    let mut w = WireWriter::new();
    w.put_bytes(b"IWCK");
    w.put_u32(1); // image format
    w.put_str("s");
    w.put_u64(1); // version
    w.put_u32(1); // next serial
    w.put_u32(0); // types
    w.put_u32(1); // blocks
    w.put_u32(0); // serial
    w.put_u8(0); // no name
    w.put_u32(0); // type serial
    w.put_u32(1); // count
    w.put_u64(1); // created
    w.put_u64(1); // block version
    w.put_u32(1 << 26); // subblock versions
    w.finish()
}

#[test]
fn hostile_counts_give_typed_errors_without_large_allocations() {
    let body = pre_epoch_diff_body();
    assert_eq!(body.len(), 24);
    let (res, largest) = largest_during(|| SegmentDiff::decode(&mut WireReader::new(body)));
    assert!(
        largest <= LIMIT,
        "diff decode allocated {largest} B at once"
    );
    assert!(
        matches!(
            res,
            Err(WireError::BadTag {
                what: "diff envelope",
                tag: 0
            })
        ),
        "{res:?}"
    );

    let image = image_with_hostile_subs();
    assert_eq!(image.len(), 66);
    let (res, largest) = largest_during(|| decode_segment(image));
    assert!(
        largest <= LIMIT,
        "image decode allocated {largest} B at once"
    );
    assert!(
        matches!(res, Err(ServerError::Wire(WireError::UnexpectedEof { .. }))),
        "{:?}",
        res.map(|s| s.name)
    );
}

/// 19 bytes: a release registering `pointer` and creating one block of
/// 4 000 000 of them, with an empty body.
fn release_claiming_pointers() -> Bytes {
    SegmentDiff {
        from_version: 0,
        to_version: 1,
        new_types: vec![(0, TypeDesc::pointer())],
        new_blocks: vec![NewBlock {
            serial: 0,
            name: None,
            type_serial: 0,
            count: 4_000_000,
            data: Bytes::new(),
        }],
        ..Default::default()
    }
    .encode()
}

#[test]
fn new_block_larger_than_its_bytes_is_refused_before_storage() {
    let release = release_claiming_pointers();
    assert_eq!(release.len(), 19);
    let mut seg = ServerSegment::new("h/s");
    let (res, largest) = largest_during(|| {
        let diff = SegmentDiff::decode(&mut WireReader::new(release))?;
        seg.apply_diff(&diff).map_err(|e| match e {
            ServerError::Wire(e) => e,
            e => panic!("refused with {e}"),
        })
    });
    assert!(
        largest <= LIMIT,
        "the release allocated {largest} B at once"
    );
    assert!(
        matches!(res, Err(WireError::UnexpectedEof { .. })),
        "{res:?}"
    );
    assert_eq!((seg.version(), seg.block_count()), (0, 0));
}
