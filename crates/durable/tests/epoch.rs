//! One format epoch: a data directory holding a log of any other format
//! is refused by `DiffStore::open` with the typed `ForeignEpoch` error,
//! and left byte-identical — no new log file, no truncated tail, no
//! `ck/` directory created.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use iw_durable::{DiffStore, DurableOptions, ForeignEpoch, LOG_FORMAT};
use iw_telemetry::Registry;
use iw_wire::codec::WireWriter;
use iw_wire::wal::{crc32, encode_frame};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iw-epoch-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Every file under `dir` with its bytes, keyed by relative path.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, at: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in fs::read_dir(at).unwrap().flatten() {
            let path = entry.path();
            let rel = path.strip_prefix(root).unwrap().to_path_buf();
            if path.is_dir() {
                out.insert(rel, Vec::new());
                walk(root, &path, out);
            } else {
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// A log file of format `format`: the 16-byte header, then `frames`.
fn log_file(format: u32, seq: u64, frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = b"IWAL".to_vec();
    out.extend_from_slice(&format.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    for f in frames {
        out.extend_from_slice(f);
    }
    out
}

/// A format-1 diff record: the segment name, then a fixed-width body
/// (versions `from → from + 1`, one block diff writing `7` at prim 0).
fn v1_diff_frame(segment: &str, from: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_str(segment);
    w.put_u64(from);
    w.put_u64(from + 1);
    w.put_u32(0); // type descriptors
    w.put_u32(0); // new blocks
    w.put_u32(1); // block diffs
    w.put_u32(0); // serial
    w.put_u32(4); // declared diff length
    w.put_u32(1); // runs
    w.put_u64(0);
    w.put_u64(1);
    w.put_len_bytes(&7i32.to_be_bytes());
    w.put_u32(0); // freed
    encode_frame(1, &w.finish())
}

/// A format-1 checkpoint-marker record (kind 2).
fn marker_frame(segment: &str, version: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_str(segment);
    w.put_u64(version);
    encode_frame(2, &w.finish())
}

/// A format-1 single-file image (`<seg>.iwck`) in the IWDC envelope.
fn legacy_image(segment: &str, version: u64, image: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_str(segment);
    w.put_u64(version);
    w.put_len_bytes(image);
    let payload = w.finish();
    let mut out = b"IWDC".to_vec();
    out.extend_from_slice(&1u32.to_be_bytes());
    out.extend_from_slice(&crc32(&payload).to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Opens `dir`, expects the refusal naming `found`, and checks that the
/// directory is exactly as it was.
fn assert_refused(dir: &Path, found: u32) {
    let before = snapshot(dir);
    let err = DiffStore::open(dir, DurableOptions::default(), &Arc::new(Registry::new()))
        .expect_err("a foreign epoch must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let epoch = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<ForeignEpoch>())
        .unwrap_or_else(|| panic!("untyped refusal: {err}"));
    assert_eq!(
        epoch,
        &ForeignEpoch {
            dir: dir.to_path_buf(),
            found
        }
    );
    let msg = err.to_string();
    assert!(
        msg.contains(&dir.display().to_string())
            && msg.contains(&format!("format {found}"))
            && msg.contains(&format!("format {LOG_FORMAT}")),
        "{msg}"
    );
    assert_eq!(snapshot(dir), before, "a refused directory must not change");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn format_1_log_with_v1_body_and_marker_is_refused_untouched() {
    let dir = temp_dir("v1");
    let frames = [
        v1_diff_frame("s", 0),
        marker_frame("s", 1),
        v1_diff_frame("s", 1),
    ];
    let mut log = log_file(1, 1, &frames);
    // A torn tail an open in this epoch would truncate.
    log.extend_from_slice(&v1_diff_frame("s", 2)[..9]);
    fs::write(dir.join("wal-0000000000000001.iwlog"), &log).unwrap();
    assert_refused(&dir, 1);
}

#[test]
fn future_format_log_is_refused_untouched() {
    let dir = temp_dir("v3");
    fs::create_dir_all(dir.join("ck")).unwrap();
    fs::write(
        dir.join("wal-0000000000000004.iwlog"),
        log_file(3, 4, &[encode_frame(9, b"from a later build")]),
    )
    .unwrap();
    assert_refused(&dir, 3);
}

#[test]
fn format_1_log_next_to_legacy_image_is_refused_untouched() {
    let dir = temp_dir("iwck");
    fs::create_dir_all(dir.join("ck")).unwrap();
    fs::write(
        dir.join("ck").join("x.iwck"),
        legacy_image("x", 1, b"image@1"),
    )
    .unwrap();
    fs::write(
        dir.join("wal-0000000000000002.iwlog"),
        log_file(1, 2, &[v1_diff_frame("x", 1)]),
    )
    .unwrap();
    assert_refused(&dir, 1);
}

/// A refusal holds however many logs there are: one foreign file among
/// current-epoch ones refuses the directory too.
#[test]
fn one_foreign_log_among_current_ones_is_refused() {
    let dir = temp_dir("mixed");
    {
        let (store, _) = DiffStore::open(
            &dir,
            DurableOptions {
                fsync: false,
                ..DurableOptions::default()
            },
            &Arc::new(Registry::new()),
        )
        .unwrap();
        assert!(store.begin_compaction().unwrap());
        store.finish_compaction(false);
    }
    fs::write(
        dir.join("wal-0000000000000001.iwlog"),
        log_file(1, 1, &[marker_frame("s", 1)]),
    )
    .unwrap();
    assert_refused(&dir, 1);
}
