//! End-to-end CLI tests: spawn `iwsrv`, populate a segment through the
//! client library over TCP, inspect it with `iwdump`, then restart the
//! server on the same `--data-dir` and check the data survived; and
//! check that a data directory of an older format epoch is refused.

mod common;

use std::net::SocketAddr;
use std::process::{Command, Stdio};

use common::spawn_iwsrv;
use iw_core::Session;
use iw_proto::TcpTransport;
use iw_types::{idl, MachineArch};

fn iwdump(addr: SocketAddr, segment: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_iwdump"))
        .arg("--server")
        .arg(addr.to_string())
        .arg(segment)
        .stderr(Stdio::null())
        .output()
        .expect("run iwdump");
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn serve_populate_dump_recover() {
    let dir = std::env::temp_dir().join(format!("iwsrv-test-{}", std::process::id()));
    let dir_s = dir.to_str().unwrap().to_string();
    let _ = std::fs::remove_dir_all(&dir);

    {
        let srv = spawn_iwsrv(&["--data-dir", &dir_s]);
        let mut s = Session::new(
            MachineArch::x86(),
            Box::new(TcpTransport::connect(srv.addr).unwrap()),
        )
        .unwrap();
        let ty = idl::compile("struct rec { int id; string tag<16>; struct rec *peer; };")
            .unwrap()
            .get("rec")
            .unwrap()
            .clone();
        let h = s.open_segment("cli/demo").unwrap();
        s.wl_acquire(&h).unwrap();
        let a = s.malloc(&h, &ty, 1, Some("alpha")).unwrap();
        let b = s.malloc(&h, &ty, 1, Some("beta")).unwrap();
        s.write_i32(&s.field(&a, "id").unwrap(), 7).unwrap();
        s.write_str(&s.field(&a, "tag").unwrap(), "hello").unwrap();
        s.write_ptr(&s.field(&a, "peer").unwrap(), Some(&b))
            .unwrap();
        s.write_i32(&s.field(&b, "id").unwrap(), 8).unwrap();
        s.wl_release(&h).unwrap();

        let dump = iwdump(srv.addr, "cli/demo");
        assert!(dump.contains("2 blocks"), "{dump}");
        assert!(dump.contains("alpha"), "{dump}");
        assert!(dump.contains("\"hello\""), "{dump}");
        assert!(dump.contains("-> cli/demo#beta"), "{dump}");
    } // server killed

    // Recovery: a new server process replays the durable store.
    let srv = spawn_iwsrv(&["--data-dir", &dir_s]);
    let dump = iwdump(srv.addr, "cli/demo");
    assert!(dump.contains("2 blocks"), "post-recovery: {dump}");
    assert!(dump.contains("\"hello\""), "post-recovery: {dump}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A data directory of the previous format epoch (a format-1 log) makes
/// `iwsrv` exit non-zero with one stderr line naming the directory and
/// both formats, and leaves the directory byte-identical.
#[test]
fn older_epoch_data_dir_is_refused() {
    let dir = std::env::temp_dir().join(format!("iwsrv-epoch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("wal-0000000000000001.iwlog");
    let mut header = b"IWAL".to_vec();
    header.extend_from_slice(&1u32.to_be_bytes());
    header.extend_from_slice(&1u64.to_be_bytes());
    std::fs::write(&log, &header).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_iwsrv"))
        .args(["--listen", "127.0.0.1:0", "--data-dir"])
        .arg(&dir)
        .stdout(Stdio::null())
        .output()
        .expect("run iwsrv");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(!out.status.success(), "iwsrv must refuse: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    let dir_s = dir.display().to_string();
    for want in [dir_s.as_str(), "format 1", "format 2"] {
        assert!(stderr.contains(want), "`{want}` missing: {stderr}");
    }
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
    assert_eq!(entries.len(), 1, "nothing may be created beside the log");
    assert_eq!(std::fs::read(&log).unwrap(), header);
    let _ = std::fs::remove_dir_all(&dir);
}
