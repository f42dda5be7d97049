//! End-to-end CLI test: spawn `iwsrv`, populate a segment through the
//! client library over TCP, inspect it with `iwdump`, then restart the
//! server on the same `--data-dir` and check the data survived.

use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use iw_core::Session;
use iw_proto::TcpTransport;
use iw_types::{idl, MachineArch};

struct Srv(Child);

impl Drop for Srv {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[allow(clippy::zombie_processes)] // killed + waited in Srv::drop
fn spawn_srv(port: u16, dir: &str) -> Srv {
    let child = Command::new(env!("CARGO_BIN_EXE_iwsrv"))
        .arg("--listen")
        .arg(format!("127.0.0.1:{port}"))
        .arg("--data-dir")
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn iwsrv");
    // Wait for the port to accept connections.
    for _ in 0..100 {
        if TcpStream::connect(("127.0.0.1", port)).is_ok() {
            return Srv(child);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("iwsrv did not come up on port {port}");
}

fn iwdump(port: u16, segment: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_iwdump"))
        .arg("--server")
        .arg(format!("127.0.0.1:{port}"))
        .arg(segment)
        .stderr(Stdio::null())
        .output()
        .expect("run iwdump");
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn serve_populate_dump_recover() {
    let port = 17481;
    let dir = std::env::temp_dir().join(format!("iwsrv-test-{}", std::process::id()));
    let dir_s = dir.to_str().unwrap().to_string();
    let _ = std::fs::remove_dir_all(&dir);

    {
        let _srv = spawn_srv(port, &dir_s);
        let mut s = Session::new(
            MachineArch::x86(),
            Box::new(TcpTransport::connect(format!("127.0.0.1:{port}").parse().unwrap()).unwrap()),
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

        let dump = iwdump(port, "cli/demo");
        assert!(dump.contains("2 blocks"), "{dump}");
        assert!(dump.contains("alpha"), "{dump}");
        assert!(dump.contains("\"hello\""), "{dump}");
        assert!(dump.contains("-> cli/demo#beta"), "{dump}");
    } // server killed

    // Recovery: a new server process replays the durable store.
    let _srv = spawn_srv(port + 1, &dir_s);
    let dump = iwdump(port + 1, "cli/demo");
    assert!(dump.contains("2 blocks"), "post-recovery: {dump}");
    assert!(dump.contains("\"hello\""), "post-recovery: {dump}");
    let _ = std::fs::remove_dir_all(&dir);
}
