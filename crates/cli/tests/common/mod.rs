//! Shared by the `iw-cli` integration tests: an `iwsrv` child on an
//! ephemeral port and `iwstat` scrapes against it. Each test binary uses
//! a subset, hence the `dead_code` allowance.

#![allow(dead_code)]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A running `iwsrv`, killed and reaped on drop.
pub struct Srv {
    child: Child,
    port_file: PathBuf,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Drop for Srv {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.port_file);
    }
}

/// Starts `iwsrv --listen 127.0.0.1:0 --port-file … ARGS` and waits for
/// the address it writes once serving: no fixed port to collide with,
/// and no chance of mistaking another process for the server.
#[allow(clippy::zombie_processes)] // killed + waited in Srv::drop
pub fn spawn_iwsrv(args: &[&str]) -> Srv {
    static N: AtomicU64 = AtomicU64::new(0);
    let port_file = std::env::temp_dir().join(format!(
        "iwsrv-port-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_iwsrv"))
        .args(["--listen", "127.0.0.1:0", "--port-file"])
        .arg(&port_file)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn iwsrv");
    let mut srv = Srv {
        child,
        port_file,
        addr: ([0, 0, 0, 0], 0).into(),
    };
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if let Some(addr) = std::fs::read_to_string(&srv.port_file)
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            srv.addr = addr;
            return srv;
        }
        if let Ok(Some(status)) = srv.child.try_wait() {
            panic!("iwsrv {args:?} exited with {status} before serving");
        }
        assert!(
            Instant::now() < deadline,
            "iwsrv {args:?} never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `iwstat --server ADDR ARGS`, or `None` if the scrape failed.
pub fn try_iwstat(addr: SocketAddr, args: &[&str]) -> Option<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_iwstat"))
        .arg("--server")
        .arg(addr.to_string())
        .args(args)
        .output()
        .expect("run iwstat");
    out.status
        .success()
        .then(|| String::from_utf8(out.stdout).expect("utf8"))
}

/// `iwstat --server ADDR ARGS`; a failed scrape fails the test.
pub fn iwstat(addr: SocketAddr, args: &[&str]) -> String {
    try_iwstat(addr, args).unwrap_or_else(|| panic!("iwstat {args:?} against {addr} failed"))
}

/// Pulls `"name":value` out of an `iwstat --json` dump, if present.
pub fn json_value(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = json.find(&key)?;
    json[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}
