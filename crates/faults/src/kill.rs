//! Process-kill chaos: SIGKILL a real `iwsrv` mid-commit, restart it
//! from its data directory, and byte-compare the recovered segment
//! against a fault-free oracle.
//!
//! This is the one fault class the in-process harness cannot inject —
//! the process dying with its memory. The harness:
//!
//! 1. spawns `iwsrv --data-dir <tmp> --checkpoint-every N --listen
//!    127.0.0.1:0 --port-file …` and learns the ephemeral port through
//!    the port file (with `N = 1` every commit also writes a checkpoint
//!    image, so the kill can land inside an image-slot write);
//! 2. runs a synchronous writer over real TCP: round `r` commits the
//!    deterministic diff `r → r+1` (round 0 allocates one `int64` block,
//!    later rounds overwrite it with `r`), counting acknowledged rounds;
//! 3. a killer thread SIGKILLs the server the moment the seeded target
//!    ack count is reached — the writer is already inside its *next*
//!    commit, so the kill lands mid-commit, tearing whatever the server
//!    was doing (including, at the right seeds, a half-written WAL
//!    append);
//! 4. restarts `iwsrv` on the same data dir and reads the segment back.
//!
//! **Invariants checked** — `A` = rounds acknowledged before the kill,
//! `V` = recovered version:
//!
//! - *acked ⇒ durable*: `V ≥ A` (an acknowledged release survived the
//!   SIGKILL, because the fsync happened before the reply);
//! - *no invented commits*: `V ≤ A + 1` (at most the single in-flight
//!   commit may have landed without its ack being seen);
//! - *byte-identical state*: the full-transfer update a fresh client
//!   receives from the recovered server equals, byte for byte on the
//!   wire, the one produced by a fault-free in-process server fed
//!   exactly `V` rounds;
//! - *bounded images*: `ck/` holds at most the segment's two image slots.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iw_proto::msg::{LockMode, Reply, Request};
use iw_proto::{Coherence, TcpTransport, Transport};
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};

use crate::splitmix64;

/// Segment the kill workload writes.
const SEGMENT: &str = "kill/slots";

/// A kill/restart run's parameters.
#[derive(Debug, Clone)]
pub struct KillConfig {
    /// Seed for the kill point (which ack count triggers the SIGKILL).
    pub seed: u64,
    /// Rounds the writer attempts; the kill lands strictly before the
    /// last one so there is always an in-flight commit to tear.
    pub rounds: u64,
    /// Path to the `iwsrv` binary.
    pub iwsrv: PathBuf,
    /// `iwsrv --checkpoint-every`: versions between checkpoint images
    /// (8 is iwsrv's default; 1 images every commit).
    pub checkpoint_every: u64,
    /// Data directory for the victim server (created; removed on a
    /// successful run).
    pub data_dir: PathBuf,
}

/// What a kill/restart run observed.
#[derive(Debug)]
pub struct KillReport {
    /// Rounds acknowledged before the SIGKILL landed.
    pub acked: u64,
    /// Segment version after restart-from-disk.
    pub recovered_version: u64,
    /// Recovered full-transfer bytes equal the fault-free oracle's.
    pub identical: bool,
    /// Diff records the restarted server replayed from its WAL.
    pub replayed_records: u64,
    /// Human-readable invariant violations.
    pub failures: Vec<String>,
}

impl KillReport {
    /// `true` when every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The deterministic diff committed in round `r` (version `r → r+1`).
fn round_diff(r: u64) -> SegmentDiff {
    let mut d = SegmentDiff {
        from_version: r,
        to_version: r + 1,
        ..Default::default()
    };
    if r == 0 {
        d.new_types = vec![(0, TypeDesc::int64())];
        d.new_blocks = vec![NewBlock {
            serial: 0,
            name: Some("slot".into()),
            type_serial: 0,
            count: 1,
            data: Bytes::from(0i64.to_be_bytes().to_vec()),
        }];
    } else {
        d.block_diffs = vec![BlockDiff {
            serial: 0,
            runs: vec![DiffRun {
                start: 0,
                count: 1,
                data: Bytes::from((r as i64).to_be_bytes().to_vec()),
            }],
        }];
    }
    d
}

/// A spawned `iwsrv` child that is SIGKILLed (if still alive) and
/// reaped on drop, so an early harness failure never leaks a server.
struct Victim {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Victim {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_iwsrv(iwsrv: &Path, data_dir: &Path, checkpoint_every: u64) -> Result<Victim, String> {
    let port_file = data_dir.join("port");
    let _ = std::fs::remove_file(&port_file);
    std::fs::create_dir_all(data_dir).map_err(|e| format!("create {}: {e}", data_dir.display()))?;
    let child = Command::new(iwsrv)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--data-dir")
        .arg(data_dir)
        .arg("--checkpoint-every")
        .arg(checkpoint_every.to_string())
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", iwsrv.display()))?;
    // Port handshake: iwsrv writes its bound address once serving.
    let deadline = Instant::now() + Duration::from_secs(15);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if let Ok(addr) = s.trim().parse::<SocketAddr>() {
                break addr;
            }
        }
        if Instant::now() > deadline {
            return Err("iwsrv never wrote its port file".to_string());
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    Ok(Victim { child, addr })
}

fn connect(addr: SocketAddr) -> Result<(TcpTransport, u64), String> {
    let mut t = TcpTransport::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let Ok(Reply::Welcome { client, .. }) = t.request(&Request::Hello {
        info: "kill-harness".into(),
    }) else {
        return Err("no Welcome from iwsrv".to_string());
    };
    let _ = t.request(&Request::Open {
        client,
        segment: SEGMENT.into(),
    });
    Ok((t, client))
}

/// One acquire-write-release round against a live transport. Returns
/// `false` when the server stopped answering (the kill landed).
fn commit_round(t: &mut TcpTransport, client: u64, r: u64) -> bool {
    let acq = t.request(&Request::Acquire {
        client,
        segment: SEGMENT.into(),
        mode: LockMode::Write,
        have_version: r,
        coherence: Coherence::Full,
    });
    if !matches!(acq, Ok(Reply::Granted { .. })) {
        return false;
    }
    let rel = t.request(&Request::Release {
        client,
        segment: SEGMENT.into(),
        diff: Some(round_diff(r)),
    });
    matches!(rel, Ok(Reply::Released { .. }))
}

/// The full-transfer wire bytes a fresh reader receives for the
/// segment: acquire-read at version 0, encode the update diff.
fn full_transfer(t: &mut TcpTransport, client: u64) -> Result<(u64, Vec<u8>), String> {
    match t.request(&Request::Acquire {
        client,
        segment: SEGMENT.into(),
        mode: LockMode::Read,
        have_version: 0,
        coherence: Coherence::Full,
    }) {
        Ok(Reply::Granted {
            version,
            update: Some(diff),
            ..
        }) => Ok((version, diff.encode().to_vec())),
        Ok(Reply::Granted {
            version: 0,
            update: None,
            ..
        }) => Ok((0, Vec::new())),
        other => Err(format!("full transfer failed: {other:?}")),
    }
}

/// The fault-free oracle: a fresh in-process server fed exactly
/// `version` rounds, read back through the same request shapes.
fn oracle_transfer(version: u64) -> (u64, Vec<u8>) {
    let s = Server::new();
    let c = s.hello("oracle");
    s.open(SEGMENT);
    for r in 0..version {
        let acq = s.handle_request(&Request::Acquire {
            client: c,
            segment: SEGMENT.into(),
            mode: LockMode::Write,
            have_version: r,
            coherence: Coherence::Full,
        });
        assert!(
            matches!(acq, Reply::Granted { .. }),
            "oracle acquire: {acq:?}"
        );
        let rel = s.handle_request(&Request::Release {
            client: c,
            segment: SEGMENT.into(),
            diff: Some(round_diff(r)),
        });
        assert!(
            matches!(rel, Reply::Released { .. }),
            "oracle release: {rel:?}"
        );
    }
    match s.handle_request(&Request::Acquire {
        client: c,
        segment: SEGMENT.into(),
        mode: LockMode::Read,
        have_version: 0,
        coherence: Coherence::Full,
    }) {
        Reply::Granted {
            version,
            update: Some(diff),
            ..
        } => (version, diff.encode().to_vec()),
        Reply::Granted {
            version,
            update: None,
            ..
        } => (version, Vec::new()),
        other => panic!("oracle full transfer failed: {other:?}"),
    }
}

/// Runs one SIGKILL-mid-commit cycle: spawn, write, kill at a seeded
/// ack count, restart, verify the three invariants.
///
/// # Errors
///
/// A `String` describing scaffolding failures (cannot spawn or
/// reach `iwsrv`); invariant *violations* are reported in the
/// [`KillReport`], not as errors.
pub fn run_kill_restart(cfg: &KillConfig) -> Result<KillReport, String> {
    let mut failures = Vec::new();
    let _ = std::fs::remove_dir_all(&cfg.data_dir);

    // Phase 1: victim serves, writer commits, killer strikes.
    let acked = Arc::new(AtomicU64::new(0));
    let victim = spawn_iwsrv(&cfg.iwsrv, &cfg.data_dir, cfg.checkpoint_every)?;
    let (mut t, client) = connect(victim.addr)?;
    // Kill after `target` acks — seeded into the middle of the run so
    // there is always a next commit in flight to tear.
    let mut s = cfg.seed;
    let target = 1 + splitmix64(&mut s) % cfg.rounds.saturating_sub(1).max(1);
    let killer = {
        let acked = acked.clone();
        // The Child handle stays on this thread (Drop reaps it); the
        // killer only needs the pid to deliver the signal.
        let pid = victim.child.id();
        std::thread::spawn(move || {
            while acked.load(Ordering::SeqCst) < target {
                std::thread::yield_now();
            }
            // SIGKILL: the process dies now, wherever it is.
            #[cfg(unix)]
            {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
            #[cfg(not(unix))]
            let _ = pid;
        })
    };
    let mut acked_n = 0;
    for r in 0..cfg.rounds {
        if !commit_round(&mut t, client, r) {
            break; // the kill landed
        }
        acked_n += 1;
        acked.fetch_add(1, Ordering::SeqCst);
    }
    // Unblock the killer even if the writer stopped short of the
    // target (its extra SIGKILL just hits the already-dying victim).
    acked.store(u64::MAX, Ordering::SeqCst);
    let acked = acked_n;
    killer.join().ok();
    drop(t);
    drop(victim); // reap (already dead unless the workload outran the killer)

    if acked >= cfg.rounds {
        failures.push(format!(
            "kill never landed: all {acked} rounds acked (target was {target})"
        ));
    }

    // Phase 2: restart from disk, read back, compare.
    let victim = spawn_iwsrv(&cfg.iwsrv, &cfg.data_dir, cfg.checkpoint_every)?;
    let (mut t, client) = connect(victim.addr)?;
    let (recovered_version, recovered_bytes) = full_transfer(&mut t, client)?;
    let replayed_records = match t.request(&Request::Stats { client }) {
        Ok(Reply::Stats { snapshot }) => snapshot
            .counter("durable.recovery_replayed_records")
            .unwrap_or(0),
        _ => 0,
    };
    drop(t);
    drop(victim);

    if recovered_version < acked {
        failures.push(format!(
            "durability violated: {acked} rounds were acked but only v{recovered_version} recovered"
        ));
    }
    if recovered_version > acked + 1 {
        failures.push(format!(
            "recovered v{recovered_version} but only {acked} rounds were acked (+1 in flight max)"
        ));
    }
    let (oracle_version, oracle_bytes) = oracle_transfer(recovered_version);
    let identical = oracle_version == recovered_version && oracle_bytes == recovered_bytes;
    if !identical {
        failures.push(format!(
            "recovered segment differs from the fault-free oracle at v{recovered_version} \
             ({} vs {} bytes)",
            recovered_bytes.len(),
            oracle_bytes.len()
        ));
    }
    let images = std::fs::read_dir(cfg.data_dir.join("ck")).map_or(0, |d| d.count());
    if images > 2 {
        failures.push(format!(
            "ck/ holds {images} files for one segment (at most 2 slots)"
        ));
    }
    if failures.is_empty() {
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
    }
    Ok(KillReport {
        acked,
        recovered_version,
        identical,
        replayed_records,
        failures,
    })
}
