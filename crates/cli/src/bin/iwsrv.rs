//! `iwsrv` — a standalone InterWeave server over TCP.
//!
//! ```text
//! iwsrv [--listen 127.0.0.1:7474] [--data-dir DIR] [--checkpoint-every N]
//!       [--backup-of ADDR] [--chaos SEED] [--chaos-rate PER_10K]
//!       [--port-file PATH] [--workers N] [--max-conns N] [--idle-timeout SECS]
//! ```
//!
//! Connections are served by `iw-net`: `--workers` (default 4) epoll
//! run-to-completion loops, each owning its share of the sockets and
//! calling the server itself, so `--workers` is also how many requests
//! run — or wait on an fsync — at once. Admission control sits at
//! `--max-conns` (default 4096, beyond which connections get a typed
//! `Overloaded` reply), and idle connections are reaped after
//! `--idle-timeout` (default 300 s, 0 disables).
//!
//! With `--data-dir`, the server runs on the durable diff store
//! (`iw-durable`): committed diffs are WAL-logged and fsynced before the
//! release is acknowledged, checkpoint images bound the log, and a
//! restart with the same `--data-dir` recovers everything — including a
//! `kill -9` mid-commit (torn tail truncated). `--checkpoint-every`
//! sets the checkpoint interval in versions (default 8). Without
//! `--data-dir` nothing is persisted.
//!
//! `--port-file PATH` writes the actual bound address (useful with
//! `--listen 127.0.0.1:0`) to PATH once serving — the handshake the
//! kill/restart harness uses to find an ephemeral port.
//!
//! Every `iwsrv` is replication-capable: it accepts `AttachBackup`
//! requests and streams committed diffs to attached backups. With
//! `--backup-of ADDR`, this instance instead serves the *read-replica*
//! face: it registers itself as a backup of the primary at `ADDR`
//! (retrying until the primary is reachable) and follows its diff
//! stream, answers floored read polls locally whenever its copy
//! satisfies the client's staleness floor (`NotFresh` otherwise), and
//! bounces every write-shaped request with a `NotPrimary` redirect
//! naming the primary. The face is promotable: the first
//! failover-marked `Hello` (a client that lost the primary
//! re-registering) permanently flips the node to its full primary
//! face, so kill-the-primary failover keeps working with the
//! replica face in front.
//!
//! With `--chaos SEED`, a deterministic fault injector sits between the
//! wire and the server (`iw_faults::FaultyHandler`): a seeded fraction
//! of requests (default 200 per 10 000, tune with `--chaos-rate`) is
//! dropped, truncated, duplicated or delayed before dispatch, or
//! executed with its reply lost. Either way the client gets an error
//! reply on a link that stays up. The injected faults are the
//! *recoverable* class (no corruption), so well-behaved clients retry
//! through them; `faults.injected_total` counters land in the registry
//! `iwstat` scrapes.

use std::path::PathBuf;
use std::sync::Arc;

use iw_cli::Args;
use iw_cluster::{Backup, Primary};
use iw_faults::{FaultLog, FaultPlan, FaultyHandler};
use iw_net::{NetOptions, NetServer};
use iw_proto::{Handler, Reply, Request, TcpTransport, Transport};
use iw_server::{DurableOptions, Server};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(std::env::args().skip(1));
    let listen = args.flag("listen").unwrap_or("127.0.0.1:7474");
    let every: u64 = args
        .flag("checkpoint-every")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(8);

    let server = if let Some(dir) = args.flag("data-dir") {
        let opts = DurableOptions {
            checkpoint_interval: every.max(1),
            ..DurableOptions::default()
        };
        let (s, recovery) = Server::with_durability(PathBuf::from(dir), opts)?;
        for w in &recovery.warnings {
            eprintln!("iwsrv: recovery warning: {w}");
        }
        eprintln!(
            "iwsrv: durable store at {dir}: {} segments recovered, {} records replayed",
            recovery.segments.len(),
            recovery.replayed_records
        );
        s
    } else {
        Server::new()
    };
    let registry = server.registry().clone();
    let backup_of: Option<std::net::SocketAddr> =
        args.flag("backup-of").map(|v| v.parse()).transpose()?;
    // A `--backup-of` node serves the read-replica face: floored read
    // polls answered locally, writes bounced toward the primary. The
    // diff/sync stream from the primary passes through `Backup` to the
    // same underlying server. The face is *promotable*: the wrapped
    // `Primary` handler takes over on the first failover-marked
    // `Hello`, restoring full write + replication capability once the
    // primary is gone.
    let core: Arc<dyn Handler> = match backup_of {
        Some(primary) => {
            let full = Primary::new(server);
            let srv = full.server().clone();
            Arc::new(Backup::promotable(
                Arc::new(full),
                srv,
                Some(primary.to_string()),
            ))
        }
        None => Arc::new(Primary::new(server)),
    };
    let handler: Arc<dyn Handler> = match args.flag("chaos") {
        Some(seed) => {
            let seed: u64 = seed.parse()?;
            let rate: u32 = args
                .flag("chaos-rate")
                .map(|v| v.parse())
                .transpose()?
                .unwrap_or(200);
            let faulty =
                FaultyHandler::new(core, seed, FaultPlan::recoverable(rate), FaultLog::new());
            faulty.bind_registry(&registry);
            eprintln!("iwsrv: chaos ingress enabled (seed {seed}, {rate}/10k)");
            Arc::new(faulty)
        }
        None => core,
    };
    let workers: usize = args
        .flag("workers")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(4);
    let max_connections: usize = args
        .flag("max-conns")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(4096);
    let idle_secs: u64 = args
        .flag("idle-timeout")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(300);
    let opts = NetOptions {
        workers: workers.max(1),
        max_connections,
        idle_timeout: (idle_secs > 0).then(|| std::time::Duration::from_secs(idle_secs)),
        ..NetOptions::default()
    };
    eprintln!(
        "iwsrv: front end: epoll, {} loops, {max_connections} conns max",
        opts.workers
    );
    let tcp = NetServer::spawn_with(listen.parse()?, handler, opts, &registry)?;
    eprintln!("iwsrv: serving on {}", tcp.addr());
    if let Some(path) = args.flag("port-file") {
        // tmp+rename so a poller never reads a half-written address.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, tcp.addr().to_string())?;
        std::fs::rename(&tmp, path)?;
    }

    if let Some(primary) = backup_of {
        let own = tcp.addr().to_string();
        std::thread::spawn(move || loop {
            if let Ok(mut t) = TcpTransport::connect(primary) {
                let attach = Request::AttachBackup { addr: own.clone() };
                if matches!(t.request(&attach), Ok(Reply::Replicated { .. })) {
                    eprintln!("iwsrv: attached as backup of {primary}");
                    break;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(500));
        });
    }

    eprintln!("iwsrv: press ctrl-c to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
