//! The system under test: one server stack per workload, composed the
//! way `iwsrv` composes it with its defaults, on ephemeral loopback
//! ports, in this process.
//!
//! primary node: `Server` (or `Server::with_durability`) → `Primary` →
//! `NetServer` (platform poller = epoll, 4 workers);
//! backup node (as `iwsrv --backup-of`): `Server` → `Primary` →
//! `Backup::promotable` → its own `NetServer`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use iw_cluster::{Backup, Primary};
use iw_core::Session;
use iw_net::{NetOptions, NetServer, PollerKind};
use iw_proto::{Handler, TcpTransport, Transport};
use iw_server::{DurabilityMode, DurableOptions, Server};
use iw_types::MachineArch;

use crate::affinity;
use crate::trace::{ClientSink, TraceClock, TracedHandler, TracedTransport};

/// `iwsrv`'s defaults, spelled out so the output can record them.
pub const WORKERS: usize = 4;
/// `iwsrv --checkpoint-every` default, which doubles as the durable
/// checkpoint interval.
pub const CHECKPOINT_EVERY: u64 = 8;

/// Where threads run. Left to itself the scheduler of this two-CPU guest
/// moves the generators and the server's threads between CPUs, and a
/// wake-up that crosses CPUs costs tens of microseconds here, so every
/// latency followed the placement of the moment (run-to-run spread of
/// 10-15 %, see README). The placement is fixed instead, the way a
/// deployment fixes it: the generators (the client machines) on one CPU,
/// every thread of the server stack on the other, so that a round trip
/// crosses CPUs exactly twice, like a network.
pub const CLIENT_CPU: usize = 0;
/// See [`CLIENT_CPU`].
pub const SERVER_CPU: usize = 1;

fn net_options() -> NetOptions {
    NetOptions {
        workers: WORKERS,
        max_connections: 4096,
        idle_timeout: Some(Duration::from_secs(300)),
        poller: PollerKind::default_for_platform(),
        ..NetOptions::default()
    }
}

/// The durable options `iwsrv --data-dir DIR` runs with.
pub fn durable_options() -> DurableOptions {
    DurableOptions {
        mode: DurabilityMode::WalCheckpoint,
        checkpoint_interval: CHECKPOINT_EVERY,
        ..DurableOptions::default()
    }
}

/// One line describing what every stack is made of.
pub fn describe(durable: bool, backup: bool) -> String {
    let o = durable_options();
    format!(
        "stack: Server{} -> Primary{} -> NetServer({} poller, {WORKERS} workers); \
         client: iw_core::Session over TcpTransport; loopback TCP, sandbox disk; \
         placement: generators on CPU {CLIENT_CPU}, server stack on CPU {SERVER_CPU}",
        if durable {
            format!(
                "::with_durability({}, checkpoint every {} versions, compact at {} MiB, fsync {}, group commit)",
                o.mode,
                o.checkpoint_interval,
                o.compact_threshold_bytes >> 20,
                if o.fsync { "on" } else { "off" }
            )
        } else {
            "::new (durability off)".into()
        },
        if backup {
            " + 1 backup (Server -> Primary -> Backup::promotable -> NetServer) over a loopback ship link"
        } else {
            ""
        },
        PollerKind::default_for_platform(),
    )
}

/// Tracing hooks of one stack (present only under `--trace`).
pub struct StackTrace {
    /// Shared clock and recording switch.
    pub clock: Arc<TraceClock>,
    /// Around the primary's handler.
    pub primary: Arc<TracedHandler>,
    /// Around the backup's handler.
    pub backup: Option<Arc<TracedHandler>>,
    /// Around the ship link.
    pub ship: Option<Arc<ClientSink>>,
}

/// The backup node.
pub struct BackupNode {
    /// The backup's server (for the image comparison and lag sampling).
    pub server: Arc<Server>,
    net: NetServer,
}

/// A running server stack. Dropping it stops every thread it started and
/// removes its data directory.
pub struct Stack {
    // Field order is drop order: the front end first (it finishes what is
    // in flight and joins its workers), then every holder of the primary
    // (whose drop stops the ship thread and closes the ship link), then
    // the backup node, then the directory.
    net: NetServer,
    /// Tracing hooks.
    pub trace: Option<StackTrace>,
    /// The primary's handler (for `drain` and its server's registry).
    pub primary: Arc<Primary>,
    /// The backup node, when the workload has one.
    pub backup: Option<BackupNode>,
    /// The durable store's directory, when durability is on.
    pub data_dir: Option<TempDir>,
}

/// A directory under `benchmark/out/` removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, uniquely named directory under [`out_dir`].
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join(format!(
            "tmp-{}-{label}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out/`: next to this package's manifest, wherever the
/// checkout lives.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

/// `handler` itself, or under tracing a recorder around it (returned a
/// second time, typed, so its spans can be collected).
fn recorded(
    handler: Arc<dyn Handler>,
    clock: &Option<Arc<TraceClock>>,
) -> (Arc<dyn Handler>, Option<Arc<TracedHandler>>) {
    match clock {
        Some(clock) => {
            let t = TracedHandler::new(handler, clock);
            (t.clone(), Some(t))
        }
        None => (handler, None),
    }
}

fn any_port() -> SocketAddr {
    "127.0.0.1:0".parse().expect("literal address")
}

impl Stack {
    /// Spawns a stack. With `traced`, the handlers and the ship link are
    /// wrapped in the trace recorders.
    ///
    /// # Errors
    ///
    /// I/O errors binding sockets or creating the data directory.
    pub fn spawn(durable: bool, with_backup: bool, traced: bool) -> Result<Stack, String> {
        // Threads inherit the placement of the thread that spawns them:
        // everything spawned below lands on the server's CPU, and the
        // caller (who spawns the generators) goes back to the clients'.
        // On a host without a second CPU nothing is pinned.
        let split = affinity::pin_current_thread(SERVER_CPU);
        let stack = Stack::spawn_here(durable, with_backup, traced);
        if split {
            affinity::pin_current_thread(CLIENT_CPU);
        }
        stack
    }

    fn spawn_here(durable: bool, with_backup: bool, traced: bool) -> Result<Stack, String> {
        let err = |e: &dyn std::fmt::Display| format!("stack spawn: {e}");
        let clock = traced.then(TraceClock::new);
        let data_dir = if durable {
            Some(TempDir::new("data").map_err(|e| err(&e))?)
        } else {
            None
        };
        let server = match &data_dir {
            Some(dir) => {
                Server::with_durability(dir.path().to_path_buf(), durable_options())
                    .map_err(|e| err(&e))?
                    .0
            }
            None => Server::new(),
        };
        let registry = server.registry().clone();
        let primary = Arc::new(Primary::new(server));
        let (handler, primary_trace) = recorded(primary.clone(), &clock);
        let net = NetServer::spawn_with(any_port(), handler, net_options(), &registry)
            .map_err(|e| err(&e))?;

        let mut backup = None;
        let mut backup_trace = None;
        if with_backup {
            let full = Primary::new(Server::new());
            let bserver = full.server().clone();
            let bregistry = bserver.registry().clone();
            let face: Arc<dyn Handler> = Arc::new(Backup::promotable(
                Arc::new(full),
                bserver.clone(),
                Some(net.addr().to_string()),
            ));
            let (bhandler, recorder) = recorded(face, &clock);
            backup_trace = recorder;
            let bnet = NetServer::spawn_with(any_port(), bhandler, net_options(), &bregistry)
                .map_err(|e| err(&e))?;
            backup = Some(BackupNode {
                server: bserver,
                net: bnet,
            });
        }
        let trace = clock.map(|clock| StackTrace {
            clock,
            primary: primary_trace.expect("traced primary"),
            backup: backup_trace,
            ship: None,
        });
        Ok(Stack {
            net,
            trace,
            primary,
            backup,
            data_dir,
        })
    }

    /// Attaches the backup node to the primary over a fresh loopback
    /// connection (the ship link) and waits for the attach-time full sync
    /// of every existing segment.
    ///
    /// # Errors
    ///
    /// Connection failure.
    pub fn attach_backup(&mut self) -> Result<(), String> {
        let Some(addr) = self.backup.as_ref().map(|b| b.net.addr()) else {
            return Ok(());
        };
        let mut link: Box<dyn Transport> =
            Box::new(TcpTransport::connect(addr).map_err(|e| format!("ship link: {e}"))?);
        if let Some(t) = &mut self.trace {
            let sink = ClientSink::new(&t.clock);
            t.ship = Some(sink.clone());
            link = Box::new(TracedTransport::new(link, sink));
        }
        self.primary.add_backup(link);
        self.primary.drain();
        Ok(())
    }

    /// The primary's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.net.addr()
    }

    /// Connects one client session (one TCP connection) on `arch`. Under
    /// tracing the connection is wrapped and its span sink returned.
    ///
    /// # Errors
    ///
    /// Connection or handshake failure.
    pub fn session(&self, arch: MachineArch) -> Result<(Session, Option<Arc<ClientSink>>), String> {
        let tcp: Box<dyn Transport> =
            Box::new(TcpTransport::connect(self.addr()).map_err(|e| format!("connect: {e}"))?);
        let (transport, sink) = match &self.trace {
            Some(t) => {
                let sink = ClientSink::new(&t.clock);
                let wrapped: Box<dyn Transport> = Box::new(TracedTransport::new(tcp, sink.clone()));
                (wrapped, Some(sink))
            }
            None => (tcp, None),
        };
        let session = Session::new(arch, transport).map_err(|e| format!("hello: {e}"))?;
        Ok((session, sink))
    }
}
