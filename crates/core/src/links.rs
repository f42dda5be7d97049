//! Every connection a [`Session`] holds, and the only code in the client
//! library that talks to a transport.
//!
//! In the paper each segment is served by the server its URL names
//! (§2.1), and the client caches one connection per segment-table entry.
//! Here a session keeps one link per segment-URL host in one table; the
//! server the session was created with is the table's fallback entry,
//! serving every host without an entry of its own. A link may carry an
//! ordered replica group it fails over across and a pool of read replicas
//! relaxed reads may be served from.
//!
//! Connecting is one `dial`: bind the session registry, say `Hello`, and
//! optionally retire an earlier client id with `Goodbye`. Waiting is one
//! [`Backoff`]. Nothing here reads segment state: the session decides what
//! each request is and what each reply means (the lock protocol, failover
//! reconciliation, replica-read floors) and reaches a server only through
//! [`Links::call`] and [`Links::read_replica`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use iw_proto::msg::{Reply, Request};
use iw_proto::{ProtoError, TcpTransport, Transport, TransportStats};
use iw_telemetry::{Counter, Gauge, Registry};
use iw_types::arch::MachineArch;

use crate::error::CoreError;
use crate::session::Session;

/// Reconnects to one replica of a server group (`Ok` = a fresh, unused
/// transport). Called again on every failover attempt.
pub type Connector = Box<dyn FnMut() -> Result<Box<dyn Transport>, CoreError> + Send>;

/// One connection to a server: the transport and the client id the
/// server assigned. A link in the host table may also carry a replica
/// group it fails over across and a read-replica pool; a read replica's
/// own link carries neither.
struct Link {
    transport: Box<dyn Transport>,
    client: u64,
    /// Ordered replica group (primary first). Empty for plain links (the
    /// fallback and [`Session::add_server`] ones), which never fail over.
    group: Vec<Connector>,
    /// Index into `group` of the replica `transport` talks to.
    active: usize,
    /// Read replicas relaxed-coherence reads may be served from.
    pool: Vec<ReadReplica>,
    /// Backup addresses the primary advertised in its last
    /// `Welcome`/`Frontier` reply (TCP groups; used to discover — and,
    /// when the primary prunes a dead backup, evict — read replicas).
    advertised: Vec<String>,
    /// Deterministic rotation state for replica selection.
    rr_seed: u64,
}

/// One read replica of a server group: relaxed-coherence reads may be
/// served from it when its version satisfies the session's coherence
/// predicate (see [`iw_proto::Coherence::replica_floor`]). Connected
/// lazily on first use; a channel error marks it dead until the next
/// failover resets the pool.
struct ReadReplica {
    /// Display label (the dial address for TCP replicas).
    label: String,
    connector: Connector,
    link: Option<Link>,
    /// Last version this replica was seen to hold, per segment (from
    /// `NotFresh` refusals and served reads), paired with the client's
    /// `best_known` frontier at the time of the observation. The
    /// observation is *staleness evidence* only while the frontier
    /// hasn't advanced past it — the replica follows the ship stream,
    /// so an older refusal says nothing about where it is now. Missing
    /// or outdated entries are treated optimistically: the server-side
    /// floor check keeps a wrong guess safe, it just costs the round
    /// trip.
    known: HashMap<String, (u64, u64)>,
    /// Replicas auto-discovered from the primary's advertised set are
    /// evicted when the primary stops advertising them; explicitly
    /// registered ones are kept.
    from_advert: bool,
    dead: bool,
    /// `cluster.replica_lag.<label>` — how far this replica trails the
    /// client's confirmed frontier, in versions.
    lag: Arc<Gauge>,
}

impl ReadReplica {
    fn new(label: String, connector: Connector, from_advert: bool, reg: &Registry) -> Self {
        let lag = reg.gauge(&format!("cluster.replica_lag.{label}"));
        ReadReplica {
            label,
            connector,
            link: None,
            known: HashMap::new(),
            from_advert,
            dead: false,
            lag,
        }
    }
}

/// Connects to one server: binds the session `registry` (so every link's
/// traffic lands in one scrape), says `Hello` with `info`, and, when
/// `retire` names an earlier client id, sends `Goodbye` for it on the new
/// connection. The link remembers the replicas its server advertises.
fn dial(
    mut transport: Box<dyn Transport>,
    registry: &Arc<Registry>,
    info: String,
    retire: Option<u64>,
) -> Result<Link, CoreError> {
    transport.bind_registry(registry);
    let (client, advertised) = match transport.request(&Request::Hello { info })? {
        Reply::Welcome { client, replicas } => (client, replicas),
        other => return Err(CoreError::unexpected(other)),
    };
    if let Some(old) = retire {
        transport.request(&Request::Goodbye { client: old })?;
    }
    Ok(Link {
        transport,
        client,
        group: Vec::new(),
        active: 0,
        pool: Vec::new(),
        advertised,
        rr_seed: 0x9E37_79B9u64 ^ client,
    })
}

/// Builds a [`Connector`] that dials `addr` over TCP.
fn tcp_connector(addr: SocketAddr) -> Connector {
    Box::new(move || {
        let t = TcpTransport::connect(addr)
            .map_err(|e| CoreError::Proto(ProtoError::Channel(e.to_string())))?;
        Ok(Box::new(t) as Box<dyn Transport>)
    })
}

/// The host component of a segment name (everything before the first
/// slash).
pub(crate) fn host_of(segment: &str) -> &str {
    segment.split('/').next().unwrap_or("")
}

fn no_group(host: &str) -> CoreError {
    CoreError::Server(format!("no server group for `{host}`"))
}

/// Every connection of one session: the host table and its fallback.
pub(crate) struct Links {
    registry: Arc<Registry>,
    /// `interweave-rs client on <arch>`, the plain `Hello` info string.
    /// Failover and replica-read connections append a marker to it;
    /// `Server::hello` counts failovers by the `failover` one.
    hello: String,
    hosts: HashMap<String, Link>,
    fallback: Link,
    /// `cluster.replica_not_fresh_total` — replica polls refused with
    /// `NotFresh` (the replica's version was below the requested floor).
    not_fresh: Arc<Counter>,
}

impl Links {
    /// Dials the session's first server, which becomes the fallback link.
    pub fn new(
        transport: Box<dyn Transport>,
        registry: &Arc<Registry>,
        arch: &MachineArch,
    ) -> Result<Links, CoreError> {
        let hello = format!("interweave-rs client on {arch}");
        Ok(Links {
            fallback: dial(transport, registry, hello.clone(), None)?,
            registry: Arc::clone(registry),
            hello,
            hosts: HashMap::new(),
            not_fresh: registry.counter("cluster.replica_not_fresh_total"),
        })
    }

    /// The client id the fallback server assigned.
    pub fn client_id(&self) -> u64 {
        self.fallback.client
    }

    /// Sends one request to the server responsible for `segment`, built
    /// by `make` from the client id that server assigned.
    pub fn call(
        &mut self,
        segment: &str,
        make: impl FnOnce(u64) -> Request,
    ) -> Result<Reply, ProtoError> {
        let link = self
            .hosts
            .get_mut(host_of(segment))
            .unwrap_or(&mut self.fallback);
        link.transport.request(&make(link.client))
    }

    /// Whether `segment` is served by a replica group, which fails over
    /// on a channel error.
    pub fn fails_over(&self, segment: &str) -> bool {
        self.hosts
            .get(host_of(segment))
            .is_some_and(|l| l.group.len() > 1)
    }

    /// Moves `host`'s replica group to the next replica that answers.
    /// Cycles through the group for up to `rounds` rounds, sleeping on a
    /// [`Backoff`] from `backoff_ms` between rounds, and says a
    /// failover-marked `Hello`. The old client id is retired on the new
    /// connection before it is trusted: the "dead" server may only have
    /// been unreachable for a moment, and if this connection landed on
    /// the same still-alive server, locks held under the old id would
    /// stay orphaned forever. A genuinely new replica never saw the id
    /// and replies trivially; one that cannot deliver the retirement
    /// counts as unreachable. The read-replica pool was built against the
    /// old primary's world, so connections, dead flags and version
    /// knowledge are dropped and it re-proves itself against the new
    /// primary's chain.
    pub fn reconnect(&mut self, host: &str, rounds: u32, backoff_ms: u64) -> Result<(), CoreError> {
        let link = self.hosts.get_mut(host).ok_or_else(|| no_group(host))?;
        let seed = 0x9E37_79B9u64 ^ ((link.active as u64) << 32) ^ host.len() as u64;
        let mut backoff = Backoff::new(backoff_ms.saturating_mul(1000), u64::MAX, seed);
        for round in 0..rounds.max(1) {
            if round > 0 {
                backoff.sleep();
            }
            for step in 1..=link.group.len() {
                let idx = (link.active + step) % link.group.len();
                let info = format!("{} (failover)", self.hello);
                let retire = Some(link.client);
                let Ok(fresh) =
                    (link.group[idx])().and_then(|t| dial(t, &self.registry, info, retire))
                else {
                    continue;
                };
                link.transport = fresh.transport;
                link.client = fresh.client;
                link.active = idx;
                for rep in &mut link.pool {
                    rep.link = None;
                    rep.known.clear();
                    rep.dead = false;
                }
                return Ok(());
            }
        }
        Err(CoreError::Server(format!(
            "failover: no replica for `{host}` is reachable"
        )))
    }

    /// Whether `segment`'s link has a read-replica pool.
    pub fn has_replicas(&self, segment: &str) -> bool {
        self.hosts
            .get(host_of(segment))
            .is_some_and(|l| !l.pool.is_empty())
    }

    /// Serves a relaxed read of `segment` from its link's read-replica
    /// pool: tries the replicas in rotation from a jittered start (so a
    /// fleet doesn't hammer one backup), dialing each lazily, and sends
    /// it `make(client id)`. Skipped without a round trip: dead replicas,
    /// and those whose recorded version `eligible` rules out while that
    /// evidence is current (recorded at a frontier at or above
    /// `best_known`). Records each `NotFresh` refusal and the version a
    /// serving replica holds (`have`, or the update's target). `None`
    /// when no replica served.
    pub fn read_replica(
        &mut self,
        segment: &str,
        have: u64,
        best_known: u64,
        eligible: impl Fn(u64) -> bool,
        make: impl Fn(u64) -> Request,
    ) -> Option<Reply> {
        let link = self.hosts.get_mut(host_of(segment))?;
        let n = link.pool.len();
        if n == 0 {
            return None;
        }
        let start = (splitmix64(&mut link.rr_seed) as usize) % n;
        for step in 0..n {
            let rep = &mut link.pool[(start + step) % n];
            let known_stale = rep
                .known
                .get(segment)
                .is_some_and(|&(kv, seen_at)| seen_at >= best_known && !eligible(kv));
            if rep.dead || known_stale {
                continue;
            }
            if rep.link.is_none() {
                let info = format!("{} (replica-read)", self.hello);
                rep.link = (rep.connector)()
                    .and_then(|t| dial(t, &self.registry, info, None))
                    .ok();
            }
            let Some(conn) = rep.link.as_mut() else {
                rep.dead = true;
                continue;
            };
            let Ok(reply) = conn.transport.request(&make(conn.client)) else {
                rep.dead = true;
                rep.link = None;
                continue;
            };
            let (version, served) = match &reply {
                Reply::NotFresh { version } => (*version, false),
                Reply::UpToDate => (have, true),
                Reply::Update { diff } => (diff.to_version, true),
                // NotPrimary, Error, …: this node cannot serve the read;
                // leave it alone and try the next one.
                _ => continue,
            };
            rep.lag.set(best_known.saturating_sub(version) as i64);
            if !served {
                rep.known.insert(segment.to_string(), (version, best_known));
                self.not_fresh.inc();
                continue;
            }
            let known = rep.known.entry(segment.to_string()).or_insert((0, 0));
            *known = (known.0.max(version), known.1.max(best_known));
            return Some(reply);
        }
        None
    }

    /// Reconciles `host`'s auto-discovered read-replica pool with the
    /// primary's currently advertised backup set: newly advertised
    /// addresses are added, and auto-discovered replicas the primary no
    /// longer advertises (pruned dead backups) are evicted. Explicitly
    /// registered replicas are never evicted.
    pub fn sync_advertised(&mut self, host: &str, advertised: Vec<String>) {
        let Some(link) = self.hosts.get_mut(host) else {
            return;
        };
        link.pool
            .retain(|r| !r.from_advert || advertised.contains(&r.label));
        for addr in &advertised {
            let known = link.pool.iter().any(|r| &r.label == addr);
            if let (false, Ok(sockaddr)) = (known, addr.parse()) {
                let rep =
                    ReadReplica::new(addr.clone(), tcp_connector(sockaddr), true, &self.registry);
                link.pool.push(rep);
            }
        }
        link.advertised = advertised;
    }
}

impl Session {
    /// Traffic counters over every link the session holds: each link's
    /// transport is bound into the session registry (see
    /// [`Session::registry`]), whose `proto.*` totals these are.
    pub fn transport_stats(&self) -> TransportStats {
        let total = |name: &str| self.registry().counter(name).get();
        TransportStats {
            bytes_sent: total("proto.bytes_sent_total"),
            bytes_received: total("proto.bytes_received_total"),
            requests: total("proto.requests_total"),
        }
    }

    /// Resets the traffic counters of every link, read replicas included.
    pub fn reset_transport_stats(&mut self) {
        let links = &mut self.links;
        for link in std::iter::once(&mut links.fallback).chain(links.hosts.values_mut()) {
            link.transport.reset_stats();
            for rep in link.pool.iter_mut().filter_map(|r| r.link.as_mut()) {
                rep.transport.reset_stats();
            }
        }
    }

    /// Registers a connection to the server responsible for segments
    /// whose URL host is `host` (e.g. `"data.example.org"` for segments
    /// named `data.example.org/…`). Performs the Hello handshake.
    /// Segments with unregistered hosts use the session's default
    /// transport.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors from the handshake.
    pub fn add_server(
        &mut self,
        host: &str,
        transport: Box<dyn Transport>,
    ) -> Result<(), CoreError> {
        let link = dial(
            transport,
            &self.links.registry,
            self.links.hello.clone(),
            None,
        )?;
        self.links.hosts.insert(host.to_string(), link);
        Ok(())
    }

    /// Registers a replica *group* (primary first, then ordered backups)
    /// for segments whose URL host is `host`. The session connects to
    /// the first reachable replica; when a request later fails with a
    /// transport error, it transparently reconnects to the next replica,
    /// re-issues `Hello`/`Open`, reconciles cached versions, and retries
    /// — except for in-flight write releases and commits, which surface
    /// as [`CoreError::LockLost`] (the lock died with the old primary).
    ///
    /// # Errors
    ///
    /// [`CoreError::Server`] when no replica is reachable.
    pub fn add_server_group(
        &mut self,
        host: &str,
        mut connectors: Vec<Connector>,
    ) -> Result<(), CoreError> {
        let links = &mut self.links;
        for idx in 0..connectors.len() {
            let hello = links.hello.clone();
            let Ok(mut link) =
                connectors[idx]().and_then(|t| dial(t, &links.registry, hello, None))
            else {
                continue;
            };
            link.group = connectors;
            link.active = idx;
            links.hosts.insert(host.to_string(), link);
            return Ok(());
        }
        Err(CoreError::Server(format!(
            "no replica for `{host}` is reachable"
        )))
    }

    /// As [`Session::add_server_group`] for TCP replicas given by socket
    /// address. Backup addresses the primary advertises in its `Welcome`
    /// reply are automatically registered as read replicas (see
    /// [`Session::add_read_replicas`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::Server`] when no replica is reachable.
    pub fn add_tcp_server_group(
        &mut self,
        host: &str,
        addrs: &[SocketAddr],
    ) -> Result<(), CoreError> {
        self.add_server_group(host, addrs.iter().map(|&a| tcp_connector(a)).collect())?;
        let advertised = self.links.hosts[host].advertised.clone();
        self.links.sync_advertised(host, advertised);
        Ok(())
    }

    /// Registers read replicas for `host`'s server group: relaxed-
    /// coherence read acquisitions (`rl_acquire` under `Delta`,
    /// `Temporal` or `Diff` coherence with a non-zero bound) may be
    /// served from any of them whose version satisfies the coherence
    /// predicate, falling back to the primary otherwise. The write path
    /// is unaffected. Replicas are dialed lazily on first use.
    ///
    /// # Errors
    ///
    /// [`CoreError::Server`] when `host` has no registered server group.
    pub fn add_read_replicas(
        &mut self,
        host: &str,
        connectors: Vec<Connector>,
    ) -> Result<(), CoreError> {
        let link = self
            .links
            .hosts
            .get_mut(host)
            .ok_or_else(|| no_group(host))?;
        for connector in connectors {
            let label = format!("{host}.r{}", link.pool.len());
            let rep = ReadReplica::new(label, connector, false, &self.links.registry);
            link.pool.push(rep);
        }
        Ok(())
    }

    /// As [`Session::add_read_replicas`] for TCP replicas given by
    /// socket address.
    ///
    /// # Errors
    ///
    /// [`CoreError::Server`] when `host` has no registered server group.
    pub fn add_tcp_read_replicas(
        &mut self,
        host: &str,
        addrs: &[SocketAddr],
    ) -> Result<(), CoreError> {
        let link = self
            .links
            .hosts
            .get_mut(host)
            .ok_or_else(|| no_group(host))?;
        for &addr in addrs {
            let label = addr.to_string();
            if !link.pool.iter().any(|r| r.label == label) {
                let rep = ReadReplica::new(label, tcp_connector(addr), false, &self.links.registry);
                link.pool.push(rep);
            }
        }
        Ok(())
    }

    /// Labels of the read replicas currently registered for `host`'s
    /// server group, in rotation order (tests and fan-out harnesses).
    pub fn read_replica_labels(&self, host: &str) -> Vec<String> {
        self.links.hosts.get(host).map_or_else(Vec::new, |l| {
            l.pool.iter().map(|r| r.label.clone()).collect()
        })
    }
}

/// A capped, doubling sleep schedule with deterministic jitter: the
/// doubling bounds total wait under long contention, the jitter
/// de-synchronizes clients that backed off at the same moment, and the
/// seed (no clock or OS entropy) keeps runs reproducible.
pub(crate) struct Backoff {
    step_us: u64,
    cap_us: u64,
    seed: u64,
}

impl Backoff {
    /// Starts at `start_us` (at least 1 µs) and doubles up to `cap_us`
    /// (at least the start).
    pub fn new(start_us: u64, cap_us: u64, seed: u64) -> Self {
        let step_us = start_us.max(1);
        Backoff {
            step_us,
            cap_us: cap_us.max(step_us),
            seed,
        }
    }

    /// The next sleep: the current step plus a jitter of at most half a
    /// step. The step then doubles, up to the cap.
    pub fn next_us(&mut self) -> u64 {
        let jitter = splitmix64(&mut self.seed) % (self.step_us / 2 + 1);
        let sleep = self.step_us + jitter;
        self.step_us = self.step_us.saturating_mul(2).min(self.cap_us);
        sleep
    }

    /// Sleeps for [`Backoff::next_us`].
    pub fn sleep(&mut self) {
        std::thread::sleep(Duration::from_micros(self.next_us()));
    }
}

/// SplitMix64 step: cheap deterministic jitter for backoff schedules
/// and replica rotation (no OS entropy, so contention tests stay
/// reproducible).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(start_us: u64, cap_us: u64, seed: u64, n: usize) -> Vec<u64> {
        let mut b = Backoff::new(start_us, cap_us, seed);
        (0..n).map(|_| b.next_us()).collect()
    }

    #[test]
    fn backoff_doubles_to_its_cap_with_bounded_seeded_jitter() {
        // The busy-lock schedule: sleep step + splitmix64 % (step/2 + 1),
        // then double the step up to the cap.
        let (start, cap, seed) = (100, 1_000, 0x5EED);
        let mut state = seed;
        let mut step = start;
        for got in schedule(start, cap, seed, 8) {
            assert_eq!(got, step + splitmix64(&mut state) % (step / 2 + 1));
            assert!(
                got >= step && got - step <= step / 2,
                "{got} vs step {step}"
            );
            step = (step * 2).min(cap);
        }
        assert_eq!(step, cap, "eight steps from 100 µs reach a 1 ms cap");
        assert_eq!(
            schedule(start, cap, seed, 6),
            [128, 216, 453, 1_031, 1_162, 1_173],
            "pinned: same seed, same sequence"
        );
        assert_ne!(
            schedule(start, cap, seed, 6),
            schedule(start, cap, seed + 1, 6)
        );
    }

    #[test]
    fn backoff_clamps_a_zero_start_and_a_cap_below_it() {
        // 0 µs would spin; a cap below the start would shrink the step.
        assert!(schedule(0, 0, 7, 4).iter().all(|&us| us == 1));
        assert!(schedule(500, 10, 7, 4)
            .iter()
            .all(|&us| (500..=750).contains(&us)));
        // The failover schedule has no cap: it keeps doubling.
        let uncapped = schedule(1_000, u64::MAX, 7, 4);
        assert!(uncapped[3] >= 8_000 && uncapped[3] <= 12_000);
    }
}
