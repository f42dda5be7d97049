//! Protocol messages between InterWeave clients and servers.
//!
//! The protocol is request/reply. A client first sends [`Request::Hello`]
//! to obtain a client id (servers keep per-client state for Diff coherence
//! and lock bookkeeping), then opens segments and acquires/releases locks.
//! Lock acquisition piggybacks the coherence check and, when the cached
//! copy is not recent enough, the wire diff that brings it up to date —
//! one round trip does it all, as in the paper.
//!
//! Lock grants are non-blocking at the protocol level: a busy lock yields
//! [`Reply::Busy`] and the client library retries, so a single transport
//! thread can never deadlock behind a queued lock.
//!
//! Every embedded diff is encoded in the one link format
//! ([`SegmentDiff::encode`]), and a diff in any other format fails the
//! message's decode, so no capability is negotiated. Decoders ignore
//! trailing bytes: older clients still append a capability byte to
//! their `Hello`, and a trace id may ride there later.

use bytes::Bytes;

use iw_telemetry::{HistogramSnapshot, Snapshot};
use iw_wire::codec::{WireError, WireReader, WireWriter};
use iw_wire::diff::SegmentDiff;

use crate::caps::PeerCaps;
use crate::coherence::Coherence;

/// Lock mode requested by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared reader lock.
    Read,
    /// Exclusive writer lock.
    Write,
}

/// A client→server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Introduces a client; the reply carries its id.
    Hello {
        /// Human-readable client description (architecture name etc.),
        /// for diagnostics.
        info: String,
    },
    /// Opens (or creates) a segment.
    Open {
        /// Requesting client.
        client: u64,
        /// Segment name (`host/path`).
        segment: String,
    },
    /// Acquires a lock, piggybacking the coherence check.
    Acquire {
        /// Requesting client.
        client: u64,
        /// Segment name.
        segment: String,
        /// Read or write.
        mode: LockMode,
        /// Version of the client's cached copy (0 = nothing cached).
        have_version: u64,
        /// Coherence requirement for read locks.
        coherence: Coherence,
    },
    /// Releases a lock; write releases carry the update diff.
    Release {
        /// Requesting client.
        client: u64,
        /// Segment name.
        segment: String,
        /// `Some(diff)` for a write release that modified the segment.
        diff: Option<SegmentDiff>,
    },
    /// Atomically commits write-lock releases for several segments
    /// (transaction support — the paper's §6 future work). The server
    /// checks every entry in full (writer lock held, segment named once,
    /// every diff well formed against its current version) before it
    /// logs or applies any of them.
    Commit {
        /// Requesting client.
        client: u64,
        /// `(segment, diff)` pairs; a `None` diff releases the lock with
        /// no changes.
        entries: Vec<(String, Option<SegmentDiff>)>,
    },
    /// Read-only fetch of an update without locking (used by the
    /// adaptive polling path, and by replica reads).
    Poll {
        /// Requesting client.
        client: u64,
        /// Segment name.
        segment: String,
        /// Version of the client's cached copy.
        have_version: u64,
        /// Coherence requirement.
        coherence: Coherence,
        /// Minimum segment version the answering server must have
        /// reached to serve this poll; a server that is behind answers
        /// [`Reply::NotFresh`] instead of silently serving stale data.
        /// `0` (no floor) is what polls to the primary use — the primary
        /// is by definition current. Replica reads set it to the
        /// coherence predicate's floor (see
        /// `Coherence::replica_floor`), making the staleness bound a
        /// per-request server-side check rather than a client guess.
        floor: u64,
    },
    /// Fetches the server's metrics snapshot (used by `iwstat`).
    Stats {
        /// Requesting client.
        client: u64,
    },
    /// Primary→backup (cluster replication): apply one committed
    /// write-release diff through the backup's normal version chain.
    Replicate {
        /// Segment name.
        segment: String,
        /// The version the diff starts from. Duplicates
        /// `diff.from_version` so a backup can refuse a stale or
        /// inconsistent stream without touching the payload.
        from_version: u64,
        /// The committed diff, exactly as the writer shipped it.
        diff: SegmentDiff,
    },
    /// Primary→backup (cluster replication): install a full segment
    /// image — the catch-up path for backups that join late or fall
    /// behind the diff stream.
    SyncFull {
        /// Segment name.
        segment: String,
        /// Checkpoint-encoded segment image (see
        /// `iw-server::checkpoint`), machine-independent like every
        /// other payload.
        image: Bytes,
    },
    /// Backup→primary (cluster replication): register the sender's
    /// listen address so the primary streams diffs to it.
    AttachBackup {
        /// Address the primary should connect back to.
        addr: String,
    },
    /// Retires a client id: releases every lock it holds and drops its
    /// per-client coherence state. A client that failed over sends this
    /// best-effort with its *old* id — when the "dead" replica was in
    /// fact alive (a transient transport fault), the locks orphaned
    /// under the old id must not outlive the reconnect. A server that
    /// never saw the id treats this as a no-op.
    Goodbye {
        /// The client id to retire.
        client: u64,
    },
    /// Cheap version probe: asks a server for its per-segment version
    /// frontier (no diff payload). Clients use it against the primary to
    /// refresh `best_known` (the Temporal staleness anchor) and against
    /// replicas to refresh routing tables; the primary's reply also
    /// re-advertises the live replica set.
    Frontier {
        /// Requesting client.
        client: u64,
    },
}

impl Request {
    /// Short lowercase names of every request kind, indexed by
    /// [`Request::kind_index`] (used for per-kind transport counters).
    pub const KINDS: [&'static str; 12] = [
        "hello",
        "open",
        "acquire",
        "release",
        "poll",
        "commit",
        "stats",
        "replicate",
        "syncfull",
        "attach",
        "goodbye",
        "frontier",
    ];

    /// Index of this request's kind in [`Request::KINDS`].
    pub fn kind_index(&self) -> usize {
        match self {
            Request::Hello { .. } => 0,
            Request::Open { .. } => 1,
            Request::Acquire { .. } => 2,
            Request::Release { .. } => 3,
            Request::Poll { .. } => 4,
            Request::Commit { .. } => 5,
            Request::Stats { .. } => 6,
            Request::Replicate { .. } => 7,
            Request::SyncFull { .. } => 8,
            Request::AttachBackup { .. } => 9,
            Request::Goodbye { .. } => 10,
            Request::Frontier { .. } => 11,
        }
    }

    /// Short lowercase name of this request's kind.
    pub fn kind(&self) -> &'static str {
        Request::KINDS[self.kind_index()]
    }
}

/// A server→client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Reply to [`Request::Hello`].
    Welcome {
        /// The id the client must present in subsequent requests.
        client: u64,
        /// Addresses of the live read replicas this server advertises
        /// (cluster primaries only; empty elsewhere). Clients may route
        /// relaxed-coherence reads to these; a pruned backup disappears
        /// from the list, so clients stop routing to it without waiting
        /// for a connect timeout.
        replicas: Vec<String>,
    },
    /// Reply to [`Request::Open`].
    Opened {
        /// Current version of the segment (0 for a fresh segment).
        version: u64,
    },
    /// Lock granted.
    Granted {
        /// Segment version after any piggybacked update.
        version: u64,
        /// Update diff when the cached copy was not recent enough
        /// (`None` = recent enough, keep using it).
        update: Option<SegmentDiff>,
        /// For write locks: the serial the client must use for its next
        /// new block (serials are segment-global).
        next_serial: u32,
        /// For write locks: the serial for the next new type descriptor.
        next_type_serial: u32,
    },
    /// The lock is held incompatibly; retry later.
    Busy,
    /// Reply to [`Request::Release`].
    Released {
        /// The segment version after the release.
        version: u64,
    },
    /// Reply to [`Request::Commit`]: per-entry post-commit versions.
    Committed {
        /// Segment versions in entry order.
        versions: Vec<u64>,
    },
    /// Reply to [`Request::Poll`]: the cached copy is recent enough.
    UpToDate,
    /// Reply to [`Request::Poll`]: an update is needed and included.
    Update {
        /// The update diff.
        diff: SegmentDiff,
    },
    /// Reply to [`Request::Stats`]: the server's metrics snapshot.
    Stats {
        /// Every counter, gauge and histogram the server exposes.
        snapshot: Snapshot,
    },
    /// Reply to [`Request::Replicate`], [`Request::SyncFull`], and
    /// [`Request::AttachBackup`]: the replica's segment version after the
    /// operation (0 for an attach, which names no segment).
    Replicated {
        /// The backup's version of the segment after applying.
        acked_version: u64,
    },
    /// The request failed.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The server is at its connection cap and refused this session
    /// (admission control). Unlike [`Reply::Busy`] — a per-lock,
    /// retry-soon condition — `Overloaded` means the whole front end
    /// declined the connection; the server closes it after this reply.
    Overloaded,
    /// A write-path request (write acquire, release-with-diff, commit)
    /// landed on a read replica. The write path never touches backups —
    /// the client must redirect to the primary.
    NotPrimary {
        /// The primary's address, when the replica knows it.
        primary: Option<String>,
    },
    /// Reply to [`Request::Poll`] with a nonzero `floor`: this server's
    /// copy is behind the floor and may not serve the read. Carries the
    /// server's current version so the client refreshes its routing
    /// frontier for free.
    NotFresh {
        /// The answering server's current version of the segment.
        version: u64,
    },
    /// Reply to [`Request::Frontier`].
    Frontier {
        /// Every segment the server holds, with its current version.
        segments: Vec<(String, u64)>,
        /// Live advertised read replicas (primaries only; see
        /// [`Reply::Welcome`]).
        replicas: Vec<String>,
    },
}

impl Request {
    /// Serializes the request into framed wire bytes.
    pub fn encode(&self) -> Bytes {
        // Encode the carried diffs first (a received diff hands back the
        // bytes it arrived in) and pre-size the writer from their exact
        // lengths, so serializing a large diff or image never regrows
        // the buffer; control messages stay on the default small
        // allocation.
        let diffs: Vec<Bytes> = match self {
            Request::Release { diff: Some(d), .. } => vec![d.encode()],
            Request::Commit { entries, .. } => entries
                .iter()
                .filter_map(|(_, d)| d.as_ref().map(SegmentDiff::encode))
                .collect(),
            Request::Replicate { diff, .. } => vec![diff.encode()],
            _ => Vec::new(),
        };
        let cap = match self {
            Request::Release { segment, .. } | Request::Replicate { segment, .. } => {
                64 + segment.len()
            }
            Request::Commit { entries, .. } => {
                64 + entries.iter().map(|(s, _)| 16 + s.len()).sum::<usize>()
            }
            Request::SyncFull { segment, image } => 64 + segment.len() + image.len(),
            _ => 0,
        } + diffs.iter().map(Bytes::len).sum::<usize>();
        let mut diffs = diffs.into_iter();
        let mut w = if cap > 0 {
            WireWriter::with_capacity(cap)
        } else {
            WireWriter::new()
        };
        match self {
            Request::Hello { info } => {
                w.put_u8(0);
                w.put_str(info);
            }
            Request::Open { client, segment } => {
                w.put_u8(1);
                w.put_u64(*client);
                w.put_str(segment);
            }
            Request::Acquire {
                client,
                segment,
                mode,
                have_version,
                coherence,
            } => {
                w.put_u8(2);
                w.put_u64(*client);
                w.put_str(segment);
                w.put_u8(match mode {
                    LockMode::Read => 0,
                    LockMode::Write => 1,
                });
                w.put_u64(*have_version);
                coherence.encode(&mut w);
            }
            Request::Release {
                client,
                segment,
                diff,
            } => {
                w.put_u8(3);
                w.put_u64(*client);
                w.put_str(segment);
                match diff {
                    None => w.put_u8(0),
                    Some(_) => {
                        w.put_u8(1);
                        w.put_len_bytes(&diffs.next().expect("encoded above"));
                    }
                }
            }
            Request::Commit { client, entries } => {
                w.put_u8(5);
                w.put_u64(*client);
                w.put_u32(entries.len() as u32);
                for (segment, diff) in entries {
                    w.put_str(segment);
                    match diff {
                        None => w.put_u8(0),
                        Some(_) => {
                            w.put_u8(1);
                            w.put_len_bytes(&diffs.next().expect("encoded above"));
                        }
                    }
                }
            }
            Request::Poll {
                client,
                segment,
                have_version,
                coherence,
                floor,
            } => {
                w.put_u8(4);
                w.put_u64(*client);
                w.put_str(segment);
                w.put_u64(*have_version);
                coherence.encode(&mut w);
                w.put_u64(*floor);
            }
            Request::Stats { client } => {
                w.put_u8(6);
                w.put_u64(*client);
            }
            Request::Replicate {
                segment,
                from_version,
                ..
            } => {
                w.put_u8(7);
                w.put_str(segment);
                w.put_u64(*from_version);
                w.put_len_bytes(&diffs.next().expect("encoded above"));
            }
            Request::SyncFull { segment, image } => {
                w.put_u8(8);
                w.put_str(segment);
                w.put_len_bytes(image);
            }
            Request::AttachBackup { addr } => {
                w.put_u8(9);
                w.put_str(addr);
            }
            Request::Goodbye { client } => {
                w.put_u8(10);
                w.put_u64(*client);
            }
            Request::Frontier { client } => {
                w.put_u8(11);
                w.put_u64(*client);
            }
        }
        w.finish()
    }

    /// The session id a request acts for, when it carries one (tracing
    /// tools key per-client spans on it); replication-plane requests
    /// (`Replicate`, `SyncFull`, `AttachBackup`) and `Hello` itself
    /// have none.
    pub fn client_id(&self) -> Option<u64> {
        match self {
            Request::Open { client, .. }
            | Request::Acquire { client, .. }
            | Request::Release { client, .. }
            | Request::Commit { client, .. }
            | Request::Poll { client, .. }
            | Request::Stats { client }
            | Request::Goodbye { client }
            | Request::Frontier { client } => Some(*client),
            Request::Hello { .. }
            | Request::Replicate { .. }
            | Request::SyncFull { .. }
            | Request::AttachBackup { .. } => None,
        }
    }

    /// Decodes a request from wire bytes.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from malformed input.
    pub fn decode(bytes: Bytes) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        Ok(match r.get_u8()? {
            0 => Request::Hello { info: r.get_str()? },
            1 => Request::Open {
                client: r.get_u64()?,
                segment: r.get_str()?,
            },
            2 => {
                let client = r.get_u64()?;
                let segment = r.get_str()?;
                let mode = match r.get_u8()? {
                    0 => LockMode::Read,
                    1 => LockMode::Write,
                    tag => {
                        return Err(WireError::BadTag {
                            what: "lock mode",
                            tag,
                        })
                    }
                };
                let have_version = r.get_u64()?;
                let coherence = Coherence::decode(&mut r)?;
                Request::Acquire {
                    client,
                    segment,
                    mode,
                    have_version,
                    coherence,
                }
            }
            3 => {
                let client = r.get_u64()?;
                let segment = r.get_str()?;
                let diff = match r.get_u8()? {
                    0 => None,
                    1 => {
                        let body = r.get_len_bytes()?;
                        let mut dr = WireReader::new(body);
                        Some(SegmentDiff::decode(&mut dr)?)
                    }
                    tag => {
                        return Err(WireError::BadTag {
                            what: "release diff flag",
                            tag,
                        })
                    }
                };
                Request::Release {
                    client,
                    segment,
                    diff,
                }
            }
            4 => {
                let client = r.get_u64()?;
                let segment = r.get_str()?;
                let have_version = r.get_u64()?;
                let coherence = Coherence::decode(&mut r)?;
                let floor = r.get_u64()?;
                Request::Poll {
                    client,
                    segment,
                    have_version,
                    coherence,
                    floor,
                }
            }
            5 => {
                let client = r.get_u64()?;
                let n = r.get_u32()?;
                if n > 1 << 16 {
                    return Err(WireError::LengthOverflow { len: u64::from(n) });
                }
                let mut entries = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let segment = r.get_str()?;
                    let diff = match r.get_u8()? {
                        0 => None,
                        1 => {
                            let body = r.get_len_bytes()?;
                            let mut dr = WireReader::new(body);
                            Some(SegmentDiff::decode(&mut dr)?)
                        }
                        tag => {
                            return Err(WireError::BadTag {
                                what: "commit diff flag",
                                tag,
                            })
                        }
                    };
                    entries.push((segment, diff));
                }
                Request::Commit { client, entries }
            }
            6 => Request::Stats {
                client: r.get_u64()?,
            },
            7 => {
                let segment = r.get_str()?;
                let from_version = r.get_u64()?;
                let body = r.get_len_bytes()?;
                let mut dr = WireReader::new(body);
                Request::Replicate {
                    segment,
                    from_version,
                    diff: SegmentDiff::decode(&mut dr)?,
                }
            }
            8 => Request::SyncFull {
                segment: r.get_str()?,
                image: r.get_len_bytes()?,
            },
            9 => Request::AttachBackup { addr: r.get_str()? },
            10 => Request::Goodbye {
                client: r.get_u64()?,
            },
            11 => Request::Frontier {
                client: r.get_u64()?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "request",
                    tag,
                })
            }
        })
    }
}

// Aliases kept only because `benchmark/src/replay.rs` names them; they
// go when that benchmark is re-baselined (ROADMAP item 9(a)).
impl Request {
    #[doc(hidden)]
    pub fn encode_caps(&self, _caps: PeerCaps) -> Bytes {
        self.encode()
    }

    #[doc(hidden)]
    pub fn decode_full(bytes: Bytes) -> Result<Self, WireError> {
        Self::decode(bytes)
    }
}

impl Reply {
    /// A [`Reply::Welcome`] with no advertised replicas — what every
    /// non-clustered server answers.
    pub fn welcome(client: u64) -> Reply {
        Reply::Welcome {
            client,
            replicas: Vec::new(),
        }
    }

    /// Serializes the reply into framed wire bytes.
    pub fn encode(&self) -> Bytes {
        // As with requests: encode the diff first and pre-size from it.
        let body = match self {
            Reply::Granted {
                update: Some(d), ..
            } => Some(d.encode()),
            Reply::Update { diff } => Some(diff.encode()),
            _ => None,
        };
        let mut w = match &body {
            Some(d) => WireWriter::with_capacity(64 + d.len()),
            None => WireWriter::new(),
        };
        match self {
            Reply::Welcome { client, replicas } => {
                w.put_u8(0);
                w.put_u64(*client);
                w.put_u32(replicas.len() as u32);
                for addr in replicas {
                    w.put_str(addr);
                }
            }
            Reply::Opened { version } => {
                w.put_u8(1);
                w.put_u64(*version);
            }
            Reply::Granted {
                version,
                update,
                next_serial,
                next_type_serial,
            } => {
                w.put_u8(2);
                w.put_u64(*version);
                match update {
                    None => w.put_u8(0),
                    Some(_) => {
                        w.put_u8(1);
                        w.put_len_bytes(body.as_ref().expect("encoded above"));
                    }
                }
                w.put_u32(*next_serial);
                w.put_u32(*next_type_serial);
            }
            Reply::Busy => w.put_u8(3),
            Reply::Released { version } => {
                w.put_u8(4);
                w.put_u64(*version);
            }
            Reply::UpToDate => w.put_u8(5),
            Reply::Committed { versions } => {
                w.put_u8(8);
                w.put_u32(versions.len() as u32);
                for v in versions {
                    w.put_u64(*v);
                }
            }
            Reply::Update { .. } => {
                w.put_u8(6);
                w.put_len_bytes(body.as_ref().expect("encoded above"));
            }
            Reply::Error { message } => {
                w.put_u8(7);
                w.put_str(message);
            }
            Reply::Stats { snapshot } => {
                w.put_u8(9);
                encode_snapshot(&mut w, snapshot);
            }
            Reply::Replicated { acked_version } => {
                w.put_u8(10);
                w.put_u64(*acked_version);
            }
            Reply::Overloaded => w.put_u8(11),
            Reply::NotPrimary { primary } => {
                w.put_u8(12);
                match primary {
                    None => w.put_u8(0),
                    Some(addr) => {
                        w.put_u8(1);
                        w.put_str(addr);
                    }
                }
            }
            Reply::NotFresh { version } => {
                w.put_u8(13);
                w.put_u64(*version);
            }
            Reply::Frontier { segments, replicas } => {
                w.put_u8(14);
                w.put_u32(segments.len() as u32);
                for (name, version) in segments {
                    w.put_str(name);
                    w.put_u64(*version);
                }
                w.put_u32(replicas.len() as u32);
                for addr in replicas {
                    w.put_str(addr);
                }
            }
        }
        w.finish()
    }

    /// Decodes a reply from wire bytes.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from malformed input.
    pub fn decode(bytes: Bytes) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        Ok(match r.get_u8()? {
            0 => {
                let client = r.get_u64()?;
                let n = checked_len(r.get_u32()?)?;
                let mut replicas = Vec::with_capacity(n);
                for _ in 0..n {
                    replicas.push(r.get_str()?);
                }
                Reply::Welcome { client, replicas }
            }
            1 => Reply::Opened {
                version: r.get_u64()?,
            },
            2 => {
                let version = r.get_u64()?;
                let update = match r.get_u8()? {
                    0 => None,
                    1 => {
                        let body = r.get_len_bytes()?;
                        let mut dr = WireReader::new(body);
                        Some(SegmentDiff::decode(&mut dr)?)
                    }
                    tag => {
                        return Err(WireError::BadTag {
                            what: "grant diff flag",
                            tag,
                        })
                    }
                };
                let next_serial = r.get_u32()?;
                let next_type_serial = r.get_u32()?;
                Reply::Granted {
                    version,
                    update,
                    next_serial,
                    next_type_serial,
                }
            }
            3 => Reply::Busy,
            4 => Reply::Released {
                version: r.get_u64()?,
            },
            5 => Reply::UpToDate,
            6 => {
                let body = r.get_len_bytes()?;
                let mut dr = WireReader::new(body);
                Reply::Update {
                    diff: SegmentDiff::decode(&mut dr)?,
                }
            }
            7 => Reply::Error {
                message: r.get_str()?,
            },
            8 => {
                let n = r.get_u32()?;
                if n > 1 << 16 {
                    return Err(WireError::LengthOverflow { len: u64::from(n) });
                }
                let mut versions = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    versions.push(r.get_u64()?);
                }
                Reply::Committed { versions }
            }
            9 => Reply::Stats {
                snapshot: decode_snapshot(&mut r)?,
            },
            10 => Reply::Replicated {
                acked_version: r.get_u64()?,
            },
            11 => Reply::Overloaded,
            12 => {
                let primary = match r.get_u8()? {
                    0 => None,
                    1 => Some(r.get_str()?),
                    tag => {
                        return Err(WireError::BadTag {
                            what: "not-primary addr flag",
                            tag,
                        })
                    }
                };
                Reply::NotPrimary { primary }
            }
            13 => Reply::NotFresh {
                version: r.get_u64()?,
            },
            14 => {
                let n = checked_len(r.get_u32()?)?;
                let mut segments = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.get_str()?;
                    segments.push((name, r.get_u64()?));
                }
                let n = checked_len(r.get_u32()?)?;
                let mut replicas = Vec::with_capacity(n);
                for _ in 0..n {
                    replicas.push(r.get_str()?);
                }
                Reply::Frontier { segments, replicas }
            }
            tag => return Err(WireError::BadTag { what: "reply", tag }),
        })
    }
}

/// Most entries a decoded snapshot section may carry (names, buckets…):
/// a sanity cap against hostile lengths, far above any real registry.
const SNAPSHOT_CAP: u32 = 1 << 16;

fn checked_len(n: u32) -> Result<usize, WireError> {
    if n > SNAPSHOT_CAP {
        return Err(WireError::LengthOverflow { len: u64::from(n) });
    }
    Ok(n as usize)
}

fn encode_snapshot(w: &mut WireWriter, snap: &Snapshot) {
    w.put_u32(snap.counters.len() as u32);
    for (name, value) in &snap.counters {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_u32(snap.gauges.len() as u32);
    for (name, value) in &snap.gauges {
        w.put_str(name);
        w.put_i64(*value);
    }
    w.put_u32(snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        w.put_str(name);
        w.put_u32(h.bounds.len() as u32);
        for b in &h.bounds {
            w.put_u64(*b);
        }
        w.put_u32(h.counts.len() as u32);
        for c in &h.counts {
            w.put_u64(*c);
        }
        w.put_u64(h.sum);
        w.put_u64(h.count);
    }
}

fn decode_snapshot(r: &mut WireReader) -> Result<Snapshot, WireError> {
    let mut snap = Snapshot::default();
    let n = checked_len(r.get_u32()?)?;
    snap.counters.reserve(n);
    for _ in 0..n {
        let name = r.get_str()?;
        snap.counters.push((name, r.get_u64()?));
    }
    let n = checked_len(r.get_u32()?)?;
    snap.gauges.reserve(n);
    for _ in 0..n {
        let name = r.get_str()?;
        snap.gauges.push((name, r.get_i64()?));
    }
    let n = checked_len(r.get_u32()?)?;
    snap.histograms.reserve(n);
    for _ in 0..n {
        let name = r.get_str()?;
        let mut h = HistogramSnapshot::default();
        let nb = checked_len(r.get_u32()?)?;
        h.bounds.reserve(nb);
        for _ in 0..nb {
            h.bounds.push(r.get_u64()?);
        }
        let nc = checked_len(r.get_u32()?)?;
        h.counts.reserve(nc);
        for _ in 0..nc {
            h.counts.push(r.get_u64()?);
        }
        h.sum = r.get_u64()?;
        h.count = r.get_u64()?;
        snap.histograms.push((name, h));
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_wire::diff::{BlockDiff, DiffRun};

    fn sample_diff() -> SegmentDiff {
        SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![BlockDiff {
                serial: 0,
                runs: vec![DiffRun {
                    start: 2,
                    count: 1,
                    data: Bytes::from_static(&[0, 0, 0, 5]),
                }],
            }],
            ..Default::default()
        }
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Hello {
                info: "x86 test client".into(),
            },
            Request::Open {
                client: 7,
                segment: "h/s".into(),
            },
            Request::Acquire {
                client: 7,
                segment: "h/s".into(),
                mode: LockMode::Write,
                have_version: 3,
                coherence: Coherence::Delta(2),
            },
            Request::Release {
                client: 7,
                segment: "h/s".into(),
                diff: None,
            },
            Request::Release {
                client: 7,
                segment: "h/s".into(),
                diff: Some(sample_diff()),
            },
            Request::Poll {
                client: 7,
                segment: "h/s".into(),
                have_version: 1,
                coherence: Coherence::Diff(100),
                floor: 4,
            },
            Request::Replicate {
                segment: "h/s".into(),
                from_version: 1,
                diff: sample_diff(),
            },
            Request::SyncFull {
                segment: "h/s".into(),
                image: Bytes::from_static(b"IWCK-image-bytes"),
            },
            Request::AttachBackup {
                addr: "127.0.0.1:7475".into(),
            },
            Request::Goodbye { client: 7 },
            Request::Frontier { client: 7 },
        ];
        for req in reqs {
            assert_eq!(Request::decode(req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn replies_roundtrip() {
        let replies = [
            Reply::Welcome {
                client: 9,
                replicas: vec![],
            },
            Reply::Welcome {
                client: 9,
                replicas: vec!["127.0.0.1:7475".into(), "127.0.0.1:7476".into()],
            },
            Reply::Opened { version: 4 },
            Reply::Granted {
                version: 5,
                update: Some(sample_diff()),
                next_serial: 17,
                next_type_serial: 3,
            },
            Reply::Granted {
                version: 5,
                update: None,
                next_serial: 0,
                next_type_serial: 0,
            },
            Reply::Busy,
            Reply::Released { version: 6 },
            Reply::UpToDate,
            Reply::Update {
                diff: sample_diff(),
            },
            Reply::Error {
                message: "no such segment".into(),
            },
            Reply::Replicated { acked_version: 12 },
            Reply::Overloaded,
            Reply::NotPrimary { primary: None },
            Reply::NotPrimary {
                primary: Some("127.0.0.1:7474".into()),
            },
            Reply::NotFresh { version: 17 },
            Reply::Frontier {
                segments: vec![],
                replicas: vec![],
            },
            Reply::Frontier {
                segments: vec![("h/a".into(), 3), ("h/b".into(), 0)],
                replicas: vec!["127.0.0.1:7475".into()],
            },
        ];
        for reply in replies {
            assert_eq!(Reply::decode(reply.encode()).unwrap(), reply);
        }
    }

    /// Every diff-carrying message embeds the link format; nothing
    /// picks a revision per peer.
    #[test]
    fn embedded_diffs_use_the_link_format() {
        use iw_wire::diff::V2_MAGIC;
        let diff_after = |bytes: Bytes, skip: fn(&mut WireReader)| {
            let mut r = WireReader::new(bytes);
            skip(&mut r);
            r.get_len_bytes().unwrap()
        };
        let release = Request::Release {
            client: 7,
            segment: "h/s".into(),
            diff: Some(sample_diff()),
        };
        let body = diff_after(release.encode(), |r| {
            assert_eq!(r.get_u8().unwrap(), 3);
            r.get_u64().unwrap();
            r.get_str().unwrap();
            assert_eq!(r.get_u8().unwrap(), 1);
        });
        assert_eq!(body[0], V2_MAGIC);
        let replicate = Request::Replicate {
            segment: "h/s".into(),
            from_version: 1,
            diff: sample_diff(),
        };
        let body = diff_after(replicate.encode(), |r| {
            assert_eq!(r.get_u8().unwrap(), 7);
            r.get_str().unwrap();
            r.get_u64().unwrap();
        });
        assert_eq!(body[0], V2_MAGIC);
        let update = Reply::Update {
            diff: sample_diff(),
        };
        let body = diff_after(update.encode(), |r| {
            assert_eq!(r.get_u8().unwrap(), 6);
        });
        assert_eq!(body[0], V2_MAGIC);
        let granted = Reply::Granted {
            version: 2,
            update: Some(sample_diff()),
            next_serial: 1,
            next_type_serial: 1,
        };
        let body = diff_after(granted.encode(), |r| {
            assert_eq!(r.get_u8().unwrap(), 2);
            r.get_u64().unwrap();
            assert_eq!(r.get_u8().unwrap(), 1);
        });
        assert_eq!(body[0], V2_MAGIC);
    }

    #[test]
    fn commit_roundtrips() {
        let req = Request::Commit {
            client: 3,
            entries: vec![("a/b".into(), Some(sample_diff())), ("c/d".into(), None)],
        };
        assert_eq!(Request::decode(req.encode()).unwrap(), req);
        let reply = Reply::Committed {
            versions: vec![4, 9],
        };
        assert_eq!(Reply::decode(reply.encode()).unwrap(), reply);
    }

    #[test]
    fn stats_roundtrip() {
        let req = Request::Stats { client: 42 };
        assert_eq!(Request::decode(req.encode()).unwrap(), req);

        let snapshot = Snapshot {
            counters: vec![
                ("server.diff_cache.hits_total".into(), 17),
                ("server.requests_total".into(), 0),
            ],
            gauges: vec![("server.lock.queue_depth".into(), -3)],
            histograms: vec![(
                "server.segment_lock_wait_us".into(),
                HistogramSnapshot {
                    bounds: vec![1, 2, 4, 8],
                    counts: vec![0, 1, 2, 0, 5],
                    sum: 99,
                    count: 8,
                },
            )],
        };
        let reply = Reply::Stats { snapshot };
        assert_eq!(Reply::decode(reply.encode()).unwrap(), reply);

        let empty = Reply::Stats {
            snapshot: Snapshot::default(),
        };
        assert_eq!(Reply::decode(empty.encode()).unwrap(), empty);
    }

    #[test]
    fn oversized_snapshot_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(9); // Reply::Stats
        w.put_u32(u32::MAX); // hostile counter count
        assert!(matches!(
            Reply::decode(w.finish()),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn request_kinds_cover_every_variant() {
        let reqs = [
            Request::Hello {
                info: String::new(),
            },
            Request::Open {
                client: 0,
                segment: "s".into(),
            },
            Request::Acquire {
                client: 0,
                segment: "s".into(),
                mode: LockMode::Read,
                have_version: 0,
                coherence: Coherence::Full,
            },
            Request::Release {
                client: 0,
                segment: "s".into(),
                diff: None,
            },
            Request::Poll {
                client: 0,
                segment: "s".into(),
                have_version: 0,
                coherence: Coherence::Full,
                floor: 0,
            },
            Request::Commit {
                client: 0,
                entries: vec![],
            },
            Request::Stats { client: 0 },
            Request::Replicate {
                segment: "s".into(),
                from_version: 0,
                diff: SegmentDiff::default(),
            },
            Request::SyncFull {
                segment: "s".into(),
                image: Bytes::new(),
            },
            Request::AttachBackup { addr: "a".into() },
            Request::Goodbye { client: 0 },
            Request::Frontier { client: 0 },
        ];
        let mut seen = std::collections::HashSet::new();
        for req in reqs {
            assert_eq!(Request::KINDS[req.kind_index()], req.kind());
            assert!(seen.insert(req.kind_index()), "duplicate kind index");
        }
        assert_eq!(seen.len(), Request::KINDS.len());
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::decode(Bytes::from_static(&[0xFF])).is_err());
        assert!(Reply::decode(Bytes::from_static(&[0xEE])).is_err());
        assert!(Request::decode(Bytes::new()).is_err());
    }

    #[test]
    fn bad_lock_mode_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(2); // Acquire
        w.put_u64(1);
        w.put_str("s");
        w.put_u8(7); // invalid mode
        assert!(matches!(
            Request::decode(w.finish()),
            Err(WireError::BadTag {
                what: "lock mode",
                ..
            })
        ));
    }
}
