//! The four workloads: table, set-up, closed-loop generators, and the
//! output check.
//!
//! All generators are closed loops (an InterWeave caller waits for its
//! lock reply) with at most two generator threads and two client
//! connections, matching this host's two CPUs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use iw_core::{Ptr, SegHandle, Session};
use iw_proto::Coherence;
use iw_server::{checkpoint, Server};
use iw_telemetry::Snapshot;
use iw_types::desc::TypeDesc;
use iw_types::flat::FlatLayout;
use iw_types::MachineArch;

use crate::gen::{self, BlockSpec, RecordShape};
use crate::host::HostMonitor;
use crate::stack::{self, Stack, TempDir};
use crate::trace::{ClientSink, OpSpan, TraceClock, TraceData};

/// Bytes in every record segment's block.
pub(crate) const SEG_BYTES: usize = 64 << 10;
/// Staleness the sparse peer reads tolerate: they travel the relaxed
/// (`Poll`) path and, read every `read_every` ≥ 8 commits, always find
/// the cache more than this many versions behind.
const PEER_COHERENCE: Coherence = Coherence::Delta(2);

/// What a workload's generators do.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Two threads, each committing `rec_bytes` to its own private
    /// segment every round and reading its peer's segment (relaxed
    /// coherence) once every `read_every` commits.
    PrivateWriters {
        /// Bytes overwritten per commit.
        rec_bytes: usize,
        /// Commits between two reads of the peer's segment.
        read_every: u64,
    },
    /// One writer thread and one reader thread in independent closed
    /// loops on one shared segment under full coherence.
    SharedRw {
        /// Bytes overwritten per commit.
        rec_bytes: usize,
    },
    /// One thread in lock-step: an x86 writer dirties a quarter of four
    /// typed blocks and releases, then a sparc_v9 reader pulls the diff.
    Bulk,
}

/// One row of the workload table.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists (one line; `BENCHMARK.json` repeats it).
    pub why: &'static str,
    /// Generator shape.
    pub shape: Shape,
    /// `DurabilityMode::WalCheckpoint` store under the primary.
    pub durable: bool,
    /// One attached backup node.
    pub backup: bool,
    /// Commits (rounds for `Bulk`) of a run without `--seconds`; the
    /// warm-up is 2 % of it and `--smoke` 1/50 of it. Never derived from
    /// elapsed time.
    pub ops: u64,
}

/// The workload table.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "small_commit",
        why: "64 B commits on private segments: per-request cost (proto codec, net hand-offs, server dispatch) dominates; translation, wire bytes and disk do almost nothing",
        shape: Shape::PrivateWriters {
            rec_bytes: 64,
            read_every: 64,
        },
        durable: false,
        backup: false,
        ops: 200_000,
    },
    Spec {
        name: "bulk_translate",
        why: "x86 writer dirties 25% of a 1 MiB typed segment, sparc_v9 reader applies it: core scan/collect/apply/swizzle, wire encode/LZ and server apply dominate; per-request cost and disk do little",
        shape: Shape::Bulk,
        durable: false,
        backup: false,
        ops: 1_500,
    },
    Spec {
        name: "durable_replicated",
        why: "1 KiB commits with WAL+checkpoint durability and one backup: durable append, fsync, checkpoints, compaction and cluster ship dominate; translation does little",
        shape: Shape::PrivateWriters {
            rec_bytes: 1024,
            read_every: 8,
        },
        durable: true,
        backup: true,
        ops: 40_000,
    },
    Spec {
        name: "contended_rw",
        why: "one writer and one reader on one shared segment under full coherence: Busy replies, client backoff and stale-version diff composition, which uncontended commits never reach",
        shape: Shape::SharedRw { rec_bytes: 256 },
        durable: false,
        backup: false,
        ops: 50_000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long a measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// A fixed number of commits (rounds for `Bulk`), split evenly over
    /// the writer threads.
    Ops(u64),
    /// Until this much wall time has passed.
    Time(Duration),
}

/// What one pass is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct PassConfig {
    /// Fixes every generated value and dirty pattern.
    pub seed: u64,
    /// Length of the measured phase.
    pub budget: Budget,
    /// Install the trace recorders.
    pub traced: bool,
    /// How many times to set up (the last set-up is the one measured on;
    /// `setup_s` is the median).
    pub setups: usize,
}

/// Registry state of every component at one instant.
#[derive(Debug, Default, Clone)]
pub struct Registries {
    /// The primary's server.
    pub server: Snapshot,
    /// Every client session.
    pub clients: Vec<Snapshot>,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Commit latencies, ns, every writer thread.
    pub commit_ns: Vec<u64>,
    /// Read latencies, ns, every reader.
    pub read_ns: Vec<u64>,
    /// Wall time of the measured phase (barrier release to last thread
    /// done), seconds.
    pub wall_s: f64,
    /// Local-format bytes dirtied and committed.
    pub payload_bytes: u64,
    /// Client-side transport bytes, both directions, every connection.
    pub wire_bytes: u64,
    /// Client-side round trips, every connection.
    pub requests: u64,
    /// Ops attempted: commits, reads and output checks.
    pub attempted: u64,
    /// Ops that returned an error, exhausted lock retries, or failed a
    /// check.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Set-up time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Registries before the measured phase.
    pub before: Registries,
    /// Registries after it.
    pub after: Registries,
    /// Median time of the host-speed kernel during the measured phase, µs.
    pub host_kernel_us: f64,
    /// `VmHWM` of the process when the measured phase ended, MB.
    pub peak_rss_mb: f64,
    /// Checkpoint file bytes on disk at the end (one file per segment).
    pub checkpoint_file_bytes: u64,
    /// Primary version minus backup version, sampled every 1 000 commits.
    pub lag_samples: Vec<u64>,
    /// Spans, under tracing.
    pub trace: Option<TraceData>,
}

impl PassResult {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// What a generator thread hands back.
#[derive(Default)]
struct ThreadOut {
    commit_ns: Vec<u64>,
    read_ns: Vec<u64>,
    payload_bytes: u64,
    attempted: u64,
    error: Option<String>,
    ops: Vec<OpSpan>,
    lag_samples: Vec<u64>,
    done: Option<Instant>,
}

/// Per-thread stop condition.
#[derive(Clone, Default)]
struct Limit {
    ops: Option<u64>,
    deadline: Option<Instant>,
    stop: Option<Arc<AtomicBool>>,
}

impl Limit {
    fn reached(&self, done: u64) -> bool {
        self.ops.is_some_and(|n| done >= n)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
            || self
                .stop
                .as_ref()
                .is_some_and(|s| s.load(Ordering::Relaxed))
    }
}

/// Runs the ops of one connection: counts and times each, keeps its
/// latency, and under tracing records its span and tells the
/// connection's sink which op is running.
struct OpRunner {
    clock: Option<Arc<TraceClock>>,
    sink: Option<Arc<ClientSink>>,
    thread: u64,
    next: u64,
}

impl OpRunner {
    fn new(clock: &Option<Arc<TraceClock>>, sink: &Option<Arc<ClientSink>>, thread: u64) -> Self {
        OpRunner {
            clock: clock.clone(),
            sink: sink.clone(),
            thread,
            next: 0,
        }
    }

    /// Runs one op, which returns the payload bytes it committed. `false`
    /// when it failed: the error is in `out` and the generator stops.
    fn run(
        &mut self,
        out: &mut ThreadOut,
        read: bool,
        op: impl FnOnce() -> Result<u64, String>,
    ) -> bool {
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        if let Some(sink) = &self.sink {
            sink.op.store(id, Ordering::Relaxed);
        }
        out.attempted += 1;
        let t0 = Instant::now();
        let r = op();
        let t1 = Instant::now();
        match r {
            Ok(payload) => out.payload_bytes += payload,
            Err(e) => {
                out.error = Some(e);
                return false;
            }
        }
        if let Some(clock) = &self.clock {
            out.ops.push(OpSpan {
                id,
                read,
                start: clock.at(t0),
                end: clock.at(t1),
            });
        }
        let ns = (t1 - t0).as_nanos() as u64;
        if read {
            out.read_ns.push(ns);
        } else {
            out.commit_ns.push(ns);
        }
        true
    }
}

// ---------------------------------------------------------------------
// Record workloads
// ---------------------------------------------------------------------

fn seg_name(seg: u64) -> String {
    format!("bench/rec{seg}")
}

/// A segment as one session sees it.
pub(crate) struct SegView {
    seg: u64,
    handle: SegHandle,
    block: Ptr,
}

/// One client connection of a record workload.
pub(crate) struct RecordClient {
    pub(crate) session: Session,
    pub(crate) sink: Option<Arc<ClientSink>>,
    /// The segment this client commits to, and the next op index on it.
    pub(crate) own: Option<(SegView, u64)>,
    /// The segment this client reads.
    pub(crate) peer: Option<SegView>,
}

impl RecordClient {
    /// One commit: `wl_acquire` → overwrite one record → `wl_release`.
    /// Op `k` must produce version `k + 1`. Returns the bytes committed.
    pub(crate) fn commit(
        &mut self,
        seed: u64,
        shape: &RecordShape,
        rec: &mut [u8],
    ) -> Result<u64, String> {
        let (view, k) = self.own.as_mut().expect("writer has a segment");
        let seg = view.seg;
        shape.fill(seed, seg, *k, rec);
        let at = shape.offset(seed, seg, *k);
        let e = |x: iw_core::CoreError| format!("commit seg {seg} op {k}: {x}");
        self.session.wl_acquire(&view.handle).map_err(e)?;
        let p = self
            .session
            .index(&view.block, (at / 4) as u32)
            .map_err(e)?;
        self.session.write_bytes_raw(&p, rec).map_err(e)?;
        self.session.wl_release(&view.handle).map_err(e)?;
        let v = self.session.segment_version(&view.handle).map_err(e)?;
        if v != *k + 1 {
            return Err(format!(
                "commit seg {seg} op {k}: committed version {v}, expected {}",
                *k + 1
            ));
        }
        *k += 1;
        Ok(rec.len() as u64)
    }

    /// One read: `rl_acquire` → check the record the fetched version
    /// wrote → `rl_release`.
    fn read(&mut self, seed: u64, shape: &RecordShape, rec: &mut [u8]) -> Result<u64, String> {
        let view = self.peer.as_ref().expect("reader has a segment");
        let seg = view.seg;
        let e = |x: iw_core::CoreError| format!("read seg {seg}: {x}");
        self.session.rl_acquire(&view.handle).map_err(e)?;
        let v = self.session.segment_version(&view.handle).map_err(e)?;
        // Version v is the state after op v-1; op 0 wrote the whole block.
        let mut bad = None;
        if v >= 2 {
            let k = v - 1;
            shape.fill(seed, seg, k, rec);
            let at = shape.offset(seed, seg, k);
            let p = self
                .session
                .index(&view.block, (at / 4) as u32)
                .map_err(e)?;
            let got = self.session.read_bytes_raw(&p, rec.len()).map_err(e)?;
            if got != &rec[..] {
                bad = Some(format!(
                    "read seg {seg} at version {v}: record of op {k} differs"
                ));
            }
        }
        self.session.rl_release(&view.handle).map_err(e)?;
        bad.map_or(Ok(0), Err)
    }

    /// Output check: the whole block, read back through the session under
    /// full coherence, equals the oracle image after `last_op`.
    fn check_image(&mut self, seed: u64, shape: &RecordShape, last_op: u64) -> Result<(), String> {
        let view = self.peer.as_ref().expect("reader has a segment");
        let seg = view.seg;
        let e = |x: iw_core::CoreError| format!("check seg {seg}: {x}");
        self.session
            .set_coherence(&view.handle, Coherence::Full)
            .map_err(e)?;
        self.session.rl_acquire(&view.handle).map_err(e)?;
        let v = self.session.segment_version(&view.handle).map_err(e)?;
        let got = self
            .session
            .read_bytes_raw(&view.block, shape.seg_bytes)
            .map_err(e)?
            .to_vec();
        self.session.rl_release(&view.handle).map_err(e)?;
        if v != last_op + 1 {
            return Err(format!(
                "check seg {seg}: reader at version {v}, last acked {}",
                last_op + 1
            ));
        }
        if got != shape.image(seed, seg, last_op) {
            return Err(format!(
                "check seg {seg}: final image differs from the oracle at version {v}"
            ));
        }
        Ok(())
    }
}

/// Creates segment `seg` through `session`: one `int32` block holding the
/// op-0 image.
pub(crate) fn create_record_segment(
    session: &mut Session,
    seed: u64,
    shape: &RecordShape,
    seg: u64,
) -> Result<SegView, String> {
    let e = |x: iw_core::CoreError| format!("create seg {seg}: {x}");
    let handle = session.open_segment(&seg_name(seg)).map_err(e)?;
    session.wl_acquire(&handle).map_err(e)?;
    let block = session
        .malloc(&handle, &TypeDesc::int32(), shape.elems(), Some("blk"))
        .map_err(e)?;
    session
        .write_bytes_raw(&block, &shape.image(seed, seg, 0))
        .map_err(e)?;
    session.wl_release(&handle).map_err(e)?;
    Ok(SegView { seg, handle, block })
}

/// Opens segment `seg` for reading: the initial full transfer.
fn open_for_reading(
    session: &mut Session,
    seg: u64,
    coherence: Coherence,
) -> Result<SegView, String> {
    let e = |x: iw_core::CoreError| format!("open seg {seg}: {x}");
    let name = seg_name(seg);
    let handle = session.open_segment(&name).map_err(e)?;
    session.rl_acquire(&handle).map_err(e)?;
    session.rl_release(&handle).map_err(e)?;
    let block = session.mip_to_ptr(&format!("{name}#blk")).map_err(e)?;
    session.set_coherence(&handle, coherence).map_err(e)?;
    Ok(SegView { seg, handle, block })
}

/// Servers whose versions the lag sampler compares.
type LagProbe = Option<(Arc<Server>, Arc<Server>)>;

/// Latency samples a generator makes room for up front, so that growing
/// the vector never lands inside a timed op.
const RESERVE_SAMPLES: usize = 1 << 20;

/// The generator loop of one record client.
fn drive_records(
    client: &mut RecordClient,
    seed: u64,
    shape: &RecordShape,
    read_every: Option<u64>,
    limit: &Limit,
    runner: &mut OpRunner,
    lag: &LagProbe,
) -> ThreadOut {
    let mut out = ThreadOut::default();
    out.commit_ns.reserve(RESERVE_SAMPLES);
    let mut rec = vec![0u8; shape.rec_bytes];
    let mut done = 0u64;
    while !limit.reached(done) {
        let is_read = match (&client.own, read_every) {
            (None, _) => true,
            (Some(_), Some(n)) => done % (n + 1) == n,
            (Some(_), None) => false,
        };
        let ok = runner.run(&mut out, is_read, || {
            if is_read {
                client.read(seed, shape, &mut rec)
            } else {
                client.commit(seed, shape, &mut rec)
            }
        });
        if !ok {
            break;
        }
        if let (false, Some((p, b)), Some((view, k))) = (is_read, lag, &client.own) {
            if k % 1000 == 0 {
                let name = seg_name(view.seg);
                let pv = p.segment_version(&name).unwrap_or(0);
                out.lag_samples
                    .push(pv.saturating_sub(b.segment_version(&name).unwrap_or(0)));
            }
        }
        done += 1;
    }
    out.done = Some(Instant::now());
    out
}

// ---------------------------------------------------------------------
// Bulk workload
// ---------------------------------------------------------------------

const BULK_SEGMENT: &str = "bench/bulk";

struct BulkBlock {
    spec: BlockSpec,
    /// Writer-side layout (x86), flattened once.
    wflat: FlatLayout,
    wptr: Ptr,
    /// The round that last dirtied each chunk.
    last_round: Vec<u64>,
}

/// Opens one client session on the given architecture.
pub(crate) type Connect<'a> =
    &'a mut dyn FnMut(MachineArch) -> Result<(Session, Option<Arc<ClientSink>>), String>;

/// The lock-step writer/reader pair.
pub(crate) struct BulkRig {
    pub(crate) writer: Session,
    wsink: Option<Arc<ClientSink>>,
    pub(crate) reader: Session,
    rsink: Option<Arc<ClientSink>>,
    pub(crate) wh: SegHandle,
    pub(crate) rh: SegHandle,
    blocks: Vec<BulkBlock>,
    wtargets: u64,
    /// Rounds committed so far.
    pub(crate) round: u64,
}

impl BulkRig {
    /// Creates the segment through an x86 writer and pulls it into a
    /// sparc_v9 reader. `only` keeps a single block (for the per-type
    /// replays).
    pub(crate) fn setup(
        connect: Connect,
        seed: u64,
        only: Option<&str>,
    ) -> Result<BulkRig, String> {
        let e = |x: iw_core::CoreError| format!("bulk set-up: {x}");
        let (mut writer, wsink) = connect(MachineArch::x86())?;
        let (mut reader, rsink) = connect(MachineArch::sparc_v9())?;
        let wh = writer.open_segment(BULK_SEGMENT).map_err(e)?;
        writer.wl_acquire(&wh).map_err(e)?;
        let targets = writer
            .malloc(&wh, &TypeDesc::int32(), gen::TARGETS, Some("targets"))
            .map_err(e)?;
        let tbytes: Vec<u8> = (0..gen::TARGETS)
            .flat_map(|i| (i + 1).to_le_bytes())
            .collect();
        writer.write_bytes_raw(&targets, &tbytes).map_err(e)?;
        let wtargets = targets.va();
        let mut blocks = Vec::new();
        for spec in gen::bulk_blocks() {
            if only.is_some_and(|name| name != spec.name) {
                continue;
            }
            let wflat = FlatLayout::new(&spec.ty, writer.arch());
            let wptr = writer
                .malloc(&wh, &spec.ty, spec.count(), Some(spec.name))
                .map_err(e)?;
            let image = gen::encode_elems(seed, &spec, &wflat, 0, 0, spec.count(), wtargets);
            writer.write_bytes_raw(&wptr, &image).map_err(e)?;
            blocks.push(BulkBlock {
                spec,
                wflat,
                wptr,
                last_round: vec![0; gen::CHUNKS_PER_BLOCK as usize],
            });
        }
        writer.wl_release(&wh).map_err(e)?;
        let rh = reader.open_segment(BULK_SEGMENT).map_err(e)?;
        reader.rl_acquire(&rh).map_err(e)?;
        reader.rl_release(&rh).map_err(e)?;
        Ok(BulkRig {
            writer,
            wsink,
            reader,
            rsink,
            wh,
            rh,
            blocks,
            wtargets,
            round: 0,
        })
    }

    /// The local-format bytes the next round writes, per block and chunk.
    /// Generated before the commit is timed: it is the application's
    /// think time, not the system's.
    pub(crate) fn next_round_bytes(&self, seed: u64) -> Vec<(usize, u32, Vec<u8>)> {
        let round = self.round + 1;
        let mut out = Vec::new();
        for (b, blk) in self.blocks.iter().enumerate() {
            for c in gen::dirty_chunks(seed, b as u64, round) {
                let first = c * blk.spec.per_chunk;
                let bytes = gen::encode_elems(
                    seed,
                    &blk.spec,
                    &blk.wflat,
                    round,
                    first,
                    blk.spec.per_chunk,
                    self.wtargets,
                );
                out.push((b, c, bytes));
            }
        }
        out
    }

    /// Writes one round's chunks under the held write lock; returns the
    /// local-format bytes written.
    pub(crate) fn write(
        &mut self,
        writes: &[(usize, u32, Vec<u8>)],
    ) -> Result<u64, iw_core::CoreError> {
        let mut payload = 0u64;
        for (b, c, bytes) in writes {
            let blk = &mut self.blocks[*b];
            let p = self.writer.index(&blk.wptr, c * blk.spec.per_chunk)?;
            self.writer.write_bytes_raw(&p, bytes)?;
            blk.last_round[*c as usize] = self.round + 1;
            payload += bytes.len() as u64;
        }
        Ok(payload)
    }

    pub(crate) fn commit(&mut self, writes: &[(usize, u32, Vec<u8>)]) -> Result<u64, String> {
        let round = self.round + 1;
        let e = |x: iw_core::CoreError| format!("bulk commit {round}: {x}");
        self.writer.wl_acquire(&self.wh).map_err(e)?;
        let payload = self.write(writes).map_err(e)?;
        self.writer.wl_release(&self.wh).map_err(e)?;
        let v = self.writer.segment_version(&self.wh).map_err(e)?;
        if v != round + 1 {
            return Err(format!(
                "bulk commit {round}: committed version {v}, expected {}",
                round + 1
            ));
        }
        self.round = round;
        Ok(payload)
    }

    pub(crate) fn read(&mut self) -> Result<u64, String> {
        let round = self.round;
        let e = |x: iw_core::CoreError| format!("bulk read {round}: {x}");
        self.reader.rl_acquire(&self.rh).map_err(e)?;
        let v = self.reader.segment_version(&self.rh).map_err(e)?;
        self.reader.rl_release(&self.rh).map_err(e)?;
        if v != round + 1 {
            return Err(format!(
                "bulk read {round}: reader at version {v}, expected {}",
                round + 1
            ));
        }
        Ok(0)
    }

    /// Output check: every chunk of every block, read back through the
    /// sparc_v9 session, holds the values of the round that last dirtied
    /// it, in that architecture's layout.
    pub(crate) fn check_image(&mut self, seed: u64) -> Result<(), String> {
        let e = |x: iw_core::CoreError| format!("bulk check: {x}");
        self.reader.rl_acquire(&self.rh).map_err(e)?;
        let arch = self.reader.arch().clone();
        let rtargets = self
            .reader
            .mip_to_ptr(&format!("{BULK_SEGMENT}#targets"))
            .map_err(e)?
            .va();
        let mut bad = None;
        'blocks: for blk in &self.blocks {
            let rflat = FlatLayout::new(&blk.spec.ty, &arch);
            let rptr = self
                .reader
                .mip_to_ptr(&format!("{BULK_SEGMENT}#{}", blk.spec.name))
                .map_err(e)?;
            for (c, &round) in blk.last_round.iter().enumerate() {
                let first = c as u32 * blk.spec.per_chunk;
                let want = gen::encode_elems(
                    seed,
                    &blk.spec,
                    &rflat,
                    round,
                    first,
                    blk.spec.per_chunk,
                    rtargets,
                );
                let p = self.reader.index(&rptr, first).map_err(e)?;
                let got = self.reader.read_bytes_raw(&p, want.len()).map_err(e)?;
                if let Some(m) = gen::first_mismatch(&blk.spec, &rflat, &want, got) {
                    bad = Some(format!(
                        "bulk check: chunk {c} (last dirtied in round {round}): {m}"
                    ));
                    break 'blocks;
                }
            }
        }
        self.reader.rl_release(&self.rh).map_err(e)?;
        bad.map_or(Ok(()), Err)
    }

    fn drive(&mut self, seed: u64, limit: &Limit, clock: &Option<Arc<TraceClock>>) -> ThreadOut {
        let mut out = ThreadOut::default();
        let mut writer = OpRunner::new(clock, &self.wsink, 1);
        let mut reader = OpRunner::new(clock, &self.rsink, 2);
        let mut done = 0u64;
        while !limit.reached(done) {
            let writes = self.next_round_bytes(seed);
            if !writer.run(&mut out, false, || self.commit(&writes))
                || !reader.run(&mut out, true, || self.read())
            {
                break;
            }
            done += 1;
        }
        out.done = Some(Instant::now());
        out
    }
}

// ---------------------------------------------------------------------
// Rig: a stack plus its clients, set up and warmed
// ---------------------------------------------------------------------

enum Clients {
    Records {
        shape: RecordShape,
        read_every: Option<u64>,
        clients: Vec<RecordClient>,
    },
    Bulk(Box<BulkRig>),
}

struct Rig {
    // Clients drop (and close their connections) before the stack.
    clients: Clients,
    stack: Stack,
}

impl Rig {
    /// Stack spawn → segment creation → initial full transfers → backup
    /// attach and catch-up → warm-up: everything `setup_s` covers.
    fn setup(spec: &Spec, seed: u64, traced: bool) -> Result<Rig, String> {
        let stack = Stack::spawn(spec.durable, spec.backup, traced)?;
        let warmup = Limit {
            ops: Some((spec.ops / 50).max(1)),
            ..Limit::default()
        };
        let clients = match spec.shape {
            Shape::Bulk => {
                let mut rig = BulkRig::setup(&mut |arch| stack.session(arch), seed, None)?;
                if let Some(e) = rig.drive(seed, &warmup, &None).error {
                    return Err(format!("warm-up: {e}"));
                }
                Clients::Bulk(Box::new(rig))
            }
            Shape::PrivateWriters {
                rec_bytes,
                read_every,
            } => {
                let shape = RecordShape {
                    seg_bytes: SEG_BYTES,
                    rec_bytes,
                };
                let mut sessions = Vec::new();
                let mut owns = Vec::new();
                for seg in 0..2u64 {
                    let (mut session, sink) = stack.session(MachineArch::x86_64())?;
                    owns.push(create_record_segment(&mut session, seed, &shape, seg)?);
                    sessions.push((session, sink));
                }
                let mut clients = Vec::new();
                for (seg, ((mut session, sink), own)) in sessions.into_iter().zip(owns).enumerate()
                {
                    let peer = open_for_reading(&mut session, 1 - seg as u64, PEER_COHERENCE)?;
                    clients.push(RecordClient {
                        session,
                        sink,
                        own: Some((own, 1)),
                        peer: Some(peer),
                    });
                }
                Clients::Records {
                    shape,
                    read_every: Some(read_every),
                    clients,
                }
            }
            Shape::SharedRw { rec_bytes } => {
                let shape = RecordShape {
                    seg_bytes: SEG_BYTES,
                    rec_bytes,
                };
                let (mut wsession, wsink) = stack.session(MachineArch::x86_64())?;
                let own = create_record_segment(&mut wsession, seed, &shape, 0)?;
                let (mut rsession, rsink) = stack.session(MachineArch::x86_64())?;
                let peer = open_for_reading(&mut rsession, 0, Coherence::Full)?;
                Clients::Records {
                    shape,
                    read_every: None,
                    clients: vec![
                        RecordClient {
                            session: wsession,
                            sink: wsink,
                            own: Some((own, 1)),
                            peer: None,
                        },
                        RecordClient {
                            session: rsession,
                            sink: rsink,
                            own: None,
                            peer: Some(peer),
                        },
                    ],
                }
            }
        };
        let mut rig = Rig { clients, stack };
        rig.stack.attach_backup()?;
        if let Clients::Records { .. } = rig.clients {
            let out = rig.run_records(seed, &warmup, false);
            if let Some(e) = out.into_iter().find_map(|o| o.error) {
                return Err(format!("warm-up: {e}"));
            }
        }
        Ok(rig)
    }

    /// Runs every record client's generator loop on its own thread.
    fn run_records(&mut self, seed: u64, limit: &Limit, measured: bool) -> Vec<ThreadOut> {
        let Clients::Records {
            shape,
            read_every,
            clients,
        } = &mut self.clients
        else {
            unreachable!("record workloads only");
        };
        let clock = self
            .stack
            .trace
            .as_ref()
            .filter(|_| measured)
            .map(|t| t.clock.clone());
        let lag: LagProbe = self
            .stack
            .backup
            .as_ref()
            .filter(|_| measured)
            .map(|b| (self.stack.primary.server().clone(), b.server.clone()));
        let writers = clients.iter().filter(|c| c.own.is_some()).count() as u64;
        let barrier = Barrier::new(clients.len());
        // A pure reader runs until the writers are done.
        let writers_done = Arc::new(AtomicBool::new(false));
        let (shape, read_every) = (*shape, *read_every);
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    let mut limit = limit.clone();
                    if client.own.is_some() {
                        // `ops` counts commits; reads ride along.
                        limit.ops = limit.ops.map(|n| {
                            let commits = n / writers;
                            commits + read_every.map_or(0, |e| commits / e)
                        });
                    } else {
                        limit.ops = None;
                        limit.stop = Some(writers_done.clone());
                    }
                    let mut runner = OpRunner::new(&clock, &client.sink, i as u64 + 1);
                    let (barrier, lag, writers_done) = (&barrier, &lag, &writers_done);
                    s.spawn(move || {
                        barrier.wait();
                        let out = drive_records(
                            client,
                            seed,
                            &shape,
                            read_every,
                            &limit,
                            &mut runner,
                            lag,
                        );
                        if client.own.is_some() {
                            writers_done.store(true, Ordering::Relaxed);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        })
    }

    fn sessions(&self) -> Vec<&Session> {
        match &self.clients {
            Clients::Records { clients, .. } => clients.iter().map(|c| &c.session).collect(),
            Clients::Bulk(b) => vec![&b.writer, &b.reader],
        }
    }

    fn sinks(&self) -> Vec<&Arc<ClientSink>> {
        match &self.clients {
            Clients::Records { clients, .. } => clients.iter().flat_map(|c| &c.sink).collect(),
            Clients::Bulk(b) => [&b.wsink, &b.rsink].into_iter().flatten().collect(),
        }
    }

    fn registries(&self) -> Registries {
        Registries {
            server: self.stack.primary.server().metrics_snapshot(),
            clients: self
                .sessions()
                .iter()
                .map(|s| s.metrics_snapshot())
                .collect(),
        }
    }
}

/// The checkpoint-encoded image of every segment of `server`, by name.
fn server_images(server: &Server) -> Vec<(String, u64, bytes::Bytes)> {
    let mut names = server.segment_names();
    names.sort();
    names
        .into_iter()
        .filter_map(|n| {
            let image = server.with_segment_mut(&n, |seg| {
                checkpoint::encode_segment(seg).map(|img| (seg.version(), img))
            })?;
            image.ok().map(|(v, img)| (n, v, img))
        })
        .collect()
}

/// Runs one pass of `spec`: set up (`cfg.setups` times), measure, check
/// outputs, tear down.
///
/// # Errors
///
/// Set-up failures (nothing was measured). Failures during the measured
/// phase or the output check are counted in the result instead.
pub fn run_pass(spec: &Spec, cfg: &PassConfig) -> Result<PassResult, String> {
    let mut result = PassResult::default();
    let mut rig = None;
    for _ in 0..cfg.setups.max(1) {
        drop(rig.take());
        let t0 = Instant::now();
        rig = Some(Rig::setup(spec, cfg.seed, cfg.traced)?);
        result.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");

    let wire_before: Vec<_> = rig.sessions().iter().map(|s| s.transport_stats()).collect();
    result.before = rig.registries();
    let clock = rig.stack.trace.as_ref().map(|t| t.clock.clone());
    if let Some(c) = &clock {
        c.set_recording(true);
    }
    let limit = match cfg.budget {
        Budget::Ops(n) => Limit {
            ops: Some(n),
            ..Limit::default()
        },
        Budget::Time(d) => Limit {
            deadline: Some(Instant::now() + d),
            ..Limit::default()
        },
    };
    let monitor = HostMonitor::start(&[stack::CLIENT_CPU, stack::SERVER_CPU]);
    let started = Instant::now();
    let outs = match &mut rig.clients {
        Clients::Bulk(b) => vec![b.drive(cfg.seed, &limit, &clock)],
        Clients::Records { .. } => rig.run_records(cfg.seed, &limit, true),
    };
    let finished = outs
        .iter()
        .filter_map(|o| o.done)
        .max()
        .unwrap_or_else(Instant::now);
    result.wall_s = (finished - started).as_secs_f64();
    result.host_kernel_us = monitor.finish();
    if spec.backup {
        rig.stack.primary.drain();
    }
    if let Some(c) = &clock {
        c.set_recording(false);
    }
    result.after = rig.registries();
    result.peak_rss_mb = crate::report::peak_rss_mb();
    for (s, before) in rig.sessions().iter().zip(&wire_before) {
        let now = s.transport_stats();
        result.wire_bytes += now.total_bytes() - before.total_bytes();
        result.requests += now.requests - before.requests;
    }
    let mut ops = Vec::new();
    for mut o in outs {
        result.commit_ns.append(&mut o.commit_ns);
        result.read_ns.append(&mut o.read_ns);
        result.payload_bytes += o.payload_bytes;
        result.attempted += o.attempted;
        result.lag_samples.append(&mut o.lag_samples);
        ops.append(&mut o.ops);
        if let Some(e) = o.error {
            result.fail(e);
        }
    }
    if let Some(t) = &rig.stack.trace {
        let rtts = rig.sinks().iter().flat_map(|s| s.take()).collect();
        result.trace = Some(TraceData {
            ops,
            rtts,
            handles: t.primary.take_spans(),
            backup_handles: t
                .backup
                .as_ref()
                .map(|b| b.take_spans())
                .unwrap_or_default(),
            ship: t.ship.as_ref().map(|s| s.take()).unwrap_or_default(),
            captured: t.primary.captured(),
        });
    }

    check_outputs(cfg.seed, rig, &mut result);
    Ok(result)
}

/// The output check. Every check counts as one attempted op, and as one
/// failed op when it does not hold.
fn check_outputs(seed: u64, mut rig: Rig, result: &mut PassResult) {
    let check = |result: &mut PassResult, r: Result<(), String>| {
        result.attempted += 1;
        if let Err(e) = r {
            result.fail(e);
        }
    };
    // 1. The reader's final image, through `Session`, equals the oracle.
    let mut acked: Vec<(String, u64)> = Vec::new();
    match &mut rig.clients {
        Clients::Bulk(b) => {
            let r = b.check_image(seed);
            check(result, r);
            acked.push((BULK_SEGMENT.into(), b.round + 1));
        }
        Clients::Records { shape, clients, .. } => {
            let last: Vec<(u64, u64)> = clients
                .iter()
                .filter_map(|c| c.own.as_ref().map(|(v, k)| (v.seg, k - 1)))
                .collect();
            for c in clients.iter_mut().filter(|c| c.peer.is_some()) {
                let seg = c.peer.as_ref().expect("filtered").seg;
                let last_op = last
                    .iter()
                    .find(|(s, _)| *s == seg)
                    .expect("every segment has a writer")
                    .1;
                let r = c.check_image(seed, shape, last_op);
                check(result, r);
            }
            acked.extend(last.iter().map(|(s, k)| (seg_name(*s), k + 1)));
        }
    }
    // 2. The primary holds every segment at its last acked version.
    let primary_images = server_images(rig.stack.primary.server());
    for (name, version) in &acked {
        let held = primary_images
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, _)| *v);
        check(
            result,
            (held == Some(*version))
                .then_some(())
                .ok_or_else(|| format!("primary holds `{name}` at {held:?}, last acked {version}")),
        );
    }
    // 3. After a drain the backup's images byte-equal the primary's.
    if let Some(b) = &rig.stack.backup {
        rig.stack.primary.drain();
        let same = server_images(&b.server) == primary_images;
        check(
            result,
            same.then_some(())
                .ok_or_else(|| "backup images differ from the primary's after drain".to_string()),
        );
    }
    result.checkpoint_file_bytes = rig
        .stack
        .data_dir
        .as_ref()
        .and_then(|d| std::fs::read_dir(d.path().join("ck")).ok())
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    // 4. Reopening the data directory recovers every segment at its last
    //    acked version with the same image. (The process was not killed,
    //    so this exercises recovery, not torn writes.)
    let Rig { clients, mut stack } = rig;
    drop(clients);
    let data_dir: Option<TempDir> = stack.data_dir.take();
    drop(stack);
    if let Some(dir) = data_dir {
        let r = match Server::with_durability(dir.path().to_path_buf(), stack::durable_options()) {
            Err(e) => Err(format!("reopen: {e}")),
            Ok((recovered, report)) => {
                if !report.warnings.is_empty() {
                    Err(format!("reopen: recovery warnings: {:?}", report.warnings))
                } else if server_images(&recovered) != primary_images {
                    Err("reopen: recovered images differ from the primary's last state".into())
                } else {
                    Ok(())
                }
            }
        };
        check(result, r);
    }
}
