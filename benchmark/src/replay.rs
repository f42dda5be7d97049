//! Replay spans: after a traced pass, the request bodies the handler
//! captured (and the workload's own op sequence) are fed into each
//! layer's public functions in isolation — no sockets, no other threads —
//! so a layer's cost can be read without the rest of the round trip.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use iw_core::Session;
use iw_durable::DiffStore;
use iw_proto::caps::PeerCaps;
use iw_proto::{ProtoError, Reply, Request, Transport, TransportStats};
use iw_server::{DurableOptions, Server};
use iw_telemetry::Registry;
use iw_types::desc::TypeDesc;
use iw_types::flat::FlatLayout;
use iw_types::MachineArch;
use iw_wire::codec::WireReader;
use iw_wire::{lz, DiffWire, SegmentDiff};

use crate::gen::{self, RecordShape};
use crate::stack::TempDir;
use crate::workloads::{self, BulkRig, RecordClient, Shape, Spec};

/// What the replays measured; 0 where a replay does not apply to the
/// workload.
#[derive(Debug, Default, Clone)]
pub struct ReplayTimes {
    /// `Session::collect_segment_diff`, µs per MB of dirty local bytes,
    /// per block type.
    pub collect_us_per_mb: Vec<(&'static str, f64)>,
    /// `Session::apply_segment_diff` on sparc_v9, same basis.
    pub apply_us_per_mb: Vec<(&'static str, f64)>,
    /// `SegmentDiff::encode_as(V2 { compress: true })`, µs per MB of run data.
    pub wire_encode_us_per_mb: f64,
    /// `SegmentDiff::decode` of those bytes, same basis.
    pub wire_decode_us_per_mb: f64,
    /// `lz::compress` on the uncompressed v2 bodies, µs per MB of body.
    pub lz_compress_us_per_mb: f64,
    /// `lz::decompress` of the result, µs per MB of body.
    pub lz_decompress_us_per_mb: f64,
    /// `Request::encode_caps`, µs per captured request.
    pub msg_encode_us: f64,
    /// `Request::decode_full`, µs per captured request.
    pub msg_decode_us: f64,
    /// `Server::handle_request` of a diff-carrying release on an
    /// in-memory server, mean µs.
    pub release_isolated_us: f64,
    /// `DiffStore::append_diff` with fsync on, mean µs.
    pub append_sync_us: f64,
    /// The same with fsync off.
    pub append_nosync_us: f64,
    /// `FlatLayout::new` of the four bulk descriptors on both
    /// architectures, µs for all eight.
    pub flatten_us: f64,
}

/// A transport that calls an in-memory server directly — no codec, no
/// socket — and times its diff-carrying releases.
struct IsolatedTransport {
    server: Arc<Server>,
    release_ns: Arc<Mutex<Vec<u64>>>,
}

impl Transport for IsolatedTransport {
    fn request(&mut self, req: &Request) -> Result<Reply, ProtoError> {
        if !matches!(req, Request::Release { diff: Some(_), .. }) {
            return Ok(self.server.handle_request(req));
        }
        let t0 = Instant::now();
        let reply = self.server.handle_request(req);
        let ns = t0.elapsed().as_nanos() as u64;
        self.release_ns.lock().expect("release times").push(ns);
        Ok(reply)
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn reset_stats(&mut self) {}
}

/// An in-memory server and a way to open sessions on it.
struct Isolated {
    server: Arc<Server>,
    release_ns: Arc<Mutex<Vec<u64>>>,
}

impl Isolated {
    fn new() -> Self {
        Isolated {
            server: Arc::new(Server::new()),
            release_ns: Arc::default(),
        }
    }

    fn session(&self, arch: MachineArch) -> Result<Session, String> {
        Session::new(
            arch,
            Box::new(IsolatedTransport {
                server: self.server.clone(),
                release_ns: self.release_ns.clone(),
            }),
        )
        .map_err(|e| format!("isolated hello: {e}"))
    }

    /// Forgets the releases timed so far (the set-up's).
    fn forget(&self) {
        self.release_ns.lock().expect("release times").clear();
    }

    /// Mean µs of the releases timed since [`Isolated::forget`].
    fn mean_release_us(&self) -> f64 {
        let v = self.release_ns.lock().expect("release times");
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e3
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The diffs inside the captured release requests.
fn captured_diffs(captured: &[Bytes]) -> Vec<SegmentDiff> {
    captured
        .iter()
        .filter_map(|b| match Request::decode(b.clone()) {
            Ok(Request::Release { diff: Some(d), .. }) => Some(d),
            _ => None,
        })
        .collect()
}

/// Runs every replay that applies to `spec`.
///
/// # Errors
///
/// Set-up failures of the isolated rigs.
pub fn run(spec: &Spec, seed: u64, captured: &[Bytes]) -> Result<ReplayTimes, String> {
    let mut out = ReplayTimes::default();
    message_codec(captured, &mut out);
    let diffs = captured_diffs(captured);
    wire_codec(&diffs, &mut out);
    match spec.shape {
        Shape::Bulk => {
            out.release_isolated_us = bulk_isolated(seed, &mut out)?;
            out.flatten_us = flatten();
        }
        Shape::PrivateWriters { rec_bytes, .. } | Shape::SharedRw { rec_bytes } => {
            out.release_isolated_us = records_isolated(seed, rec_bytes)?;
        }
    }
    if spec.durable {
        out.append_sync_us = append(&diffs, true, 100)?;
        out.append_nosync_us = append(&diffs, false, 2000)?;
    }
    Ok(out)
}

/// Mean µs of `each(item)` per unit of `total` (messages, or MB), over
/// `reps` passes through `items`.
fn mean_us<T>(reps: usize, total: f64, items: &[T], mut each: impl FnMut(&T)) -> f64 {
    if items.is_empty() || total == 0.0 {
        return 0.0;
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        items.iter().for_each(&mut each);
    }
    us(t0.elapsed()) / (reps as f64 * total)
}

/// `proto`: encode and decode the captured requests (acquires and
/// releases in the proportion the workload sends them).
fn message_codec(captured: &[Bytes], out: &mut ReplayTimes) {
    let reps = (20_000 / captured.len().max(1)).max(1);
    out.msg_decode_us = mean_us(reps, captured.len() as f64, captured, |b| {
        black_box(Request::decode_full(black_box(b.clone())).ok());
    });
    let decoded: Vec<Request> = captured
        .iter()
        .filter_map(|b| Request::decode(b.clone()).ok())
        .collect();
    out.msg_encode_us = mean_us(reps, decoded.len() as f64, &decoded, |r| {
        black_box(black_box(r).encode_caps(PeerCaps::ALL));
    });
}

/// `wire`: the diff codec and the LZ stage on the captured diffs. A
/// decoded diff carries no armed encode cache, so every call serializes.
fn wire_codec(diffs: &[SegmentDiff], out: &mut ReplayTimes) {
    let mb = |bytes: usize| bytes as f64 / 1e6;
    let payload_mb = mb(diffs.iter().map(SegmentDiff::payload_len).sum());
    // About 64 MB through each stage, at least one repetition.
    let reps = ((64.0 / payload_mb.max(1e-9)) as usize).clamp(1, 2000);
    let fmt = DiffWire::V2 { compress: true };
    out.wire_encode_us_per_mb = mean_us(reps, payload_mb, diffs, |d| {
        black_box(black_box(d).encode_as(fmt));
    });
    let encoded: Vec<Bytes> = diffs.iter().map(|d| d.encode_as(fmt)).collect();
    out.wire_decode_us_per_mb = mean_us(reps, payload_mb, &encoded, |b| {
        black_box(SegmentDiff::decode(&mut WireReader::new(black_box(b.clone()))).ok());
    });

    // The uncompressed v2 envelope is two header bytes and the body.
    let bodies: Vec<Vec<u8>> = diffs
        .iter()
        .map(|d| d.encode_as(DiffWire::V2 { compress: false })[2..].to_vec())
        .collect();
    let body_mb = mb(bodies.iter().map(Vec::len).sum());
    out.lz_compress_us_per_mb = mean_us(reps, body_mb, &bodies, |b| {
        black_box(lz::compress(black_box(b)));
    });
    let packed: Vec<(Vec<u8>, usize)> = bodies
        .iter()
        .filter_map(|b| lz::compress(b).map(|c| (c, b.len())))
        .collect();
    let packed_mb = mb(packed.iter().map(|(_, n)| n).sum());
    out.lz_decompress_us_per_mb = mean_us(reps, packed_mb, &packed, |(c, n)| {
        black_box(lz::decompress(black_box(c), *n).ok());
    });
}

/// `server` (and `core` per block type) on the bulk workload: the same
/// seeded rounds against an in-memory server. One rig holds all four
/// blocks and times the server's release; four more hold one block each
/// and time collect on x86 and apply on sparc_v9.
fn bulk_isolated(seed: u64, out: &mut ReplayTimes) -> Result<f64, String> {
    const ROUNDS: u64 = 24;
    let iso = Isolated::new();
    let mut rig = BulkRig::setup(&mut |arch| Ok((iso.session(arch)?, None)), seed, None)?;
    iso.forget();
    for _ in 0..ROUNDS {
        let writes = rig.next_round_bytes(seed);
        rig.commit(&writes)?;
        rig.read()?;
    }
    let release_us = iso.mean_release_us();

    for spec in gen::bulk_blocks() {
        let iso = Isolated::new();
        let mut rig = BulkRig::setup(
            &mut |arch| Ok((iso.session(arch)?, None)),
            seed,
            Some(spec.name),
        )?;
        let (mut collect, mut apply, mut bytes) = (Duration::ZERO, Duration::ZERO, 0u64);
        let e = |x: iw_core::CoreError| format!("replay {}: {x}", spec.name);
        for _ in 0..ROUNDS {
            let writes = rig.next_round_bytes(seed);
            rig.writer.wl_acquire(&rig.wh).map_err(e)?;
            bytes += rig.write(&writes).map_err(e)?;
            let t0 = Instant::now();
            let (diff, ..) = rig.writer.collect_segment_diff(&rig.wh).map_err(e)?;
            collect += t0.elapsed();
            rig.writer.wl_release(&rig.wh).map_err(e)?;
            rig.round += 1;
            let t0 = Instant::now();
            rig.reader.apply_segment_diff(&rig.rh, &diff).map_err(e)?;
            apply += t0.elapsed();
        }
        rig.check_image(seed)?;
        let mb = bytes as f64 / 1e6;
        out.collect_us_per_mb.push((spec.name, us(collect) / mb));
        out.apply_us_per_mb.push((spec.name, us(apply) / mb));
    }
    Ok(release_us)
}

/// `server` on a record workload: the same seeded commits against an
/// in-memory server.
fn records_isolated(seed: u64, rec_bytes: usize) -> Result<f64, String> {
    const COMMITS: u64 = 2000;
    let iso = Isolated::new();
    let shape = RecordShape {
        seg_bytes: workloads::SEG_BYTES,
        rec_bytes,
    };
    let mut session = iso.session(MachineArch::x86_64())?;
    let own = workloads::create_record_segment(&mut session, seed, &shape, 0)?;
    let mut client = RecordClient {
        session,
        sink: None,
        own: Some((own, 1)),
        peer: None,
    };
    iso.forget();
    let mut rec = vec![0u8; rec_bytes];
    for _ in 0..COMMITS {
        client.commit(seed, &shape, &mut rec)?;
    }
    Ok(iso.mean_release_us())
}

/// `durable`: append the captured diffs to a fresh store.
fn append(diffs: &[SegmentDiff], fsync: bool, n: usize) -> Result<f64, String> {
    if diffs.is_empty() {
        return Ok(0.0);
    }
    let dir = TempDir::new("replay-wal").map_err(|e| format!("replay wal dir: {e}"))?;
    let opts = DurableOptions {
        fsync,
        ..crate::stack::durable_options()
    };
    let (store, _) = DiffStore::open(dir.path(), opts, &Arc::new(Registry::new()))
        .map_err(|e| format!("replay wal open: {e}"))?;
    let t0 = Instant::now();
    for i in 0..n {
        store
            .append_diff("bench/rec0", &diffs[i % diffs.len()])
            .map_err(|e| format!("replay wal append: {e}"))?;
    }
    Ok(us(t0.elapsed()) / n as f64)
}

/// `types`: flatten the four bulk descriptors (as the blocks' arrays) for
/// the writer's and the reader's architecture.
fn flatten() -> f64 {
    const REPS: u32 = 50;
    let arrays: Vec<TypeDesc> = gen::bulk_blocks()
        .iter()
        .map(|b| TypeDesc::array(b.ty.clone(), b.count()))
        .collect();
    let arches = [MachineArch::x86(), MachineArch::sparc_v9()];
    let t0 = Instant::now();
    for _ in 0..REPS {
        for ty in &arrays {
            for arch in &arches {
                black_box(FlatLayout::new(black_box(ty), arch));
            }
        }
    }
    us(t0.elapsed()) / f64::from(REPS)
}
