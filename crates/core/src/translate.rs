//! The translation engine: local-format memory to wire-format diffs and
//! back, through the type descriptors (§3.1, §3.3).
//!
//! [`Translator::collect`] turns everything modified under a write lock
//! into a [`SegmentDiff`]; [`Translator::apply`] installs a diff into a
//! cached copy. Both are functions of a [`Heap`], the per-segment
//! bookkeeping, the unresolved-pointer map and the diff alone — nothing
//! here can reach a server, so the engine is testable and benchmarkable
//! without one. [`crate::Session`] wraps the two entry points with its
//! lock-and-coherence protocol.
//!
//! The engine is one serial walk. Three things keep it cheap: all of a
//! modified block's ranges translate into one wire buffer whose runs are
//! zero-copy slices of it; apply decodes into pooled scratch buffers so
//! steady-state application stops allocating; and a packed layout skips
//! the scratch pre-fill, since decode overwrites every byte of the span.

use std::collections::{BTreeMap, HashMap, HashSet};

use bytes::Bytes;

use iw_heap::{BlockMeta, Heap, SegId};
use iw_telemetry::Registry;
use iw_types::arch::MachineArch;
use iw_types::desc::PrimKind;
use iw_types::flat::FlatNode;
use iw_wire::codec::{WireReader, WireWriter};
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};
use iw_wire::mip::{BlockRef, Mip};
use iw_wire::prim::{no_pointers_in, prim_from_wire};

use crate::diffing::find_byte_runs;
use crate::error::CoreError;
use crate::metrics::TranslateMetrics;
use crate::session::SessionOptions;

/// What one write-lock tenure has accumulated for a segment: the
/// bookkeeping [`Translator::collect`] reads.
#[derive(Debug, Clone, Copy)]
pub struct Pending<'a> {
    /// The segment in the heap.
    pub seg: SegId,
    /// Version of the cached copy the diff is relative to.
    pub from_version: u64,
    /// Number of type descriptors the server already knows; registered
    /// descriptors at or past this serial travel in the diff.
    pub types_synced: u32,
    /// Blocks created under the lock, in allocation order (sent whole).
    pub new_blocks: &'a [u32],
    /// Blocks freed under the lock.
    pub freed: &'a [u32],
    /// Segment-level no-diff mode: send every block whole, skip the scan.
    pub whole_segment: bool,
    /// Blocks individually in no-diff mode (sent whole when touched).
    pub whole_blocks: &'a HashSet<u32>,
}

/// A collected diff, the primitive units it changed, and each modified
/// block's changed fraction (the input to no-diff adaptation).
pub type Collected = (SegmentDiff, u64, Vec<(u32, f64)>);

/// The translation engine of one client: ablation switches, metric
/// handles and the apply-side scratch pool.
pub struct Translator {
    /// [`SessionOptions::splice`].
    splice: bool,
    /// [`SessionOptions::prediction`].
    prediction: bool,
    /// [`SessionOptions::iso_fast_path`].
    iso: bool,
    pub(crate) metrics: TranslateMetrics,
    pool: BufferPool,
}

impl Translator {
    /// An engine with the ablation switches of `opts` (`splice`,
    /// `prediction`, `iso_fast_path`; it reads nothing else) whose
    /// metrics live in `registry`.
    pub fn new(registry: &Registry, opts: &SessionOptions) -> Self {
        Translator {
            splice: opts.splice,
            prediction: opts.prediction,
            iso: opts.iso_fast_path,
            metrics: TranslateMetrics::new(registry),
            pool: BufferPool::default(),
        }
    }

    // ==================================================================
    // Diff collection (§3.1 "Diff creation and translation")
    // ==================================================================

    /// Collects the wire-format diff of all modifications `heap` tracked
    /// for the segment `pending` describes. `unresolved` maps pointer
    /// fields whose target segment is not cached (field VA → MIP; the
    /// local word holds 0).
    ///
    /// # Errors
    ///
    /// Translation errors (e.g. a pointer to unmapped memory).
    pub fn collect(
        &self,
        heap: &Heap,
        unresolved: &HashMap<u64, Mip>,
        pending: &Pending<'_>,
    ) -> Result<Collected, CoreError> {
        let _timer = self.metrics.collect_us.start_timer();
        let seg = heap.segment(pending.seg);
        let from_version = pending.from_version;
        let new_set: HashSet<u32> = pending.new_blocks.iter().copied().collect();

        let mut diff = SegmentDiff {
            from_version,
            to_version: from_version + 1,
            ..Default::default()
        };

        // Newly used type descriptors.
        for (serial, ty) in seg.types.iter() {
            if serial >= pending.types_synced {
                diff.new_types.push((serial, ty.clone()));
            }
        }

        // Phase 1 (bookkeeping): build the per-block job list. New
        // blocks travel whole.
        let mut jobs: Vec<CollectJob<'_>> = Vec::new();
        for &serial in pending.new_blocks {
            let meta = seg.block_by_serial(serial)?;
            let type_serial = seg
                .types
                .serial_of(&meta.ty)
                .expect("type registered at malloc");
            jobs.push(CollectJob {
                meta,
                kind: CollectKind::NewBlock { type_serial },
            });
        }

        if pending.whole_segment {
            // No-diff mode: transmit every pre-existing block whole.
            for meta in seg.blocks().filter(|b| !new_set.contains(&b.serial)) {
                jobs.push(CollectJob {
                    meta,
                    kind: CollectKind::Whole,
                });
            }
        } else {
            let word = heap.arch().word_size as usize;
            let ps = u64::from(heap.page_size());
            let scan_guard = self.metrics.scan_us.start_timer();

            // Scan twins for changed byte runs (pure word diffing), in
            // page order.
            let mut pages: Vec<(usize, u64, &[u8], &[u8])> = Vec::new();
            for &ss_idx in seg.subseg_indices() {
                let ss = heap.subseg(ss_idx);
                let base = ss.base();
                for (page, twin, cur) in ss.modified_pages() {
                    pages.push((ss_idx, base + page as u64 * ps, twin, cur));
                }
            }
            let scanned: u64 = pages.iter().map(|p| p.2.len() as u64).sum();
            self.metrics.scan_pages.add(pages.len() as u64);
            self.metrics.scan_bytes.add(scanned);
            let page_runs: Vec<Vec<(usize, usize)>> = pages
                .iter()
                .map(|&(_, _, twin, cur)| find_byte_runs(twin, cur, word, self.splice))
                .collect();
            drop(scan_guard);

            // Group the changed ranges into one job per modified block.
            // The per-block `floor` (which prevents double-emitting a
            // primitive spanning two dirty pages) lives in the job
            // runner.
            let mut job_of: HashMap<u32, usize> = HashMap::new();
            for (&(ss_idx, pbase, ..), runs) in pages.iter().zip(&page_runs) {
                for &(b0, b1) in runs {
                    let hi = pbase + b1 as u64;
                    let mut cursor = pbase + b0 as u64;
                    while cursor < hi {
                        // The block under the cursor, else the next one
                        // the run reaches (the gap between is free space).
                        let meta = match heap.block_at(cursor) {
                            Ok((_, meta)) => meta,
                            Err(_) => match heap
                                .next_block_at_or_after(ss_idx, cursor)
                                .filter(|&(va, _)| va < hi)
                            {
                                Some((_, serial)) => seg.block_by_serial(serial)?,
                                None => break,
                            },
                        };
                        let serial = meta.serial;
                        let range = (cursor.max(meta.va), hi.min(meta.end()));
                        cursor = meta.end();
                        if new_set.contains(&serial) {
                            continue;
                        }
                        // A touched block in block-level no-diff mode
                        // is transmitted whole.
                        let ji = *job_of.entry(serial).or_insert_with(|| {
                            let kind = if pending.whole_blocks.contains(&serial) {
                                CollectKind::Whole
                            } else {
                                CollectKind::Ranges(Vec::new())
                            };
                            jobs.push(CollectJob { meta, kind });
                            jobs.len() - 1
                        });
                        if let CollectKind::Ranges(rs) = &mut jobs[ji].kind {
                            rs.push(range);
                        }
                    }
                }
            }
        }

        // Phase 2: translate and merge — new blocks in allocation order,
        // block diffs in ascending serial order.
        let ctx = XlateCtx {
            heap,
            unresolved,
            metrics: &self.metrics,
            iso: self.iso,
        };
        if ctx.iso
            && jobs
                .iter()
                .any(|j| j.meta.flat.wire_identity().is_iso() && j.meta.prim_count() > 0)
        {
            self.metrics.iso_collects.inc();
        }
        let mut changed: u64 = 0;
        let mut per_block: BTreeMap<u32, Vec<DiffRun>> = BTreeMap::new();
        for job in &jobs {
            let meta = job.meta;
            match &job.kind {
                CollectKind::NewBlock { type_serial } => diff.new_blocks.push(NewBlock {
                    serial: meta.serial,
                    name: meta.name.clone(),
                    type_serial: *type_serial,
                    count: meta.count,
                    data: ctx.translate_whole(meta)?,
                }),
                CollectKind::Whole => {
                    let count = meta.prim_count();
                    let data = ctx.translate_whole(meta)?;
                    changed += count;
                    per_block.insert(
                        meta.serial,
                        vec![DiffRun {
                            start: 0,
                            count,
                            data,
                        }],
                    );
                }
                CollectKind::Ranges(ranges) => {
                    let (runs, c) = ctx.translate_ranges(meta, ranges)?;
                    changed += c;
                    per_block.insert(meta.serial, runs);
                }
            }
        }

        let mut fractions = Vec::with_capacity(per_block.len());
        for (serial, runs) in per_block {
            let block_prims = seg
                .block_by_serial(serial)
                .map(BlockMeta::prim_count)
                .unwrap_or(1);
            let run_prims: u64 = runs.iter().map(|r| r.count).sum();
            fractions.push((serial, run_prims as f64 / block_prims.max(1) as f64));
            diff.block_diffs.push(BlockDiff { serial, runs });
        }
        diff.freed = pending.freed.to_vec();
        self.metrics.diffs_collected.inc();
        self.metrics.prims_sent.add(changed);
        self.metrics
            .collected_bytes
            .record(diff.payload_len() as u64);
        Ok((diff, changed, fractions))
    }

    // ==================================================================
    // Diff application (§3.1, inverse direction)
    // ==================================================================

    /// Applies a wire diff to the cached copy of `seg` in `heap`,
    /// keeping `unresolved` in step. Returns whether every block the
    /// diff created has an isomorphic layout (the caller's per-segment
    /// stamp).
    ///
    /// Application is phased: allocate and predict, decode every wire
    /// run into a scratch image, then install the images and the
    /// unresolved-pointer map operations in diff order — so a diff that
    /// fails to decode leaves block contents untouched. Decoded
    /// primitives fully overwrite their byte windows; where runs
    /// overlap, install order equals diff order, the same "later data
    /// wins" rule the server's diff composition uses.
    ///
    /// # Errors
    ///
    /// Wire decoding errors; heap errors on inconsistent diffs.
    pub fn apply(
        &mut self,
        heap: &mut Heap,
        unresolved: &mut HashMap<u64, Mip>,
        seg: SegId,
        diff: &SegmentDiff,
    ) -> Result<bool, CoreError> {
        let _timer = self.metrics.apply_us.start_timer();

        for (serial, ty) in &diff.new_types {
            heap.segment_types_mut(seg).install(*serial, ty.clone());
        }

        // Phase 1: allocate every new block, then turn each new block
        // image and each diff run into a decode job. New blocks arrive
        // in server version-list order; sequential allocation places
        // same-version blocks contiguously ("data layout for cache
        // locality", §3.3).
        for nb in &diff.new_blocks {
            let ty = heap
                .segment(seg)
                .types
                .get(nb.type_serial)
                .ok_or_else(|| {
                    CoreError::Server(format!("diff references unknown type {}", nb.type_serial))
                })?
                .clone();
            heap.alloc_block(seg, nb.serial, nb.name.as_deref(), &ty, nb.count)?;
        }
        let segheap = heap.segment(seg);
        let mut jobs: Vec<DecodeJob<'_>> = Vec::new();
        let mut new_all_iso = true;
        for nb in &diff.new_blocks {
            let meta = segheap.block_by_serial(nb.serial)?;
            new_all_iso &= meta.flat.wire_identity().is_iso();
            let prims = meta.prim_count();
            self.metrics.prims_received.add(prims);
            if prims > 0 {
                jobs.push(DecodeJob {
                    meta,
                    start: 0,
                    count: prims,
                    data: &nb.data,
                });
            }
        }

        // Modified blocks, with client-side last-block prediction: "we
        // predict the next changed block in the diff to be the next
        // consecutive block in memory for the client".
        let mut pred: Option<u64> = None; // end VA of last applied block
        for bd in &diff.block_diffs {
            self.metrics.apply_block_lookups.inc();
            let predicted = pred
                .filter(|_| self.prediction)
                .and_then(|end_va| {
                    let idx = heap.subseg_at(end_va.saturating_sub(1)).ok()?;
                    heap.next_block_at_or_after(idx, end_va)
                })
                .is_some_and(|(_, serial)| serial == bd.serial);
            if predicted {
                self.metrics.apply_pred_hits.inc();
            }
            let meta = segheap.block_by_serial(bd.serial)?;
            pred = Some(meta.end());
            for run in &bd.runs {
                self.metrics.prims_received.add(run.count);
                if run.count > 0 {
                    jobs.push(DecodeJob {
                        meta,
                        start: run.start,
                        count: run.count,
                        data: &run.data,
                    });
                }
            }
        }

        // Phase 2: decode wire runs into pooled scratch images.
        let ctx = XlateCtx {
            heap,
            unresolved,
            metrics: &self.metrics,
            iso: self.iso,
        };
        if ctx.iso && jobs.iter().any(|j| j.meta.flat.wire_identity().is_iso()) {
            self.metrics.iso_applies.inc();
        }
        let decoded = jobs
            .iter()
            .map(|job| ctx.decode_run(job, &mut self.pool))
            .collect::<Result<Vec<DecodedRun>, CoreError>>()?;

        // Phase 3: install images and unresolved-map operations in diff
        // order, then stamp block versions.
        let mut reuses = 0u64;
        let mut allocs = 0u64;
        let mut iso_bytes = 0u64;
        for d in decoded {
            // Clear stale unresolved entries for every pointer field this
            // run rewrote, then record the fields that resolved to a MIP
            // we cannot map locally yet. Skipping the walk when the map is
            // empty is a pure no-op elision (nothing to remove), and it is
            // re-evaluated per run, so a run that inserts entries makes
            // later runs in the same diff walk their ranges.
            // (Isomorphic runs carry no pointer fields, so both lists are
            // empty for them.)
            if !unresolved.is_empty() {
                for &(first_va, stride, count) in &d.clear_ranges {
                    for k in 0..u64::from(count) {
                        unresolved.remove(&(first_va + k * u64::from(stride)));
                    }
                }
            }
            for (field_va, mip) in d.unresolved_inserts {
                unresolved.insert(field_va, mip);
            }
            match d.image {
                RunImage::Scratch { buf, reused } => {
                    if reused {
                        reuses += 1;
                    } else {
                        allocs += 1;
                    }
                    if !buf.is_empty() {
                        heap.bytes_mut_unprotected(d.span_va, buf.len())?
                            .copy_from_slice(&buf);
                    }
                    self.pool.put(buf);
                }
                RunImage::Wire(bytes) => {
                    iso_bytes += bytes.len() as u64;
                    if !bytes.is_empty() {
                        heap.bytes_mut_unprotected(d.span_va, bytes.len())?
                            .copy_from_slice(&bytes);
                    }
                }
            }
        }
        self.metrics.iso_memcpy_bytes.add(iso_bytes);
        self.metrics.pool_reuses.add(reuses);
        self.metrics.pool_allocs.add(allocs);
        self.metrics.pool_buffers.set(self.pool.held() as i64);

        for nb in &diff.new_blocks {
            heap.set_block_version(seg, nb.serial, diff.to_version)?;
        }
        for bd in &diff.block_diffs {
            heap.set_block_version(seg, bd.serial, diff.to_version)?;
        }

        for &serial in &diff.freed {
            // A tombstone for a block this cache never created (e.g. a
            // create+free pair inside one composed chain, or a server
            // being conservative) is simply a no-op.
            let Ok(meta) = heap.segment(seg).block_by_serial(serial) else {
                continue;
            };
            let (bva, bend) = (meta.va, meta.end());
            heap.free_block(seg, serial)?;
            unresolved.retain(|&va, _| !(bva..bend).contains(&va));
        }

        self.metrics.diffs_applied.inc();
        Ok(new_all_iso)
    }
}

/// Builds the MIP for an arbitrary local address (`IW_ptr_to_mip`'s
/// core).
pub(crate) fn mip_for_va(heap: &Heap, va: u64) -> Result<Mip, CoreError> {
    let (seg, meta) = heap.block_at(va)?;
    let rel = (va - meta.va) as u32;
    let prim = meta.flat.prim_containing_byte(rel).ok_or_else(|| {
        CoreError::DanglingPointer(format!(
            "address {va:#x} points into padding of block {}",
            meta.serial
        ))
    })?;
    if u64::from(prim.local_off) != u64::from(rel) {
        return Err(CoreError::DanglingPointer(format!(
            "address {va:#x} points into the middle of a primitive"
        )));
    }
    let block = match &meta.name {
        Some(n) => BlockRef::Name(n.clone()),
        None => BlockRef::Serial(meta.serial),
    };
    Ok(Mip {
        segment: heap.segment(seg).name.clone(),
        block,
        offset: prim.prim_off,
    })
}

/// The block a MIP names, when its segment and block are cached.
fn mip_block<'a>(heap: &'a Heap, mip: &Mip) -> Option<&'a BlockMeta> {
    let seg = heap.segment(heap.segment_id(&mip.segment)?);
    match &mip.block {
        BlockRef::Serial(n) => seg.block_by_serial(*n),
        BlockRef::Name(n) => seg.block_by_name(n),
    }
    .ok()
}

/// Resolves a wire MIP string against locally cached segments.
pub(crate) fn resolve_mip(heap: &Heap, mip_str: &str) -> Result<ResolvedPtr, CoreError> {
    if mip_str.is_empty() {
        return Ok(ResolvedPtr::Null);
    }
    let mip: Mip = mip_str.parse().map_err(CoreError::Wire)?;
    let local = mip_block(heap, &mip)
        .and_then(|meta| Some(meta.va + u64::from(meta.flat.prim_at(mip.offset)?.local_off)));
    Ok(match local {
        Some(va) => ResolvedPtr::Local(va),
        None => ResolvedPtr::Unresolved(mip),
    })
}

/// Resolution outcome for a wire MIP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ResolvedPtr {
    Null,
    Local(u64),
    Unresolved(Mip),
}

/// Read-only view of the state block translation needs.
struct XlateCtx<'a> {
    heap: &'a Heap,
    unresolved: &'a HashMap<u64, Mip>,
    metrics: &'a TranslateMetrics,
    /// Whether the isomorphic fast path may engage
    /// ([`SessionOptions::iso_fast_path`]).
    iso: bool,
}

/// One block's translation work for a collect.
struct CollectJob<'a> {
    meta: &'a BlockMeta,
    kind: CollectKind,
}

/// What part of the block a [`CollectJob`] transmits.
enum CollectKind {
    /// Newly allocated block, translated whole into a [`NewBlock`].
    NewBlock { type_serial: u32 },
    /// Pre-existing block transmitted whole (no-diff modes).
    Whole,
    /// Changed VA ranges within the block, in page-scan order.
    Ranges(Vec<(u64, u64)>),
}

/// One wire run to decode on apply.
struct DecodeJob<'a> {
    meta: &'a BlockMeta,
    start: u64,
    count: u64,
    data: &'a Bytes,
}

/// A decoded run: a scratch image of the run's byte span plus the
/// unresolved-pointer map operations to replay at install time.
///
/// Pointer clears are recorded as compact `(first_va, stride, count)`
/// ranges — one per wire run, not one per pointer — and only walked when
/// the unresolved map is non-empty at install, so the (common) empty-map
/// path allocates nothing per pointer.
struct DecodedRun {
    span_va: u64,
    image: RunImage,
    /// Fields whose MIPs could not be resolved locally, to insert.
    unresolved_inserts: Vec<(u64, Mip)>,
    /// Pointer-field ranges decoded by this run, to clear from the map
    /// (insertions above win — each field appears in at most one op).
    clear_ranges: Vec<(u64, u32, u32)>,
}

/// The bytes a [`DecodedRun`] installs into the mapped segment.
enum RunImage {
    /// Decoded by the general descriptor walk into a pooled scratch
    /// buffer.
    Scratch {
        buf: Vec<u8>,
        /// Whether the buffer came from the pool (for the reuse metrics).
        reused: bool,
    },
    /// Isomorphic fast path: the wire payload *is* the local image, so
    /// install is one direct memcpy into the mapped segment — no
    /// descriptor traversal, no scratch buffer round trip.
    Wire(Bytes),
}

impl XlateCtx<'_> {
    /// Translates a whole block (a new block, or a pre-existing one in a
    /// no-diff mode) into a fresh wire payload.
    fn translate_whole(&self, meta: &BlockMeta) -> Result<Bytes, CoreError> {
        let mut w = WireWriter::with_capacity(self.wire_capacity_for(meta, meta.size() as usize));
        self.translate_range_into(meta, meta.va, meta.end(), &mut 0, &mut w, &mut None)?;
        let data = w.finish();
        if self.iso && meta.flat.wire_identity().is_iso() {
            self.metrics.iso_memcpy_bytes.add(data.len() as u64);
        }
        Ok(data)
    }

    /// Translates the changed VA `ranges` of one block (ascending, in
    /// page-scan order) into merged wire runs, returning them with the
    /// primitive units they carry.
    ///
    /// All ranges share one writer, so each merged run's payload is a
    /// zero-copy slice of the block's buffer — no per-range buffers, no
    /// gather copy. The per-block floor prevents double-emitting a
    /// primitive that spans two dirty pages.
    fn translate_ranges(
        &self,
        meta: &BlockMeta,
        ranges: &[(u64, u64)],
    ) -> Result<(Vec<DiffRun>, u64), CoreError> {
        let total_span: usize = ranges.iter().map(|&(lo, hi)| (hi - lo) as usize).sum();
        let mut w = WireWriter::with_capacity(self.wire_capacity_for(meta, total_span));
        let mut swz_cache: Option<SwizzleCache> = None;
        let mut floor: u64 = 0;
        // Merged runs as (prim start, prim count, byte lo, byte hi) into
        // the shared writer: runs contiguous in primitive offsets
        // coalesce.
        let mut emitted: Vec<(u64, u64, usize, usize)> = Vec::new();
        let mut changed: u64 = 0;
        for &(lo, hi) in ranges {
            let b0 = w.len();
            if let Some((start, count)) =
                self.translate_range_into(meta, lo, hi, &mut floor, &mut w, &mut swz_cache)?
            {
                changed += count;
                let b1 = w.len();
                match emitted.last_mut() {
                    Some(last) if last.0 + last.1 == start && last.3 == b0 => {
                        last.1 += count;
                        last.3 = b1;
                    }
                    _ => emitted.push((start, count, b0, b1)),
                }
            }
        }
        let payload = w.finish();
        if self.iso && meta.flat.wire_identity().is_iso() {
            self.metrics.iso_memcpy_bytes.add(payload.len() as u64);
        }
        let runs = emitted
            .into_iter()
            .map(|(start, count, b0, b1)| DiffRun {
                start,
                count,
                data: payload.slice(b0..b1),
            })
            .collect();
        Ok((runs, changed))
    }

    /// Estimated wire size for translating `span` local bytes of `meta`,
    /// from the layout: fixed-width layouts never expand (padding only
    /// shrinks), while pointers swizzle into length-prefixed MIP strings
    /// and strings gain a length prefix. Over-estimating only costs
    /// transient capacity; under-estimating costs a mid-run regrow.
    fn wire_capacity_for(&self, meta: &BlockMeta, span: usize) -> usize {
        if meta.flat.fixed_wire_size().is_some() {
            return span + 16;
        }
        let local = u64::from(meta.size().max(1));
        let wire = wire_upper(meta.flat.nodes(), self.heap.arch());
        let est = (span as u64).saturating_mul(wire) / local;
        est as usize + 64
    }

    /// Translates the local bytes of `[lo_va, hi_va)` within one block to
    /// wire format, appending to `w`. Primitives inside a contiguous byte
    /// range have consecutive primitive offsets, so each call contributes
    /// at most one run: returns `Some((first primitive offset, primitive
    /// count))` when anything was emitted. `floor` suppresses primitives
    /// already emitted by an earlier overlapping range (a primitive
    /// spanning two dirty pages) and advances past everything emitted
    /// here.
    ///
    /// Translation proceeds run by run (the payoff of isomorphic type
    /// descriptors, §3.3): fixed-size runs use tight per-kind loops,
    /// strings and pointers go element by element.
    fn translate_range_into(
        &self,
        meta: &BlockMeta,
        lo_va: u64,
        hi_va: u64,
        floor: &mut u64,
        w: &mut WireWriter,
        swz_cache: &mut Option<SwizzleCache>,
    ) -> Result<Option<(u64, u64)>, CoreError> {
        if self.iso && meta.flat.wire_identity().is_iso() {
            return self.translate_range_iso(meta, lo_va, hi_va, floor, w);
        }
        let arch = self.heap.arch().clone();
        let little = arch.endian.is_little();
        let slice = self.heap.read_bytes(meta.va, meta.size() as usize)?;
        let rel_lo = (lo_va - meta.va) as u32;
        let rel_hi = (hi_va - meta.va) as u32;
        let mut start: Option<u64> = None;
        let mut total: u64 = 0;
        for mut run in meta.flat.seek_byte_runs(rel_lo) {
            if run.local_off >= rel_hi {
                break;
            }
            // Skip elements already emitted by an earlier range.
            if run.prim_off < *floor {
                let skip = (*floor - run.prim_off).min(u64::from(run.count)) as u32;
                run.prim_off += u64::from(skip);
                run.local_off += skip * run.stride;
                run.count -= skip;
                if run.count == 0 || run.local_off >= rel_hi {
                    continue;
                }
            }
            // Clip to elements starting before rel_hi.
            let span = rel_hi - run.local_off;
            let max_elems = span.div_ceil(run.stride.max(1)).max(1);
            run.count = run.count.min(max_elems);
            match run.kind {
                PrimKind::Ptr => {
                    let size = arch.pointer_size as usize;
                    let mut scratch = String::with_capacity(48);
                    for k in 0..run.count {
                        let off = (run.local_off + k * run.stride) as usize;
                        let window = &slice[off..off + size];
                        let field_va = meta.va + off as u64;
                        self.swizzle_window_into(field_va, window, swz_cache, &mut scratch)?;
                        w.put_str(&scratch);
                    }
                }
                PrimKind::Str { cap } => {
                    for k in 0..run.count {
                        let off = (run.local_off + k * run.stride) as usize;
                        let window = &slice[off..off + cap as usize];
                        w.put_len_bytes(iw_wire::prim::local_str_bytes(window));
                    }
                }
                kind => {
                    let size = kind.local_size(&arch) as usize;
                    encode_fixed_run(
                        w,
                        &slice[run.local_off as usize..],
                        size,
                        run.stride as usize,
                        run.count as usize,
                        little,
                    );
                }
            }
            if start.is_none() {
                start = Some(run.prim_off);
            }
            total += u64::from(run.count);
            *floor = run.prim_off + u64::from(run.count);
        }
        if let Some(c) = swz_cache {
            if c.hits > 0 {
                self.metrics.swizzle_cache_hits.add(c.hits);
                c.hits = 0;
            }
        }
        Ok(start.map(|s| (s, total)))
    }

    /// Isomorphic fast path for [`Self::translate_range_into`]: the
    /// block's local image *is* its wire encoding, so the whole range
    /// collapses to one `memcpy` — no descriptor traversal, no per-run
    /// dispatch. Only the run boundary needs computing: the emitted
    /// primitives are exactly those whose byte extent intersects
    /// `[lo_va, hi_va)` (minus the `floor` suppression), the same set the
    /// descriptor walk emits, and since local bytes equal wire bytes the
    /// payload is byte-identical to the walk's.
    fn translate_range_iso(
        &self,
        meta: &BlockMeta,
        lo_va: u64,
        hi_va: u64,
        floor: &mut u64,
        w: &mut WireWriter,
    ) -> Result<Option<(u64, u64)>, CoreError> {
        if hi_va <= lo_va || meta.prim_count() == 0 {
            return Ok(None);
        }
        let rel_lo = (lo_va - meta.va) as u32;
        let rel_hi = (hi_va - meta.va) as u32;
        // First and last primitives whose byte extent intersects the
        // range: pure arithmetic for homogeneous layouts, two O(depth)
        // tree descents otherwise. A packed layout has no padding, so
        // every in-bounds byte belongs to a primitive.
        let (mut first_prim, mut first_byte, last_prim, end_byte) = match meta.flat.single_run() {
            Some(r) => {
                let s = r.stride.max(1);
                let fp = rel_lo / s;
                let lp = (rel_hi - 1) / s;
                (u64::from(fp), fp * s, u64::from(lp), (lp + 1) * s)
            }
            None => {
                let arch = self.heap.arch();
                let Some(p1) = meta.flat.seek_byte(rel_lo).next() else {
                    return Ok(None);
                };
                let Some(p2) = meta.flat.seek_byte(rel_hi - 1).next() else {
                    return Ok(None);
                };
                (
                    p1.prim_off,
                    p1.local_off,
                    p2.prim_off,
                    p2.local_off + p2.local_size(arch),
                )
            }
        };
        // Skip primitives an earlier overlapping range already emitted.
        if last_prim < *floor {
            return Ok(None);
        }
        if first_prim < *floor {
            let Some(p) = meta.flat.prim_at(*floor) else {
                return Ok(None);
            };
            first_prim = p.prim_off;
            first_byte = p.local_off;
        }
        let len = (end_byte - first_byte) as usize;
        let slice = self.heap.read_bytes(meta.va + u64::from(first_byte), len)?;
        w.put_bytes(slice);
        *floor = last_prim + 1;
        Ok(Some((first_prim, last_prim - first_prim + 1)))
    }

    /// Swizzles one local pointer window into its MIP string, with a
    /// one-entry block cache for pointer-dense translation loops. Appends
    /// the MIP into `out` (cleared first) to avoid per-pointer
    /// allocations.
    fn swizzle_window_into(
        &self,
        field_va: u64,
        window: &[u8],
        cache: &mut Option<SwizzleCache>,
        out: &mut String,
    ) -> Result<(), CoreError> {
        out.clear();
        let va = read_va(window, self.heap.arch());
        if va == 0 {
            if let Some(mip) = self.unresolved.get(&field_va) {
                use std::fmt::Write;
                let _ = write!(out, "{mip}");
            }
            return Ok(());
        }
        if let Some(c) = cache {
            if va >= c.block_lo && va < c.block_hi {
                if let Some(run) = &c.run {
                    let rel = (va - c.block_lo) as u32;
                    let stride = run.stride.max(1);
                    if rel >= run.local_off && (rel - run.local_off).is_multiple_of(stride) {
                        let k = (rel - run.local_off) / stride;
                        if k < run.count {
                            c.hits += 1;
                            let prim_off = run.prim_off + u64::from(k);
                            out.push_str(&c.prefix);
                            if prim_off != 0 {
                                out.push('#');
                                push_u64(out, prim_off);
                            }
                            return Ok(());
                        }
                    }
                }
            }
        }
        // Slow path: full metadata search, then refresh the cache.
        if let Some(c) = cache {
            if c.hits > 0 {
                self.metrics.swizzle_cache_hits.add(c.hits);
            }
        }
        self.metrics.swizzle_cache_misses.inc();
        let (seg, meta) = self.heap.block_at(va)?;
        let mut prefix = String::with_capacity(self.heap.segment(seg).name.len() + 12);
        prefix.push_str(&self.heap.segment(seg).name);
        prefix.push('#');
        match &meta.name {
            Some(n) => prefix.push_str(n),
            None => push_u64(&mut prefix, u64::from(meta.serial)),
        }
        *cache = Some(SwizzleCache {
            block_lo: meta.va,
            block_hi: meta.end(),
            prefix,
            run: meta.flat.single_run(),
            hits: 0,
        });
        let mip = mip_for_va(self.heap, va)?;
        use std::fmt::Write;
        let _ = write!(out, "{mip}");
        Ok(())
    }

    /// Decodes one wire run (`count` primitives starting at `start`) into
    /// a pooled scratch image of the run's byte span, without touching
    /// heap memory. Pointer fields yield ordered unresolved-map
    /// operations that the caller replays at install time. Callers never
    /// build zero-`count` jobs.
    fn decode_run(
        &self,
        job: &DecodeJob<'_>,
        pool: &mut BufferPool,
    ) -> Result<DecodedRun, CoreError> {
        let meta = job.meta;
        let (start, count) = (job.start, job.count);
        let mut r = WireReader::new(job.data.clone());
        let mut unswz_cache: Option<UnswizzleCache> = None;
        let arch = self.heap.arch().clone();
        let first = meta.flat.prim_at(start).ok_or_else(|| {
            CoreError::Server(format!("run start {start} outside block {}", meta.serial))
        })?;
        let last = meta.flat.prim_at(start + count - 1).ok_or_else(|| {
            CoreError::Server(format!(
                "run end {} outside block {}",
                start + count - 1,
                meta.serial
            ))
        })?;
        let span_lo = first.local_off as usize;
        let span_hi = last.local_off as usize + last.local_size(&arch) as usize;
        let span = span_hi - span_lo;
        // Isomorphic layouts: the wire payload is already the local image
        // of the span — install it directly, bypassing the descriptor
        // walk and the scratch buffer entirely. A short payload is the
        // same wire error the general walk's first starved read raises.
        if self.iso && meta.flat.wire_identity().is_iso() {
            if job.data.len() < span {
                return Err(CoreError::Wire(iw_wire::codec::WireError::UnexpectedEof {
                    wanted: span,
                    available: job.data.len(),
                }));
            }
            return Ok(DecodedRun {
                span_va: meta.va + span_lo as u64,
                image: RunImage::Wire(job.data.slice(0..span)),
                unresolved_inserts: Vec::new(),
                clear_ranges: Vec::new(),
            });
        }
        // Packed layouts (primitives tile the block, every window fully
        // rewritten by decode) skip the heap pre-fill: decode overwrites
        // every byte of the span, so any initialized buffer works —
        // reused pool buffers cost nothing.
        let (mut scratch, reused) = if meta.flat.is_packed() {
            pool.get_filled(span)
        } else {
            let (mut s, r) = pool.get(span);
            s.extend_from_slice(self.heap.read_bytes(meta.va + span_lo as u64, span)?);
            (s, r)
        };
        let mut unresolved_inserts: Vec<(u64, Mip)> = Vec::new();
        let mut clear_ranges: Vec<(u64, u32, u32)> = Vec::new();
        let little = arch.endian.is_little();
        let mut remaining = count;
        for mut run in meta.flat.seek_prim_runs(start) {
            if remaining == 0 {
                break;
            }
            run.count = run
                .count
                .min(remaining as u32)
                .min(remaining.min(u64::from(u32::MAX)) as u32);
            remaining -= u64::from(run.count);
            match run.kind {
                PrimKind::Ptr => {
                    let size = arch.pointer_size as usize;
                    clear_ranges.push((meta.va + u64::from(run.local_off), run.stride, run.count));
                    for k in 0..run.count {
                        let loff = run.local_off + k * run.stride;
                        let off = loff as usize - span_lo;
                        let mip_bytes = r.get_len_bytes().map_err(CoreError::Wire)?;
                        let mip_str = std::str::from_utf8(&mip_bytes)
                            .map_err(|_| CoreError::Wire(iw_wire::codec::WireError::InvalidUtf8))?;
                        let window = &mut scratch[off..off + size];
                        match self.resolve_mip_cached(mip_str, &mut unswz_cache)? {
                            ResolvedPtr::Null => {
                                write_va(window, &arch, 0);
                            }
                            ResolvedPtr::Local(va) => {
                                write_va(window, &arch, va);
                            }
                            ResolvedPtr::Unresolved(mip) => {
                                write_va(window, &arch, 0);
                                unresolved_inserts.push((meta.va + u64::from(loff), mip));
                            }
                        }
                    }
                }
                PrimKind::Str { cap } => {
                    for k in 0..run.count {
                        let off = (run.local_off + k * run.stride) as usize - span_lo;
                        let window = &mut scratch[off..off + cap as usize];
                        prim_from_wire(&mut r, run.kind, window, &arch, &mut no_pointers_in)
                            .map_err(CoreError::Wire)?;
                    }
                }
                kind => {
                    let size = kind.local_size(&arch) as usize;
                    let base = run.local_off as usize - span_lo;
                    decode_fixed_run(
                        &mut r,
                        &mut scratch[base..],
                        size,
                        run.stride as usize,
                        run.count as usize,
                        little,
                    )
                    .map_err(CoreError::Wire)?;
                }
            }
        }
        if let Some(c) = &mut unswz_cache {
            if c.hits > 0 {
                self.metrics.unswizzle_cache_hits.add(c.hits);
                c.hits = 0;
            }
        }
        Ok(DecodedRun {
            span_va: meta.va + span_lo as u64,
            image: RunImage::Scratch {
                buf: scratch,
                reused,
            },
            unresolved_inserts,
            clear_ranges,
        })
    }

    /// As [`resolve_mip`], with a one-entry prefix cache for
    /// pointer-dense diff application.
    fn resolve_mip_cached(
        &self,
        mip_str: &str,
        cache: &mut Option<UnswizzleCache>,
    ) -> Result<ResolvedPtr, CoreError> {
        if mip_str.is_empty() {
            return Ok(ResolvedPtr::Null);
        }
        let (prefix, offset) = split_mip_offset(mip_str);
        if let Some(c) = cache {
            if c.prefix == prefix {
                c.hits += 1;
                if let Some(run) = &c.run {
                    if offset >= run.prim_off && offset < run.prim_off + u64::from(run.count) {
                        let k = (offset - run.prim_off) as u32;
                        return Ok(ResolvedPtr::Local(
                            c.block_va + u64::from(run.local_off + k * run.stride),
                        ));
                    }
                }
                return Ok(match c.flat.prim_at(offset) {
                    Some(p) => ResolvedPtr::Local(c.block_va + u64::from(p.local_off)),
                    None => ResolvedPtr::Unresolved(mip_str.parse().map_err(CoreError::Wire)?),
                });
            }
        }
        if let Some(c) = cache {
            if c.hits > 0 {
                self.metrics.unswizzle_cache_hits.add(c.hits);
            }
        }
        self.metrics.unswizzle_cache_misses.inc();
        let mip: Mip = mip_str.parse().map_err(CoreError::Wire)?;
        let Some(meta) = mip_block(self.heap, &mip) else {
            return Ok(ResolvedPtr::Unresolved(mip));
        };
        *cache = Some(UnswizzleCache {
            prefix: prefix.to_string(),
            block_va: meta.va,
            flat: meta.flat.clone(),
            run: meta.flat.single_run(),
            hits: 0,
        });
        match meta.flat.prim_at(mip.offset) {
            Some(p) => Ok(ResolvedPtr::Local(meta.va + u64::from(p.local_off))),
            None => Ok(ResolvedPtr::Unresolved(mip)),
        }
    }
}

/// One-entry swizzle cache: consecutive pointers overwhelmingly target
/// the same block ("blocks modified together in the past tend to be
/// modified together in the future", §3.3), so the block metadata and the
/// MIP prefix are reused across a run of pointers.
struct SwizzleCache {
    block_lo: u64,
    block_hi: u64,
    /// `segment#block` prefix, ready for the offset suffix.
    prefix: String,
    /// Arithmetic lookup when the target block is one homogeneous run.
    run: Option<iw_types::flat::RunRef>,
    /// Hits batched here and flushed to the metrics counter per
    /// translation call, keeping atomics off the per-pointer path.
    hits: u64,
}

/// One-entry unswizzle cache: repeated MIP prefixes resolve to the same
/// block without re-searching the metadata trees.
struct UnswizzleCache {
    prefix: String,
    block_va: u64,
    flat: std::sync::Arc<iw_types::flat::FlatLayout>,
    run: Option<iw_types::flat::RunRef>,
    /// Hits batched here and flushed to the metrics counter per applied
    /// diff, keeping atomics off the per-pointer path.
    hits: u64,
}

/// Splits a MIP string into its `segment#block` prefix and numeric offset
/// (0 when omitted).
fn split_mip_offset(s: &str) -> (&str, u64) {
    if let Some(pos) = s.rfind('#') {
        let tail = &s[pos + 1..];
        if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) && s[..pos].contains('#') {
            if let Ok(off) = tail.parse::<u64>() {
                return (&s[..pos], off);
            }
        }
    }
    (s, 0)
}

fn push_u64(s: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&buf[i..]).expect("digits are ASCII"));
}

/// Estimated wire bytes for one whole value of the layout, walked on the
/// compact node tree (O(tree), not O(primitives)). Pointers swizzle into
/// length-prefixed MIP strings — segment and block names are short, so
/// 48 bytes covers typical swizzled pointers; strings gain a length
/// prefix over their local capacity.
fn wire_upper(nodes: &[FlatNode], arch: &MachineArch) -> u64 {
    nodes
        .iter()
        .map(|n| match n {
            FlatNode::Run { kind, count, .. } => {
                let per = match kind {
                    PrimKind::Ptr => 48,
                    PrimKind::Str { cap } => u64::from(*cap) + 4,
                    kind => u64::from(kind.local_size(arch)),
                };
                u64::from(*count) * per
            }
            FlatNode::Repeat { count, body, .. } => u64::from(*count) * wire_upper(body, arch),
        })
        .sum()
}

/// Bulk-encodes `count` fixed-size primitives (each `size` bytes, spaced
/// `stride` apart in `src`) to big-endian wire format. Packed big-endian
/// runs are a single memcpy; everything else is a tight loop.
fn encode_fixed_run(
    w: &mut WireWriter,
    src: &[u8],
    size: usize,
    stride: usize,
    count: usize,
    little: bool,
) {
    if count == 0 {
        return;
    }
    if stride == size && (!little || size == 1) {
        w.put_bytes(&src[..count * size]);
        return;
    }
    if !little {
        for k in 0..count {
            w.put_bytes(&src[k * stride..k * stride + size]);
        }
        return;
    }
    // Little-endian packed runs: size-specialized bswap loops.
    if stride == size {
        let data = &src[..count * size];
        match size {
            2 => {
                for c in data.chunks_exact(2) {
                    let v = u16::from_le_bytes(c.try_into().expect("2B"));
                    w.put_u16(v);
                }
                return;
            }
            4 => {
                for c in data.chunks_exact(4) {
                    let v = u32::from_le_bytes(c.try_into().expect("4B"));
                    w.put_u32(v);
                }
                return;
            }
            8 => {
                for c in data.chunks_exact(8) {
                    let v = u64::from_le_bytes(c.try_into().expect("8B"));
                    w.put_u64(v);
                }
                return;
            }
            _ => {}
        }
    }
    // Strided or odd-sized: reverse each element through a stack buffer.
    let mut buf = [0u8; 8];
    for k in 0..count {
        let e = &src[k * stride..k * stride + size];
        for i in 0..size {
            buf[i] = e[size - 1 - i];
        }
        w.put_bytes(&buf[..size]);
    }
}

/// Bulk-decodes `count` fixed-size primitives from big-endian wire format
/// into `dst` (the inverse of [`encode_fixed_run`]).
fn decode_fixed_run(
    r: &mut WireReader,
    dst: &mut [u8],
    size: usize,
    stride: usize,
    count: usize,
    little: bool,
) -> Result<(), iw_wire::codec::WireError> {
    if count == 0 {
        return Ok(());
    }
    if stride == size && (!little || size == 1) {
        return r.copy_into(&mut dst[..count * size]);
    }
    if little && stride == size && matches!(size, 2 | 4 | 8) {
        let d = &mut dst[..count * size];
        r.copy_into(d)?;
        match size {
            2 => {
                for c in d.chunks_exact_mut(2) {
                    c.swap(0, 1);
                }
            }
            4 => {
                for c in d.chunks_exact_mut(4) {
                    let v = u32::from_be_bytes((&*c).try_into().expect("4B"));
                    c.copy_from_slice(&v.to_le_bytes());
                }
            }
            _ => {
                for c in d.chunks_exact_mut(8) {
                    let v = u64::from_be_bytes((&*c).try_into().expect("8B"));
                    c.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
        return Ok(());
    }
    let mut buf = [0u8; 8];
    for k in 0..count {
        r.copy_into(&mut buf[..size])?;
        let d = &mut dst[k * stride..k * stride + size];
        if little && size > 1 {
            for i in 0..size {
                d[i] = buf[size - 1 - i];
            }
        } else {
            d.copy_from_slice(&buf[..size]);
        }
    }
    Ok(())
}

/// Reads a local-format pointer word (a simulated VA).
pub(crate) fn read_va(window: &[u8], arch: &MachineArch) -> u64 {
    let little = arch.endian.is_little();
    match window.len() {
        4 => {
            let b: [u8; 4] = window.try_into().expect("4-byte window");
            if little {
                u32::from_le_bytes(b) as u64
            } else {
                u32::from_be_bytes(b) as u64
            }
        }
        8 => {
            let b: [u8; 8] = window.try_into().expect("8-byte window");
            if little {
                u64::from_le_bytes(b)
            } else {
                u64::from_be_bytes(b)
            }
        }
        n => unreachable!("pointer windows are 4 or 8 bytes, not {n}"),
    }
}

/// Writes a local-format pointer word.
pub(crate) fn write_va(window: &mut [u8], arch: &MachineArch, va: u64) {
    let little = arch.endian.is_little();
    match window.len() {
        4 => {
            let v = va as u32;
            window.copy_from_slice(&if little {
                v.to_le_bytes()
            } else {
                v.to_be_bytes()
            });
        }
        8 => {
            window.copy_from_slice(&if little {
                va.to_le_bytes()
            } else {
                va.to_be_bytes()
            });
        }
        n => unreachable!("pointer windows are 4 or 8 bytes, not {n}"),
    }
}

/// Most buffers the scratch pool will hold on to; excess buffers are
/// simply dropped.
const POOL_MAX_BUFS: usize = 64;

/// Largest buffer capacity the pool retains, so one giant apply does not
/// pin its peak footprint for the session's lifetime.
const POOL_MAX_CAP: usize = 4 << 20;

/// A small free-list of apply-side scratch buffers, so steady-state diff
/// application stops allocating per run. Capacity is retained up to
/// [`POOL_MAX_CAP`].
#[derive(Debug, Default)]
struct BufferPool {
    bufs: Vec<Vec<u8>>,
}

impl BufferPool {
    /// Takes a cleared buffer with at least `cap` capacity, preferring a
    /// pooled one. Returns the buffer and whether it was reused.
    fn get(&mut self, cap: usize) -> (Vec<u8>, bool) {
        // Last-in first-out keeps the hottest buffer (and its pages) in
        // use; any pooled buffer is acceptable — `Vec` grows on demand.
        match self.bufs.pop() {
            Some(mut b) => {
                b.clear();
                b.reserve(cap);
                (b, true)
            }
            None => (Vec::with_capacity(cap), false),
        }
    }

    /// Takes a buffer with exactly `len` initialized bytes of unspecified
    /// content, for callers that overwrite every byte before reading any.
    /// A reused pooled buffer keeps its old contents where it can, paying
    /// neither the zero-fill of a fresh allocation nor a pre-fill copy.
    fn get_filled(&mut self, len: usize) -> (Vec<u8>, bool) {
        match self.bufs.pop() {
            Some(mut b) => {
                // Shrinking truncates for free; growing zero-fills only
                // the new tail.
                b.resize(len, 0);
                (b, true)
            }
            None => (vec![0u8; len], false),
        }
    }

    /// Returns a buffer to the pool (dropped when the pool is full or the
    /// buffer is oversized). Contents are left in place — [`Self::get`]
    /// clears on the way out and [`Self::get_filled`] overwrites.
    fn put(&mut self, buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_CAP {
            return;
        }
        if self.bufs.len() < POOL_MAX_BUFS {
            self.bufs.push(buf);
        }
    }

    /// Buffers currently pooled (for the gauge).
    fn held(&self) -> usize {
        self.bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_pool_reuses() {
        let mut pool = BufferPool::default();
        let (b, reused) = pool.get(100);
        assert!(!reused);
        pool.put(b);
        assert_eq!(pool.held(), 1);
        let (b, reused) = pool.get(10);
        assert!(reused);
        assert!(b.is_empty());
        assert_eq!(pool.held(), 0);
    }

    #[test]
    fn oversized_buffers_not_pooled() {
        let mut pool = BufferPool::default();
        pool.put(Vec::with_capacity(POOL_MAX_CAP + 1));
        pool.put(Vec::new());
        assert_eq!(pool.held(), 0);
    }
}
