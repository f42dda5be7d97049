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
//! Translation interprets each block's copy program
//! ([`iw_types::program`]): the flat op list its layout compiled to once,
//! at flatten time. One walk serves both directions. Collect walks a dirty
//! byte range and appends wire bytes; apply walks the span of a wire run
//! and fills a scratch image of it. The walk enters at the first
//! primitive the range (or the floor) admits, mid-element included, and
//! stops at the range's byte bound, by arithmetic on the ops alone. Whole
//! iterations of a fixed-size repeat body move column by column in bulk
//! ([`iw_types::program::Columns`]); pointers resolve through one-entry
//! caches that allocate nothing on a hit. An isomorphic layout (§3.3) is
//! the one-op `copy` program, so its translation is one `memcpy` through
//! the same walk; `iso_fast_path` off runs the unfused programs instead,
//! as the differential reference.
//!
//! All of a modified block's ranges translate into one wire buffer whose
//! runs are zero-copy slices of it, and apply decodes into pooled scratch
//! buffers so steady-state application stops allocating.

use std::collections::{BTreeMap, HashMap, HashSet};

use bytes::Bytes;

use iw_heap::{BlockMeta, Heap, SegId};
use iw_telemetry::Registry;
use iw_types::arch::MachineArch;
use iw_types::desc::PrimKind;
use iw_types::flat::FlatLayout;
use iw_types::program::{prim_len, steps, swap, Columns, Op, Program};
use iw_wire::codec::{WireError, WireReader, WireWriter};
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};
use iw_wire::mip::{BlockRef, Mip};

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
    /// [`SessionOptions::iso_fast_path`]: run the fused programs.
    fused: bool,
    metrics: TranslateMetrics,
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
            fused: opts.iso_fast_path,
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
            fused: self.fused,
        };
        if jobs
            .iter()
            .any(|j| ctx.single_copy(j.meta) && j.meta.prim_count() > 0)
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
    /// diff created translates by a one-copy program, i.e. has an
    /// isomorphic layout (the caller's per-segment stamp).
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
    /// Wire decoding errors, including a run payload with bytes left
    /// over ([`WireError::TrailingBytes`]); [`CoreError::Server`] for a
    /// run outside its block; heap errors on inconsistent diffs.
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
            new_all_iso &= meta.flat.program().single_copy().is_some();
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
            fused: self.fused,
        };
        let decoded = jobs
            .iter()
            .map(|job| ctx.decode_run(job, &mut self.pool))
            .collect::<Result<Vec<DecodedRun>, CoreError>>()?;
        let mut iso_bytes = 0u64;
        for (job, d) in jobs.iter().zip(&decoded) {
            if ctx.single_copy(job.meta) {
                iso_bytes += d.buf.len() as u64;
            }
        }
        if iso_bytes > 0 {
            self.metrics.iso_applies.inc();
        }

        // Phase 3: install images and unresolved-map entries in diff
        // order, then stamp block versions.
        let mut reuses = 0u64;
        let mut allocs = 0u64;
        for d in decoded {
            // Every pointer field in the span was rewritten, and the
            // unresolved map holds only pointer fields: drop its entries
            // in the span, then record the fields that resolved to a MIP
            // we cannot map locally yet. The check is per run, so entries
            // one run inserts are cleared by a later run that rewrites
            // them.
            let span = d.span_va..d.span_va + d.buf.len() as u64;
            if !unresolved.is_empty() {
                unresolved.retain(|va, _| !span.contains(va));
            }
            unresolved.extend(d.unresolved_inserts);
            if d.reused {
                reuses += 1;
            } else {
                allocs += 1;
            }
            if !d.buf.is_empty() {
                heap.bytes_mut_unprotected(d.span_va, d.buf.len())?
                    .copy_from_slice(&d.buf);
            }
            self.pool.put(d.buf);
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
            if heap.segment(seg).block_by_serial(serial).is_ok() {
                drop_block(heap, unresolved, seg, serial)?;
            }
        }

        self.metrics.diffs_applied.inc();
        Ok(new_all_iso)
    }
}

/// Frees block `serial` of `seg` and forgets the unresolved pointer
/// fields that lived in it.
pub(crate) fn drop_block(
    heap: &mut Heap,
    unresolved: &mut HashMap<u64, Mip>,
    seg: SegId,
    serial: u32,
) -> Result<(), CoreError> {
    let meta = heap.segment(seg).block_by_serial(serial)?;
    let (bva, bend) = (meta.va, meta.end());
    heap.free_block(seg, serial)?;
    unresolved.retain(|&va, _| !(bva..bend).contains(&va));
    Ok(())
}

/// Unswizzles the pointers into a segment that is leaving the cache:
/// every pointer field in the `others` segments that points into one of
/// `target`'s blocks becomes an unresolved MIP (its local word 0), so the
/// other caches stay usable and re-fetch the target on next use.
/// Unresolved entries whose *field* lived in `target` are dropped.
pub(crate) fn demote_pointers_into(
    heap: &mut Heap,
    unresolved: &mut HashMap<u64, Mip>,
    target: SegId,
    others: &[SegId],
) -> Result<(), CoreError> {
    let spans: Vec<(u64, u64)> = heap
        .segment(target)
        .blocks()
        .map(|b| (b.va, b.end()))
        .collect();
    let arch = heap.arch();
    let size = arch.pointer_size as usize;
    let mut demotions: Vec<(u64, Mip)> = Vec::new();
    for &other in others {
        for meta in heap.segment(other).blocks() {
            let slice = heap.read_bytes(meta.va, meta.size() as usize)?;
            for run in meta.flat.runs().filter(|r| r.kind == PrimKind::Ptr) {
                for k in 0..run.count {
                    let off = (run.local_off + k * run.stride) as usize;
                    let va = read_va(&slice[off..off + size], arch);
                    if va != 0 && spans.iter().any(|&(lo, hi)| (lo..hi).contains(&va)) {
                        demotions.push((meta.va + off as u64, mip_for_va(heap, va)?));
                    }
                }
            }
        }
    }
    for (field_va, mip) in demotions {
        heap.bytes_mut_unprotected(field_va, size)?.fill(0);
        unresolved.insert(field_va, mip);
    }
    unresolved.retain(|&va, _| !spans.iter().any(|&(lo, hi)| (lo..hi).contains(&va)));
    Ok(())
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
    /// Whether to run the fused programs ([`SessionOptions::iso_fast_path`];
    /// off runs the unfused ones).
    fused: bool,
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
/// unresolved-pointer entries to record at install time.
struct DecodedRun {
    span_va: u64,
    buf: Vec<u8>,
    /// Whether the buffer came from the pool (for the reuse metrics).
    reused: bool,
    /// Fields whose MIPs could not be resolved locally, to insert.
    unresolved_inserts: Vec<(u64, Mip)>,
}

impl XlateCtx<'_> {
    /// The program translation runs for `meta`.
    fn program<'m>(&self, meta: &'m BlockMeta) -> &'m Program {
        if self.fused {
            meta.flat.program()
        } else {
            meta.flat.unfused_program()
        }
    }

    /// Whether `meta` translates by the one-copy program, for the
    /// `client.translate.iso_*` counters (never under the unfused switch).
    fn single_copy(&self, meta: &BlockMeta) -> bool {
        self.fused && meta.flat.program().single_copy().is_some()
    }

    /// Translates a whole block (a new block, or a pre-existing one in a
    /// no-diff mode) into a fresh wire payload.
    fn translate_whole(&self, meta: &BlockMeta) -> Result<Bytes, CoreError> {
        let mut w = WireWriter::with_capacity(self.wire_capacity_for(meta, meta.size() as usize));
        Encoder::new(self, meta, &mut w, &mut None)?.range(meta, meta.va, meta.end(), &mut 0)?;
        let data = w.finish();
        if self.single_copy(meta) {
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
        let mut enc = Encoder::new(self, meta, &mut w, &mut swz_cache)?;
        for &(lo, hi) in ranges {
            let b0 = enc.w.len();
            if let Some((start, count)) = enc.range(meta, lo, hi, &mut floor)? {
                changed += count;
                let b1 = enc.w.len();
                match emitted.last_mut() {
                    Some(last) if last.0 + last.1 == start && last.3 == b0 => {
                        last.1 += count;
                        last.3 = b1;
                    }
                    _ => emitted.push((start, count, b0, b1)),
                }
            }
        }
        drop(enc);
        let payload = w.finish();
        if self.single_copy(meta) {
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
        let wire = wire_upper(meta.flat.program().ops());
        let est = (span as u64).saturating_mul(wire) / local;
        est as usize + 64
    }

    /// Swizzles one local pointer window that the one-entry block cache
    /// did not resolve ([`SwizzleCache::prim_at`]) into its MIP string,
    /// and refreshes the cache for the pointers that follow. Appends the
    /// MIP into `out` (cleared first) to avoid per-pointer allocations.
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
        // Full metadata search, then refresh the cache.
        if let Some(c) = cache {
            self.metrics
                .swizzle_cache_hits
                .add(std::mem::take(&mut c.hits));
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
        *cache = Some(SwizzleCache::new(
            meta.va..meta.end(),
            prefix.as_bytes(),
            meta.flat.single_run(),
        ));
        let mip = mip_for_va(self.heap, va)?;
        use std::fmt::Write;
        let _ = write!(out, "{mip}");
        Ok(())
    }

    /// Decodes one wire run (`count` primitives starting at `start`) into
    /// a pooled scratch image of the run's byte span, without touching
    /// heap memory. Pointer fields that resolve to no cached block yield
    /// unresolved-map entries the caller records at install time. Callers
    /// never build zero-`count` jobs.
    fn decode_run(
        &self,
        job: &DecodeJob<'_>,
        pool: &mut BufferPool,
    ) -> Result<DecodedRun, CoreError> {
        let meta = job.meta;
        let first = meta.flat.prim_at(job.start).ok_or_else(|| {
            CoreError::Server(format!(
                "run start {} outside block {}",
                job.start, meta.serial
            ))
        })?;
        let last = job
            .start
            .checked_add(job.count - 1)
            .and_then(|p| meta.flat.prim_at(p))
            .ok_or_else(|| {
                CoreError::Server(format!(
                    "run of {} from {} overruns block {}",
                    job.count, job.start, meta.serial
                ))
            })?;
        let arch = self.heap.arch();
        let (lo, hi) = (
            first.local_off as usize,
            (last.local_off + last.local_size(arch)) as usize,
        );
        // The program writes every byte of the span (padding from the
        // current image), so the scratch buffer needs no pre-fill.
        let (out, reused) = pool.get_filled(hi - lo);
        let window = Window {
            flat: &meta.flat,
            lo,
            hi,
            floor: job.start,
        };
        let mut dec = Decoder {
            ctx: self,
            arch,
            old: self.heap.read_bytes(meta.va, meta.size() as usize)?,
            block_va: meta.va,
            r: WireReader::new(job.data.clone()),
            out,
            base: lo,
            unswz: None,
            unresolved_inserts: Vec::new(),
        };
        walk(
            &mut dec,
            &window,
            self.program(meta).ops(),
            0,
            0,
            &mut Emitted::default(),
        )?;
        if !dec.r.is_empty() {
            return Err(WireError::TrailingBytes {
                len: dec.r.remaining(),
            }
            .into());
        }
        if let Some(c) = &dec.unswz {
            if c.hits > 0 {
                self.metrics.unswizzle_cache_hits.add(c.hits);
            }
        }
        Ok(DecodedRun {
            span_va: meta.va + lo as u64,
            buf: dec.out,
            reused,
            unresolved_inserts: dec.unresolved_inserts,
        })
    }

    /// Resolves a wire MIP the one-entry cache did not ([`UnswizzleCache::
    /// resolve`]): parses it, looks its block up, and caches the block's
    /// `segment#block` prefix for the MIPs that follow.
    fn resolve_mip_miss(
        &self,
        mip: &[u8],
        cache: &mut Option<UnswizzleCache>,
    ) -> Result<ResolvedPtr, CoreError> {
        if let Some(c) = cache {
            self.metrics
                .unswizzle_cache_hits
                .add(std::mem::take(&mut c.hits));
        }
        self.metrics.unswizzle_cache_misses.inc();
        let parsed: Mip = std::str::from_utf8(mip)
            .map_err(|_| WireError::InvalidUtf8)?
            .parse()?;
        let Some(meta) = mip_block(self.heap, &parsed) else {
            return Ok(ResolvedPtr::Unresolved(parsed));
        };
        // The prefix is the MIP without its `#offset` part, if any.
        let prefix_len = if mip.iter().filter(|&&b| b == b'#').count() == 2 {
            mip.iter()
                .rposition(|&b| b == b'#')
                .expect("two separators")
        } else {
            mip.len()
        };
        *cache = Some(UnswizzleCache {
            prefix: mip[..prefix_len].to_vec(),
            block_va: meta.va,
            flat: meta.flat.clone(),
            run: meta.flat.single_run(),
            hits: 0,
        });
        match meta.flat.prim_at(parsed.offset) {
            Some(p) => Ok(ResolvedPtr::Local(meta.va + u64::from(p.local_off))),
            None => Ok(ResolvedPtr::Unresolved(parsed)),
        }
    }
}

/// One direction of translation: what each op does to its bytes. [`walk`]
/// decides which ops and iterations a window reaches.
trait Pass {
    /// Translates the local bytes `[s, e)` of one element op: a whole
    /// number of its elements.
    fn op(&mut self, op: Op, s: usize, e: usize) -> Result<(), CoreError>;

    /// Translates `n` whole iterations, from local offset `at`, of a
    /// fixed-size repeat body.
    fn columns(&mut self, cols: &Columns, at: usize, n: usize) -> Result<(), CoreError>;
}

/// Where a walk translates: the primitives whose local extent meets the
/// byte window `[lo, hi)` of a block, from primitive `floor` on.
struct Window<'f> {
    /// The block's layout: the primitive boundaries inside a copy of
    /// mixed fields.
    flat: &'f FlatLayout,
    lo: usize,
    hi: usize,
    floor: u64,
}

/// The primitives a walk translated: the first one's offset, and how
/// many (they are consecutive).
#[derive(Default)]
struct Emitted {
    first: Option<u64>,
    count: u64,
}

impl Emitted {
    fn add(&mut self, prim: u64, n: u64) {
        if n > 0 {
            self.first.get_or_insert(prim);
            self.count += n;
        }
    }
}

/// Runs `pass` over the primitives of `ops`, laid out from local offset
/// `at` and primitive offset `prim`, that `win` selects, and records them
/// in `got`. The walk enters mid-element and stops at the byte bound by
/// arithmetic on the ops; only a copy of mixed fields that the window
/// cuts asks the layout where its primitives start.
fn walk(
    pass: &mut impl Pass,
    win: &Window<'_>,
    ops: &[Op],
    mut at: usize,
    mut prim: u64,
    got: &mut Emitted,
) -> Result<(), CoreError> {
    for (op, body) in steps(ops) {
        if at >= win.hi {
            break;
        }
        let end = at + op.local_len() as usize;
        let (size, n) = match op {
            Op::Copy { width, prims, .. } => (usize::from(width), u64::from(prims)),
            Op::Swap { width, count } | Op::Ptr { width, count } => {
                (usize::from(width), u64::from(count))
            }
            Op::Str { cap, count } => (cap as usize, u64::from(count)),
            Op::Skip { .. } => (0, 0),
            Op::Repeat { count, .. } => (0, u64::from(count) * prim_len(body)),
        };
        // Padding (ops with no primitives) is in any window it meets.
        if end > win.lo && (n == 0 || prim + n > win.floor) {
            match op {
                Op::Repeat { count, stride, .. } => {
                    let it = (count as usize, stride as usize);
                    repeat(pass, win, body, (at, prim), it, got)?;
                }
                Op::Skip { .. } => pass.op(op, at.max(win.lo), end.min(win.hi))?,
                _ if at >= win.lo && end <= win.hi && prim >= win.floor => {
                    pass.op(op, at, end)?;
                    got.add(prim, n);
                }
                Op::Copy { width: 0, .. } => mixed_copy(pass, win, op, at, end, got)?,
                op => {
                    // Elements ending after `lo`, from the floor on, that
                    // start before `hi`.
                    let from_lo = (win.lo.saturating_sub(at) / size) as u64;
                    let k0 = from_lo.max(win.floor.saturating_sub(prim));
                    let k1 = n.min((win.hi - at).div_ceil(size) as u64);
                    if k0 < k1 {
                        pass.op(op, at + k0 as usize * size, at + k1 as usize * size)?;
                        got.add(prim + k0, k1 - k0);
                    }
                }
            }
        }
        at = end;
        prim += n;
    }
    Ok(())
}

/// [`walk`] over the `(count, stride)` iterations of a repeat at local
/// and primitive offsets `(at, prim)`: runs of whole iterations (inside
/// the window, past the floor) in bulk, cut ones by a nested walk.
fn repeat(
    pass: &mut impl Pass,
    win: &Window<'_>,
    body: &[Op],
    (at, prim): (usize, u64),
    (count, stride): (usize, usize),
    got: &mut Emitted,
) -> Result<(), CoreError> {
    let per = prim_len(body);
    let below = win.floor.saturating_sub(prim);
    // The first iteration holding a primitive at or past the floor, and
    // the first holding none below it.
    let (first, whole_from) = match per {
        0 => (0, 0),
        per => ((below / per) as usize, below.div_ceil(per) as usize),
    };
    let mut i = (win.lo.saturating_sub(at) / stride).max(first);
    let end = count.min((win.hi - at).div_ceil(stride));
    let mut cols = None;
    while i < end {
        let (b, p) = (at + i * stride, prim + i as u64 * per);
        let n = if i >= whole_from && b >= win.lo && b + stride <= win.hi {
            ((win.hi - b) / stride).min(end - i)
        } else {
            0
        };
        if n == 0 {
            walk(pass, win, body, b, p, got)?;
        } else {
            if let Some(c) = cols.get_or_insert_with(|| Columns::of(body)) {
                pass.columns(c, b, n)?;
            } else {
                let all = Window {
                    lo: 0,
                    hi: usize::MAX,
                    floor: 0,
                    ..*win
                };
                for k in 0..n {
                    walk(pass, &all, body, b + k * stride, 0, &mut Emitted::default())?;
                }
            }
            got.add(p, n as u64 * per);
        }
        i += n.max(1);
    }
    Ok(())
}

/// [`walk`] over a copy of mixed fields at `[at, end)` that the window
/// cuts: its layout says where the primitives at the cuts start and end.
fn mixed_copy(
    pass: &mut impl Pass,
    win: &Window<'_>,
    op: Op,
    at: usize,
    end: usize,
    got: &mut Emitted,
) -> Result<(), CoreError> {
    let flat = win.flat;
    let hi = win.hi.min(end);
    let first = match flat.prim_ending_after(at.max(win.lo) as u32) {
        Some(p) if p.prim_off < win.floor => flat.prim_at(win.floor),
        p => p,
    };
    let Some(first) = first.filter(|p| (p.local_off as usize) < hi) else {
        return Ok(());
    };
    let last = flat
        .prim_ending_after((hi - 1) as u32)
        .expect("a copy has no padding");
    let e = (last.local_off + last.local_size(flat.arch())) as usize;
    pass.op(op, first.local_off as usize, e)?;
    got.add(first.prim_off, last.prim_off - first.prim_off + 1);
    Ok(())
}

/// Runs a program in the collect direction over one block's local image,
/// appending wire bytes.
struct Encoder<'a, 'w> {
    ctx: &'a XlateCtx<'a>,
    local: &'a [u8],
    block_va: u64,
    w: &'w mut WireWriter,
    swz: &'w mut Option<SwizzleCache>,
    /// Reused MIP buffer.
    mip: String,
    /// Wire MIPs of cache hits on their way into the frame.
    mips: Vec<u8>,
}

impl<'a, 'w> Encoder<'a, 'w> {
    /// An encoder over `meta`'s local image, appending to `w`.
    fn new(
        ctx: &'a XlateCtx<'a>,
        meta: &BlockMeta,
        w: &'w mut WireWriter,
        swz: &'w mut Option<SwizzleCache>,
    ) -> Result<Self, CoreError> {
        Ok(Encoder {
            ctx,
            local: ctx.heap.read_bytes(meta.va, meta.size() as usize)?,
            block_va: meta.va,
            w,
            swz,
            mip: String::new(),
            mips: Vec::new(),
        })
    }

    /// Translates the local bytes of `[lo_va, hi_va)` within the block:
    /// every primitive whose extent meets the range, from `floor` on.
    /// Primitives inside a contiguous byte range have consecutive
    /// primitive offsets, so each call contributes at most one run:
    /// returns `Some((first primitive offset, primitive count))` when
    /// anything was emitted. `floor` suppresses primitives already
    /// emitted by an earlier overlapping range (a primitive spanning two
    /// dirty pages) and advances past everything emitted here.
    fn range(
        &mut self,
        meta: &BlockMeta,
        lo_va: u64,
        hi_va: u64,
        floor: &mut u64,
    ) -> Result<Option<(u64, u64)>, CoreError> {
        let window = Window {
            flat: &meta.flat,
            lo: (lo_va - meta.va) as usize,
            hi: (hi_va - meta.va) as usize,
            floor: *floor,
        };
        let mut got = Emitted::default();
        let ops = self.ctx.program(meta).ops();
        walk(self, &window, ops, 0, 0, &mut got)?;
        Ok(got.first.map(|first| {
            *floor = first + got.count;
            (first, got.count)
        }))
    }
}

/// Flushes the swizzle-cache hits batched over the encoder's ranges.
impl Drop for Encoder<'_, '_> {
    fn drop(&mut self) {
        if let Some(c) = self.swz {
            if c.hits > 0 {
                let hits = std::mem::take(&mut c.hits);
                self.ctx.metrics.swizzle_cache_hits.add(hits);
            }
        }
    }
}

impl Pass for Encoder<'_, '_> {
    fn op(&mut self, op: Op, s: usize, e: usize) -> Result<(), CoreError> {
        let local = &self.local[s..e];
        match op {
            Op::Copy { .. } => self.w.put_bytes(local),
            // A struct field goes through the stack, not a bulk slot.
            Op::Swap { width, .. } if local.len() <= 8 => {
                let mut b = [0u8; 8];
                swap(width.into(), local, &mut b[..local.len()]);
                self.w.put_bytes(&b[..local.len()]);
            }
            Op::Swap { width, .. } => swap(width.into(), local, self.w.put_zeroed(e - s)),
            Op::Ptr { width, .. } => {
                // MIPs of pointers into the cached block gather in
                // `mips` and go into the frame in one copy; a null,
                // unresolved or missed pointer takes the full swizzle.
                let arch = self.ctx.heap.arch();
                let mut held = 0;
                for (k, window) in local.chunks_exact(width.into()).enumerate() {
                    let va = read_va(window, arch);
                    if let Some(c) = self.swz.as_mut() {
                        if let Some(prim_off) = c.prim_at(va) {
                            c.hits += 1;
                            if self.mips.len() < held + c.room() {
                                self.mips.resize(2 * (held + c.room()), 0);
                            }
                            held += c.put_mip(prim_off, &mut self.mips[held..]);
                            continue;
                        }
                    }
                    self.w.put_bytes(&self.mips[..held]);
                    held = 0;
                    let field_va = self.block_va + (s + k * usize::from(width)) as u64;
                    self.ctx
                        .swizzle_window_into(field_va, window, self.swz, &mut self.mip)?;
                    self.w.put_str(&self.mip);
                }
                self.w.put_bytes(&self.mips[..held]);
            }
            Op::Str { cap, .. } => {
                for window in local.chunks_exact(cap as usize) {
                    self.w.put_len_bytes(iw_wire::prim::local_str_bytes(window));
                }
            }
            Op::Skip { .. } | Op::Repeat { .. } => {}
        }
        Ok(())
    }

    fn columns(&mut self, cols: &Columns, at: usize, n: usize) -> Result<(), CoreError> {
        let local = &self.local[at..at + n * cols.stride()];
        cols.encode(local, self.w.put_zeroed(n * cols.wire_len()));
        Ok(())
    }
}

/// Runs a program in the apply direction: wire bytes into a scratch
/// image of one run's span.
struct Decoder<'a> {
    ctx: &'a XlateCtx<'a>,
    arch: &'a MachineArch,
    /// The block's current local image (padding is kept from it).
    old: &'a [u8],
    block_va: u64,
    r: WireReader,
    /// The scratch image; `out[i]` is local byte `base + i`.
    out: Vec<u8>,
    base: usize,
    unswz: Option<UnswizzleCache>,
    unresolved_inserts: Vec<(u64, Mip)>,
}

impl Pass for Decoder<'_> {
    fn op(&mut self, op: Op, s: usize, e: usize) -> Result<(), CoreError> {
        let out = &mut self.out[s - self.base..e - self.base];
        match op {
            Op::Copy { .. } => self.r.copy_into(out)?,
            Op::Swap { width, .. } => self.r.with_bytes(e - s, |w| swap(width.into(), w, out))?,
            Op::Skip { .. } => out.copy_from_slice(&self.old[s..e]),
            Op::Ptr { width, .. } => {
                for (k, window) in out.chunks_exact_mut(width.into()).enumerate() {
                    // A null or cached-prefix MIP resolves in place, with
                    // nothing allocated; any other is copied out for the
                    // full parse.
                    let cache = &mut self.unswz;
                    let hit = self.r.with_len_bytes(|mip| match mip {
                        [] => Ok(0),
                        _ => cache
                            .as_mut()
                            .and_then(|c| c.resolve(mip))
                            .ok_or_else(|| mip.to_vec()),
                    })?;
                    let va = match hit {
                        Ok(va) => va,
                        Err(mip) => match self.ctx.resolve_mip_miss(&mip, &mut self.unswz)? {
                            ResolvedPtr::Local(va) => va,
                            ResolvedPtr::Null => 0,
                            ResolvedPtr::Unresolved(mip) => {
                                let field_va = self.block_va + (s + k * usize::from(width)) as u64;
                                self.unresolved_inserts.push((field_va, mip));
                                0
                            }
                        },
                    };
                    write_va(window, self.arch, va);
                }
            }
            Op::Str { cap, .. } => {
                for window in out.chunks_exact_mut(cap as usize) {
                    self.r.with_len_bytes(|b| {
                        if b.len() >= window.len() {
                            return Err(WireError::LengthOverflow {
                                len: b.len() as u64,
                            });
                        }
                        window[..b.len()].copy_from_slice(b);
                        window[b.len()..].fill(0);
                        Ok(())
                    })??;
                }
            }
            Op::Repeat { .. } => {}
        }
        Ok(())
    }

    fn columns(&mut self, cols: &Columns, at: usize, n: usize) -> Result<(), CoreError> {
        let local = at..at + n * cols.stride();
        let out = &mut self.out[local.start - self.base..local.end - self.base];
        let old = &self.old[local];
        self.r
            .with_bytes(n * cols.wire_len(), |wire| cols.decode(wire, out, old))?;
        Ok(())
    }
}

/// One-entry swizzle cache: consecutive pointers overwhelmingly target
/// the same block ("blocks modified together in the past tend to be
/// modified together in the future", §3.3), so the block metadata and the
/// MIP prefix are reused across a run of pointers.
struct SwizzleCache {
    block_lo: u64,
    block_hi: u64,
    /// The head of every wire MIP into the block: room for the `u32`
    /// length, the `segment#block` prefix and `#`, zero-padded to whole
    /// 16-byte chunks so that it copies in fixed-size moves.
    head: Vec<u8>,
    /// Where the `#` sits in `head`.
    hash: usize,
    /// Arithmetic lookup when the target block is one homogeneous run.
    run: Option<iw_types::flat::RunRef>,
    /// The run's stride as a shift, when it is a power of two.
    shift: Option<u32>,
    /// Hits batched here and flushed to the metrics counter when the
    /// encoder using the cache is dropped, keeping atomics off the
    /// per-pointer path.
    hits: u64,
}

/// Digits in the largest `u64`.
const U64_DIGITS: usize = 20;

impl SwizzleCache {
    fn new(
        block: std::ops::Range<u64>,
        prefix: &[u8],
        run: Option<iw_types::flat::RunRef>,
    ) -> Self {
        let hash = 4 + prefix.len();
        let mut head = Vec::with_capacity((hash + 1).next_multiple_of(16));
        head.extend_from_slice(&[0; 4]);
        head.extend_from_slice(prefix);
        head.push(b'#');
        head.resize((hash + 1).next_multiple_of(16), 0);
        SwizzleCache {
            block_lo: block.start,
            block_hi: block.end,
            head,
            hash,
            // A one-element run may have stride 0: any shift serves.
            shift: run
                .map(|r| r.stride.max(1))
                .filter(|s| s.is_power_of_two())
                .map(u32::trailing_zeros),
            run,
            hits: 0,
        }
    }

    /// Bytes [`SwizzleCache::put_mip`] may write to.
    fn room(&self) -> usize {
        self.head.len() + U64_DIGITS + 8
    }

    /// The primitive offset `va` names when it is a primitive of the
    /// cached block and that block is one homogeneous run.
    fn prim_at(&self, va: u64) -> Option<u64> {
        if va < self.block_lo || va >= self.block_hi {
            return None;
        }
        let run = self.run.as_ref()?;
        let rel = ((va - self.block_lo) as u32).checked_sub(run.local_off)?;
        let k = match self.shift {
            Some(shift) => (rel & ((1 << shift) - 1) == 0).then_some(rel >> shift)?,
            None => (rel % run.stride == 0).then(|| rel / run.stride)?,
        };
        (k < run.count).then(|| run.prim_off + u64::from(k))
    }

    /// Writes the wire MIP of primitive `prim_off` of the cached block at
    /// the front of `out` — its `u32` length, the prefix and, unless the
    /// offset is 0, `#` and the offset's digits, formatted eight at a
    /// time — and returns its length. Every store has a fixed size, so
    /// `out` needs [`SwizzleCache::room`] bytes; those past the MIP are
    /// left as garbage.
    fn put_mip(&self, prim_off: u64, out: &mut [u8]) -> usize {
        let out = &mut out[..self.room()];
        for (to, from) in out.chunks_exact_mut(16).zip(self.head.chunks_exact(16)) {
            to.copy_from_slice(from);
        }
        let mut end = self.hash;
        if prim_off != 0 {
            // The leading 1–8 digits, then up to two groups of eight.
            let (mut lead, mut groups, mut n) = (prim_off, [0u32; 2], 0);
            while lead >= 100_000_000 {
                groups[n] = (lead % 100_000_000) as u32;
                lead /= 100_000_000;
                n += 1;
            }
            let lead = lead as u32;
            let digits = lead.ilog10() as usize + 1;
            let first = ascii8(lead) >> (8 * (8 - digits));
            out[end + 1..end + 9].copy_from_slice(&first.to_le_bytes());
            end += 1 + digits;
            for &group in groups[..n].iter().rev() {
                out[end..end + 8].copy_from_slice(&ascii8(group).to_le_bytes());
                end += 8;
            }
        }
        out[..4].copy_from_slice(&((end - 4) as u32).to_be_bytes());
        end
    }
}

/// The eight decimal digits of `v < 10⁸`, zero-padded, as the ASCII bytes
/// of a little-endian word: two four-digit halves, split into pairs, then
/// into digits, each step on all lanes at once.
fn ascii8(v: u32) -> u64 {
    let quads = u64::from(v / 10_000) | (u64::from(v % 10_000) << 32);
    let hundreds = ((quads * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let pairs = hundreds | ((quads - hundreds * 100) << 16);
    let tens = ((pairs * 103) >> 10) & 0x000f_000f_000f_000f;
    (tens | ((pairs - tens * 10) << 8)) + 0x3030_3030_3030_3030
}

/// One-entry unswizzle cache: repeated MIP prefixes resolve to the same
/// block without re-searching the metadata trees.
struct UnswizzleCache {
    /// `segment#block`, as it appeared on the wire.
    prefix: Vec<u8>,
    block_va: u64,
    flat: std::sync::Arc<iw_types::flat::FlatLayout>,
    run: Option<iw_types::flat::RunRef>,
    /// Hits batched here and flushed to the metrics counter per applied
    /// run, keeping atomics off the per-pointer path.
    hits: u64,
}

impl UnswizzleCache {
    /// The local address `mip` names when it is the cached prefix alone
    /// (offset 0) or the prefix, `#` and decimal digits, and the offset
    /// is a primitive of the cached block.
    fn resolve(&mut self, mip: &[u8]) -> Option<u64> {
        let offset = match mip.strip_prefix(&self.prefix[..])? {
            [] => 0,
            [b'#', digits @ ..] if !digits.is_empty() => {
                digits.iter().try_fold(0u64, |acc, &b| {
                    let d = b.wrapping_sub(b'0');
                    (d < 10).then_some(())?;
                    acc.checked_mul(10)?.checked_add(u64::from(d))
                })?
            }
            _ => return None,
        };
        let local = match &self.run {
            Some(run) if offset >= run.prim_off && offset < run.prim_off + u64::from(run.count) => {
                run.local_off + (offset - run.prim_off) as u32 * run.stride
            }
            _ => self.flat.prim_at(offset)?.local_off,
        };
        self.hits += 1;
        Some(self.block_va + u64::from(local))
    }
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

/// Estimated wire bytes for one run of `ops`, walked on the program
/// (O(ops), not O(primitives)). Pointers swizzle into length-prefixed
/// MIP strings — segment and block names are short, so 48 bytes covers
/// typical swizzled pointers; strings gain a length prefix over their
/// local capacity.
fn wire_upper(ops: &[Op]) -> u64 {
    steps(ops)
        .map(|(op, body)| match op {
            Op::Ptr { count, .. } => 48 * u64::from(count),
            Op::Str { cap, count } => (u64::from(cap) + 4) * u64::from(count),
            Op::Skip { .. } => 0,
            Op::Repeat { count, .. } => u64::from(count) * wire_upper(body),
            op => u64::from(op.local_len()),
        })
        .sum()
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
    /// buffer is oversized). Contents are left in place:
    /// [`Self::get_filled`] callers overwrite them.
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
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_pool_reuses() {
        let mut pool = BufferPool::default();
        let (b, reused) = pool.get_filled(100);
        assert!(!reused);
        pool.put(b);
        assert_eq!(pool.held(), 1);
        let (b, reused) = pool.get_filled(10);
        assert!(reused);
        assert_eq!(b.len(), 10);
        assert_eq!(pool.held(), 0);
    }

    #[test]
    fn cached_mips_match_their_display_at_every_width() {
        let cache = SwizzleCache::new(0..1, b"o/seg#blk", None);
        let mut state = 7u64;
        let mut offsets = vec![0, 1, 9, 10, 99, 100, 99_999_999, 100_000_000];
        offsets.extend([123_456_789_012, 10u64.pow(16), u64::MAX]);
        offsets.extend((0..2000).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> (state % 64)
        }));
        for offset in offsets {
            let mip = Mip::new("o/seg", "blk", offset).to_string();
            let mut w = WireWriter::new();
            w.put_str(&mip);
            let mut out = vec![0xAA; cache.room()];
            let len = cache.put_mip(offset, &mut out);
            assert_eq!(&out[..len], &w.finish()[..], "{mip}");
        }
    }

    #[test]
    fn oversized_buffers_not_pooled() {
        let mut pool = BufferPool::default();
        pool.put(Vec::with_capacity(POOL_MAX_CAP + 1));
        pool.put(Vec::new());
        assert_eq!(pool.held(), 0);
    }
}
