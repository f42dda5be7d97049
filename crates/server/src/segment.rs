//! Server-side segment state: blocks, versions, subblocks, and diffs.
//!
//! "The blocks of a given segment are organized into a balanced tree sorted
//! by their serial numbers (`svr_blk_number_tree`) and a linked list sorted
//! by their version numbers (`blk_version_list`). The linked list is
//! separated by markers into sublists … Markers are also organized into a
//! balanced tree sorted by version number (`marker_version_tree`)." (§3.2)
//!
//! This implementation realizes the version list and its marker tree with a
//! single ordered map keyed by `(version, arrival sequence)`: the key order
//! reproduces the list order exactly, range queries over versions play the
//! role of the marker tree, and "moving a block to the end of the list" is
//! a remove/insert with a fresh sequence number. The asymptotics match the
//! paper's balanced trees.
//!
//! "To track changes at a sufficiently fine grain, the server divides large
//! blocks into smaller contiguous subblocks [16 primitive data units]. It
//! then stores version numbers for these subblocks in a per-block array."
//!
//! A client diff lands in two steps. `ServerSegment::check` resolves
//! everything that can fail without touching the segment and returns a
//! `Plan`; `ServerSegment::install` makes the planned writes and cannot
//! fail. A refused diff therefore changes nothing, and the server can log
//! a diff between the two steps.
//!
//! "For each client using Diff coherence, the server must track the
//! percentage of the segment that has been modified since the last
//! update sent to the client. … It adds the sizes of these updates into
//! a single counter." (§3.2) A reader's `have_version` names that last
//! update, so the counter is a function of the version history: the
//! segment keeps `changed_through[v]`, the primitives changed by every
//! install up to version `v`, and a reader at `have` has missed
//! `changed_through[now] − changed_through[have]`. Readers therefore
//! leave no state here, and every server built from the same diff
//! stream (primary, backup, restarted primary) answers them alike.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use bytes::Bytes;
use iw_types::desc::TypeDesc;
use iw_wire::codec::WireWriter;
use iw_wire::diff::{BlockDiff, DiffRun, NewBlock, SegmentDiff};
use parking_lot::Mutex;

use crate::error::ServerError;
use crate::wirestore::{StoreLayout, WireStore, Write};

/// Primitive data units per subblock ("16 primitive data units in our
/// current implementation", §4.2).
pub const SUBBLOCK_PRIMS: u64 = 16;

/// Maximum number of recently seen diffs kept in the diff cache.
pub const DIFF_CACHE_CAP: usize = 16;

/// Versions of change sums a segment keeps for Diff coherence (8 KiB).
/// A Diff reader further behind than this gets an update.
pub const CHANGE_HISTORY: usize = 1024;

/// What one segment's diff cache has served (diagnostics / ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Updates served from the cache, by exact window or by chain.
    pub hits: u64,
    /// Updates built from scratch because no cached diff (or chain)
    /// covered the request.
    pub misses: u64,
    /// Hits served by splicing a chain of cached diffs.
    pub chain_compositions: u64,
    /// Subblocks examined while building updates from scratch.
    pub subblocks_scanned: u64,
}

/// Recently seen diffs, indexed by (from, to) version window.
///
/// A `BTreeMap` resolves an exact window with one ordered lookup, and
/// chain composition finds the longest cached step from any version
/// with one bounded `range` probe. Entries carry an LRU stamp; eviction
/// at [`DIFF_CACHE_CAP`] drops the stalest window. Every cached diff has
/// its encode cache armed, so the bytes sent to one reader are reused
/// verbatim for every other reader of the same window
/// (encode-once/serve-many).
#[derive(Debug, Default)]
struct DiffCache {
    entries: BTreeMap<(u64, u64), CachedDiff>,
    /// Monotonic recency clock for [`CachedDiff::stamp`].
    clock: u64,
    stats: CacheStats,
}

/// One diff-cache entry: the structural diff (its encode cache armed)
/// plus the recency stamp LRU eviction keys on.
#[derive(Debug)]
struct CachedDiff {
    diff: SegmentDiff,
    stamp: u64,
}

/// A diff [`ServerSegment::check`] resolved against one segment version:
/// the writes [`ServerSegment::install`] makes. It borrows the diff, so
/// run bytes stay slices of the received frame until they are copied in.
#[derive(Debug)]
pub(crate) struct Plan<'d> {
    diff: &'d SegmentDiff,
    /// Type descriptors the diff registers, in serial order.
    types: Vec<&'d TypeDesc>,
    /// Storage layouts this diff needs that the segment has not cached.
    layouts: HashMap<(u32, u32), StoreLayout>,
    /// The layout and filled storage of each new block, in diff order.
    stores: Vec<(StoreLayout, WireStore)>,
    /// The resolved writes of each block diff, in diff order.
    writes: Vec<Vec<Write<'d>>>,
}

/// One block as stored by the server.
#[derive(Debug, Clone)]
pub struct ServerBlock {
    /// Serial number within the segment.
    pub serial: u32,
    /// Optional symbolic name.
    pub name: Option<String>,
    /// Serial of the block's element type descriptor.
    pub type_serial: u32,
    /// Number of elements.
    pub count: u32,
    /// Segment version in which the block was created.
    pub created_version: u64,
    /// Segment version in which the block was last modified.
    pub version: u64,
    /// Per-subblock last-modified versions.
    subblock_versions: Vec<u64>,
    /// Wire-format contents.
    store: WireStore,
    /// Storage layout, shared by every block of this type and count.
    layout: StoreLayout,
    /// Key of this block in the version list.
    list_key: (u64, u64),
}

impl ServerBlock {
    /// Appends the block's wire image, length-prefixed, to `w` (the
    /// checkpoint image's block data).
    pub(crate) fn put_data(&self, w: &mut WireWriter) -> Result<(), ServerError> {
        w.put_u32(self.store.wire_len() as u32);
        Ok(self.store.extract(&self.layout, 0, self.prim_count(), w)?)
    }

    /// Per-subblock last-modified versions.
    pub(crate) fn subblock_versions(&self) -> &[u64] {
        &self.subblock_versions
    }

    /// Number of primitive units in the block.
    pub fn prim_count(&self) -> u64 {
        self.layout.prim_count()
    }

    /// Number of subblocks.
    pub fn subblock_count(&self) -> usize {
        self.subblock_versions.len()
    }
}

/// Per-segment server state.
#[derive(Debug)]
pub struct ServerSegment {
    /// Segment name (`host/path`).
    pub name: String,
    /// Current version (0 = freshly created, never written).
    version: u64,
    /// `svr_blk_number_tree`: serial → block.
    blocks: BTreeMap<u32, ServerBlock>,
    /// Symbolic name → serial.
    names: HashMap<String, u32>,
    /// `blk_version_list` + `marker_version_tree`: (version, seq) → serial.
    version_list: BTreeMap<(u64, u64), u32>,
    seq: u64,
    /// Registered type descriptors with the version that introduced them.
    types: Vec<(TypeDesc, u64)>,
    /// Cache of storage layouts keyed by (type serial, count).
    layouts: HashMap<(u32, u32), StoreLayout>,
    /// Tombstones: (version freed, serial, version created).
    freed: Vec<(u64, u32, u64)>,
    /// The diff cache and its counts. Readers lock this leaf mutex under
    /// the shard read lock and take no other lock while they hold it;
    /// `install` holds the shard write lock and uses `get_mut`.
    cache: Mutex<DiffCache>,
    /// Cumulative primitives changed, one sum per version from the
    /// history's base (`version + 1 − len`) through `version`; at most
    /// [`CHANGE_HISTORY`] sums.
    changed_through: VecDeque<u64>,
    /// Total primitive units across live blocks.
    total_prims: u64,
    /// Next block serial to hand to a write-locking client.
    next_serial: u32,
    /// Last-block prediction hint: the serial of the block that followed
    /// the most recently located block in the version list (§3.3 — "we
    /// predict the next changed block in the diff to be … the next block
    /// in the blk_version_list").
    pred_hint: Option<u32>,
    /// Prediction hit counter (diagnostics / ablation).
    pub pred_hits: u64,
}

impl ServerSegment {
    /// Creates an empty segment.
    pub fn new(name: impl Into<String>) -> Self {
        ServerSegment {
            name: name.into(),
            version: 0,
            blocks: BTreeMap::new(),
            names: HashMap::new(),
            version_list: BTreeMap::new(),
            seq: 0,
            types: Vec::new(),
            layouts: HashMap::new(),
            freed: Vec::new(),
            cache: Mutex::default(),
            changed_through: VecDeque::from([0]),
            total_prims: 0,
            next_serial: 0,
            pred_hint: None,
            pred_hits: 0,
        }
    }

    /// Current segment version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The serial the next allocated block must use.
    pub fn next_serial(&self) -> u32 {
        self.next_serial
    }

    /// The serial the next registered type must use.
    pub fn next_type_serial(&self) -> u32 {
        self.types.len() as u32
    }

    /// Number of live blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total primitive units across live blocks.
    pub fn total_prims(&self) -> u64 {
        self.total_prims
    }

    /// Looks up a block by serial.
    pub fn block(&self, serial: u32) -> Option<&ServerBlock> {
        self.blocks.get(&serial)
    }

    /// Looks up a type descriptor by serial.
    pub fn type_desc(&self, serial: u32) -> Option<&TypeDesc> {
        self.types.get(serial as usize).map(|(t, _)| t)
    }

    // ------------------------------------------------------------------
    // Applying client diffs (§3.2 "Modification tracking and diff
    // creation": receive side)
    // ------------------------------------------------------------------

    /// Applies a write-release diff from a client, advancing the segment
    /// one version: it checks the whole diff, then installs it. Returns
    /// the new version. A refused diff leaves the segment as it was.
    ///
    /// # Errors
    ///
    /// [`ServerError::VersionStep`] unless the diff advances exactly one
    /// version; [`ServerError::VersionMismatch`] unless `diff.from_version`
    /// equals the current version (the writer lock is exclusive, so a
    /// correct client can never be behind); plus structural errors for
    /// unknown blocks/types, duplicate serials/names, out-of-range or
    /// empty runs, and malformed run bytes.
    pub fn apply_diff(&mut self, diff: &SegmentDiff) -> Result<u64, ServerError> {
        let plan = self.check(diff)?;
        Ok(self.install(plan))
    }

    /// Resolves everything about `diff` that can fail, without changing
    /// the segment: the version step and base, type serials, duplicate
    /// block serials and names, layouts, run ranges, and every run's
    /// bytes (lengths, string lengths, UTF-8). The returned [`Plan`]
    /// records the writes [`ServerSegment::install`] makes. Errors are
    /// those of [`ServerSegment::apply_diff`].
    pub(crate) fn check<'d>(&self, diff: &'d SegmentDiff) -> Result<Plan<'d>, ServerError> {
        check_step(diff)?;
        if diff.from_version != self.version {
            return Err(ServerError::VersionMismatch {
                diff_from: diff.from_version,
                current: self.version,
            });
        }
        let mut plan = Plan {
            diff,
            types: Vec::new(),
            layouts: HashMap::new(),
            stores: Vec::with_capacity(diff.new_blocks.len()),
            writes: Vec::with_capacity(diff.block_diffs.len()),
        };
        // Each new type takes the next serial; re-registering a known
        // serial is fine only if identical.
        for (serial, ty) in &diff.new_types {
            if *serial as usize == self.types.len() + plan.types.len() {
                plan.types.push(ty);
            } else if self.type_in(&plan.types, *serial) != Some(ty) {
                return Err(ServerError::UnknownType(*serial));
            }
        }
        let mut serials = HashSet::new();
        let mut names = HashSet::new();
        for nb in &diff.new_blocks {
            if self.blocks.contains_key(&nb.serial) || !serials.insert(nb.serial) {
                return Err(ServerError::DuplicateBlock(nb.serial));
            }
            if let Some(n) = &nb.name {
                if self.names.contains_key(n) || !names.insert(n) {
                    return Err(ServerError::DuplicateName(n.clone()));
                }
            }
            // A block's wire bytes are never fewer than its fixed image,
            // so a short one is refused before its layout or storage is
            // built: the work follows the bytes received, not the count.
            let key = (nb.type_serial, nb.count);
            let layout = match self.layouts.get(&key) {
                Some(l) => l,
                None => {
                    let ty = self.type_in(&plan.types, nb.type_serial);
                    let ty = ty.ok_or(ServerError::UnknownType(nb.type_serial))?;
                    match plan.layouts.entry(key) {
                        Entry::Occupied(l) => &*l.into_mut(),
                        Entry::Vacant(l) => {
                            StoreLayout::check_size(ty, nb.count, &nb.data)?;
                            &*l.insert(StoreLayout::new(ty, nb.count))
                        }
                    }
                }
            };
            let store = WireStore::from_wire(layout, &nb.data)?;
            plan.stores.push((layout.clone(), store));
        }
        // A block diff names a block the segment already holds.
        for bd in &diff.block_diffs {
            let b = self
                .blocks
                .get(&bd.serial)
                .ok_or(ServerError::UnknownBlock(bd.serial))?;
            let mut writes = Vec::new();
            for run in &bd.runs {
                if run.count == 0 || run.start.saturating_add(run.count) > b.prim_count() {
                    return Err(ServerError::RunOutOfRange {
                        serial: bd.serial,
                        start: run.start,
                        count: run.count,
                    });
                }
                b.layout
                    .check(run.start, run.count, &run.data, &mut writes)?;
            }
            plan.writes.push(writes);
        }
        let mut freed = HashSet::new();
        for &serial in &diff.freed {
            let live = self.blocks.contains_key(&serial) || serials.contains(&serial);
            if !live || !freed.insert(serial) {
                return Err(ServerError::UnknownBlock(serial));
            }
        }
        Ok(plan)
    }

    /// Type descriptor `serial`, registered or among `pending` (the
    /// types a diff under check registers).
    fn type_in<'a>(&'a self, pending: &[&'a TypeDesc], serial: u32) -> Option<&'a TypeDesc> {
        let at = serial as usize;
        match at.checked_sub(self.types.len()) {
            None => Some(&self.types[at].0),
            Some(i) => pending.get(i).copied(),
        }
    }

    /// Installs a diff [`ServerSegment::check`] resolved against this
    /// segment at its current version, advancing it one version. Returns
    /// the new version. Nothing here can fail: every lookup was resolved
    /// and every byte validated by the check.
    ///
    /// # Panics
    ///
    /// If the segment's version moved since the check (a caller bug:
    /// the plan would no longer describe this segment).
    pub(crate) fn install(&mut self, plan: Plan<'_>) -> u64 {
        let (diff, new_version) = (plan.diff, self.version + 1);
        assert_eq!(diff.from_version, self.version, "plan for another version");
        for ty in plan.types {
            self.register_type(ty.clone(), new_version);
        }
        self.layouts.extend(plan.layouts);

        // "Newly created blocks are then appended to the end of the list."
        for (nb, (layout, store)) in diff.new_blocks.iter().zip(plan.stores) {
            let subblocks = layout.prim_count().div_ceil(SUBBLOCK_PRIMS).max(1) as usize;
            self.link_block(ServerBlock {
                serial: nb.serial,
                name: nb.name.clone(),
                type_serial: nb.type_serial,
                count: nb.count,
                created_version: new_version,
                version: new_version,
                subblock_versions: vec![new_version; subblocks],
                store,
                layout,
                list_key: (0, 0),
            });
        }

        // "Modified blocks are first located by searching the
        // svr_blk_number_tree, and then are moved to the end of the list."
        // Last-block prediction (§3.3): try the successor of the block we
        // found last time before searching the tree.
        for (bd, writes) in diff.block_diffs.iter().zip(plan.writes) {
            if self.pred_hint == Some(bd.serial) {
                self.pred_hits += 1;
            }
            let block = self.blocks.get_mut(&bd.serial).expect("checked block");
            block.store.install(&writes);
            for run in &bd.runs {
                let first = run.start / SUBBLOCK_PRIMS;
                let last = (run.start + run.count - 1) / SUBBLOCK_PRIMS;
                for sb in first..=last {
                    block.subblock_versions[sb as usize] = new_version;
                }
            }
            block.version = new_version;
            let old_key = block.list_key;
            let new_key = (new_version, self.seq);
            block.list_key = new_key;
            self.seq += 1;
            // Remember the serial that followed this block in the list:
            // modification order tends to repeat, so that is our guess
            // for the next block in this diff.
            self.pred_hint = self
                .version_list
                .range((
                    std::ops::Bound::Excluded(old_key),
                    std::ops::Bound::Unbounded,
                ))
                .next()
                .map(|(_, &s)| s);
            self.version_list.remove(&old_key);
            self.version_list.insert(new_key, bd.serial);
        }

        // Freed blocks become tombstones (with their creation version, so
        // updates can skip tombstones for blocks a client never saw).
        for &serial in &diff.freed {
            let block = self.blocks.remove(&serial).expect("checked block");
            if let Some(n) = &block.name {
                self.names.remove(n);
            }
            self.version_list.remove(&block.list_key);
            self.total_prims -= block.prim_count();
            self.freed
                .push((new_version, serial, block.created_version));
        }

        // The size of this update, for Diff coherence's counter.
        let changed: u64 = diff
            .block_diffs
            .iter()
            .map(BlockDiff::prims_changed)
            .sum::<u64>()
            + diff.new_blocks.len() as u64; // creations count too (coarse)
        let through = self.changed_through.back().copied().unwrap_or(0) + changed;
        self.changed_through.push_back(through);
        if self.changed_through.len() > CHANGE_HISTORY {
            self.changed_through.pop_front();
        }

        self.version = new_version;
        self.cache.get_mut().insert(diff.clone());
        new_version
    }

    /// Links a new block into the serial tree, at the end of the version
    /// list and into the name index.
    fn link_block(&mut self, mut block: ServerBlock) {
        block.list_key = (block.version, self.seq);
        self.seq += 1;
        self.version_list.insert(block.list_key, block.serial);
        if let Some(n) = &block.name {
            self.names.insert(n.clone(), block.serial);
        }
        self.total_prims += block.prim_count();
        self.next_serial = self.next_serial.max(block.serial + 1);
        self.blocks.insert(block.serial, block);
    }

    // ------------------------------------------------------------------
    // Building update diffs for clients
    // ------------------------------------------------------------------

    /// `true` when a client holding `have_version` under `coherence` needs
    /// an update (the "recent enough" check of §2.2/§3.2). A Diff reader
    /// at version 0, one behind the change history, or any reader of an
    /// empty segment gets one.
    pub fn needs_update(&self, have_version: u64, coherence: iw_proto::Coherence) -> bool {
        use iw_proto::Coherence::*;
        if have_version >= self.version {
            return false;
        }
        match coherence {
            Full | Temporal(_) => true,
            Delta(x) => self.version - have_version > u64::from(x),
            Diff(bp) => match self.changed_since(have_version) {
                Some(changed) if have_version > 0 && self.total_prims > 0 => {
                    changed * 10_000 > u64::from(bp) * self.total_prims
                }
                _ => true,
            },
        }
    }

    /// Primitives changed since `have_version` (below the current
    /// version), or `None` when the history no longer reaches it.
    fn changed_since(&self, have_version: u64) -> Option<u64> {
        let behind = usize::try_from(self.version - have_version).ok()?;
        let at = (self.changed_through.len() - 1).checked_sub(behind)?;
        Some(self.changed_through.back()? - self.changed_through[at])
    }

    /// Builds the diff that brings a copy at `have_version` up to the
    /// current version, checking the diff cache first (§3.3 "Diff
    /// caching"). Takes only the cache's leaf lock, so it runs under
    /// the shard read lock.
    ///
    /// # Errors
    ///
    /// Structural errors only (corrupt internal state); callers treat any
    /// error as fatal for the segment.
    pub fn collect_update(&self, have_version: u64) -> Result<SegmentDiff, ServerError> {
        let now = self.version;
        let mut cache = self.cache.lock();
        if let Some(diff) = cache.get((have_version, now)) {
            cache.stats.hits += 1;
            return Ok(diff);
        }
        // Chain composition: a multi-version update can often be served
        // by splicing cached per-version diffs end to end (with run
        // dedup), keeping the fine granularity of the client-collected
        // diffs instead of falling back to subblock granularity. Initial
        // fetches (version 0) always get a clean snapshot — replaying the
        // whole history would resend long-dead data.
        if have_version > 0 {
            let composed = cache
                .chain(have_version, now)
                .map(|chain| compose_chain(&chain, have_version, now));
            if let Some(composed) = composed {
                cache.stats.hits += 1;
                cache.stats.chain_compositions += 1;
                return Ok(cache.insert(composed));
            }
        }
        // Other readers' cache hits need not wait behind a scan of the
        // segment, so the cache is released while it runs.
        drop(cache);
        let (diff, scanned) = self.build_update(have_version)?;
        let mut cache = self.cache.lock();
        cache.stats.misses += 1;
        cache.stats.subblocks_scanned += scanned;
        Ok(cache.insert(diff))
    }

    /// Builds the update from `have_version` at subblock granularity;
    /// returns it with the number of subblocks examined.
    fn build_update(&self, have_version: u64) -> Result<(SegmentDiff, u64), ServerError> {
        let mut out = SegmentDiff {
            from_version: have_version,
            to_version: self.version,
            ..Default::default()
        };
        // Types introduced after the client's version.
        for (serial, (ty, intro)) in self.types.iter().enumerate() {
            if *intro > have_version {
                out.new_types.push((serial as u32, ty.clone()));
            }
        }
        // Walk the version list from the first marker past have_version:
        // "the server traverses the marker_version_tree to locate the
        // first marker whose version is newer than the client's version."
        let mut scanned = 0;
        for &serial in self
            .version_list
            .range((have_version + 1, 0)..)
            .map(|e| e.1)
        {
            let block = &self.blocks[&serial];
            if block.created_version > have_version {
                out.new_blocks.push(NewBlock {
                    serial,
                    name: block.name.clone(),
                    type_serial: block.type_serial,
                    count: block.count,
                    data: block.store.extract_all(&block.layout)?,
                });
            } else {
                // "Those modified subblocks are identified by version
                // numbers associated with each subblock." Coalesce
                // adjacent stale subblocks into runs.
                let mut runs = Vec::new();
                let mut start = 0;
                let stale = |v: &u64| *v > have_version;
                for group in block
                    .subblock_versions
                    .chunk_by(|a, b| stale(a) == stale(b))
                {
                    let end = (start + group.len() as u64 * SUBBLOCK_PRIMS).min(block.prim_count());
                    if stale(&group[0]) {
                        let mut w = WireWriter::new();
                        let count = end - start;
                        block.store.extract(&block.layout, start, count, &mut w)?;
                        let data = w.finish();
                        runs.push(DiffRun { start, count, data });
                    }
                    start = end;
                }
                scanned += block.subblock_versions.len() as u64;
                out.block_diffs.push(BlockDiff { serial, runs });
            }
        }
        // Tombstones the client has not seen — but only for blocks whose
        // creation it *did* see; otherwise the serial means nothing to it.
        for &(v, serial, created) in &self.freed {
            if v > have_version && created <= have_version {
                out.freed.push(serial);
            }
        }
        Ok((out, scanned))
    }

    /// What the diff cache has served so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats
    }

    /// Drops all cached diffs (used by checkpoint restore and ablations).
    pub fn clear_diff_cache(&mut self) {
        self.cache.get_mut().entries.clear();
    }

    // ------------------------------------------------------------------
    // Checkpoint support (internal accessors)
    // ------------------------------------------------------------------

    pub(crate) fn blocks_iter(&self) -> impl Iterator<Item = &ServerBlock> {
        self.blocks.values()
    }

    pub(crate) fn types_iter(&self) -> impl Iterator<Item = (&TypeDesc, u64)> {
        self.types.iter().map(|(t, v)| (t, *v))
    }

    pub(crate) fn freed_iter(&self) -> impl Iterator<Item = (u64, u32, u64)> + '_ {
        self.freed.iter().copied()
    }

    pub(crate) fn restore_state(
        &mut self,
        version: u64,
        next_serial: u32,
        freed: Vec<(u64, u32, u64)>,
    ) {
        self.version = version;
        self.next_serial = next_serial;
        self.freed = freed;
        self.changed_through = VecDeque::from([0]);
    }

    /// Registers the next type descriptor, introduced at `intro`.
    pub(crate) fn register_type(&mut self, ty: TypeDesc, intro: u64) {
        self.types.push((ty, intro));
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_block(
        &mut self,
        serial: u32,
        name: Option<String>,
        type_serial: u32,
        count: u32,
        created_version: u64,
        version: u64,
        subblock_versions: Vec<u64>,
        data: &Bytes,
    ) -> Result<(), ServerError> {
        let (ty, _) = self
            .types
            .get(type_serial as usize)
            .ok_or(ServerError::UnknownType(type_serial))?;
        let layout = match self.layouts.entry((type_serial, count)) {
            Entry::Occupied(l) => l.get().clone(),
            Entry::Vacant(l) => {
                StoreLayout::check_size(ty, count, data)?;
                l.insert(StoreLayout::new(ty, count)).clone()
            }
        };
        let store = WireStore::from_wire(&layout, data)?;
        self.link_block(ServerBlock {
            serial,
            name,
            type_serial,
            count,
            created_version,
            version,
            subblock_versions,
            store,
            layout,
            list_key: (0, 0),
        });
        Ok(())
    }
}

impl DiffCache {
    /// Finds a complete chain of cached diffs covering
    /// `have_version → now`, if one exists. Borrows straight from the
    /// cache — composition reads through the references and only the
    /// composed result is materialized (no per-link diff clones).
    fn chain(&self, have_version: u64, now: u64) -> Option<Vec<&SegmentDiff>> {
        let mut out = Vec::new();
        let mut at = have_version;
        while at < now {
            // The longest cached step out of `at`: the greatest
            // (at, to <= now) key. One O(log n) probe per link.
            let ((_, to), entry) = self
                .entries
                .range((at, 0)..=(at, now))
                .next_back()
                .filter(|((_, to), _)| *to > at)?;
            out.push(&entry.diff);
            at = *to;
        }
        (!out.is_empty()).then_some(out)
    }

    /// The cached diff for window `key`, marked most recently used.
    /// Clones share the armed encode cache: if the window's bytes were
    /// ever materialized, they are served as-is.
    fn get(&mut self, key: (u64, u64)) -> Option<SegmentDiff> {
        self.clock += 1;
        let entry = self.entries.get_mut(&key)?;
        entry.stamp = self.clock;
        Some(entry.diff.clone())
    }

    /// Inserts `diff` (arming its encode cache first) and returns a
    /// clone sharing that armed cache — callers hand the clone out, so
    /// the first encoding of the window is the last.
    fn insert(&mut self, mut diff: SegmentDiff) -> SegmentDiff {
        let key = (diff.from_version, diff.to_version);
        if let Some(cached) = self.get(key) {
            return cached;
        }
        diff.arm_enc_cache();
        if self.entries.len() >= DIFF_CACHE_CAP {
            // O(cap) LRU eviction — cap is small and insertions are rare
            // next to lookups, so a second recency index would cost more
            // than this scan.
            if let Some(stalest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&stalest);
            }
        }
        let out = diff.clone();
        let stamp = self.clock;
        self.entries.insert(key, CachedDiff { diff, stamp });
        out
    }
}

/// Refuses a diff that does not advance exactly one version. Every diff
/// a writer or a primary sends is one release, and the server caches
/// and forwards it under its own `(from, to)` header, so this check is
/// what keeps a cached window honest.
///
/// # Errors
///
/// [`ServerError::VersionStep`] when `to_version != from_version + 1`.
pub(crate) fn check_step(diff: &SegmentDiff) -> Result<(), ServerError> {
    let (from, to) = (diff.from_version, diff.to_version);
    let step = from.checked_add(1) == Some(to);
    step.then_some(())
        .ok_or(ServerError::VersionStep { from, to })
}

/// Splices a chain of version-adjacent diffs into one. Runs that update
/// the exact same primitive range in multiple steps are deduplicated to
/// the most recent data; everything else is concatenated in version
/// order, which diff application handles correctly (later data wins).
fn compose_chain(chain: &[&SegmentDiff], from: u64, to: u64) -> SegmentDiff {
    let mut out = SegmentDiff {
        from_version: from,
        to_version: to,
        ..Default::default()
    };
    let mut seen_types: std::collections::HashSet<u32> = Default::default();
    let mut block_runs: HashMap<u32, Vec<DiffRun>> = HashMap::new();
    let mut block_order: Vec<u32> = Vec::new();
    for d in chain {
        for (serial, ty) in &d.new_types {
            if seen_types.insert(*serial) {
                out.new_types.push((*serial, ty.clone()));
            }
        }
        out.new_blocks.extend(d.new_blocks.iter().cloned());
        for bd in &d.block_diffs {
            let runs = block_runs.entry(bd.serial).or_insert_with(|| {
                block_order.push(bd.serial);
                Vec::new()
            });
            for run in &bd.runs {
                // Dedup an exact-duplicate range only when it is the last
                // run overlapping this one: nothing after it overlaps, so
                // moving the data to the tail preserves apply order for
                // every primitive.
                let last_overlap = runs.iter().rposition(|r: &DiffRun| {
                    r.start < run.start + run.count && run.start < r.start + r.count
                });
                if let Some(i) = last_overlap {
                    if (runs[i].start, runs[i].count) == (run.start, run.count) {
                        runs.remove(i);
                    }
                }
                runs.push(run.clone());
            }
        }
        out.freed.extend(d.freed.iter().copied());
    }
    for serial in block_order {
        let runs = block_runs.remove(&serial).expect("ordered serial");
        out.block_diffs.push(BlockDiff { serial, runs });
    }
    out.freed.sort_unstable();
    out.freed.dedup();
    out
}

#[cfg(test)]
mod compose_tests {
    use super::*;

    fn run(start: u64, count: u64, byte: u8) -> DiffRun {
        DiffRun {
            start,
            count,
            data: Bytes::from(vec![byte; (count * 4) as usize]),
        }
    }

    fn step(from: u64, runs: Vec<DiffRun>) -> SegmentDiff {
        SegmentDiff {
            from_version: from,
            to_version: from + 1,
            block_diffs: vec![BlockDiff { serial: 0, runs }],
            ..Default::default()
        }
    }

    /// Applies runs in order to a model array, for semantics checks.
    fn replay(diffs: &[&SegmentDiff], prims: usize) -> Vec<u8> {
        let mut cells = vec![0u8; prims];
        for d in diffs {
            for bd in &d.block_diffs {
                for r in &bd.runs {
                    for k in 0..r.count {
                        cells[(r.start + k) as usize] = r.data[0];
                    }
                }
            }
        }
        cells
    }

    #[test]
    fn exact_duplicates_dedup_to_latest() {
        let a = step(1, vec![run(5, 1, 0xA1)]);
        let b = step(2, vec![run(5, 1, 0xB2)]);
        let c = compose_chain(&[&a, &b], 1, 3);
        assert_eq!(c.block_diffs[0].runs.len(), 1);
        assert_eq!(c.block_diffs[0].runs[0].data[0], 0xB2);
        assert_eq!(replay(&[&c], 8), replay(&[&a, &b], 8));
    }

    #[test]
    fn interleaved_overlap_is_not_reordered() {
        // v1: prims 5..9 = A; v2: prims 6..8 = C; v3: prims 5..9 = B.
        // Deduping v1/v3 must not let v2 clobber v3's data.
        let a = step(1, vec![run(5, 4, 0xA1)]);
        let b = step(2, vec![run(6, 2, 0xC3)]);
        let c3 = step(3, vec![run(5, 4, 0xB2)]);
        let composed = compose_chain(&[&a, &b, &c3], 1, 4);
        assert_eq!(replay(&[&composed], 12), replay(&[&a, &b, &c3], 12));
    }

    #[test]
    fn disjoint_runs_concatenate() {
        let a = step(1, vec![run(0, 2, 1)]);
        let b = step(2, vec![run(10, 2, 2)]);
        let c = compose_chain(&[&a, &b], 1, 3);
        assert_eq!(c.block_diffs[0].runs.len(), 2);
        assert_eq!(c.from_version, 1);
        assert_eq!(c.to_version, 3);
    }

    #[test]
    fn chain_served_from_cache_matches_sequential_application() {
        // End-to-end: a segment with versions 1..5; a client at 1 asks
        // for an update after the per-version diffs are cached.
        let mut seg = ServerSegment::new("c/s");
        let init = SegmentDiff {
            from_version: 0,
            to_version: 1,
            new_types: vec![(0, iw_types::desc::TypeDesc::int32())],
            new_blocks: vec![NewBlock {
                serial: 0,
                name: None,
                type_serial: 0,
                count: 64,
                data: Bytes::from(vec![0u8; 256]),
            }],
            ..Default::default()
        };
        seg.apply_diff(&init).unwrap();
        for v in 1..5u64 {
            let d = step_with_serial(v, vec![run((v * 7) % 60, 2, v as u8)]);
            seg.apply_diff(&d).unwrap();
        }
        let hits_before = seg.cache_stats().hits;
        let upd = seg.collect_update(1).unwrap();
        assert!(
            seg.cache_stats().hits > hits_before,
            "chain should hit cache"
        );
        assert_eq!(upd.from_version, 1);
        assert_eq!(upd.to_version, 5);
        // Compare against a freshly built (subblock) update semantically.
        seg.clear_diff_cache();
        let built = seg.collect_update(1).unwrap();
        let via_chain = replay_diff(&upd, 64);
        let via_built = replay_diff(&built, 64);
        // The rebuilt update works at subblock granularity, so it may
        // cover extra (unchanged) primitives; the chain's touched set
        // must be a subset with identical values.
        for i in via_chain.1.iter() {
            assert!(via_built.1.contains(i), "prim {i} missing from rebuild");
            assert_eq!(via_chain.0[*i], via_built.0[*i], "prim {i}");
        }
    }

    fn step_with_serial(from: u64, runs: Vec<DiffRun>) -> SegmentDiff {
        SegmentDiff {
            from_version: from,
            to_version: from + 1,
            block_diffs: vec![BlockDiff { serial: 0, runs }],
            ..Default::default()
        }
    }

    /// Replays a diff's runs over a 4-byte-prim model; returns the cell
    /// bytes and the set of touched indices.
    fn replay_diff(d: &SegmentDiff, prims: usize) -> (Vec<u8>, Vec<usize>) {
        let mut cells = vec![0u8; prims];
        let mut touched = std::collections::BTreeSet::new();
        for bd in &d.block_diffs {
            for r in &bd.runs {
                for k in 0..r.count {
                    let idx = (r.start + k) as usize;
                    cells[idx] = r.data[(k * 4) as usize];
                    touched.insert(idx);
                }
            }
        }
        (cells, touched.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_proto::Coherence;
    use iw_wire::codec::WireReader;

    fn int_block_diff(serial: u32, vals: &[(u64, i32)]) -> BlockDiff {
        BlockDiff {
            serial,
            runs: vals
                .iter()
                .map(|&(start, v)| DiffRun {
                    start,
                    count: 1,
                    data: Bytes::from((v as u32).to_be_bytes().to_vec()),
                })
                .collect(),
        }
    }

    fn seg_with_int_block(nprims: u32) -> ServerSegment {
        let mut s = ServerSegment::new("h/s");
        let data: Vec<u8> = (0..nprims).flat_map(|_| [0, 0, 0, 0]).collect();
        let diff = SegmentDiff {
            from_version: 0,
            to_version: 1,
            new_types: vec![(0, TypeDesc::int32())],
            new_blocks: vec![NewBlock {
                serial: 0,
                name: Some("arr".into()),
                type_serial: 0,
                count: nprims,
                data: Bytes::from(data),
            }],
            ..Default::default()
        };
        assert_eq!(s.apply_diff(&diff).unwrap(), 1);
        s
    }

    #[test]
    fn create_block_and_versions() {
        let s = seg_with_int_block(64);
        assert_eq!(s.version(), 1);
        assert_eq!(s.block_count(), 1);
        assert_eq!(s.total_prims(), 64);
        assert_eq!(s.next_serial(), 1);
        assert_eq!(s.next_type_serial(), 1);
        let b = s.block(0).unwrap();
        assert_eq!(b.version, 1);
        assert_eq!(b.created_version, 1);
        assert_eq!(s.block(0).unwrap().subblock_versions(), &[1, 1, 1, 1]);
    }

    /// A release that claims to advance several versions is refused
    /// before anything changes: otherwise the segment would advance one
    /// version while the cache kept the diff under the claimed window,
    /// and a reader at the old version would later be served it, partial
    /// but labelled current.
    #[test]
    fn false_to_version_refused_before_any_mutation() {
        let mut s = seg_with_int_block(64);
        let liar = SegmentDiff {
            from_version: 1,
            to_version: 4,
            block_diffs: vec![int_block_diff(0, &[(0, 7)])],
            ..Default::default()
        };
        assert!(matches!(
            s.apply_diff(&liar),
            Err(ServerError::VersionStep { from: 1, to: 4 })
        ));
        assert_eq!(s.version(), 1);
        assert_eq!(s.block(0).unwrap().version, 1);
        // A diff that advances no version at all is refused too.
        let stay = SegmentDiff {
            from_version: 1,
            to_version: 1,
            ..Default::default()
        };
        assert!(matches!(
            s.apply_diff(&stay),
            Err(ServerError::VersionStep { from: 1, to: 1 })
        ));
        // Three honest releases bring the segment to v4; a reader at v1
        // then gets every write of v2..v4.
        for (v, prim) in [(1u64, 0u64), (2, 20), (3, 40)] {
            let d = SegmentDiff {
                from_version: v,
                to_version: v + 1,
                block_diffs: vec![int_block_diff(0, &[(prim, v as i32 + 10)])],
                ..Default::default()
            };
            s.apply_diff(&d).unwrap();
        }
        let upd = s.collect_update(1).unwrap();
        assert_eq!((upd.from_version, upd.to_version), (1, 4));
        let starts: Vec<u64> = upd.block_diffs[0].runs.iter().map(|r| r.start).collect();
        assert_eq!(starts, [0, 20, 40]);
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut s = seg_with_int_block(16);
        let diff = SegmentDiff {
            from_version: 5,
            to_version: 6,
            ..Default::default()
        };
        assert!(matches!(
            s.apply_diff(&diff),
            Err(ServerError::VersionMismatch {
                diff_from: 5,
                current: 1
            })
        ));
    }

    #[test]
    fn modify_updates_subblock_versions() {
        let mut s = seg_with_int_block(64);
        let diff = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![int_block_diff(0, &[(17, 42)])],
            ..Default::default()
        };
        s.apply_diff(&diff).unwrap();
        // prim 17 lives in subblock 1; only it advances.
        assert_eq!(s.block(0).unwrap().subblock_versions(), &[1, 2, 1, 1]);
        assert_eq!(s.block(0).unwrap().version, 2);
    }

    #[test]
    fn update_for_stale_client_carries_only_stale_subblocks() {
        let mut s = seg_with_int_block(64);
        let diff = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![int_block_diff(0, &[(17, 42)])],
            ..Default::default()
        };
        s.apply_diff(&diff).unwrap();
        // Bypass the diff cache (which would faithfully forward the
        // client's fine-grained diff) to observe subblock granularity.
        s.clear_diff_cache();
        let upd = s.collect_update(1).unwrap();
        assert_eq!(upd.from_version, 1);
        assert_eq!(upd.to_version, 2);
        assert!(upd.new_blocks.is_empty());
        assert_eq!(upd.block_diffs.len(), 1);
        let runs = &upd.block_diffs[0].runs;
        assert_eq!(runs.len(), 1);
        // The whole 16-prim subblock travels ("the server loses track of
        // fine-grain modifications", §4.2).
        assert_eq!(runs[0].start, 16);
        assert_eq!(runs[0].count, 16);
        // prim 17 carries 42.
        let mut r = WireReader::new(runs[0].data.clone());
        let _p16 = r.get_u32().unwrap();
        assert_eq!(r.get_u32().unwrap(), 42);
    }

    #[test]
    fn update_from_zero_is_full_transfer() {
        let s = seg_with_int_block(64);
        let upd = s.collect_update(0).unwrap();
        assert_eq!(upd.new_blocks.len(), 1);
        assert_eq!(upd.new_blocks[0].count, 64);
        assert_eq!(upd.new_types.len(), 1);
        assert!(upd.block_diffs.is_empty());
    }

    #[test]
    fn adjacent_stale_subblocks_coalesce() {
        let mut s = seg_with_int_block(64);
        // Touch subblocks 1 and 2 in one version.
        let diff = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![int_block_diff(0, &[(17, 1), (33, 2)])],
            ..Default::default()
        };
        s.apply_diff(&diff).unwrap();
        s.clear_diff_cache();
        let upd = s.collect_update(1).unwrap();
        let runs = &upd.block_diffs[0].runs;
        assert_eq!(runs.len(), 1, "adjacent subblocks must merge");
        assert_eq!(runs[0].start, 16);
        assert_eq!(runs[0].count, 32);
    }

    #[test]
    fn free_produces_tombstone() {
        let mut s = seg_with_int_block(16);
        let diff = SegmentDiff {
            from_version: 1,
            to_version: 2,
            freed: vec![0],
            ..Default::default()
        };
        s.apply_diff(&diff).unwrap();
        assert_eq!(s.block_count(), 0);
        assert_eq!(s.total_prims(), 0);
        let upd = s.collect_update(1).unwrap();
        assert_eq!(upd.freed, vec![0]);
        // A client at version 2 sees nothing.
        let upd2 = s.collect_update(2).unwrap();
        assert!(upd2.freed.is_empty() && upd2.block_diffs.is_empty());
    }

    #[test]
    fn diff_cache_serves_repeat_requests() {
        let mut s = seg_with_int_block(64);
        let diff = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![int_block_diff(0, &[(0, 7)])],
            ..Default::default()
        };
        s.apply_diff(&diff).unwrap();
        // The client-sent diff itself is cached and can be forwarded:
        // "In most cases, a client sends the server a diff, and the server
        // caches and forwards it in response to subsequent requests."
        let before = s.cache_stats().hits;
        let upd = s.collect_update(1).unwrap();
        assert_eq!(s.cache_stats().hits, before + 1);
        assert_eq!(upd, diff);
    }

    #[test]
    fn coherence_models_gate_updates() {
        let mut s = seg_with_int_block(160); // 160 prims
        for v in 1..=4u64 {
            let diff = SegmentDiff {
                from_version: v,
                to_version: v + 1,
                block_diffs: vec![int_block_diff(0, &[(0, v as i32)])],
                ..Default::default()
            };
            s.apply_diff(&diff).unwrap();
        }
        // Now at version 5. A client at version 3:
        assert!(s.needs_update(3, Coherence::Full));
        assert!(s.needs_update(3, Coherence::Temporal(1000)));
        assert!(!s.needs_update(3, Coherence::Delta(2)));
        assert!(s.needs_update(3, Coherence::Delta(1)));
        assert!(!s.needs_update(5, Coherence::Full));

        // Diff coherence: v4 and v5 each changed 1 prim, so a reader at
        // v3 has missed 2/160 = 125bp; one at v0 always gets an update.
        assert!(s.needs_update(3, Coherence::Diff(100)));
        assert!(!s.needs_update(3, Coherence::Diff(125)));
        assert!(s.needs_update(0, Coherence::Diff(10_000)));
        // One more modification of 16-prim granularity: 1 prim counted,
        // 1/160 = 0.625% = 62.5bp.
        let diff = SegmentDiff {
            from_version: 5,
            to_version: 6,
            block_diffs: vec![int_block_diff(0, &[(0, 99)])],
            ..Default::default()
        };
        s.apply_diff(&diff).unwrap();
        assert!(s.needs_update(5, Coherence::Diff(10))); // 0.1% < 0.625%
        assert!(!s.needs_update(5, Coherence::Diff(100))); // 1% > 0.625%
    }

    #[test]
    fn unknown_block_and_type_rejected() {
        let mut s = seg_with_int_block(16);
        let bad = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![int_block_diff(77, &[(0, 1)])],
            ..Default::default()
        };
        assert!(matches!(
            s.apply_diff(&bad),
            Err(ServerError::UnknownBlock(77))
        ));
        let bad = SegmentDiff {
            from_version: 1,
            to_version: 2,
            new_blocks: vec![NewBlock {
                serial: 5,
                name: None,
                type_serial: 9,
                count: 1,
                data: Bytes::new(),
            }],
            ..Default::default()
        };
        assert!(matches!(
            s.apply_diff(&bad),
            Err(ServerError::UnknownType(9))
        ));
    }

    #[test]
    fn out_of_range_run_rejected() {
        let mut s = seg_with_int_block(16);
        let bad = SegmentDiff {
            from_version: 1,
            to_version: 2,
            block_diffs: vec![int_block_diff(0, &[(16, 1)])],
            ..Default::default()
        };
        assert!(matches!(
            s.apply_diff(&bad),
            Err(ServerError::RunOutOfRange {
                serial: 0,
                start: 16,
                count: 1
            })
        ));
    }

    #[test]
    fn duplicate_serial_and_name_rejected() {
        let mut s = seg_with_int_block(16);
        let dup = SegmentDiff {
            from_version: 1,
            to_version: 2,
            new_blocks: vec![NewBlock {
                serial: 0,
                name: None,
                type_serial: 0,
                count: 1,
                data: Bytes::from_static(&[0, 0, 0, 0]),
            }],
            ..Default::default()
        };
        assert!(matches!(
            s.apply_diff(&dup),
            Err(ServerError::DuplicateBlock(0))
        ));
        let dup = SegmentDiff {
            from_version: 1,
            to_version: 2,
            new_blocks: vec![NewBlock {
                serial: 9,
                name: Some("arr".into()),
                type_serial: 0,
                count: 1,
                data: Bytes::from_static(&[0, 0, 0, 0]),
            }],
            ..Default::default()
        };
        assert!(matches!(
            s.apply_diff(&dup),
            Err(ServerError::DuplicateName(_))
        ));
    }

    #[test]
    fn prediction_hits_on_sequential_modification() {
        // Two blocks modified repeatedly in the same order: the version
        // list order becomes the modification order, so the successor
        // prediction should hit.
        let mut s = ServerSegment::new("h/s");
        let init = SegmentDiff {
            from_version: 0,
            to_version: 1,
            new_types: vec![(0, TypeDesc::int32())],
            new_blocks: (0..3)
                .map(|i| NewBlock {
                    serial: i,
                    name: None,
                    type_serial: 0,
                    count: 4,
                    data: Bytes::from(vec![0; 16]),
                })
                .collect(),
            ..Default::default()
        };
        s.apply_diff(&init).unwrap();
        for v in 1..5u64 {
            let diff = SegmentDiff {
                from_version: v,
                to_version: v + 1,
                block_diffs: (0..3).map(|i| int_block_diff(i, &[(0, 1)])).collect(),
                ..Default::default()
            };
            s.apply_diff(&diff).unwrap();
        }
        assert!(
            s.pred_hits > 0,
            "sequential updates should hit the predictor"
        );
    }
}
