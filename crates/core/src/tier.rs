//! Disk-tiered cold blocks: an mmap-backed read path over a v7 snapshot
//! file, a sharded size-budgeted LRU block cache, and selection-driven
//! prefetch.
//!
//! A [`ColdIndex`] opens a v7 snapshot *without* decoding its payload: only
//! the header, config, directories, and the timestamp column (8 bytes/row —
//! the selection and windowing floor) are touched at open. Leaf records and
//! internal-block graphs are loaded on demand, verified against their
//! per-section CRCs, and cached as zero-copy [`Col`]-backed segments under
//! the RAM budget of [`MbiConfig::ram_budget_bytes`].
//!
//! Because MBI's block selection names every block a query will touch
//! *before* any distance math runs, the selection doubles as a prefetch
//! oracle: the resolved block cover is handed to a background thread that
//! issues `madvise(WILLNEED)` over every cold span, and (on multi-core
//! hosts) the pin walk splits the cover between the query thread and a
//! scoped helper thread so two pieces decode at once. Helper-decoded pieces
//! stay pinned until the query consumes them, so a tiny budget cannot evict
//! a prefetched piece before it is used.
//!
//! Queries are bit-identical to the in-RAM [`IndexSnapshot`] path: both run
//! the same executor over the same `VectorSource`/`TimeSource`/`BlockArray`
//! abstractions, and the SQ8/f32 bytes served from the map are the bytes the
//! snapshot serialised.
//!
//! [`IndexSnapshot`]: crate::engine::IndexSnapshot

use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};

use mbi_ann::{Advice, Col, FileMap, SearchParams, SearchStats, Segment, SegmentStore, Sq8Column};
use mbi_math::crc32;

use crate::block::Block;
use crate::config::MbiConfig;
use crate::error::MbiError;
use crate::index::{QueryOutput, TknnResult};
use crate::persist::{
    decode_graph_at, parse_v7_layout, rd_f32, rd_i64, V7BlockMeta, V7Layout, PAGE,
};
use crate::query_exec::{Deadline, QueryTarget};
use crate::select::{select_blocks, BlockMeta, SearchBlockSet, TimeWindow};
use crate::times::TimeChunks;
use crate::Timestamp;

impl BlockMeta for V7BlockMeta {
    fn start_ts(&self) -> Timestamp {
        self.start_ts
    }
    fn end_ts(&self) -> Timestamp {
        self.end_ts
    }
    fn height(&self) -> u32 {
        self.height
    }
}

/// One cacheable unit of the file: a leaf record (rows + side columns + its
/// co-located graph, decoded together) or an internal block's graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum PieceKey {
    /// Leaf ordinal in time order (the i-th height-0 block in postorder).
    Leaf(usize),
    /// Postorder index of a height ≥ 1 block.
    Graph(usize),
}

/// A decoded, cache-resident piece. Cloning is two `Arc` bumps.
#[derive(Clone)]
enum Piece {
    Leaf(Arc<Segment>, Arc<Block>),
    Graph(Arc<Block>),
}

impl Piece {
    /// Whether the cache holds the only remaining reference — no query has
    /// the piece pinned, so it may be evicted.
    fn evictable(&self) -> bool {
        match self {
            Piece::Leaf(seg, block) => Arc::strong_count(seg) == 1 && Arc::strong_count(block) == 1,
            Piece::Graph(block) => Arc::strong_count(block) == 1,
        }
    }
}

/// A freshly decoded piece plus its accounting: resident cost in bytes and
/// the file range to `madvise(DONTNEED)` when the piece is evicted.
struct LoadedPiece {
    piece: Piece,
    bytes: u64,
    advise: Option<Range<usize>>,
}

struct CacheEntry {
    piece: Piece,
    bytes: u64,
    /// Global LRU generation of the last touch (monotone, unique).
    last_used: u64,
    /// Leaf ordinal the piece covers (leftmost leaf for graphs) — the
    /// oldest-first tie-break.
    ord: usize,
    /// Pinned pieces (the hot suffix of leaves) are never evicted.
    pinned: bool,
    advise: Option<Range<usize>>,
}

#[derive(Default)]
struct CacheShard {
    map: HashMap<PieceKey, CacheEntry>,
    bytes: u64,
}

/// Sharded, size-budgeted LRU over decoded pieces. Loads run outside the
/// shard lock; a double-insert race keeps the first inserted piece.
struct BlockCache {
    shards: Vec<Mutex<CacheShard>>,
    /// Per-shard budget: `ram_budget_bytes / cache_shards`.
    shard_budget: u64,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    prefetches: AtomicU64,
    map: Arc<FileMap>,
}

impl BlockCache {
    fn new(budget: u64, shards: usize, map: Arc<FileMap>) -> Self {
        assert!(shards > 0, "cache shards must be positive");
        BlockCache {
            shards: (0..shards).map(|_| Mutex::new(CacheShard::default())).collect(),
            shard_budget: budget / shards as u64,
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prefetches: AtomicU64::new(0),
            map,
        }
    }

    fn shard_of(&self, key: PieceKey) -> usize {
        // Keys are dense small integers; splitting leaf/graph keyspaces and
        // striding by ordinal spreads a contiguous cover across shards.
        let (tag, ord) = match key {
            PieceKey::Leaf(l) => (0usize, l),
            PieceKey::Graph(b) => (1usize, b),
        };
        (ord * 2 + tag) % self.shards.len()
    }

    fn lock_shard(&self, i: usize) -> std::sync::MutexGuard<'_, CacheShard> {
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn contains(&self, key: PieceKey) -> bool {
        self.lock_shard(self.shard_of(key)).map.contains_key(&key)
    }

    /// Returns the cached piece for `key`, or decodes it via `load` (run
    /// outside the shard lock) and inserts it, evicting LRU pieces if the
    /// shard exceeds its budget.
    fn get_or_load<F>(
        &self,
        key: PieceKey,
        ord: usize,
        pinned: bool,
        load: F,
    ) -> Result<Piece, MbiError>
    where
        F: FnOnce() -> Result<LoadedPiece, MbiError>,
    {
        let shard_i = self.shard_of(key);
        {
            let mut shard = self.lock_shard(shard_i);
            if let Some(entry) = shard.map.get_mut(&key) {
                entry.last_used = self.generation.fetch_add(1, Relaxed);
                self.hits.fetch_add(1, Relaxed);
                return Ok(entry.piece.clone());
            }
        }
        let loaded = load()?;
        self.misses.fetch_add(1, Relaxed);
        let mut shard = self.lock_shard(shard_i);
        if let Some(entry) = shard.map.get_mut(&key) {
            // Raced with another loader; the first insert wins, our decode
            // is discarded.
            entry.last_used = self.generation.fetch_add(1, Relaxed);
            return Ok(entry.piece.clone());
        }
        let piece = loaded.piece.clone();
        shard.bytes += loaded.bytes;
        shard.map.insert(
            key,
            CacheEntry {
                piece: loaded.piece,
                bytes: loaded.bytes,
                last_used: self.generation.fetch_add(1, Relaxed),
                ord,
                pinned,
                advise: loaded.advise,
            },
        );
        self.evict_over_budget(&mut shard);
        Ok(piece)
    }

    /// Evicts least-recently-used unpinned, unreferenced pieces until the
    /// shard fits its budget (oldest leaf first among equal generations).
    /// Pieces still pinned by an in-flight query are skipped; they become
    /// evictable at the next pass after the query drops them.
    fn evict_over_budget(&self, shard: &mut CacheShard) {
        while shard.bytes > self.shard_budget {
            let victim = shard
                .map
                .iter()
                .filter(|(_, e)| !e.pinned && e.piece.evictable())
                .min_by_key(|(_, e)| (e.last_used, e.ord))
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            let entry = shard.map.remove(&key).expect("victim chosen from this map");
            shard.bytes -= entry.bytes;
            if let Some(range) = entry.advise {
                self.map.advise(range, Advice::DontNeed);
            }
            self.evictions.fetch_add(1, Relaxed);
        }
    }

    /// Runs an eviction pass on every shard — called after each query so
    /// over-budget pieces are demoted as soon as they are unpinned.
    fn maintain(&self) {
        for i in 0..self.shards.len() {
            let mut shard = self.lock_shard(i);
            self.evict_over_budget(&mut shard);
        }
    }

    fn bytes_resident(&self) -> u64 {
        (0..self.shards.len()).map(|i| self.lock_shard(i).bytes).sum()
    }
}

/// A block-array slot of the cold executor: either a decoded block (for
/// blocks in the query's cover) or bare directory metadata (for everything
/// else — selection only reads timestamps and heights).
enum ColdSlot {
    Loaded(Arc<Block>),
    Meta { start_ts: Timestamp, end_ts: Timestamp, height: u32 },
}

impl BlockMeta for ColdSlot {
    fn start_ts(&self) -> Timestamp {
        match self {
            ColdSlot::Loaded(b) => b.start_ts,
            ColdSlot::Meta { start_ts, .. } => *start_ts,
        }
    }
    fn end_ts(&self) -> Timestamp {
        match self {
            ColdSlot::Loaded(b) => b.end_ts,
            ColdSlot::Meta { end_ts, .. } => *end_ts,
        }
    }
    fn height(&self) -> u32 {
        match self {
            ColdSlot::Loaded(b) => b.height,
            ColdSlot::Meta { height, .. } => *height,
        }
    }
}

impl Borrow<Block> for ColdSlot {
    fn borrow(&self) -> &Block {
        match self {
            ColdSlot::Loaded(b) => b,
            // The executor only borrows blocks named by the selection, and
            // the cover loaded every selected block; reaching a Meta slot is
            // a logic bug, not a recoverable state.
            ColdSlot::Meta { .. } => {
                unreachable!("executor borrowed a block outside the loaded cover")
            }
        }
    }
}

/// Shared core of a cold index: the map, parsed layout, eager timestamp
/// column, and the block cache. Owned by [`ColdIndex`] and weakly by the
/// prefetch thread.
struct ColdCore {
    map: Arc<FileMap>,
    layout: V7Layout,
    times: TimeChunks,
    cache: BlockCache,
    /// `block_of_leaf[leaf ordinal]` = postorder index of its height-0 block.
    block_of_leaf: Vec<usize>,
    /// Leaves with ordinal `>= hot_floor` are pinned resident (the newest
    /// leaves whose records fit in half the RAM budget).
    hot_floor: usize,
    /// Placeholder for unpinned store slots; never read by the executor.
    empty_seg: Arc<Segment>,
    prefetch_enabled: AtomicBool,
    /// Whether the pin walk may split decode onto a scoped helper thread.
    /// Defaults to `available_parallelism() > 1`: on a single-core host the
    /// helper cannot overlap anything and only adds contention.
    helper_decode: AtomicBool,
}

impl ColdCore {
    /// Verifies the stored CRC of `b[off..off + len]` — for mapped backing
    /// this read *is* the disk I/O of the piece.
    fn verify_crc(
        &self,
        off: usize,
        len: usize,
        expected: u32,
        section: &'static str,
    ) -> Result<(), MbiError> {
        let got = crc32(&self.map.bytes()[off..off + len]);
        if got != expected {
            return Err(MbiError::ChecksumMismatch { section, expected, got });
        }
        Ok(())
    }

    /// The file span a leaf's record occupies (page-rounded, graph
    /// included) — the unit of residency accounting and `madvise`.
    fn leaf_span(&self, leaf: usize) -> Range<usize> {
        let l = &self.layout.leaves[leaf];
        l.record_off..(l.graph_off + l.graph_len).next_multiple_of(PAGE)
    }

    /// Decodes leaf `leaf`: CRC-verify each section over the mapped bytes,
    /// then build a zero-copy segment plus its height-0 block.
    fn load_leaf(&self, leaf: usize) -> Result<LoadedPiece, MbiError> {
        let lay = &self.layout;
        let l = &lay.leaves[leaf];
        let b = self.map.bytes();
        let dim = lay.config.dim;
        let rows = lay.seg_rows;
        let rows_off = l.record_off + lay.ts_len();
        let inv_off = rows_off + lay.rows_len();
        let sq8_off = inv_off + lay.inv_len();

        self.verify_crc(rows_off, lay.rows_len(), l.crc_rows, "leaf rows")?;
        let data = Col::mapped(self.map.clone(), rows_off, rows * dim)
            .map_err(|e| MbiError::corrupt(rows_off, e))?;

        let inv_norms = if lay.has_norms {
            self.verify_crc(inv_off, lay.inv_len(), l.crc_inv, "leaf norms")?;
            for r in 0..rows {
                let x = rd_f32(b, inv_off + r * 4);
                if !x.is_finite() || x < 0.0 {
                    return Err(MbiError::corrupt(
                        inv_off + r * 4,
                        format!("invalid inverse norm {x}"),
                    ));
                }
            }
            Some(
                Col::mapped(self.map.clone(), inv_off, rows)
                    .map_err(|e| MbiError::corrupt(inv_off, e))?,
            )
        } else {
            None
        };

        let sq8 = if lay.has_sq8 {
            self.verify_crc(sq8_off, lay.sq8_len(), l.crc_sq8, "leaf sq8")?;
            Some(self.map_sq8(sq8_off, dim, rows)?)
        } else {
            None
        };

        let mut seg = Segment::from_cols(dim, data, inv_norms, sq8);
        if !lay.has_sq8 && lay.config.sq8_scan {
            // A quantizing config must see a uniformly quantized store even
            // when the stream was written without codes.
            seg.build_sq8();
        }

        self.verify_crc(l.graph_off, l.graph_len, l.crc_graph, "block graph")?;
        let graph = decode_graph_at(b, l.graph_off, l.graph_len, rows)?;
        let meta = &lay.blocks[self.block_of_leaf[leaf]];
        let block = Arc::new(Block {
            rows: meta.rows.clone(),
            height: 0,
            start_ts: meta.start_ts,
            end_ts: meta.end_ts,
            graph,
        });

        let span = self.leaf_span(leaf);
        let bytes = (span.end - span.start) as u64
            + seg.memory_bytes() as u64
            + block.memory_bytes() as u64;
        Ok(LoadedPiece { piece: Piece::Leaf(Arc::new(seg), block), bytes, advise: Some(span) })
    }

    /// Maps one leaf's SQ8 column group (v7 order: mins, deltas, row norms,
    /// codes), validating every scalar like the eager decoder does.
    fn map_sq8(&self, sq8_off: usize, dim: usize, rows: usize) -> Result<Sq8Column, MbiError> {
        let b = self.map.bytes();
        let mins_off = sq8_off;
        let deltas_off = mins_off + dim * 4;
        let norms_off = deltas_off + dim * 4;
        let codes_off = norms_off + rows * 4;
        for i in 0..dim {
            let x = rd_f32(b, mins_off + i * 4);
            if !x.is_finite() {
                return Err(MbiError::corrupt(mins_off + i * 4, format!("invalid sq8 min {x}")));
            }
            let x = rd_f32(b, deltas_off + i * 4);
            if !x.is_finite() || x < 0.0 {
                return Err(MbiError::corrupt(
                    deltas_off + i * 4,
                    format!("invalid sq8 delta {x}"),
                ));
            }
        }
        for r in 0..rows {
            let x = rd_f32(b, norms_off + r * 4);
            if !x.is_finite() || x < 0.0 {
                return Err(MbiError::corrupt(
                    norms_off + r * 4,
                    format!("invalid sq8 row norm {x}"),
                ));
            }
        }
        fn col<T: mbi_ann::mapped::Plain>(
            map: &Arc<FileMap>,
            off: usize,
            len: usize,
        ) -> Result<Col<T>, MbiError> {
            Col::mapped(map.clone(), off, len).map_err(|e| MbiError::corrupt(off, e))
        }
        Ok(Sq8Column::from_cols(
            dim,
            col(&self.map, codes_off, rows * dim)?,
            col(&self.map, mins_off, dim)?,
            col(&self.map, deltas_off, dim)?,
            col(&self.map, norms_off, rows)?,
        ))
    }

    /// Decodes the graph of internal block `bi` into an owned [`Block`].
    fn load_graph(&self, bi: usize) -> Result<LoadedPiece, MbiError> {
        let meta = &self.layout.blocks[bi];
        self.verify_crc(meta.graph_off, meta.graph_len, meta.graph_crc, "block graph")?;
        let graph =
            decode_graph_at(self.map.bytes(), meta.graph_off, meta.graph_len, meta.rows.len())?;
        let block = Arc::new(Block {
            rows: meta.rows.clone(),
            height: meta.height,
            start_ts: meta.start_ts,
            end_ts: meta.end_ts,
            graph,
        });
        let bytes = block.memory_bytes() as u64;
        let advise = Some(meta.graph_off..meta.graph_off + meta.graph_len);
        Ok(LoadedPiece { piece: Piece::Graph(block), bytes, advise })
    }

    /// Fetches `key` through the cache, loading and inserting on miss.
    /// `prefetch` marks loads issued by the prefetch helper (counted in
    /// [`TierStats::prefetches`]; cache hits are not).
    fn piece(&self, key: PieceKey, prefetch: bool) -> Result<Piece, MbiError> {
        let count = || {
            if prefetch {
                self.cache.prefetches.fetch_add(1, Relaxed);
            }
        };
        match key {
            PieceKey::Leaf(leaf) => {
                let pinned = leaf >= self.hot_floor;
                self.cache.get_or_load(key, leaf, pinned, || {
                    count();
                    self.load_leaf(leaf)
                })
            }
            PieceKey::Graph(bi) => {
                let ord = self.layout.blocks[bi].rows.start / self.layout.seg_rows;
                self.cache.get_or_load(key, ord, false, || {
                    count();
                    self.load_graph(bi)
                })
            }
        }
    }

    /// Issues `madvise(WILLNEED)` for the file span backing `key`.
    fn advise_will_need(&self, key: PieceKey) {
        let range = match key {
            PieceKey::Leaf(leaf) => self.leaf_span(leaf),
            PieceKey::Graph(bi) => {
                let m = &self.layout.blocks[bi];
                m.graph_off..m.graph_off + m.graph_len
            }
        };
        self.map.advise(range, Advice::WillNeed);
    }

    /// Expands a resolved selection into the pieces it touches: one leaf
    /// piece per covered leaf, plus the graph of every internal block.
    fn cover_pieces(&self, selected: &[usize]) -> Vec<PieceKey> {
        let s_l = self.layout.seg_rows;
        let mut keys = Vec::new();
        for &bi in selected {
            let meta = &self.layout.blocks[bi];
            if meta.height == 0 {
                keys.push(PieceKey::Leaf(meta.rows.start / s_l));
            } else {
                keys.extend(
                    (meta.rows.start / s_l..meta.rows.end.div_ceil(s_l)).map(PieceKey::Leaf),
                );
                keys.push(PieceKey::Graph(bi));
            }
        }
        keys
    }

    /// Fetches every piece of a cover, pinned. When prefetch is enabled and
    /// at least two pieces are cold, the cover is split between the calling
    /// thread (front half) and a scoped helper thread (back half) so two
    /// pieces decode at once. Both halves hold their `Arc` pins until the
    /// caller takes the merged vector, so even a zero budget cannot evict a
    /// helper-decoded piece before the query reaches it.
    fn fetch_pieces(&self, keys: &[PieceKey]) -> Result<Vec<Piece>, MbiError> {
        let cold = keys.iter().filter(|&&k| !self.cache.contains(k)).count();
        if cold < 2 || !self.prefetch_enabled.load(Relaxed) || !self.helper_decode.load(Relaxed) {
            return keys.iter().map(|&k| self.piece(k, false)).collect();
        }
        let (front, back) = keys.split_at(keys.len() / 2);
        let (front_pieces, back_pieces) = thread::scope(|s| {
            let helper = s
                .spawn(|| back.iter().map(|&k| self.piece(k, true)).collect::<Result<Vec<_>, _>>());
            let front_pieces =
                front.iter().map(|&k| self.piece(k, false)).collect::<Result<Vec<_>, _>>();
            let back_pieces = match helper.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            (front_pieces, back_pieces)
        });
        let mut pieces = front_pieces?;
        pieces.extend(back_pieces?);
        Ok(pieces)
    }

    /// Loads and pins every piece of a cover, assembling the executor's
    /// store (placeholder segments outside the cover) and block array
    /// (metadata-only slots outside the cover).
    fn pin(&self, keys: &[PieceKey]) -> Result<(SegmentStore, Vec<ColdSlot>), MbiError> {
        let lay = &self.layout;
        let mut segs = vec![self.empty_seg.clone(); lay.num_leaves];
        let mut slots: Vec<ColdSlot> = lay
            .blocks
            .iter()
            .map(|m| ColdSlot::Meta { start_ts: m.start_ts, end_ts: m.end_ts, height: m.height })
            .collect();
        let pieces = self.fetch_pieces(keys)?;
        for (&key, piece) in keys.iter().zip(pieces) {
            match (key, piece) {
                (PieceKey::Leaf(leaf), Piece::Leaf(seg, block)) => {
                    segs[leaf] = seg;
                    slots[self.block_of_leaf[leaf]] = ColdSlot::Loaded(block);
                }
                (PieceKey::Graph(bi), Piece::Graph(block)) => {
                    slots[bi] = ColdSlot::Loaded(block);
                }
                _ => unreachable!("cache returned a piece of the wrong kind"),
            }
        }
        Ok((SegmentStore::from_pinned(lay.config.dim, lay.seg_rows, segs), slots))
    }
}

/// The advise thread: receives resolved covers and issues
/// `madvise(WILLNEED)` for every cold span so the kernel starts readahead
/// while the query's pin walk is still decoding earlier pieces. Decode
/// itself happens in [`ColdCore::fetch_pieces`], which holds its pins —
/// decoding here would let a sub-cover budget evict a prefetched piece
/// before the query reaches it, turning prefetch into pure wasted work.
fn prefetch_worker(rx: Receiver<Vec<PieceKey>>, core: Weak<ColdCore>) {
    while let Ok(keys) = rx.recv() {
        let Some(core) = core.upgrade() else { return };
        for key in keys.into_iter().filter(|&k| !core.cache.contains(k)) {
            core.advise_will_need(key);
        }
    }
}

/// Counters of the cold tier, all cumulative since open except
/// `bytes_resident`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Cache lookups served without touching the file.
    pub hits: u64,
    /// Cache lookups that decoded from the map (includes prefetch loads).
    pub misses: u64,
    /// Pieces demoted by the LRU policy.
    pub evictions: u64,
    /// Pieces decoded by the prefetch helper thread (the back half of each
    /// cold cover) rather than the query thread itself.
    pub prefetches: u64,
    /// Bytes currently charged against the RAM budget.
    pub bytes_resident: u64,
    /// Newest leaves pinned resident (never evicted).
    pub pinned_leaves: usize,
    /// The configured budget, after any `MBI_RAM_BUDGET` override.
    pub budget_bytes: u64,
}

/// A read-only MBI snapshot served from a v7 file through an LRU block
/// cache — the cold tier.
///
/// Queries return the exact same results as the in-RAM snapshot the file
/// was serialised from, for any RAM budget (including `0`, where every
/// piece is demoted as soon as the query that pinned it completes).
///
/// ```no_run
/// use mbi_core::{tier::ColdIndex, TimeWindow};
///
/// let cold = ColdIndex::open("snapshot.mbi").unwrap();
/// let hits = cold.query(&[0.0; 4], 10, TimeWindow::new(100, 900)).unwrap();
/// # let _ = hits;
/// ```
pub struct ColdIndex {
    core: Arc<ColdCore>,
    prefetch_tx: Option<Sender<Vec<PieceKey>>>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ColdIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdIndex")
            .field("num_leaves", &self.core.layout.num_leaves)
            .field("seg_rows", &self.core.layout.seg_rows)
            .field("hot_floor", &self.core.hot_floor)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ColdIndex {
    /// Opens and maps a v7 snapshot file.
    ///
    /// Only the directories and the timestamp column are read eagerly; the
    /// environment variable `MBI_RAM_BUDGET` (bytes) overrides the persisted
    /// [`MbiConfig::ram_budget_bytes`] for the lifetime of this handle.
    pub fn open(path: impl AsRef<Path>) -> Result<ColdIndex, MbiError> {
        let map = FileMap::open(path.as_ref()).map_err(MbiError::Io)?;
        Self::from_map(Arc::new(map))
    }

    /// [`Self::open`] with an explicit RAM budget, overriding both the
    /// persisted [`MbiConfig::ram_budget_bytes`] and the `MBI_RAM_BUDGET`
    /// environment variable.
    pub fn open_with_budget(path: impl AsRef<Path>, budget: u64) -> Result<ColdIndex, MbiError> {
        let map = FileMap::open(path.as_ref()).map_err(MbiError::Io)?;
        Self::from_map_with_budget(Arc::new(map), budget)
    }

    /// Opens a cold index over an already-mapped (or in-memory) byte
    /// buffer — the same validation and cache behaviour as [`Self::open`].
    pub fn from_map(map: Arc<FileMap>) -> Result<ColdIndex, MbiError> {
        Self::build(map, None)
    }

    /// [`Self::from_map`] with an explicit RAM budget (see
    /// [`Self::open_with_budget`]).
    pub fn from_map_with_budget(map: Arc<FileMap>, budget: u64) -> Result<ColdIndex, MbiError> {
        Self::build(map, Some(budget))
    }

    /// Budget precedence: explicit caller override, then `MBI_RAM_BUDGET`,
    /// then the value persisted in the stream's config.
    fn build(map: Arc<FileMap>, budget_override: Option<u64>) -> Result<ColdIndex, MbiError> {
        let mut layout = parse_v7_layout(map.bytes())?;
        if let Some(b) = budget_override {
            layout.config.ram_budget_bytes = b;
        } else if let Ok(v) = std::env::var("MBI_RAM_BUDGET") {
            if let Ok(n) = v.trim().parse::<u64>() {
                layout.config.ram_budget_bytes = n;
            }
        }
        let config = layout.config;

        // The timestamp column is the floor of the cold tier: selection and
        // window partitioning touch it on every query, and at 8 bytes/row it
        // is ~d/2 times smaller than the vectors. Verify and copy it now so
        // queries never fault timestamp pages.
        let mut times = TimeChunks::new(layout.seg_rows);
        for leaf in &layout.leaves {
            let ts_len = layout.ts_len();
            let got = crc32(&map.bytes()[leaf.record_off..leaf.record_off + ts_len]);
            if got != leaf.crc_ts {
                return Err(MbiError::ChecksumMismatch {
                    section: "leaf timestamps",
                    expected: leaf.crc_ts,
                    got,
                });
            }
            let chunk: Arc<[Timestamp]> = (0..layout.seg_rows)
                .map(|r| rd_i64(map.bytes(), leaf.record_off + r * 8))
                .collect();
            times.push_chunk(chunk);
        }

        let block_of_leaf: Vec<usize> = layout
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, m)| m.height == 0)
            .map(|(i, _)| i)
            .collect();
        debug_assert_eq!(block_of_leaf.len(), layout.num_leaves);

        // Pin the newest leaves whose records fit in half the budget: the
        // hot suffix of a time-accumulating workload. The other half is
        // left to the LRU over cold reads.
        let mut hot_floor = layout.num_leaves;
        let mut pinned_bytes: u64 = 0;
        let half_budget = config.ram_budget_bytes / 2;
        for leaf in (0..layout.num_leaves).rev() {
            let l = &layout.leaves[leaf];
            let span = ((l.graph_off + l.graph_len).next_multiple_of(PAGE) - l.record_off) as u64;
            if pinned_bytes.saturating_add(span) > half_budget {
                break;
            }
            pinned_bytes += span;
            hot_floor = leaf;
        }

        let empty_seg = Arc::new(Segment::from_cols(config.dim, Col::from(Vec::new()), None, None));
        let cache = BlockCache::new(config.ram_budget_bytes, config.cache_shards, map.clone());
        let core = Arc::new(ColdCore {
            map,
            layout,
            times,
            cache,
            block_of_leaf,
            hot_floor,
            empty_seg,
            prefetch_enabled: AtomicBool::new(true),
            helper_decode: AtomicBool::new(
                thread::available_parallelism().is_ok_and(|n| n.get() > 1),
            ),
        });

        let (tx, rx) = mpsc::channel::<Vec<PieceKey>>();
        let weak = Arc::downgrade(&core);
        let worker = thread::Builder::new()
            .name("mbi-cold-prefetch".into())
            .spawn(move || prefetch_worker(rx, weak))
            .map_err(MbiError::Io)?;
        Ok(ColdIndex { core, prefetch_tx: Some(tx), worker: Some(worker) })
    }

    /// The configuration the file was written with (budget possibly
    /// overridden by `MBI_RAM_BUDGET`).
    pub fn config(&self) -> &MbiConfig {
        &self.core.layout.config
    }

    /// Number of sealed leaves.
    pub fn num_leaves(&self) -> usize {
        self.core.layout.num_leaves
    }

    /// Number of rows served (sealed leaves × `S_L`).
    pub fn len(&self) -> usize {
        self.core.layout.num_leaves * self.core.layout.seg_rows
    }

    /// Whether the file holds no sealed rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enables or disables selection-driven prefetch (enabled by default).
    /// Correctness is unaffected; this is the ablation knob.
    pub fn set_prefetch(&self, enabled: bool) {
        self.core.prefetch_enabled.store(enabled, Relaxed);
    }

    /// Current cache counters.
    pub fn stats(&self) -> TierStats {
        let c = &self.core.cache;
        TierStats {
            hits: c.hits.load(Relaxed),
            misses: c.misses.load(Relaxed),
            evictions: c.evictions.load(Relaxed),
            prefetches: c.prefetches.load(Relaxed),
            bytes_resident: c.bytes_resident(),
            pinned_leaves: self.core.layout.num_leaves - self.core.hot_floor,
            budget_bytes: self.core.layout.config.ram_budget_bytes,
        }
    }

    fn send_prefetch(&self, keys: &[PieceKey]) {
        if keys.is_empty() || !self.core.prefetch_enabled.load(Relaxed) {
            return;
        }
        if let Some(tx) = &self.prefetch_tx {
            let _ = tx.send(keys.to_vec());
        }
    }

    /// TkNN with the config's default search parameters.
    pub fn query(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
    ) -> Result<Vec<TknnResult>, MbiError> {
        let params = self.core.layout.config.search;
        Ok(self.query_with_params(query, k, window, &params)?.results)
    }

    /// TkNN with explicit search parameters, plus search statistics.
    ///
    /// Fails only on I/O-level corruption (a piece whose CRC no longer
    /// matches the directory); results are bit-identical to the in-RAM
    /// snapshot path.
    pub fn query_with_params(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
    ) -> Result<QueryOutput, MbiError> {
        let core = &*self.core;
        let lay = &core.layout;
        // Selection runs on directory metadata alone — this is the prefetch
        // oracle: every block the executor will touch is named here, before
        // any vector byte is read.
        let selection = SearchBlockSet {
            blocks: select_blocks(&lay.blocks, lay.num_leaves, lay.config.tau, window),
            tail: false,
        };
        let keys = core.cover_pieces(&selection.blocks);
        self.send_prefetch(&keys);
        let out = {
            let (store, slots) = core.pin(&keys)?;
            let target = QueryTarget {
                config: &lay.config,
                store: &store,
                times: &core.times,
                blocks: &slots,
                num_leaves: lay.num_leaves,
            };
            target.query_on_selection_threaded(
                query,
                k,
                window,
                params,
                &selection,
                lay.config.query_threads,
            )
        };
        core.cache.maintain();
        Ok(out)
    }

    /// [`Self::query_with_params`] under a cooperative deadline: the search
    /// checks the deadline between block visits and returns whatever it has
    /// merged so far with [`QueryOutput::timed_out`] set instead of running
    /// past `deadline`. `None` never times out.
    ///
    /// An *already-expired* deadline short-circuits before the cold read
    /// path entirely: selection still runs (directory metadata, already
    /// resident) but no piece is prefetched, pinned, or decoded — a timed
    /// -out query must not fault cold pages it will never score.
    pub fn query_with_deadline(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        deadline: Option<std::time::Instant>,
    ) -> Result<QueryOutput, MbiError> {
        let core = &*self.core;
        let lay = &core.layout;
        let selection = SearchBlockSet {
            blocks: select_blocks(&lay.blocks, lay.num_leaves, lay.config.tau, window),
            tail: false,
        };
        let deadline = Deadline::new(deadline);
        if deadline.expired() {
            return Ok(QueryOutput {
                results: Vec::new(),
                stats: SearchStats::default(),
                selection,
                timed_out: true,
            });
        }
        let keys = core.cover_pieces(&selection.blocks);
        self.send_prefetch(&keys);
        let out = {
            let (store, slots) = core.pin(&keys)?;
            let target = QueryTarget {
                config: &lay.config,
                store: &store,
                times: &core.times,
                blocks: &slots,
                num_leaves: lay.num_leaves,
            };
            target.query_on_selection_deadline(
                query,
                k,
                window,
                params,
                &selection,
                lay.config.query_threads,
                &deadline,
            )
        };
        core.cache.maintain();
        Ok(out)
    }

    /// Exact (brute-force) TkNN over the mapped rows.
    pub fn exact_query(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
    ) -> Result<Vec<TknnResult>, MbiError> {
        let core = &*self.core;
        let lay = &core.layout;
        let lo = core.times.partition_below(window.start);
        let hi = core.times.partition_below(window.end);
        let keys: Vec<PieceKey> = if lo < hi {
            (lo / lay.seg_rows..hi.div_ceil(lay.seg_rows)).map(PieceKey::Leaf).collect()
        } else {
            Vec::new()
        };
        self.send_prefetch(&keys);
        let out = {
            let (store, slots) = core.pin(&keys)?;
            let target = QueryTarget {
                config: &lay.config,
                store: &store,
                times: &core.times,
                blocks: &slots,
                num_leaves: lay.num_leaves,
            };
            target.exact_query(query, k, window)
        };
        core.cache.maintain();
        Ok(out)
    }
}

impl Drop for ColdIndex {
    fn drop(&mut self) {
        // Dropping the sender unblocks the worker's recv loop.
        self.prefetch_tx.take();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IndexSnapshot;
    use crate::index::MbiIndex;
    use mbi_math::Metric;

    fn build_snapshot(metric: Metric, n: usize, budget: u64, sq8: bool) -> IndexSnapshot {
        let config = MbiConfig::new(3, metric)
            .with_leaf_size(16)
            .with_ram_budget_bytes(budget)
            .with_sq8_scan(sq8);
        let mut idx = MbiIndex::new(config);
        for i in 0..n {
            let x = i as f32;
            idx.insert(&[x.mul_add(0.05, 0.3), (x * 0.1).sin(), 1.0 - x * 0.01], i as i64).unwrap();
        }
        IndexSnapshot::from_index(&idx).unwrap()
    }

    fn cold_from(snap: &IndexSnapshot) -> ColdIndex {
        let bytes = snap.to_bytes().to_vec();
        ColdIndex::from_map(Arc::new(FileMap::from_bytes(bytes))).unwrap()
    }

    /// Opens with an explicit budget so the assertion stays valid even when
    /// the whole test process runs under an `MBI_RAM_BUDGET` override (the
    /// CI tiering job forces 0). Tests that assert budget-dependent stats
    /// must use this; identity-only tests can use [`cold_from`].
    fn cold_with(snap: &IndexSnapshot, budget: u64) -> ColdIndex {
        let bytes = snap.to_bytes().to_vec();
        ColdIndex::from_map_with_budget(Arc::new(FileMap::from_bytes(bytes)), budget).unwrap()
    }

    fn windows() -> Vec<TimeWindow> {
        vec![
            TimeWindow::new(0, 128),
            TimeWindow::new(0, 17),
            TimeWindow::new(15, 16),
            TimeWindow::new(13, 97),
            TimeWindow::new(40, 41),
            TimeWindow::new(64, 64),
            TimeWindow::new(90, 128),
            TimeWindow::new(-5, 500),
        ]
    }

    fn assert_cold_matches(snap: &IndexSnapshot, cold: &ColdIndex) {
        let params = snap.config().search;
        for w in windows() {
            for q in [0.0f32, 7.5, 99.0] {
                let query = [q * 0.05, 0.2, -q * 0.01 + 0.5];
                let hot = snap.query_with_params(&query, 5, w, &params);
                let via_cold = cold.query_with_params(&query, 5, w, &params).unwrap();
                assert_eq!(hot.results, via_cold.results, "window {w:?} query {q}");
                assert_eq!(
                    snap.exact_query(&query, 5, w),
                    cold.exact_query(&query, 5, w).unwrap(),
                    "exact, window {w:?} query {q}"
                );
            }
        }
    }

    #[test]
    fn cold_matches_hot_all_metrics_all_resident() {
        for metric in [Metric::Euclidean, Metric::Angular, Metric::InnerProduct] {
            let snap = build_snapshot(metric, 128, u64::MAX, false);
            let cold = cold_with(&snap, u64::MAX);
            assert_cold_matches(&snap, &cold);
            let stats = cold.stats();
            assert_eq!(stats.evictions, 0, "unlimited budget must not evict");
            assert_eq!(stats.pinned_leaves, 8, "unlimited budget pins every leaf");
        }
    }

    #[test]
    fn cold_matches_hot_all_metrics_zero_budget() {
        for metric in [Metric::Euclidean, Metric::Angular, Metric::InnerProduct] {
            let snap = build_snapshot(metric, 128, 0, false);
            let cold = cold_with(&snap, 0);
            assert_cold_matches(&snap, &cold);
            let stats = cold.stats();
            assert_eq!(stats.pinned_leaves, 0, "zero budget pins nothing");
            assert!(stats.evictions > 0, "zero budget must evict, got {stats:?}");
            assert_eq!(stats.bytes_resident, 0, "maintain() demotes everything at budget 0");
        }
    }

    #[test]
    fn cold_matches_hot_with_sq8() {
        for metric in [Metric::Euclidean, Metric::Angular] {
            for budget in [u64::MAX, 0] {
                let snap = build_snapshot(metric, 128, budget, true);
                let cold = cold_from(&snap);
                assert_cold_matches(&snap, &cold);
            }
        }
    }

    #[test]
    fn expired_deadline_times_out_without_faulting_cold_pages() {
        let snap = build_snapshot(Metric::Euclidean, 128, 0, false);
        let cold = cold_with(&snap, 0);
        let params = snap.config().search;
        let w = TimeWindow::new(0, 128);
        let query = [0.4f32, 0.1, 0.6];
        let before = cold.stats();
        let expired = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let out = cold.query_with_deadline(&query, 5, w, &params, Some(expired)).unwrap();
        assert!(out.timed_out, "expired deadline must flag the partial answer");
        assert!(out.results.is_empty(), "nothing was scored");
        assert!(!out.selection.blocks.is_empty(), "selection is metadata-only and still runs");
        let after = cold.stats();
        assert_eq!(before.misses, after.misses, "no cold piece may be faulted in");
        assert_eq!(before.hits, after.hits, "no cache lookup at all");
        assert_eq!(before.prefetches, after.prefetches, "no prefetch issued");

        // A live deadline takes the normal path and matches the
        // undeadlined query bit-for-bit.
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let live = cold.query_with_deadline(&query, 5, w, &params, Some(far)).unwrap();
        assert!(!live.timed_out);
        let plain = cold.query_with_params(&query, 5, w, &params).unwrap();
        assert_eq!(live.results, plain.results);
        // And no deadline at all never times out.
        let none = cold.query_with_deadline(&query, 5, w, &params, None).unwrap();
        assert_eq!(none.results, plain.results);
        assert!(!none.timed_out);
    }

    #[test]
    fn evict_and_reread_cycles_stay_bit_identical() {
        let snap = build_snapshot(Metric::Euclidean, 128, 0, false);
        let cold = cold_with(&snap, 0);
        let params = snap.config().search;
        let w = TimeWindow::new(3, 120);
        let query = [1.5f32, 0.1, 0.2];
        let first = cold.query_with_params(&query, 7, w, &params).unwrap();
        assert_eq!(first.results, snap.query_with_params(&query, 7, w, &params).results);
        for _ in 0..5 {
            // Every pass re-faults and re-decodes the whole cover.
            let again = cold.query_with_params(&query, 7, w, &params).unwrap();
            assert_eq!(again.results, first.results);
            assert_eq!(cold.stats().bytes_resident, 0);
        }
        assert!(cold.stats().evictions >= 5);
    }

    #[test]
    fn warm_cache_serves_hits() {
        let snap = build_snapshot(Metric::Euclidean, 128, u64::MAX, false);
        let cold = cold_with(&snap, u64::MAX);
        let w = TimeWindow::new(0, 128);
        let query = [2.0f32, 0.0, 0.4];
        cold.query(&query, 5, w).unwrap();
        let cold_stats = cold.stats();
        cold.query(&query, 5, w).unwrap();
        let warm_stats = cold.stats();
        assert_eq!(warm_stats.misses, cold_stats.misses, "second pass must not re-load");
        assert!(warm_stats.hits > cold_stats.hits, "second pass must hit");
        assert!(warm_stats.bytes_resident > 0);
    }

    #[test]
    fn prefetch_off_stays_correct() {
        let snap = build_snapshot(Metric::Angular, 128, 0, false);
        let cold = cold_from(&snap);
        cold.set_prefetch(false);
        assert_cold_matches(&snap, &cold);
        assert_eq!(cold.stats().prefetches, 0);
    }

    #[test]
    fn forced_helper_decode_stays_bit_identical() {
        // The scoped-helper decode path is gated on available_parallelism,
        // so force it on: results must be identical and the helper's loads
        // must show up in the prefetch counter.
        let snap = build_snapshot(Metric::Euclidean, 128, 0, false);
        let cold = cold_with(&snap, 0);
        cold.core.helper_decode.store(true, Relaxed);
        assert_cold_matches(&snap, &cold);
        let stats = cold.stats();
        assert!(stats.prefetches > 0, "helper decoded no pieces: {stats:?}");
        assert_eq!(stats.bytes_resident, 0, "budget 0 still demotes everything");
    }

    #[test]
    fn small_budget_partial_pinning() {
        let snap = build_snapshot(Metric::Euclidean, 128, 0, false);
        // One leaf record (dim 3, S_L 16) spans two pages once the graph is
        // co-located; a 4-page half-budget pins the newest 1-2 leaves.
        let bytes = snap.to_bytes().to_vec();
        let layout_budget = (8 * PAGE) as u64;
        // Restore (not remove) any pre-existing override afterwards so a
        // process-wide MBI_RAM_BUDGET (the CI tiering job) stays in force
        // for the rest of the suite.
        let prev = std::env::var("MBI_RAM_BUDGET").ok();
        std::env::set_var("MBI_RAM_BUDGET", layout_budget.to_string());
        let cold = ColdIndex::from_map(Arc::new(FileMap::from_bytes(bytes)));
        match prev {
            Some(v) => std::env::set_var("MBI_RAM_BUDGET", v),
            None => std::env::remove_var("MBI_RAM_BUDGET"),
        }
        let cold = cold.unwrap();
        let stats = cold.stats();
        assert_eq!(stats.budget_bytes, layout_budget, "env var overrides persisted budget");
        assert!(stats.pinned_leaves >= 1, "half the budget pins newest leaves: {stats:?}");
        assert!(stats.pinned_leaves < 8, "budget cannot pin everything: {stats:?}");
        assert_cold_matches(&snap, &cold);
    }

    #[test]
    fn mixed_window_reads_after_eviction_pressure() {
        // A pseudo-random walk over windows at a tiny budget: every answer
        // must match the hot snapshot regardless of what was evicted.
        let snap = build_snapshot(Metric::InnerProduct, 256, 3 * PAGE as u64, false);
        let cold = cold_with(&snap, 3 * PAGE as u64);
        let params = snap.config().search;
        let mut state = 0x243f6a88u64;
        for _ in 0..40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = (state >> 33) % 256;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = (state >> 33) % 256;
            let (lo, hi) = if a <= b { (a, b + 1) } else { (b, a + 1) };
            let w = TimeWindow::new(lo as i64, hi as i64);
            let q = [(state % 97) as f32 * 0.07, 0.3, -((state % 13) as f32) * 0.05];
            assert_eq!(
                snap.query_with_params(&q, 4, w, &params).results,
                cold.query_with_params(&q, 4, w, &params).unwrap().results,
                "window {w:?}"
            );
        }
        assert!(cold.stats().evictions > 0, "tiny budget must churn: {:?}", cold.stats());
    }

    #[test]
    fn corrupt_leaf_rows_surface_checksum_error() {
        let snap = build_snapshot(Metric::Euclidean, 64, u64::MAX, false);
        let mut bytes = snap.to_bytes().to_vec();
        let layout = parse_v7_layout(&bytes).unwrap();
        // Flip one byte inside leaf 0's row section; the directory CRC stays
        // valid (it covers the directory, not the records), so open succeeds
        // and the load must catch it lazily.
        let off = layout.leaves[0].record_off + layout.ts_len() + 5;
        bytes[off] ^= 0xff;
        let cold = ColdIndex::from_map(Arc::new(FileMap::from_bytes(bytes))).unwrap();
        let err = cold.query(&[0.0, 0.0, 0.0], 3, TimeWindow::new(0, 64)).unwrap_err();
        assert!(matches!(err, MbiError::ChecksumMismatch { section: "leaf rows", .. }), "{err}");
    }

    /// The test above flips byte 5 of a 768-byte section. At the benchmark's
    /// geometry (d = 128, leaf 1 024) a row section is 512 KiB and the
    /// checksum kernel folds it 64 bytes at a time, so flip where a fold
    /// could lose a byte: the first one, one on a 64-byte boundary, and the
    /// last — in every section a cache miss verifies lazily.
    #[test]
    fn corrupt_byte_anywhere_in_a_lazily_verified_section_is_a_checksum_error() {
        // Angular + sq8_scan writes all five lazily verified sections.
        let (dim, leaf) = (128, 1024);
        let config = MbiConfig::new(dim, Metric::Angular).with_leaf_size(leaf).with_sq8_scan(true);
        let mut idx = MbiIndex::new(config);
        let mut v = vec![0.0f32; dim];
        for i in 0..2 * leaf {
            for (j, x) in v.iter_mut().enumerate() {
                *x = ((i * 31 + j * 7) % 101) as f32 * 0.01 + ((i + j) as f32 * 0.37).sin();
            }
            idx.insert(&v, i as i64).unwrap();
        }
        let clean = IndexSnapshot::from_index(&idx).unwrap().to_bytes().to_vec();
        let lay = parse_v7_layout(&clean).unwrap();
        let (l, root) = (lay.leaves[1], lay.blocks.iter().find(|m| m.height == 1).unwrap());
        let rows_off = l.record_off + lay.ts_len();
        let inv_off = rows_off + lay.rows_len();
        let sections = [
            ("leaf rows", rows_off, lay.rows_len()),
            ("leaf norms", inv_off, lay.inv_len()),
            ("leaf sq8", inv_off + lay.inv_len(), lay.sq8_len()),
            ("block graph", l.graph_off, l.graph_len),
            ("block graph", root.graph_off, root.graph_len),
        ];
        // A window over both leaves selects the root: its graph and both leaf
        // records are loaded, each through `verify_crc`.
        let window = TimeWindow::new(0, 2 * leaf as i64);
        for (name, off, len) in sections {
            assert!(len > 128, "{name}: {len} bytes never reach a fold boundary");
            for at in [0, (len / 2).next_multiple_of(64), len - 1] {
                let mut bytes = clean.clone();
                bytes[off + at] ^= 0x10;
                let cold = ColdIndex::from_map_with_budget(Arc::new(FileMap::from_bytes(bytes)), 0)
                    .unwrap();
                let err = cold.query(&v, 3, window).unwrap_err();
                assert!(
                    matches!(err, MbiError::ChecksumMismatch { section, .. } if section == name),
                    "{name} byte {at} of {len}: {err}"
                );
            }
        }
    }

    #[test]
    fn corrupt_timestamps_rejected_at_open() {
        let snap = build_snapshot(Metric::Euclidean, 64, u64::MAX, false);
        let mut bytes = snap.to_bytes().to_vec();
        let layout = parse_v7_layout(&bytes).unwrap();
        let off = layout.leaves[1].record_off + 3;
        bytes[off] ^= 0x01;
        let err = ColdIndex::from_map(Arc::new(FileMap::from_bytes(bytes))).unwrap_err();
        assert!(
            matches!(err, MbiError::ChecksumMismatch { section: "leaf timestamps", .. }),
            "{err}"
        );
    }

    #[test]
    fn empty_snapshot_opens_and_answers() {
        let config = MbiConfig::new(4, Metric::Euclidean).with_leaf_size(8);
        let snap = IndexSnapshot::from_index(&MbiIndex::new(config)).unwrap();
        let cold = cold_from(&snap);
        assert!(cold.is_empty());
        assert_eq!(cold.query(&[0.0; 4], 3, TimeWindow::new(0, 100)).unwrap(), vec![]);
        assert_eq!(cold.exact_query(&[0.0; 4], 3, TimeWindow::new(0, 100)).unwrap(), vec![]);
    }

    #[test]
    fn open_through_file_roundtrips() {
        let snap = build_snapshot(Metric::Euclidean, 64, u64::MAX, true);
        let dir = std::env::temp_dir().join("mbi_tier_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cold.mbi");
        crate::persist::atomic_write(&path, &snap.to_bytes()).unwrap();
        let cold = ColdIndex::open(&path).unwrap();
        assert_cold_matches(&snap, &cold);
        std::fs::remove_file(&path).ok();
    }
}
