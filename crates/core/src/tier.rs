//! Disk-tiered cold blocks: an mmap-backed read path over a v8 snapshot
//! file and a sharded size-budgeted LRU block cache.
//!
//! A [`ColdIndex`] opens a v8 snapshot *without* decoding its payload: only
//! the header, config, directories, and the timestamp column (8 bytes/row —
//! the selection and windowing floor) are touched at open. It reads the
//! file through the persist module's one snapshot reader, the same one the
//! eager loader uses, so both check the same CRCs and structure and refuse
//! the same streams. Leaf records and internal-block graphs are decoded on
//! demand and cached as zero-copy [`Col`]-backed segments under the RAM
//! budget of [`MbiConfig::ram_budget_bytes`].
//!
//! A miss pays only for what the query reads. Loading a leaf checks its
//! 4-byte-per-row CRC column (and its norm and SQ8 columns), not its rows:
//! each row is checked against its CRC the first time any query reads it,
//! and a query that read a row failing its check returns
//! [`MbiError::ChecksumMismatch`] instead of an answer. A leaf's own graph
//! is decoded and checked only when a query graph-searches that leaf, not
//! when its rows serve a parent block or a scan.
//!
//! MBI's block selection names every block a query will touch *before* any
//! distance math runs, so a query pins its whole cover first — on the
//! calling thread, loading each missing piece in cover order — and searches
//! it after. A [`ColdIndex`] starts no thread: a miss costs less than a
//! thread spawn, so there is nothing for a helper to overlap.
//!
//! Queries are bit-identical to the in-RAM [`IndexSnapshot`] path: selection
//! reads the same spans and heights (here from the block directory), both
//! run the same executor over the same `VectorSource`/`TimeSource`
//! abstractions and the selected blocks alone, and the SQ8/f32 bytes served
//! from the map are the bytes the snapshot serialised.
//!
//! [`IndexSnapshot`]: crate::engine::IndexSnapshot

use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mbi_ann::{Col, FileMap, KnnGraph, SearchParams, SearchStats, Segment, SegmentStore};

use crate::block::{Block, BlockGraph};
use crate::config::MbiConfig;
use crate::error::MbiError;
use crate::index::{QueryOutput, TknnResult};
use crate::layout;
use crate::persist::{open_v8, Columns, V8BlockEntry, V8Layout};
use crate::query_exec::{graph_search_pays, QueryTarget};
use crate::select::{select_blocks, SearchBlockSet, TimeWindow};
use crate::times::TimeChunks;

/// One cacheable unit of the file: a leaf record (rows + side columns + its
/// co-located graph) or an internal block's graph.
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
    /// A leaf's rows, and its block once a query graph-searched the leaf
    /// ([`ColdIndex::leaf_block`]).
    Leaf(Arc<Segment>, Arc<OnceLock<Arc<Block>>>),
    Graph(Arc<Block>),
}

impl Piece {
    /// Whether the cache holds the only remaining reference — no query has
    /// the piece pinned, so it may be evicted.
    fn evictable(&self) -> bool {
        match self {
            Piece::Leaf(seg, block) => {
                Arc::strong_count(seg) == 1
                    && Arc::strong_count(block) == 1
                    && block.get().is_none_or(|b| Arc::strong_count(b) == 1)
            }
            Piece::Graph(block) => Arc::strong_count(block) == 1,
        }
    }

    /// Row checks of the piece's rows that have failed so far.
    fn row_failures(&self) -> u64 {
        match self {
            Piece::Leaf(seg, _) => seg.row_failures(),
            Piece::Graph(_) => 0,
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

    /// Adds `bytes` to the charge of the resident piece `key` — a leaf
    /// block decoded after its leaf was loaded. The caller holds the piece
    /// pinned, so it is still resident; the next [`Self::maintain`] evicts
    /// back under budget.
    fn charge(&self, key: PieceKey, bytes: u64) {
        let mut shard = self.lock_shard(self.shard_of(key));
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.bytes += bytes;
            shard.bytes += bytes;
        }
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
                self.map.drop_pages(range);
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

/// A read-only MBI snapshot served from a v8 file through an LRU block
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
    map: Arc<FileMap>,
    layout: V8Layout,
    times: TimeChunks,
    cache: BlockCache,
    /// Leaves with ordinal `>= hot_floor` are pinned resident (the newest
    /// leaves whose records fit in half the RAM budget).
    hot_floor: usize,
    /// Placeholder for unpinned store slots; never read by the executor.
    empty_seg: Arc<Segment>,
    /// Bytes checksummed since open: piece columns and graphs at load, rows
    /// as queries read them.
    checked_bytes: Arc<AtomicU64>,
}

impl ColdIndex {
    /// Decodes leaf `leaf`'s columns over the mapped bytes into a zero-copy
    /// segment whose rows are checked as they are read, charged for the
    /// record's page-rounded file span (the unit of residency accounting and
    /// `madvise`) and its heap. The leaf's block waits for
    /// [`Self::leaf_block`].
    fn load_leaf(&self, leaf: usize) -> Result<LoadedPiece, MbiError> {
        let lay = &self.layout;
        let cols = Columns::Mapped { map: &self.map, checked_bytes: &self.checked_bytes };
        let seg = lay.decode_segment(&cols, leaf)?;
        let checked = lay.row_crc_len() + lay.inv_len() + lay.sq8_len();
        self.checked_bytes.fetch_add(checked as u64, Relaxed);
        let span = lay.leaf_span(leaf);
        let bytes = (span.end - span.start) as u64 + seg.memory_bytes() as u64;
        let piece = Piece::Leaf(Arc::new(seg), Arc::default());
        Ok(LoadedPiece { piece, bytes, advise: Some(span) })
    }

    /// Block `bi` with its graph, decoded and checked.
    fn decode_block(&self, bi: usize) -> Result<Arc<Block>, MbiError> {
        let block = self.layout.decode_block(self.map.bytes(), bi)?;
        self.checked_bytes.fetch_add(self.layout.blocks[bi].graph_len as u64, Relaxed);
        Ok(Arc::new(block))
    }

    /// Leaf `leaf`'s block, decoding its co-located graph the first time a
    /// query graph-searches the leaf; `cell` is the leaf piece's slot for
    /// it. The graph's heap is charged to the leaf piece when it decodes.
    fn leaf_block(&self, leaf: usize, cell: &OnceLock<Arc<Block>>) -> Result<Arc<Block>, MbiError> {
        if let Some(block) = cell.get() {
            return Ok(Arc::clone(block));
        }
        let block = self.decode_block(layout::leaf_block(leaf))?;
        if cell.set(Arc::clone(&block)).is_ok() {
            self.cache.charge(PieceKey::Leaf(leaf), block.memory_bytes() as u64);
            return Ok(block);
        }
        // A concurrent query decoded it first; keep one copy.
        Ok(Arc::clone(cell.get().expect("set by the query that won the race")))
    }

    /// Decodes the graph of internal block `bi` into an owned [`Block`].
    fn load_graph(&self, bi: usize) -> Result<LoadedPiece, MbiError> {
        let meta = &self.layout.blocks[bi];
        let block = self.decode_block(bi)?;
        let bytes = block.memory_bytes() as u64;
        let advise = Some(meta.graph_off..meta.graph_off + meta.graph_len);
        Ok(LoadedPiece { piece: Piece::Graph(block), bytes, advise })
    }

    /// Fetches `key` through the cache, loading and inserting on miss.
    fn piece(&self, key: PieceKey) -> Result<Piece, MbiError> {
        match key {
            PieceKey::Leaf(leaf) => {
                let pinned = leaf >= self.hot_floor;
                self.cache.get_or_load(key, leaf, pinned, || self.load_leaf(leaf))
            }
            PieceKey::Graph(bi) => {
                let ord = self.layout.blocks[bi].rows.start / self.layout.seg_rows;
                self.cache.get_or_load(key, ord, false, || self.load_graph(bi))
            }
        }
    }

    /// Expands a resolved selection into the pieces it touches: one leaf
    /// piece per covered leaf, plus the graph of every internal block. Also
    /// returns, per selected block, the index of the key whose piece holds
    /// that block's graph (its graph, or its leaf piece), or `None` for a
    /// leaf that `searched` says the executor scans.
    fn cover_pieces(
        &self,
        selected: &[usize],
        searched: impl Fn(&V8BlockEntry) -> bool,
    ) -> (Vec<PieceKey>, Vec<Option<usize>>) {
        let s_l = self.layout.seg_rows;
        let mut keys = Vec::new();
        let mut graphs = Vec::with_capacity(selected.len());
        for &bi in selected {
            let meta = &self.layout.blocks[bi];
            keys.extend((meta.rows.start / s_l..meta.rows.end.div_ceil(s_l)).map(PieceKey::Leaf));
            if meta.height > 0 {
                keys.push(PieceKey::Graph(bi));
            }
            graphs.push((meta.height > 0 || searched(meta)).then_some(keys.len() - 1));
        }
        (keys, graphs)
    }

    /// Selected block `bi` as the executor receives it: with its graph when
    /// `graph` names the piece holding it, and graph-less for a scanned leaf
    /// (the executor then reads only its rows and metadata).
    fn selected_block(
        &self,
        bi: usize,
        graph: Option<(PieceKey, &Piece)>,
    ) -> Result<Arc<Block>, MbiError> {
        match graph {
            Some((PieceKey::Leaf(leaf), Piece::Leaf(_, cell))) => self.leaf_block(leaf, cell),
            Some((PieceKey::Graph(_), Piece::Graph(block))) => Ok(Arc::clone(block)),
            Some(_) => unreachable!("cache returned a piece of the wrong kind"),
            None => {
                let m = &self.layout.blocks[bi];
                let graph = BlockGraph(KnnGraph::from_flat(0, Vec::new()));
                let (rows, height, start_ts, end_ts) =
                    (m.rows.clone(), m.height, m.start_ts, m.end_ts);
                Ok(Arc::new(Block { rows, height, start_ts, end_ts, graph }))
            }
        }
    }

    /// Loads and pins every piece of a cover, in key order, on the calling
    /// thread: the executor's store (placeholder segments outside the
    /// cover) and the pieces. The pins hold until the caller drops them, so
    /// even a zero budget cannot evict a piece before the query reaches it.
    fn pin(&self, keys: &[PieceKey]) -> Result<(SegmentStore, Vec<Piece>), MbiError> {
        let lay = &self.layout;
        let mut segs = vec![self.empty_seg.clone(); lay.num_leaves];
        let pieces = keys.iter().map(|&k| self.piece(k)).collect::<Result<Vec<_>, _>>()?;
        for (&key, piece) in keys.iter().zip(&pieces) {
            if let (PieceKey::Leaf(leaf), Piece::Leaf(seg, _)) = (key, piece) {
                segs[leaf] = Arc::clone(seg);
            }
        }
        Ok((SegmentStore::from_pinned(lay.config.dim, lay.seg_rows, segs), pieces))
    }
}

/// Counters of the cold tier, all cumulative since open except
/// `bytes_resident`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Cache lookups served without touching the file.
    pub hits: u64,
    /// Cache lookups that decoded their piece from the map, on the thread
    /// of the query that missed.
    pub misses: u64,
    /// Pieces demoted by the LRU policy.
    pub evictions: u64,
    /// Always 0: no piece is decoded off the query thread. Kept only so
    /// the `e2e` benchmark's `cold_counters` still builds; ROADMAP item 1
    /// (the next benchmark change) removes it.
    #[deprecated(note = "always 0; removed with ROADMAP item 1")]
    pub prefetches: u64,
    /// Bytes checksummed by queries: each loaded leaf's row CRC, norm and
    /// SQ8 columns, each decoded graph, and each row the first time a query
    /// reads it after its leaf was loaded.
    pub bytes_verified: u64,
    /// Bytes currently charged against the RAM budget.
    pub bytes_resident: u64,
    /// Newest leaves pinned resident (never evicted).
    pub pinned_leaves: usize,
    /// The configured budget, after any `MBI_RAM_BUDGET` override.
    pub budget_bytes: u64,
}

impl std::fmt::Debug for ColdIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdIndex")
            .field("num_leaves", &self.layout.num_leaves)
            .field("seg_rows", &self.layout.seg_rows)
            .field("hot_floor", &self.hot_floor)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ColdIndex {
    /// Opens and maps a v8 snapshot file.
    ///
    /// Only the directories and the timestamp column are read eagerly; the
    /// environment variable `MBI_RAM_BUDGET` (bytes) overrides the persisted
    /// [`MbiConfig::ram_budget_bytes`] for the lifetime of this handle. A
    /// value that is not a byte count is an error, not ignored.
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
        // The open step copies the timestamp column out of the map: selection
        // and window partitioning touch it on every query, and at 8 bytes/row
        // it is ~d/2 times smaller than the vectors, so queries never fault
        // timestamp pages.
        let (mut layout, times) = open_v8(map.bytes())?;
        if let Some(b) = budget_override {
            layout.config.ram_budget_bytes = b;
        } else if let Ok(v) = std::env::var("MBI_RAM_BUDGET") {
            layout.config.ram_budget_bytes = parse_ram_budget(&v)?;
        }
        let config = layout.config;

        // Pin the newest leaves whose records fit in half the budget: the
        // hot suffix of a time-accumulating workload. The other half is
        // left to the LRU over cold reads.
        let mut hot_floor = layout.num_leaves;
        let mut pinned_bytes: u64 = 0;
        let half_budget = config.ram_budget_bytes / 2;
        for leaf in (0..layout.num_leaves).rev() {
            let span = layout.leaf_span(leaf).len() as u64;
            if pinned_bytes.saturating_add(span) > half_budget {
                break;
            }
            pinned_bytes += span;
            hot_floor = leaf;
        }

        let empty_seg = Arc::new(Segment::from_cols(config.dim, Col::from(Vec::new()), None, None));
        let cache = BlockCache::new(config.ram_budget_bytes, config.cache_shards, map.clone());
        Ok(ColdIndex {
            map,
            layout,
            times,
            cache,
            hot_floor,
            empty_seg,
            checked_bytes: Arc::default(),
        })
    }

    /// The configuration the file was written with (budget possibly
    /// overridden by `MBI_RAM_BUDGET`).
    pub fn config(&self) -> &MbiConfig {
        &self.layout.config
    }

    /// Number of sealed leaves.
    pub fn num_leaves(&self) -> usize {
        self.layout.num_leaves
    }

    /// Number of rows served (sealed leaves × `S_L`).
    pub fn len(&self) -> usize {
        self.layout.num_leaves * self.layout.seg_rows
    }

    /// Whether the file holds no sealed rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does nothing: every query pins its cover on the calling thread, and
    /// there is no prefetch to switch. Kept only so the `e2e` benchmark's
    /// `cold_set_prefetch` still builds; ROADMAP item 1 (the next benchmark
    /// change) removes it.
    #[deprecated(note = "a no-op; removed with ROADMAP item 1")]
    pub fn set_prefetch(&self, _enabled: bool) {}

    /// Current cache counters.
    pub fn stats(&self) -> TierStats {
        let c = &self.cache;
        TierStats {
            hits: c.hits.load(Relaxed),
            misses: c.misses.load(Relaxed),
            evictions: c.evictions.load(Relaxed),
            bytes_verified: self.checked_bytes.load(Relaxed),
            bytes_resident: c.bytes_resident(),
            pinned_leaves: self.layout.num_leaves - self.hot_floor,
            budget_bytes: self.layout.config.ram_budget_bytes,
            ..TierStats::default()
        }
    }

    /// TkNN with the config's default search parameters.
    pub fn query(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
    ) -> Result<Vec<TknnResult>, MbiError> {
        let params = self.layout.config.search;
        Ok(self.query_with_params(query, k, window, &params)?.results)
    }

    /// TkNN with explicit search parameters, plus search statistics.
    ///
    /// Fails only on I/O-level corruption (a piece whose CRC no longer
    /// matches the directory, or a row the query read whose CRC no longer
    /// matches its stored one); results are bit-identical to the in-RAM
    /// snapshot path.
    pub fn query_with_params(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
    ) -> Result<QueryOutput, MbiError> {
        self.query_with_deadline(query, k, window, params, None)
    }

    /// [`Self::query_with_params`] under a cooperative deadline: the search
    /// checks the deadline between block visits and returns whatever it has
    /// merged so far with [`QueryOutput::timed_out`] set instead of running
    /// past `deadline`. `None` never times out.
    ///
    /// An *already-expired* deadline short-circuits before the cold read
    /// path entirely: selection still runs (directory metadata, already
    /// resident) but no piece is pinned or decoded — a timed-out query
    /// must not fault cold pages it will never score.
    pub fn query_with_deadline(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        deadline: Option<Instant>,
    ) -> Result<QueryOutput, MbiError> {
        let lay = &self.layout;
        // Selection runs on directory metadata alone: every block the
        // executor will touch is named here, before any vector byte is read.
        let meta = |i: usize| {
            let m = &lay.blocks[i];
            (m.start_ts, m.end_ts, m.height)
        };
        let selection = SearchBlockSet {
            blocks: select_blocks(meta, lay.num_leaves, lay.config.tau, window),
            tail: false,
        };
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(QueryOutput {
                results: Vec::new(),
                stats: SearchStats::default(),
                selection,
                timed_out: true,
            });
        }
        let (wlo, whi) =
            (self.times.partition_below(window.start), self.times.partition_below(window.end));
        let (keys, graphs) = self.cover_pieces(&selection.blocks, |m| {
            let in_window = whi.min(m.rows.end).saturating_sub(wlo.max(m.rows.start));
            in_window > 0 && graph_search_pays(&lay.config, k, m.rows.len(), in_window)
        });
        self.with_pinned(&keys, |target, pieces| {
            let blocks = (selection.blocks.iter().zip(&graphs))
                .map(|(&bi, g)| self.selected_block(bi, g.map(|i| (keys[i], &pieces[i]))))
                .collect::<Result<Vec<_>, _>>()?;
            let blocks: Vec<&Block> = blocks.iter().map(|b| &**b).collect();
            Ok(target.search(query, k, window, params, &selection, &blocks, deadline))
        })
    }

    /// Exact (brute-force) TkNN over the mapped rows.
    pub fn exact_query(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
    ) -> Result<Vec<TknnResult>, MbiError> {
        let seg_rows = self.layout.seg_rows;
        let lo = self.times.partition_below(window.start);
        let hi = self.times.partition_below(window.end);
        let keys: Vec<PieceKey> = if lo < hi {
            (lo / seg_rows..hi.div_ceil(seg_rows)).map(PieceKey::Leaf).collect()
        } else {
            Vec::new()
        };
        self.with_pinned(&keys, |target, _| Ok(target.exact_query(query, k, window)))
    }

    /// Pins the pieces `keys` names, runs `f` on a
    /// [`QueryTarget`] over them and the pieces (in key order), unpins, and
    /// lets the cache evict back under budget. If `f` read a row that failed
    /// its check, its answer is dropped for
    /// [`ChecksumMismatch`](MbiError::ChecksumMismatch): the failure counters
    /// are per segment, so a concurrent query's failed read on a shared leaf
    /// can fail this query too, but an answer never leaves on bad bytes.
    fn with_pinned<R>(
        &self,
        keys: &[PieceKey],
        f: impl FnOnce(&QueryTarget<'_, SegmentStore, TimeChunks>, &[Piece]) -> Result<R, MbiError>,
    ) -> Result<R, MbiError> {
        let out = {
            let (store, pieces) = self.pin(keys)?;
            let target = QueryTarget {
                config: &self.layout.config,
                store: &store,
                times: &self.times,
                num_leaves: self.layout.num_leaves,
            };
            let failures: Vec<u64> = pieces.iter().map(Piece::row_failures).collect();
            let out = f(&target, &pieces);
            let failed = pieces.iter().zip(failures).find(|(p, n)| p.row_failures() > *n);
            match failed {
                Some((Piece::Leaf(seg, _), _)) => {
                    Err(seg.first_row_mismatch().expect("a failed check records its row").into())
                }
                _ => out,
            }
        };
        self.cache.maintain();
        out
    }
}

/// Parses an `MBI_RAM_BUDGET` value: a byte count, surrounding whitespace
/// allowed. Anything else (`512M`, `-1`, empty) is an error naming the
/// variable and its value.
fn parse_ram_budget(value: &str) -> Result<u64, MbiError> {
    value.trim().parse().map_err(|_| {
        MbiError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("MBI_RAM_BUDGET={value:?} is not a byte count"),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IndexSnapshot;
    use crate::index::MbiIndex;
    use crate::persist::{parse_v8_layout, PAGE};
    use crate::GraphBackend;
    use mbi_ann::NnDescentParams;
    use mbi_math::Metric;

    fn build_snapshot(metric: Metric, n: usize, budget: u64, sq8: bool) -> IndexSnapshot {
        let config = MbiConfig::new(3, metric)
            .with_leaf_size(16)
            .with_ram_budget_bytes(budget)
            .with_sq8_scan(sq8);
        snapshot_of(config, n)
    }

    fn snapshot_of(config: MbiConfig, n: usize) -> IndexSnapshot {
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

    /// Every front-end's `query_with_params` is its deadline path with
    /// `None`; a deadline that never fires must not change a bit either.
    #[test]
    fn no_deadline_and_a_far_deadline_match_query_with_params_on_every_front_end() {
        let snap = build_snapshot(Metric::Euclidean, 128, 0, false);
        let cold = cold_with(&snap, 0);
        let mut idx = MbiIndex::new(*snap.config());
        for i in 0..133 {
            idx.insert(&[i as f32 * 0.01, 0.5, 0.2], i as i64).unwrap();
        }
        let engine = crate::StreamingMbi::from_index(idx, crate::EngineConfig::default());
        let (params, w, q) = (snap.config().search, TimeWindow::new(5, 131), [0.4f32, 0.1, 0.6]);
        let far = Some(Instant::now() + std::time::Duration::from_secs(3600));
        let same = |name: &str,
                    plain: QueryOutput,
                    run: &dyn Fn(Option<Instant>) -> QueryOutput| {
            for out in [run(None), run(far)] {
                assert_eq!(out.results, plain.results, "{name}");
                assert_eq!((out.stats, &out.selection), (plain.stats, &plain.selection), "{name}");
                assert!(!out.timed_out, "{name}");
            }
        };
        same("snapshot", snap.query_with_params(&q, 5, w, &params), &|d| {
            snap.query_with_deadline(&q, 5, w, &params, d)
        });
        let streamed = engine.query_with_params(&q, 5, w, &params);
        assert!(streamed.selection.tail, "the engine answers from a non-empty tail");
        same("streaming", streamed, &|d| engine.query_with_deadline(&q, 5, w, &params, d));
        same("cold", cold.query_with_params(&q, 5, w, &params).unwrap(), &|d| {
            cold.query_with_deadline(&q, 5, w, &params, d).unwrap()
        });
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

    /// Four threads query one index at once, each starting the windows at
    /// a different one, so two threads load pieces of the same index
    /// concurrently: a decode that loses the insert race in
    /// `BlockCache::get_or_load`, and a leaf graph decoded twice in
    /// `ColdIndex::leaf_block`, must still answer like the hot snapshot —
    /// results and search counters — at budget 0 and at a budget of two
    /// leaf records on one shard (the newest leaf pinned, one more cached).
    /// τ = 1 selects partly covered leaves, and at k = 1 a degree-4 graph
    /// search pays on a 16-row leaf, so leaf graphs are decoded too.
    #[test]
    fn concurrent_queries_on_one_index_match_hot() {
        let nd = NnDescentParams { degree: 4, max_iters: 2, ..Default::default() };
        let config = MbiConfig::new(3, Metric::Euclidean)
            .with_leaf_size(16)
            .with_tau(1.0)
            .with_backend(GraphBackend::NnDescent(nd))
            .with_cache_shards(1);
        let snap = snapshot_of(config, 128);
        let bytes = snap.to_bytes().to_vec();
        let two_leaves = 2 * parse_v8_layout(&bytes).unwrap().leaf_span(0).len() as u64;
        let params = snap.config().search;
        let mut cases = Vec::new();
        for w in windows() {
            for q in [0.0f32, 7.5, 99.0] {
                for k in [1, 5] {
                    let query = [q * 0.05, 0.2, -q * 0.01 + 0.5];
                    cases.push((w, query, k, snap.query_with_params(&query, k, w, &params)));
                }
            }
        }
        for budget in [0, two_leaves] {
            let map = Arc::new(FileMap::from_bytes(bytes.clone()));
            let cold = ColdIndex::from_map_with_budget(map, budget).unwrap();
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for t in 0..4 {
                    let (cold, cases, start) = (&cold, &cases, &start);
                    s.spawn(move || {
                        // Three passes that start together, each thread a
                        // quarter of the cases ahead of the last.
                        for _ in 0..3 {
                            start.wait();
                            for i in 0..cases.len() {
                                let (w, query, k, hot) =
                                    &cases[(i + t * cases.len() / 4) % cases.len()];
                                let out = cold.query_with_params(query, *k, *w, &params).unwrap();
                                let at = format!("budget {budget}, window {w:?}, k {k}");
                                assert_eq!(out.results, hot.results, "{at}");
                                assert_eq!(out.stats, hot.stats, "{at}");
                            }
                        }
                    });
                }
            });
            let stats = cold.stats();
            assert!(stats.evictions > 0, "budget {budget} must churn: {stats:?}");
            if budget == 0 {
                assert_eq!(stats.bytes_resident, 0, "every query demotes what it unpinned");
            } else {
                assert_eq!(stats.pinned_leaves, 1, "half of two leaves pins one: {stats:?}");
            }
        }
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
        let layout = parse_v8_layout(&bytes).unwrap();
        // Flip one byte inside leaf 0's row section; the directory CRC stays
        // valid (it covers the directory, not the records), so open succeeds
        // and the load must catch it lazily.
        let off = layout.leaves[0].record_off + layout.ts_len() + 5;
        bytes[off] ^= 0xff;
        let cold = ColdIndex::from_map(Arc::new(FileMap::from_bytes(bytes))).unwrap();
        let err = cold.query(&[0.0, 0.0, 0.0], 3, TimeWindow::new(0, 64)).unwrap_err();
        assert!(matches!(err, MbiError::ChecksumMismatch { section: "leaf rows", .. }), "{err}");
    }

    /// Two leaves at the benchmark's geometry (d = 128, leaf 1 024) under
    /// one root, angular with SQ8 so every column a leaf load checks is
    /// written: the clean stream, and a query vector that is no stored row.
    fn two_benchmark_leaves() -> (Vec<u8>, Vec<f32>) {
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
        let q = v.iter().enumerate().map(|(j, x)| x + (j as f32 * 0.11).cos()).collect();
        (IndexSnapshot::from_index(&idx).unwrap().to_bytes().to_vec(), q)
    }

    fn cold_at_zero(bytes: Vec<u8>) -> ColdIndex {
        ColdIndex::from_map_with_budget(Arc::new(FileMap::from_bytes(bytes)), 0).unwrap()
    }

    /// The test above flips byte 5 of a 768-byte section. At the benchmark's
    /// geometry a row section is 512 KiB and the checksum kernel folds 64
    /// bytes at a time, so flip where a fold could lose a byte: the first
    /// one, one on a 64-byte boundary, and the last — in every section a
    /// query reads, with a query that reads it. Each flip must fail the
    /// first query on a fresh index, naming the section.
    #[test]
    fn corrupt_byte_anywhere_in_a_lazily_verified_section_is_a_checksum_error() {
        let (clean, q) = two_benchmark_leaves();
        let lay = parse_v8_layout(&clean).unwrap();
        let (s_l, row_len) = (lay.seg_rows, lay.config.dim * 4);
        let (l, root) = (lay.leaves[1], lay.blocks.iter().find(|m| m.height == 1).unwrap());
        let rows_off = l.record_off + lay.ts_len();
        let crc_off = rows_off + lay.rows_len();
        let inv_off = crc_off + lay.row_crc_len();
        // Over both leaves the root is graph-searched; over leaf 1, leaf 1.
        let both = TimeWindow::new(0, 2 * s_l as i64);
        let leaf_1 = TimeWindow::new(s_l as i64, 2 * s_l as i64);
        // The root search's best answer was reranked on its exact row.
        let best = cold_at_zero(clean.clone()).query(&q, 3, both).unwrap()[0].id as usize;
        let best_off = lay.leaves[best / s_l].record_off + lay.ts_len() + (best % s_l) * row_len;
        // (bytes, the section the error names, offset, length, the window of
        // a query that reads them — `None`: five rows around the flip, a
        // scan that reranks every one of them).
        let cases = [
            ("rows of a scanned window", "leaf rows", rows_off, lay.rows_len(), None),
            ("a row the root search scores", "leaf rows", best_off, row_len, Some(both)),
            ("row checksums", "leaf row checksums", crc_off, lay.row_crc_len(), Some(both)),
            ("norms", "leaf norms", inv_off, lay.inv_len(), Some(both)),
            ("sq8", "leaf sq8", inv_off + lay.inv_len(), lay.sq8_len(), Some(both)),
            (
                "a graph-searched leaf's graph",
                "block graph",
                l.graph_off,
                l.graph_len,
                Some(leaf_1),
            ),
            ("the root graph", "block graph", root.graph_off, root.graph_len, Some(both)),
        ];
        for (what, section, off, len, window) in cases {
            assert!(len > 128, "{what}: {len} bytes never reach a fold boundary");
            for at in [0, (len / 2).next_multiple_of(64), len - 1] {
                let window = window.unwrap_or_else(|| {
                    let t = (s_l + at / row_len) as i64;
                    TimeWindow::new(t - 2, t + 3)
                });
                let mut bytes = clean.clone();
                bytes[off + at] ^= 0x10;
                let err = cold_at_zero(bytes).query(&q, 3, window).unwrap_err();
                assert!(
                    matches!(err, MbiError::ChecksumMismatch { section: s, .. } if s == section),
                    "{what}, byte {at} of {len}, window {window:?}: {err}"
                );
            }
        }
    }

    /// A row is checked when a query reads it, not when its leaf loads: a
    /// corrupt row no query reads changes no answer, at any budget, and the
    /// first query that reads it fails — without poisoning later queries
    /// that do not.
    #[test]
    fn a_corrupt_row_fails_only_the_queries_that_read_it() {
        let (clean, q) = two_benchmark_leaves();
        let lay = parse_v8_layout(&clean).unwrap();
        let s_l = lay.seg_rows;
        let bad = s_l + 700;
        let mut bytes = clean.clone();
        bytes[lay.leaves[1].record_off + lay.ts_len() + (bad % s_l) * lay.config.dim * 4 + 9] ^= 1;
        // Leaf 0 graph-searched, then scans of leaf 1 around the bad row.
        let clear = [(0, s_l), (s_l, bad), (bad + 1, 2 * s_l)].map(|(a, b)| (a as i64, b as i64));
        for budget in [0, u64::MAX] {
            let map = |b: &Vec<u8>| Arc::new(FileMap::from_bytes(b.clone()));
            let cold = ColdIndex::from_map_with_budget(map(&bytes), budget).unwrap();
            let reference = ColdIndex::from_map_with_budget(map(&clean), budget).unwrap();
            let same = || {
                for (a, b) in clear {
                    let w = TimeWindow::new(a, b);
                    assert_eq!(cold.query(&q, 10, w).unwrap(), reference.query(&q, 10, w).unwrap());
                    let exact = cold.exact_query(&q, 10, w).unwrap();
                    assert_eq!(exact, reference.exact_query(&q, 10, w).unwrap(), "{w:?}");
                }
            };
            same();
            let w = TimeWindow::new(bad as i64 - 3, bad as i64 + 3);
            for err in
                [cold.query(&q, 10, w).unwrap_err(), cold.exact_query(&q, 10, w).unwrap_err()]
            {
                let leaf_rows =
                    matches!(err, MbiError::ChecksumMismatch { section: "leaf rows", .. });
                assert!(leaf_rows, "budget {budget}: {err}");
            }
            same();
        }
    }

    /// Bytes verified per query at the benchmark's geometry, budget 0: a
    /// window over both leaves graph-searches the root, and checks its
    /// graph, both leaves' row CRC, norm and SQ8 columns, and the rows it
    /// scores — less than one leaf's row column.
    #[test]
    fn a_root_search_verifies_less_than_one_row_column() {
        let (clean, q) = two_benchmark_leaves();
        let lay = parse_v8_layout(&clean).unwrap();
        let cold = cold_at_zero(clean);
        let out = cold.query_with_params(&q, 10, TimeWindow::new(0, 2048), &lay.config.search);
        let root = lay.blocks.len() - 1;
        assert_eq!(out.unwrap().selection.blocks, [root]);
        let verified = cold.stats().bytes_verified;
        let loads = 2 * (lay.row_crc_len() + lay.inv_len() + lay.sq8_len());
        let least = (loads + lay.blocks[root].graph_len) as u64;
        assert!(verified > least, "rows are checked too: {verified} vs {least}");
        assert!(verified < lay.rows_len() as u64, "{verified} bytes verified");
    }

    #[test]
    fn corrupt_timestamps_rejected_at_open() {
        let snap = build_snapshot(Metric::Euclidean, 64, u64::MAX, false);
        let mut bytes = snap.to_bytes().to_vec();
        let layout = parse_v8_layout(&bytes).unwrap();
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

    #[test]
    fn ram_budget_override_is_a_byte_count_or_an_error() {
        assert_eq!(parse_ram_budget("0").unwrap(), 0);
        assert_eq!(parse_ram_budget(" 4096\n").unwrap(), 4096);
        for bad in ["512M", "-1", "", "1e6", "18446744073709551616"] {
            let err = parse_ram_budget(bad).unwrap_err();
            assert!(
                matches!(&err, MbiError::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput)
            );
            let msg = err.to_string();
            assert!(msg.contains(&format!("MBI_RAM_BUDGET={bad:?}")), "{bad:?}: {msg}");
        }
    }
}
