//! Disk-tiered cold blocks: an mmap-backed read path over a snapshot file
//! and a size-budgeted LRU block cache.
//!
//! A [`ColdIndex`] opens a snapshot *without* decoding its payload: only
//! the header, config, directories, and the timestamp column (8 bytes/row —
//! the selection and windowing floor) are touched at open. It reads the
//! file through the persist module's one snapshot reader, the same one the
//! eager loader uses, so both check the same CRCs and structure and refuse
//! the same streams. Leaf records and internal-block graphs are loaded on
//! demand as zero-copy [`Col`]-backed segments and graphs, and cached under
//! the RAM budget the index was opened with.
//!
//! A miss copies and decodes nothing, and pays only for what the query
//! reads. Loading a leaf checks its 4-byte-per-row CRC column (and its norm
//! column) and its graph's chunk-CRC column, not its rows or its edges;
//! loading an internal block checks its graph's header and chunk-CRC
//! column. Each row is checked against its CRC the first time any query
//! reads it, and each chunk of 16 vertex lists — its CRC, then every id —
//! the first time a search expands a vertex in it. A query that read a row
//! or expanded a chunk failing its check returns
//! [`MbiError::ChecksumMismatch`] (or [`MbiError::Corrupt`], for an id out
//! of range under a matching CRC) instead of an answer. The check bits live
//! in the loaded piece, so a piece loaded again after eviction is checked
//! again.
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
//! abstractions and the selected blocks alone, and the rows and the edges
//! served from the map are the bytes the snapshot serialised.
//!
//! [`IndexSnapshot`]: crate::engine::IndexSnapshot

use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mbi_ann::{Col, FileMap, SearchParams, SearchStats, Segment, SegmentStore, PAGE_SIZE};

use crate::block::Block;
use crate::config::MbiConfig;
use crate::error::MbiError;
use crate::index::{QueryOutput, TknnResult};
use crate::layout;
use crate::persist::{open_snapshot, Columns, SnapshotLayout};
use crate::query_exec::QueryTarget;
use crate::select::{select_blocks, SearchBlockSet, TimeWindow};
use crate::times::TimeChunks;

/// A loaded, cache-resident piece — one cacheable unit of the file, keyed
/// by its block's postorder index: views over the map, no copies. Cloning
/// is one or two `Arc` bumps.
#[derive(Clone)]
enum Piece {
    /// A leaf record: its rows (and side columns) and its block, whose
    /// graph is co-located in the record.
    Leaf(Arc<Segment>, Arc<Block>),
    /// An internal block's graph.
    Graph(Arc<Block>),
}

impl Piece {
    /// The block the piece holds.
    fn block(&self) -> &Block {
        match self {
            Piece::Leaf(_, block) | Piece::Graph(block) => block,
        }
    }

    /// Whether the cache holds the only remaining reference — no query has
    /// the piece pinned, so it may be evicted.
    fn evictable(&self) -> bool {
        match self {
            Piece::Leaf(seg, block) => Arc::strong_count(seg) == 1 && Arc::strong_count(block) == 1,
            Piece::Graph(block) => Arc::strong_count(block) == 1,
        }
    }

    /// First-use checks that have failed so far: of the leaf's rows, and
    /// of the block's adjacency.
    fn failures(&self) -> [u64; 2] {
        let rows = match self {
            Piece::Leaf(seg, _) => seg.check_failures(),
            Piece::Graph(_) => 0,
        };
        [rows, self.block().graph.0.check_failures()]
    }

    /// The error for the first check that failed since `before` (an
    /// earlier [`Self::failures`]), if one did.
    fn fault_since(&self, before: [u64; 2]) -> Option<MbiError> {
        let [rows, graph] = self.failures();
        let (section, fault) = match self {
            Piece::Leaf(seg, _) if rows > before[0] => ("leaf rows", seg.first_fault()),
            _ if graph > before[1] => ("block graph", self.block().graph.0.first_fault()),
            _ => return None,
        };
        Some(MbiError::from_fault(section, fault.expect("a failed check records its fault")))
    }
}

struct CacheEntry {
    piece: Piece,
    /// The piece's page-rounded file span — handed to `madvise(DONTNEED)`
    /// when the piece is evicted.
    span: Range<usize>,
    /// Bytes charged to the budget: the span plus the piece's heap.
    bytes: u64,
    /// LRU clock value of the last touch; every touch takes a new one.
    last_used: u64,
    /// Pinned pieces (the hot suffix of leaves) are never evicted.
    pinned: bool,
}

/// The cache's state, behind its one lock.
#[derive(Default)]
struct Lru {
    entries: HashMap<usize, CacheEntry>,
    /// Bytes charged by `entries`.
    bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Lru {
    /// The cached piece under `key`, marked most recently used.
    fn touch(&mut self, key: usize) -> Option<Piece> {
        let entry = self.entries.get_mut(&key)?;
        self.clock += 1;
        entry.last_used = self.clock;
        Some(entry.piece.clone())
    }
}

/// Size-budgeted LRU over loaded pieces. Loads run outside the lock; a
/// double-insert race keeps the first inserted piece.
struct BlockCache {
    lru: Mutex<Lru>,
    budget: u64,
    map: Arc<FileMap>,
}

impl BlockCache {
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the cached piece for `key`, or loads it via `load` (run
    /// outside the lock) and inserts it, evicting LRU pieces if the cache
    /// exceeds its budget.
    fn get_or_load<F>(&self, key: usize, load: F) -> Result<Piece, MbiError>
    where
        F: FnOnce() -> Result<CacheEntry, MbiError>,
    {
        {
            let mut lru = self.lock();
            if let Some(piece) = lru.touch(key) {
                lru.hits += 1;
                return Ok(piece);
            }
        }
        let entry = load()?;
        let mut lru = self.lock();
        lru.misses += 1;
        // Raced with another loader: the first insert wins, this load is
        // discarded.
        if let Some(piece) = lru.touch(key) {
            return Ok(piece);
        }
        lru.bytes += entry.bytes;
        lru.entries.insert(key, entry);
        let piece = lru.touch(key).expect("inserted under this lock");
        self.evict_over_budget(&mut lru);
        Ok(piece)
    }

    /// Evicts least-recently-used unpinned, unreferenced pieces until the
    /// cache fits its budget. Pieces still pinned by an in-flight query
    /// are skipped; they become evictable at the next pass after the query
    /// drops them.
    fn evict_over_budget(&self, lru: &mut Lru) {
        while lru.bytes > self.budget {
            let victim = lru
                .entries
                .iter()
                .filter(|(_, e)| !e.pinned && e.piece.evictable())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(key) = victim else { break };
            let entry = lru.entries.remove(&key).expect("victim chosen from this map");
            lru.bytes -= entry.bytes;
            lru.evictions += 1;
            self.map.drop_pages(entry.span);
        }
    }

    /// Runs an eviction pass — called after each query so over-budget
    /// pieces are demoted as soon as they are unpinned.
    fn maintain(&self) {
        self.evict_over_budget(&mut self.lock());
    }
}

/// A read-only MBI snapshot served from a snapshot file through an LRU
/// block cache — the cold tier.
///
/// Queries return the exact same results as the in-RAM snapshot the file
/// was serialised from, for any RAM budget (including `0`, where every
/// piece is demoted as soon as the query that pinned it completes).
///
/// ```no_run
/// use mbi_core::{tier::ColdIndex, TimeWindow};
///
/// let cold = ColdIndex::open_with_budget("snapshot.mbi", 256 << 20).unwrap();
/// let hits = cold.query(&[0.0; 4], 10, TimeWindow::new(100, 900)).unwrap();
/// # let _ = hits;
/// ```
pub struct ColdIndex {
    map: Arc<FileMap>,
    layout: SnapshotLayout,
    times: TimeChunks,
    cache: BlockCache,
    /// Leaves with ordinal `>= hot_floor` are pinned resident (the newest
    /// leaves whose records fit in half the RAM budget).
    hot_floor: usize,
    /// Placeholder for unpinned store slots; never read by the executor.
    empty_seg: Arc<Segment>,
    /// Bytes checksummed since open: pieces' CRC columns at load, rows and
    /// adjacency chunks as queries read them.
    checked_bytes: Arc<AtomicU64>,
}

impl ColdIndex {
    /// Columns over the map, checked as they are read.
    fn mapped(&self) -> Columns<'_> {
        Columns::Mapped { map: &self.map, checked_bytes: &self.checked_bytes }
    }

    /// Loads leaf `leaf` over the mapped bytes: a zero-copy segment whose
    /// rows are checked as they are read and the leaf's block, its graph
    /// checked as it is expanded, charged for the record's page-rounded file
    /// span (the graph included) and their heap.
    fn load_leaf(&self, leaf: usize) -> Result<CacheEntry, MbiError> {
        let seg = self.layout.decode_segment(&self.mapped(), leaf)?;
        let block = self.layout.decode_block(&self.mapped(), layout::leaf_block(leaf))?;
        let span = self.layout.leaf_span(leaf);
        let bytes = (span.len() + seg.memory_bytes() + block.memory_bytes()) as u64;
        let piece = Piece::Leaf(Arc::new(seg), Arc::new(block));
        Ok(CacheEntry { piece, span, bytes, last_used: 0, pinned: leaf >= self.hot_floor })
    }

    /// Loads internal block `bi` over the mapped bytes, its graph checked
    /// as it is expanded, charged for the graph's page-rounded file span and
    /// the block's heap.
    fn load_graph(&self, bi: usize) -> Result<CacheEntry, MbiError> {
        let meta = &self.layout.blocks[bi];
        let block = self.layout.decode_block(&self.mapped(), bi)?;
        let span = meta.graph_off / PAGE_SIZE * PAGE_SIZE
            ..(meta.graph_off + meta.graph_len).next_multiple_of(PAGE_SIZE);
        let bytes = (span.len() + block.memory_bytes()) as u64;
        let piece = Piece::Graph(Arc::new(block));
        Ok(CacheEntry { piece, span, bytes, last_used: 0, pinned: false })
    }

    /// The leaf ordinal of block `bi`, if it is a leaf.
    fn leaf_of(&self, bi: usize) -> Option<usize> {
        let meta = &self.layout.blocks[bi];
        (meta.height == 0).then(|| meta.rows.start / self.layout.seg_rows)
    }

    /// Fetches block `bi`'s piece through the cache, loading and inserting
    /// on miss.
    fn piece(&self, bi: usize) -> Result<Piece, MbiError> {
        match self.leaf_of(bi) {
            Some(leaf) => self.cache.get_or_load(bi, || self.load_leaf(leaf)),
            None => self.cache.get_or_load(bi, || self.load_graph(bi)),
        }
    }

    /// Expands a resolved selection into the pieces it touches, as block
    /// indices: one leaf piece per covered leaf, then the block's own piece
    /// for an internal block. Also returns, per selected block, the index
    /// of the key whose piece holds that block — always the last key of its
    /// group.
    fn cover_pieces(&self, selected: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let s_l = self.layout.seg_rows;
        let mut keys = Vec::new();
        let mut holders = Vec::with_capacity(selected.len());
        for &bi in selected {
            let meta = &self.layout.blocks[bi];
            let leaves = meta.rows.start / s_l..meta.rows.end.div_ceil(s_l);
            keys.extend(leaves.map(layout::leaf_block));
            if meta.height > 0 {
                keys.push(bi);
            }
            holders.push(keys.len() - 1);
        }
        (keys, holders)
    }

    /// Loads and pins every piece of a cover, in key order, on the calling
    /// thread: the executor's store (placeholder segments outside the
    /// cover) and the pieces. The pins hold until the caller drops them, so
    /// even a zero budget cannot evict a piece before the query reaches it.
    fn pin(&self, keys: &[usize]) -> Result<(SegmentStore, Vec<Piece>), MbiError> {
        let lay = &self.layout;
        let mut segs = vec![self.empty_seg.clone(); lay.num_leaves];
        let pieces = keys.iter().map(|&k| self.piece(k)).collect::<Result<Vec<_>, _>>()?;
        for (&key, piece) in keys.iter().zip(&pieces) {
            if let (Some(leaf), Piece::Leaf(seg, _)) = (self.leaf_of(key), piece) {
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
    /// Cache lookups that loaded their piece from the map, on the thread
    /// of the query that missed.
    pub misses: u64,
    /// Pieces demoted by the LRU policy.
    pub evictions: u64,
    /// Always 0: no piece is loaded off the query thread. Kept only so
    /// the `e2e` benchmark's `cold_counters` still builds; ROADMAP item 1
    /// (the next benchmark change) removes it.
    #[deprecated(note = "always 0; removed with ROADMAP item 1")]
    pub prefetches: u64,
    /// Bytes checksummed by queries: each loaded leaf's row CRC and norm
    /// columns, each loaded graph's header and chunk-CRC column, each
    /// row the first time a query reads it, and each adjacency chunk the
    /// first time a search expands a vertex in it — after every load of the
    /// piece, since the check bits live in the loaded piece.
    pub bytes_verified: u64,
    /// Bytes currently charged against the RAM budget.
    pub bytes_resident: u64,
    /// Newest leaves pinned resident (never evicted).
    pub pinned_leaves: usize,
    /// The RAM budget this index was opened with.
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
    /// Opens and maps a snapshot file, to be served within `budget` bytes
    /// of cache: the newest leaves whose records fit in half of it are
    /// pinned, and the least-recently-used of the other pieces are evicted
    /// once the cache exceeds it. `u64::MAX` keeps everything resident; `0`
    /// evicts every piece as soon as its query unpins it.
    ///
    /// Only the directories and the timestamp column are read eagerly.
    pub fn open_with_budget(path: impl AsRef<Path>, budget: u64) -> Result<ColdIndex, MbiError> {
        let map = FileMap::open(path.as_ref()).map_err(MbiError::Io)?;
        Self::from_map_with_budget(Arc::new(map), budget)
    }

    /// [`Self::open_with_budget`] over an already-mapped (or in-memory) byte
    /// buffer.
    pub fn from_map_with_budget(map: Arc<FileMap>, budget: u64) -> Result<ColdIndex, MbiError> {
        // The open step copies the timestamp column out of the map: selection
        // and window partitioning touch it on every query, and at 8 bytes/row
        // it is ~d/2 times smaller than the vectors, so queries never fault
        // timestamp pages.
        let (layout, times) = open_snapshot(map.bytes())?;

        // Pin the newest leaves whose records fit in half the budget: the
        // hot suffix of a time-accumulating workload. The other half is
        // left to the LRU over cold reads.
        let mut hot_floor = layout.num_leaves;
        let mut pinned_bytes: u64 = 0;
        for leaf in (0..layout.num_leaves).rev() {
            let span = layout.leaf_span(leaf).len() as u64;
            if pinned_bytes.saturating_add(span) > budget / 2 {
                break;
            }
            pinned_bytes += span;
            hot_floor = leaf;
        }

        let empty_seg =
            Arc::new(Segment::from_cols(layout.config.dim, Col::from(Vec::new()), None));
        let cache = BlockCache { lru: Mutex::default(), budget, map: map.clone() };
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

    /// The configuration the file was written with.
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
        let lru = self.cache.lock();
        TierStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            bytes_verified: self.checked_bytes.load(Relaxed),
            bytes_resident: lru.bytes,
            pinned_leaves: self.layout.num_leaves - self.hot_floor,
            budget_bytes: self.cache.budget,
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
    /// matches the directory, a row the query read or an adjacency chunk it
    /// expanded whose CRC no longer matches its stored one, or an id out of
    /// range in such a chunk); results are bit-identical to the in-RAM
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
    /// resident) but no piece is pinned or loaded — a timed-out query
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
        let (keys, holders) = self.cover_pieces(&selection.blocks);
        self.with_pinned(&keys, |target, pieces| {
            let blocks: Vec<&Block> = holders.iter().map(|&i| pieces[i].block()).collect();
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
        let keys: Vec<usize> = if lo < hi {
            (lo / seg_rows..hi.div_ceil(seg_rows)).map(layout::leaf_block).collect()
        } else {
            Vec::new()
        };
        self.with_pinned(&keys, |target, _| Ok(target.exact_query(query, k, window)))
    }

    /// Pins the pieces `keys` names, runs `f` on a
    /// [`QueryTarget`] over them and the pieces (in key order), unpins, and
    /// lets the cache evict back under budget. If `f` read a row or expanded
    /// an adjacency chunk that failed its check, its answer is dropped for
    /// that failure's error: the failure counters are per piece, so a
    /// concurrent query's failed read on a shared piece can fail this query
    /// too, but an answer never leaves on bad bytes.
    fn with_pinned<R>(
        &self,
        keys: &[usize],
        f: impl FnOnce(&QueryTarget<'_, SegmentStore, TimeChunks>, &[Piece]) -> Result<R, MbiError>,
    ) -> Result<R, MbiError> {
        let out = self.pin(keys).and_then(|(store, pieces)| {
            let target = QueryTarget {
                config: &self.layout.config,
                store: &store,
                times: &self.times,
                num_leaves: self.layout.num_leaves,
            };
            let before: Vec<[u64; 2]> = pieces.iter().map(Piece::failures).collect();
            let out = f(&target, &pieces);
            let failed = pieces.iter().zip(before).find_map(|(p, before)| p.fault_since(before));
            failed.map_or(out, Err)
        });
        self.cache.maintain();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IndexSnapshot;
    use crate::index::MbiIndex;
    use crate::persist::{parse_layout, GRAPH_HEADER_LEN, PAGE};
    use crate::GraphBackend;
    use mbi_ann::{NnDescentParams, ADJACENCY_CHUNK};
    use mbi_math::Metric;

    fn build_snapshot(metric: Metric, n: usize) -> IndexSnapshot {
        snapshot_of(MbiConfig::new(3, metric).with_leaf_size(16), n)
    }

    fn snapshot_of(config: MbiConfig, n: usize) -> IndexSnapshot {
        let mut idx = MbiIndex::new(config);
        for i in 0..n {
            let x = i as f32;
            idx.insert(&[x.mul_add(0.05, 0.3), (x * 0.1).sin(), 1.0 - x * 0.01], i as i64).unwrap();
        }
        IndexSnapshot::from_index(&idx).unwrap()
    }

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
            let snap = build_snapshot(metric, 128);
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
            let snap = build_snapshot(metric, 128);
            let cold = cold_with(&snap, 0);
            assert_cold_matches(&snap, &cold);
            let stats = cold.stats();
            assert_eq!(stats.pinned_leaves, 0, "zero budget pins nothing");
            assert!(stats.evictions > 0, "zero budget must evict, got {stats:?}");
            assert_eq!(stats.bytes_resident, 0, "maintain() demotes everything at budget 0");
        }
    }

    #[test]
    fn expired_deadline_times_out_without_faulting_cold_pages() {
        let snap = build_snapshot(Metric::Euclidean, 128);
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
        let snap = build_snapshot(Metric::Euclidean, 128);
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
        let snap = build_snapshot(Metric::Euclidean, 128);
        let cold = cold_with(&snap, 0);
        let params = snap.config().search;
        let w = TimeWindow::new(3, 120);
        let query = [1.5f32, 0.1, 0.2];
        let first = cold.query_with_params(&query, 7, w, &params).unwrap();
        assert_eq!(first.results, snap.query_with_params(&query, 7, w, &params).results);
        for _ in 0..5 {
            // Every pass re-faults and re-checks the whole cover.
            let again = cold.query_with_params(&query, 7, w, &params).unwrap();
            assert_eq!(again.results, first.results);
            assert_eq!(cold.stats().bytes_resident, 0);
        }
        assert!(cold.stats().evictions >= 5);
    }

    #[test]
    fn warm_cache_serves_hits() {
        let snap = build_snapshot(Metric::Euclidean, 128);
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

    /// The budget bounds one LRU, not a share of it: at four leaf spans
    /// the hot suffix pins two leaves and the other half holds a leaf that
    /// is not pinned, so a second query over leaf 0 misses nothing.
    #[test]
    fn a_budget_that_fits_a_leaf_record_keeps_it() {
        let snap = build_snapshot(Metric::Euclidean, 128);
        let span = parse_layout(&snap.to_bytes()).unwrap().leaf_span(0).len() as u64;
        let cold = cold_with(&snap, 4 * span);
        assert_eq!(cold.stats().pinned_leaves, 2, "half the budget pins two leaves");
        let (params, w, query) = (snap.config().search, TimeWindow::new(0, 16), [0.3f32, 0.0, 1.0]);
        let first = cold.query_with_params(&query, 5, w, &params).unwrap();
        assert_eq!(first.results, snap.query_with_params(&query, 5, w, &params).results);
        let after_first = cold.stats();
        assert!(after_first.misses > 0, "the first pass loads leaf 0: {after_first:?}");
        let second = cold.query_with_params(&query, 5, w, &params).unwrap();
        assert_eq!(second.results, first.results);
        let after_second = cold.stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "leaf 0 stayed cached: {after_second:?}"
        );
        assert_eq!(after_second.evictions, 0, "{after_second:?}");
    }

    /// Four threads query one index at once, each starting the windows at
    /// a different one, so two threads load pieces of the same index
    /// concurrently: a load that loses the insert race in
    /// `BlockCache::get_or_load`, and two threads checking the same rows or
    /// adjacency chunk of a shared piece at once, must still answer like the
    /// hot snapshot — results and search counters — at budget 0 and at a
    /// budget of two leaf records (the newest leaf pinned, one more
    /// cached). τ = 1 selects partly covered leaves, and at k = 1 a degree-4
    /// graph search pays on a 16-row leaf, so leaf graphs are searched too.
    #[test]
    fn concurrent_queries_on_one_index_match_hot() {
        let nd = NnDescentParams { degree: 4, max_iters: 2, ..Default::default() };
        let config = MbiConfig::new(3, Metric::Euclidean)
            .with_leaf_size(16)
            .with_tau(1.0)
            .with_backend(GraphBackend::NnDescent(nd));
        let snap = snapshot_of(config, 128);
        let bytes = snap.to_bytes().to_vec();
        let two_leaves = 2 * parse_layout(&bytes).unwrap().leaf_span(0).len() as u64;
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
        let snap = build_snapshot(Metric::Euclidean, 128);
        // One leaf record (dim 3, S_L 16) spans two pages once the graph is
        // co-located; a 4-page half-budget pins the newest 1-2 leaves.
        let budget = (8 * PAGE) as u64;
        let cold = cold_with(&snap, budget);
        let stats = cold.stats();
        assert_eq!(stats.budget_bytes, budget, "the budget is the one given at open");
        assert!(stats.pinned_leaves >= 1, "half the budget pins newest leaves: {stats:?}");
        assert!(stats.pinned_leaves < 8, "budget cannot pin everything: {stats:?}");
        assert_cold_matches(&snap, &cold);
    }

    #[test]
    fn mixed_window_reads_after_eviction_pressure() {
        // A pseudo-random walk over windows at a tiny budget: every answer
        // must match the hot snapshot regardless of what was evicted.
        let snap = build_snapshot(Metric::InnerProduct, 256);
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
        let snap = build_snapshot(Metric::Euclidean, 64);
        let mut bytes = snap.to_bytes().to_vec();
        let layout = parse_layout(&bytes).unwrap();
        // Flip one byte inside leaf 0's row section; the directory CRC stays
        // valid (it covers the directory, not the records), so open succeeds
        // and the load must catch it lazily.
        let off = layout.leaves[0].record_off + layout.ts_len() + 5;
        bytes[off] ^= 0xff;
        let cold = cold_at_zero(bytes);
        let err = cold.query(&[0.0, 0.0, 0.0], 3, TimeWindow::new(0, 64)).unwrap_err();
        assert!(matches!(err, MbiError::ChecksumMismatch { section: "leaf rows", .. }), "{err}");
    }

    /// Two leaves at the benchmark's geometry (d = 128, leaf 1 024) under
    /// one root, angular so every column a leaf load checks is written: the
    /// clean stream, and a query vector that is no stored row.
    fn two_benchmark_leaves() -> (Vec<u8>, Vec<f32>) {
        let (dim, leaf) = (128, 1024);
        let config = MbiConfig::new(dim, Metric::Angular).with_leaf_size(leaf);
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
    /// query reads, with a query that reads it. For a graph, those are its
    /// chunk-CRC column, read when its piece loads, and the adjacency chunk
    /// of the search's best answer: a search expands every vertex it answers
    /// with. Each flip must fail the first query on a fresh index, naming the
    /// section.
    #[test]
    fn corrupt_byte_anywhere_in_a_lazily_verified_section_is_a_checksum_error() {
        let (clean, q) = two_benchmark_leaves();
        let lay = parse_layout(&clean).unwrap();
        let (s_l, row_len) = (lay.seg_rows, lay.config.dim * 4);
        let (l, root) = (lay.leaves[1], lay.blocks.iter().find(|m| m.height == 1).unwrap());
        let rows_off = l.record_off + lay.ts_len();
        let crc_off = rows_off + lay.rows_len();
        let inv_off = crc_off + lay.row_crc_len();
        // Over both leaves the root is graph-searched; over leaf 1, leaf 1.
        let both = TimeWindow::new(0, 2 * s_l as i64);
        let leaf_1 = TimeWindow::new(s_l as i64, 2 * s_l as i64);
        // The root search scored its best answer on that answer's row.
        let best = cold_at_zero(clean.clone()).query(&q, 3, both).unwrap()[0].id as usize;
        let best_off = lay.leaves[best / s_l].record_off + lay.ts_len() + (best % s_l) * row_len;
        // (bytes, the section the error names, offset, length, the window of
        // a query that reads them — `None`: five rows around the flip, a
        // scan that scores every one of them).
        let mut cases = vec![
            ("rows of a scanned window", "leaf rows", rows_off, lay.rows_len(), None),
            ("a row the root search scores", "leaf rows", best_off, row_len, Some(both)),
            ("row checksums", "leaf row checksums", crc_off, lay.row_crc_len(), Some(both)),
            ("norms", "leaf norms", inv_off, lay.inv_len(), Some(both)),
        ];
        for (m, w) in [(&lay.blocks[layout::leaf_block(1)], leaf_1), (root, both)] {
            let best = cold_at_zero(clean.clone()).query(&q, 3, w).unwrap()[0].id as usize;
            let header = &clean[m.graph_off + 4..m.graph_off + 12];
            let degree = u64::from_le_bytes(header.try_into().unwrap()) as usize;
            let chunk = ADJACENCY_CHUNK * degree * 4;
            let column = m.rows.len().div_ceil(ADJACENCY_CHUNK) * 4;
            let expanded =
                m.graph_off + GRAPH_HEADER_LEN + (best - m.rows.start) / ADJACENCY_CHUNK * chunk;
            let graph_end = m.graph_off + m.graph_len;
            cases.extend([
                ("a graph's chunk CRCs", "block graph", graph_end - column, column, Some(w)),
                ("a chunk the search expands", "block graph", expanded, chunk, Some(w)),
            ]);
        }
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
        let lay = parse_layout(&clean).unwrap();
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

    /// A miss decodes nothing. At budget 0, a query that graph-searches the
    /// root of four leaves checks, exactly: each leaf's row CRC column and
    /// its graph's header and chunk-CRC column (the leaf loads), the root
    /// graph's header and chunk-CRC column (its load), one row per distance
    /// evaluation (the exact scorer reads each scored row once), and one
    /// adjacency chunk for some of the vertices it expands — under a quarter
    /// of the root graph's bytes in all. Its answer and counters are the
    /// in-RAM snapshot's.
    #[test]
    fn a_root_search_checks_under_a_quarter_of_its_graph() {
        let (dim, s_l) = (8, 1024);
        let mut idx = MbiIndex::new(MbiConfig::new(dim, Metric::Euclidean).with_leaf_size(s_l));
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut vector = || {
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as f32 / (1 << 24) as f32
            };
            (0..dim).map(|_| next()).collect::<Vec<f32>>()
        };
        for i in 0..4 * s_l {
            idx.insert(&vector(), i as i64).unwrap();
        }
        let q = vector();
        let snap = IndexSnapshot::from_index(&idx).unwrap();
        let bytes = snap.to_bytes().to_vec();
        let lay = parse_layout(&bytes).unwrap();
        let cold = cold_at_zero(bytes);
        let (w, params) = (TimeWindow::all(), lay.config.search);
        let out = cold.query_with_params(&q, 10, w, &params).unwrap();
        let hot = snap.query_with_params(&q, 10, w, &params);
        assert_eq!((&out.results, out.stats), (&hot.results, hot.stats));
        let root = lay.blocks.len() - 1;
        assert_eq!(out.selection.blocks, [root]);
        assert_eq!(out.stats.blocks_bruteforced, 0, "the root is graph-searched");

        let verified = cold.stats().bytes_verified as usize;
        let graph_len = lay.blocks[root].graph_len;
        assert!(verified < graph_len / 4, "{verified} of a {graph_len}-byte graph");
        let column =
            |bi: usize| GRAPH_HEADER_LEN + lay.blocks[bi].rows.len().div_ceil(ADJACENCY_CHUNK) * 4;
        let loads = (0..lay.num_leaves)
            .map(|leaf| lay.row_crc_len() + column(layout::leaf_block(leaf)))
            .sum::<usize>()
            + column(root);
        let rows = out.stats.dist_evals as usize * dim * 4;
        let chunk = ADJACENCY_CHUNK * idx.blocks()[root].graph.0.degree() * 4;
        let expanded = verified - loads - rows;
        assert_eq!(expanded % chunk, 0, "{expanded} bytes of {chunk}-byte chunks");
        let chunks = expanded / chunk;
        assert!((1..=out.stats.visited as usize).contains(&chunks), "{chunks} chunks, {out:?}");
    }

    #[test]
    fn corrupt_timestamps_rejected_at_open() {
        let snap = build_snapshot(Metric::Euclidean, 64);
        let mut bytes = snap.to_bytes().to_vec();
        let layout = parse_layout(&bytes).unwrap();
        let off = layout.leaves[1].record_off + 3;
        bytes[off] ^= 0x01;
        let map = Arc::new(FileMap::from_bytes(bytes));
        let err = ColdIndex::from_map_with_budget(map, 0).unwrap_err();
        assert!(
            matches!(err, MbiError::ChecksumMismatch { section: "leaf timestamps", .. }),
            "{err}"
        );
    }

    #[test]
    fn empty_snapshot_opens_and_answers() {
        let config = MbiConfig::new(4, Metric::Euclidean).with_leaf_size(8);
        let snap = IndexSnapshot::from_index(&MbiIndex::new(config)).unwrap();
        let cold = cold_with(&snap, 0);
        assert!(cold.is_empty());
        assert_eq!(cold.query(&[0.0; 4], 3, TimeWindow::new(0, 100)).unwrap(), vec![]);
        assert_eq!(cold.exact_query(&[0.0; 4], 3, TimeWindow::new(0, 100)).unwrap(), vec![]);
    }

    #[test]
    fn open_through_file_roundtrips() {
        let snap = build_snapshot(Metric::Euclidean, 64);
        let dir = std::env::temp_dir().join("mbi_tier_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cold.mbi");
        crate::persist::atomic_write(&path, &snap.to_bytes()).unwrap();
        for budget in [0, u64::MAX] {
            assert_cold_matches(&snap, &ColdIndex::open_with_budget(&path, budget).unwrap());
        }
        std::fs::remove_file(&path).ok();
    }
}
