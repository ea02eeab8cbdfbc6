//! The MBI index: incremental construction (Algorithm 3) and query
//! processing (Algorithm 4).

use crate::block::{Block, BlockGraph};
use crate::config::MbiConfig;
use crate::error::MbiError;
use crate::layout::{self, blocks_for_leaves, merge_chain};
use crate::query_exec::{QueryTarget, TimeSource, VectorSource};
use crate::select::{SearchBlockSet, TimeWindow};
use crate::Timestamp;
use mbi_ann::{SearchParams, SearchStats, VectorStore};
use mbi_math::Metric;

/// One TkNN answer: a vector id (insertion order), its timestamp, and its
/// distance to the query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TknnResult {
    /// Row id — the value returned by [`MbiIndex::insert`].
    pub id: u32,
    /// The vector's timestamp.
    pub timestamp: Timestamp,
    /// Distance to the query under the index metric.
    pub dist: f32,
}

/// A query answer plus per-query instrumentation.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// Up to `k` results, ascending by distance.
    pub results: Vec<TknnResult>,
    /// Work counters (distance evaluations, vertices visited, rows scanned,
    /// blocks searched).
    pub stats: SearchStats,
    /// The search block set the query used.
    pub selection: SearchBlockSet,
    /// Whether a cooperative deadline expired before every selected place
    /// was searched — `results` then covers only the places visited in
    /// time (partial, never garbage). Always `false` without a deadline.
    pub timed_out: bool,
}

/// One row of [`MbiIndex::level_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelStats {
    /// Tree height (leaf = 0).
    pub height: u32,
    /// Number of materialised blocks at this height.
    pub blocks: usize,
    /// Total rows covered by blocks at this height.
    pub rows: usize,
    /// Total graph bytes at this height.
    pub graph_bytes: usize,
}

/// The row checks every insert path runs before it stores (or logs) a row:
/// the configured dimension, a timestamp below `i64::MAX`, and a finite
/// `Σx²` — which is finite exactly when every component is and the squared
/// norm does not overflow. A row failing the last check would panic the
/// NNDescent build at its seal, or score every query at a distance that is
/// not finite.
pub(crate) fn check_row(config: &MbiConfig, vector: &[f32], t: Timestamp) -> Result<(), MbiError> {
    if vector.len() != config.dim {
        return Err(MbiError::DimensionMismatch { expected: config.dim, got: vector.len() });
    }
    if t == Timestamp::MAX {
        return Err(MbiError::TimestampOutOfRange { got: t });
    }
    if !vector.iter().map(|x| x * x).sum::<f32>().is_finite() {
        return Err(MbiError::NonFiniteVector);
    }
    Ok(())
}

/// Builds the graphs of one pending merge chain — §4.2 "Parallelization of
/// MBI": each block of a chain is independent, so with `parallel` a chain's
/// blocks build concurrently, one scoped worker per block. Each
/// block's build is single-threaded, so the graphs are identical to a serial
/// build.
///
/// `pending` holds *global* row ranges; `offset` is the global row of
/// `store`'s first row, so the synchronous path passes the whole flat store
/// with `offset = 0` while the streaming engine passes a pointer-shared
/// [`SegmentStore`](mbi_ann::SegmentStore) covering just the chain's rows.
/// `base_id` seeds the per-block salt and must equal the postorder index of
/// the chain's first block.
pub(crate) fn build_chain_graphs<V: VectorSource + ?Sized>(
    config: &MbiConfig,
    store: &V,
    offset: usize,
    pending: &[(std::ops::Range<usize>, u32)],
    base_id: u64,
    parallel: bool,
) -> Vec<BlockGraph> {
    let backend = &config.backend;
    let metric = config.metric;
    let local = |rows: &std::ops::Range<usize>| rows.start - offset..rows.end - offset;
    let build = |i: usize| {
        let rows = local(&pending[i].0);
        BlockGraph::build(backend, store.slice(rows), metric, base_id + i as u64)
    };
    if !parallel || pending.len() == 1 {
        return (0..pending.len()).map(build).collect();
    }
    let mut graphs: Vec<Option<BlockGraph>> = (0..pending.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (i, slot) in graphs.iter_mut().enumerate() {
            let build = &build;
            // A block whose thread the OS refuses keeps an empty slot and is
            // built below, on this thread: the graph is the same either way.
            let _ = std::thread::Builder::new().spawn_scoped(scope, move || *slot = Some(build(i)));
        }
    });
    graphs.into_iter().enumerate().map(|(i, g)| g.unwrap_or_else(|| build(i))).collect()
}

/// Pairs a chain's ranges with its built graphs into [`Block`]s, reading the
/// timestamp bounds from the global timestamp column.
pub(crate) fn assemble_blocks<T: TimeSource + ?Sized>(
    pending: Vec<(std::ops::Range<usize>, u32)>,
    graphs: Vec<BlockGraph>,
    timestamps: &T,
) -> Vec<Block> {
    pending
        .into_iter()
        .zip(graphs)
        .map(|((rows, height), graph)| {
            let start_ts = timestamps.get(rows.start);
            let end_ts = timestamps.get(rows.end - 1) + 1;
            Block { rows, height, start_ts, end_ts, graph }
        })
        .collect()
}

/// One block-directory entry as [`validate_blocks`] sees it: row range,
/// height, and timestamp bounds `[start_ts, end_ts)`.
pub(crate) type BlockEntry<'a> = (&'a std::ops::Range<usize>, u32, Timestamp, Timestamp);

/// Checks that `blocks` is the postorder layout of the maximal-subtree
/// forest implied by `num_leaves` (heights, row ranges) and that every
/// block's timestamp bounds match its rows — invariants 3–4 of
/// [`MbiIndex::validate`]. It reads directory entries only, so the snapshot
/// reader runs it on a cold file's graph-less block directory before any
/// query walks the tree; [`validate_edges`] checks invariant 5.
pub(crate) fn validate_blocks<'a, T: TimeSource + ?Sized>(
    leaf_size: usize,
    num_leaves: usize,
    blocks: impl IntoIterator<Item = BlockEntry<'a>>,
    timestamps: &T,
) -> Result<(), String> {
    let blocks: Vec<BlockEntry<'a>> = blocks.into_iter().collect();
    let expected = blocks_for_leaves(num_leaves);
    if expected != blocks.len() {
        return Err(format!(
            "expected {expected} blocks for {num_leaves} leaves, found {}",
            blocks.len()
        ));
    }
    for (i, ((rows, height), &(found_rows, found_height, found_start, found_end))) in
        layout::postorder(num_leaves, leaf_size).zip(&blocks).enumerate()
    {
        if *found_rows != rows || found_height != height {
            return Err(format!(
                "block {i}: expected rows {rows:?} height {height}, found {found_rows:?} height \
                 {found_height}"
            ));
        }
        let start_ts = timestamps.get(rows.start);
        // Inserts refuse `i64::MAX`, so only hostile bytes reach this `None`.
        let Some(end_ts) = timestamps.get(rows.end - 1).checked_add(1) else {
            return Err(format!("block {i}: timestamp {} is out of range", Timestamp::MAX));
        };
        if found_start != start_ts || found_end != end_ts {
            return Err(format!(
                "block {i}: timestamp bounds [{found_start}, {found_end}) do not match rows \
                 ([{start_ts}, {end_ts}))"
            ));
        }
    }
    Ok(())
}

/// Invariant 5 of [`MbiIndex::validate`]: every kNN-graph edge stays inside
/// its block. The graph decoder enforces it on persisted bytes; this checks
/// graphs already in memory.
pub(crate) fn validate_edges<'a>(
    blocks: impl IntoIterator<Item = &'a Block>,
) -> Result<(), String> {
    for (i, block) in blocks.into_iter().enumerate() {
        let BlockGraph(g) = &block.graph;
        if g.node_count() != block.len() {
            return Err(format!(
                "block {i}: graph has {} nodes for {} rows",
                g.node_count(),
                block.len()
            ));
        }
        for node in 0..g.node_count() as u32 {
            for &nb in g.neighbors(node) {
                if nb as usize >= block.len() {
                    return Err(format!("block {i}: edge {node}→{nb} escapes the block"));
                }
            }
        }
    }
    Ok(())
}

/// Multi-level Block Index over timestamped vectors.
///
/// See the [crate docs](crate) for the structure; invariants maintained here:
///
/// 1. `store` and `timestamps` are parallel arrays in non-decreasing
///    timestamp order (appends validate monotonicity).
/// 2. Rows `[0, num_leaves · S_L)` are covered by materialised blocks; rows
///    past that are the *tail* (the first non-full leaf of Algorithm 3).
/// 3. `blocks` is a postorder layout of the forest of maximal complete
///    subtrees determined by `num_leaves` (binary decomposition).
#[derive(Clone, Debug)]
pub struct MbiIndex {
    pub(crate) config: MbiConfig,
    pub(crate) store: VectorStore,
    pub(crate) timestamps: Vec<Timestamp>,
    pub(crate) blocks: Vec<Block>,
    pub(crate) num_leaves: usize,
}

impl MbiIndex {
    /// Creates an empty index.
    ///
    /// Under the angular metric the store caches each vector's inverse norm
    /// at insert time, so graph builds and queries never renormalise rows.
    pub fn new(config: MbiConfig) -> Self {
        let mut store = VectorStore::new(config.dim);
        if config.metric == Metric::Angular {
            store.enable_norm_cache();
        }
        MbiIndex { store, timestamps: Vec::new(), blocks: Vec::new(), num_leaves: 0, config }
    }

    /// The configuration this index was created with.
    pub fn config(&self) -> &MbiConfig {
        &self.config
    }

    /// Changes the block-selection threshold `τ` — a query-time parameter
    /// (§5.4.2); no blocks are rebuilt.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tau <= 1`.
    pub fn set_tau(&mut self, tau: f64) {
        assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0, 1], got {tau}");
        self.config.tau = tau;
    }

    /// Number of indexed vectors (including the tail).
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the index holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// All materialised blocks in postorder.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of sealed (full) leaves.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Row range of the non-full tail leaf (possibly empty).
    pub fn tail_rows(&self) -> std::ops::Range<usize> {
        self.num_leaves * self.config.leaf_size..self.len()
    }

    /// The timestamp column (ascending).
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.timestamps
    }

    /// The raw vector store.
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// Timestamp of row `id`.
    pub fn timestamp_of(&self, id: u32) -> Timestamp {
        self.timestamps[id as usize]
    }

    /// Vector of row `id`.
    pub fn vector_of(&self, id: u32) -> &[f32] {
        self.store.get(id as usize)
    }

    /// Bytes of heap memory used by the index *structures* (graphs + block
    /// metadata), excluding the raw vectors. Table 4 / Figure 7b accounting.
    pub fn index_memory_bytes(&self) -> usize {
        self.blocks.iter().map(Block::memory_bytes).sum()
    }

    /// Bytes of the raw input data (vectors + timestamps) — the "Input Data
    /// Size" column of Table 4.
    pub fn data_bytes(&self) -> usize {
        self.store.data_bytes() + self.timestamps.len() * std::mem::size_of::<Timestamp>()
    }

    /// Appends a timestamped vector (Algorithm 3). Returns the new row id.
    ///
    /// Timestamps must be non-decreasing: MBI ingests data in time order
    /// (§4.2); ties are permitted and keep insertion order (§3.1 tie rule).
    /// `i64::MAX` is rejected ([`MbiError::TimestampOutOfRange`]), and so is
    /// a vector with a non-finite component or squared norm
    /// ([`MbiError::NonFiniteVector`]).
    pub fn insert(&mut self, vector: &[f32], t: Timestamp) -> Result<u32, MbiError> {
        check_row(&self.config, vector, t)?;
        if let Some(&newest) = self.timestamps.last() {
            if t < newest {
                return Err(MbiError::NonMonotonicTimestamp { newest, got: t });
            }
        }
        let id = self.store.push(vector);
        self.timestamps.push(t);

        // Lines 4–14: seal the leaf when it reaches S_L, then merge upward.
        if self.tail_rows().len() == self.config.leaf_size {
            self.seal_tail();
        }
        Ok(id)
    }

    /// Appends many timestamped vectors.
    pub fn insert_batch<'a, I>(&mut self, items: I) -> Result<(), MbiError>
    where
        I: IntoIterator<Item = (&'a [f32], Timestamp)>,
    {
        for (v, t) in items {
            self.insert(v, t)?;
        }
        Ok(())
    }

    /// Seals the now-full tail leaf and performs bottom-up block merging:
    /// after the `num_leaves`-th leaf, one ancestor block is created per
    /// trailing zero bit of `num_leaves` (the `while j is even` loop of
    /// Algorithm 3).
    fn seal_tail(&mut self) {
        self.num_leaves += 1;
        debug_assert_eq!(self.num_leaves * self.config.leaf_size, self.len());
        let base_id = blocks_for_leaves(self.num_leaves - 1);
        debug_assert_eq!(self.blocks.len(), base_id);

        let pending = merge_chain(self.num_leaves, self.config.leaf_size);
        let parallel = self.config.parallel_build
            && std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        let graphs =
            build_chain_graphs(&self.config, &self.store, 0, &pending, base_id as u64, parallel);
        self.blocks.extend(assemble_blocks(pending, graphs, self.timestamps.as_slice()));
    }

    /// The borrowed [`QueryTarget`] view of this index — the shared query
    /// executor used by both this type and the streaming engine's snapshots.
    pub(crate) fn target(&self) -> QueryTarget<'_, VectorStore, [Timestamp]> {
        QueryTarget {
            config: &self.config,
            store: &self.store,
            times: self.timestamps.as_slice(),
            num_leaves: self.num_leaves,
        }
    }

    /// Computes the search block set for `window` (Algorithm 4 line 3).
    pub fn block_selection(&self, window: TimeWindow) -> SearchBlockSet {
        self.target().block_selection(window, self.config.tau, |i| self.blocks[i].select_meta())
    }

    /// Approximate TkNN query with the configured default search parameters.
    pub fn query(&self, query: &[f32], k: usize, window: TimeWindow) -> Vec<TknnResult> {
        self.query_with_params(query, k, window, &self.config.search).results
    }

    /// Approximate TkNN query (Algorithm 4) with explicit `M_C`/`ε`,
    /// returning results plus instrumentation.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim`.
    pub fn query_with_params(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
    ) -> QueryOutput {
        let selection = self.block_selection(window);
        self.query_on_selection(query, k, window, params, &selection)
    }

    /// Runs the per-block search + merge of Algorithm 4 over an explicit
    /// search block set. Exposed so callers (e.g. the `τ` tuner) can select
    /// blocks under a different `τ` without rebuilding the index.
    pub fn query_on_selection(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        selection: &SearchBlockSet,
    ) -> QueryOutput {
        let blocks: Vec<&Block> = selection.blocks.iter().map(|&i| &self.blocks[i]).collect();
        self.target().search(query, k, window, params, selection, &blocks, None)
    }

    /// [`MbiIndex::query_with_params`]; `threads` is ignored, since a query
    /// runs on its caller's thread. Kept only so the `e2e` benchmark's
    /// `query_fanout` still builds; ROADMAP item 1 (the next benchmark
    /// change) removes it.
    #[deprecated(note = "same as `query_with_params`; removed with ROADMAP item 1")]
    pub fn query_with_params_threaded(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        _threads: usize,
    ) -> QueryOutput {
        self.query_with_params(query, k, window, params)
    }

    /// Exact TkNN by binary search + brute force over the whole store — the
    /// BSBF procedure (Algorithm 1) applied to this index's own data. Used
    /// as ground truth by the τ tuner and in tests.
    pub fn exact_query(&self, query: &[f32], k: usize, window: TimeWindow) -> Vec<TknnResult> {
        self.target().exact_query(query, k, window)
    }

    /// Rows whose timestamps fall in `window`, as `[lo, hi)` — the binary
    /// search step of Algorithm 1 (timestamps are sorted by construction).
    pub fn window_rows(&self, window: TimeWindow) -> (usize, usize) {
        self.target().window_rows(window)
    }

    /// Number of vectors whose timestamps fall in `window` (`|D[t_s:t_e)|`).
    pub fn window_len(&self, window: TimeWindow) -> usize {
        let (lo, hi) = self.window_rows(window);
        hi - lo
    }

    /// Per-level summary of the block tree: `(height, block count, total
    /// rows covered at that height, total graph bytes)`. Feeds the size
    /// accounting of §4.4.1 (`Σ 2^i · Ψ(|D|/2^i)`) and the reports.
    pub fn level_stats(&self) -> Vec<LevelStats> {
        let max_h = self.blocks.iter().map(|b| b.height).max().map_or(0, |h| h + 1);
        let mut levels: Vec<LevelStats> = (0..max_h)
            .map(|h| LevelStats { height: h, blocks: 0, rows: 0, graph_bytes: 0 })
            .collect();
        for b in &self.blocks {
            let l = &mut levels[b.height as usize];
            l.blocks += 1;
            l.rows += b.len();
            l.graph_bytes += b.graph.memory_bytes();
        }
        levels
    }

    /// Renders the block tree as indented ASCII, one line per block in
    /// postorder, each forest root drawn `└─` after its subtree — a
    /// debugging aid exposed by `mbi info --tree`:
    ///
    /// ```text
    /// ├─ B0  h0  rows [0, 8)      t [0, 8)      8.2 KiB
    /// ├─ B1  h0  rows [8, 16)     t [8, 16)     8.2 KiB
    /// └─ B2  h1  rows [0, 16)     t [0, 16)    16.4 KiB
    /// tail: rows [16, 19) (3 vectors, exact scan)
    /// ```
    pub fn render_tree(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut roots = layout::roots(self.num_leaves).peekable();
        for (i, b) in self.blocks.iter().enumerate() {
            // Postorder: the first root at or after a block is its tree's.
            let root = *roots.peek().unwrap_or(&i);
            let indent = "  ".repeat((self.blocks[root].height - b.height) as usize);
            let glyph = if roots.next_if_eq(&i).is_some() { "└─" } else { "├─" };
            let _ = writeln!(
                out,
                "{indent}{glyph} B{i}  h{}  rows [{}, {})  t [{}, {})  {:.1} KiB",
                b.height,
                b.rows.start,
                b.rows.end,
                b.start_ts,
                b.end_ts,
                b.memory_bytes() as f64 / 1024.0
            );
        }
        let tail = self.tail_rows();
        if !tail.is_empty() {
            let _ = writeln!(
                out,
                "tail: rows [{}, {}) ({} vectors, exact scan)",
                tail.start,
                tail.end,
                tail.len()
            );
        }
        if out.is_empty() {
            out.push_str("(empty index)\n");
        }
        out
    }

    /// Exhaustively checks every structural invariant of the index;
    /// returns a description of the first violation, if any. Run after
    /// loading persisted bytes from an untrusted source, and by tests.
    ///
    /// Checked invariants:
    /// 1. timestamps are non-decreasing and parallel to the store;
    /// 2. sealed rows = `num_leaves · S_L ≤ len`, and the tail is shorter
    ///    than one leaf;
    /// 3. the block array is the postorder layout of the maximal-subtree
    ///    forest implied by `num_leaves` (heights, row ranges, child
    ///    arithmetic);
    /// 4. every block's timestamp bounds match its rows;
    /// 5. every graph edge stays inside its block.
    pub fn validate(&self) -> Result<(), String> {
        if self.store.len() != self.timestamps.len() {
            return Err(format!(
                "store has {} rows but {} timestamps",
                self.store.len(),
                self.timestamps.len()
            ));
        }
        if self.timestamps.windows(2).any(|w| w[1] < w[0]) {
            return Err("timestamps not sorted".into());
        }
        let sealed = self.num_leaves * self.config.leaf_size;
        if sealed > self.len() {
            return Err(format!("{sealed} sealed rows exceed {} stored", self.len()));
        }
        if self.len() - sealed >= self.config.leaf_size {
            return Err(format!(
                "a tail of {} rows is not shorter than a leaf of {}",
                self.len() - sealed,
                self.config.leaf_size
            ));
        }
        validate_blocks(
            self.config.leaf_size,
            self.num_leaves,
            self.blocks.iter().map(Block::entry),
            self.timestamps.as_slice(),
        )?;
        validate_edges(&self.blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbi_math::Metric;

    fn small_config() -> MbiConfig {
        MbiConfig::new(2, Metric::Euclidean)
            .with_leaf_size(8)
            .with_search(SearchParams::new(64, 1.2))
    }

    /// Inserts `n` points on a line, timestamp == id.
    fn line_index(n: usize, config: MbiConfig) -> MbiIndex {
        let mut idx = MbiIndex::new(config);
        for i in 0..n {
            idx.insert(&[i as f32, 0.0], i as i64).unwrap();
        }
        idx
    }

    #[test]
    fn merge_chain_and_block_count_arithmetic() {
        assert_eq!(merge_chain(1, 8), vec![(0..8, 0)]);
        assert_eq!(merge_chain(2, 8), vec![(8..16, 0), (0..16, 1)]);
        assert_eq!(merge_chain(3, 8), vec![(16..24, 0)]);
        assert_eq!(merge_chain(4, 8), vec![(24..32, 0), (16..32, 1), (0..32, 2)]);
        // blocks_for_leaves is the running sum of chain lengths — the block-id
        // arithmetic the streaming engine's out-of-order builds rely on.
        let mut total = 0usize;
        for j in 1..=64 {
            assert_eq!(total, blocks_for_leaves(j - 1), "after {} leaves", j - 1);
            total += merge_chain(j, 8).len();
        }
        assert_eq!(total, blocks_for_leaves(64));
    }

    #[test]
    fn empty_index_queries_cleanly() {
        let idx = MbiIndex::new(small_config());
        assert!(idx.is_empty());
        assert!(idx.query(&[0.0, 0.0], 5, TimeWindow::all()).is_empty());
        assert!(idx.exact_query(&[0.0, 0.0], 5, TimeWindow::all()).is_empty());
    }

    #[test]
    fn insert_validates_dimension_and_monotonicity() {
        let mut idx = MbiIndex::new(small_config());
        assert!(matches!(
            idx.insert(&[1.0], 0),
            Err(MbiError::DimensionMismatch { expected: 2, got: 1 })
        ));
        idx.insert(&[0.0, 0.0], 10).unwrap();
        assert!(matches!(
            idx.insert(&[0.0, 0.0], 9),
            Err(MbiError::NonMonotonicTimestamp { newest: 10, got: 9 })
        ));
        // Equal timestamps are allowed (tie rule).
        idx.insert(&[0.0, 1.0], 10).unwrap();
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn i64_max_is_rejected_and_max_minus_one_round_trips() {
        // Seven rows: the next insert seals the first leaf, whose exclusive
        // end bound is `newest + 1`.
        let mut idx = line_index(7, small_config());
        assert!(matches!(
            idx.insert(&[7.0, 0.0], i64::MAX),
            Err(MbiError::TimestampOutOfRange { got: i64::MAX })
        ));
        assert_eq!((idx.len(), idx.num_leaves()), (7, 0), "a rejected row leaves no trace");
        idx.insert(&[7.0, 0.0], i64::MAX - 1).unwrap();
        assert_eq!(idx.blocks()[0].end_ts, i64::MAX);
        assert!(idx.insert(&[8.0, 0.0], i64::MAX).is_err(), "still rejected at the newest bound");
        assert_eq!(idx.validate(), Ok(()));
        let back = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
        let w = TimeWindow::new(0, i64::MAX);
        assert_eq!(back.query(&[6.5, 0.0], 3, w), idx.query(&[6.5, 0.0], 3, w));
        assert_eq!(back.blocks()[0].end_ts, i64::MAX);
    }

    /// Rows no distance can order: a NaN or infinite component, or a finite
    /// one whose square overflows `Σx²`.
    fn non_finite_rows() -> [[f32; 4]; 4] {
        [
            [0.5, f32::NAN, 0.5, 0.5],
            [0.5, 0.5, f32::INFINITY, 0.5],
            [f32::NEG_INFINITY, 0.5, 0.5, 0.5],
            [0.5, 0.5, 0.5, 3e38],
        ]
    }

    #[test]
    fn non_finite_rows_are_rejected_before_the_seal() {
        let backend = crate::GraphBackend::NnDescent(mbi_ann::NnDescentParams::with_degree(8));
        let config = MbiConfig::new(4, Metric::Euclidean).with_leaf_size(64).with_backend(backend);
        let mut idx = MbiIndex::new(config);
        let row = |i: usize| [i as f32, (i as f32 * 0.3).sin(), 1.0, -(i as f32)];
        for i in 0..63 {
            idx.insert(&row(i), i as i64).unwrap();
        }
        // The next accepted row seals the leaf: a NaN here used to panic
        // NNDescent.
        for bad in non_finite_rows() {
            assert!(matches!(idx.insert(&bad, 63), Err(MbiError::NonFiniteVector)), "{bad:?}");
            assert_eq!(idx.len(), 63, "a rejected row leaves no trace");
        }
        idx.insert(&row(63), 63).unwrap();
        assert_eq!(idx.num_leaves(), 1);
        assert_eq!(idx.validate(), Ok(()));
        assert_eq!(idx.query(&row(10), 1, TimeWindow::all())[0].id, 10);
    }

    #[test]
    fn block_structure_follows_postorder() {
        // 32 points, S_L = 8 → 4 leaves → blocks (postorder):
        // leaf0, leaf1, parent01, leaf2, leaf3, parent23, root.
        let idx = line_index(32, small_config());
        assert_eq!(idx.num_leaves(), 4);
        assert_eq!(idx.blocks().len(), 7);
        let heights: Vec<u32> = idx.blocks().iter().map(|b| b.height).collect();
        assert_eq!(heights, vec![0, 0, 1, 0, 0, 1, 2]);
        let root = &idx.blocks()[6];
        assert_eq!(root.rows, 0..32);
        assert_eq!(root.start_ts, 0);
        assert_eq!(root.end_ts, 32);
        // Sibling arithmetic: right child at 5, left child at 6 − 2^2 = 2.
        assert_eq!(idx.blocks()[5].rows, 16..32);
        assert_eq!(idx.blocks()[2].rows, 0..16);
        assert!(idx.tail_rows().is_empty());
    }

    #[test]
    fn tail_holds_unsealed_rows() {
        let idx = line_index(19, small_config());
        assert_eq!(idx.num_leaves(), 2);
        assert_eq!(idx.tail_rows(), 16..19);
        assert_eq!(idx.blocks().len(), 3); // leaf, leaf, parent
    }

    #[test]
    fn query_matches_exact_on_easy_data() {
        let idx = line_index(64, small_config());
        for (s, e) in [(0i64, 64i64), (5, 20), (30, 34), (0, 8), (56, 64), (11, 53)] {
            let w = TimeWindow::new(s, e);
            let got = idx.query(&[17.3, 0.0], 5, w);
            let exact = idx.exact_query(&[17.3, 0.0], 5, w);
            let got_ids: Vec<u32> = got.iter().map(|r| r.id).collect();
            let exact_ids: Vec<u32> = exact.iter().map(|r| r.id).collect();
            assert_eq!(got_ids, exact_ids, "window [{s},{e})");
            for r in &got {
                assert!(w.contains(r.timestamp));
            }
        }
    }

    #[test]
    fn query_respects_window_strictly() {
        let idx = line_index(40, small_config());
        // Query vector sits at 10 but window is [30, 35).
        let res = idx.query(&[10.0, 0.0], 3, TimeWindow::new(30, 35));
        assert_eq!(res.len(), 3);
        for r in &res {
            assert!((30..35).contains(&r.timestamp), "{:?}", r);
        }
        assert_eq!(res[0].id, 30);
    }

    #[test]
    fn empty_window_returns_nothing() {
        let idx = line_index(40, small_config());
        assert!(idx.query(&[5.0, 0.0], 3, TimeWindow::new(20, 20)).is_empty());
        assert!(idx.query(&[5.0, 0.0], 3, TimeWindow::new(100, 200)).is_empty());
    }

    #[test]
    fn fewer_matches_than_k() {
        let idx = line_index(40, small_config());
        let res = idx.query(&[0.0, 0.0], 10, TimeWindow::new(35, 38));
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn tail_only_window() {
        let idx = line_index(20, small_config()); // tail = rows 16..20
        let res = idx.query(&[19.0, 0.0], 2, TimeWindow::new(17, 20));
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].id, 19);
        assert_eq!(res[1].id, 18);
        let sel = idx.block_selection(TimeWindow::new(17, 20));
        assert!(sel.tail);
        assert!(sel.blocks.is_empty());
    }

    #[test]
    fn selection_covers_sealed_and_tail() {
        let idx = line_index(20, small_config());
        let sel = idx.block_selection(TimeWindow::new(0, 20));
        assert!(sel.tail);
        assert!(!sel.blocks.is_empty());
        let out = idx.query_with_params(
            &[9.5, 0.0],
            4,
            TimeWindow::new(0, 20),
            &SearchParams::new(64, 1.2),
        );
        assert_eq!(out.stats.blocks_searched, sel.places() as u64);
        assert_eq!(out.results.len(), 4);
    }

    #[test]
    fn lemma_4_1_two_blocks_max_on_complete_tree() {
        // 64 points, S_L = 8 → 8 leaves → complete tree; τ = 0.5.
        let idx = line_index(64, small_config().with_tau(0.5));
        for s in (0..60).step_by(3) {
            for e in ((s + 1)..64).step_by(5) {
                let sel = idx.block_selection(TimeWindow::new(s as i64, e as i64));
                assert!(sel.blocks.len() <= 2, "window [{s},{e}) used {} blocks", sel.blocks.len());
            }
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let serial = line_index(64, small_config());
        let parallel = line_index(64, small_config().with_parallel_build(true));
        assert_eq!(serial.blocks().len(), parallel.blocks().len());
        for (a, b) in serial.blocks().iter().zip(parallel.blocks()) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.height, b.height);
            let (BlockGraph(ga), BlockGraph(gb)) = (&a.graph, &b.graph);
            assert_eq!(ga.as_flat(), gb.as_flat(), "same seeds → identical graphs");
        }
    }

    #[test]
    fn memory_accounting_grows_with_levels() {
        let idx8 = line_index(8, small_config());
        let idx64 = line_index(64, small_config());
        assert!(idx64.index_memory_bytes() > idx8.index_memory_bytes());
        assert_eq!(idx64.data_bytes(), 64 * 2 * 4 + 64 * 8);
    }

    #[test]
    fn window_rows_binary_search() {
        let idx = line_index(32, small_config());
        assert_eq!(idx.window_rows(TimeWindow::new(5, 9)), (5, 9));
        assert_eq!(idx.window_rows(TimeWindow::new(-10, 3)), (0, 3));
        assert_eq!(idx.window_rows(TimeWindow::new(40, 50)), (32, 32));
        assert_eq!(idx.window_rows(TimeWindow::all()), (0, 32));
    }

    #[test]
    fn duplicate_timestamps_are_searchable() {
        let mut idx = MbiIndex::new(small_config());
        for i in 0..24 {
            // Three vectors share each timestamp.
            idx.insert(&[i as f32, 0.0], (i / 3) as i64).unwrap();
        }
        let res = idx.exact_query(&[6.0, 0.0], 3, TimeWindow::new(2, 3));
        // Timestamp 2 covers rows 6, 7, 8.
        let ids: Vec<u32> = res.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![6, 7, 8]);
        let approx = idx.query(&[6.0, 0.0], 3, TimeWindow::new(2, 3));
        assert_eq!(approx.len(), 3);
    }

    #[test]
    fn insert_batch_works() {
        let mut idx = MbiIndex::new(small_config());
        let vecs: Vec<[f32; 2]> = (0..10).map(|i| [i as f32, 0.0]).collect();
        idx.insert_batch(vecs.iter().map(|v| (v.as_slice(), v[0] as i64))).unwrap();
        assert_eq!(idx.len(), 10);
    }

    #[test]
    fn render_tree_shows_structure() {
        let idx = line_index(19, small_config()); // 2 leaves + parent + tail
        let text = idx.render_tree();
        assert!(text.contains("B0  h0  rows [0, 8)"), "{text}");
        assert!(text.contains("B2  h1  rows [0, 16)"), "{text}");
        assert!(text.contains("tail: rows [16, 19) (3 vectors"), "{text}");
        assert_eq!(text.lines().count(), 4);

        // Three leaves: every forest root hangs at the margin.
        let text = line_index(24, small_config()).render_tree();
        let lines: Vec<&str> = text.lines().map(|l| l.split("  h").next().unwrap()).collect();
        assert_eq!(lines, ["  ├─ B0", "  ├─ B1", "└─ B2", "└─ B3"], "{text}");

        let empty = MbiIndex::new(small_config());
        assert_eq!(empty.render_tree(), "(empty index)\n");
    }

    #[test]
    fn validate_accepts_healthy_indexes() {
        for n in [0usize, 5, 8, 17, 32, 57, 64, 100] {
            let idx = line_index(n, small_config());
            assert_eq!(idx.validate(), Ok(()), "n = {n}");
        }
    }

    #[test]
    fn validate_rejects_tampered_structure() {
        let mut idx = line_index(32, small_config());
        idx.num_leaves = 3; // lie about the leaf count
        assert!(idx.validate().is_err());

        let mut idx = line_index(32, small_config());
        idx.blocks[2].height = 0; // corrupt a parent's height
        assert!(idx.validate().is_err());

        let mut idx = line_index(32, small_config());
        idx.blocks[0].start_ts = 99; // corrupt timestamp bounds
        assert!(idx.validate().is_err());

        let mut idx = line_index(32, small_config());
        idx.timestamps[5] = -1; // break sortedness
        assert!(idx.validate().is_err());

        // Two whole leaves past the blocks: a valid postorder layout for
        // two leaves, over a tail no insert could leave.
        let mut idx = line_index(32, small_config());
        idx.num_leaves = 2;
        idx.blocks.truncate(crate::layout::blocks_for_leaves(2));
        let err = idx.validate().unwrap_err();
        assert!(err.contains("tail of 16 rows"), "{err}");
    }

    #[test]
    fn level_stats_sum_to_structure() {
        let idx = line_index(64, small_config()); // 8 leaves, heights 0..=3
        let levels = idx.level_stats();
        assert_eq!(levels.len(), 4);
        assert_eq!(
            levels[0],
            LevelStats { height: 0, blocks: 8, rows: 64, graph_bytes: levels[0].graph_bytes }
        );
        // Every level covers all 64 rows (the defining property behind the
        // O(|D| log |D|) size bound of §4.4.1).
        for l in &levels {
            assert_eq!(l.rows, 64, "height {}", l.height);
            assert!(l.graph_bytes > 0);
        }
        let total: usize = levels.iter().map(|l| l.graph_bytes).sum();
        assert!(total <= idx.index_memory_bytes());
    }

    #[test]
    fn window_len_matches_rows() {
        let idx = line_index(40, small_config());
        assert_eq!(idx.window_len(TimeWindow::new(5, 25)), 20);
        assert_eq!(idx.window_len(TimeWindow::new(100, 200)), 0);
    }

    #[test]
    fn vector_and_timestamp_accessors() {
        let idx = line_index(10, small_config());
        assert_eq!(idx.vector_of(3), &[3.0, 0.0]);
        assert_eq!(idx.timestamp_of(3), 3);
        assert_eq!(idx.dim(), 2);
        assert_eq!(idx.timestamps().len(), 10);
        assert_eq!(idx.store().len(), 10);
    }
}
