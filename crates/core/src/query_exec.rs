//! Generic query execution (Algorithm 4) over any block tree.
//!
//! [`MbiIndex`](crate::MbiIndex) owns its blocks directly (`Vec<Block>`),
//! the streaming engine's snapshots share them, and the cold tier pins the
//! blocks a query touches from a mapped file. Each front-end runs selection
//! over its own block metadata and hands the selected blocks to
//! [`QueryTarget::search`], so the per-block search, the cost-model
//! dispatch, the deadline, and the tail scan are written (and audited)
//! exactly once. A query runs on its caller's thread: one search per
//! selected block, in selection order, merged into one top-k.

use crate::block::Block;
use crate::config::MbiConfig;
use crate::index::{QueryOutput, TknnResult};
use crate::select::{select_blocks, SearchBlockSet, TimeWindow};
use crate::times::TimeChunks;
use crate::Timestamp;
use mbi_ann::{
    brute_force_prepared, brute_force_sq8_prepared, with_thread_scratch, SearchParams,
    SearchScratch, SearchStats, SegmentStore, VectorStore, VectorView,
};
use mbi_math::{Neighbor, PreparedQuery, TopK};
use std::cell::Cell;
use std::time::Instant;

/// Cooperative deadline of one query: `None` means unbounded. The flag
/// latches, so once expiry is observed every later [`Deadline::expired`]
/// call reads no clock.
struct Deadline {
    at: Option<Instant>,
    hit: Cell<bool>,
}

impl Deadline {
    fn new(at: Option<Instant>) -> Self {
        Deadline { at, hit: Cell::new(false) }
    }

    /// Whether the deadline has passed (checked between block visits —
    /// granularity is one block search, never mid-scan).
    fn expired(&self) -> bool {
        let Some(at) = self.at else { return false };
        if !self.hit.get() && Instant::now() >= at {
            self.hit.set(true);
        }
        self.hit.get()
    }

    /// Whether any [`Deadline::expired`] call returned true.
    fn was_hit(&self) -> bool {
        self.hit.get()
    }
}

/// Whether the executor answers a selected block of `len` rows, `m > 0` of
/// them in the window, by graph search rather than by an exact scan of the
/// `m` rows. Cost model: the filtered graph search must visit ≈ k/ρ
/// vertices to collect k in-window results (ρ = m/|B| is the in-window
/// density) at ≈ degree distance evaluations per visit, i.e. ≈ k·degree·|B|/m
/// evals, while a BSBF scan of the block's in-window rows costs exactly m.
/// Dispatching on the cheaper side is what makes MBI "operate like BSBF when
/// the query time window is short" (challenge C1, §4) even below leaf
/// granularity. The cold tier asks this before a query to read a block's
/// graph only when it is searched.
pub(crate) fn graph_search_pays(config: &MbiConfig, k: usize, len: usize, m: usize) -> bool {
    let degree = config.search_degree_estimate();
    // The beam typically visits ~2k vertices before the ε bound stops it,
    // hence the factor 2 on the k/ρ visit estimate.
    let graph_cost =
        (k as u64).saturating_mul(2).saturating_mul(degree as u64).saturating_mul(len as u64)
            / m as u64;
    m as u64 >= graph_cost
}

/// Row storage a query can execute against: the flat [`VectorStore`] owned
/// by [`MbiIndex`](crate::MbiIndex) or the segment-shared [`SegmentStore`]
/// of a published snapshot. All the executor needs is a row-range view;
/// the kernels below it handle both contiguous and segmented views.
pub(crate) trait VectorSource: Sync {
    /// A view over rows `range.start..range.end`.
    fn slice(&self, range: std::ops::Range<usize>) -> VectorView<'_>;
}

impl VectorSource for VectorStore {
    #[inline]
    fn slice(&self, range: std::ops::Range<usize>) -> VectorView<'_> {
        VectorStore::slice(self, range)
    }
}

impl VectorSource for SegmentStore {
    #[inline]
    fn slice(&self, range: std::ops::Range<usize>) -> VectorView<'_> {
        SegmentStore::slice(self, range)
    }
}

/// Timestamp column a query can execute against: flat (`[Timestamp]`) or
/// chunk-shared ([`TimeChunks`]). Always non-decreasing.
pub(crate) trait TimeSource {
    /// Total timestamps (= total rows).
    fn len(&self) -> usize;
    /// Timestamp of row `i`.
    fn get(&self, i: usize) -> Timestamp;
    /// Index of the first row with timestamp `>= bound`.
    fn partition_below(&self, bound: Timestamp) -> usize;
}

impl TimeSource for [Timestamp] {
    #[inline]
    fn len(&self) -> usize {
        <[Timestamp]>::len(self)
    }
    #[inline]
    fn get(&self, i: usize) -> Timestamp {
        self[i]
    }
    #[inline]
    fn partition_below(&self, bound: Timestamp) -> usize {
        self.partition_point(|&t| t < bound)
    }
}

impl TimeSource for TimeChunks {
    #[inline]
    fn len(&self) -> usize {
        TimeChunks::len(self)
    }
    #[inline]
    fn get(&self, i: usize) -> Timestamp {
        TimeChunks::get(self, i)
    }
    #[inline]
    fn partition_below(&self, bound: Timestamp) -> usize {
        TimeChunks::partition_below(self, bound)
    }
}

/// A borrowed view of one queryable index state: parallel store/timestamp
/// columns and the number of leaves under blocks. Rows
/// `[num_leaves · S_L, times.len())` are the tail, served by exact scan.
/// The blocks themselves stay with the front-end: selection reads their
/// metadata through an accessor, and [`Self::search`] receives the ones
/// selection named.
pub(crate) struct QueryTarget<'a, V: ?Sized, T: ?Sized> {
    /// Index configuration (`τ`, metric, search defaults).
    pub config: &'a MbiConfig,
    /// The raw vectors, rows `0..times.len()`.
    pub store: &'a V,
    /// The timestamp column (non-decreasing), parallel to `store`.
    pub times: &'a T,
    /// Number of leaves under blocks.
    pub num_leaves: usize,
}

impl<'a, V, T> QueryTarget<'a, V, T>
where
    V: VectorSource + ?Sized,
    T: TimeSource + ?Sized,
{
    /// Rows no block covers yet (possibly empty): an [`MbiIndex`]'s non-full
    /// leaf, or a snapshot's sealed but unbuilt leaves.
    ///
    /// [`MbiIndex`]: crate::MbiIndex
    pub fn tail_rows(&self) -> std::ops::Range<usize> {
        self.num_leaves * self.config.leaf_size..self.times.len()
    }

    /// Computes the search block set for `window` at threshold `tau`
    /// (Algorithm 4 line 3). `meta(i)` is the `(start_ts, end_ts, height)`
    /// of the block at postorder index `i`.
    pub fn block_selection(
        &self,
        window: TimeWindow,
        tau: f64,
        meta: impl Fn(usize) -> (Timestamp, Timestamp, u32),
    ) -> SearchBlockSet {
        let blocks = select_blocks(meta, self.num_leaves, tau, window);
        let tail_rows = self.tail_rows();
        let tail = !tail_rows.is_empty() && {
            let ts = self.times.get(tail_rows.start);
            let te = self.times.get(tail_rows.end - 1) + 1;
            window.overlap_with(ts, te) > 0
        };
        SearchBlockSet { blocks, tail }
    }

    /// The one query body (Algorithm 4 after selection): per-block search +
    /// merge over `blocks` — the blocks `selection` names, in selection
    /// order — then the tail scan, under an optional cooperative
    /// `deadline`. Every front-end's approximate query ends here.
    ///
    /// The deadline is checked between block visits, so a straggler query
    /// stops within one block search of expiry instead of holding a server
    /// worker indefinitely. On expiry the output carries whatever was merged
    /// so far with `timed_out = true` — partial results, never a panic. With
    /// `deadline = None` no clock is read (one untaken branch per block).
    #[allow(clippy::too_many_arguments)]
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        selection: &SearchBlockSet,
        blocks: &[&Block],
        deadline: Option<Instant>,
    ) -> QueryOutput {
        assert_eq!(query.len(), self.config.dim, "query has wrong dimension");
        assert_eq!(blocks.len(), selection.blocks.len(), "one block per selected index");
        let deadline = Deadline::new(deadline);
        let mut stats = SearchStats::default();
        let mut merged = TopK::new(k);
        let (wlo, whi) = self.window_rows(window);
        // Prepared once per query: the norm work is shared by every block
        // this query touches.
        let pq = PreparedQuery::new(self.config.metric, query);

        // The thread's scratch is reused by every query on this thread.
        with_thread_scratch(|scratch, buf| {
            for block in blocks {
                if deadline.expired() {
                    break;
                }
                self.search_one_block(
                    block,
                    &pq,
                    k,
                    wlo,
                    whi,
                    params,
                    &mut merged,
                    &mut stats,
                    scratch,
                    buf,
                );
            }
        });

        // Tail: binary search + brute force (Algorithm 4 line 6 — rows no
        // block covers have no graph, so BSBF applies). Always the exact
        // scan, SQ8 or not: a snapshot's unbuilt leaves carry code columns,
        // but they are served exactly until their chain is published.
        if selection.tail && !deadline.expired() {
            let tail = self.tail_rows();
            let lo = wlo.max(tail.start);
            let hi = whi.max(lo);
            if hi > lo {
                stats.blocks_searched += 1;
                stats.blocks_bruteforced += 1;
                let view = self.store.slice(lo..hi);
                for n in brute_force_prepared(view, &pq, k, &mut stats) {
                    merged.offer(lo as u32 + n.id, n.dist);
                }
            }
        }

        QueryOutput {
            results: self.to_results(merged),
            stats,
            selection: selection.clone(),
            timed_out: deadline.was_hit(),
        }
    }

    /// Searches one selected full block, merging hits into `merged` and
    /// counters into `stats` — the per-block body of [`Self::search`].
    ///
    /// The block is answered by an SF-style filtered graph search (Algorithm
    /// 4 line 8) — unless the window covers so few of the block's rows that
    /// an exact scan is cheaper ([`graph_search_pays`]).
    ///
    /// `stats.blocks_searched` counts only blocks whose in-window row range
    /// is non-empty — a block selected on timestamp overlap can still hold
    /// zero in-window rows (timestamp gaps) and is skipped untouched.
    #[allow(clippy::too_many_arguments)]
    fn search_one_block(
        &self,
        block: &Block,
        pq: &PreparedQuery<'_>,
        k: usize,
        wlo: usize,
        whi: usize,
        params: &SearchParams,
        merged: &mut TopK,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
        buf: &mut Vec<Neighbor>,
    ) {
        let base = block.rows.start as u32;
        let lo = wlo.max(block.rows.start);
        let hi = whi.min(block.rows.end);
        let m = hi.saturating_sub(lo);
        if m == 0 {
            return;
        }
        stats.blocks_searched += 1;
        if !graph_search_pays(self.config, k, block.len(), m) {
            // Scan of the in-window rows of this block: quantized first
            // pass + exact rerank when SQ8 is on (exact inside the sq8 entry
            // point when the rows carry no code column, e.g. the flat
            // synchronous store). Returned distances are exact either way.
            stats.blocks_bruteforced += 1;
            let view = self.store.slice(lo..hi);
            let top = if self.config.sq8_scan {
                brute_force_sq8_prepared(view, pq, k, self.config.sq8_overfetch, stats)
            } else {
                brute_force_prepared(view, pq, k, stats)
            };
            for n in top {
                merged.offer(lo as u32 + n.id, n.dist);
            }
            return;
        }
        let view = self.store.slice(block.rows.clone());
        // Timestamps are non-decreasing, so the block's in-window rows are
        // exactly `lo..hi`.
        let in_window = (lo - block.rows.start) as u32..(hi - block.rows.start) as u32;
        let mut filter = |lid: u32| in_window.contains(&lid);
        if self.config.sq8_scan {
            block.graph.search_sq8_prepared(
                view,
                pq,
                k,
                self.config.sq8_overfetch,
                params,
                &mut filter,
                stats,
                scratch,
                buf,
            );
        } else {
            block.graph.search_prepared(view, pq, k, params, &mut filter, stats, scratch, buf);
        }
        for n in buf.iter() {
            merged.offer(base + n.id, n.dist);
        }
    }

    /// Exact TkNN by binary search + brute force over the whole store — the
    /// BSBF procedure (Algorithm 1) applied to this target's own data.
    pub fn exact_query(&self, query: &[f32], k: usize, window: TimeWindow) -> Vec<TknnResult> {
        assert_eq!(query.len(), self.config.dim, "query has wrong dimension");
        let (lo, hi) = self.window_rows(window);
        let mut stats = SearchStats::default();
        let pq = PreparedQuery::new(self.config.metric, query);
        let top = brute_force_prepared(self.store.slice(lo..hi), &pq, k, &mut stats);
        let mut merged = TopK::new(k);
        for n in top {
            merged.offer(lo as u32 + n.id, n.dist);
        }
        self.to_results(merged)
    }

    /// Rows whose timestamps fall in `window`, as `[lo, hi)` — the binary
    /// search step of Algorithm 1 (timestamps are sorted by construction).
    pub fn window_rows(&self, window: TimeWindow) -> (usize, usize) {
        let lo = self.times.partition_below(window.start);
        let hi = self.times.partition_below(window.end);
        (lo, hi)
    }

    /// Resolves a merged [`TopK`] into timestamped results.
    pub fn to_results(&self, merged: TopK) -> Vec<TknnResult> {
        merged
            .into_sorted_vec()
            .into_iter()
            .map(|Neighbor { id, dist }| TknnResult {
                id,
                timestamp: self.times.get(id as usize),
                dist,
            })
            .collect()
    }
}
