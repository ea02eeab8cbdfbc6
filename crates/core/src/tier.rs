//! The cold tier: an [`IndexSnapshot`] whose columns view a mapped
//! snapshot file.
//!
//! MBI never rewrites a built block (Algorithm 3 only appends leaves and
//! merges above them), so every page of a snapshot file is immutable, clean
//! and file-backed: the kernel's page cache keeps or reclaims it, and a
//! [`ColdIndex`] keeps no cache of its own. Opening one runs the one
//! decoder over the map (an eager load runs it over an owned copy of the
//! stream, then every first-use check at once). The decoder copies the
//! timestamp column out (8 bytes/row: selection and windowing read it on
//! every query), checks every leaf's row-CRC and norm columns and every
//! graph's header and chunk-CRC column against their directory CRCs, and
//! views the rows and the edges in place, unread. A flipped byte in a
//! checked column fails the open, naming its section.
//!
//! Each row is checked against its CRC the first time any query reads it,
//! and each chunk of 16 vertex lists — its CRC, then every id — the first
//! time a search expands a vertex in it. The check bits live as long as the
//! index, so each row and each chunk is checked once per open. A query that
//! read a row or expanded a chunk failing its check returns
//! [`MbiError::ChecksumMismatch`] (or [`MbiError::Corrupt`], for an id out
//! of range under a matching CRC) instead of an answer: that rule is all a
//! `ColdIndex` adds to the snapshot it holds.
//!
//! Queries run the snapshot's own query path on the calling thread, so they
//! are bit-identical to the in-RAM [`IndexSnapshot`] the file was written
//! from: the rows and the edges served from the map are the bytes it
//! serialised.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use mbi_ann::{FileMap, KnnGraph, SearchParams, Segment};

use crate::config::MbiConfig;
use crate::engine::IndexSnapshot;
use crate::error::MbiError;
use crate::index::{QueryOutput, TknnResult};
use crate::persist::decode_snapshot;
use crate::select::TimeWindow;

/// One first-use check a query's reads can fail: a leaf's rows, or a
/// block's adjacency.
#[derive(Clone, Copy)]
pub(crate) enum Check<'a> {
    Rows(&'a Segment),
    Graph(&'a KnnGraph),
}

impl Check<'_> {
    /// Checks of this kind that have failed since open.
    fn failures(self) -> u64 {
        match self {
            Check::Rows(seg) => seg.check_failures(),
            Check::Graph(graph) => graph.check_failures(),
        }
    }

    /// The error for the first check of this kind that failed.
    fn error(self) -> MbiError {
        let (section, fault) = match self {
            Check::Rows(seg) => ("leaf rows", seg.first_fault()),
            Check::Graph(graph) => ("block graph", graph.first_fault()),
        };
        MbiError::from_fault(section, fault.expect("a failed check records its fault"))
    }

    /// Runs every check of this kind now, in order; the first fault, if
    /// one failed.
    pub(crate) fn run_all(self) -> Result<(), MbiError> {
        match self {
            Check::Rows(seg) => _ = seg.as_flat(),
            Check::Graph(graph) => _ = graph.as_flat(),
        }
        if self.failures() > 0 {
            Err(self.error())
        } else {
            Ok(())
        }
    }
}

/// Runs every first-use check of a freshly decoded snapshot: every record's
/// rows, then every block's adjacency chunks, in order. The first fault
/// fails it, so an eager load rejects any bad row, chunk or id before it
/// returns.
pub(crate) fn check_in_full(snap: &IndexSnapshot) -> Result<(), MbiError> {
    let rows = snap.store.segments().iter().map(|seg| Check::Rows(seg));
    let graphs = snap.blocks.iter().map(|block| Check::Graph(&block.graph.0));
    rows.chain(graphs).try_for_each(Check::run_all)
}

/// A read-only MBI snapshot served from a snapshot file — the cold tier.
///
/// Queries return the exact same results as the in-RAM snapshot the file
/// was serialised from.
///
/// ```no_run
/// use mbi_core::{tier::ColdIndex, TimeWindow};
///
/// let cold = ColdIndex::open("snapshot.mbi").unwrap();
/// let hits = cold.query(&[0.0; 4], 10, TimeWindow::new(100, 900)).unwrap();
/// # let _ = hits;
/// ```
pub struct ColdIndex {
    /// The snapshot, its rows, norms and graphs viewed in the map.
    snap: IndexSnapshot,
    /// Bytes checksummed since open: the CRC columns at open, then rows and
    /// adjacency chunks as queries first read them.
    checked_bytes: Arc<AtomicU64>,
}

/// Counters of the cold tier, cumulative since open.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Always 0: there is no block cache. Kept only so the `e2e`
    /// benchmark's `cold_counters` still builds; ROADMAP item 1 (the next
    /// benchmark change) removes it, like the fields below marked so.
    #[deprecated(note = "always 0; removed with ROADMAP item 1")]
    pub hits: u64,
    /// Always 0: there is no block cache.
    #[deprecated(note = "always 0; removed with ROADMAP item 1")]
    pub misses: u64,
    /// Always 0: there is no block cache.
    #[deprecated(note = "always 0; removed with ROADMAP item 1")]
    pub evictions: u64,
    /// Always 0: nothing is loaded off the query thread.
    #[deprecated(note = "always 0; removed with ROADMAP item 1")]
    pub prefetches: u64,
    /// Bytes checksummed since open: each leaf's row CRC and norm columns
    /// and each graph's header and chunk-CRC column at open, then each row
    /// the first time a query reads it and each adjacency chunk the first
    /// time a search expands a vertex in it.
    pub bytes_verified: u64,
    /// Always 0: residency is the kernel's page cache's, not counted here.
    #[deprecated(note = "always 0; removed with ROADMAP item 1")]
    pub bytes_resident: u64,
    /// Always 0: an index is opened with no budget.
    #[deprecated(note = "always 0; removed with ROADMAP item 1")]
    pub budget_bytes: u64,
}

impl std::fmt::Debug for ColdIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdIndex")
            .field("num_leaves", &self.num_leaves())
            .field("seg_rows", &self.snap.config.leaf_size)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ColdIndex {
    /// Opens and maps a snapshot file. Reads the directories, the timestamp
    /// column and every piece's CRC columns; rows and edges are read by the
    /// queries that need them.
    pub fn open(path: impl AsRef<Path>) -> Result<ColdIndex, MbiError> {
        let map = FileMap::open(path.as_ref()).map_err(MbiError::Io)?;
        Self::from_map(Arc::new(map))
    }

    /// [`Self::open`]; the budget is ignored. Kept only so the `e2e`
    /// benchmark's `open_cold` still builds; ROADMAP item 1 (the next
    /// benchmark change) removes it.
    #[deprecated(note = "the budget is ignored, use `open`; removed with ROADMAP item 1")]
    pub fn open_with_budget(path: impl AsRef<Path>, _budget: u64) -> Result<ColdIndex, MbiError> {
        Self::open(path)
    }

    /// [`Self::open`] over an already-mapped (or in-memory) byte buffer.
    pub fn from_map(map: Arc<FileMap>) -> Result<ColdIndex, MbiError> {
        let checked_bytes = Arc::default();
        let snap = decode_snapshot(&map, &checked_bytes)?;
        Ok(ColdIndex { snap, checked_bytes })
    }

    /// The configuration the file was written with.
    pub fn config(&self) -> &MbiConfig {
        self.snap.config()
    }

    /// Number of sealed leaves.
    pub fn num_leaves(&self) -> usize {
        self.snap.num_leaves()
    }

    /// Number of rows served: the leaves' and the tail record's.
    pub fn len(&self) -> usize {
        self.snap.times.len()
    }

    /// Whether the file holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does nothing: there is no prefetch to switch. Kept only so the
    /// `e2e` benchmark's `cold_set_prefetch` still builds; ROADMAP item 1
    /// (the next benchmark change) removes it.
    #[deprecated(note = "a no-op; removed with ROADMAP item 1")]
    pub fn set_prefetch(&self, _enabled: bool) {}

    /// Current counters.
    pub fn stats(&self) -> TierStats {
        TierStats { bytes_verified: self.checked_bytes.load(Relaxed), ..TierStats::default() }
    }

    /// TkNN with the config's default search parameters.
    pub fn query(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
    ) -> Result<Vec<TknnResult>, MbiError> {
        let params = self.config().search;
        Ok(self.query_with_params(query, k, window, &params)?.results)
    }

    /// TkNN with explicit search parameters, plus search statistics.
    ///
    /// Fails only on corruption a query meets: a row it read or an
    /// adjacency chunk it expanded whose CRC no longer matches its stored
    /// one, or an id out of range in such a chunk. Results are
    /// bit-identical to the in-RAM snapshot path.
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
    /// checks the deadline before each block visit and returns whatever it
    /// has merged so far with [`QueryOutput::timed_out`] set instead of
    /// running past `deadline`. `None` never times out.
    pub fn query_with_deadline(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        deadline: Option<Instant>,
    ) -> Result<QueryOutput, MbiError> {
        let selection = self.snap.selection(window);
        let s_l = self.snap.config.leaf_size;
        let mut checks = Vec::new();
        for &bi in &selection.blocks {
            let block = &self.snap.blocks[bi];
            checks.extend(self.leaf_rows(block.rows.start / s_l..block.rows.end.div_ceil(s_l)));
            checks.push(Check::Graph(&block.graph.0));
        }
        if selection.tail {
            checks.extend(self.leaf_rows(self.snap.num_leaves..self.snap.store.num_segments()));
        }
        checked(&checks, || self.snap.search(query, k, window, params, &selection, deadline))
    }

    /// Exact (brute-force) TkNN over the mapped rows.
    pub fn exact_query(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
    ) -> Result<Vec<TknnResult>, MbiError> {
        let times = &self.snap.times;
        let (lo, hi) = (times.partition_below(window.start), times.partition_below(window.end));
        let s_l = self.snap.config.leaf_size;
        let leaves = if lo < hi { lo / s_l..hi.div_ceil(s_l) } else { 0..0 };
        let checks: Vec<_> = self.leaf_rows(leaves).collect();
        checked(&checks, || self.snap.exact_query(query, k, window))
    }

    /// The row checks of leaves `leaves` (the tail record is the last).
    fn leaf_rows(&self, leaves: std::ops::Range<usize>) -> impl Iterator<Item = Check<'_>> {
        self.snap.store.segments()[leaves].iter().map(|seg| Check::Rows(seg))
    }
}

/// Runs `run` and returns its answer, unless one of `checks` failed
/// meanwhile: then the first such check's error. The failure counters are
/// per leaf and per block, so a concurrent query's failed read of a shared
/// leaf or block can fail this query too, but an answer never leaves on bad
/// bytes.
fn checked<R>(checks: &[Check<'_>], run: impl FnOnce() -> R) -> Result<R, MbiError> {
    let before: Vec<u64> = checks.iter().map(|c| c.failures()).collect();
    let out = run();
    match checks.iter().zip(before).find(|&(c, before)| c.failures() > before) {
        Some((c, _)) => Err(c.error()),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::MbiIndex;
    use crate::layout;
    use crate::persist::{parse_layout, GRAPH_HEADER_LEN};
    use crate::GraphBackend;
    use mbi_ann::{NnDescentParams, SearchStats, ADJACENCY_CHUNK};
    use mbi_math::{Metric, PreparedQuery};

    fn build_snapshot(metric: Metric, n: usize) -> IndexSnapshot {
        snapshot_of(MbiConfig::new(3, metric).with_leaf_size(16), n)
    }

    fn snapshot_of(config: MbiConfig, n: usize) -> IndexSnapshot {
        let mut idx = MbiIndex::new(config);
        for i in 0..n {
            let x = i as f32;
            idx.insert(&[x.mul_add(0.05, 0.3), (x * 0.1).sin(), 1.0 - x * 0.01], i as i64).unwrap();
        }
        IndexSnapshot::from_index(&idx)
    }

    fn cold_of(snap: &IndexSnapshot) -> ColdIndex {
        cold_from(snap.to_bytes().to_vec()).unwrap()
    }

    fn cold_from(bytes: Vec<u8>) -> Result<ColdIndex, MbiError> {
        ColdIndex::from_map(Arc::new(FileMap::from_bytes(bytes)))
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
    fn cold_matches_hot_all_metrics() {
        for metric in [Metric::Euclidean, Metric::Angular, Metric::InnerProduct] {
            let snap = build_snapshot(metric, 128);
            assert_cold_matches(&snap, &cold_of(&snap));
        }
    }

    #[test]
    fn expired_deadline_times_out_without_faulting_cold_pages() {
        let snap = build_snapshot(Metric::Euclidean, 128);
        let cold = cold_of(&snap);
        let params = snap.config().search;
        let w = TimeWindow::new(0, 128);
        let query = [0.4f32, 0.1, 0.6];
        let before = cold.stats().bytes_verified;
        let expired = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let out = cold.query_with_deadline(&query, 5, w, &params, Some(expired)).unwrap();
        assert!(out.timed_out, "expired deadline must flag the partial answer");
        assert!(out.results.is_empty(), "nothing was scored");
        assert!(!out.selection.blocks.is_empty(), "selection is metadata-only and still runs");
        assert_eq!(cold.stats().bytes_verified, before, "no row or chunk may be read");

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
        let cold = cold_of(&snap);
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

    /// The check bits live as long as the open index: a second pass of one
    /// root-covering query reads the same rows and expands the same
    /// chunks, and checks none of them again.
    #[test]
    fn each_row_and_chunk_is_checked_once_per_open() {
        let snap = build_snapshot(Metric::Euclidean, 128);
        let cold = cold_of(&snap);
        let params = snap.config().search;
        let (w, query) = (TimeWindow::new(0, 128), [1.5f32, 0.1, 0.2]);
        let opened = cold.stats().bytes_verified;
        let first = cold.query_with_params(&query, 7, w, &params).unwrap();
        assert_eq!(first.selection.blocks, [snap.blocks().len() - 1], "the root covers it");
        let after_first = cold.stats().bytes_verified;
        assert!(after_first > opened, "the first pass checks what it reads");
        let second = cold.query_with_params(&query, 7, w, &params).unwrap();
        assert_eq!((&second.results, second.stats), (&first.results, first.stats));
        assert_eq!(cold.stats().bytes_verified, after_first, "the second pass checks nothing");
    }

    /// A block answered by graph search on a fresh open checks exactly what
    /// the search reads, once: each row it scores and each adjacency chunk
    /// holding a vertex it expands, and nothing it only prefetches. The
    /// same search on the hot snapshot, with a filter that records the
    /// vertices it expands, says which those are. A flipped byte in a row
    /// the search scores then fails the query.
    #[test]
    fn a_graph_search_checks_each_row_and_chunk_it_reads_once() {
        let snap = snapshot_of(MbiConfig::new(3, Metric::Euclidean).with_leaf_size(64), 512);
        let params = snap.config().search;
        let (w, query, k) = (TimeWindow::new(0, 512), [1.5f32, 0.1, 0.2], 3);
        let root = snap.blocks().last().expect("a root");
        let view = snap.store.slice(root.rows.clone());
        let (mut expanded, mut stats, mut out) = (Vec::new(), SearchStats::default(), Vec::new());
        let pq = PreparedQuery::new(Metric::Euclidean, &query);
        let mut record = |id: u32| {
            expanded.push(id);
            true
        };
        let mut scratch = mbi_ann::SearchScratch::new();
        root.graph.search_prepared(
            view,
            &pq,
            k,
            &params,
            &mut record,
            &mut stats,
            &mut scratch,
            &mut out,
        );

        let cold = cold_of(&snap);
        let opened = cold.stats().bytes_verified;
        let answer = cold.query_with_params(&query, k, w, &params).unwrap();
        assert_eq!(answer.selection.blocks, [snap.blocks().len() - 1], "the root covers it");
        assert_eq!(
            (answer.stats.dist_evals, answer.stats.blocks_bruteforced),
            (stats.dist_evals, 0)
        );
        let degree = root.graph.0.degree();
        let mut chunks: Vec<usize> =
            expanded.iter().map(|&v| v as usize / ADJACENCY_CHUNK).collect();
        chunks.sort_unstable();
        chunks.dedup();
        let chunk_bytes: usize = chunks
            .iter()
            .map(|c| (root.len() - c * ADJACENCY_CHUNK).min(ADJACENCY_CHUNK) * degree * 4)
            .sum();
        let row_bytes = stats.dist_evals as usize * 3 * 4;
        let checked = cold.stats().bytes_verified - opened;
        assert_eq!(checked as usize, row_bytes + chunk_bytes, "rows scored and chunks expanded");
        cold.query_with_params(&query, k, w, &params).unwrap();
        assert_eq!(cold.stats().bytes_verified - opened, checked, "and each only once per open");

        // Flip a byte of the best answer's row, which the search scored.
        let best = answer.results[0].id as usize;
        let mut bytes = snap.to_bytes().to_vec();
        let layout = parse_layout(&bytes).unwrap();
        bytes[layout.record(best / 64).rows + (best % 64) * 3 * 4 + 1] ^= 0x10;
        let err = cold_from(bytes).unwrap().query_with_params(&query, k, w, &params).unwrap_err();
        assert!(matches!(err, MbiError::ChecksumMismatch { section: "leaf rows", .. }), "{err}");
    }

    /// Four threads query one index at once, each starting the windows at
    /// a different one, so two threads check the same rows or adjacency
    /// chunk at once: they must still answer like the hot snapshot —
    /// results and search counters. τ = 1 selects partly covered leaves, and
    /// at k = 1 a degree-4 graph search pays on a 16-row leaf, so leaf
    /// graphs are searched too.
    #[test]
    fn concurrent_queries_on_one_index_match_hot() {
        let nd = NnDescentParams { degree: 4, max_iters: 2, ..Default::default() };
        let config = MbiConfig::new(3, Metric::Euclidean)
            .with_leaf_size(16)
            .with_tau(1.0)
            .with_backend(GraphBackend::NnDescent(nd));
        let snap = snapshot_of(config, 128);
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
        let cold = cold_of(&snap);
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
                            let at = format!("window {w:?}, k {k}");
                            assert_eq!(out.results, hot.results, "{at}");
                            assert_eq!(out.stats, hot.stats, "{at}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn mixed_window_reads_after_eviction_pressure() {
        // A pseudo-random walk over windows: every answer must match the
        // hot snapshot whichever rows and chunks earlier windows checked.
        let snap = build_snapshot(Metric::InnerProduct, 256);
        let cold = cold_of(&snap);
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
    }

    #[test]
    fn corrupt_leaf_rows_surface_checksum_error() {
        let snap = build_snapshot(Metric::Euclidean, 64);
        let mut bytes = snap.to_bytes().to_vec();
        let layout = parse_layout(&bytes).unwrap();
        // Flip one byte inside leaf 0's row section; no CRC that open checks
        // covers it, so open succeeds and the first query that reads the
        // row must catch it.
        let off = layout.record(0).rows + 5;
        bytes[off] ^= 0xff;
        let cold = cold_from(bytes).unwrap();
        let err = cold.query(&[0.0, 0.0, 0.0], 3, TimeWindow::new(0, 64)).unwrap_err();
        assert!(matches!(err, MbiError::ChecksumMismatch { section: "leaf rows", .. }), "{err}");
    }

    /// Two leaves at the benchmark's geometry (d = 128, leaf 1 024) under
    /// one root, angular so every column the open checks is written: the
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
        (IndexSnapshot::from_index(&idx).to_bytes().to_vec(), q)
    }

    /// The test above flips byte 5 of a 768-byte section. At the benchmark's
    /// geometry a row section is 512 KiB and the checksum kernel folds 64
    /// bytes at a time, so flip where a fold could lose a byte: the first
    /// one, one on a 64-byte boundary, and the last — in every section a
    /// cold index checks. The open checks the row-CRC and norm columns and
    /// each graph's chunk-CRC column, so a flip there must fail the open.
    /// A row must fail the first query that reads it, and the adjacency
    /// chunk of a search's best answer the first query that searches its
    /// graph (a search expands every vertex it answers with). Each error
    /// names the section.
    #[test]
    fn corrupt_byte_anywhere_in_a_lazily_verified_section_is_a_checksum_error() {
        let (clean, q) = two_benchmark_leaves();
        let lay = parse_layout(&clean).unwrap();
        let (s_l, row_len) = (lay.seg_rows, lay.config.dim * 4);
        let (rec, root) = (lay.record(1), lay.blocks.iter().find(|m| m.height == 1).unwrap());
        let (rows_off, crc_off, inv_off) = (rec.rows, rec.crcs, rec.inv);
        let reference = cold_from(clean.clone()).unwrap();
        // Over both leaves the root is graph-searched; over leaf 1, leaf 1.
        let both = TimeWindow::new(0, 2 * s_l as i64);
        let leaf_1 = TimeWindow::new(s_l as i64, 2 * s_l as i64);
        // The root search scored its best answer on that answer's row.
        let best = reference.query(&q, 3, both).unwrap()[0].id as usize;
        let best_off = lay.record(best / s_l).rows + (best % s_l) * row_len;
        // (bytes, the section the error names, offset, length, the window of
        // a query that reads them — `None`: five rows around the flip, a
        // scan that scores every one of them).
        let mut cases = vec![
            ("rows of a scanned window", "leaf rows", rows_off, crc_off - rows_off, None),
            ("a row the root search scores", "leaf rows", best_off, row_len, Some(both)),
        ];
        // (bytes, the section the error names, offset, length).
        let mut at_open = vec![
            ("row checksums", "leaf row checksums", crc_off, inv_off - crc_off),
            ("norms", "leaf norms", inv_off, rec.end - inv_off),
        ];
        for (m, w) in [(&lay.blocks[layout::leaf_block(1)], leaf_1), (root, both)] {
            let best = reference.query(&q, 3, w).unwrap()[0].id as usize;
            let header = &clean[m.graph_off + 4..m.graph_off + 12];
            let degree = u64::from_le_bytes(header.try_into().unwrap()) as usize;
            let chunk = ADJACENCY_CHUNK * degree * 4;
            let column = m.rows.len().div_ceil(ADJACENCY_CHUNK) * 4;
            let expanded =
                m.graph_off + GRAPH_HEADER_LEN + (best - m.rows.start) / ADJACENCY_CHUNK * chunk;
            let graph_end = m.graph_off + m.graph_len;
            at_open.push(("a graph's chunk CRCs", "block graph", graph_end - column, column));
            cases.push(("a chunk the search expands", "block graph", expanded, chunk, Some(w)));
        }
        let flips = |len: usize| [0, (len / 2).next_multiple_of(64), len - 1];
        let flipped = |at: usize| {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            bytes
        };
        let named = |err: &MbiError, section: &str| match err {
            MbiError::ChecksumMismatch { section: s, .. } => *s == section,
            _ => false,
        };
        for (what, section, off, len, window) in cases {
            assert!(len > 128, "{what}: {len} bytes never reach a fold boundary");
            for at in flips(len) {
                let window = window.unwrap_or_else(|| {
                    let t = (s_l + at / row_len) as i64;
                    TimeWindow::new(t - 2, t + 3)
                });
                let err = cold_from(flipped(off + at)).unwrap().query(&q, 3, window).unwrap_err();
                assert!(
                    named(&err, section),
                    "{what}, byte {at} of {len}, window {window:?}: {err}"
                );
            }
        }
        for (what, section, off, len) in at_open {
            assert!(len > 128, "{what}: {len} bytes never reach a fold boundary");
            for at in flips(len) {
                let err = cold_from(flipped(off + at)).unwrap_err();
                assert!(named(&err, section), "{what}, byte {at} of {len}: {err}");
            }
        }
    }

    /// A row is checked when a query reads it, not when the index opens: a
    /// corrupt row no query reads changes no answer, and the first query
    /// that reads it fails — without poisoning later queries that do not.
    #[test]
    fn a_corrupt_row_fails_only_the_queries_that_read_it() {
        let (clean, q) = two_benchmark_leaves();
        let lay = parse_layout(&clean).unwrap();
        let s_l = lay.seg_rows;
        let bad = s_l + 700;
        let mut bytes = clean.clone();
        bytes[lay.record(1).rows + (bad % s_l) * lay.config.dim * 4 + 9] ^= 1;
        // Leaf 0 graph-searched, then scans of leaf 1 around the bad row.
        let clear = [(0, s_l), (s_l, bad), (bad + 1, 2 * s_l)].map(|(a, b)| (a as i64, b as i64));
        let cold = cold_from(bytes).unwrap();
        let reference = cold_from(clean).unwrap();
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
        for err in [cold.query(&q, 10, w).unwrap_err(), cold.exact_query(&q, 10, w).unwrap_err()] {
            let leaf_rows = matches!(err, MbiError::ChecksumMismatch { section: "leaf rows", .. });
            assert!(leaf_rows, "{err}");
        }
        same();
    }

    /// A query decodes nothing. On a fresh index, a query that
    /// graph-searches the root of four leaves checks, exactly: one row per
    /// distance evaluation (the exact scorer reads each scored row once),
    /// and one adjacency chunk for some of the vertices it expands — under
    /// a quarter of the root graph's bytes in all. Its answer and counters
    /// are the in-RAM snapshot's.
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
        let snap = IndexSnapshot::from_index(&idx);
        let bytes = snap.to_bytes().to_vec();
        let lay = parse_layout(&bytes).unwrap();
        let cold = cold_from(bytes).unwrap();
        let opened = cold.stats().bytes_verified as usize;
        let (w, params) = (TimeWindow::all(), lay.config.search);
        let out = cold.query_with_params(&q, 10, w, &params).unwrap();
        let hot = snap.query_with_params(&q, 10, w, &params);
        assert_eq!((&out.results, out.stats), (&hot.results, hot.stats));
        let root = lay.blocks.len() - 1;
        assert_eq!(out.selection.blocks, [root]);
        assert_eq!(out.stats.blocks_bruteforced, 0, "the root is graph-searched");

        let verified = cold.stats().bytes_verified as usize - opened;
        let graph_len = lay.blocks[root].graph_len;
        assert!(verified < graph_len / 4, "{verified} of a {graph_len}-byte graph");
        let rows = out.stats.dist_evals as usize * dim * 4;
        let chunk = ADJACENCY_CHUNK * idx.blocks()[root].graph.0.degree() * 4;
        let expanded = verified - rows;
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
        let err = cold_from(bytes).unwrap_err();
        assert!(
            matches!(err, MbiError::ChecksumMismatch { section: "leaf timestamps", .. }),
            "{err}"
        );
    }

    #[test]
    fn empty_snapshot_opens_and_answers() {
        let config = MbiConfig::new(4, Metric::Euclidean).with_leaf_size(8);
        let snap = IndexSnapshot::from_index(&MbiIndex::new(config));
        let cold = cold_of(&snap);
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
        assert_cold_matches(&snap, &ColdIndex::open(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }
}
