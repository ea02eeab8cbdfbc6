//! Search and Filtering (§3.2.2, Algorithm 2).

use mbi_ann::{greedy_search, KnnGraph, NnDescentParams, SearchParams, SearchStats, VectorStore};
use mbi_core::{MbiError, TimeWindow, Timestamp, TknnResult};
use mbi_math::Metric;
use serde::{Deserialize, Serialize};

/// Configuration of the SF baseline.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SfConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Distance function.
    pub metric: Metric,
    /// NNDescent parameters for the whole-database graph.
    pub graph: NnDescentParams,
    /// Default search parameters.
    pub search: SearchParams,
}

impl SfConfig {
    /// A configuration with default graph/search parameters.
    pub fn new(dim: usize, metric: Metric) -> Self {
        SfConfig { dim, metric, graph: NnDescentParams::default(), search: SearchParams::default() }
    }
}

/// The SF baseline: one proximity graph over the whole database, built
/// without regard to timestamps; queries filter during traversal.
///
/// SF has no incremental story — the paper builds its graph over the full
/// dataset (Figure 7 measures exactly that rebuild cost against MBI's
/// incremental merging). Accordingly, inserts here buffer rows and mark the
/// graph stale; [`SfIndex::rebuild`] reconstructs it from scratch.
///
/// ```
/// use mbi_baselines::{SfConfig, SfIndex};
/// use mbi_core::TimeWindow;
/// use mbi_math::Metric;
///
/// let mut index = SfIndex::new(SfConfig::new(2, Metric::Euclidean));
/// for i in 0..100i64 {
///     index.insert(&[i as f32, 0.0], i).unwrap();
/// }
/// index.rebuild(); // one NNDescent pass over everything
/// let hits = index.query(&[40.2, 0.0], 3, TimeWindow::new(20, 80));
/// assert_eq!(hits[0].id, 40);
/// ```
#[derive(Clone, Debug)]
pub struct SfIndex {
    config: SfConfig,
    store: VectorStore,
    timestamps: Vec<Timestamp>,
    graph: KnnGraph,
    /// Rows included in the current graph; rows past this are unsearchable
    /// until [`SfIndex::rebuild`].
    indexed: usize,
}

impl SfIndex {
    /// Creates an empty index. Under the angular metric the store caches
    /// per-row inverse norms at insert time, shared by graph builds and
    /// searches.
    pub fn new(config: SfConfig) -> Self {
        let mut store = VectorStore::new(config.dim);
        if config.metric == Metric::Angular {
            store.enable_norm_cache();
        }
        SfIndex {
            store,
            timestamps: Vec::new(),
            graph: KnnGraph::from_lists(config.graph.degree.max(1), &[]),
            indexed: 0,
            config,
        }
    }

    /// Builds an index over a full dataset in one shot.
    pub fn build<'a>(
        config: SfConfig,
        items: impl IntoIterator<Item = (&'a [f32], Timestamp)>,
    ) -> Result<Self, MbiError> {
        let mut idx = SfIndex::new(config);
        for (v, t) in items {
            idx.insert(v, t)?;
        }
        idx.rebuild();
        Ok(idx)
    }

    /// The configuration.
    pub fn config(&self) -> &SfConfig {
        &self.config
    }

    /// Number of stored vectors (including unindexed buffered rows).
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the index stores no vectors.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Number of rows covered by the current graph.
    pub fn indexed_len(&self) -> usize {
        self.indexed
    }

    /// Whether rows have been inserted since the last [`Self::rebuild`].
    pub fn is_stale(&self) -> bool {
        self.indexed < self.len()
    }

    /// Buffers a timestamped vector; the graph becomes stale.
    pub fn insert(&mut self, vector: &[f32], t: Timestamp) -> Result<u32, MbiError> {
        if vector.len() != self.config.dim {
            return Err(MbiError::DimensionMismatch {
                expected: self.config.dim,
                got: vector.len(),
            });
        }
        if let Some(&newest) = self.timestamps.last() {
            if t < newest {
                return Err(MbiError::NonMonotonicTimestamp { newest, got: t });
            }
        }
        let id = self.store.push(vector);
        self.timestamps.push(t);
        Ok(id)
    }

    /// Rebuilds the whole-database graph with NNDescent — the full
    /// `O(n^1.14)` cost the paper charges SF per dataset size in Figure 7a.
    pub fn rebuild(&mut self) {
        self.graph = self.config.graph.build(self.store.view(), self.config.metric);
        self.indexed = self.len();
    }

    /// Approximate TkNN with the configured default search parameters.
    pub fn query(&self, query: &[f32], k: usize, window: TimeWindow) -> Vec<TknnResult> {
        self.query_with_params(query, k, window, &self.config.search).0
    }

    /// Approximate TkNN (Algorithm 2) with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the graph is stale (call [`Self::rebuild`] first) or the
    /// query has the wrong dimension.
    pub fn query_with_params(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
    ) -> (Vec<TknnResult>, SearchStats) {
        assert_eq!(query.len(), self.config.dim, "query has wrong dimension");
        assert!(
            !self.is_stale(),
            "SF graph is stale: {} of {} rows indexed; call rebuild()",
            self.indexed,
            self.len()
        );
        let mut stats = SearchStats::default();
        let ts = &self.timestamps;
        let mut filter = |id: u32| window.contains(ts[id as usize]);
        let results = greedy_search(
            &self.graph,
            self.store.view(),
            self.config.metric,
            query,
            k,
            params,
            &mut filter,
            &mut stats,
        )
        .into_iter()
        .map(|n| TknnResult { id: n.id, timestamp: self.timestamps[n.id as usize], dist: n.dist })
        .collect();
        stats.blocks_searched = 1;
        (results, stats)
    }

    /// Bytes of the graph structure (the SF column of Table 4).
    pub fn index_memory_bytes(&self) -> usize {
        self.graph.memory_bytes() + self.timestamps.len() * std::mem::size_of::<Timestamp>()
    }

    /// Bytes of raw input data (vectors + timestamps).
    pub fn data_bytes(&self) -> usize {
        self.store.data_bytes() + self.timestamps.len() * std::mem::size_of::<Timestamp>()
    }

    /// The underlying store (for ground-truth computation in experiments).
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// The timestamp column.
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.timestamps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_line(n: usize) -> SfIndex {
        let mut config = SfConfig::new(2, Metric::Euclidean);
        config.graph = NnDescentParams { degree: 8, seed: 42, ..Default::default() };
        config.search = SearchParams::new(64, 1.2);
        SfIndex::build(
            config,
            (0..n).map(|i| {
                let v: &'static [f32] = Box::leak(vec![i as f32, 0.0].into_boxed_slice());
                (v, i as i64)
            }),
        )
        .unwrap()
    }

    #[test]
    fn full_window_behaves_like_knn() {
        let idx = build_line(300);
        let res = idx.query(&[150.2, 0.0], 5, TimeWindow::all());
        assert_eq!(res.len(), 5);
        assert_eq!(res[0].id, 150);
    }

    #[test]
    fn short_window_filters_and_expands() {
        let idx = build_line(300);
        // Query near 10, window only covers [280, 290).
        let (res, stats) = idx.query_with_params(
            &[10.0, 0.0],
            4,
            TimeWindow::new(280, 290),
            &SearchParams::new(64, 1.2),
        );
        assert_eq!(res.len(), 4);
        for r in &res {
            assert!((280..290).contains(&r.timestamp));
        }
        assert_eq!(res[0].id, 280);
        // The short window forces a long traversal: far more vertices are
        // visited than the 10 in-window rows.
        assert!(stats.visited > 10, "visited {}", stats.visited);
    }

    #[test]
    fn short_window_visits_more_than_long_window() {
        let idx = build_line(300);
        let q = [150.0f32, 0.0];
        let (_, short) =
            idx.query_with_params(&q, 5, TimeWindow::new(0, 15), &SearchParams::new(64, 1.1));
        let (_, long) =
            idx.query_with_params(&q, 5, TimeWindow::new(0, 300), &SearchParams::new(64, 1.1));
        assert!(
            short.visited > long.visited,
            "SF should struggle on short windows: {} <= {}",
            short.visited,
            long.visited
        );
    }

    #[test]
    fn stale_graph_is_rejected() {
        let mut idx = build_line(50);
        idx.insert(&[50.0, 0.0], 50).unwrap();
        assert!(idx.is_stale());
        let caught = std::panic::catch_unwind(|| {
            idx.query(&[0.0, 0.0], 1, TimeWindow::all());
        });
        assert!(caught.is_err());
        idx.rebuild();
        assert!(!idx.is_stale());
        assert_eq!(idx.indexed_len(), 51);
        let res = idx.query(&[50.0, 0.0], 1, TimeWindow::all());
        assert_eq!(res[0].id, 50);
    }

    #[test]
    fn empty_index() {
        let idx = SfIndex::new(SfConfig::new(3, Metric::Angular));
        assert!(idx.is_empty());
        assert!(idx.query(&[1.0, 0.0, 0.0], 5, TimeWindow::all()).is_empty());
    }

    #[test]
    fn insert_validation() {
        let mut idx = SfIndex::new(SfConfig::new(2, Metric::Euclidean));
        assert!(idx.insert(&[1.0], 0).is_err());
        idx.insert(&[1.0, 0.0], 5).unwrap();
        assert!(idx.insert(&[1.0, 0.0], 4).is_err());
    }

    #[test]
    fn index_size_scales_with_degree() {
        let idx = build_line(200);
        // degree 8 × 200 nodes × 4 bytes plus timestamps.
        assert!(idx.index_memory_bytes() >= 8 * 200 * 4);
        assert_eq!(idx.data_bytes(), 200 * 2 * 4 + 200 * 8);
        assert_eq!(idx.store().len(), 200);
        assert_eq!(idx.timestamps().len(), 200);
    }
}
