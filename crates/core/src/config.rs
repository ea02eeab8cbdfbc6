//! Index configuration — the knobs of Table 3.

use mbi_ann::{NnDescentParams, SearchParams};
use mbi_math::Metric;
use serde::{Deserialize, Serialize};

/// How each block's graph index is built. The paper builds NNDescent kNN
/// graphs (§5.1.3); §4.1 allows any index with efficient kNN search, but
/// NNDescent is the only one here.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum GraphBackend {
    /// NNDescent-constructed kNN graph.
    NnDescent(NnDescentParams),
}

impl GraphBackend {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        "nndescent"
    }
}

impl Default for GraphBackend {
    fn default() -> Self {
        GraphBackend::NnDescent(NnDescentParams::default())
    }
}

/// Configuration of an [`crate::MbiIndex`].
///
/// The two MBI-specific parameters studied in §5.4 are the leaf block size
/// `S_L` (indexing-time knob, Figure 8) and the block-selection threshold `τ`
/// (query-time knob, Figure 9; Lemma 4.1 guarantees ≤ 2 searched blocks when
/// `τ ≤ 0.5`, and the paper recommends `τ ≈ 0.5` absent prior information).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MbiConfig {
    /// Vector dimensionality `d`.
    pub dim: usize,
    /// Distance function `σ`.
    pub metric: Metric,
    /// Leaf block size `S_L`.
    pub leaf_size: usize,
    /// Block-selection threshold `τ ∈ (0, 1]`.
    pub tau: f64,
    /// Per-block graph backend.
    pub backend: GraphBackend,
    /// Default search parameters (`M_C`, `ε`) used when the caller does not
    /// override them per query.
    pub search: SearchParams,
    /// Build the graphs of a bottom-up merge chain in parallel (§4.2
    /// "Parallelization of MBI").
    pub parallel_build: bool,
    /// Quantize every sealed segment into an SQ8 (`u8` scalar-quantized)
    /// code column and run candidate scans over it: the first pass reads
    /// ~4× less memory per row than the f32 scan, and the best
    /// `k × sq8_overfetch` candidates are reranked against the exact rows,
    /// so returned distances are always exact. Off by default — exact scans
    /// remain the baseline behaviour.
    pub sq8_scan: bool,
    /// Over-fetch factor of the SQ8 rerank: the first pass keeps
    /// `k × sq8_overfetch` candidates for exact reranking. Larger values
    /// trade first-pass win for recall; `≥ 1`.
    pub sq8_overfetch: f32,
    /// RAM budget of the cold-tier block cache, in bytes. Only consulted by
    /// [`crate::tier::ColdIndex`]: leaf records and internal-block graphs
    /// loaded from a v8 file count against this budget and the
    /// least-recently-used ones are evicted once it is exceeded. `u64::MAX`
    /// (the default) keeps everything resident; `0` forces every load to be
    /// evicted as soon as it is unpinned — the all-cold stress configuration.
    /// In-RAM indexes ignore the budget.
    pub ram_budget_bytes: u64,
    /// Shard count of the cold-tier block cache's LRU map; `≥ 1`. More
    /// shards reduce lock contention under concurrent queries at the price
    /// of a slightly less accurate global LRU order.
    pub cache_shards: usize,
}

/// Default SQ8 over-fetch: 3× keeps recall ≥ 0.95 across the paper's
/// datasets while the rerank stays ≪ the first-pass cost.
pub(crate) fn default_sq8_overfetch() -> f32 {
    3.0
}

/// Default cold-cache shard count: enough to keep eight querying threads
/// from serialising on one mutex while the LRU order stays close to global.
pub(crate) fn default_cache_shards() -> usize {
    8
}

impl MbiConfig {
    /// A configuration with the paper's recommended defaults
    /// (`τ = 0.5`, `S_L = 1024`, NNDescent blocks, serial build).
    pub fn new(dim: usize, metric: Metric) -> Self {
        MbiConfig {
            dim,
            metric,
            leaf_size: 1024,
            tau: 0.5,
            backend: GraphBackend::default(),
            search: SearchParams::default(),
            parallel_build: false,
            sq8_scan: false,
            sq8_overfetch: default_sq8_overfetch(),
            ram_budget_bytes: u64::MAX,
            cache_shards: default_cache_shards(),
        }
    }

    /// Sets `S_L`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_size == 0`.
    pub fn with_leaf_size(mut self, leaf_size: usize) -> Self {
        assert!(leaf_size > 0, "leaf size must be positive");
        self.leaf_size = leaf_size;
        self
    }

    /// Sets `τ`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tau <= 1`.
    pub fn with_tau(mut self, tau: f64) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0, 1], got {tau}");
        self.tau = tau;
        self
    }

    /// Sets the per-block graph backend.
    pub fn with_backend(mut self, backend: GraphBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the default search parameters.
    pub fn with_search(mut self, search: SearchParams) -> Self {
        self.search = search;
        self
    }

    /// Enables or disables parallel bottom-up merging.
    pub fn with_parallel_build(mut self, parallel: bool) -> Self {
        self.parallel_build = parallel;
        self
    }

    /// Returns `self` unchanged: a query runs on its caller's thread, so
    /// there is no fan-out width to set. Kept only so the `e2e` benchmark's
    /// `index_config` still builds; ROADMAP item 1 (the next benchmark
    /// change) removes it.
    #[deprecated(note = "a no-op; removed with ROADMAP item 1")]
    pub fn with_query_threads(self, _threads: usize) -> Self {
        self
    }

    /// Enables or disables the SQ8 quantized first pass (see
    /// [`MbiConfig::sq8_scan`]).
    pub fn with_sq8_scan(mut self, enabled: bool) -> Self {
        self.sq8_scan = enabled;
        self
    }

    /// Sets the SQ8 rerank over-fetch factor.
    ///
    /// # Panics
    ///
    /// Panics unless `overfetch` is finite and `≥ 1`.
    pub fn with_sq8_overfetch(mut self, overfetch: f32) -> Self {
        assert!(
            overfetch.is_finite() && overfetch >= 1.0,
            "sq8 overfetch must be finite and >= 1, got {overfetch}"
        );
        self.sq8_overfetch = overfetch;
        self
    }

    /// Sets the cold-tier cache budget (see [`MbiConfig::ram_budget_bytes`]).
    pub fn with_ram_budget_bytes(mut self, bytes: u64) -> Self {
        self.ram_budget_bytes = bytes;
        self
    }

    /// Sets the cold-tier cache shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "cache shards must be positive");
        self.cache_shards = shards;
        self
    }

    /// Expected out-degree of a block graph — the per-visit cost factor in
    /// the query planner's scan-vs-graph dispatch (each visited vertex
    /// evaluates ≈ degree neighbour distances).
    pub fn search_degree_estimate(&self) -> usize {
        let GraphBackend::NnDescent(p) = &self.backend;
        p.degree + 1 // + connectivity ring edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = MbiConfig::new(8, Metric::Angular)
            .with_leaf_size(256)
            .with_tau(0.3)
            .with_parallel_build(true)
            .with_search(SearchParams::new(64, 1.2));
        assert_eq!(c.dim, 8);
        assert_eq!(c.leaf_size, 256);
        assert_eq!(c.tau, 0.3);
        assert!(c.parallel_build);
        assert_eq!(c.search.max_candidates, 64);
        assert_eq!(c.backend.name(), "nndescent");
    }

    #[test]
    fn defaults_match_paper_recommendation() {
        let c = MbiConfig::new(4, Metric::Euclidean);
        assert_eq!(c.tau, 0.5, "§5.4.2 recommends τ = 0.5 by default");
        assert!(!c.parallel_build);
        assert_eq!(c.ram_budget_bytes, u64::MAX, "everything resident");
        assert_eq!(c.cache_shards, 8);
    }

    #[test]
    fn tier_builders() {
        let c = MbiConfig::new(4, Metric::Euclidean)
            .with_ram_budget_bytes(1 << 20)
            .with_cache_shards(2);
        assert_eq!(c.ram_budget_bytes, 1 << 20);
        assert_eq!(c.cache_shards, 2);
    }

    #[test]
    #[should_panic(expected = "cache shards must be positive")]
    fn zero_cache_shards_rejected() {
        MbiConfig::new(4, Metric::Euclidean).with_cache_shards(0);
    }

    #[test]
    #[should_panic(expected = "tau must be in (0, 1]")]
    fn tau_zero_rejected() {
        MbiConfig::new(4, Metric::Euclidean).with_tau(0.0);
    }

    #[test]
    #[should_panic(expected = "tau must be in (0, 1]")]
    fn tau_above_one_rejected() {
        MbiConfig::new(4, Metric::Euclidean).with_tau(1.5);
    }

    #[test]
    #[should_panic(expected = "leaf size must be positive")]
    fn zero_leaf_rejected() {
        MbiConfig::new(4, Metric::Euclidean).with_leaf_size(0);
    }
}
