//! Per-window-length `τ` calibration.
//!
//! §5.4.2 closes with: *"If possible, one can compute the optimal τ for each
//! query interval experimentally beforehand, and use the pre-computed τ at
//! run-time."* [`TauTuner`] implements exactly that: it buckets query windows
//! by their fraction of the database timespan, measures query latency at a
//! grid of `τ` values subject to a recall floor (ground truth comes from the
//! index's own exact BSBF query), and remembers the fastest adequate `τ` per
//! bucket.

use crate::index::MbiIndex;
use crate::select::TimeWindow;
use mbi_ann::SearchParams;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration of the calibration run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TunerConfig {
    /// `τ` grid to evaluate (the paper sweeps 0.1–0.9).
    pub taus: Vec<f64>,
    /// Window-fraction bucket edges, ascending in `(0, 1]`; a window covering
    /// fraction `f` of the data timespan lands in the first bucket whose edge
    /// is `≥ f`.
    pub bucket_edges: Vec<f64>,
    /// Minimum acceptable recall@k (the paper's operating point is 0.995).
    pub min_recall: f64,
    /// `k` used for calibration queries.
    pub k: usize,
    /// Search parameters used during calibration.
    pub search: SearchParams,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            taus: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            bucket_edges: vec![0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
            min_recall: 0.95,
            k: 10,
            search: SearchParams::default(),
        }
    }
}

/// The calibrated policy: best `τ` per window-fraction bucket.
///
/// ```
/// use mbi_core::tuner::{TauTuner, TunerConfig};
/// use mbi_core::{MbiConfig, MbiIndex};
/// use mbi_math::Metric;
///
/// let mut index = MbiIndex::new(MbiConfig::new(2, Metric::Euclidean).with_leaf_size(32));
/// for i in 0..256i64 {
///     index.insert(&[(i as f32 * 0.3).sin() * 9.0, (i as f32 * 0.7).cos() * 9.0], i).unwrap();
/// }
/// let config = TunerConfig {
///     taus: vec![0.3, 0.5],
///     bucket_edges: vec![0.2, 1.0],
///     min_recall: 0.5,
///     k: 5,
///     ..TunerConfig::default()
/// };
/// let queries = vec![vec![1.0, -1.0], vec![-3.0, 4.0]];
/// let tuner = TauTuner::calibrate(&index, &queries, &config);
/// let tau = tuner.suggest(0.1).expect("a τ met the recall floor");
/// assert!(tau == 0.3 || tau == 0.5);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TauTuner {
    bucket_edges: Vec<f64>,
    /// `best[i]` is the chosen τ for bucket `i`; `None` if no τ met the
    /// recall floor (callers fall back to the configured default).
    best: Vec<Option<f64>>,
    /// Measured mean latency (seconds) for the chosen τ, for reporting.
    latency: Vec<Option<f64>>,
}

impl TauTuner {
    /// Calibrates against `index` using `queries` (held-out vectors) and a
    /// set of window fractions; each query is paired with each fraction at a
    /// deterministic offset.
    ///
    /// # Panics
    ///
    /// Panics if the index or the query set is empty, or the config grids
    /// are empty.
    pub fn calibrate(index: &MbiIndex, queries: &[Vec<f32>], config: &TunerConfig) -> TauTuner {
        assert!(!index.is_empty(), "cannot calibrate an empty index");
        assert!(!queries.is_empty(), "need at least one calibration query");
        assert!(!config.taus.is_empty() && !config.bucket_edges.is_empty());

        let ts = index.timestamps();
        let (t0, t1) = (ts[0], ts[ts.len() - 1] + 1);
        let span = (t1 - t0) as f64;

        let mut best = Vec::with_capacity(config.bucket_edges.len());
        let mut latency = Vec::with_capacity(config.bucket_edges.len());

        for (bi, &edge) in config.bucket_edges.iter().enumerate() {
            // Representative fraction: midpoint between this edge and the
            // previous one.
            let lo = if bi == 0 { 0.0 } else { config.bucket_edges[bi - 1] };
            let frac = (lo + edge) / 2.0;
            let wlen = ((span * frac) as i64).max(1);

            // Windows at deterministic offsets spread over the timespan.
            let windows: Vec<TimeWindow> = (0..queries.len())
                .map(|i| {
                    let max_start = (t1 - t0 - wlen).max(0);
                    let start = t0 + (max_start * i as i64) / queries.len().max(1) as i64;
                    TimeWindow::new(start, start + wlen)
                })
                .collect();

            // Ground truth per (query, window).
            let truth: Vec<Vec<u32>> = queries
                .iter()
                .zip(&windows)
                .map(|(q, &w)| {
                    index.exact_query(q, config.k, w).into_iter().map(|r| r.id).collect()
                })
                .collect();

            let mut bucket_best: Option<(f64, f64)> = None; // (latency, tau)
            for &tau in &config.taus {
                let mut hits = 0usize;
                let mut total = 0usize;
                let start = Instant::now();
                for ((q, &w), exact) in queries.iter().zip(&windows).zip(&truth) {
                    let got = query_with_tau(index, q, config.k, w, tau, &config.search);
                    total += exact.len();
                    hits += got.iter().filter(|id| exact.contains(id)).count();
                }
                let elapsed = start.elapsed().as_secs_f64() / queries.len() as f64;
                let recall = if total == 0 { 1.0 } else { hits as f64 / total as f64 };
                if recall >= config.min_recall
                    && bucket_best.is_none_or(|(best_lat, _)| elapsed < best_lat)
                {
                    bucket_best = Some((elapsed, tau));
                }
            }
            best.push(bucket_best.map(|(_, tau)| tau));
            latency.push(bucket_best.map(|(lat, _)| lat));
        }

        TauTuner { bucket_edges: config.bucket_edges.clone(), best, latency }
    }

    /// The calibrated `τ` for a window covering `fraction ∈ [0, 1]` of the
    /// data timespan, or `None` if calibration found no adequate τ for that
    /// bucket.
    pub fn suggest(&self, fraction: f64) -> Option<f64> {
        let bucket = self
            .bucket_edges
            .iter()
            .position(|&e| fraction <= e)
            .unwrap_or(self.bucket_edges.len() - 1);
        self.best[bucket]
    }

    /// Reporting access: `(bucket_edge, chosen_tau, mean_latency_s)` rows.
    pub fn report(&self) -> Vec<(f64, Option<f64>, Option<f64>)> {
        self.bucket_edges
            .iter()
            .zip(&self.best)
            .zip(&self.latency)
            .map(|((&e, &t), &l)| (e, t, l))
            .collect()
    }
}

/// Runs one query with an explicit `τ` override (leaving the index's
/// configured `τ` untouched) and returns the result ids.
pub fn query_with_tau(
    index: &MbiIndex,
    query: &[f32],
    k: usize,
    window: TimeWindow,
    tau: f64,
    search: &SearchParams,
) -> Vec<u32> {
    // Selection is the only place τ matters: select at the override, then
    // run the index's own per-block search over that selection.
    let meta = |i: usize| index.blocks()[i].select_meta();
    let selection = index.target().block_selection(window, tau, meta);
    index
        .query_on_selection(query, k, window, search, &selection)
        .results
        .into_iter()
        .map(|r| r.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MbiConfig;
    use mbi_math::Metric;

    fn build(n: usize) -> MbiIndex {
        let mut idx = MbiIndex::new(
            MbiConfig::new(2, Metric::Euclidean)
                .with_leaf_size(32)
                .with_search(SearchParams::new(64, 1.2)),
        );
        for i in 0..n {
            idx.insert(&[(i as f32 * 0.37).sin() * 50.0, (i as f32 * 0.71).cos() * 50.0], i as i64)
                .unwrap();
        }
        idx
    }

    #[test]
    fn calibrate_and_suggest() {
        let idx = build(512);
        let queries: Vec<Vec<f32>> = (0..6)
            .map(|i| vec![(i as f32 * 1.3).sin() * 50.0, (i as f32 * 0.9).cos() * 50.0])
            .collect();
        let config = TunerConfig {
            taus: vec![0.3, 0.5, 0.9],
            bucket_edges: vec![0.1, 0.5, 1.0],
            min_recall: 0.5,
            k: 5,
            search: SearchParams::new(64, 1.3),
        };
        let tuner = TauTuner::calibrate(&idx, &queries, &config);
        // Every bucket should find some adequate τ with such a low floor.
        for frac in [0.05, 0.3, 0.9, 1.5] {
            let tau = tuner.suggest(frac);
            assert!(tau.is_some(), "no τ for fraction {frac}");
            assert!(config.taus.contains(&tau.unwrap()));
        }
        assert_eq!(tuner.report().len(), 3);
    }

    #[test]
    fn query_with_tau_matches_configured_query() {
        let idx = build(256);
        let q = [10.0f32, -5.0];
        let w = TimeWindow::new(20, 200);
        let via_override = query_with_tau(&idx, &q, 5, w, idx.config().tau, &idx.config().search);
        let via_config: Vec<u32> = idx.query(&q, 5, w).into_iter().map(|r| r.id).collect();
        assert_eq!(via_override, via_config);
    }

    #[test]
    #[should_panic(expected = "empty index")]
    fn empty_index_rejected() {
        let idx = MbiIndex::new(MbiConfig::new(2, Metric::Euclidean));
        TauTuner::calibrate(&idx, &[vec![0.0, 0.0]], &TunerConfig::default());
    }
}
