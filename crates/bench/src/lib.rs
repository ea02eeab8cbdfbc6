//! Shared harness for the per-table/per-figure experiment binaries.
//!
//! Every binary follows the same recipe: parse flags, generate the synthetic
//! stand-in datasets (see `mbi-data`), build the three indexes with the
//! scaled Table 3 parameters, run the workload, print a paper-shaped table
//! and write `results/<name>.json`. The binaries are:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table2` | Table 2 (dataset summary) |
//! | `table3` | Table 3 (default parameters) |
//! | `table4` | Table 4 (index sizes of MBI and SF) |
//! | `fig5` | Figure 5 (window fraction vs QPS at recall 0.995, k ∈ {10,50,100}) |
//! | `fig6` | Figure 6 (recall vs QPS Pareto curves, COMS) |
//! | `fig7` | Figure 7 (indexing time / index size scalability, SIFT) |
//! | `fig8` | Figure 8 (leaf size `S_L` effects, MovieLens) |
//! | `fig9` | Figure 9 (τ sweep, window fraction vs QPS) |
//!
//! Common flags: `--scale <f>` (dataset size multiplier ×  the per-dataset
//! default), `--queries <n>`, `--seed <n>`, `--datasets a,b,c`, `--out <dir>`
//! (default `results/`), `--full` (full ε grid instead of the coarse one).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mbi_baselines::{BsbfIndex, SfConfig, SfIndex};
use mbi_core::{GraphBackend, MbiConfig, MbiIndex, TimeWindow};
use mbi_data::presets::DatasetPreset;
use mbi_data::{windows_for_fraction, Dataset};
use mbi_eval::ExperimentParams;
use std::collections::HashMap;

/// Tiny `--key value` / `--flag` parser (no external dependency).
#[derive(Debug, Default)]
pub struct Args {
    map: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn parse() -> Self {
        let mut map = HashMap::new();
        let mut flags = Vec::new();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    map.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { map, flags }
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.map.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// String lookup with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Whether `--key` was passed without a value.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// The per-dataset default *absolute* train size used by the experiment
/// binaries (multiplied by `--scale`). Chosen so the full suite runs in
/// minutes; the shapes of the paper's curves are already visible at these
/// sizes. GIST is smaller because 960-d distance evaluations dominate.
pub fn default_train_size(preset: &DatasetPreset) -> usize {
    match preset.name {
        "gist1m" => 6_000,
        "movielens" => 20_000,
        _ => 24_000,
    }
}

/// Generates a preset dataset at `scale ×` its default experiment size.
pub fn generate(preset: &DatasetPreset, scale: f64, seed: u64) -> Dataset {
    let target = (default_train_size(preset) as f64 * scale) as usize;
    let fraction_of_paper = target as f64 / preset.paper_train as f64;
    preset.generate(fraction_of_paper, seed)
}

/// Scaled Table 3 parameters for a generated dataset.
pub fn params_for(preset: &DatasetPreset, dataset: &Dataset) -> ExperimentParams {
    ExperimentParams::for_dataset(preset.name, dataset.len(), preset.paper_train)
        .expect("preset datasets always have a Table 3 row")
}

/// Builds an MBI index over the dataset.
pub fn build_mbi(
    dataset: &Dataset,
    params: &ExperimentParams,
    tau: f64,
    parallel: bool,
) -> MbiIndex {
    let config = MbiConfig::new(dataset.dim(), dataset.metric)
        .with_leaf_size(params.leaf_size)
        .with_tau(tau)
        .with_backend(GraphBackend::NnDescent(params.nndescent(0x5EED)))
        .with_parallel_build(parallel);
    let mut idx = MbiIndex::new(config);
    for (v, t) in dataset.iter() {
        idx.insert(v, t).expect("dataset is timestamp-ordered");
    }
    idx
}

/// Builds a BSBF index over the dataset.
pub fn build_bsbf(dataset: &Dataset) -> BsbfIndex {
    let mut idx = BsbfIndex::new(dataset.dim(), dataset.metric);
    for (v, t) in dataset.iter() {
        idx.insert(v, t).expect("dataset is timestamp-ordered");
    }
    idx
}

/// Builds an SF index (whole-database NNDescent graph) over the dataset.
pub fn build_sf(dataset: &Dataset, params: &ExperimentParams) -> SfIndex {
    let mut config = SfConfig::new(dataset.dim(), dataset.metric);
    config.graph = params.nndescent(0x000F_5EED);
    SfIndex::build(config, dataset.iter()).expect("dataset is timestamp-ordered")
}

/// A workload: one `(query vector, window)` pair per held-out test vector
/// (cycled if more are requested), windows covering `fraction` of the rows.
pub fn make_workload(
    dataset: &Dataset,
    fraction: f64,
    count: usize,
    seed: u64,
) -> Vec<(Vec<f32>, TimeWindow)> {
    let windows = windows_for_fraction(&dataset.timestamps, fraction, count, seed);
    windows
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let q = dataset.test.get(i % dataset.test.len()).to_vec();
            (q, w)
        })
        .collect()
}

/// The window-fraction grid of Figures 5 and 9 (1%–95%).
pub fn fraction_grid() -> Vec<f64> {
    vec![0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95]
}

/// Coarse ε grid (step 0.05) used by default; `--full` switches the binaries
/// to the paper's 0.02-step grid.
pub fn coarse_epsilon_grid() -> Vec<f32> {
    (0..=8).map(|i| 1.0 + i as f32 * 0.05).collect()
}

/// Least-squares slope of `log2(y)` against `log2(x)` — the scalability
/// exponent reported in Figure 7 ("the slope of MBI gradually decreases …
/// showing a value of 1.29").
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.log2(), y.log2()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbi_data::presets::MOVIELENS;

    #[test]
    fn loglog_slope_recovers_exponents() {
        // y = x^1.3
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| {
                let x = (1 << i) as f64;
                (x, x.powf(1.3))
            })
            .collect();
        assert!((loglog_slope(&pts) - 1.3).abs() < 1e-9);
        assert_eq!(loglog_slope(&pts[..1]), 0.0);
    }

    #[test]
    fn workload_has_right_shape() {
        let d = MOVIELENS.generate(0.01, 3);
        let w = make_workload(&d, 0.2, 12, 7);
        assert_eq!(w.len(), 12);
        for (q, win) in &w {
            assert_eq!(q.len(), 32);
            assert!(!win.is_empty());
        }
    }

    #[test]
    fn grids() {
        assert_eq!(fraction_grid().len(), 8);
        assert_eq!(coarse_epsilon_grid().len(), 9);
        assert_eq!(coarse_epsilon_grid()[0], 1.0);
    }

    #[test]
    fn builders_produce_consistent_indexes() {
        let d = MOVIELENS.generate(0.01, 3);
        let p = params_for(&MOVIELENS, &d);
        let mbi = build_mbi(&d, &p, 0.5, false);
        let bsbf = build_bsbf(&d);
        let sf = build_sf(&d, &p);
        assert_eq!(mbi.len(), d.len());
        assert_eq!(bsbf.len(), d.len());
        assert_eq!(sf.len(), d.len());
        assert!(!sf.is_stale());
    }
}
