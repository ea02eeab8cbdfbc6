//! Equivalence and instrumentation tests for the query executor.
//!
//! The contracts under test: the norm-cached angular pipeline returns the
//! scalar distances and survives a persist round trip bit for bit, and
//! `blocks_searched` counts only the places a query actually searched
//! (selected blocks whose in-window row range is empty are skipped
//! untouched).

use mbi_ann::{SearchParams, SearchStats};
use mbi_core::{MbiConfig, MbiIndex, TimeWindow};
use mbi_math::Metric;
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

const DIM: usize = 4;

/// Builds an index over `n` pseudo-random vectors under `metric` with
/// mildly clumpy timestamps (duplicates and gaps), deterministically from
/// `seed`.
fn random_metric_index(
    metric: Metric,
    n: usize,
    leaf_size: usize,
    tau: f64,
    seed: u64,
) -> MbiIndex {
    let config = MbiConfig::new(DIM, metric)
        .with_leaf_size(leaf_size)
        .with_tau(tau)
        .with_search(SearchParams::new(48, 1.2));
    let mut idx = MbiIndex::new(config);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t: i64 = 0;
    for _ in 0..n {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        idx.insert(&v, t).unwrap();
        // 0 keeps duplicates searchable, large steps open timestamp gaps.
        t += [0, 1, 1, 2, 7][rng.gen_range(0usize..5)];
    }
    idx
}

fn random_query(seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..DIM).map(|_| rng.gen_range(-4.0f32..4.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The norm-cached angular pipeline: every returned distance agrees with
    /// a scalar recompute within 1e-5, and the persisted index answers
    /// identically.
    #[test]
    fn angular_cached_pipeline_is_equivalent(
        n in 48usize..220,
        leaf_size in 4usize..24,
        k in 1usize..9,
        seed in 0u64..1_000_000,
        wlo in 0i64..150,
        wspan in 1i64..180,
    ) {
        let idx = random_metric_index(Metric::Angular, n, leaf_size, 0.5, seed);
        prop_assert!(idx.store().has_norm_cache());
        let query = random_query(seed ^ 0xDEAD_BEEF);
        let window = TimeWindow::new(wlo, wlo + wspan);
        let params = SearchParams::new(48, 1.2);

        let out = idx.query_with_params(&query, k, window, &params);
        // Cached distances match the scalar three-pass kernel within 1e-5.
        for r in &out.results {
            let scalar = Metric::Angular.distance(&query, idx.vector_of(r.id));
            prop_assert!((r.dist - scalar).abs() <= 1e-5, "{} vs {}", r.dist, scalar);
            prop_assert!(window.contains(r.timestamp));
        }
        // Round-tripping through the v3 norm column changes nothing.
        let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
        let reloaded = loaded.query_with_params(&query, k, window, &params);
        prop_assert_eq!(&out.results, &reloaded.results);
        prop_assert_eq!(&out.stats, &reloaded.stats);
    }
}

/// A block can be *selected* on timestamp overlap yet hold zero in-window
/// rows (timestamp gap inside the block): it must not count as searched.
#[test]
fn gap_window_skips_selected_block_in_stats() {
    // One sealed leaf whose timestamps jump 0..=3 then 12..=15: the block
    // spans t ∈ [0, 16) but holds nothing in [5, 9).
    let config = MbiConfig::new(2, Metric::Euclidean).with_leaf_size(8);
    let mut idx = MbiIndex::new(config);
    for (i, t) in [0i64, 1, 2, 3, 12, 13, 14, 15].into_iter().enumerate() {
        idx.insert(&[i as f32, 0.0], t).unwrap();
    }
    assert_eq!(idx.num_leaves(), 1);

    let window = TimeWindow::new(5, 9);
    let selection = idx.block_selection(window);
    assert_eq!(selection.places(), 1, "the leaf is selected on overlap");

    let out = idx.query_with_params(&[0.0, 0.0], 3, window, &SearchParams::default());
    assert!(out.results.is_empty());
    assert_eq!(out.stats.blocks_searched, 0, "no rows in window → nothing searched");
    assert_eq!(out.stats.blocks_bruteforced, 0);
    assert_eq!(out.stats.dist_evals, 0);
}

/// The tail analogue: a gap *inside the tail's timestamp span* selects the
/// tail but clamps its scan range to empty.
#[test]
fn gap_window_skips_selected_tail_in_stats() {
    // 8 sealed rows (t = 0..8) plus tail rows at t = 20 and t = 30.
    let config = MbiConfig::new(2, Metric::Euclidean).with_leaf_size(8);
    let mut idx = MbiIndex::new(config);
    for i in 0..8i64 {
        idx.insert(&[i as f32, 0.0], i).unwrap();
    }
    idx.insert(&[100.0, 0.0], 20).unwrap();
    idx.insert(&[200.0, 0.0], 30).unwrap();

    let window = TimeWindow::new(22, 28);
    let selection = idx.block_selection(window);
    assert!(selection.tail, "tail span [20, 31) overlaps [22, 28)");
    assert!(selection.blocks.is_empty());
    assert_eq!(selection.places(), 1);

    let out = idx.query_with_params(&[0.0, 0.0], 2, window, &SearchParams::default());
    assert!(out.results.is_empty());
    assert_eq!(out.stats.blocks_searched, 0);
    assert_eq!(out.stats.blocks_bruteforced, 0);
    assert_eq!(out.stats.scanned, 0);
}

/// When every selected place holds in-window rows, `blocks_searched` equals
/// `places()` — and the tail scan is attributed to `blocks_bruteforced`.
#[test]
fn dense_window_counts_every_place() {
    let config = MbiConfig::new(2, Metric::Euclidean).with_leaf_size(8);
    let mut idx = MbiIndex::new(config);
    for i in 0..20i64 {
        idx.insert(&[i as f32, 0.0], i).unwrap();
    }
    let window = TimeWindow::new(0, 20);
    let selection = idx.block_selection(window);
    assert!(selection.tail);

    let out = idx.query_with_params(&[9.5, 0.0], 4, window, &SearchParams::new(64, 1.2));
    assert_eq!(out.stats.blocks_searched, selection.places() as u64);
    // At minimum the tail was brute-forced; a short-window full block may
    // add more, but never beyond the searched count.
    assert!(out.stats.blocks_bruteforced >= 1);
    assert!(out.stats.blocks_bruteforced <= out.stats.blocks_searched);
}

/// `SearchStats::merge` is plain field-wise addition, so the engine's tail
/// merge adds the same totals in any order.
#[test]
fn stats_merge_sums_every_field() {
    let a = SearchStats {
        dist_evals: 10,
        visited: 4,
        scanned: 7,
        blocks_searched: 2,
        blocks_bruteforced: 1,
    };
    let b = SearchStats {
        dist_evals: 90,
        visited: 16,
        scanned: 3,
        blocks_searched: 3,
        blocks_bruteforced: 2,
    };
    let mut ab = a;
    ab.merge(&b);
    let mut ba = b;
    ba.merge(&a);
    let expected = SearchStats {
        dist_evals: 100,
        visited: 20,
        scanned: 10,
        blocks_searched: 5,
        blocks_bruteforced: 3,
    };
    assert_eq!(ab, expected);
    assert_eq!(ba, expected, "merge is commutative");
    let mut with_default = SearchStats::default();
    with_default.merge(&expected);
    assert_eq!(with_default, expected, "default is the identity");
}
