//! Property tests for the cold tier: a [`ColdIndex`] serving a snapshot
//! stream from its bytes in place must answer every query bit-identically
//! to the in-RAM snapshot it was serialised from — for arbitrary index
//! shapes, window placements that straddle segment boundaries, and a second
//! pass over rows and chunks the first pass already checked, with or
//! without a tail record (a partial leaf, scanned exactly). Each front-end
//! selects from its own block metadata (the index's blocks, the snapshot's
//! shared blocks, the blocks the cold index decoded from the file), so
//! selections and search counters must match too, and so must the
//! [`MbiIndex`] the snapshot came from.

use std::sync::Arc;

use mbi_ann::{FileMap, NnDescentParams, SearchParams};
use mbi_core::{ColdIndex, GraphBackend, IndexSnapshot, MbiConfig, MbiIndex, TimeWindow};
use mbi_math::Metric;
use proptest::prelude::*;

fn build_snapshot(
    leaves: usize,
    tail: usize,
    leaf_size: usize,
    metric: Metric,
    tau: f64,
) -> (MbiIndex, IndexSnapshot) {
    let backend =
        GraphBackend::NnDescent(NnDescentParams { degree: 4, max_iters: 2, ..Default::default() });
    let mut idx = MbiIndex::new(
        MbiConfig::new(3, metric)
            .with_leaf_size(leaf_size)
            .with_tau(tau)
            .with_backend(backend)
            .with_search(SearchParams::new(24, 1.2)),
    );
    for i in 0..leaves * leaf_size + tail % leaf_size {
        let x = i as f32;
        idx.insert(&[(x * 0.31).sin() + 1.5, (x * 0.17).cos() + 1.5, 0.1 * x], i as i64).unwrap();
    }
    let snap = IndexSnapshot::from_index(&idx);
    (idx, snap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cold_answers_match_hot(
        leaves in 0usize..9,
        tail in 0usize..24,
        leaf_size in 1usize..24,
        metric_pick in 0u8..3,
        tau_pct in 1u32..=100,
        win_a in 0i64..220,
        win_len in 0i64..220,
        qx in -2.0f32..2.0,
    ) {
        let metric = match metric_pick {
            0 => Metric::Euclidean,
            1 => Metric::Angular,
            _ => Metric::InnerProduct,
        };
        let (idx, snap) = build_snapshot(leaves, tail, leaf_size, metric, tau_pct as f64 / 100.0);
        let cold = ColdIndex::from_map(Arc::new(FileMap::from_bytes(snap.to_bytes().to_vec())))
            .expect("the snapshot stream opens cold");
        let params = snap.config().search;
        let w = TimeWindow::new(win_a, win_a + win_len);
        let query = [qx, 0.3, -qx * 0.5];
        // Two passes: the second reads rows and chunks the first already
        // checked and must not drift.
        for pass in 0..2 {
            let hot = snap.query_with_params(&query, 5, w, &params);
            let via_cold = cold.query_with_params(&query, 5, w, &params).expect("cold query");
            prop_assert_eq!(&hot.results, &via_cold.results, "pass {}", pass);
            prop_assert_eq!(&hot.stats, &via_cold.stats, "stats pass {}", pass);
            prop_assert_eq!(&hot.selection, &via_cold.selection, "selection pass {}", pass);
            let via_index = idx.query_with_params(&query, 5, w, &params);
            prop_assert_eq!(&via_index.selection.blocks, &hot.selection.blocks);
            // All three run the same math over the same rows and graphs.
            prop_assert_eq!(&via_index.results, &hot.results, "index pass {}", pass);
            prop_assert_eq!(&via_index.stats, &hot.stats, "index stats pass {}", pass);
            prop_assert_eq!(
                snap.exact_query(&query, 5, w),
                cold.exact_query(&query, 5, w).expect("cold exact"),
                "exact pass {}", pass
            );
        }
    }
}
