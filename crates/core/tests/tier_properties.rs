//! Property tests for the cold tier: a [`ColdIndex`] serving a v7 stream
//! through its block cache must answer every query bit-identically to the
//! in-RAM snapshot it was serialised from — for arbitrary index shapes,
//! RAM budgets (including zero), window placements that straddle segment
//! boundaries, and repeated evict/re-read cycles. Each front-end selects
//! from its own block metadata (the index's blocks, the snapshot's shared
//! blocks, the file's block directory), so selections and search counters
//! must match too, and so must the [`MbiIndex`] the snapshot came from.

use std::sync::Arc;

use mbi_ann::{FileMap, NnDescentParams, SearchParams};
use mbi_core::{ColdIndex, GraphBackend, IndexSnapshot, MbiConfig, MbiIndex, TimeWindow};
use mbi_math::Metric;
use proptest::prelude::*;

fn build_snapshot(
    leaves: usize,
    leaf_size: usize,
    metric: Metric,
    tau: f64,
    sq8: bool,
    budget: u64,
) -> (MbiIndex, IndexSnapshot) {
    let backend =
        GraphBackend::NnDescent(NnDescentParams { degree: 4, max_iters: 2, ..Default::default() });
    let mut idx = MbiIndex::new(
        MbiConfig::new(3, metric)
            .with_leaf_size(leaf_size)
            .with_tau(tau)
            .with_backend(backend)
            .with_search(SearchParams::new(24, 1.2))
            .with_sq8_scan(sq8)
            .with_ram_budget_bytes(budget),
    );
    for i in 0..leaves * leaf_size {
        let x = i as f32;
        idx.insert(&[(x * 0.31).sin() + 1.5, (x * 0.17).cos() + 1.5, 0.1 * x], i as i64).unwrap();
    }
    let snap = IndexSnapshot::from_index(&idx).expect("sealed tail");
    (idx, snap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cold_answers_match_hot(
        leaves in 0usize..9,
        leaf_size in 1usize..24,
        metric_pick in 0u8..3,
        tau_pct in 1u32..=100,
        sq8 in any::<bool>(),
        budget_pick in 0u8..3,
        win_a in 0i64..220,
        win_len in 0i64..220,
        qx in -2.0f32..2.0,
    ) {
        let metric = match metric_pick {
            0 => Metric::Euclidean,
            1 => Metric::Angular,
            _ => Metric::InnerProduct,
        };
        let budget = match budget_pick {
            0 => 0,
            1 => 64 * 1024,
            _ => u64::MAX,
        };
        let (idx, snap) =
            build_snapshot(leaves, leaf_size, metric, tau_pct as f64 / 100.0, sq8, budget);
        // Explicit budget so the `budget == 0` stats assertion below holds
        // even when the process runs under an MBI_RAM_BUDGET override (the
        // CI tiering job forces 0 for the whole suite).
        let cold = ColdIndex::from_map_with_budget(
            Arc::new(FileMap::from_bytes(snap.to_bytes().to_vec())),
            budget,
        )
        .expect("v7 stream opens cold");
        let params = snap.config().search;
        let w = TimeWindow::new(win_a, win_a + win_len);
        let query = [qx, 0.3, -qx * 0.5];
        // Two passes: the second re-reads through whatever the budget kept
        // (everything at MAX, nothing at 0) and must not drift.
        for pass in 0..2 {
            let hot = snap.query_with_params(&query, 5, w, &params);
            let via_cold = cold.query_with_params(&query, 5, w, &params).expect("cold query");
            prop_assert_eq!(&hot.results, &via_cold.results, "pass {}", pass);
            prop_assert_eq!(&hot.stats, &via_cold.stats, "stats pass {}", pass);
            prop_assert_eq!(&hot.selection, &via_cold.selection, "selection pass {}", pass);
            let via_index = idx.query_with_params(&query, 5, w, &params);
            prop_assert_eq!(&via_index.selection.blocks, &hot.selection.blocks);
            // The index's flat store carries no SQ8 code column, so under
            // SQ8 it scores exactly; without SQ8 all three run the same math.
            if !sq8 {
                prop_assert_eq!(&via_index.results, &hot.results, "index pass {}", pass);
                prop_assert_eq!(&via_index.stats, &hot.stats, "index stats pass {}", pass);
            }
            prop_assert_eq!(
                snap.exact_query(&query, 5, w),
                cold.exact_query(&query, 5, w).expect("cold exact"),
                "exact pass {}", pass
            );
        }
        if budget == 0 {
            prop_assert_eq!(cold.stats().bytes_resident, 0);
        }
    }
}
