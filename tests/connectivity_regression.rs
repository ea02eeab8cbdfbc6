//! Regression test for the disconnected-kNN-graph failure mode documented
//! in DESIGN.md ("Connectivity ring edge").
//!
//! With well-separated clusters, a pure kNN graph splits into islands and
//! Algorithm 2 cannot leave the entry point's cluster — recall collapses to
//! ~0 for queries whose answers live elsewhere. The ring edge added after
//! NNDescent guarantees strong connectivity; this test pins that behaviour
//! so a future "optimisation" cannot silently reintroduce the bug.

use mbi::data::DriftingMixture;
use mbi::{GraphBackend, MbiConfig, MbiIndex, Metric, NnDescentParams, SearchParams, TimeWindow};

#[test]
fn well_separated_clusters_remain_searchable() {
    // spread 0.02 → clusters are tiny dots far apart: the pathological case.
    let dataset = DriftingMixture {
        clusters: 12,
        spread: 0.02,
        drift: 0.0,
        ..DriftingMixture::new(16, 2024)
    }
    .generate("islands", Metric::Euclidean, 4_000, 24);

    let mut index = MbiIndex::new(
        MbiConfig::new(16, Metric::Euclidean)
            .with_leaf_size(512)
            .with_backend(GraphBackend::NnDescent(NnDescentParams {
                degree: 12,
                ..Default::default()
            }))
            .with_search(SearchParams::new(96, 1.25)),
    );
    for (v, t) in dataset.iter() {
        index.insert(v, t).unwrap();
    }

    // Every query must find its own cluster, whichever cluster the random
    // entry point lands in.
    let mut hits = 0usize;
    let mut total = 0usize;
    for qi in 0..dataset.test.len() {
        let q = dataset.test.get(qi);
        let w = TimeWindow::all();
        let approx = index.query(q, 10, w);
        let exact = index.exact_query(q, 10, w);
        let exact_ids: std::collections::HashSet<u32> = exact.iter().map(|r| r.id).collect();
        total += exact.len();
        hits += approx.iter().filter(|r| exact_ids.contains(&r.id)).count();
    }
    let recall = hits as f64 / total as f64;
    assert!(
        recall > 0.8,
        "recall {recall:.2} on separated clusters — ring-edge connectivity regressed?"
    );
}

#[test]
fn every_block_graph_is_strongly_connected() {
    let dataset = DriftingMixture { clusters: 8, spread: 0.02, ..DriftingMixture::new(8, 7) }
        .generate("conn", Metric::Euclidean, 1_500, 1);

    let mut index =
        MbiIndex::new(MbiConfig::new(8, Metric::Euclidean).with_leaf_size(200).with_backend(
            GraphBackend::NnDescent(NnDescentParams { degree: 6, ..Default::default() }),
        ));
    for (v, t) in dataset.iter() {
        index.insert(v, t).unwrap();
    }

    for (bi, block) in index.blocks().iter().enumerate() {
        let mbi::BlockGraph(g) = &block.graph;
        let n = g.node_count();
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0u32]);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &nb in g.neighbors(v) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    count += 1;
                    queue.push_back(nb);
                }
            }
        }
        assert_eq!(count, n, "block {bi} graph is disconnected");
    }
}
