//! Property-based tests for the ANN substrate: graph invariants, search
//! soundness, and agreement with the brute-force oracle.

use mbi_ann::{
    brute_force, brute_force_filtered, greedy_search, greedy_search_prepared, NnDescentParams,
    SearchParams, SearchScratch, SearchStats, VectorStore,
};
use mbi_math::{Metric, PreparedQuery};
use proptest::prelude::*;

/// Deterministic pseudo-random store (proptest drives only sizes/seeds so
/// shrinking stays effective).
fn store(n: usize, dim: usize, seed: u64) -> VectorStore {
    let mut s = VectorStore::new(dim);
    let mut x = seed | 1;
    for _ in 0..n {
        let v: Vec<f32> = (0..dim)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect();
        s.push(&v);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NNDescent graphs: valid ids, no self loops, bounded degree, and the
    /// connectivity ring edge present.
    #[test]
    fn nndescent_graph_invariants(
        n in 2usize..300,
        degree in 2usize..12,
        seed in 0u64..1000,
    ) {
        let s = store(n, 6, seed);
        let params = NnDescentParams { degree, seed, max_iters: 4, ..Default::default() };
        let g = params.build(s.view(), Metric::Euclidean);
        prop_assert_eq!(g.node_count(), n);
        for i in 0..n as u32 {
            let nbrs = g.neighbors(i);
            prop_assert!(nbrs.len() <= degree + 1, "degree overflow at {}", i);
            prop_assert!(!nbrs.contains(&i), "self loop at {}", i);
            let next = ((i as usize + 1) % n) as u32;
            prop_assert!(nbrs.contains(&next), "missing ring edge {} → {}", i, next);
            for &nb in nbrs {
                prop_assert!((nb as usize) < n, "dangling edge {} → {}", i, nb);
            }
            // Neighbour list must not contain duplicates.
            let mut sorted = nbrs.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), nbrs.len(), "duplicate neighbours at {}", i);
        }
    }

    /// The ring edge makes every graph strongly connected: BFS from node 0
    /// reaches all nodes.
    #[test]
    fn nndescent_graph_is_connected(n in 2usize..200, seed in 0u64..500) {
        let s = store(n, 4, seed);
        let g = NnDescentParams { degree: 4, seed, max_iters: 3, ..Default::default() }
            .build(s.view(), Metric::Euclidean);
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
        prop_assert_eq!(count, n, "graph is disconnected");
    }

    /// Greedy search results: valid, sorted, within filter, and never
    /// better than brute force position-by-position.
    #[test]
    fn greedy_search_is_sound(
        n in 2usize..250,
        k in 1usize..12,
        seed in 0u64..500,
        lo_frac in 0.0f64..0.8,
    ) {
        let s = store(n, 6, seed);
        let g = NnDescentParams { degree: 6, seed, max_iters: 4, ..Default::default() }
            .build(s.view(), Metric::Euclidean);
        let q: Vec<f32> = (0..6).map(|i| (seed as f32 * 0.1 + i as f32).sin()).collect();
        let lo = (lo_frac * n as f64) as u32;
        let hi = n as u32;
        let mut stats = SearchStats::default();
        let got = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &q,
            k,
            &SearchParams::new(64, 1.2),
            &mut |id| id >= lo && id < hi,
            &mut stats,
        );
        let mut bf_stats = SearchStats::default();
        let exact = brute_force_filtered(
            s.view(),
            Metric::Euclidean,
            &q,
            k,
            &mut |id| id >= lo && id < hi,
            &mut bf_stats,
        );
        prop_assert!(got.len() <= k);
        prop_assert!(got.len() <= exact.len());
        for (i, r) in got.iter().enumerate() {
            prop_assert!(r.id >= lo && r.id < hi, "filter violated: {}", r.id);
            if i > 0 {
                prop_assert!(got[i - 1] <= *r, "unsorted results");
            }
            prop_assert!(r.dist >= exact[i].dist - 1e-5, "better than exact?");
        }
    }

    /// On small inputs (exact graph + generous ε + huge beam) the greedy
    /// search equals brute force exactly.
    #[test]
    fn greedy_equals_brute_force_on_small_inputs(
        n in 2usize..60,
        k in 1usize..6,
        seed in 0u64..300,
    ) {
        let s = store(n, 4, seed);
        // n ≤ degree + 1 → exact graph (fully connected at this size).
        let g = NnDescentParams { degree: 64, seed, ..Default::default() }
            .build(s.view(), Metric::Euclidean);
        let q: Vec<f32> = (0..4).map(|i| (seed as f32 + i as f32).cos()).collect();
        let mut stats = SearchStats::default();
        let got = greedy_search(
            &g, s.view(), Metric::Euclidean, &q, k,
            &SearchParams::new(256, 1.4),
            &mut |_| true, &mut stats,
        );
        let exact = brute_force(s.view(), Metric::Euclidean, &q, k, &mut stats);
        prop_assert_eq!(got, exact);
    }

    /// Brute force against a naive reference.
    #[test]
    fn brute_force_matches_reference(
        n in 0usize..150,
        k in 0usize..10,
        seed in 0u64..300,
    ) {
        let s = store(n, 3, seed);
        let q: Vec<f32> = vec![0.25, -0.5, 0.75];
        let mut stats = SearchStats::default();
        let got = brute_force(s.view(), Metric::Euclidean, &q, k, &mut stats);
        let mut reference: Vec<(f32, u32)> = (0..n)
            .map(|i| (Metric::Euclidean.distance(&q, s.get(i)), i as u32))
            .collect();
        reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
        reference.truncate(k);
        prop_assert_eq!(got.len(), reference.len());
        for (g, (d, id)) in got.iter().zip(&reference) {
            prop_assert_eq!(g.id, *id);
            prop_assert!((g.dist - d).abs() < 1e-6);
        }
        prop_assert_eq!(stats.scanned, n as u64);
    }

    /// Threaded NNDescent equals serial for arbitrary shapes.
    #[test]
    fn threaded_nndescent_equals_serial(
        n in 10usize..200,
        degree in 3usize..8,
        seed in 0u64..100,
        threads in 2usize..5,
    ) {
        let s = store(n, 5, seed);
        let params = NnDescentParams { degree, seed, max_iters: 3, ..Default::default() };
        let a = params.build_threaded(s.view(), Metric::Euclidean, 1);
        let b = params.build_threaded(s.view(), Metric::Euclidean, threads);
        prop_assert_eq!(a, b);
    }

    /// The prepared entry point with an explicit reused scratch returns the
    /// same results and stats as the legacy wrapper, across Euclidean and
    /// inner-product (bit-identical kernels).
    #[test]
    fn prepared_search_equals_wrapper(
        n in 2usize..200,
        k in 1usize..8,
        seed in 0u64..200,
        metric_pick in 0usize..2,
    ) {
        let metric = [Metric::Euclidean, Metric::InnerProduct][metric_pick];
        let s = store(n, 5, seed);
        let g = NnDescentParams { degree: 5, seed, max_iters: 3, ..Default::default() }
            .build(s.view(), metric);
        let q: Vec<f32> = (0..5).map(|i| (seed as f32 * 0.3 + i as f32).sin()).collect();
        let params = SearchParams::new(48, 1.2);

        let mut legacy_stats = SearchStats::default();
        let legacy =
            greedy_search(&g, s.view(), metric, &q, k, &params, &mut |_| true, &mut legacy_stats);

        // One scratch reused across repeated searches of different sizes.
        let mut scratch = SearchScratch::new();
        let pq = PreparedQuery::new(metric, &q);
        let mut out = Vec::new();
        for _ in 0..3 {
            let mut stats = SearchStats::default();
            greedy_search_prepared(
                &g, s.view(), &pq, k, &params, &mut |_| true, &mut stats, &mut scratch, &mut out,
            );
            prop_assert_eq!(&out, &legacy);
            prop_assert_eq!(stats, legacy_stats);
        }
    }

    /// On an angular graph, searching through a norm-cached view returns the
    /// same ids as the uncached view, with distances within 1e-5.
    #[test]
    fn cached_angular_search_matches_uncached(
        n in 4usize..200,
        k in 1usize..8,
        seed in 0u64..200,
    ) {
        let plain = store(n, 5, seed);
        let mut cached = VectorStore::new(5);
        cached.enable_norm_cache();
        for i in 0..n {
            cached.push(plain.get(i));
        }
        // Build once on the uncached store so both searches walk one graph.
        let g = NnDescentParams { degree: 5, seed, max_iters: 3, ..Default::default() }
            .build(plain.view(), Metric::Angular);
        let q: Vec<f32> = (0..5).map(|i| (seed as f32 * 0.7 + i as f32).cos()).collect();
        let params = SearchParams::new(48, 1.2);
        let pq = PreparedQuery::new(Metric::Angular, &q);
        let mut scratch = SearchScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut sa = SearchStats::default();
        let mut sb = SearchStats::default();
        greedy_search_prepared(
            &g, plain.view(), &pq, k, &params, &mut |_| true, &mut sa, &mut scratch, &mut a,
        );
        greedy_search_prepared(
            &g, cached.view(), &pq, k, &params, &mut |_| true, &mut sb, &mut scratch, &mut b,
        );
        prop_assert_eq!(sa, sb, "cache must not change traversal accounting");
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.id, y.id);
            prop_assert!((x.dist - y.dist).abs() <= 1e-5, "{} vs {}", x.dist, y.dist);
        }
    }
}
