//! Property-based tests for the numeric foundations.

use mbi_math::{
    angular_batch, angular_distance, dot, inv_norm_of, neg_dot_batch, norm, squared_euclidean,
    squared_euclidean_batch, topk_by_sort, Metric, Neighbor, OnlineStats, OrderedF32,
    PreparedQuery, TopK,
};
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1000.0f32..1000.0, len)
}

/// Carves a query plus `n` rows of dimension `dim` out of a flat value pool.
/// Dims 1..=257 exercise the chunked kernels' vector body *and* scalar tail
/// (the vendored proptest has no `prop_flat_map`, hence the slicing).
fn carve_query_and_rows(dim: usize, n: usize, pool: &[f32]) -> (&[f32], &[f32]) {
    (&pool[..dim], &pool[dim..dim * (n + 1)])
}

/// Pool strategy sized for the worst case of `carve_query_and_rows`
/// (dim 257, 5 rows + the query).
fn value_pool() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-8.0f32..8.0, 257 * 6)
}

proptest! {
    #[test]
    fn squared_euclidean_is_symmetric(a in finite_vec(1..64), seed in 0u64..1000) {
        let b: Vec<f32> = a.iter().enumerate()
            .map(|(i, x)| x + ((seed as f32 + i as f32) * 0.3).sin())
            .collect();
        let ab = squared_euclidean(&a, &b);
        let ba = squared_euclidean(&b, &a);
        prop_assert!((ab - ba).abs() <= 1e-3 * ab.abs().max(1.0));
    }

    #[test]
    fn squared_euclidean_identity(a in finite_vec(1..64)) {
        prop_assert_eq!(squared_euclidean(&a, &a), 0.0);
    }

    #[test]
    fn squared_euclidean_nonnegative(a in finite_vec(1..32), b in finite_vec(1..32)) {
        let n = a.len().min(b.len());
        prop_assert!(squared_euclidean(&a[..n], &b[..n]) >= 0.0);
    }

    #[test]
    fn dot_is_bilinear_in_scalar(a in finite_vec(1..32), c in -10.0f32..10.0) {
        let b: Vec<f32> = a.iter().rev().cloned().collect();
        let scaled: Vec<f32> = a.iter().map(|x| x * c).collect();
        let lhs = dot(&scaled, &b);
        let rhs = c * dot(&a, &b);
        prop_assert!((lhs - rhs).abs() <= 1e-2 * rhs.abs().max(1.0));
    }

    #[test]
    fn angular_distance_in_range(a in finite_vec(2..32)) {
        let b: Vec<f32> = a.iter().map(|x| x + 1.0).collect();
        let d = angular_distance(&a, &b);
        prop_assert!((-1e-6..=2.0 + 1e-6).contains(&d), "d = {}", d);
    }

    #[test]
    fn norm_triangle_inequality(a in finite_vec(4..16)) {
        let b: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        prop_assert!(norm(&sum) <= norm(&a) + norm(&b) + 1e-2);
    }

    #[test]
    fn ordered_f32_sort_is_total(mut xs in prop::collection::vec(any::<f32>(), 0..64)) {
        let mut wrapped: Vec<OrderedF32> = xs.iter().copied().map(OrderedF32).collect();
        wrapped.sort();
        // sort() must not panic and must be idempotent.
        let again = {
            let mut w = wrapped.clone();
            w.sort();
            w
        };
        prop_assert_eq!(wrapped.len(), again.len());
        for (a, b) in wrapped.iter().zip(&again) {
            prop_assert_eq!(a.get().to_bits(), b.get().to_bits());
        }
        xs.clear();
    }

    #[test]
    fn topk_matches_sorting(
        dists in prop::collection::vec(0.0f32..1000.0, 0..200),
        k in 0usize..32
    ) {
        let items: Vec<Neighbor> = dists
            .iter()
            .enumerate()
            .map(|(i, d)| Neighbor::new(i as u32, *d))
            .collect();
        let mut t = TopK::new(k);
        for it in &items {
            t.push(*it);
        }
        let got = t.into_sorted_vec();
        let mut expect = items;
        expect.sort_unstable();
        expect.truncate(k);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn topk_worst_is_max_retained(
        dists in prop::collection::vec(0.0f32..100.0, 1..100),
        k in 1usize..16
    ) {
        let mut t = TopK::new(k);
        for (i, d) in dists.iter().enumerate() {
            t.offer(i as u32, *d);
        }
        let full = t.is_full();
        let worst = t.worst();
        let max_kept = t
            .iter()
            .map(|n| OrderedF32(n.dist))
            .max()
            .map(|o| o.get())
            .unwrap();
        if full {
            prop_assert_eq!(worst, max_kept);
        } else {
            prop_assert_eq!(worst, f32::INFINITY);
        }
    }

    #[test]
    fn online_stats_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
    }

    #[test]
    fn batched_kernels_agree_with_scalar_across_dims(
        dim in 1usize..258,
        n in 1usize..6,
        pool in value_pool(),
    ) {
        let (q, rows) = carve_query_and_rows(dim, n, &pool);
        let inv: Vec<f32> = rows.chunks_exact(dim).map(inv_norm_of).collect();
        let q_inv = inv_norm_of(q);

        let (mut se, mut ndp, mut ang_c, mut ang_u) = (vec![], vec![], vec![], vec![]);
        squared_euclidean_batch(q, rows, &mut se);
        neg_dot_batch(q, rows, &mut ndp);
        angular_batch(q, q_inv, rows, Some(&inv), &mut ang_c);
        angular_batch(q, q_inv, rows, None, &mut ang_u);

        for (i, row) in rows.chunks_exact(dim).enumerate() {
            // Euclidean / inner product: bit-identical to the per-call kernels.
            prop_assert_eq!(se[i].to_bits(), squared_euclidean(q, row).to_bits());
            prop_assert_eq!(ndp[i].to_bits(), (-dot(q, row)).to_bits());
            // Angular: within 1e-5 of the three-pass scalar kernel, cached
            // and uncached alike.
            let scalar = angular_distance(q, row);
            prop_assert!((ang_c[i] - scalar).abs() <= 1e-5, "cached: {} vs {}", ang_c[i], scalar);
            prop_assert!((ang_u[i] - scalar).abs() <= 1e-5, "uncached: {} vs {}", ang_u[i], scalar);
        }
    }

    #[test]
    fn prepared_query_agrees_with_metric_across_dims(
        dim in 1usize..258,
        n in 1usize..6,
        pool in value_pool(),
    ) {
        let (q, rows) = carve_query_and_rows(dim, n, &pool);
        let inv: Vec<f32> = rows.chunks_exact(dim).map(inv_norm_of).collect();
        for metric in [Metric::Euclidean, Metric::Angular, Metric::InnerProduct] {
            let pq = PreparedQuery::new(metric, q);
            let mut batch = Vec::new();
            pq.distance_batch(rows, Some(&inv), &mut batch);
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                let scalar = metric.distance(q, row);
                if metric == Metric::Angular {
                    prop_assert!((pq.distance_to(row) - scalar).abs() <= 1e-5);
                    prop_assert!((pq.distance_to_cached(row, inv[i]) - scalar).abs() <= 1e-5);
                    prop_assert!((batch[i] - scalar).abs() <= 1e-5);
                } else {
                    prop_assert_eq!(pq.distance_to(row).to_bits(), scalar.to_bits());
                    prop_assert_eq!(pq.distance_to_cached(row, inv[i]).to_bits(), scalar.to_bits());
                    prop_assert_eq!(batch[i].to_bits(), scalar.to_bits());
                }
            }
        }
    }

    #[test]
    fn cached_angular_preserves_topk_ids(
        dim in 1usize..258,
        n in 1usize..6,
        pool in value_pool(),
        k in 1usize..5,
    ) {
        // The tentpole ranking contract: ranking by the cached kernel keeps
        // the same top-k ID set as the scalar kernel, up to genuine 1e-5
        // near-ties.
        let (q, rows) = carve_query_and_rows(dim, n, &pool);
        let q_inv = inv_norm_of(q);
        let inv: Vec<f32> = rows.chunks_exact(dim).map(inv_norm_of).collect();
        let mut cached = Vec::new();
        angular_batch(q, q_inv, rows, Some(&inv), &mut cached);
        let scalar: Vec<f32> = rows.chunks_exact(dim).map(|r| angular_distance(q, r)).collect();

        let top = |d: &[f32]| {
            let items: Vec<Neighbor> =
                d.iter().enumerate().map(|(i, &x)| Neighbor::new(i as u32, x)).collect();
            topk_by_sort(items, k)
        };
        let (a, b) = (top(&cached), top(&scalar));
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            // Per-rank distances agree; an ID swap is only legal on a near-tie.
            prop_assert!((x.dist - y.dist).abs() <= 1e-5, "{} vs {}", x.dist, y.dist);
            if x.id != y.id {
                prop_assert!((scalar[x.id as usize] - scalar[y.id as usize]).abs() <= 2e-5);
            }
        }
    }

    #[test]
    fn topk_by_sort_matches_full_sort(
        dists in prop::collection::vec(0.0f32..100.0, 0..120),
        k in 0usize..140,
    ) {
        // Duplicate-heavy distances (coarse grid) stress tie handling in the
        // selection pivot.
        let items: Vec<Neighbor> = dists
            .iter()
            .enumerate()
            .map(|(i, d)| Neighbor::new(i as u32, (d * 4.0).round() / 4.0))
            .collect();
        let mut expect = items.clone();
        expect.sort_unstable();
        expect.truncate(k);
        prop_assert_eq!(topk_by_sort(items, k), expect);
    }

    #[test]
    fn metric_distance_identity_is_minimal(a in finite_vec(2..32)) {
        // For Euclidean and Angular, no vector is closer to `a` than `a` itself.
        let shifted: Vec<f32> = a.iter().map(|x| x + 3.0).collect();
        for m in [Metric::Euclidean, Metric::Angular] {
            let self_d = m.distance(&a, &a);
            let other_d = m.distance(&a, &shifted);
            prop_assert!(self_d <= other_d + 1e-4, "{m}: {self_d} vs {other_d}");
        }
    }
}
