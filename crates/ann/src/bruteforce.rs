//! Exact kNN by exhaustive scan.
//!
//! Used in three places: the brute-force stage of the BSBF baseline
//! (Algorithm 1), MBI's non-full tail leaf block (Algorithm 4 line 6), and
//! ground-truth computation for recall measurements. Costs `O(m log k)` for
//! `m` scanned rows using the bounded heap, as analysed in §3.2.1.

use crate::scratch::SearchScratch;
use crate::store::VectorView;
use crate::SearchStats;
use mbi_math::{Metric, Neighbor, PreparedQuery, TopK};

/// Rows per batched-kernel call in the unfiltered scan: large enough to
/// amortise the dispatch, small enough that the distance buffer stays in L1.
const SCAN_BATCH: usize = 256;

/// Exact kNN over every row of `view`; returns ascending by distance.
pub fn brute_force(
    view: VectorView<'_>,
    metric: Metric,
    query: &[f32],
    k: usize,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let pq = PreparedQuery::new(metric, query);
    brute_force_prepared(view, &pq, k, stats)
}

/// Exact kNN over every row of `view` under a [`PreparedQuery`], ascending
/// by distance: [`brute_force_into`] a fresh [`TopK`].
pub fn brute_force_prepared(
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    k: usize,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let mut top = TopK::new(k);
    brute_force_into(view, pq, 0, &mut top, &mut SearchScratch::new(), stats);
    top.into_sorted_vec()
}

/// Offers every row of `view` to `top`, row `i` as id `base + i` — the scan
/// of a block or of the tail, straight into the query's merged top-k.
///
/// Streams the view's contiguous runs (one run for a flat view, one per
/// segment for a segmented view) through the 1-to-many batched kernels,
/// `SCAN_BATCH` rows at a time into the scratch's distance buffer, feeding
/// the cached inverse-norm column when present. Per-row distances do not
/// depend on how rows are grouped into batches and ids are offered in
/// ascending order, so results, tie-breaking, and stats totals are identical
/// to a per-row scan, regardless of where segment seams fall. Offering
/// every row into a merged top-k keeps the same `k` as merging this view's
/// own top-k would, since `(dist, id)` orders all rows totally. Allocates
/// nothing once the scratch's buffer has grown.
pub fn brute_force_into(
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    base: u32,
    top: &mut TopK,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) {
    let n = view.len();
    if n == 0 {
        return;
    }
    let dim = view.dim();
    assert_eq!(pq.query().len(), dim, "query has wrong dimension");

    let dists = &mut scratch.distances;
    let mut row = 0usize;
    while row < n {
        // One `chunk_at` per run: it checks every row of the run.
        let (flat, inv, run) = view.chunk_at(row);
        for at in (0..run).step_by(SCAN_BATCH) {
            let m = (run - at).min(SCAN_BATCH);
            dists.clear();
            let rows = &flat[at * dim..(at + m) * dim];
            pq.distance_batch(rows, inv.map(|s| &s[at..at + m]), dists);
            for (j, &d) in dists.iter().enumerate() {
                top.offer(base + (row + at + j) as u32, d);
            }
        }
        row += run;
    }
    stats.scanned += n as u64;
    stats.dist_evals += n as u64;
}

/// Exact kNN over the rows of `view` accepted by `filter`, one row at a
/// time: the reference the filtered graph search is tested against. The
/// filter runs before the distance, so a rejected row costs one predicate
/// call and nothing else.
pub fn brute_force_filtered<F: FnMut(u32) -> bool + ?Sized>(
    view: VectorView<'_>,
    metric: Metric,
    query: &[f32],
    k: usize,
    filter: &mut F,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let pq = PreparedQuery::new(metric, query);
    let scorer = view.scorer(&pq);
    let mut top = TopK::new(k);
    for i in 0..view.len() {
        let id = i as u32;
        if !filter(id) {
            continue;
        }
        stats.scanned += 1;
        stats.dist_evals += 1;
        top.offer(id, scorer.distance(i));
    }
    top.into_sorted_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VectorStore;

    fn line(n: usize) -> VectorStore {
        let mut s = VectorStore::new(1);
        for i in 0..n {
            s.push(&[i as f32]);
        }
        s
    }

    #[test]
    fn exact_on_line() {
        let s = line(100);
        let mut stats = SearchStats::default();
        let res = brute_force(s.view(), Metric::Euclidean, &[40.2], 3, &mut stats);
        let ids: Vec<u32> = res.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![40, 41, 39]);
        assert_eq!(stats.scanned, 100);
        assert_eq!(stats.dist_evals, 100);
    }

    #[test]
    fn filtered_scan_skips_distance_work() {
        let s = line(100);
        let mut stats = SearchStats::default();
        let res = brute_force_filtered(
            s.view(),
            Metric::Euclidean,
            &[0.0],
            2,
            &mut |id| id >= 90,
            &mut stats,
        );
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].id, 90);
        assert_eq!(res[1].id, 91);
        assert_eq!(stats.scanned, 10, "only in-filter rows are scanned");
    }

    #[test]
    fn k_larger_than_matches() {
        let s = line(10);
        let mut stats = SearchStats::default();
        let res = brute_force_filtered(
            s.view(),
            Metric::Euclidean,
            &[5.0],
            100,
            &mut |id| id % 2 == 0,
            &mut stats,
        );
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn empty_view() {
        let s = VectorStore::new(3);
        let mut stats = SearchStats::default();
        let res = brute_force(s.view(), Metric::Euclidean, &[0.0, 0.0, 0.0], 5, &mut stats);
        assert!(res.is_empty());
    }

    #[test]
    fn batched_scan_crosses_chunk_boundaries() {
        // 600 rows > 2×SCAN_BATCH, so the scan takes two full chunks plus a
        // partial tail; ids must stay global across chunk seams.
        let s = line(600);
        let mut stats = SearchStats::default();
        let res = brute_force(s.view(), Metric::Euclidean, &[255.6], 4, &mut stats);
        let ids: Vec<u32> = res.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![256, 255, 257, 254]);
        assert_eq!(stats.scanned, 600);
        assert_eq!(stats.dist_evals, 600);
    }

    #[test]
    fn cached_angular_scan_matches_uncached() {
        let mut cached = VectorStore::new(3);
        cached.enable_norm_cache();
        let mut plain = VectorStore::new(3);
        let mut state = 1u32;
        for _ in 0..300 {
            let v: Vec<f32> = (0..3)
                .map(|_| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
                })
                .collect();
            cached.push(&v);
            plain.push(&v);
        }
        let q = [0.3f32, -0.1, 0.2];
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        let a = brute_force(cached.view(), Metric::Angular, &q, 5, &mut s1);
        let b = brute_force(plain.view(), Metric::Angular, &q, 5, &mut s2);
        assert_eq!(s1, s2);
        let ids = |r: &[Neighbor]| r.iter().map(|n| n.id).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        for (x, y) in a.iter().zip(&b) {
            assert!((x.dist - y.dist).abs() <= 1e-5);
        }
    }

    #[test]
    fn results_sorted_with_ties_by_id() {
        let mut s = VectorStore::new(1);
        s.push(&[1.0]);
        s.push(&[1.0]);
        s.push(&[1.0]);
        let mut stats = SearchStats::default();
        let res = brute_force(s.view(), Metric::Euclidean, &[1.0], 3, &mut stats);
        let ids: Vec<u32> = res.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
