//! Exact kNN by exhaustive scan.
//!
//! Used in three places: the brute-force stage of the BSBF baseline
//! (Algorithm 1), MBI's non-full tail leaf block (Algorithm 4 line 6), and
//! ground-truth computation for recall measurements. Costs `O(m log k)` for
//! `m` scanned rows using the bounded heap, as analysed in §3.2.1.

use crate::sq8::Sq8Scan;
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

/// Exact kNN over every row of `view` under a [`PreparedQuery`].
///
/// Streams the view's contiguous runs (one run for a flat view, one per
/// segment for a segmented view) through the 1-to-many batched kernels,
/// `SCAN_BATCH` rows at a time, feeding the cached inverse-norm column when
/// present. Per-row distances do not depend on how rows are grouped into
/// batches and ids are offered in ascending order, so results, tie-breaking,
/// and stats totals are identical to the per-row scan this replaces —
/// regardless of where segment seams fall.
pub fn brute_force_prepared(
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    k: usize,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let dim = view.dim();
    scan(view, pq, k, stats, |row, max, dists| {
        let (flat, inv, run) = view.chunk_at(row);
        let m = run.min(max);
        pq.distance_batch(&flat[..m * dim], inv.map(|s| &s[..m]), dists);
        m
    })
}

/// Rerank budget: `max(k, ceil(k × overfetch))`, capped at the row count.
pub(crate) fn rerank_budget(k: usize, overfetch: f32, n: usize) -> usize {
    let of = if overfetch.is_finite() && overfetch > 1.0 { overfetch } else { 1.0 };
    (((k as f64) * of as f64).ceil() as usize).max(k).min(n)
}

/// Second pass of every SQ8 search: replaces the approximate `survivors`
/// with the best `k` of them by exact distance, sorted ascending.
pub(crate) fn rerank(
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    k: usize,
    survivors: &mut Vec<Neighbor>,
    stats: &mut SearchStats,
) {
    stats.dist_evals += survivors.len() as u64;
    let mut top = TopK::new(k);
    for nb in survivors.iter() {
        top.offer(nb.id, view.distance(pq, nb.id as usize));
    }
    survivors.clear();
    survivors.extend(top.into_sorted_vec());
}

/// kNN over every row of `view` with the SQ8 two-pass scan: rank all rows by
/// quantized distance (one `u8` load per coordinate — ~4× less memory
/// traffic than the f32 scan), keep the best `k × overfetch`, then rerank
/// those against the exact f32 rows. Returned distances are always exact;
/// only rows whose approximate rank fell outside the overfetch window can be
/// missed, which is what the recall floor test bounds.
///
/// Falls back to the exact scan when the view carries no SQ8 column.
pub fn brute_force_sq8_prepared(
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    k: usize,
    overfetch: f32,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    if !view.has_sq8() {
        return brute_force_prepared(view, pq, k, stats);
    }
    let dim = view.dim();
    // One preparation per segment, reused while its rows keep streaming.
    let mut prepared: Option<Sq8Scan> = None;
    let budget = rerank_budget(k, overfetch, view.len());
    let mut survivors = scan(view, pq, budget, stats, |row, max, dists| {
        let (chunk, run) = view.sq8_chunk_at(row);
        if !prepared.as_ref().is_some_and(|s| s.matches(chunk.mins)) {
            prepared = Some(Sq8Scan::new(pq, chunk.mins, chunk.deltas));
        }
        let m = run.min(max);
        let codes = &chunk.codes[..m * dim];
        prepared.as_ref().unwrap().approx_batch(codes, &chunk.row_norm2[..m], dists);
        m
    });
    rerank(view, pq, k, &mut survivors, stats);
    survivors
}

/// The one chunked scan behind both scans above: offers every row of `view`
/// to a top-`k` heap, in ascending id order. `batch(row, max, dists)`
/// appends the distances of rows `row..row + m` to `dists` and returns `m`,
/// where `1 ≤ m ≤ max` and the rows never cross the end of `row`'s
/// contiguous run — so each call is one kernel pass over at most
/// `SCAN_BATCH` rows of one segment.
fn scan(
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    k: usize,
    stats: &mut SearchStats,
    mut batch: impl FnMut(usize, usize, &mut Vec<f32>) -> usize,
) -> Vec<Neighbor> {
    let n = view.len();
    let mut top = TopK::new(k);
    if n == 0 {
        return top.into_sorted_vec();
    }
    assert_eq!(pq.query().len(), view.dim(), "query has wrong dimension");

    let mut dists: Vec<f32> = Vec::with_capacity(SCAN_BATCH.min(n));
    let mut row = 0usize;
    while row < n {
        dists.clear();
        let m = batch(row, SCAN_BATCH, &mut dists);
        for (j, &d) in dists.iter().enumerate() {
            top.offer((row + j) as u32, d);
        }
        row += m;
    }
    stats.scanned += n as u64;
    stats.dist_evals += n as u64;
    top.into_sorted_vec()
}

/// Exact kNN over the rows of `view` accepted by `filter`.
///
/// The filter runs *before* the distance computation, so rejected rows cost
/// one predicate call and nothing else — this is what makes BSBF fast on
/// short windows.
pub fn brute_force_filtered(
    view: VectorView<'_>,
    metric: Metric,
    query: &[f32],
    k: usize,
    filter: &mut dyn FnMut(u32) -> bool,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let pq = PreparedQuery::new(metric, query);
    brute_force_filtered_prepared(view, &pq, k, filter, stats)
}

/// [`brute_force_filtered`] under a [`PreparedQuery`]. The accepted rows are
/// not contiguous in general, so this stays a per-row loop, but each distance
/// still goes through the prepared path (cached norms on angular views).
pub fn brute_force_filtered_prepared(
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    k: usize,
    filter: &mut dyn FnMut(u32) -> bool,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let mut top = TopK::new(k);
    for i in 0..view.len() {
        let id = i as u32;
        if !filter(id) {
            continue;
        }
        stats.scanned += 1;
        stats.dist_evals += 1;
        top.offer(id, view.distance(pq, i));
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
