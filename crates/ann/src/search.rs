//! Best-first graph search with time filtering — Algorithm 2 of the paper.
//!
//! The same routine serves three roles:
//!
//! * plain approximate kNN (filter accepts everything);
//! * **SF** (Search-and-Filtering, §3.2.2): filter accepts only vectors inside
//!   the query time window, and the search keeps expanding *without* the `ε`
//!   bound until `k` in-window results exist (line 8 of Algorithm 2) — the
//!   behaviour that makes SF slow on short windows and that MBI exploits;
//! * per-block search inside MBI's query process (Algorithm 4, line 8).

use crate::bruteforce::{rerank, rerank_budget};
use crate::graph::KnnGraph;
use crate::scratch::{with_thread_scratch, SearchScratch};
use crate::store::VectorView;
use mbi_math::simd::prefetch;
use mbi_math::{Metric, Neighbor, OrderedF32, PreparedQuery};
use serde::{Deserialize, Serialize};

/// How the search seeds its candidate set (Algorithm 2 line 1 samples one
/// random vertex).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryPolicy {
    /// Always start from this one node id (clamped to the graph size). The
    /// fixed-entry pins use it to check the beam loop apart from the pivots.
    Fixed(u32),
    /// Start from the best of `P = min(64, n)` strided pivots. Pivot `i` is
    /// `(h + i·⌊n/P⌋) mod n`, where `h` hashes the query vector's bits, so
    /// the pivots are distinct, spread evenly over the block's rows (which
    /// are time-ordered), and random across queries yet deterministic for a
    /// given query: experiments reproduce exactly without threading an RNG
    /// through every search. All pivots are prefetched, scored (each counts
    /// as a distance evaluation) and marked visited, and `C` keeps the
    /// `M_C` best of them, so the walk starts near the answer instead of at
    /// one random vertex. SF's single whole-dataset search uses the same
    /// policy.
    QueryHash,
}

/// Most pivots [`EntryPolicy::QueryHash`] scores per search. Of 1, 16, 32,
/// 64 and 128, 64 needs the fewest distance evaluations per query; at 128
/// the pivots cost more than the shorter walk saves (EXPERIMENTS.md,
/// "Entry pivots").
const PIVOTS: usize = 64;

/// Parameters of the graph search (Algorithm 2).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SearchParams {
    /// `M_C` — maximum size of the candidate set `C`.
    pub max_candidates: usize,
    /// `ε ≥ 1` — range factor controlling how far past the current k-th
    /// distance the search keeps expanding (the paper sweeps 1.0–1.4).
    pub epsilon: f32,
    /// Starting-vertex policy.
    pub entry: EntryPolicy,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams { max_candidates: 128, epsilon: 1.1, entry: EntryPolicy::QueryHash }
    }
}

impl SearchParams {
    /// Convenience constructor for the two tunables the paper varies.
    pub fn new(max_candidates: usize, epsilon: f32) -> Self {
        SearchParams { max_candidates, epsilon, entry: EntryPolicy::QueryHash }
    }
}

/// Counters accumulated during a search; the experiment harness reports them
/// and the complexity tests assert on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of distance evaluations (`σ` calls).
    pub dist_evals: u64,
    /// Number of vertices visited (popped from the candidate set).
    pub visited: u64,
    /// Number of vertices scanned by brute force (BSBF paths).
    pub scanned: u64,
    /// Number of places (blocks or tail scan) a query actually searched —
    /// places whose row range was empty under the window are *not* counted
    /// (filled in by MBI).
    pub blocks_searched: u64,
    /// Of `blocks_searched`, how many were answered by an exact scan instead
    /// of a graph search: full blocks the cost model dispatched to brute
    /// force, plus the tail scan (filled in by MBI).
    pub blocks_bruteforced: u64,
}

impl SearchStats {
    /// Adds another stats record into this one. Merging records in any
    /// order yields the same totals — every field is a sum.
    pub fn merge(&mut self, other: &SearchStats) {
        self.dist_evals += other.dist_evals;
        self.visited += other.visited;
        self.scanned += other.scanned;
        self.blocks_searched += other.blocks_searched;
        self.blocks_bruteforced += other.blocks_bruteforced;
    }
}

// Concurrent queries and the engine's builder threads share these; keep them
// thread-friendly or that code stops compiling.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SearchParams>();
    assert_send_sync::<SearchStats>();
    assert_send_sync::<crate::KnnGraph>();
};

/// FNV-1a over the query's raw bits; used by [`EntryPolicy::QueryHash`].
fn hash_query(query: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in query {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Algorithm 2: best-first search over `graph` for the `k` nearest rows of
/// `view` that satisfy `filter`, under a [`PreparedQuery`] and with all
/// working memory supplied by the caller.
///
/// This is the allocation-free core: the visited set clears by epoch, the
/// candidate set and result heap live in `scratch`, and results land in
/// `out` (cleared first, then sorted ascending). Semantics — visit order,
/// result set, and every [`SearchStats`] counter — are identical to the
/// original per-call-allocating implementation; the neighbour expansion
/// gathers unseen ids first, prefetches all their rows, and then evaluates
/// their distances in one tight pass, so the rows' cache misses overlap and
/// the query row stays hot while candidates stream through the prepared
/// kernel (norm-cached single-dot-pass on angular views).
///
/// Ids passed to `filter` and placed in `out` are view-local. The candidate
/// set `C` holds unvisited candidates ordered by distance and is pruned to
/// `params.max_candidates`; while fewer than `k` accepted results exist the
/// search expands unconditionally (line 9), afterwards only within `ε ×` the
/// current worst accepted distance (line 11).
#[allow(clippy::too_many_arguments)]
pub fn greedy_search_prepared(
    graph: &KnnGraph,
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    k: usize,
    params: &SearchParams,
    filter: &mut dyn FnMut(u32) -> bool,
    stats: &mut SearchStats,
    scratch: &mut SearchScratch,
    out: &mut Vec<Neighbor>,
) {
    let fetch = |id: u32| prefetch(view.unverified_row(id as usize));
    let exact = |id: u32| view.distance(pq, id as usize);
    beam_search(graph, view, pq, k, params, filter, stats, scratch, out, fetch, exact);
    out.sort_unstable();
}

/// [`greedy_search_prepared`] with the SQ8 quantized first pass: the same
/// beam loop scores every candidate against the segment's `u8` code column
/// (~4× less memory traffic per distance than the f32 rows) and collects
/// `k × overfetch` approximate results, which are then reranked against the
/// exact f32 rows and cut to `k`. Distances in `out` are always exact.
///
/// Falls back to the exact search when the view carries no SQ8 column.
///
/// Traversal decisions (visit order, termination) run on approximate
/// distances, so visited/dist-eval stats can differ slightly from the exact
/// search; the recall floor test bounds the quality effect.
#[allow(clippy::too_many_arguments)]
pub fn greedy_search_sq8_prepared(
    graph: &KnnGraph,
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    k: usize,
    overfetch: f32,
    params: &SearchParams,
    filter: &mut dyn FnMut(u32) -> bool,
    stats: &mut SearchStats,
    scratch: &mut SearchScratch,
    out: &mut Vec<Neighbor>,
) {
    if !view.has_sq8() {
        greedy_search_prepared(graph, view, pq, k, params, filter, stats, scratch, out);
        return;
    }
    let budget = rerank_budget(k, overfetch, graph.node_count());
    // The scan cache leaves the scratch for the search (a move, not an
    // allocation) so the scorer can hold it beside the loop's borrow.
    let mut scans = std::mem::take(&mut scratch.sq8_scans);
    scans.clear();
    let fetch = |id: u32| prefetch(view.sq8_row(id as usize).codes);
    let approx = |id: u32| scans.approx_row(pq, view.sq8_row(id as usize));
    beam_search(graph, view, pq, budget, params, filter, stats, scratch, out, fetch, approx);
    scratch.sq8_scans = scans;
    rerank(view, pq, k, out, stats, &mut scratch.results);
}

/// The one Algorithm 2 loop behind both entry points above. `score` gives a
/// candidate's distance — exact over the f32 rows, or approximate over the
/// SQ8 codes — and `fetch` prefetches the bytes `score` will read for that
/// candidate. `budget` is the capacity of the result set `R` (`k` for exact,
/// the rerank budget for SQ8). Leaves `R` in `out`, unsorted; `out` is empty
/// when the graph is empty or `budget == 0`.
#[allow(clippy::too_many_arguments)]
fn beam_search(
    graph: &KnnGraph,
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    budget: usize,
    params: &SearchParams,
    filter: &mut dyn FnMut(u32) -> bool,
    stats: &mut SearchStats,
    scratch: &mut SearchScratch,
    out: &mut Vec<Neighbor>,
    fetch: impl Fn(u32),
    mut score: impl FnMut(u32) -> f32,
) {
    out.clear();
    let n = graph.node_count();
    debug_assert_eq!(n, view.len(), "graph and view must describe the same rows");
    if n == 0 || budget == 0 {
        return;
    }

    scratch.begin(n, budget);
    let SearchScratch { epoch, visited, candidates, results, neighbor_ids, distances, .. } =
        scratch;
    let epoch = *epoch;

    // `visited` covers both "currently in C" and "already visited": a node
    // is offered to C at most once (pruned candidates are not re-offered;
    // see DESIGN.md for the deviation note — standard in best-first graph
    // searchers). `candidates` is sorted descending, so the best candidate
    // is `last()`.
    //
    // Line 1: seed C with the entry vertices, every row prefetched before
    // the first is scored.
    match params.entry {
        EntryPolicy::Fixed(id) => neighbor_ids.push((id as usize).min(n - 1) as u32),
        EntryPolicy::QueryHash => {
            let pivots = n.min(PIVOTS);
            let (h, stride) = ((hash_query(pq.query()) % n as u64) as usize, n / pivots);
            neighbor_ids.extend((0..pivots).map(|i| ((h + i * stride) % n) as u32));
        }
    }
    for &s in neighbor_ids.iter() {
        fetch(s);
    }
    for &s in neighbor_ids.iter() {
        visited[s as usize] = epoch;
        candidates.push((OrderedF32(score(s)), s));
    }
    stats.dist_evals += neighbor_ids.len() as u64;
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    // Keep the M_C best starts, and at least one, so a `Fixed` start
    // survives any M_C.
    let excess = candidates.len().saturating_sub(params.max_candidates.max(1));
    candidates.drain(..excess);

    while let Some(&(dist, id)) = candidates.last() {
        // Early termination: candidates are visited in ascending distance,
        // so once the best unvisited candidate exceeds the ε-range bound no
        // future vertex can enter C (line 11 admits only σ < ε·max_R σ) and
        // none of the remaining ones can improve R. Only applies once R is
        // full — while |R| < k the search must keep expanding (line 9),
        // which is what makes SF slow on short windows. This is the bound
        // implied by the paper's O(log n + k) query complexity (§4.4.3).
        if results.is_full() && dist.get() > params.epsilon * results.worst() {
            break;
        }
        candidates.pop();
        stats.visited += 1;

        // Line 12: the visited vertex joins R iff it passes the filter.
        if filter(id) {
            results.offer(id, dist.get());
        }

        // Expansion bound (lines 8–11).
        let bound =
            if results.is_full() { params.epsilon * results.worst() } else { f32::INFINITY };

        // Gather unseen neighbours, prefetch all their rows so the misses
        // overlap, then evaluate their distances in one pass (1-to-many: the
        // query stays in registers).
        neighbor_ids.clear();
        for &nb in graph.neighbors(id) {
            let mark = &mut visited[nb as usize];
            if *mark != epoch {
                *mark = epoch;
                neighbor_ids.push(nb);
            }
        }
        for &nb in neighbor_ids.iter() {
            fetch(nb);
        }
        distances.clear();
        for &nb in neighbor_ids.iter() {
            distances.push(score(nb));
        }
        stats.dist_evals += neighbor_ids.len() as u64;

        for (&nb, &d) in neighbor_ids.iter().zip(distances.iter()) {
            if d < bound {
                // Descending order ⇒ compare the probe against the key.
                let key = (OrderedF32(d), nb);
                let pos = candidates.binary_search_by(|probe| key.cmp(probe)).unwrap_or_else(|e| e);
                candidates.insert(pos, key);
            }
        }

        // Line 16–17: retain the M_C nearest candidates (the worst ones sit
        // at the front).
        if candidates.len() > params.max_candidates {
            let excess = candidates.len() - params.max_candidates;
            candidates.drain(..excess);
        }
    }

    out.extend(results.iter().copied());
}

/// Algorithm 2: best-first search over `graph` for the `k` nearest rows of
/// `view` (by `metric`) that satisfy `filter`.
///
/// Convenience wrapper over [`greedy_search_prepared`]: prepares the query
/// and borrows this thread's reusable [`SearchScratch`], so even this entry
/// point stops allocating once warm (apart from the returned `Vec`).
///
/// Returns accepted results sorted by ascending distance.
///
/// ```
/// use mbi_ann::{greedy_search, NnDescentParams, SearchParams, SearchStats, VectorStore};
/// use mbi_math::Metric;
///
/// let mut store = VectorStore::new(1);
/// for i in 0..500 {
///     store.push(&[i as f32]);
/// }
/// let graph = NnDescentParams::with_degree(8).build(store.view(), Metric::Euclidean);
/// let mut stats = SearchStats::default();
/// // Nearest to 123.4 among ids ≥ 200 only (e.g. a time filter):
/// let hits = greedy_search(
///     &graph, store.view(), Metric::Euclidean, &[123.4], 2,
///     &SearchParams::new(64, 1.2), &mut |id| id >= 200, &mut stats,
/// );
/// assert_eq!(hits[0].id, 200);
/// assert_eq!(hits[1].id, 201);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn greedy_search(
    graph: &KnnGraph,
    view: VectorView<'_>,
    metric: Metric,
    query: &[f32],
    k: usize,
    params: &SearchParams,
    filter: &mut dyn FnMut(u32) -> bool,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let pq = PreparedQuery::new(metric, query);
    with_thread_scratch(|scratch, _| {
        let mut out = Vec::new();
        greedy_search_prepared(graph, view, &pq, k, params, filter, stats, scratch, &mut out);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nndescent::exact_graph;
    use crate::store::VectorStore;

    /// 1-D line dataset where distances are obvious.
    fn line(n: usize) -> VectorStore {
        let mut s = VectorStore::new(2);
        for i in 0..n {
            s.push(&[i as f32, 0.0]);
        }
        s
    }

    fn accept_all(_: u32) -> bool {
        true
    }

    #[test]
    fn finds_exact_nn_on_line() {
        let s = line(200);
        let g = exact_graph(s.view(), Metric::Euclidean, 8);
        let mut stats = SearchStats::default();
        let q = [57.3f32, 0.0];
        let res = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &q,
            3,
            &SearchParams::new(64, 1.2),
            &mut accept_all,
            &mut stats,
        );
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].id, 57);
        let ids: Vec<u32> = res.iter().map(|r| r.id).collect();
        assert!(ids.contains(&58));
        assert!(stats.dist_evals > 0);
        assert!(stats.visited > 0);
    }

    #[test]
    fn empty_graph_returns_nothing() {
        let s = VectorStore::new(2);
        let g = exact_graph(s.view(), Metric::Euclidean, 4);
        let mut stats = SearchStats::default();
        let res = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &[0.0, 0.0],
            5,
            &SearchParams::default(),
            &mut accept_all,
            &mut stats,
        );
        assert!(res.is_empty());
    }

    #[test]
    fn k_zero_returns_nothing() {
        let s = line(10);
        let g = exact_graph(s.view(), Metric::Euclidean, 4);
        let mut stats = SearchStats::default();
        let res = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &[3.0, 0.0],
            0,
            &SearchParams::default(),
            &mut accept_all,
            &mut stats,
        );
        assert!(res.is_empty());
    }

    #[test]
    fn filter_restricts_results() {
        let s = line(100);
        let g = exact_graph(s.view(), Metric::Euclidean, 6);
        let mut stats = SearchStats::default();
        // Only ids in [80, 90) are acceptable; the query sits at 10.
        let mut filter = |id: u32| (80..90).contains(&id);
        let res = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &[10.0, 0.0],
            4,
            &SearchParams::new(64, 1.1),
            &mut filter,
            &mut stats,
        );
        assert_eq!(res.len(), 4, "must keep expanding until k in-filter results");
        assert_eq!(res[0].id, 80);
        for r in &res {
            assert!((80..90).contains(&r.id));
        }
    }

    #[test]
    fn filter_with_fewer_than_k_matches_returns_all_matches() {
        let s = line(50);
        let g = exact_graph(s.view(), Metric::Euclidean, 6);
        let mut stats = SearchStats::default();
        let mut filter = |id: u32| id == 30 || id == 31;
        let res = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &[0.0, 0.0],
            10,
            &SearchParams::new(64, 1.1),
            &mut filter,
            &mut stats,
        );
        // Search exhausts the graph (|R| < k never triggers the ε bound), so
        // both acceptable vertices are found.
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].id, 30);
        assert_eq!(res[1].id, 31);
    }

    #[test]
    fn results_are_sorted_ascending() {
        let s = line(100);
        let g = exact_graph(s.view(), Metric::Euclidean, 8);
        let mut stats = SearchStats::default();
        let res = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &[42.0, 0.0],
            10,
            &SearchParams::new(64, 1.3),
            &mut accept_all,
            &mut stats,
        );
        for w in res.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn entry_policy_fixed_clamps() {
        let s = line(10);
        let g = exact_graph(s.view(), Metric::Euclidean, 4);
        let mut stats = SearchStats::default();
        let params = SearchParams { entry: EntryPolicy::Fixed(9999), ..SearchParams::default() };
        let res = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &[5.0, 0.0],
            1,
            &params,
            &mut accept_all,
            &mut stats,
        );
        assert_eq!(res[0].id, 5);
    }

    #[test]
    fn larger_epsilon_visits_at_least_as_much() {
        let s = line(400);
        let g = exact_graph(s.view(), Metric::Euclidean, 6);
        let q = [123.0f32, 0.0];
        let mut narrow = SearchStats::default();
        let mut wide = SearchStats::default();
        greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &q,
            5,
            &SearchParams { epsilon: 1.0, ..SearchParams::new(128, 1.0) },
            &mut accept_all,
            &mut narrow,
        );
        greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &q,
            5,
            &SearchParams { epsilon: 1.4, ..SearchParams::new(128, 1.4) },
            &mut accept_all,
            &mut wide,
        );
        assert!(wide.dist_evals >= narrow.dist_evals);
    }

    #[test]
    fn query_hash_seeds_distinct_strided_pivots() {
        // At n ≤ 64 every row is a pivot, scored exactly once: the search
        // degenerates to an exact scan and never expands a neighbour.
        let s = line(50);
        let g = exact_graph(s.view(), Metric::Euclidean, 4);
        let mut stats = SearchStats::default();
        let params = SearchParams::new(64, 1.2);
        let q = [17.2f32, 0.0];
        let res = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &q,
            3,
            &params,
            &mut accept_all,
            &mut stats,
        );
        assert_eq!(stats.dist_evals, 50);
        assert_eq!(res.iter().map(|r| r.id).collect::<Vec<_>>(), [17, 18, 16]);

        // Larger graphs score 64 pivots before the walk; C keeps M_C of them.
        let s = line(1000);
        let g = exact_graph(s.view(), Metric::Euclidean, 6);
        let mut stats = SearchStats::default();
        let params = SearchParams::new(16, 1.2);
        let q = [612.4f32, 0.0];
        let res = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &q,
            2,
            &params,
            &mut accept_all,
            &mut stats,
        );
        assert!(stats.dist_evals >= 64, "{stats:?}");
        assert_eq!(res.iter().map(|r| r.id).collect::<Vec<_>>(), [612, 613]);
    }

    #[test]
    fn query_hash_is_deterministic() {
        assert_eq!(hash_query(&[1.0, 2.0]), hash_query(&[1.0, 2.0]));
        assert_ne!(hash_query(&[1.0, 2.0]), hash_query(&[2.0, 1.0]));
    }

    #[test]
    fn prepared_entry_point_matches_wrapper() {
        let s = line(120);
        let g = exact_graph(s.view(), Metric::Euclidean, 6);
        let q = [33.3f32, 0.0];
        let params = SearchParams::new(64, 1.2);

        let mut legacy_stats = SearchStats::default();
        let legacy = greedy_search(
            &g,
            s.view(),
            Metric::Euclidean,
            &q,
            4,
            &params,
            &mut accept_all,
            &mut legacy_stats,
        );

        let pq = PreparedQuery::new(Metric::Euclidean, &q);
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        greedy_search_prepared(
            &g,
            s.view(),
            &pq,
            4,
            &params,
            &mut accept_all,
            &mut stats,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, legacy);
        assert_eq!(stats, legacy_stats);

        // Reusing the same scratch on a different query stays correct.
        let pq2 = PreparedQuery::new(Metric::Euclidean, &[99.9, 0.0]);
        greedy_search_prepared(
            &g,
            s.view(),
            &pq2,
            2,
            &params,
            &mut accept_all,
            &mut stats,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out[0].id, 100);
    }
}
