//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2018).
//!
//! §4.1 of the MBI paper says each block may use *any* index structure for
//! efficient kNN search and the authors pick a graph method; the evaluation
//! uses NNDescent graphs, but HNSW is the obvious alternative (it tops the
//! ann-benchmarks leaderboard the paper cites). This implementation is the
//! second per-block graph backend and powers an ablation bench that swaps
//! the per-block index.
//!
//! Construction follows the published algorithm: geometric level assignment
//! (`mL = 1/ln M`), greedy descent through the upper layers, `ef_construction`
//! beam at each insertion layer, and the distance-based neighbour-selection
//! heuristic with bidirectional link repair. Filtered search descends to the
//! base layer greedily and then runs the one Algorithm 2 loop behind
//! [`crate::greedy_search_prepared`], so `ε`/`M_C`/time-filter semantics are
//! identical across both backends.

use crate::graph::Graph;
use crate::scratch::SearchScratch;
use crate::search::{greedy_search_prepared, EntryPolicy, SearchParams, SearchStats};
use crate::store::VectorView;
use mbi_math::{Metric, Neighbor, OrderedF32, PreparedQuery};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashSet};

/// Construction parameters for [`HnswIndex`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HnswParams {
    /// Max out-degree `M` at layers above 0 (layer 0 allows `2M`).
    pub m: usize,
    /// Beam width used while inserting.
    pub ef_construction: usize,
    /// RNG seed for level assignment.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams { m: 16, ef_construction: 100, seed: 0x484E_5357 }
    }
}

/// Per-node link lists, one `Vec<u32>` per layer the node exists on.
#[derive(Clone, Debug, Default)]
struct NodeLinks {
    /// `links[l]` are the node's neighbours at layer `l`; `links.len() - 1`
    /// is the node's top layer.
    links: Vec<Vec<u32>>,
}

/// An HNSW index over the rows of one block.
///
/// Like [`crate::KnnGraph`], the index stores no vectors — searches take the
/// block's [`VectorView`].
///
/// ```
/// use mbi_ann::{HnswIndex, HnswParams, PreparedQuery, SearchParams, SearchScratch, SearchStats};
/// use mbi_ann::VectorStore;
/// use mbi_math::Metric;
///
/// let mut store = VectorStore::new(2);
/// for i in 0..300 {
///     store.push(&[i as f32, 0.0]);
/// }
/// let index = HnswIndex::build(HnswParams::default(), store.view(), Metric::Euclidean);
/// let pq = PreparedQuery::new(Metric::Euclidean, &[150.2, 0.0]);
/// let (mut stats, mut hits) = (SearchStats::default(), Vec::new());
/// index.search_prepared(
///     store.view(), &pq, 3, &SearchParams::new(64, 1.2), &mut |_| true,
///     &mut stats, &mut SearchScratch::new(), &mut hits,
/// );
/// assert_eq!(hits[0].id, 150);
/// ```
#[derive(Clone, Debug)]
pub struct HnswIndex {
    params: HnswParams,
    metric: Metric,
    nodes: Vec<NodeLinks>,
    entry: u32,
    max_level: usize,
}

impl HnswIndex {
    /// Builds an index over all rows of `view`.
    pub fn build(params: HnswParams, view: VectorView<'_>, metric: Metric) -> Self {
        assert!(params.m >= 2, "HNSW M must be at least 2");
        let mut index = HnswIndex {
            params,
            metric,
            nodes: Vec::with_capacity(view.len()),
            entry: 0,
            max_level: 0,
        };
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let ml = 1.0 / (params.m as f64).ln();
        for i in 0..view.len() {
            let level = sample_level(&mut rng, ml);
            index.insert(i as u32, level, view);
        }
        index
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn max_degree(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    fn insert(&mut self, id: u32, level: usize, view: VectorView<'_>) {
        self.nodes.push(NodeLinks { links: vec![Vec::new(); level + 1] });

        if self.nodes.len() == 1 {
            self.entry = id;
            self.max_level = level;
            return;
        }

        // Greedy descent through layers above the insertion level. All
        // build-path distances are row-to-row, so they go through
        // `pair_distance` and pick up the store's cached inverse norms.
        let mut curr = self.entry;
        let mut curr_dist = view.pair_distance(self.metric, id as usize, curr as usize);
        for layer in (level + 1..=self.max_level).rev() {
            loop {
                let mut improved = false;
                // Collect first to end the immutable borrow before relinking.
                let nbrs = self.nodes[curr as usize].links[layer].clone();
                for nb in nbrs {
                    let d = view.pair_distance(self.metric, id as usize, nb as usize);
                    if d < curr_dist {
                        curr = nb;
                        curr_dist = d;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        // Beam insertion at each layer from min(level, max_level) down to 0.
        let mut entry_points = vec![Neighbor::new(curr, curr_dist)];
        for layer in (0..=level.min(self.max_level)).rev() {
            let found =
                self.search_layer(id, &entry_points, self.params.ef_construction, layer, view);
            let selected = self.select_neighbors(&found, self.max_degree(layer), view);
            for &nb in &selected {
                self.nodes[id as usize].links[layer].push(nb.id);
                self.nodes[nb.id as usize].links[layer].push(id);
                self.shrink_if_needed(nb.id, layer, view);
            }
            entry_points = found;
        }

        if level > self.max_level {
            self.max_level = level;
            self.entry = id;
        }
    }

    /// Classic `SEARCH-LAYER`: beam of width `ef` within one layer. The
    /// "query" is the row being inserted, so distances are row-to-row.
    /// Returns candidates sorted ascending by distance.
    fn search_layer(
        &self,
        q_id: u32,
        entry_points: &[Neighbor],
        ef: usize,
        layer: usize,
        view: VectorView<'_>,
    ) -> Vec<Neighbor> {
        let mut visited: HashSet<u32> = entry_points.iter().map(|n| n.id).collect();
        // Min-heap of candidates via Reverse ordering on (dist, id).
        let mut candidates: BinaryHeap<std::cmp::Reverse<(OrderedF32, u32)>> =
            entry_points.iter().map(|n| std::cmp::Reverse((OrderedF32(n.dist), n.id))).collect();
        // Max-heap of the best `ef` found so far.
        let mut best: BinaryHeap<(OrderedF32, u32)> =
            entry_points.iter().map(|n| (OrderedF32(n.dist), n.id)).collect();

        while let Some(std::cmp::Reverse((d, c))) = candidates.pop() {
            let worst = best.peek().map_or(f32::INFINITY, |b| b.0.get());
            if best.len() >= ef && d.get() > worst {
                break;
            }
            let links = if layer < self.nodes[c as usize].links.len() {
                self.nodes[c as usize].links[layer].as_slice()
            } else {
                &[]
            };
            for &nb in links {
                if !visited.insert(nb) {
                    continue;
                }
                let dist = view.pair_distance(self.metric, q_id as usize, nb as usize);
                let worst = best.peek().map_or(f32::INFINITY, |b| b.0.get());
                if best.len() < ef || dist < worst {
                    candidates.push(std::cmp::Reverse((OrderedF32(dist), nb)));
                    best.push((OrderedF32(dist), nb));
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }

        let mut out: Vec<Neighbor> =
            best.into_iter().map(|(d, id)| Neighbor::new(id, d.get())).collect();
        out.sort_unstable();
        out
    }

    /// The neighbour-selection *heuristic* of the HNSW paper (Algorithm 4
    /// there): take candidates in ascending distance, keep one iff it is
    /// closer to `q` than to every already-kept neighbour. This spreads links
    /// directionally, which is what gives HNSW its navigability.
    fn select_neighbors(
        &self,
        candidates: &[Neighbor],
        m: usize,
        view: VectorView<'_>,
    ) -> Vec<Neighbor> {
        let mut selected: Vec<Neighbor> = Vec::with_capacity(m);
        for &c in candidates {
            if selected.len() >= m {
                break;
            }
            let dominated = selected
                .iter()
                .any(|s| view.pair_distance(self.metric, c.id as usize, s.id as usize) < c.dist);
            if !dominated {
                selected.push(c);
            }
        }
        // Fallback: if the heuristic was too aggressive, pad with nearest
        // remaining candidates (keeps minimum connectivity).
        if selected.len() < m {
            for &c in candidates {
                if selected.len() >= m {
                    break;
                }
                if !selected.iter().any(|s| s.id == c.id) {
                    selected.push(c);
                }
            }
        }
        selected
    }

    /// Re-prunes `node`'s links at `layer` if they exceed the degree bound.
    fn shrink_if_needed(&mut self, node: u32, layer: usize, view: VectorView<'_>) {
        let cap = self.max_degree(layer);
        if self.nodes[node as usize].links[layer].len() <= cap {
            return;
        }
        let mut cands: Vec<Neighbor> = self.nodes[node as usize].links[layer]
            .iter()
            .map(|&nb| {
                Neighbor::new(nb, view.pair_distance(self.metric, node as usize, nb as usize))
            })
            .collect();
        cands.sort_unstable();
        let selected = self.select_neighbors(&cands, cap, view);
        self.nodes[node as usize].links[layer] = selected.into_iter().map(|n| n.id).collect();
    }

    /// Filtered approximate kNN (Algorithm 2 on the base layer): a greedy
    /// descent through the upper layers picks the entry vertex, then the
    /// kNN graph's beam loop runs on layer 0. Ids are local to `view`;
    /// results land in `out` (cleared first, sorted ascending).
    #[allow(clippy::too_many_arguments)]
    pub fn search_prepared(
        &self,
        view: VectorView<'_>,
        pq: &PreparedQuery<'_>,
        k: usize,
        params: &SearchParams,
        filter: &mut dyn FnMut(u32) -> bool,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    ) {
        debug_assert_eq!(pq.metric(), self.metric, "index was built with a different metric");
        out.clear();
        if self.nodes.is_empty() || k == 0 {
            return;
        }
        let entry = self.descend(pq, view, stats);
        let base = SearchParams { entry: EntryPolicy::Fixed(entry), ..*params };
        greedy_search_prepared(&BaseLayer(self), view, pq, k, &base, filter, stats, scratch, out);
    }

    /// Greedy descent from the top layer to layer 1; returns the entry point
    /// for the base-layer beam search.
    fn descend(
        &self,
        pq: &PreparedQuery<'_>,
        view: VectorView<'_>,
        stats: &mut SearchStats,
    ) -> u32 {
        let mut curr = self.entry;
        let mut curr_dist = view.distance(pq, curr as usize);
        stats.dist_evals += 1;
        for layer in (1..=self.max_level).rev() {
            loop {
                let mut improved = false;
                let links = if layer < self.nodes[curr as usize].links.len() {
                    self.nodes[curr as usize].links[layer].as_slice()
                } else {
                    &[]
                };
                let mut best = (curr, curr_dist);
                for &nb in links {
                    let d = view.distance(pq, nb as usize);
                    stats.dist_evals += 1;
                    if d < best.1 {
                        best = (nb, d);
                        improved = true;
                    }
                }
                curr = best.0;
                curr_dist = best.1;
                if !improved {
                    break;
                }
            }
        }
        curr
    }

    /// Decomposes the index into raw parts for serialisation:
    /// `(params, metric, entry, max_level, links)` where `links[node][layer]`
    /// are the node's neighbours at that layer.
    pub fn to_parts(&self) -> (HnswParams, Metric, u32, usize, Vec<Vec<Vec<u32>>>) {
        (
            self.params,
            self.metric,
            self.entry,
            self.max_level,
            self.nodes.iter().map(|n| n.links.clone()).collect(),
        )
    }

    /// Reassembles an index from raw parts (inverse of [`Self::to_parts`]).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range for a non-empty node set, or if any
    /// link references a missing node.
    pub fn from_parts(
        params: HnswParams,
        metric: Metric,
        entry: u32,
        max_level: usize,
        links: Vec<Vec<Vec<u32>>>,
    ) -> Self {
        let n = links.len();
        if n > 0 {
            assert!((entry as usize) < n, "entry node out of range");
        }
        for layers in &links {
            for layer in layers {
                for &nb in layer {
                    assert!((nb as usize) < n, "dangling link to node {nb}");
                }
            }
        }
        HnswIndex {
            params,
            metric,
            nodes: links.into_iter().map(|links| NodeLinks { links }).collect(),
            entry,
            max_level,
        }
    }

    /// Bytes of heap memory used by the link lists.
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.nodes.capacity() * std::mem::size_of::<NodeLinks>();
        for n in &self.nodes {
            total += n.links.capacity() * std::mem::size_of::<Vec<u32>>();
            for l in &n.links {
                total += l.capacity() * std::mem::size_of::<u32>();
            }
        }
        total
    }
}

/// Adapter exposing an HNSW base layer as a [`Graph`] so Algorithm 2 can run
/// on it unchanged.
struct BaseLayer<'a>(&'a HnswIndex);

impl Graph for BaseLayer<'_> {
    fn neighbors(&self, id: u32) -> &[u32] {
        &self.0.nodes[id as usize].links[0]
    }

    fn node_count(&self) -> usize {
        self.0.nodes.len()
    }
}

fn sample_level(rng: &mut SmallRng, ml: f64) -> usize {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    ((-u.ln()) * ml).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VectorStore;
    use crate::{brute_force, SearchParams};

    /// Self-contained search for the tests: prepares the query and uses a
    /// fresh scratch.
    fn search(
        idx: &HnswIndex,
        view: VectorView<'_>,
        q: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &mut dyn FnMut(u32) -> bool,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let pq = PreparedQuery::new(idx.metric, q);
        let mut out = Vec::new();
        let mut scratch = SearchScratch::new();
        idx.search_prepared(view, &pq, k, params, filter, stats, &mut scratch, &mut out);
        out
    }

    fn random_store(n: usize, dim: usize, seed: u64) -> VectorStore {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = VectorStore::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn empty_index() {
        let s = VectorStore::new(4);
        let idx = HnswIndex::build(HnswParams::default(), s.view(), Metric::Euclidean);
        assert!(idx.is_empty());
        let mut stats = SearchStats::default();
        let res = search(
            &idx,
            s.view(),
            &[0.0; 4],
            3,
            &SearchParams::default(),
            &mut |_| true,
            &mut stats,
        );
        assert!(res.is_empty());
    }

    #[test]
    fn single_element() {
        let mut s = VectorStore::new(2);
        s.push(&[1.0, 1.0]);
        let idx = HnswIndex::build(HnswParams::default(), s.view(), Metric::Euclidean);
        let mut stats = SearchStats::default();
        let res = search(
            &idx,
            s.view(),
            &[0.0, 0.0],
            3,
            &SearchParams::default(),
            &mut |_| true,
            &mut stats,
        );
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, 0);
    }

    #[test]
    fn high_recall_on_random_data() {
        let s = random_store(2000, 16, 11);
        let idx = HnswIndex::build(
            HnswParams { m: 12, ef_construction: 80, seed: 1 },
            s.view(),
            Metric::Euclidean,
        );
        let queries = random_store(30, 16, 99);
        let mut hits = 0;
        let mut total = 0;
        for qi in 0..queries.len() {
            let q = queries.get(qi);
            let mut st = SearchStats::default();
            let exact = brute_force(s.view(), Metric::Euclidean, q, 10, &mut st);
            let approx =
                search(&idx, s.view(), q, 10, &SearchParams::new(128, 1.2), &mut |_| true, &mut st);
            let exact_ids: std::collections::HashSet<u32> = exact.iter().map(|n| n.id).collect();
            total += exact.len();
            hits += approx.iter().filter(|n| exact_ids.contains(&n.id)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.9, "recall@10 = {recall}");
    }

    #[test]
    fn filtered_search_returns_only_accepted() {
        let s = random_store(500, 8, 2);
        let idx = HnswIndex::build(HnswParams::default(), s.view(), Metric::Euclidean);
        let mut stats = SearchStats::default();
        let res = search(
            &idx,
            s.view(),
            s.get(123),
            5,
            &SearchParams::new(128, 1.2),
            &mut |id| (100..200).contains(&id),
            &mut stats,
        );
        assert_eq!(res.len(), 5);
        for r in &res {
            assert!((100..200).contains(&r.id));
        }
        assert_eq!(res[0].id, 123, "the query vector itself is in range");
    }

    #[test]
    fn degree_bounds_hold() {
        let s = random_store(800, 8, 3);
        let params = HnswParams { m: 8, ef_construction: 60, seed: 4 };
        let idx = HnswIndex::build(params, s.view(), Metric::Euclidean);
        for node in &idx.nodes {
            for (layer, links) in node.links.iter().enumerate() {
                let cap = if layer == 0 { 16 } else { 8 };
                assert!(
                    links.len() <= cap,
                    "layer {layer} degree {} exceeds cap {cap}",
                    links.len()
                );
            }
        }
    }

    #[test]
    fn levels_follow_geometric_tail() {
        let s = random_store(3000, 4, 8);
        let idx = HnswIndex::build(HnswParams::default(), s.view(), Metric::Euclidean);
        let level1 = idx.nodes.iter().filter(|n| n.links.len() >= 2).count();
        // With mL = 1/ln(16), P(level ≥ 1) = e^{-ln 16} = 1/16 ≈ 6.25%.
        let frac = level1 as f64 / idx.len() as f64;
        assert!(frac > 0.01 && frac < 0.20, "P(level ≥ 1) = {frac}");
        assert!(idx.max_level >= 1);
    }

    #[test]
    fn memory_accounting_positive() {
        let s = random_store(100, 4, 6);
        let idx = HnswIndex::build(HnswParams::default(), s.view(), Metric::Euclidean);
        assert!(idx.memory_bytes() > 100 * 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = random_store(400, 8, 10);
        let p = HnswParams { m: 8, ef_construction: 40, seed: 77 };
        let a = HnswIndex::build(p, s.view(), Metric::Euclidean);
        let b = HnswIndex::build(p, s.view(), Metric::Euclidean);
        let mut sa = SearchStats::default();
        let mut sb = SearchStats::default();
        let q = s.get(17);
        let ra = search(&a, s.view(), q, 5, &SearchParams::default(), &mut |_| true, &mut sa);
        let rb = search(&b, s.view(), q, 5, &SearchParams::default(), &mut |_| true, &mut sb);
        assert_eq!(ra, rb);
    }
}
