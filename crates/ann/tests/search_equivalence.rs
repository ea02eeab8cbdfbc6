//! The graph search against the loop it replaced.
//!
//! `reference_search` below is Algorithm 2 as `greedy_search_prepared` ran
//! it before the loop was rewritten for the memory system: it trims each
//! adjacency row at its first padding slot, gathers unseen neighbours with a
//! branch per slot, scores rows through the prepared query's per-metric
//! entry points, inserts candidates by binary search and hashes the query
//! for every search. It is kept here, and only here, as the specification
//! the rewritten loop must meet bit for bit.
//!
//! Each case draws a random padded graph, a range or an arbitrary filter, a
//! `Fixed` or `QueryHash` entry, `M_C` in 1–200, `ε` in 1.0–1.5 and `k` in
//! 1–20, under all three metrics (angular with and without the norm
//! column), over a contiguous, a segmented or a row- and chunk-checked
//! `FileMap` view. Both searches must return the same `(id, dist bits)`,
//! the same `SearchStats`, and call the filter on the same ids in the same
//! order — the visit order.

use mbi_ann::{
    greedy_search_prepared, Col, EntryPolicy, FileMap, KnnGraph, Metric, Neighbor, PreparedQuery,
    SearchParams, SearchScratch, SearchStats, Segment, SegmentStore, VectorStore, VectorView,
    ADJACENCY_CHUNK,
};
use mbi_math::{crc32, OrderedF32, TopK};
use proptest::prelude::*;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Pivots of `EntryPolicy::QueryHash`, as in the search.
const PIVOTS: usize = 64;

/// FNV-1a over the query's raw bits: the entry hash of the old loop.
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

/// The old per-row scorer: the prepared query's cached-norm path on an
/// angular row with the column, its plain path otherwise.
fn reference_distance(view: VectorView<'_>, pq: &PreparedQuery<'_>, i: usize) -> f32 {
    match view.row_with_inv(i) {
        (row, Some(inv)) if pq.metric() == Metric::Angular => pq.distance_to_cached(row, inv),
        (row, _) => pq.distance_to(row),
    }
}

/// Algorithm 2 as the search ran it before the rewrite (see the module
/// docs), without its prefetch hints, which change no value.
#[allow(clippy::too_many_arguments)]
fn reference_search(
    graph: &KnnGraph,
    view: VectorView<'_>,
    pq: &PreparedQuery<'_>,
    k: usize,
    params: &SearchParams,
    filter: &mut dyn FnMut(u32) -> bool,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let n = graph.node_count();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let mut visited = vec![false; n];
    let mut candidates: Vec<(OrderedF32, u32)> = Vec::new();
    let mut results = TopK::new(k);
    let mut ids: Vec<u32> = Vec::new();
    match params.entry {
        EntryPolicy::Fixed(id) => ids.push((id as usize).min(n - 1) as u32),
        EntryPolicy::QueryHash => {
            let pivots = n.min(PIVOTS);
            let (h, stride) = ((hash_query(pq.query()) % n as u64) as usize, n / pivots);
            ids.extend((0..pivots).map(|i| ((h + i * stride) % n) as u32));
        }
    }
    for &s in &ids {
        visited[s as usize] = true;
        candidates.push((OrderedF32(reference_distance(view, pq, s as usize)), s));
    }
    stats.dist_evals += ids.len() as u64;
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    let excess = candidates.len().saturating_sub(params.max_candidates.max(1));
    candidates.drain(..excess);

    while let Some(&(dist, id)) = candidates.last() {
        if results.is_full() && dist.get() > params.epsilon * results.worst() {
            break;
        }
        candidates.pop();
        stats.visited += 1;
        if filter(id) {
            results.offer(id, dist.get());
        }
        let bound =
            if results.is_full() { params.epsilon * results.worst() } else { f32::INFINITY };
        ids.clear();
        for &nb in graph.neighbors(id) {
            if !visited[nb as usize] {
                visited[nb as usize] = true;
                ids.push(nb);
            }
        }
        let distances: Vec<f32> =
            ids.iter().map(|&nb| reference_distance(view, pq, nb as usize)).collect();
        stats.dist_evals += ids.len() as u64;
        for (&nb, &d) in ids.iter().zip(&distances) {
            if d < bound {
                let key = (OrderedF32(d), nb);
                let pos = candidates.binary_search_by(|probe| key.cmp(probe)).unwrap_or_else(|e| e);
                candidates.insert(pos, key);
            }
        }
        if candidates.len() > params.max_candidates {
            let excess = candidates.len() - params.max_candidates;
            candidates.drain(..excess);
        }
    }
    results.into_sorted_vec()
}

/// SplitMix64: the case's data, graph and filter follow from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// `n` rows of `dim` floats. With `ties`, each float is one of five small
/// integers, so equal distances and zero vectors are common and the
/// `(dist, id)` tie-break and the angular zero-vector sentinel are hit.
fn random_rows(rng: &mut Rng, n: usize, dim: usize, ties: bool) -> Vec<f32> {
    (0..n * dim)
        .map(|_| if ties { rng.below(5) as f32 - 2.0 } else { rng.unit() * 2.0 - 1.0 })
        .collect()
}

/// A graph as the builder pads it: each node lists 0..=`degree` random ids
/// below `n` (duplicates and self loops included), padded at the tail.
fn random_graph(rng: &mut Rng, n: usize, degree: usize) -> KnnGraph {
    let lists: Vec<Vec<u32>> =
        (0..n).map(|_| (0..rng.below(degree + 1)).map(|_| rng.below(n) as u32).collect()).collect();
    KnnGraph::from_lists(degree, &lists)
}

/// Appends `words` as little-endian bytes; returns their offset.
fn put(bytes: &mut Vec<u8>, words: impl IntoIterator<Item = u32>) -> usize {
    let off = bytes.len();
    for w in words {
        bytes.extend(w.to_le_bytes());
    }
    off
}

/// The store behind a case's view: flat, or segments (plain or checked).
enum Rows {
    Flat(VectorStore),
    Segments(SegmentStore),
}

impl Rows {
    fn slice(&self, range: std::ops::Range<usize>) -> VectorView<'_> {
        match self {
            Rows::Flat(store) => store.slice(range),
            Rows::Segments(store) => store.slice(range),
        }
    }
}

/// Rows and graph of one case. `shape` 0 is a flat store, 1 a store of
/// `seg_rows`-row segments, and 2 the same segments over a `FileMap`, each
/// row checked on first read, with the graph's edges in the same map,
/// each adjacency chunk checked on first expansion.
fn fixture(
    flat: &[f32],
    dim: usize,
    norms: bool,
    seg_rows: usize,
    shape: usize,
    graph: KnnGraph,
) -> (Rows, KnnGraph) {
    let mut store = VectorStore::from_flat(dim, flat.to_vec());
    if norms {
        store.enable_norm_cache();
    }
    if shape == 0 {
        return (Rows::Flat(store), graph);
    }
    let mut segments = SegmentStore::new(dim, seg_rows);
    if shape == 1 {
        for start in (0..store.len()).step_by(seg_rows) {
            let end = (start + seg_rows).min(store.len());
            segments.push_segment(Arc::new(Segment::from_view(store.slice(start..end))));
        }
        return (Rows::Segments(segments), graph);
    }

    let row_bytes = dim * size_of::<f32>();
    let mut bytes = Vec::new();
    let mut cols = Vec::new();
    for start in (0..store.len()).step_by(seg_rows) {
        let end = (start + seg_rows).min(store.len());
        let rows = &store.as_flat()[start * dim..end * dim];
        let data = put(&mut bytes, rows.iter().map(|x| x.to_bits()));
        let inv = store
            .inv_norms()
            .map(|inv| put(&mut bytes, inv[start..end].iter().map(|x| x.to_bits())));
        let crcs: Vec<u32> = (0..end - start)
            .map(|r| crc32(&bytes[data + r * row_bytes..data + (r + 1) * row_bytes]))
            .collect();
        let crc = put(&mut bytes, crcs);
        cols.push((data, inv, crc, end - start));
    }
    let edges = graph.as_flat();
    let at = put(&mut bytes, edges.iter().copied());
    let chunk_bytes = ADJACENCY_CHUNK * graph.degree() * size_of::<u32>();
    let edge_bytes = size_of_val(edges);
    let chunk_crcs: Vec<u32> = (0..edge_bytes.div_ceil(chunk_bytes))
        .map(|c| crc32(&bytes[at + c * chunk_bytes..at + ((c + 1) * chunk_bytes).min(edge_bytes)]))
        .collect();
    let chunks = chunk_crcs.len();
    let chunk_crc = put(&mut bytes, chunk_crcs);

    let map = Arc::new(FileMap::from_bytes(bytes));
    let checked = Arc::new(AtomicU64::new(0));
    let floats = |off, len| Col::<f32>::mapped(Arc::clone(&map), off, len).unwrap();
    let words = |off, len| Col::<u32>::mapped(Arc::clone(&map), off, len).unwrap();
    for (data, inv, crc, rows) in cols {
        let seg = Segment::from_cols(dim, floats(data, rows * dim), inv.map(|at| floats(at, rows)));
        let seg = seg.with_row_check(words(crc, rows), Arc::clone(&checked));
        segments.push_segment(Arc::new(seg));
    }
    let n = graph.node_count() as u32;
    let checked_graph = KnnGraph::from_flat(graph.degree(), words(at, edges.len()))
        .with_chunk_check(words(chunk_crc, chunks), n, checked);
    (Rows::Segments(segments), checked_graph)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The rewritten search returns what the old loop returns, bit for bit,
    /// with the same counters and the same visit order.
    #[test]
    fn the_search_matches_the_old_loop(
        seed in any::<u64>(),
        n in 1usize..300,
        dim in 1usize..24,
        degree in 1usize..20,
        max_candidates in 1usize..=200,
        epsilon in 1.0f32..=1.5,
        k in 1usize..=20,
        metric in 0usize..4,
        shape in 0usize..3,
        filter_kind in 0usize..3,
    ) {
        let mut rng = Rng(seed);
        // Metric 3 is angular over rows without the norm column.
        let (metric, norms) = match metric {
            0 => (Metric::Euclidean, false),
            1 => (Metric::InnerProduct, false),
            2 => (Metric::Angular, true),
            _ => (Metric::Angular, false),
        };
        let ties = rng.below(2) == 0;
        // The view is rows `skip..skip + n` of a store with `extra` more.
        let (skip, extra) = (rng.below(8), rng.below(8));
        let flat = random_rows(&mut rng, skip + n + extra, dim, ties);
        let seg_rows = 1 + rng.below(n + skip);
        let graph = random_graph(&mut rng, n, degree);
        let (rows, graph) = fixture(&flat, dim, norms, seg_rows, shape, graph);
        let view = rows.slice(skip..skip + n);

        let entry = if rng.below(2) == 0 {
            EntryPolicy::QueryHash
        } else {
            EntryPolicy::Fixed(rng.below(2 * n) as u32)
        };
        let params = SearchParams { max_candidates, epsilon, entry };
        let query = match rng.below(4) {
            0 => flat[(skip + rng.below(n)) * dim..][..dim].to_vec(),
            1 => vec![0.0; dim],
            _ => random_rows(&mut rng, 1, dim, ties),
        };
        let (lo, hi) = {
            let (a, b) = (rng.below(n + 1) as u32, rng.below(n + 1) as u32);
            (a.min(b), a.max(b))
        };
        let mask: Vec<bool> = {
            let density = rng.below(101);
            (0..n).map(|_| rng.below(100) < density).collect()
        };
        let accept = |id: u32| match filter_kind {
            0 => true,
            1 => (lo..hi).contains(&id),
            _ => mask[id as usize],
        };
        let case = format!(
            "seed {seed} n {n} dim {dim} degree {degree} {params:?} k {k} {metric} \
             norms {norms} shape {shape} filter {filter_kind}"
        );

        let pq = PreparedQuery::new(metric, &query);
        let (mut want_visits, mut want_stats) = (Vec::new(), SearchStats::default());
        let want = reference_search(&graph, view, &pq, k, &params, &mut |id| {
            want_visits.push(id);
            accept(id)
        }, &mut want_stats);

        // Twice on one scratch: the second search must not see the first.
        let mut scratch = SearchScratch::new();
        for pass in 0..2 {
            let (mut visits, mut stats, mut out) = (Vec::new(), SearchStats::default(), Vec::new());
            let pq = PreparedQuery::new(metric, &query);
            let mut filter = |id: u32| {
                visits.push(id);
                accept(id)
            };
            greedy_search_prepared(
                &graph, view, &pq, k, &params, &mut filter, &mut stats, &mut scratch, &mut out,
            );
            let bits = |r: &[Neighbor]| r.iter().map(|x| (x.id, x.dist.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(&out), bits(&want), "answers, pass {}: {}", pass, case);
            prop_assert_eq!(stats, want_stats, "counters, pass {}: {}", pass, case);
            prop_assert_eq!(visits, want_visits.clone(), "visit order, pass {}: {}", pass, case);
        }
        prop_assert_eq!(graph.check_failures(), 0, "{}", case);
    }
}
