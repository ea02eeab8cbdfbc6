//! NNDescent approximate kNN-graph construction (Dong et al., WWW'11).
//!
//! The paper builds every MBI block's graph with NNDescent (§5.1.3) and cites
//! its empirical `O(n^1.14)` build complexity in the indexing-time analysis of
//! §4.4.2. This implementation follows the published algorithm:
//!
//! 1. initialise each node's neighbour list with random nodes;
//! 2. repeatedly perform *local joins*: for every node, take a sample of its
//!    not-yet-used ("new") neighbours plus sampled reverse neighbours, and try
//!    every pair against each other's lists;
//! 3. stop when the number of successful list updates drops below
//!    `delta · n · k` or after `max_iters` rounds.
//!
//! Tiny inputs (`n ≤ degree + 1`) get an exact brute-force graph, which also
//! serves as the correctness oracle in tests.

use crate::graph::KnnGraph;
use crate::store::VectorView;
use mbi_math::Metric;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters for the NNDescent builder.
///
/// ```
/// use mbi_ann::{NnDescentParams, VectorStore};
/// use mbi_math::Metric;
///
/// let mut store = VectorStore::new(2);
/// for i in 0..200 {
///     store.push(&[i as f32, 0.0]);
/// }
/// let graph = NnDescentParams::with_degree(8).build(store.view(), Metric::Euclidean);
/// assert_eq!(graph.node_count(), 200);
/// // Node 100's nearest neighbours on a line are its immediate siblings.
/// assert!(graph.neighbors(100).contains(&99) || graph.neighbors(100).contains(&101));
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NnDescentParams {
    /// Neighbour-list size `k'` (the graph's out-degree). Table 3 uses
    /// 64–512 depending on dataset; scaled-down reproductions use less.
    pub degree: usize,
    /// Sample rate `ρ` for the local join (fraction of `degree`).
    pub rho: f64,
    /// Convergence threshold `δ`: stop when updates `< δ·n·degree`.
    pub delta: f64,
    /// Hard cap on iterations.
    pub max_iters: usize,
    /// RNG seed — NNDescent is randomised; a fixed seed makes builds (and
    /// therefore every experiment) reproducible.
    pub seed: u64,
}

impl Default for NnDescentParams {
    fn default() -> Self {
        NnDescentParams { degree: 24, rho: 0.5, delta: 0.001, max_iters: 12, seed: 0x5EED_1234 }
    }
}

impl NnDescentParams {
    /// Convenience constructor fixing only the degree.
    pub fn with_degree(degree: usize) -> Self {
        NnDescentParams { degree, ..Default::default() }
    }

    /// Builds the approximate kNN graph for all rows of `view`.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0` while `view` has more than one row.
    pub fn build(&self, view: VectorView<'_>, metric: Metric) -> KnnGraph {
        self.build_threaded(view, metric, 1)
    }

    /// Like [`Self::build`], computing the local-join distances on `threads`
    /// worker threads (§4.2 "Parallelization of MBI" builds block graphs in
    /// parallel; this is the intra-block half of that story). The result is
    /// **bit-identical** for every thread count — updates are applied in a
    /// normalized order — so parallelism is purely a wall-clock optimisation.
    pub fn build_threaded(&self, view: VectorView<'_>, metric: Metric, threads: usize) -> KnnGraph {
        let n = view.len();
        if n <= 1 {
            return KnnGraph::from_lists(self.degree.max(1), &vec![Vec::new(); n]);
        }
        assert!(self.degree > 0, "NNDescent degree must be positive");
        if n <= self.degree + 1 {
            return exact_graph(view, metric, self.degree);
        }
        Builder::new(self, view, metric, threads).run()
    }
}

/// Exact kNN graph by brute force — used for tiny blocks and as a test oracle.
pub(crate) fn exact_graph(view: VectorView<'_>, metric: Metric, degree: usize) -> KnnGraph {
    let n = view.len();
    let mut lists = Vec::with_capacity(n);
    for i in 0..n {
        let mut all: Vec<(f32, u32)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| (view.pair_distance(metric, i, j), j as u32))
            .collect();
        all.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        lists.push(all.into_iter().take(degree).map(|(_, j)| j).collect());
    }
    with_ring(degree, lists)
}

/// Adds a ring edge `i → (i + 1) mod n` to every node that lacks it,
/// guaranteeing the graph is strongly connected.
///
/// A pure kNN graph over clustered data can split into per-cluster islands,
/// making greedy search (Algorithm 2) unable to leave the entry point's
/// cluster. Production graph indexes guard against this explicitly (NSG/
/// Vamana connect a spanning tree from the medoid; NGT keeps an incremental
/// connected graph); a ring over the time-ordered rows is the cheapest
/// equivalent: one extra neighbour slot, and because rows are time-ordered,
/// ring hops also follow the data's temporal drift. See DESIGN.md.
fn with_ring(degree: usize, mut lists: Vec<Vec<u32>>) -> KnnGraph {
    let n = lists.len();
    if n < 2 {
        return KnnGraph::from_lists(degree.max(1), &lists);
    }
    for (i, list) in lists.iter_mut().enumerate() {
        let next = ((i + 1) % n) as u32;
        list.truncate(degree);
        if !list.contains(&next) {
            list.push(next);
        }
    }
    KnnGraph::from_lists(degree + 1, &lists)
}

/// One entry of a node's candidate neighbour list.
#[derive(Clone, Copy)]
struct Entry {
    id: u32,
    dist: f32,
    /// True until the entry has participated in a local join.
    is_new: bool,
}

struct Builder<'a> {
    params: &'a NnDescentParams,
    view: VectorView<'a>,
    metric: Metric,
    /// `lists[v]` is sorted ascending by `(dist, id)`, capped at `degree`.
    lists: Vec<Vec<Entry>>,
    rng: SmallRng,
    threads: usize,
}

impl<'a> Builder<'a> {
    fn new(
        params: &'a NnDescentParams,
        view: VectorView<'a>,
        metric: Metric,
        threads: usize,
    ) -> Self {
        Builder {
            params,
            view,
            metric,
            lists: Vec::new(),
            rng: SmallRng::seed_from_u64(params.seed),
            threads,
        }
    }

    fn run(mut self) -> KnnGraph {
        let n = self.view.len();
        let k = self.params.degree;
        self.init_random();

        let sample = ((self.params.rho * k as f64).ceil() as usize).max(1);
        let threshold = (self.params.delta * n as f64 * k as f64).ceil() as u64;

        for _ in 0..self.params.max_iters {
            let updates = self.iteration(sample);
            if updates <= threshold {
                break;
            }
        }

        let lists: Vec<Vec<u32>> =
            self.lists.iter().map(|l| l.iter().map(|e| e.id).collect()).collect();
        with_ring(k, lists)
    }

    fn init_random(&mut self) {
        let n = self.view.len();
        let k = self.params.degree;
        self.lists = Vec::with_capacity(n);
        for v in 0..n {
            let mut list: Vec<Entry> = Vec::with_capacity(k + 1);
            let mut tries = 0;
            while list.len() < k.min(n - 1) && tries < 4 * k {
                tries += 1;
                let u = self.rng.gen_range(0..n);
                if u == v || list.iter().any(|e| e.id == u as u32) {
                    continue;
                }
                let dist = self.view.pair_distance(self.metric, v, u);
                list.push(Entry { id: u as u32, dist, is_new: true });
            }
            list.sort_unstable_by(|a, b| {
                (a.dist, a.id).partial_cmp(&(b.dist, b.id)).expect("finite")
            });
            self.lists.push(list);
        }
    }

    /// One NNDescent round; returns the number of successful list updates.
    fn iteration(&mut self, sample: usize) -> u64 {
        let n = self.view.len();

        // Forward samples: up to `sample` new entries (whose flags we clear —
        // they have now been "used") and all old entries.
        let mut new_fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut old_fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n {
            let mut new_idx: Vec<usize> = Vec::new();
            for (i, e) in self.lists[v].iter().enumerate() {
                if e.is_new {
                    new_idx.push(i);
                } else {
                    old_fwd[v].push(e.id);
                }
            }
            // Reservoir-sample `sample` of the new entries.
            subsample(&mut new_idx, sample, &mut self.rng);
            for &i in &new_idx {
                let e = &mut self.lists[v][i];
                e.is_new = false;
                new_fwd[v].push(e.id);
            }
        }

        // Reverse lists.
        let mut new_rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut old_rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n {
            for &u in &new_fwd[v] {
                new_rev[u as usize].push(v as u32);
            }
            for &u in &old_fwd[v] {
                old_rev[u as usize].push(v as u32);
            }
        }

        // Per-node join lists (snapshot for this whole round; pair
        // generation below is pure, which is what makes the threaded path
        // bit-identical to the serial one).
        let mut joins: Vec<(Vec<u32>, Vec<u32>)> = Vec::with_capacity(n);
        for v in 0..n {
            let mut new_list: Vec<u32> = Vec::new();
            let mut old_list: Vec<u32> = Vec::new();
            new_list.extend_from_slice(&new_fwd[v]);
            subsample(&mut new_rev[v], sample, &mut self.rng);
            new_list.extend_from_slice(&new_rev[v]);
            new_list.sort_unstable();
            new_list.dedup();

            old_list.extend_from_slice(&old_fwd[v]);
            subsample(&mut old_rev[v], sample, &mut self.rng);
            old_list.extend_from_slice(&old_rev[v]);
            old_list.sort_unstable();
            old_list.dedup();
            joins.push((new_list, old_list));
        }

        // Local joins (new × new and new × old), batched: distances for a
        // batch of nodes are computed first — in parallel when `threads > 1`;
        // distance evaluation is the dominant cost — and the resulting
        // updates are applied strictly in node/pair order afterwards. The
        // apply order therefore matches the serial algorithm exactly, so the
        // built graph is identical for every thread count.
        let mut updates = 0u64;
        let batch_nodes = (4096 / sample.max(1)).clamp(64, 2048) * self.threads.max(1);
        let mut evals: Vec<(u32, u32, f32)> = Vec::new();
        let mut start = 0usize;
        while start < n {
            let end = (start + batch_nodes).min(n);
            evals.clear();
            self.eval_batch(&joins[start..end], &mut evals);
            for &(p, q, d) in &evals {
                if Self::insert(&mut self.lists[p as usize], self.params.degree, q, d) {
                    updates += 1;
                }
                if Self::insert(&mut self.lists[q as usize], self.params.degree, p, d) {
                    updates += 1;
                }
            }
            start = end;
        }
        updates
    }

    /// Computes the distances of every join pair in `batch`, appending
    /// `(p, q, σ(p, q))` triples to `out` in node/pair order. Splits the
    /// batch across `self.threads` worker threads.
    fn eval_batch(&self, batch: &[(Vec<u32>, Vec<u32>)], out: &mut Vec<(u32, u32, f32)>) {
        let view = self.view;
        let metric = self.metric;
        let eval_node = |(new_list, old_list): &(Vec<u32>, Vec<u32>),
                         out: &mut Vec<(u32, u32, f32)>| {
            for i in 0..new_list.len() {
                let p = new_list[i];
                for &q in &new_list[i + 1..] {
                    let d = view.pair_distance(metric, p as usize, q as usize);
                    out.push((p, q, d));
                }
                for &q in old_list {
                    if p != q {
                        let d = view.pair_distance(metric, p as usize, q as usize);
                        out.push((p, q, d));
                    }
                }
            }
        };

        let threads = self.threads.max(1);
        if threads == 1 || batch.len() < 2 * threads {
            for node in batch {
                eval_node(node, out);
            }
            return;
        }
        let chunk = batch.len().div_ceil(threads);
        let eval_chunk = |nodes: &[(Vec<u32>, Vec<u32>)]| {
            let mut local = Vec::new();
            for node in nodes {
                eval_node(node, &mut local);
            }
            local
        };
        let mut partials: Vec<Vec<(u32, u32, f32)>> = Vec::new();
        std::thread::scope(|scope| {
            // A chunk whose thread the OS refuses is evaluated on this
            // thread instead, in its turn: the pairs are the same either way.
            let handles: Vec<_> = batch
                .chunks(chunk)
                .map(|nodes| {
                    std::thread::Builder::new()
                        .spawn_scoped(scope, move || eval_chunk(nodes))
                        .map_err(|_| nodes)
                })
                .collect();
            for h in handles {
                partials.push(match h {
                    Ok(h) => h.join().expect("NNDescent worker panicked"),
                    Err(nodes) => eval_chunk(nodes),
                });
            }
        });
        for mut p in partials {
            out.append(&mut p);
        }
    }

    /// Inserts `(id, dist)` into a sorted bounded list; returns whether the
    /// list changed.
    fn insert(list: &mut Vec<Entry>, cap: usize, id: u32, dist: f32) -> bool {
        if let Some(last) = list.last() {
            if list.len() == cap && (dist, id) >= (last.dist, last.id) {
                return false;
            }
        }
        if list.iter().any(|e| e.id == id) {
            return false;
        }
        let pos = list
            .binary_search_by(|e| (e.dist, e.id).partial_cmp(&(dist, id)).expect("finite"))
            .unwrap_err();
        list.insert(pos, Entry { id, dist, is_new: true });
        if list.len() > cap {
            list.pop();
        }
        true
    }
}

/// Truncates `v` to a uniform random sample of `sample` elements (in place).
fn subsample<T>(v: &mut Vec<T>, sample: usize, rng: &mut SmallRng) {
    if v.len() <= sample {
        return;
    }
    // Partial Fisher–Yates: move a random remaining element into each of the
    // first `sample` slots.
    for i in 0..sample {
        let j = rng.gen_range(i..v.len());
        v.swap(i, j);
    }
    v.truncate(sample);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VectorStore;

    fn grid_store(n: usize) -> VectorStore {
        // Points on a line: the true nearest neighbours of i are i±1, i±2, …
        let mut s = VectorStore::new(2);
        for i in 0..n {
            s.push(&[i as f32, 0.0]);
        }
        s
    }

    #[test]
    fn tiny_input_gets_exact_graph() {
        let s = grid_store(5);
        let g = NnDescentParams::with_degree(8).build(s.view(), Metric::Euclidean);
        assert_eq!(g.node_count(), 5);
        // With degree 8 > n-1 everyone is connected to everyone.
        for i in 0..5u32 {
            assert_eq!(g.neighbors(i).len(), 4);
        }
        // Nearest neighbour of 2 is 1 or 3.
        let n0 = g.neighbors(2)[0];
        assert!(n0 == 1 || n0 == 3);
    }

    #[test]
    fn empty_and_single_inputs() {
        let s = VectorStore::new(3);
        let g = NnDescentParams::default().build(s.view(), Metric::Euclidean);
        assert_eq!(g.node_count(), 0);

        let mut s1 = VectorStore::new(3);
        s1.push(&[1.0, 2.0, 3.0]);
        let g1 = NnDescentParams::default().build(s1.view(), Metric::Euclidean);
        assert_eq!(g1.node_count(), 1);
        assert!(g1.neighbors(0).is_empty());
    }

    #[test]
    fn recovers_line_neighbours() {
        let s = grid_store(300);
        let params = NnDescentParams { degree: 8, seed: 7, ..Default::default() };
        let g = params.build(s.view(), Metric::Euclidean);
        // Measure neighbour recall against the exact graph: on a line the
        // true 8 nearest of i are within |i - j| <= 4..8 of i.
        let mut hits = 0usize;
        let mut total = 0usize;
        for i in 0..300i64 {
            for &j in g.neighbors(i as u32) {
                total += 1;
                if (i - j as i64).abs() <= 8 {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.90, "neighbour recall too low: {recall}");
    }

    #[test]
    fn deterministic_given_seed() {
        let s = grid_store(120);
        let params = NnDescentParams { degree: 6, seed: 99, ..Default::default() };
        let g1 = params.build(s.view(), Metric::Euclidean);
        let g2 = params.build(s.view(), Metric::Euclidean);
        assert_eq!(g1, g2);
    }

    #[test]
    fn respects_degree_budget() {
        let s = grid_store(100);
        let params = NnDescentParams { degree: 5, seed: 3, ..Default::default() };
        let g = params.build(s.view(), Metric::Euclidean);
        // degree 5 plus the connectivity ring edge.
        for i in 0..100u32 {
            assert!(g.neighbors(i).len() <= 6);
            assert!(!g.neighbors(i).contains(&i), "self-loop at {i}");
        }
    }

    #[test]
    fn works_with_angular_metric() {
        let mut s = VectorStore::new(4);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..150 {
            let v: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            s.push(&v);
        }
        let g = NnDescentParams { degree: 10, seed: 1, ..Default::default() }
            .build(s.view(), Metric::Angular);
        assert_eq!(g.node_count(), 150);
        for i in 0..150u32 {
            assert!(!g.neighbors(i).is_empty());
        }
    }

    #[test]
    fn threaded_build_is_bit_identical_to_serial() {
        let mut s = VectorStore::new(8);
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..600 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            s.push(&v);
        }
        let params = NnDescentParams { degree: 10, seed: 5, ..Default::default() };
        let serial = params.build_threaded(s.view(), Metric::Euclidean, 1);
        for threads in [2usize, 3, 8] {
            let par = params.build_threaded(s.view(), Metric::Euclidean, threads);
            assert_eq!(serial, par, "threads = {threads} diverged");
        }
    }

    #[test]
    fn subsample_truncates_uniformly() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut v: Vec<u32> = (0..100).collect();
        subsample(&mut v, 10, &mut rng);
        assert_eq!(v.len(), 10);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "sample must not repeat elements");

        let mut small: Vec<u32> = vec![1, 2];
        subsample(&mut small, 10, &mut rng);
        assert_eq!(small, vec![1, 2]);
    }
}
