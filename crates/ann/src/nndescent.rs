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

    /// Builds the approximate kNN graph for all rows of `view`, on the
    /// calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0` while `view` has more than one row.
    pub fn build(&self, view: VectorView<'_>, metric: Metric) -> KnnGraph {
        let n = view.len();
        if n <= 1 {
            return KnnGraph::from_lists(self.degree.max(1), &vec![Vec::new(); n]);
        }
        assert!(self.degree > 0, "NNDescent degree must be positive");
        if n <= self.degree + 1 {
            return exact_graph(view, metric, self.degree);
        }
        Builder::new(self, view, metric).run(self)
    }

    /// The same as [`Self::build`]: the builder is single-threaded, and a
    /// chain's blocks build concurrently instead.
    #[deprecated(note = "same as `build`; removed with ROADMAP item 1")]
    pub fn build_threaded(&self, view: VectorView<'_>, metric: Metric, _: usize) -> KnnGraph {
        self.build(view, metric)
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

/// Top bit of a list slot's id: set until the entry has taken part in a
/// local join (a "new" entry in Dong et al.).
const NEW: u32 = 1 << 31;
/// The id of an empty slot. Empty slots hold `(+∞, EMPTY)`, so they sort
/// after every real entry under the `(dist, id)` order.
const EMPTY: u32 = NEW - 1;

/// Every node's neighbour list in flat `n × k` arrays: node `v`'s list is
/// slots `v·k..(v+1)·k`, sorted ascending by `(dist, id)`, with [`NEW`] in
/// the id's top bit and empty slots last.
struct Lists {
    k: usize,
    dist: Vec<f32>,
    ids: Vec<u32>,
    /// `worst[v]` is the distance in the last slot of `v`'s list.
    worst: Vec<f32>,
}

impl Lists {
    /// Offers `q` to `p`'s list and `p` to `q`'s; returns the inserts made.
    #[inline]
    fn apply(&mut self, p: u32, q: u32, d: f32) -> u64 {
        // Strict: on a tie with a list's last distance the id decides.
        if d > self.worst[p as usize] && d > self.worst[q as usize] {
            return 0;
        }
        u64::from(self.insert(p as usize, q, d)) + u64::from(self.insert(q as usize, p, d))
    }

    /// Inserts `(d, id)` into `v`'s list unless it does not beat the last
    /// entry or is already there; returns whether the list changed. The
    /// duplicate scan and the shift have no early exit, so they compile to
    /// straight-line vector code.
    #[inline(always)]
    fn insert(&mut self, v: usize, id: u32, d: f32) -> bool {
        let k = self.k;
        let (dist, ids) = (&mut self.dist[v * k..][..k], &mut self.ids[v * k..][..k]);
        if (d, id) >= (dist[k - 1], ids[k - 1] & !NEW) {
            return false;
        }
        if ids.iter().fold(0, |dup, &e| dup | u32::from(e & !NEW == id)) != 0 {
            return false;
        }
        let pos = dist.iter().zip(&*ids).take_while(|(&de, &ie)| (de, ie & !NEW) < (d, id)).count();
        for j in (pos + 1..k).rev() {
            (dist[j], ids[j]) = (dist[j - 1], ids[j - 1]);
        }
        (dist[pos], ids[pos]) = (d, id | NEW);
        self.worst[v] = dist[k - 1];
        true
    }
}

/// One side (new or old) of a round's samples.
#[derive(Default)]
struct Samples {
    /// Node `v`'s forward sample is `fwd[v·stride..][..len[v]]`.
    stride: usize,
    fwd: Vec<u32>,
    len: Vec<usize>,
    /// Node `u`'s reverse sample is `rev[offsets[u]..offsets[u + 1]]`: every
    /// `v` whose forward sample holds `u`, in ascending `v`.
    offsets: Vec<usize>,
    rev: Vec<u32>,
}

impl Samples {
    fn new(n: usize, stride: usize) -> Self {
        Samples { stride, fwd: vec![0; n * stride], len: vec![0; n], ..Default::default() }
    }

    fn push(&mut self, v: usize, id: u32) {
        self.fwd[v * self.stride + self.len[v]] = id;
        self.len[v] += 1;
    }

    /// Builds the reverse samples: one counting pass, one placing pass.
    fn reverse(&mut self) {
        let (n, stride, fwd, len) = (self.len.len(), self.stride, &self.fwd, &self.len);
        let edges =
            || (0..n).flat_map(|v| fwd[v * stride..][..len[v]].iter().map(move |&u| (v, u)));
        self.offsets = vec![0; n + 1];
        for (_, u) in edges() {
            self.offsets[u as usize] += 1;
        }
        for v in 0..n {
            self.offsets[v + 1] += self.offsets[v];
        }
        // `offsets[u]` is now the end of `u`'s row: fill it back to front.
        self.rev.resize(self.offsets[n], 0);
        for (v, u) in edges().rev() {
            self.offsets[u as usize] -= 1;
            self.rev[self.offsets[u as usize]] = v as u32;
        }
    }
}

/// A join list: `(id, row)` pairs, sorted by id and deduplicated.
type JoinList<'a> = Vec<(u32, &'a [f32])>;

struct Builder<'a> {
    view: VectorView<'a>,
    metric: Metric,
    rng: SmallRng,
    lists: Lists,
    /// This round's new samples (stride: the new entries sampled per node,
    /// `⌈ρ·k⌉`) and old ones (stride `k`).
    samples: [Samples; 2],
}

impl<'a> Builder<'a> {
    fn new(params: &NnDescentParams, view: VectorView<'a>, metric: Metric) -> Self {
        let (n, k) = (view.len(), params.degree);
        assert!(n < EMPTY as usize, "NNDescent ids must fit in 31 bits");
        let sample = ((params.rho * k as f64).ceil() as usize).max(1);
        let (dist, ids, worst) =
            (vec![f32::INFINITY; n * k], vec![EMPTY; n * k], vec![f32::INFINITY; n]);
        Builder {
            view,
            metric,
            rng: SmallRng::seed_from_u64(params.seed),
            lists: Lists { k, dist, ids, worst },
            samples: [Samples::new(n, sample), Samples::new(n, k)],
        }
    }

    fn run(mut self, params: &NnDescentParams) -> KnnGraph {
        let (n, k) = (self.view.len(), self.lists.k);
        self.init_random();
        let threshold = (params.delta * n as f64 * k as f64).ceil() as u64;
        for _ in 0..params.max_iters {
            if self.iteration() <= threshold {
                break;
            }
        }
        let ids = self.lists.ids.chunks_exact(k);
        let lists = ids.map(|l| l.iter().take_while(|&&id| id != EMPTY).map(|&id| id & !NEW));
        with_ring(k, lists.map(Iterator::collect).collect())
    }

    /// Fills each list with up to `k` random nodes (at most `4k` draws).
    fn init_random(&mut self) {
        let (n, k) = (self.view.len(), self.lists.k);
        for v in 0..n {
            let (mut len, mut tries) = (0, 0);
            while len < k && tries < 4 * k {
                tries += 1;
                let u = self.rng.gen_range(0..n);
                if u != v {
                    let d = self.view.pair_distance(self.metric, v, u);
                    len += usize::from(self.lists.insert(v, u as u32, d));
                }
            }
        }
    }

    /// One NNDescent round; returns the number of successful list updates.
    fn iteration(&mut self) -> u64 {
        let (n, k) = (self.view.len(), self.lists.k);
        // Forward samples: up to `sample` new entries (whose flags are
        // cleared — they have now been used) and all old entries.
        let mut new_idx: Vec<usize> = Vec::with_capacity(k);
        for v in 0..n {
            let [new, old] = &mut self.samples;
            new_idx.clear();
            (new.len[v], old.len[v]) = (0, 0);
            for (j, &id) in self.lists.ids[v * k..][..k].iter().enumerate() {
                if id == EMPTY {
                    break;
                } else if id & NEW != 0 {
                    new_idx.push(j);
                } else {
                    old.push(v, id);
                }
            }
            let taken = subsample(&mut new_idx, new.stride, &mut self.rng);
            for &j in &new_idx[..taken] {
                self.lists.ids[v * k + j] &= !NEW;
                new.push(v, self.lists.ids[v * k + j]);
            }
        }
        self.samples.iter_mut().for_each(Samples::reverse);

        // Each node's join lists are drawn just before its join. The join
        // never draws from the RNG, so the draws still come in node order.
        let (mut lists, mut cand) = Default::default();
        let mut updates = 0;
        for v in 0..n {
            self.join_lists(v, &mut lists);
            updates += self.local_join(&lists, &mut cand);
        }
        updates
    }

    /// Node `v`'s new and old join lists: its forward samples plus `sample`
    /// of each reverse sample.
    fn join_lists(&mut self, v: usize, out: &mut [JoinList<'a>; 2]) {
        let (view, sample) = (self.view, self.samples[0].stride);
        for (list, side) in out.iter_mut().zip(&mut self.samples) {
            let rev = &mut side.rev[side.offsets[v]..side.offsets[v + 1]];
            let taken = subsample(rev, sample, &mut self.rng);
            let fwd = &side.fwd[v * side.stride..][..side.len[v]];
            list.clear();
            list.extend(fwd.iter().chain(&rev[..taken]).map(|&u| (u, view.get(u as usize))));
            list.sort_unstable_by_key(|e| e.0);
            list.dedup_by_key(|e| e.0);
        }
    }

    /// The local join of one node: every new × new and new × old pair in
    /// order, four candidates of one row at a time, each distance applied to
    /// both lists as soon as it is known.
    fn local_join(&mut self, [new, old]: &[JoinList<'a>; 2], cand: &mut JoinList<'a>) -> u64 {
        let mut updates = 0;
        for (i, &(p, a)) in new.iter().enumerate() {
            cand.clear();
            cand.extend_from_slice(&new[i + 1..]);
            cand.extend(old.iter().filter(|e| e.0 != p));
            for quad in cand.chunks(4) {
                for (&(q, _), d) in quad.iter().zip(self.score(p, a, quad)) {
                    updates += self.lists.apply(p, q, d);
                }
            }
        }
        updates
    }

    /// Distances from `p` (row `a`) to up to four candidates, in order. A
    /// short quad repeats its last row in the Euclidean kernel, and the
    /// extra lanes go unused.
    fn score(&self, p: u32, a: &[f32], quad: &[(u32, &[f32])]) -> [f32; 4] {
        if self.metric == Metric::Euclidean {
            let rows = [0, 1, 2, 3].map(|j| quad[j.min(quad.len() - 1)].1);
            return mbi_math::squared_euclidean_x4(a, rows);
        }
        let mut d = [0.0; 4];
        for (slot, &(q, _)) in d.iter_mut().zip(quad) {
            *slot = self.view.pair_distance(self.metric, p as usize, q as usize);
        }
        d
    }
}

/// Moves a uniform random sample of `sample` elements of `v` to its front
/// (partial Fisher–Yates) and returns how many were taken; draws nothing
/// when `v` has at most `sample` elements.
fn subsample<T>(v: &mut [T], sample: usize, rng: &mut SmallRng) -> usize {
    if v.len() <= sample {
        return v.len();
    }
    for i in 0..sample {
        let j = rng.gen_range(i..v.len());
        v.swap(i, j);
    }
    sample
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
    fn subsample_truncates_uniformly() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut v: Vec<u32> = (0..100).collect();
        assert_eq!(subsample(&mut v, 10, &mut rng), 10);
        v.truncate(10);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "sample must not repeat elements");

        let mut small: Vec<u32> = vec![1, 2];
        assert_eq!(subsample(&mut small, 10, &mut rng), 2);
        assert_eq!(small, vec![1, 2]);
    }
}
