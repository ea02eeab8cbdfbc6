//! Blocks — the nodes of MBI's tree (§4.1).

use crate::config::GraphBackend;
use crate::Timestamp;
use mbi_ann::{
    greedy_search_prepared, KnnGraph, Neighbor, SearchParams, SearchScratch, SearchStats,
    VectorView,
};
use mbi_math::{Metric, PreparedQuery};

/// The graph index of one block: the NNDescent kNN graph of §4.1, searched
/// with Algorithm 2.
#[derive(Clone, Debug)]
pub struct BlockGraph(pub KnnGraph);

impl BlockGraph {
    /// Builds a graph over `view` with the configured NNDescent parameters.
    ///
    /// `seed_salt` (derived from the block id) decorrelates the randomised
    /// builds of different blocks while keeping everything reproducible.
    pub fn build(
        backend: &GraphBackend,
        view: VectorView<'_>,
        metric: Metric,
        seed_salt: u64,
    ) -> Self {
        let GraphBackend::NnDescent(p) = backend;
        let params = mbi_ann::NnDescentParams {
            seed: p.seed.wrapping_add(seed_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..*p
        };
        BlockGraph(params.build(view, metric))
    }

    /// Filtered approximate kNN within the block (Algorithm 2) under a
    /// [`PreparedQuery`], with caller-owned scratch and output buffer — the
    /// hot path used by Algorithm 4's per-block loop. Ids are local to
    /// `view`.
    #[allow(clippy::too_many_arguments)]
    pub fn search_prepared<F: FnMut(u32) -> bool + ?Sized>(
        &self,
        view: VectorView<'_>,
        pq: &PreparedQuery<'_>,
        k: usize,
        params: &SearchParams,
        filter: &mut F,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    ) {
        greedy_search_prepared(&self.0, view, pq, k, params, filter, stats, scratch, out)
    }

    /// Bytes of heap memory used by the graph structure.
    pub fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

/// One node of the MBI tree: `B_i = (D_i, G_i)` of the paper.
///
/// `D_i` is not copied — it is the row range `rows` of the global store
/// (possible because insertion order equals timestamp order). `G_i` is the
/// per-block [`BlockGraph`]. Blocks are stored in creation order, which is a
/// postorder traversal of the tree; `height` is 0 for leaves.
#[derive(Clone, Debug)]
pub struct Block {
    /// Global row range `[start, end)` of the vectors this block covers.
    pub rows: std::ops::Range<usize>,
    /// Height in the tree (leaf = 0); the block spans `2^height` leaves.
    pub height: u32,
    /// Earliest timestamp in the block (`B_i.t_s`).
    pub start_ts: Timestamp,
    /// Exclusive upper timestamp (`B_i.t_e`): one past the latest timestamp.
    pub end_ts: Timestamp,
    /// The block's graph index `G_i`.
    pub graph: BlockGraph,
}

impl Block {
    /// Number of vectors in the block.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the block is empty (never true for materialised blocks).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The timestamp span `B_i.t_e − B_i.t_s` (denominator of the overlap
    /// ratio; always ≥ 1 because `end_ts` is exclusive).
    pub fn span(&self) -> i64 {
        self.end_ts - self.start_ts
    }

    /// Bytes of heap memory attributable to this block's index structure.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes() + std::mem::size_of::<Block>()
    }

    /// What block selection reads: `(start_ts, end_ts, height)`.
    pub(crate) fn select_meta(&self) -> (Timestamp, Timestamp, u32) {
        (self.start_ts, self.end_ts, self.height)
    }

    /// The block's directory entry: everything but its graph.
    pub(crate) fn entry(&self) -> crate::index::BlockEntry<'_> {
        (&self.rows, self.height, self.start_ts, self.end_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbi_ann::VectorStore;

    fn store(n: usize) -> VectorStore {
        let mut s = VectorStore::new(2);
        for i in 0..n {
            s.push(&[i as f32, 0.0]);
        }
        s
    }

    /// Unfiltered Euclidean search through [`BlockGraph::search_prepared`].
    fn search(
        g: &BlockGraph,
        view: VectorView<'_>,
        q: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Vec<Neighbor> {
        let pq = PreparedQuery::new(Metric::Euclidean, q);
        let (mut stats, mut scratch, mut out) =
            (SearchStats::default(), SearchScratch::new(), Vec::new());
        g.search_prepared(view, &pq, k, params, &mut |_| true, &mut stats, &mut scratch, &mut out);
        out
    }

    fn test_block(n: usize) -> (VectorStore, Block) {
        let s = store(n);
        let g = BlockGraph::build(&GraphBackend::default(), s.view(), Metric::Euclidean, 0);
        let b = Block { rows: 0..n, height: 0, start_ts: 0, end_ts: n as i64, graph: g };
        (s, b)
    }

    #[test]
    fn block_geometry() {
        let (_, b) = test_block(16);
        assert_eq!(b.len(), 16);
        assert!(!b.is_empty());
        assert_eq!(b.height, 0);
        assert_eq!(b.span(), 16);
        assert!(b.memory_bytes() > 0);
    }

    #[test]
    fn block_graph_search_finds_neighbors() {
        let (s, b) = test_block(64);
        let res = search(&b.graph, s.view(), &[31.8, 0.0], 3, &SearchParams::new(32, 1.2));
        assert_eq!(res[0].id, 32);
    }

    #[test]
    fn same_salt_is_deterministic() {
        // (Different salts may still converge to identical graphs on easy
        // data — NNDescent often reaches the exact kNN graph — so the
        // guaranteed property is determinism per salt, not divergence.)
        let s = store(300);
        let a = BlockGraph::build(&GraphBackend::default(), s.view(), Metric::Euclidean, 7);
        let b = BlockGraph::build(&GraphBackend::default(), s.view(), Metric::Euclidean, 7);
        let (BlockGraph(ga), BlockGraph(gb)) = (&a, &b);
        assert_eq!(ga.as_flat(), gb.as_flat());
    }
}
