//! Blocks — the nodes of MBI's tree (§4.1).

use crate::config::GraphBackend;
use crate::Timestamp;
use mbi_ann::{
    greedy_search_prepared, greedy_search_sq8_prepared, KnnGraph, Neighbor, SearchParams,
    SearchScratch, SearchStats, VectorView,
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
        Self::build_threaded(backend, view, metric, seed_salt, 1)
    }

    /// Like [`Self::build`] with intra-build parallelism (NNDescent computes
    /// its local-join distances on `threads` workers; results are identical
    /// for every thread count).
    pub fn build_threaded(
        backend: &GraphBackend,
        view: VectorView<'_>,
        metric: Metric,
        seed_salt: u64,
        threads: usize,
    ) -> Self {
        let GraphBackend::NnDescent(p) = backend;
        let params = mbi_ann::NnDescentParams {
            seed: p.seed.wrapping_add(seed_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..*p
        };
        BlockGraph(params.build_threaded(view, metric, threads))
    }

    /// Filtered approximate kNN within the block (Algorithm 2) under a
    /// [`PreparedQuery`], with caller-owned scratch and output buffer — the
    /// hot path used by Algorithm 4's per-block loop. Ids are local to
    /// `view`.
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
        greedy_search_prepared(&self.0, view, pq, k, params, filter, stats, scratch, out)
    }

    /// [`Self::search_prepared`] with the SQ8 quantized first pass + exact
    /// rerank ([`greedy_search_sq8_prepared`]): the search traverses on the
    /// code column. Views without the SQ8 column fall back to exact.
    #[allow(clippy::too_many_arguments)]
    pub fn search_sq8_prepared(
        &self,
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
        greedy_search_sq8_prepared(
            &self.0, view, pq, k, overfetch, params, filter, stats, scratch, out,
        )
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

    /// Whether this block is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.height == 0
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

/// Blocks per sealed [`SharedBlocks`] chunk.
const CHUNK: usize = 64;

/// A persistent (in the data-structure sense) postorder block array.
///
/// The streaming engine used to publish each snapshot with a full
/// `Vec<Arc<Block>>` clone — `O(leaves)` pointer copies *per publication*,
/// `O(leaves²)` over a run, and the dominant publication cost once an index
/// is old (`e2e` watches it as `engine.publish_max_us` against
/// `engine.publish_p50_us`). Here blocks live in sealed chunks of `CHUNK`
/// (64) `Arc`s shared by every snapshot; [`Self::share`] clones one `Arc`
/// plus the `< CHUNK` tail pointers, so publication cost no longer grows
/// with index age.
///
/// The master copy appends with [`Self::push`] / `extend`; sealing a full
/// chunk is `Arc::make_mut` on the chunk list — in-place while unshared,
/// an `O(chunks)` pointer copy (amortised `O(1/CHUNK)` per push) after a
/// snapshot has shared it.
#[derive(Clone, Debug, Default)]
pub struct SharedBlocks {
    /// Sealed chunks of exactly [`CHUNK`] blocks, shared across snapshots.
    sealed: std::sync::Arc<Vec<std::sync::Arc<[std::sync::Arc<Block>]>>>,
    /// Blocks past the last sealed chunk (always `< CHUNK` of them).
    tail: Vec<std::sync::Arc<Block>>,
}

impl SharedBlocks {
    /// An empty array.
    pub fn new() -> Self {
        SharedBlocks::default()
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.tail.len()
    }

    /// Whether the array holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// The block at postorder index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &std::sync::Arc<Block> {
        let sealed_len = self.sealed.len() * CHUNK;
        if i < sealed_len {
            &self.sealed[i / CHUNK][i % CHUNK]
        } else {
            &self.tail[i - sealed_len]
        }
    }

    /// Appends a block, sealing the tail into a shared chunk when it fills.
    pub fn push(&mut self, block: std::sync::Arc<Block>) {
        self.tail.push(block);
        if self.tail.len() == CHUNK {
            let chunk: std::sync::Arc<[std::sync::Arc<Block>]> =
                std::mem::take(&mut self.tail).into();
            std::sync::Arc::make_mut(&mut self.sealed).push(chunk);
        }
    }

    /// A structurally shared copy: one `Arc` clone for every sealed chunk
    /// list plus `< CHUNK` tail pointer clones, independent of [`Self::len`].
    pub fn share(&self) -> Self {
        self.clone()
    }

    /// Iterates the blocks in postorder.
    pub fn iter(&self) -> SharedBlocksIter<'_> {
        self.sealed.iter().flat_map(chunk_iter as ChunkIterFn).chain(self.tail.iter())
    }

    /// Bytes of heap memory held by the array structure and the block index
    /// structures (graphs). Shared blocks are counted once per array that
    /// references them, mirroring `SegmentStore::memory_bytes`.
    pub fn memory_bytes(&self) -> usize {
        let ptr = std::mem::size_of::<std::sync::Arc<Block>>();
        self.iter().map(|b| b.memory_bytes()).sum::<usize>()
            + self.len() * ptr
            + self.sealed.capacity()
                * std::mem::size_of::<std::sync::Arc<[std::sync::Arc<Block>]>>()
    }
}

type ChunkIterFn =
    fn(&std::sync::Arc<[std::sync::Arc<Block>]>) -> std::slice::Iter<'_, std::sync::Arc<Block>>;

fn chunk_iter(
    chunk: &std::sync::Arc<[std::sync::Arc<Block>]>,
) -> std::slice::Iter<'_, std::sync::Arc<Block>> {
    chunk.iter()
}

/// The iterator of [`SharedBlocks::iter`] — nameable so `&SharedBlocks`
/// can implement `IntoIterator` (which `for` loops and `zip` rely on).
pub type SharedBlocksIter<'a> = std::iter::Chain<
    std::iter::FlatMap<
        std::slice::Iter<'a, std::sync::Arc<[std::sync::Arc<Block>]>>,
        std::slice::Iter<'a, std::sync::Arc<Block>>,
        ChunkIterFn,
    >,
    std::slice::Iter<'a, std::sync::Arc<Block>>,
>;

impl<'a> IntoIterator for &'a SharedBlocks {
    type Item = &'a std::sync::Arc<Block>;
    type IntoIter = SharedBlocksIter<'a>;
    fn into_iter(self) -> SharedBlocksIter<'a> {
        self.iter()
    }
}

impl Extend<std::sync::Arc<Block>> for SharedBlocks {
    fn extend<I: IntoIterator<Item = std::sync::Arc<Block>>>(&mut self, iter: I) {
        for block in iter {
            self.push(block);
        }
    }
}

impl FromIterator<std::sync::Arc<Block>> for SharedBlocks {
    fn from_iter<I: IntoIterator<Item = std::sync::Arc<Block>>>(iter: I) -> Self {
        let mut out = SharedBlocks::new();
        out.extend(iter);
        out
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
        assert!(b.is_leaf());
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
    fn shared_blocks_push_get_iter_share() {
        use std::sync::Arc;
        let (_, b) = test_block(4);
        // Enough blocks to seal several chunks plus a partial tail.
        let n = 3 * CHUNK + 17;
        let mut blocks = SharedBlocks::new();
        assert!(blocks.is_empty());
        for i in 0..n {
            let mut bi = b.clone();
            bi.start_ts = i as i64;
            blocks.push(Arc::new(bi));
        }
        assert_eq!(blocks.len(), n);
        assert!(!blocks.is_empty());
        for i in 0..n {
            assert_eq!(blocks.get(i).start_ts, i as i64, "positional access");
        }
        let collected: Vec<i64> = blocks.iter().map(|b| b.start_ts).collect();
        assert_eq!(collected, (0..n as i64).collect::<Vec<_>>(), "iter is in postorder");
        assert!(blocks.memory_bytes() > 0);

        // A share is an immutable snapshot: pushing to the original does not
        // grow it, and the common prefix stays the same allocation.
        let snap = blocks.share();
        blocks.push(Arc::new(b.clone()));
        assert_eq!(snap.len(), n);
        assert_eq!(blocks.len(), n + 1);
        for i in 0..n {
            assert!(Arc::ptr_eq(snap.get(i), blocks.get(i)), "prefix blocks shared");
        }
        // FromIterator/Extend round-trip.
        let rebuilt: SharedBlocks = blocks.iter().cloned().collect();
        assert_eq!(rebuilt.len(), blocks.len());
        assert!(Arc::ptr_eq(rebuilt.get(0), blocks.get(0)));
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
