//! The adjacency structure of graph-based ANN search.

use crate::check::{ChunkCheck, ChunkFault};
use crate::mapped::Col;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Vertices per checked chunk of a mapped adjacency: a vertex's list never
/// spans two chunks, and a chunk is checked the first time a search expands
/// one of its vertices. At degree 17 a chunk is 1 088 bytes, and its CRC
/// costs the file 4 bytes per 16 lists.
pub const ADJACENCY_CHUNK: usize = 16;

/// A fixed-degree kNN graph in one flat column.
///
/// Node `i`'s neighbours occupy `nbrs[i*degree .. (i+1)*degree]`. Nodes with
/// fewer than `degree` real neighbours (tiny blocks) pad with `u32::MAX`,
/// which [`KnnGraph::neighbors`] strips. The flat layout makes a block's
/// graph a single allocation — the `O(n·k')` per-block space of §4.4.1 with
/// zero per-node overhead — or a single run of a mapped snapshot file.
///
/// A graph over mapped edges may carry one CRC-32 per
/// [`ADJACENCY_CHUNK`] vertices ([`with_chunk_check`](Self::with_chunk_check)):
/// [`neighbors`](Self::neighbors) checks a chunk the first time it expands a
/// vertex in it — its CRC, then every id. A chunk that fails yields no
/// neighbours, and the failure is counted
/// ([`check_failures`](Self::check_failures)) for the owner to turn into an
/// error before any answer found through it leaves.
#[derive(Clone, Debug)]
pub struct KnnGraph {
    degree: usize,
    nbrs: Col<u32>,
    check: Option<Arc<ChunkCheck>>,
}

/// Sentinel padding for absent neighbour slots.
pub(crate) const NO_NEIGHBOR: u32 = u32::MAX;

impl KnnGraph {
    /// Builds a graph from per-node neighbour lists.
    ///
    /// Lists longer than `degree` are truncated; shorter ones padded.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0` and any node list is non-empty.
    pub fn from_lists(degree: usize, lists: &[Vec<u32>]) -> Self {
        let mut nbrs = vec![NO_NEIGHBOR; degree * lists.len()];
        for (i, list) in lists.iter().enumerate() {
            if degree == 0 {
                assert!(list.is_empty(), "degree 0 graph cannot have edges");
                continue;
            }
            for (j, &n) in list.iter().take(degree).enumerate() {
                nbrs[i * degree + j] = n;
            }
        }
        KnnGraph::from_flat(degree, nbrs)
    }

    /// Builds a graph directly from a flat padded column, owned or mapped
    /// (used by the binary deserialiser).
    ///
    /// # Panics
    ///
    /// Panics if the column length is not a multiple of `degree`.
    pub fn from_flat(degree: usize, nbrs: impl Into<Col<u32>>) -> Self {
        let nbrs = nbrs.into();
        if degree == 0 {
            assert!(nbrs.is_empty(), "degree 0 graph must be empty");
        } else {
            assert_eq!(nbrs.len() % degree, 0, "flat adjacency not a multiple of degree");
        }
        KnnGraph { degree, nbrs, check: None }
    }

    /// Attaches the stored CRC-32 of each chunk of [`ADJACENCY_CHUNK`]
    /// vertex lists, so each chunk is checked the first time a search
    /// expands a vertex in it: its bytes against its CRC, then every id
    /// against `ids_below` (the padding sentinel passes). Every byte
    /// checksummed is added to `checked_bytes`.
    ///
    /// # Panics
    ///
    /// Panics unless the edges are mapped and `crcs` holds one CRC per
    /// chunk.
    pub fn with_chunk_check(
        mut self,
        crcs: Col<u32>,
        ids_below: u32,
        checked_bytes: Arc<AtomicU64>,
    ) -> Self {
        let chunk_bytes = ADJACENCY_CHUNK * self.degree * size_of::<u32>();
        let check = ChunkCheck::new(&self.nbrs, chunk_bytes, crcs, Some(ids_below), checked_bytes);
        self.check = Some(Arc::new(check));
        self
    }

    /// Chunk checks that have failed so far (0 without a chunk check). A
    /// failed chunk counts again each time it is expanded.
    pub fn check_failures(&self) -> u64 {
        self.check.as_ref().map_or(0, |c| c.failures())
    }

    /// The first chunk that failed its check, if any.
    pub fn first_fault(&self) -> Option<ChunkFault> {
        self.check.as_ref().and_then(|c| c.first_fault())
    }

    /// The maximum out-degree `k'`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The flat padded adjacency column (row-major, `NO_NEIGHBOR` padded),
    /// every chunk checked first.
    #[inline]
    pub fn as_flat(&self) -> &[u32] {
        if let Some(check) = &self.check {
            check.verify_all();
        }
        &self.nbrs
    }

    /// Whether the edges view a stream's bytes in a [`FileMap`] rather than
    /// owning them.
    ///
    /// [`FileMap`]: crate::FileMap
    pub fn is_mapped(&self) -> bool {
        self.nbrs.is_mapped()
    }

    /// Bytes of heap memory used by the adjacency lists (0 for edges in a
    /// live mapping: their residency belongs to the page cache) and the
    /// chunk check's verified bits.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.nbrs.heap_bytes() + self.check.as_ref().map_or(0, |c| c.memory_bytes())
    }

    /// Out-neighbours of node `id`; none if its chunk fails its check.
    #[inline]
    pub fn neighbors(&self, id: u32) -> &[u32] {
        let row = self.padded_neighbors(id);
        // Padding is always at the tail; cut it off.
        match row.iter().position(|&n| n == NO_NEIGHBOR) {
            Some(end) => &row[..end],
            None => row,
        }
    }

    /// Node `id`'s whole adjacency row, `degree` slots with the padding in
    /// place (the graph search skips it without looking for where it
    /// starts); empty if its chunk fails its check.
    #[inline]
    pub(crate) fn padded_neighbors(&self, id: u32) -> &[u32] {
        if let Some(check) = &self.check {
            if !check.verify(id as usize / ADJACENCY_CHUNK) {
                return &[];
            }
        }
        self.unverified_neighbors(id)
    }

    /// Node `id`'s adjacency row without its check — only for a prefetch
    /// hint, which reads nothing.
    #[inline]
    pub(crate) fn unverified_neighbors(&self, id: u32) -> &[u32] {
        let start = id as usize * self.degree;
        &self.nbrs[start..start + self.degree]
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nbrs.len().checked_div(self.degree).unwrap_or(0)
    }
}

/// Graphs are equal when their degrees and edges are; where the edges live
/// and what has been checked do not count.
impl PartialEq for KnnGraph {
    fn eq(&self, other: &KnnGraph) -> bool {
        self.degree == other.degree && self.nbrs == other.nbrs
    }
}

impl Eq for KnnGraph {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lists_pads_and_truncates() {
        let g = KnnGraph::from_lists(3, &[vec![1, 2], vec![0, 2, 3, 4], vec![]]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn flat_roundtrip() {
        let g = KnnGraph::from_lists(2, &[vec![1], vec![0]]);
        let g2 = KnnGraph::from_flat(2, g.as_flat().to_vec());
        assert_eq!(g, g2);
    }

    #[test]
    fn memory_accounting() {
        let g = KnnGraph::from_lists(4, &[vec![1, 2, 3], vec![0]]);
        assert!(g.memory_bytes() >= 8 * 4);
    }

    #[test]
    fn degree_zero_graph() {
        let g = KnnGraph::from_lists(0, &[vec![], vec![]]);
        assert_eq!(g.degree(), 0);
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_validates() {
        KnnGraph::from_flat(3, vec![0, 1]);
    }
}
