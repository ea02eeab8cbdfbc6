//! The adjacency structure of graph-based ANN search.

/// A fixed-degree kNN graph in one flat allocation.
///
/// Node `i`'s neighbours occupy `nbrs[i*degree .. (i+1)*degree]`. Nodes with
/// fewer than `degree` real neighbours (tiny blocks) pad with `u32::MAX`,
/// which [`KnnGraph::neighbors`] strips. The flat layout makes a block's
/// graph a single allocation — the `O(n·k')` per-block space of §4.4.1 with
/// zero per-node overhead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnnGraph {
    degree: usize,
    nbrs: Vec<u32>,
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
        KnnGraph { degree, nbrs }
    }

    /// Builds a graph directly from a flat padded buffer (used by the binary
    /// deserialiser).
    ///
    /// # Panics
    ///
    /// Panics if the buffer length is not a multiple of `degree`.
    pub fn from_flat(degree: usize, nbrs: Vec<u32>) -> Self {
        if degree == 0 {
            assert!(nbrs.is_empty(), "degree 0 graph must be empty");
        } else {
            assert_eq!(nbrs.len() % degree, 0, "flat adjacency not a multiple of degree");
        }
        KnnGraph { degree, nbrs }
    }

    /// The maximum out-degree `k'`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The flat padded adjacency buffer (row-major, `NO_NEIGHBOR` padded).
    #[inline]
    pub fn as_flat(&self) -> &[u32] {
        &self.nbrs
    }

    /// Bytes of heap memory used by the adjacency lists.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.nbrs.capacity() * std::mem::size_of::<u32>()
    }

    /// Out-neighbours of node `id`.
    #[inline]
    pub fn neighbors(&self, id: u32) -> &[u32] {
        let start = id as usize * self.degree;
        let row = &self.nbrs[start..start + self.degree];
        // Padding is always at the tail; cut it off.
        match row.iter().position(|&n| n == NO_NEIGHBOR) {
            Some(end) => &row[..end],
            None => row,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nbrs.len().checked_div(self.degree).unwrap_or(0)
    }
}

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
