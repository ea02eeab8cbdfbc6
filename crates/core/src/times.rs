//! Chunked, structurally shared timestamp storage for streaming snapshots.
//!
//! The vector rows of a published [`IndexSnapshot`](crate::IndexSnapshot)
//! live in shared segments; the timestamp column gets the same treatment
//! here so that publication never copies the sealed prefix's timestamps
//! either. Chunks are leaf-sized `Arc<[Timestamp]>`s frozen when a leaf
//! seals, and a [`TimeChunks`] is just the ordered list of pointers.

use crate::Timestamp;
use std::sync::Arc;

/// An immutable, chunked timestamp column: chunks of `chunk_rows`
/// timestamps, the last possibly shorter (a loaded index's partial leaf),
/// non-decreasing across the whole column (the engine validates
/// monotonicity at insert). Cloning is `O(chunks)` pointer copies.
#[derive(Clone, Debug)]
pub struct TimeChunks {
    chunk_rows: usize,
    chunks: Vec<Arc<[Timestamp]>>,
}

impl TimeChunks {
    /// Creates an empty column whose chunks hold `chunk_rows` timestamps
    /// each (= the index leaf size).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows == 0`.
    pub fn new(chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "chunk size must be positive");
        TimeChunks { chunk_rows, chunks: Vec::new() }
    }

    /// Timestamps per chunk.
    #[inline]
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Total timestamps stored, a short last chunk's included.
    #[inline]
    pub fn len(&self) -> usize {
        self.chunks.last().map_or(0, |last| (self.chunks.len() - 1) * self.chunk_rows + last.len())
    }

    /// Whether the column is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Number of chunks.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The shared chunks, in row order.
    #[inline]
    pub fn chunks(&self) -> &[Arc<[Timestamp]>] {
        &self.chunks
    }

    /// Timestamp of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Timestamp {
        self.chunks[i / self.chunk_rows][i % self.chunk_rows]
    }

    /// Appends a shared chunk.
    ///
    /// # Panics
    ///
    /// Panics unless the chunk holds `1..=chunk_rows` timestamps and every
    /// chunk before it is full.
    pub fn push_chunk(&mut self, chunk: Arc<[Timestamp]>) {
        assert!((1..=self.chunk_rows).contains(&chunk.len()), "chunk has wrong length");
        assert_eq!(self.len(), self.chunks.len() * self.chunk_rows, "a short chunk must be last");
        self.chunks.push(chunk);
    }

    /// A column sharing the first `num_chunks` chunks — the snapshot
    /// publication path, `O(num_chunks)` pointer copies.
    ///
    /// # Panics
    ///
    /// Panics if `num_chunks > self.num_chunks()`.
    pub fn share_prefix(&self, num_chunks: usize) -> TimeChunks {
        TimeChunks { chunk_rows: self.chunk_rows, chunks: self.chunks[..num_chunks].to_vec() }
    }

    /// Index of the first row with timestamp `>= bound` (the column is
    /// non-decreasing): a chunk-level partition point followed by one
    /// in-chunk binary search, `O(log chunks + log chunk_rows)`.
    pub fn partition_below(&self, bound: Timestamp) -> usize {
        let c = self.chunks.partition_point(|chunk| chunk[chunk.len() - 1] < bound);
        if c == self.chunks.len() {
            return self.len();
        }
        c * self.chunk_rows + self.chunks[c].partition_point(|&t| t < bound)
    }

    /// Copies the whole column into one flat `Vec` — the `to_index()` /
    /// persist materialisation path.
    pub fn to_vec(&self) -> Vec<Timestamp> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in &self.chunks {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// Bytes of heap memory held by the chunks plus the pointer array.
    pub fn memory_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<Timestamp>()
            + self.chunks.capacity() * std::mem::size_of::<Arc<[Timestamp]>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(n_chunks: usize, rows: usize) -> TimeChunks {
        let mut tc = TimeChunks::new(rows);
        for c in 0..n_chunks {
            let chunk: Vec<Timestamp> = (0..rows).map(|i| (c * rows + i) as i64 * 2).collect();
            tc.push_chunk(chunk.into());
        }
        tc
    }

    #[test]
    fn get_matches_flat_order() {
        let tc = column(3, 4);
        assert_eq!(tc.len(), 12);
        assert_eq!(tc.num_chunks(), 3);
        for i in 0..12 {
            assert_eq!(tc.get(i), i as i64 * 2);
        }
        assert_eq!(tc.to_vec(), (0..12).map(|i| i * 2).collect::<Vec<i64>>());
    }

    #[test]
    fn partition_below_matches_flat_partition_point() {
        let tc = column(4, 4);
        let flat = tc.to_vec();
        for bound in -1..=(flat.len() as i64 * 2 + 1) {
            assert_eq!(
                tc.partition_below(bound),
                flat.partition_point(|&t| t < bound),
                "bound {bound}"
            );
        }
        assert_eq!(TimeChunks::new(8).partition_below(0), 0, "empty column");
    }

    #[test]
    fn share_prefix_is_pointer_level() {
        let tc = column(3, 4);
        let prefix = tc.share_prefix(2);
        assert_eq!(prefix.len(), 8);
        assert!(Arc::ptr_eq(&prefix.chunks()[0], &tc.chunks()[0]));
        assert!(Arc::ptr_eq(&prefix.chunks()[1], &tc.chunks()[1]));
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn push_chunk_rejects_wrong_length() {
        let mut tc = TimeChunks::new(4);
        tc.push_chunk(vec![1i64, 2, 3, 4, 5].into());
    }

    #[test]
    fn a_short_last_chunk_is_counted_and_searched() {
        let mut tc = column(2, 4);
        tc.push_chunk(vec![16i64, 18].into());
        let flat = tc.to_vec();
        assert_eq!((tc.len(), tc.get(9)), (10, 18));
        for bound in -1..=20 {
            assert_eq!(tc.partition_below(bound), flat.partition_point(|&t| t < bound), "{bound}");
        }
    }

    #[test]
    #[should_panic(expected = "a short chunk must be last")]
    fn push_chunk_rejects_a_chunk_after_a_short_one() {
        let mut tc = TimeChunks::new(4);
        tc.push_chunk(vec![1i64, 2].into());
        tc.push_chunk(vec![3i64, 4, 5, 6].into());
    }
}
