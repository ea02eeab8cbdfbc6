//! Chunked, structurally shared vector storage.
//!
//! The streaming engine publishes an immutable snapshot after every sealed
//! leaf. Copying the sealed prefix into each snapshot costs `O(n²/S_L)`
//! total memcpy over a run; instead, rows live once in immutable leaf-sized
//! [`Segment`]s and every snapshot holds a [`SegmentStore`] — a
//! `Vec<Arc<Segment>>` — so publication appends one segment and clones a
//! vector of pointers. Per-segment rows stay contiguous, so the batched
//! brute-force kernels and the graph-search gather paths stream the same
//! memory layout as the flat [`VectorStore`](crate::VectorStore).

use crate::check::{ChunkCheck, ChunkFault};
use crate::mapped::Col;
use crate::store::{VectorStore, VectorView};
use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// An immutable, contiguous run of rows: flat `f32` data plus the optional
/// inverse-norm column. Segments are created once (when a leaf seals or a
/// persisted store loads) and then shared by `Arc` across the engine's master
/// copy, its write-side tail, and every published snapshot.
///
/// The buffers are [`Col`]s: heap-owned for segments sealed in RAM,
/// mapped-in-place for the segments of a cold index opened straight from a
/// snapshot file. Every search kernel sees a plain slice either way, so hot
/// and cold segments are bit-identical to scan.
///
/// A mapped segment may carry per-row CRC-32s
/// ([`with_row_check`](Self::with_row_check)): every accessor that hands out
/// rows — [`row`](Self::row), [`row_with_inv`](Self::row_with_inv),
/// [`as_flat`](Self::as_flat) and the views — first checks each row it has
/// not checked before. A mismatch does not stop the read; it is counted
/// ([`check_failures`](Self::check_failures)) for the owner to turn into an
/// error before any answer scored on those bytes leaves it.
#[derive(Clone, Debug)]
pub struct Segment {
    dim: usize,
    pub(crate) data: Col<f32>,
    pub(crate) inv_norms: Option<Col<f32>>,
    check: Option<Arc<ChunkCheck>>,
}

impl Segment {
    /// Freezes a [`VectorStore`] into a segment, taking ownership of its
    /// buffers — no row is copied, and the inverse-norm column (if enabled)
    /// moves with the data, bit-identical to its insert-time values.
    pub fn from_store(store: VectorStore) -> Self {
        let (dim, data, inv_norms) = store.into_parts();
        let inv_norms = inv_norms.map(Into::into);
        Segment { dim, data: data.into(), inv_norms, check: None }
    }

    /// Assembles a segment from owned-or-mapped columns — the storage tier's
    /// zero-copy rehydration path.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent: `dim == 0`, a data length that
    /// is not a whole number of rows, or side columns whose row counts don't
    /// match the data.
    pub fn from_cols(dim: usize, data: Col<f32>, inv_norms: Option<Col<f32>>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(data.len() % dim, 0, "flat buffer length not a multiple of dim");
        let rows = data.len() / dim;
        if let Some(inv) = &inv_norms {
            assert_eq!(inv.len(), rows, "inverse-norm column has wrong row count");
        }
        Segment { dim, data, inv_norms, check: None }
    }

    /// Attaches the rows' stored CRC-32s, one per row, so each row is
    /// verified the first time it is read. Every byte checksummed is added to
    /// `checked_bytes`.
    ///
    /// # Panics
    ///
    /// Panics unless the rows are mapped and `crcs` holds one value per row.
    pub fn with_row_check(mut self, crcs: Col<u32>, checked_bytes: Arc<AtomicU64>) -> Self {
        assert_eq!(crcs.len(), self.len(), "row CRC column has wrong row count");
        let row_bytes = self.dim * size_of::<f32>();
        let check = ChunkCheck::new(&self.data, row_bytes, crcs, None, checked_bytes);
        self.check = Some(Arc::new(check));
        self
    }

    /// Row checks that have failed so far (0 without a row check). A failed
    /// row counts again each time it is read.
    pub fn check_failures(&self) -> u64 {
        self.check.as_ref().map_or(0, |c| c.failures())
    }

    /// The first row that failed its check, if any; its chunk is the row.
    pub fn first_fault(&self) -> Option<ChunkFault> {
        self.check.as_ref().and_then(|c| c.first_fault())
    }

    /// Checks rows `rows` (a no-op without a row check).
    #[inline]
    pub(crate) fn verify_rows(&self, rows: Range<usize>) {
        if let Some(check) = &self.check {
            check.verify_range(rows);
        }
    }

    /// Copies every row of `view` (and its inverse-norm column, when
    /// present) into a new segment — the persist-load path.
    pub fn from_view(view: VectorView<'_>) -> Self {
        let mut data = Vec::with_capacity(view.len() * view.dim());
        let mut inv = view.has_norm_cache().then(|| Vec::with_capacity(view.len()));
        let mut row = 0;
        while row < view.len() {
            let (flat, col, run) = view.chunk_at(row);
            data.extend_from_slice(flat);
            if let (Some(inv), Some(col)) = (&mut inv, col) {
                inv.extend_from_slice(col);
            }
            row += run;
        }
        let inv_norms = inv.map(Into::into);
        Segment { dim: view.dim(), data: data.into(), inv_norms, check: None }
    }

    /// The dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows in the segment.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the segment holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i` of the segment.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        if let Some(check) = &self.check {
            check.verify(i);
        }
        self.unverified_row(i)
    }

    /// Row `i` without its check — only for a prefetch hint, which reads
    /// nothing.
    #[inline]
    pub(crate) fn unverified_row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Row `i` together with its cached inverse norm, if the column exists.
    #[inline]
    pub fn row_with_inv(&self, i: usize) -> (&[f32], Option<f32>) {
        (self.row(i), self.inv_norms.as_ref().map(|inv| inv[i]))
    }

    /// Whether the inverse-norm column is present.
    #[inline]
    pub fn has_norm_cache(&self) -> bool {
        self.inv_norms.is_some()
    }

    /// The inverse-norm column, if present.
    #[inline]
    pub fn inv_norms(&self) -> Option<&[f32]> {
        self.inv_norms.as_deref()
    }

    /// The flat row-major buffer (every row checked first).
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        self.verify_rows(0..self.len());
        &self.data
    }

    /// A contiguous view over all rows.
    #[inline]
    pub fn view(&self) -> VectorView<'_> {
        self.slice(0..self.len())
    }

    /// A contiguous view over rows `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> VectorView<'_> {
        assert!(range.start <= range.end && range.end <= self.len(), "row range out of bounds");
        VectorView::contiguous_checked(
            self.dim,
            &self.data[range.start * self.dim..range.end * self.dim],
            self.inv_norms.as_deref().map(|inv| &inv[range.clone()]),
            self.check.as_deref().map(|c| (c, range.start)),
        )
    }

    /// Bytes of heap memory held by this segment — raw vectors, the
    /// inverse-norm column (the flat store's `memory_bytes` historically
    /// forgot the column; both now count it), and the row check's verified
    /// bits. Mapped columns report 0: their pages belong to the kernel's
    /// page cache, not the segment.
    pub fn memory_bytes(&self) -> usize {
        self.data.heap_bytes()
            + self.inv_norms.as_ref().map_or(0, Col::heap_bytes)
            + self.check.as_ref().map_or(0, |c| c.memory_bytes())
    }

    /// Whether any column of this segment views mapped file bytes (a
    /// cold-tier segment).
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped() || self.inv_norms.as_ref().is_some_and(Col::is_mapped)
    }

    /// Bytes occupied by the stored vectors only (length, not capacity).
    pub fn data_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// A persistent (in the data-structure sense) store of equal-sized immutable
/// segments. Cloning is `O(segments)` pointer copies; the rows themselves
/// are shared. Used as the backing store of the streaming engine's master
/// copy and of every published `IndexSnapshot` — the segment size is the
/// index's leaf size, so every sealed leaf is exactly one segment and block
/// row ranges are always segment-aligned. The last segment may be shorter:
/// a loaded index's partial leaf, which no block covers.
#[derive(Clone, Debug)]
pub struct SegmentStore {
    dim: usize,
    seg_rows: usize,
    segments: Vec<Arc<Segment>>,
}

impl SegmentStore {
    /// Creates an empty store of `dim`-dimensional rows in segments of
    /// `seg_rows` rows each.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `seg_rows == 0`.
    pub fn new(dim: usize, seg_rows: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert!(seg_rows > 0, "segment size must be positive");
        SegmentStore { dim, seg_rows, segments: Vec::new() }
    }

    /// The dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows per segment (= the index leaf size).
    #[inline]
    pub fn seg_rows(&self) -> usize {
        self.seg_rows
    }

    /// Total rows stored, a short last segment's included.
    #[inline]
    pub fn len(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |last| (self.segments.len() - 1) * self.seg_rows + last.len())
    }

    /// Whether the store holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of segments.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The shared segments, in row order.
    #[inline]
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Whether the segments carry the inverse-norm column (uniform across
    /// the store by the [`Self::push_segment`] invariant; `false` when
    /// empty).
    #[inline]
    pub fn has_norm_cache(&self) -> bool {
        self.segments.first().is_some_and(|s| s.has_norm_cache())
    }

    /// Appends a shared segment.
    ///
    /// # Panics
    ///
    /// Panics unless the segment has `1..=seg_rows` rows of dimension `dim`,
    /// every segment before it is full, and its norm-column presence matches
    /// the segments already stored.
    pub fn push_segment(&mut self, seg: Arc<Segment>) {
        assert_eq!(seg.dim(), self.dim, "segment has wrong dimension");
        assert!((1..=self.seg_rows).contains(&seg.len()), "segment has wrong row count");
        assert_eq!(self.len(), self.segments.len() * self.seg_rows, "a short segment must be last");
        if let Some(first) = self.segments.first() {
            assert_eq!(
                first.has_norm_cache(),
                seg.has_norm_cache(),
                "segments must uniformly carry (or not carry) the norm column"
            );
        }
        self.segments.push(seg);
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        self.segments[i / self.seg_rows].row(i % self.seg_rows)
    }

    /// Cached inverse norm of row `i`, if the column is present.
    #[inline]
    pub fn inv_norm(&self, i: usize) -> Option<f32> {
        self.segments[i / self.seg_rows].row_with_inv(i % self.seg_rows).1
    }

    /// A view over all rows.
    #[inline]
    pub fn view(&self) -> VectorView<'_> {
        self.slice(0..self.len())
    }

    /// A view over rows `range.start..range.end`. When the range falls
    /// inside a single segment the view is contiguous (the leaf-block fast
    /// path — identical layout to a flat-store slice); otherwise it is a
    /// segmented view whose per-segment runs are still contiguous.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn slice(&self, range: Range<usize>) -> VectorView<'_> {
        assert!(range.start <= range.end && range.end <= self.len(), "row range out of bounds");
        if range.is_empty() {
            return VectorView::contiguous(self.dim, &[], None);
        }
        let first = range.start / self.seg_rows;
        let last = (range.end - 1) / self.seg_rows;
        if first == last {
            let base = first * self.seg_rows;
            return self.segments[first].slice(range.start - base..range.end - base);
        }
        VectorView::segmented(
            self.dim,
            range.len(),
            &self.segments[first..=last],
            self.seg_rows,
            range.start - first * self.seg_rows,
        )
    }

    /// A sub-store sharing the segments that cover `range` — `O(segments)`
    /// pointer copies, zero row copies. This is how the engine hands a merge
    /// chain's rows to a build worker without copying under the lock.
    ///
    /// # Panics
    ///
    /// Panics unless the range is in bounds and segment-aligned (merge-chain
    /// row ranges always are: every bound is a multiple of the leaf size).
    pub fn share(&self, range: Range<usize>) -> SegmentStore {
        assert!(range.start <= range.end && range.end <= self.len(), "row range out of bounds");
        assert!(
            range.start.is_multiple_of(self.seg_rows) && range.end.is_multiple_of(self.seg_rows),
            "shared range must be segment-aligned"
        );
        SegmentStore {
            dim: self.dim,
            seg_rows: self.seg_rows,
            segments: self.segments[range.start / self.seg_rows..range.end / self.seg_rows]
                .to_vec(),
        }
    }

    /// Copies every row (and the norm column, when present) into a flat
    /// [`VectorStore`] — the `to_index()` / ground-truth materialisation
    /// path.
    pub fn to_vector_store(&self) -> VectorStore {
        let mut store = VectorStore::with_capacity(self.dim, self.len());
        if self.has_norm_cache() {
            store.enable_norm_cache();
        }
        for seg in &self.segments {
            store.extend_from_view(seg.view());
        }
        store
    }

    /// Bytes of heap memory held by the segments (rows + norm columns) plus
    /// the pointer array itself. Shared segments are counted once per store
    /// that references them.
    pub fn memory_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.memory_bytes()).sum::<usize>()
            + self.segments.capacity() * std::mem::size_of::<Arc<Segment>>()
    }

    /// Bytes occupied by the stored vectors only.
    pub fn data_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.data_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbi_math::Metric;

    /// A flat store of `n` rows `[3i, 4i]` with the norm cache on.
    fn flat(n: usize) -> VectorStore {
        let mut s = VectorStore::new(2);
        s.enable_norm_cache();
        for i in 0..n {
            s.push(&[i as f32 * 3.0, i as f32 * 4.0]);
        }
        s
    }

    /// The same rows chunked into segments of `seg_rows`.
    fn segmented(n: usize, seg_rows: usize) -> SegmentStore {
        let mut store = SegmentStore::new(2, seg_rows);
        let src = flat(n);
        for c in 0..n / seg_rows {
            store.push_segment(Arc::new(Segment::from_view(
                src.slice(c * seg_rows..(c + 1) * seg_rows),
            )));
        }
        store
    }

    #[test]
    fn from_store_moves_rows_and_norms() {
        let src = flat(4);
        let want_norms = src.inv_norms().unwrap().to_vec();
        let want_flat = src.as_flat().to_vec();
        let seg = Segment::from_store(src);
        assert_eq!(seg.len(), 4);
        assert_eq!(seg.dim(), 2);
        assert_eq!(seg.as_flat(), &want_flat[..]);
        assert_eq!(seg.inv_norms().unwrap(), &want_norms[..]);
        assert_eq!(seg.row(2), &[6.0, 8.0]);
        let (row, inv) = seg.row_with_inv(1);
        assert_eq!(row, &[3.0, 4.0]);
        assert_eq!(inv, Some(want_norms[1]));
        assert!(seg.memory_bytes() >= seg.data_bytes() + 4 * 4);
    }

    #[test]
    fn rows_match_the_flat_store() {
        let src = flat(12);
        let store = segmented(12, 4);
        assert_eq!(store.len(), 12);
        assert_eq!(store.num_segments(), 3);
        assert!(store.has_norm_cache());
        for i in 0..12 {
            assert_eq!(store.row(i), src.get(i));
            assert_eq!(store.inv_norm(i), Some(src.inv_norms().unwrap()[i]));
        }
    }

    #[test]
    fn slice_within_one_segment_is_contiguous() {
        let store = segmented(12, 4);
        let v = store.slice(4..7);
        assert!(v.is_contiguous());
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(0), &[12.0, 16.0]);
        assert!(store.slice(6..6).is_contiguous(), "empty slices are contiguous");
    }

    #[test]
    fn slice_across_segments_serves_every_row() {
        let src = flat(12);
        let store = segmented(12, 4);
        let v = store.slice(2..11);
        assert!(!v.is_contiguous());
        assert_eq!(v.len(), 9);
        for i in 0..9 {
            assert_eq!(v.get(i), src.get(2 + i), "row {i}");
            assert_eq!(v.inv_norm(i), Some(src.inv_norms().unwrap()[2 + i]));
        }
        for m in [Metric::Euclidean, Metric::Angular, Metric::InnerProduct] {
            assert_eq!(v.pair_distance(m, 0, 8), src.slice(2..11).pair_distance(m, 0, 8));
        }
    }

    #[test]
    fn share_is_pointer_level() {
        let store = segmented(16, 4);
        let sub = store.share(4..12);
        assert_eq!(sub.len(), 8);
        assert!(Arc::ptr_eq(&sub.segments()[0], &store.segments()[1]));
        assert!(Arc::ptr_eq(&sub.segments()[1], &store.segments()[2]));
        let clone = store.clone();
        for (a, b) in clone.segments().iter().zip(store.segments()) {
            assert!(Arc::ptr_eq(a, b), "clone shares every segment");
        }
    }

    #[test]
    #[should_panic(expected = "segment-aligned")]
    fn share_rejects_misaligned_ranges() {
        segmented(16, 4).share(2..8);
    }

    #[test]
    #[should_panic(expected = "wrong row count")]
    fn push_segment_rejects_wrong_size() {
        let mut store = SegmentStore::new(2, 4);
        store.push_segment(Arc::new(Segment::from_store(flat(5))));
    }

    #[test]
    fn a_short_last_segment_serves_its_rows() {
        let src = flat(10);
        let mut store = segmented(8, 4);
        store.push_segment(Arc::new(Segment::from_view(src.slice(8..10))));
        assert_eq!(store.len(), 10);
        let v = store.slice(3..10);
        for i in 0..7 {
            assert_eq!(v.get(i), src.get(3 + i), "row {i}");
        }
        assert_eq!(store.to_vector_store().as_flat(), src.as_flat());
    }

    #[test]
    #[should_panic(expected = "a short segment must be last")]
    fn push_segment_rejects_a_segment_after_a_short_one() {
        let mut store = SegmentStore::new(2, 4);
        store.push_segment(Arc::new(Segment::from_store(flat(3))));
        store.push_segment(Arc::new(Segment::from_store(flat(4))));
    }

    #[test]
    #[should_panic(expected = "uniformly carry")]
    fn push_segment_rejects_norm_mismatch() {
        let mut store = SegmentStore::new(2, 4);
        store.push_segment(Arc::new(Segment::from_store(flat(4))));
        let plain = VectorStore::from_flat(2, vec![0.0; 8]);
        store.push_segment(Arc::new(Segment::from_view(plain.view())));
    }

    #[test]
    fn to_vector_store_materialises_rows_and_norms() {
        let src = flat(12);
        let out = segmented(12, 4).to_vector_store();
        assert_eq!(out.as_flat(), src.as_flat());
        assert_eq!(out.inv_norms(), src.inv_norms());
    }

    #[test]
    fn memory_bytes_counts_norm_columns() {
        let store = segmented(8, 4);
        // 8 rows × 2 dims × 4 bytes of data, plus 8 × 4 bytes of norms.
        assert!(store.memory_bytes() >= 8 * 2 * 4 + 8 * 4);
        assert_eq!(store.data_bytes(), 8 * 2 * 4);
    }
}
