//! Row-major vector storage: the flat append-only [`VectorStore`] and the
//! [`VectorView`] borrowed by every kernel, which can stand over one
//! contiguous run of rows or over a run of shared
//! [`Segment`](crate::Segment)s.

use crate::segment::Segment;
use crate::sq8::Sq8ChunkRef;
use mbi_math::{inv_norm_of, Metric, PreparedQuery};
use std::sync::Arc;

/// An append-only store of `d`-dimensional `f32` vectors.
///
/// MBI appends strictly in timestamp order (§4.2), so all raw vectors for the
/// whole database live once in a single `VectorStore`; each block of the index
/// is just a row range. This keeps raw-data memory `O(|D|)` while the per-level
/// *graphs* account for the `O(|D| log |D|)` index size of §4.4.1.
///
/// For the angular metric the store can additionally carry a per-vector
/// **inverse-norm column** ([`VectorStore::enable_norm_cache`]): one `f32`
/// per row, computed once at insert (with `0.0` as the zero-vector sentinel)
/// and persisted with the index, so angular distance at query time collapses
/// to a single dot pass.
///
/// ```
/// use mbi_ann::VectorStore;
///
/// let mut store = VectorStore::new(3);
/// let id = store.push(&[1.0, 2.0, 3.0]);
/// store.push(&[4.0, 5.0, 6.0]);
/// assert_eq!(id, 0);
/// assert_eq!(store.get(1), &[4.0, 5.0, 6.0]);
/// assert_eq!(store.slice(1..2).len(), 1);   // zero-copy block view
/// ```
#[derive(Clone, Debug, Default)]
pub struct VectorStore {
    dim: usize,
    data: Vec<f32>,
    inv_norms: Option<Vec<f32>>,
}

impl VectorStore {
    /// Creates an empty store of `dim`-dimensional vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        VectorStore { dim, data: Vec::new(), inv_norms: None }
    }

    /// Creates an empty store with room for `capacity` vectors.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        VectorStore { dim, data: Vec::with_capacity(dim * capacity), inv_norms: None }
    }

    /// Builds a store from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "flat buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        VectorStore { dim, data, inv_norms: None }
    }

    /// The dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the store holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a vector, returning its row id.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn push(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "vector has wrong dimension");
        let id = self.len() as u32;
        self.data.extend_from_slice(v);
        if let Some(inv) = &mut self.inv_norms {
            inv.push(inv_norm_of(v));
        }
        id
    }

    /// Builds a store from a flat buffer plus a precomputed inverse-norm
    /// column (one entry per row, `0.0` for zero vectors) — the persist-load
    /// path, which must not pay a recompute pass.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim` or the column length
    /// does not match the row count.
    pub fn from_flat_with_inv_norms(dim: usize, data: Vec<f32>, inv_norms: Vec<f32>) -> Self {
        let mut store = Self::from_flat(dim, data);
        assert_eq!(inv_norms.len(), store.len(), "inverse-norm column does not match row count");
        store.inv_norms = Some(inv_norms);
        store
    }

    /// Turns on the inverse-norm column, computing it for any rows already
    /// stored. Subsequent [`push`](Self::push)es maintain it incrementally.
    /// Idempotent. Indexes enable this automatically when their metric is
    /// [`Metric::Angular`].
    pub fn enable_norm_cache(&mut self) {
        if self.inv_norms.is_some() {
            return;
        }
        let mut inv = Vec::with_capacity(self.len());
        for row in self.data.chunks_exact(self.dim) {
            inv.push(inv_norm_of(row));
        }
        self.inv_norms = Some(inv);
    }

    /// Whether the inverse-norm column is present.
    #[inline]
    pub fn has_norm_cache(&self) -> bool {
        self.inv_norms.is_some()
    }

    /// The inverse-norm column, if enabled.
    #[inline]
    pub fn inv_norms(&self) -> Option<&[f32]> {
        self.inv_norms.as_deref()
    }

    /// Returns row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &[f32] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// A view over all rows (carrying the inverse-norm column, if enabled).
    #[inline]
    pub fn view(&self) -> VectorView<'_> {
        VectorView::contiguous(self.dim, &self.data, self.inv_norms.as_deref())
    }

    /// A view over rows `range.start..range.end`. The inverse-norm column,
    /// if enabled, is sliced to the same row range.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    #[inline]
    pub fn slice(&self, range: std::ops::Range<usize>) -> VectorView<'_> {
        assert!(range.start <= range.end && range.end <= self.len(), "row range out of bounds");
        VectorView::contiguous(
            self.dim,
            &self.data[range.start * self.dim..range.end * self.dim],
            self.inv_norms.as_deref().map(|inv| &inv[range.start..range.end]),
        )
    }

    /// Copies rows `range.start..range.end` into a new owned store, carrying
    /// the matching slice of the inverse-norm column when present — so the
    /// copy is bit-identical to what a fresh insert-time computation would
    /// produce, without paying for one. Used by the streaming engine to hand
    /// a build worker an immutable chunk and to publish snapshot prefixes.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn materialize(&self, range: std::ops::Range<usize>) -> VectorStore {
        assert!(range.start <= range.end && range.end <= self.len(), "row range out of bounds");
        VectorStore {
            dim: self.dim,
            data: self.data[range.start * self.dim..range.end * self.dim].to_vec(),
            inv_norms: self.inv_norms.as_deref().map(|inv| inv[range].to_vec()),
        }
    }

    /// Removes the first `rows` vectors (and their inverse norms), shifting
    /// the remainder down — the streaming engine trims its write-side tail
    /// with this after a sealed prefix is published.
    ///
    /// # Panics
    ///
    /// Panics if `rows > len()`.
    pub fn drop_front(&mut self, rows: usize) {
        assert!(rows <= self.len(), "cannot drop {rows} of {} rows", self.len());
        self.data.drain(..rows * self.dim);
        if let Some(inv) = &mut self.inv_norms {
            inv.drain(..rows);
        }
    }

    /// Appends every row of `view`. When this store keeps an inverse-norm
    /// column the values are copied from the view's column if it has one
    /// (bit-identical, no recompute) and computed otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the view's dimensionality differs.
    pub fn extend_from_view(&mut self, view: VectorView<'_>) {
        assert_eq!(view.dim(), self.dim, "view has wrong dimension");
        let mut row = 0;
        while row < view.len() {
            let (flat, col, run) = view.chunk_at(row);
            self.data.extend_from_slice(flat);
            if let Some(inv) = &mut self.inv_norms {
                match col {
                    Some(col) => inv.extend_from_slice(col),
                    None => inv.extend(flat.chunks_exact(self.dim).map(inv_norm_of)),
                }
            }
            row += run;
        }
    }

    /// The underlying flat buffer (row-major).
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Bytes of heap memory used by the raw vectors *and* the inverse-norm
    /// column when enabled (an angular index pays for both).
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        (self.data.capacity() + self.inv_norms.as_ref().map_or(0, Vec::capacity))
            * std::mem::size_of::<f32>()
    }

    /// Bytes occupied by the *stored* vectors only (length, not capacity) —
    /// this is the "Input Data Size" column of Table 4.
    #[inline]
    pub fn data_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Decomposes the store into `(dim, flat data, inverse-norm column)`,
    /// handing ownership of the buffers to the caller — how the streaming
    /// engine freezes a sealed leaf into a [`Segment`] without copying a row.
    pub fn into_parts(self) -> (usize, Vec<f32>, Option<Vec<f32>>) {
        (self.dim, self.data, self.inv_norms)
    }
}

/// The backing representation of a [`VectorView`]: one contiguous run of
/// rows, or a run of leaf-sized shared segments.
#[derive(Clone, Copy, Debug)]
enum Repr<'a> {
    /// A single flat run (plus the matching norm-column and SQ8 slices).
    Contig { data: &'a [f32], inv_norms: Option<&'a [f32]>, sq8: Option<Sq8ChunkRef<'a>> },
    /// `len` rows starting `skip` rows into `segs[0]`; every segment holds
    /// exactly `seg_rows` rows, so each per-segment run is contiguous.
    Segmented { segs: &'a [Arc<Segment>], seg_rows: usize, skip: usize },
}

/// A borrowed, immutable view over a run of rows, optionally carrying the
/// store's inverse-norm column for exactly those rows.
///
/// A view is either **contiguous** (one flat slice — what
/// [`VectorStore::slice`] and single-segment
/// [`SegmentStore::slice`](crate::SegmentStore::slice) hand out) or
/// **segmented** (spanning several
/// shared [`Segment`](crate::Segment)s). Kernels that stream memory walk the
/// view in contiguous runs via [`Self::chunk_at`]; point lookups use
/// [`Self::get`] / [`Self::row_with_inv`], which cost one extra div/mod on
/// segmented views and nothing on contiguous ones.
#[derive(Clone, Copy, Debug)]
pub struct VectorView<'a> {
    dim: usize,
    len: usize,
    repr: Repr<'a>,
}

impl<'a> VectorView<'a> {
    /// Builds a view from a flat row-major slice (no norm column).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim` or `dim == 0`.
    pub fn from_flat(dim: usize, data: &'a [f32]) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(data.len() % dim, 0, "flat slice length not a multiple of dim");
        Self::contiguous(dim, data, None)
    }

    /// A contiguous view over `data` with an optional matching norm column.
    #[inline]
    pub(crate) fn contiguous(dim: usize, data: &'a [f32], inv_norms: Option<&'a [f32]>) -> Self {
        Self::contiguous_with_sq8(dim, data, inv_norms, None)
    }

    /// A contiguous view that additionally carries the matching SQ8 slice —
    /// what [`Segment::slice`](crate::Segment::slice) hands out when the
    /// segment is quantized.
    #[inline]
    pub(crate) fn contiguous_with_sq8(
        dim: usize,
        data: &'a [f32],
        inv_norms: Option<&'a [f32]>,
        sq8: Option<Sq8ChunkRef<'a>>,
    ) -> Self {
        debug_assert!(inv_norms.is_none_or(|inv| inv.len() * dim == data.len()));
        debug_assert!(sq8.is_none_or(|c| c.codes.len() == data.len()));
        VectorView { dim, len: data.len() / dim, repr: Repr::Contig { data, inv_norms, sq8 } }
    }

    /// A segmented view of `len` rows starting `skip` rows into `segs[0]`.
    #[inline]
    pub(crate) fn segmented(
        dim: usize,
        len: usize,
        segs: &'a [Arc<Segment>],
        seg_rows: usize,
        skip: usize,
    ) -> Self {
        debug_assert!(skip < seg_rows && skip + len <= segs.len() * seg_rows);
        VectorView { dim, len, repr: Repr::Segmented { segs, seg_rows, skip } }
    }

    /// The dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the view is a single contiguous run (so [`Self::as_flat`] and
    /// [`Self::inv_norms`] are available).
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        matches!(self.repr, Repr::Contig { .. })
    }

    /// Whether the rows carry the inverse-norm column.
    #[inline]
    pub fn has_norm_cache(&self) -> bool {
        match self.repr {
            Repr::Contig { inv_norms, .. } => inv_norms.is_some(),
            Repr::Segmented { segs, .. } => segs[0].has_norm_cache(),
        }
    }

    /// Whether the rows carry the SQ8 code column (uniform across a
    /// segmented view by the store's push invariant).
    #[inline]
    pub fn has_sq8(&self) -> bool {
        match self.repr {
            Repr::Contig { sq8, .. } => sq8.is_some(),
            Repr::Segmented { segs, .. } => segs[0].has_sq8(),
        }
    }

    /// The longest SQ8 run starting at row `row` — the quantized counterpart
    /// of [`Self::chunk_at`], with identical run boundaries. Each chunk
    /// carries the owning segment's own affine parameters, so a multi-segment
    /// walk re-prepares its [`Sq8Scan`](crate::Sq8Scan) per chunk (`O(d)`,
    /// amortised over the segment's rows).
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()` or the view has no SQ8 column.
    #[inline]
    pub fn sq8_chunk_at(&self, row: usize) -> (Sq8ChunkRef<'a>, usize) {
        assert!(row < self.len, "row {row} out of bounds for view of {} rows", self.len);
        match self.repr {
            Repr::Contig { sq8, .. } => {
                let c = sq8.expect("sq8_chunk_at() on a view without the SQ8 column");
                let run = self.len - row;
                (
                    Sq8ChunkRef {
                        codes: &c.codes[row * self.dim..],
                        row_norm2: &c.row_norm2[row..],
                        ..c
                    },
                    run,
                )
            }
            Repr::Segmented { segs, seg_rows, skip } => {
                let r = skip + row;
                let seg = &segs[r / seg_rows];
                let off = r % seg_rows;
                let run = (seg_rows - off).min(self.len - row);
                let col = seg.sq8().expect("sq8_chunk_at() on a view without the SQ8 column");
                (col.slice(off, off + run), run)
            }
        }
    }

    /// Row `i`'s SQ8 codes, decoded squared norm, and owning-segment
    /// parameters — the graph-search gather path.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` or the view has no SQ8 column.
    #[inline]
    pub fn sq8_row(&self, i: usize) -> Sq8ChunkRef<'a> {
        let (chunk, _) = self.sq8_chunk_at(i);
        Sq8ChunkRef { codes: &chunk.codes[..self.dim], row_norm2: &chunk.row_norm2[..1], ..chunk }
    }

    /// Returns row `i` (local to the view).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &'a [f32] {
        assert!(i < self.len, "row {i} out of bounds for view of {} rows", self.len);
        match self.repr {
            Repr::Contig { data, .. } => {
                let start = i * self.dim;
                &data[start..start + self.dim]
            }
            Repr::Segmented { segs, seg_rows, skip } => {
                let r = skip + i;
                segs[r / seg_rows].row(r % seg_rows)
            }
        }
    }

    /// Row `i` together with its cached inverse norm (when the column is
    /// present) in one lookup — the graph-search gather path.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row_with_inv(&self, i: usize) -> (&'a [f32], Option<f32>) {
        assert!(i < self.len, "row {i} out of bounds for view of {} rows", self.len);
        match self.repr {
            Repr::Contig { data, inv_norms, .. } => {
                let start = i * self.dim;
                (&data[start..start + self.dim], inv_norms.map(|inv| inv[i]))
            }
            Repr::Segmented { segs, seg_rows, skip } => {
                let r = skip + i;
                segs[r / seg_rows].row_with_inv(r % seg_rows)
            }
        }
    }

    /// Exact distance from `pq` to row `i`, through the cached inverse norm
    /// when present — the exact scorer of the graph searches and of the SQ8
    /// rerank.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub(crate) fn distance(&self, pq: &PreparedQuery<'_>, i: usize) -> f32 {
        let (row, inv) = self.row_with_inv(i);
        pq.distance_to_row(row, inv)
    }

    /// The longest contiguous run starting at row `row`: its flat row-major
    /// data, the matching norm-column slice (when present), and its length in
    /// rows (always ≥ 1). Batched kernels walk the whole view as
    /// `row += run` — on a contiguous view the first call covers everything,
    /// on a segmented view each call covers the rest of one segment.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()`.
    #[inline]
    pub fn chunk_at(&self, row: usize) -> (&'a [f32], Option<&'a [f32]>, usize) {
        assert!(row < self.len, "row {row} out of bounds for view of {} rows", self.len);
        match self.repr {
            Repr::Contig { data, inv_norms, .. } => {
                let run = self.len - row;
                (&data[row * self.dim..], inv_norms.map(|inv| &inv[row..]), run)
            }
            Repr::Segmented { segs, seg_rows, skip } => {
                let r = skip + row;
                let seg = &segs[r / seg_rows];
                let off = r % seg_rows;
                let run = (seg_rows - off).min(self.len - row);
                (
                    &seg.as_flat()[off * self.dim..(off + run) * self.dim],
                    seg.inv_norms().map(|inv| &inv[off..off + run]),
                    run,
                )
            }
        }
    }

    /// Iterates over rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f32]> + '_ {
        let this = *self;
        (0..self.len).map(move |i| this.get(i))
    }

    /// The underlying flat row-major slice — what the 1-to-many batched
    /// kernels stream over. Only contiguous views have one; segmented
    /// callers walk [`Self::chunk_at`] instead.
    ///
    /// # Panics
    ///
    /// Panics on a segmented view.
    #[inline]
    pub fn as_flat(&self) -> &'a [f32] {
        match self.repr {
            Repr::Contig { data, .. } => data,
            Repr::Segmented { .. } => panic!("as_flat() on a segmented view; use chunk_at()"),
        }
    }

    /// The inverse-norm column slice for exactly these rows, if the owning
    /// store has the cache enabled.
    ///
    /// # Panics
    ///
    /// Panics on a segmented view (use [`Self::chunk_at`] /
    /// [`Self::row_with_inv`]).
    #[inline]
    pub fn inv_norms(&self) -> Option<&'a [f32]> {
        match self.repr {
            Repr::Contig { inv_norms, .. } => inv_norms,
            Repr::Segmented { .. } => panic!("inv_norms() on a segmented view; use chunk_at()"),
        }
    }

    /// Cached inverse norm of row `i`, if the column is present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn inv_norm(&self, i: usize) -> Option<f32> {
        self.row_with_inv(i).1
    }

    /// Distance between rows `i` and `j` of this view — the graph-build
    /// kernel. Uses the cached inverse norms (single dot pass) when the
    /// metric is angular and the column is present; otherwise identical to
    /// `metric.distance(get(i), get(j))`.
    #[inline]
    pub fn pair_distance(&self, metric: Metric, i: usize, j: usize) -> f32 {
        let (a, ia) = self.row_with_inv(i);
        let (b, ib) = self.row_with_inv(j);
        if metric == Metric::Angular {
            if let (Some(ia), Some(ib)) = (ia, ib) {
                return mbi_math::angular_from_parts(mbi_math::dot(a, b), ia, ib);
            }
        }
        metric.distance(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut s = VectorStore::new(3);
        assert!(s.is_empty());
        let a = s.push(&[1.0, 2.0, 3.0]);
        let b = s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.get(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn push_rejects_wrong_dim() {
        let mut s = VectorStore::new(3);
        s.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        VectorStore::new(0);
    }

    #[test]
    fn from_flat_and_as_flat() {
        let s = VectorStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1), &[3.0, 4.0]);
        assert_eq!(s.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged() {
        VectorStore::from_flat(3, vec![1.0, 2.0]);
    }

    #[test]
    fn slice_views_are_local() {
        let mut s = VectorStore::new(2);
        for i in 0..5 {
            s.push(&[i as f32, -(i as f32)]);
        }
        let v = s.slice(2..4);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(0), &[2.0, -2.0]);
        assert_eq!(v.get(1), &[3.0, -3.0]);
        let rows: Vec<&[f32]> = v.iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[3.0, -3.0]);
    }

    #[test]
    fn empty_slice_is_fine() {
        let s = VectorStore::from_flat(4, vec![0.0; 8]);
        let v = s.slice(1..1);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rejects_out_of_range() {
        let s = VectorStore::from_flat(2, vec![0.0; 4]);
        s.slice(0..3);
    }

    #[test]
    fn data_bytes_counts_rows() {
        let s = VectorStore::from_flat(2, vec![0.0; 8]);
        assert_eq!(s.data_bytes(), 8 * 4);
        assert!(s.memory_bytes() >= s.data_bytes());
    }

    #[test]
    fn memory_bytes_counts_the_norm_column() {
        let mut plain = VectorStore::from_flat(2, vec![0.0; 8]);
        let without = plain.memory_bytes();
        plain.enable_norm_cache();
        // 4 rows × 4 bytes of inverse norms on top of the raw vectors.
        assert!(plain.memory_bytes() >= without + 4 * 4);
    }

    #[test]
    fn contiguous_views_chunk_in_one_run() {
        let mut s = VectorStore::new(2);
        s.enable_norm_cache();
        for i in 0..4 {
            s.push(&[i as f32 * 3.0, i as f32 * 4.0]);
        }
        let v = s.view();
        assert!(v.is_contiguous());
        assert!(v.has_norm_cache());
        let (flat, inv, run) = v.chunk_at(0);
        assert_eq!(run, 4);
        assert_eq!(flat, s.as_flat());
        assert_eq!(inv.unwrap(), s.inv_norms().unwrap());
        let (flat, inv, run) = v.chunk_at(3);
        assert_eq!(run, 1);
        assert_eq!(flat, &[9.0, 12.0]);
        assert_eq!(inv.unwrap().len(), 1);
        let (row, inv) = v.row_with_inv(2);
        assert_eq!(row, &[6.0, 8.0]);
        assert_eq!(inv, Some(s.inv_norms().unwrap()[2]));
    }

    #[test]
    fn view_from_flat() {
        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = VectorView::from_flat(3, &data);
        assert_eq!(v.len(), 2);
        assert_eq!(v.dim(), 3);
        assert_eq!(v.get(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn with_capacity_reserves() {
        let s = VectorStore::with_capacity(4, 100);
        assert!(s.memory_bytes() >= 100 * 4 * 4);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn norm_cache_is_maintained_by_push() {
        let mut s = VectorStore::new(2);
        s.push(&[3.0, 4.0]);
        s.enable_norm_cache();
        s.enable_norm_cache(); // idempotent
        s.push(&[0.0, 0.0]);
        s.push(&[6.0, 8.0]);
        assert!(s.has_norm_cache());
        let inv = s.inv_norms().unwrap();
        assert_eq!(inv.len(), 3);
        assert!((inv[0] - 0.2).abs() < 1e-7);
        assert_eq!(inv[1], 0.0, "zero vector stores the 0.0 sentinel");
        assert!((inv[2] - 0.1).abs() < 1e-7);
    }

    #[test]
    fn views_slice_the_norm_column() {
        let mut s = VectorStore::new(2);
        s.enable_norm_cache();
        for i in 1..=5 {
            s.push(&[i as f32 * 3.0, i as f32 * 4.0]);
        }
        let v = s.slice(2..4);
        let inv = v.inv_norms().unwrap();
        assert_eq!(inv.len(), 2);
        assert!((inv[0] - 1.0 / 15.0).abs() < 1e-7, "column aligned to the row range");
        assert_eq!(v.inv_norm(1), Some(inv[1]));
        assert_eq!(v.as_flat().len(), 4);
        // Views without the cache report None.
        let plain = VectorStore::from_flat(2, vec![0.0; 4]);
        assert_eq!(plain.view().inv_norms(), None);
        assert_eq!(plain.view().inv_norm(0), None);
    }

    #[test]
    fn from_flat_with_inv_norms_roundtrips() {
        let s = VectorStore::from_flat_with_inv_norms(2, vec![3.0, 4.0, 0.0, 0.0], vec![0.2, 0.0]);
        assert!(s.has_norm_cache());
        assert_eq!(s.inv_norms().unwrap(), &[0.2, 0.0]);
    }

    #[test]
    #[should_panic(expected = "does not match row count")]
    fn from_flat_with_inv_norms_rejects_mismatch() {
        VectorStore::from_flat_with_inv_norms(2, vec![0.0; 4], vec![0.0; 3]);
    }

    #[test]
    fn materialize_copies_rows_and_norms() {
        let mut s = VectorStore::new(2);
        s.enable_norm_cache();
        for i in 0..6 {
            s.push(&[i as f32 * 3.0, i as f32 * 4.0]);
        }
        let m = s.materialize(2..5);
        assert_eq!(m.len(), 3);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.get(0), s.get(2));
        assert_eq!(m.inv_norms().unwrap(), &s.inv_norms().unwrap()[2..5]);
        // Without the cache the copy has none either.
        let plain = VectorStore::from_flat(2, vec![0.0; 8]);
        assert!(!plain.materialize(0..4).has_norm_cache());
        assert!(s.materialize(3..3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn materialize_rejects_out_of_range() {
        VectorStore::from_flat(2, vec![0.0; 4]).materialize(0..3);
    }

    #[test]
    fn drop_front_shifts_rows() {
        let mut s = VectorStore::new(2);
        s.enable_norm_cache();
        for i in 0..5 {
            s.push(&[i as f32 * 3.0, i as f32 * 4.0]);
        }
        let tail_norms = s.inv_norms().unwrap()[3..].to_vec();
        s.drop_front(3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), &[9.0, 12.0]);
        assert_eq!(s.inv_norms().unwrap(), &tail_norms[..]);
        s.drop_front(2);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot drop")]
    fn drop_front_rejects_overdrain() {
        VectorStore::from_flat(2, vec![0.0; 4]).drop_front(3);
    }

    #[test]
    fn extend_from_view_appends_rows() {
        let mut src = VectorStore::new(2);
        src.enable_norm_cache();
        src.push(&[3.0, 4.0]);
        src.push(&[6.0, 8.0]);
        // Cached column is copied verbatim when both sides have one.
        let mut dst = VectorStore::new(2);
        dst.enable_norm_cache();
        dst.extend_from_view(src.view());
        assert_eq!(dst.as_flat(), src.as_flat());
        assert_eq!(dst.inv_norms(), src.inv_norms());
        // And recomputed when the source view has none.
        let plain = VectorStore::from_flat(2, vec![3.0, 4.0]);
        dst.extend_from_view(plain.view());
        assert_eq!(dst.len(), 3);
        assert!((dst.inv_norms().unwrap()[2] - 0.2).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn extend_from_view_rejects_wrong_dim() {
        let mut dst = VectorStore::new(3);
        let src = VectorStore::from_flat(2, vec![0.0; 4]);
        dst.extend_from_view(src.view());
    }

    #[test]
    fn pair_distance_matches_scalar_metrics() {
        let mut s = VectorStore::new(3);
        s.enable_norm_cache();
        s.push(&[1.0, 0.0, 0.5]);
        s.push(&[0.0, 2.0, -1.0]);
        s.push(&[0.0, 0.0, 0.0]);
        let v = s.view();
        for m in [Metric::Euclidean, Metric::Angular, Metric::InnerProduct] {
            for (i, j) in [(0, 1), (1, 0), (0, 2), (1, 1)] {
                let got = v.pair_distance(m, i, j);
                let scalar = m.distance(s.get(i), s.get(j));
                assert!((got - scalar).abs() <= 1e-5, "{m} ({i},{j}): {got} vs {scalar}");
            }
        }
        assert_eq!(v.pair_distance(Metric::Angular, 0, 2), 1.0, "zero vector sentinel");
    }
}
