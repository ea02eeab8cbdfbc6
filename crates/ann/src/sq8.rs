//! Per-segment SQ8 scalar quantization: a u8 code column scanned at ~4× the
//! memory bandwidth of the f32 rows.
//!
//! Each sealed segment can carry an [`Sq8Column`]: per-dimension affine
//! parameters (`minⱼ`, `deltaⱼ = (maxⱼ − minⱼ)/255`), one `u8` code per
//! coordinate (`x̂ⱼ = minⱼ + deltaⱼ·codeⱼ`), and the decoded squared norm of
//! every row. Candidate scans run a **first pass** over the codes to rank
//! rows approximately, then rerank the best `k × overfetch` survivors against
//! the exact f32 rows — so returned distances are always exact, and only the
//! *ranking* of the cut-off tail depends on quantization error.
//!
//! The scan never decodes a row. With `qdⱼ = qⱼ·deltaⱼ` and
//! `qm = ⟨q, min⟩` precomputed once per (query, segment), a single fused
//! pass `Sᵢ = Σⱼ qdⱼ·codeᵢⱼ` (the `sq8_code_dot` kernel) recovers every
//! metric from the expanded form:
//!
//! * `⟨q, x̂ᵢ⟩ = qm + Sᵢ`
//! * `‖q − x̂ᵢ‖² = ‖q‖² − 2(qm + Sᵢ) + ‖x̂ᵢ‖²`
//! * `angular(q, x̂ᵢ)` from `⟨q, x̂ᵢ⟩` and the stored `‖x̂ᵢ‖²`.

use crate::mapped::Col;
use mbi_math::{angular_from_parts, dot, inv_norm_of, Metric, PreparedQuery};

/// The SQ8 side data of one segment: affine parameters, the code matrix, and
/// the decoded squared norm of each row.
///
/// The buffers are [`Col`]s: heap-owned for segments sealed in RAM,
/// mapped-in-place for segments rehydrated from a checkpoint by the storage
/// tier. Both forms scan bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct Sq8Column {
    dim: usize,
    /// Row-major `u8` codes, `rows × dim`.
    codes: Col<u8>,
    /// Per-dimension minimum (the affine offset), length `dim`.
    mins: Col<f32>,
    /// Per-dimension step `(max − min)/255`; `0.0` for constant dimensions.
    deltas: Col<f32>,
    /// `‖x̂ᵢ‖²` of every decoded row — stored so the Euclidean and angular
    /// first passes need only the code dot.
    row_norm2: Col<f32>,
}

impl Sq8Column {
    /// Quantizes `rows × dim` flat row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn encode(dim: usize, data: &[f32]) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(data.len() % dim, 0, "flat buffer length not a multiple of dim");
        let rows = data.len() / dim;
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for row in data.chunks_exact(dim) {
            for (j, &x) in row.iter().enumerate() {
                mins[j] = mins[j].min(x);
                maxs[j] = maxs[j].max(x);
            }
        }
        if rows == 0 {
            mins.iter_mut().for_each(|m| *m = 0.0);
        }
        let deltas: Vec<f32> = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| if hi > lo { (hi - lo) / 255.0 } else { 0.0 })
            .collect();
        let mut codes = Vec::with_capacity(rows * dim);
        let mut row_norm2 = Vec::with_capacity(rows);
        for row in data.chunks_exact(dim) {
            let mut n2 = 0.0f32;
            for (j, &x) in row.iter().enumerate() {
                let c = if deltas[j] > 0.0 {
                    ((x - mins[j]) / deltas[j]).round().clamp(0.0, 255.0) as u8
                } else {
                    0
                };
                codes.push(c);
                let decoded = deltas[j].mul_add(c as f32, mins[j]);
                n2 = decoded.mul_add(decoded, n2);
            }
            row_norm2.push(n2);
        }
        Sq8Column {
            dim,
            codes: codes.into(),
            mins: mins.into(),
            deltas: deltas.into(),
            row_norm2: row_norm2.into(),
        }
    }

    /// Rebuilds a column from persisted parts, revalidating every shape
    /// invariant (the load path must not trust the file).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn from_parts(
        dim: usize,
        codes: Vec<u8>,
        mins: Vec<f32>,
        deltas: Vec<f32>,
        row_norm2: Vec<f32>,
    ) -> Self {
        Self::from_cols(dim, codes.into(), mins.into(), deltas.into(), row_norm2.into())
    }

    /// [`Self::from_parts`] over owned-or-mapped columns — the storage tier's
    /// zero-copy rehydration path. Same shape validation.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn from_cols(
        dim: usize,
        codes: Col<u8>,
        mins: Col<f32>,
        deltas: Col<f32>,
        row_norm2: Col<f32>,
    ) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(codes.len() % dim, 0, "code buffer length not a multiple of dim");
        assert_eq!(mins.len(), dim, "mins column has wrong length");
        assert_eq!(deltas.len(), dim, "deltas column has wrong length");
        assert_eq!(row_norm2.len(), codes.len() / dim, "row-norm column has wrong length");
        Sq8Column { dim, codes, mins, deltas, row_norm2 }
    }

    /// The dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of coded rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len() / self.dim
    }

    /// Whether the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The row-major code matrix.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Per-dimension minima.
    #[inline]
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// Per-dimension steps.
    #[inline]
    pub fn deltas(&self) -> &[f32] {
        &self.deltas
    }

    /// Decoded squared norms, one per row.
    #[inline]
    pub fn row_norm2(&self) -> &[f32] {
        &self.row_norm2
    }

    /// Decodes row `i` (tests and diagnostics; the scan never does this).
    pub fn decode_row(&self, i: usize) -> Vec<f32> {
        self.codes[i * self.dim..(i + 1) * self.dim]
            .iter()
            .enumerate()
            .map(|(j, &c)| self.deltas[j].mul_add(c as f32, self.mins[j]))
            .collect()
    }

    /// A borrow of rows `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    #[inline]
    pub fn slice(&self, start: usize, end: usize) -> Sq8ChunkRef<'_> {
        assert!(start <= end && end <= self.len(), "row range out of bounds");
        Sq8ChunkRef {
            codes: &self.codes[start * self.dim..end * self.dim],
            row_norm2: &self.row_norm2[start..end],
            mins: &self.mins,
            deltas: &self.deltas,
        }
    }

    /// Whether any buffer of this column views mapped file bytes.
    pub fn is_mapped(&self) -> bool {
        self.codes.is_mapped()
            || self.mins.is_mapped()
            || self.deltas.is_mapped()
            || self.row_norm2.is_mapped()
    }

    /// Bytes of heap memory held by the column (0 for mapped columns, whose
    /// residency is charged to the tier's block cache).
    pub fn memory_bytes(&self) -> usize {
        self.codes.heap_bytes()
            + self.mins.heap_bytes()
            + self.deltas.heap_bytes()
            + self.row_norm2.heap_bytes()
    }
}

/// A borrowed run of SQ8 rows plus the owning segment's affine parameters.
///
/// `mins`/`deltas` always cover the full dimension; `codes`/`row_norm2`
/// cover exactly the borrowed rows. Views spanning several segments hand out
/// one chunk per segment, each with that segment's own parameters.
#[derive(Clone, Copy, Debug)]
pub struct Sq8ChunkRef<'a> {
    /// Row-major codes of the borrowed rows.
    pub codes: &'a [u8],
    /// Decoded squared norms of the borrowed rows.
    pub row_norm2: &'a [f32],
    /// Per-dimension minima of the owning segment.
    pub mins: &'a [f32],
    /// Per-dimension steps of the owning segment.
    pub deltas: &'a [f32],
}

/// A query prepared against one segment's quantization parameters: everything
/// the expanded-form first pass needs, so each scanned row costs exactly one
/// `sq8_code_dot` plus a couple of scalar ops.
#[derive(Clone, Debug)]
pub struct Sq8Scan {
    metric: Metric,
    /// `qⱼ·deltaⱼ` — the kernel's left operand.
    qd: Vec<f32>,
    /// `⟨q, min⟩`.
    qm: f32,
    /// `‖q‖²` (Euclidean epilogue).
    q_norm2: f32,
    /// `1/‖q‖` with the `0.0` zero sentinel (angular epilogue).
    q_inv: f32,
    /// Address of the `mins` column this was prepared against, for
    /// [`Self::matches`]. An address (not a borrow) keeps the scan `Send`.
    anchor: usize,
}

impl Sq8Scan {
    /// Prepares `pq` against the parameters of one segment's column.
    ///
    /// # Panics
    ///
    /// Panics if the parameter columns don't match the query dimension.
    pub fn new(pq: &PreparedQuery<'_>, mins: &[f32], deltas: &[f32]) -> Self {
        let mut scan = Sq8Scan {
            metric: pq.metric(),
            qd: Vec::new(),
            qm: 0.0,
            q_norm2: 0.0,
            q_inv: 0.0,
            anchor: 0,
        };
        scan.prepare(pq, mins, deltas);
        scan
    }

    /// [`Self::new`] in place: re-prepares this scan for another query or
    /// segment, reusing its `qd` buffer.
    fn prepare(&mut self, pq: &PreparedQuery<'_>, mins: &[f32], deltas: &[f32]) {
        let q = pq.query();
        assert_eq!(mins.len(), q.len(), "mins column does not match query dimension");
        assert_eq!(deltas.len(), q.len(), "deltas column does not match query dimension");
        self.metric = pq.metric();
        self.qd.clear();
        self.qd.extend(q.iter().zip(deltas).map(|(&x, &d)| x * d));
        self.qm = dot(q, mins);
        self.q_norm2 = dot(q, q);
        self.q_inv = inv_norm_of(q);
        self.anchor = mins.as_ptr() as usize;
    }

    /// Whether this scan was prepared against exactly these parameters —
    /// pointer identity, so multi-segment walks can reuse the preparation
    /// while the same segment keeps streaming.
    #[inline]
    pub fn matches(&self, mins: &[f32]) -> bool {
        // Same length is implied: both borrows come from columns of one view.
        self.anchor == mins.as_ptr() as usize
    }

    /// Approximate distance to one coded row.
    #[inline]
    pub fn approx_row(&self, codes: &[u8], norm2: f32) -> f32 {
        self.finish(self.qm + mbi_math::simd::sq8_code_dot(&self.qd, codes), norm2)
    }

    /// Appends the approximate distance of every row in `chunk` to `out`.
    pub fn approx_batch(&self, codes: &[u8], row_norm2: &[f32], out: &mut Vec<f32>) {
        let base = out.len();
        mbi_math::simd::sq8_code_dot_batch(&self.qd, codes, out);
        debug_assert_eq!(out.len() - base, row_norm2.len());
        for (d, &n2) in out[base..].iter_mut().zip(row_norm2) {
            *d = self.finish(self.qm + *d, n2);
        }
    }

    /// Turns `⟨q, x̂⟩` plus the stored `‖x̂‖²` into the metric's distance.
    #[inline]
    fn finish(&self, qdot: f32, norm2: f32) -> f32 {
        match self.metric {
            Metric::Euclidean => (-2.0f32).mul_add(qdot, self.q_norm2) + norm2,
            Metric::InnerProduct => -qdot,
            Metric::Angular => {
                let inv = if norm2 > 0.0 { 1.0 / norm2.sqrt() } else { 0.0 };
                angular_from_parts(qdot, self.q_inv, inv)
            }
        }
    }
}

/// The [`Sq8Scan`]s of one graph search, one per segment it has touched. A
/// block spans few segments (one per leaf under it) and graph neighbours
/// cluster, so the linear lookup stays short. It lives in a
/// [`SearchScratch`](crate::SearchScratch), so warm searches re-prepare
/// earlier scans in place instead of allocating.
#[derive(Debug, Default)]
pub(crate) struct Sq8ScanCache {
    scans: Vec<Sq8Scan>,
    /// `scans[..live]` are prepared for the current search; the rest are
    /// spare buffers.
    live: usize,
}

impl Sq8ScanCache {
    /// Forgets every preparation; call once per search.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
    }

    /// Approximate distance from `pq` to the one-row chunk `row`, preparing
    /// its segment's scan on first sight.
    pub(crate) fn approx_row(&mut self, pq: &PreparedQuery<'_>, row: Sq8ChunkRef<'_>) -> f32 {
        let live = &self.scans[..self.live];
        let pos = live.iter().position(|s| s.matches(row.mins)).unwrap_or_else(|| {
            match self.scans.get_mut(self.live) {
                Some(spare) => spare.prepare(pq, row.mins, row.deltas),
                None => self.scans.push(Sq8Scan::new(pq, row.mins, row.deltas)),
            }
            self.live += 1;
            self.live - 1
        });
        self.scans[pos].approx_row(row.codes, row.row_norm2[0])
    }
}
