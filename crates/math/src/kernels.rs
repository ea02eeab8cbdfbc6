//! Prepared-query and 1-to-many batched distance kernels.
//!
//! Three per-comparison overheads dominate once the index structure is cheap
//! (see DESIGN.md "Distance-kernel architecture"):
//!
//! 1. the *query's* norm being recomputed once per candidate on the angular
//!    metric — [`PreparedQuery`] computes it exactly once per query;
//! 2. the *candidate's* norm being recomputed on every comparison — stores
//!    can cache a per-vector **inverse norm** at insert time (`0.0` is the
//!    sentinel for zero vectors) and feed it back via the `*_cached` paths,
//!    collapsing angular distance to a single dot pass (a row without one
//!    is scored by the same formula over [`inv_norm_of`], a second dot pass);
//! 3. per-call dispatch overhead when scanning contiguous rows — the
//!    `*_batch` kernels hold the query hot while streaming `N` candidates.
//!
//! Contract with the scalar kernels in [`crate::metric`]: the batched
//! Euclidean and inner-product paths are **bit-identical** (every backend in
//! [`crate::simd`] implements the same canonical accumulation shape, and the
//! per-call kernels dispatch to the same single-row primitives), and every
//! angular path agrees with [`angular_distance`](crate::angular_distance) to
//! within `1e-5`, including the zero-vector → `1.0` convention.

use crate::metric::Metric;
use crate::simd;
use crate::{dot, norm, squared_euclidean};
use std::cell::OnceCell;

/// Reciprocal Euclidean norm of `v`, with `0.0` as the zero-vector sentinel.
///
/// This is the value stored in a `VectorStore` norm column. Encoding "no
/// norm" as `0.0` (rather than `NaN` or an `Option`) keeps the column a plain
/// `f32` array and makes the sentinel test a single comparison in the kernel.
#[inline]
pub fn inv_norm_of(v: &[f32]) -> f32 {
    let n = norm(v);
    if n == 0.0 {
        0.0
    } else {
        1.0 / n
    }
}

/// Angular distance from precomputed parts: the dot product and the two
/// inverse norms. Either inverse norm being the `0.0` sentinel (a zero
/// vector) yields `1.0`, exactly like the scalar
/// [`angular_distance`](crate::angular_distance).
#[inline]
pub fn angular_from_parts(dp: f32, inv_a: f32, inv_b: f32) -> f32 {
    if inv_a == 0.0 || inv_b == 0.0 {
        return 1.0;
    }
    // Clamp for numerical safety: floating error can push |cos| past 1.
    1.0 - (dp * inv_a * inv_b).clamp(-1.0, 1.0)
}

/// Checks that `rows` is a flat `[n × dim]` buffer and returns `n`.
#[inline]
fn row_count(dim: usize, rows: &[f32]) -> usize {
    assert!(dim > 0, "query must have at least one dimension");
    assert_eq!(rows.len() % dim, 0, "rows length {} is not a multiple of dim {}", rows.len(), dim);
    rows.len() / dim
}

/// Appends `‖query − rowᵢ‖²` for each contiguous `dim`-sized row of `rows`
/// onto `out`. Bit-identical to calling
/// [`squared_euclidean`](crate::squared_euclidean) per row.
pub fn squared_euclidean_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
    let n = row_count(query.len(), rows);
    out.reserve(n);
    simd::euclidean_batch(query, rows, out);
}

/// Appends `−⟨query, rowᵢ⟩` (the inner-product *distance*) for each
/// contiguous `dim`-sized row of `rows` onto `out`.
///
/// The sign flip is fused into the batched kernel — there is no second pass
/// over `out` — and each value is bit-identical to `-dot(query, row)`.
pub fn neg_dot_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
    let n = row_count(query.len(), rows);
    out.reserve(n);
    simd::neg_dot_batch(query, rows, out);
}

/// Appends the angular distance from `query` to each contiguous `dim`-sized
/// row of `rows` onto `out`.
///
/// `query_inv_norm` is the query's precomputed inverse norm (`0.0` sentinel
/// for a zero query). When `inv_norms` is `Some`, it must hold one cached
/// inverse norm per row and each comparison is a single dot pass; otherwise
/// each row's inverse norm is taken from [`inv_norm_of`] first, which gives
/// the same bits as a cached column would. Either way the result is within
/// `1e-5` of the scalar [`angular_distance`](crate::angular_distance), with
/// zero vectors mapping to exactly `1.0`.
pub fn angular_batch(
    query: &[f32],
    query_inv_norm: f32,
    rows: &[f32],
    inv_norms: Option<&[f32]>,
    out: &mut Vec<f32>,
) {
    let n = row_count(query.len(), rows);
    out.reserve(n);
    match inv_norms {
        Some(inv) => {
            assert_eq!(inv.len(), n, "inverse-norm column does not match row count");
            simd::angular_batch_cached(query, query_inv_norm, rows, inv, out);
        }
        None => out.extend(
            rows.chunks_exact(query.len())
                .map(|row| angular_from_parts(dot(query, row), query_inv_norm, inv_norm_of(row))),
        ),
    }
}

/// A query with its metric-dependent preprocessing done exactly once.
///
/// For the angular metric this caches the query's inverse norm, so no kernel
/// ever recomputes it per candidate; for Euclidean and inner product the
/// struct is a zero-cost bundle of `(metric, query)` whose distances are
/// bit-identical to [`Metric::distance`].
///
/// ```
/// use mbi_math::{Metric, PreparedQuery};
///
/// let q = [3.0, 4.0];
/// let pq = PreparedQuery::new(Metric::Angular, &q);
/// assert!((pq.inv_norm() - 0.2).abs() < 1e-7);
/// let d = pq.distance_to(&[4.0, 3.0]);
/// assert!((d - Metric::Angular.distance(&q, &[4.0, 3.0])).abs() < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct PreparedQuery<'q> {
    metric: Metric,
    query: &'q [f32],
    inv_norm: f32,
    bits_hash: OnceCell<u64>,
}

impl<'q> PreparedQuery<'q> {
    /// Prepares `query` for repeated distance evaluation under `metric`.
    ///
    /// The inverse norm is computed only for [`Metric::Angular`]; the other
    /// metrics never read it.
    pub fn new(metric: Metric, query: &'q [f32]) -> Self {
        let inv_norm = if metric == Metric::Angular { inv_norm_of(query) } else { 0.0 };
        PreparedQuery { metric, query, inv_norm, bits_hash: OnceCell::new() }
    }

    /// The metric this query was prepared for.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The underlying query vector.
    #[inline]
    pub fn query(&self) -> &'q [f32] {
        self.query
    }

    /// The cached inverse norm (`0.0` for non-angular metrics and for zero
    /// queries).
    #[inline]
    pub fn inv_norm(&self) -> f32 {
        self.inv_norm
    }

    /// FNV-1a over the query's raw bits, computed on the first call and
    /// kept: the graph search seeds its entry pivots from it, so a query
    /// hashes its 4·d bytes once however many blocks it searches, and a
    /// query that no graph search reaches never hashes them.
    pub fn bits_hash(&self) -> u64 {
        *self.bits_hash.get_or_init(|| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for v in self.query {
                for b in v.to_bits().to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
            h
        })
    }

    /// Distance to a candidate whose inverse norm is *not* cached.
    ///
    /// Euclidean and inner product are bit-identical to
    /// [`Metric::distance`]; angular is
    /// [`distance_to_cached`](Self::distance_to_cached) over
    /// [`inv_norm_of`]`(b)`, bit for bit (within `1e-5` of scalar).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, like [`Metric::distance`].
    #[inline]
    pub fn distance_to(&self, b: &[f32]) -> f32 {
        assert_eq!(
            self.query.len(),
            b.len(),
            "dimension mismatch: {} vs {}",
            self.query.len(),
            b.len()
        );
        match self.metric {
            Metric::Euclidean => squared_euclidean(self.query, b),
            Metric::InnerProduct => -dot(self.query, b),
            Metric::Angular => self.distance_to_cached(b, inv_norm_of(b)),
        }
    }

    /// Distance to a candidate with a cached inverse norm: a single dot pass
    /// on the angular metric. Non-angular metrics ignore `b_inv_norm`.
    #[inline]
    pub fn distance_to_cached(&self, b: &[f32], b_inv_norm: f32) -> f32 {
        match self.metric {
            Metric::Angular => {
                assert_eq!(
                    self.query.len(),
                    b.len(),
                    "dimension mismatch: {} vs {}",
                    self.query.len(),
                    b.len()
                );
                if self.inv_norm == 0.0 || b_inv_norm == 0.0 {
                    return 1.0;
                }
                angular_from_parts(dot(self.query, b), self.inv_norm, b_inv_norm)
            }
            _ => self.distance_to(b),
        }
    }

    /// Appends the distance to every contiguous `dim`-sized row of `rows`
    /// onto `out`, dispatching to the metric's batched kernel. `inv_norms`
    /// is the cached inverse-norm column for exactly these rows, if any
    /// (only the angular metric reads it).
    pub fn distance_batch(&self, rows: &[f32], inv_norms: Option<&[f32]>, out: &mut Vec<f32>) {
        match self.metric {
            Metric::Euclidean => squared_euclidean_batch(self.query, rows, out),
            Metric::InnerProduct => neg_dot_batch(self.query, rows, out),
            Metric::Angular => angular_batch(self.query, self.inv_norm, rows, inv_norms, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angular_distance;

    fn rows_of(n: usize, dim: usize, seed: u32) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n * dim)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn inv_norm_of_zero_vector_is_sentinel() {
        assert_eq!(inv_norm_of(&[0.0; 12]), 0.0);
        assert!((inv_norm_of(&[3.0, 4.0]) - 0.2).abs() < 1e-7);
    }

    #[test]
    fn batch_euclidean_and_dot_are_bit_identical_to_per_call() {
        for dim in [1usize, 3, 8, 9, 32, 33] {
            let q = rows_of(1, dim, 7);
            let rows = rows_of(5, dim, 99);
            let mut se = Vec::new();
            let mut ndp = Vec::new();
            squared_euclidean_batch(&q, &rows, &mut se);
            neg_dot_batch(&q, &rows, &mut ndp);
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                assert_eq!(se[i].to_bits(), squared_euclidean(&q, row).to_bits());
                assert_eq!(ndp[i].to_bits(), (-dot(&q, row)).to_bits());
            }
        }
    }

    #[test]
    fn batch_angular_matches_scalar_with_and_without_cache() {
        for dim in [1usize, 7, 8, 16, 33] {
            let q = rows_of(1, dim, 41);
            let rows = rows_of(6, dim, 43);
            let inv: Vec<f32> = rows.chunks_exact(dim).map(inv_norm_of).collect();
            let q_inv = inv_norm_of(&q);
            let mut cached = Vec::new();
            let mut uncached = Vec::new();
            angular_batch(&q, q_inv, &rows, Some(&inv), &mut cached);
            angular_batch(&q, q_inv, &rows, None, &mut uncached);
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                let scalar = angular_distance(&q, row);
                assert!((cached[i] - scalar).abs() <= 1e-5, "cached dim={dim} i={i}");
                assert!((uncached[i] - scalar).abs() <= 1e-5, "uncached dim={dim} i={i}");
            }
        }
    }

    #[test]
    fn zero_vectors_hit_exactly_one_everywhere() {
        // Regression for the sentinel convention: every angular path must
        // return *exactly* 1.0 when either side is the zero vector, matching
        // the scalar kernel bit for bit.
        let dim = 5;
        let q = rows_of(1, dim, 3);
        let zero = vec![0.0f32; dim];

        assert_eq!(angular_from_parts(0.0, 0.0, 0.5), 1.0);
        assert_eq!(angular_from_parts(0.0, 0.5, 0.0), 1.0);

        // Zero candidate row, cached (sentinel 0.0) and uncached.
        let mut out = Vec::new();
        angular_batch(&q, inv_norm_of(&q), &zero, Some(&[0.0]), &mut out);
        assert_eq!(out, vec![1.0]);
        out.clear();
        angular_batch(&q, inv_norm_of(&q), &zero, None, &mut out);
        assert_eq!(out, vec![1.0]);

        // Zero query against a normal row.
        let pq = PreparedQuery::new(Metric::Angular, &zero);
        assert_eq!(pq.inv_norm(), 0.0);
        assert_eq!(pq.distance_to(&q), 1.0);
        assert_eq!(pq.distance_to_cached(&q, inv_norm_of(&q)), 1.0);
        assert_eq!(angular_distance(&zero, &q), 1.0);
    }

    #[test]
    fn prepared_query_matches_metric_distance() {
        for metric in [Metric::Euclidean, Metric::Angular, Metric::InnerProduct] {
            for dim in [1usize, 8, 11, 24] {
                let q = rows_of(1, dim, 17);
                let rows = rows_of(4, dim, 19);
                let inv: Vec<f32> = rows.chunks_exact(dim).map(inv_norm_of).collect();
                let pq = PreparedQuery::new(metric, &q);
                let mut batch = Vec::new();
                pq.distance_batch(&rows, Some(&inv), &mut batch);
                for (i, row) in rows.chunks_exact(dim).enumerate() {
                    let scalar = metric.distance(&q, row);
                    let tol = if metric == Metric::Angular { 1e-5 } else { 0.0 };
                    assert!((pq.distance_to(row) - scalar).abs() <= tol);
                    assert!((pq.distance_to_cached(row, inv[i]) - scalar).abs() <= tol);
                    assert!((batch[i] - scalar).abs() <= tol);
                    if metric != Metric::Angular {
                        // Bit-identical on Euclidean / inner product.
                        assert_eq!(pq.distance_to(row).to_bits(), scalar.to_bits());
                        assert_eq!(batch[i].to_bits(), scalar.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn prepared_query_rejects_dim_mismatch() {
        PreparedQuery::new(Metric::Euclidean, &[1.0]).distance_to(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple of dim")]
    fn batch_rejects_ragged_rows() {
        let mut out = Vec::new();
        squared_euclidean_batch(&[1.0, 2.0], &[1.0, 2.0, 3.0], &mut out);
    }
}
