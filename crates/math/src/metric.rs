//! Distance kernels.
//!
//! The paper evaluates on Euclidean datasets (SIFT1M, GIST1M) and angular
//! datasets (MovieLens, COMS, GloVe-100, DEEP1B); see Table 2. Both metrics are
//! provided here, plus inner-product similarity as a convenience for
//! recommendation-style workloads.
//!
//! All kernels dispatch to the explicit-SIMD implementations in
//! [`crate::simd`]: AVX2+FMA on `x86_64`, NEON on `aarch64`, and a portable
//! scalar shape otherwise. Every backend implements the same canonical
//! accumulation shape, so the per-call kernels here, the batched kernels in
//! [`crate::kernels`], and the scalar fallback are all bit-identical to each
//! other on Euclidean and inner product (see the `simd` module docs).

use serde::{Deserialize, Serialize};

use crate::simd;

/// The distance function `σ` of the paper (§3.1): any measure comparing two
/// `d`-dimensional vectors. Smaller is closer for every variant.
///
/// ```
/// use mbi_math::Metric;
///
/// let a = [1.0, 0.0];
/// let b = [0.0, 1.0];
/// assert_eq!(Metric::Euclidean.distance(&a, &b), 2.0); // squared
/// assert!((Metric::Angular.distance(&a, &b) - 1.0).abs() < 1e-6);
/// assert_eq!(Metric::Angular.name(), "angular");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Squared Euclidean distance. Monotone in true Euclidean distance, so
    /// nearest-neighbour *rankings* — and therefore recall@k — are identical
    /// while avoiding a `sqrt` per comparison. Used for SIFT1M and GIST1M.
    Euclidean,
    /// Angular (cosine) distance: `1 − cos(u, v)`. Used for MovieLens, COMS,
    /// GloVe-100 and DEEP1B.
    Angular,
    /// Negative inner product: `−⟨u, v⟩`. Not used by the paper's datasets but
    /// common for recommendation embeddings; included because the MBI
    /// structure is metric-agnostic (any `σ` is allowed by Definition 3.1).
    InnerProduct,
}

impl Metric {
    /// Computes the distance between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths (a dimension mismatch is a
    /// programming error, never a data condition).
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
        match self {
            Metric::Euclidean => squared_euclidean(a, b),
            Metric::Angular => angular_distance(a, b),
            Metric::InnerProduct => -dot(a, b),
        }
    }

    /// A short lowercase name used in reports (`"euclidean"`, `"angular"`,
    /// `"inner_product"`), mirroring the Distance column of Table 2.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Euclidean => "euclidean",
            Metric::Angular => "angular",
            Metric::InnerProduct => "inner_product",
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Squared Euclidean distance `‖a − b‖²`.
///
/// # Panics
///
/// Panics if the slices have different lengths: the SIMD kernels read `b`
/// for `a.len()` floats.
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    simd::squared_euclidean(a, b)
}

/// Squared Euclidean distances from `a` to each of four rows, each
/// bit-identical to [`squared_euclidean`] of that pair — the batch the
/// NNDescent local join scores one row against.
///
/// # Panics
///
/// Panics if a row's length differs from `a`'s.
#[inline]
pub fn squared_euclidean_x4(a: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
    assert!(rows.iter().all(|r| r.len() == a.len()), "dimension mismatch");
    simd::squared_euclidean_x4(a, rows)
}

/// Inner product `⟨a, b⟩`.
///
/// # Panics
///
/// Panics if the slices have different lengths, like [`squared_euclidean`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    simd::dot(a, b)
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Angular (cosine) distance `1 − ⟨a,b⟩ / (‖a‖·‖b‖)`.
///
/// Zero vectors are treated as maximally distant from everything (`1.0`),
/// which keeps the function total; synthetic generators never emit them but a
/// user-supplied query might.
///
/// # Panics
///
/// Panics if the slices have different lengths, like [`dot`].
#[inline]
pub fn angular_distance(a: &[f32], b: &[f32]) -> f32 {
    let dp = dot(a, b);
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    // Clamp for numerical safety: floating error can push |cos| past 1.
    let cos = (dp / (na * nb)).clamp(-1.0, 1.0);
    1.0 - cos
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn squared_euclidean_basic() {
        approx(squared_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        approx(squared_euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn squared_euclidean_handles_tail() {
        // Length 11 = one chunk of 8 + tail of 3.
        let a: Vec<f32> = (0..11).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..11).map(|i| (i + 1) as f32).collect();
        approx(squared_euclidean(&a, &b), 11.0);
    }

    #[test]
    fn dot_basic() {
        approx(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norm_basic() {
        approx(norm(&[3.0, 4.0]), 5.0);
        approx(norm(&[0.0; 16]), 0.0);
    }

    #[test]
    fn angular_identical_is_zero() {
        let v = [0.3, -0.7, 0.2, 0.9];
        approx(angular_distance(&v, &v), 0.0);
    }

    #[test]
    fn angular_opposite_is_two() {
        let v = [1.0, 2.0, -1.0];
        let w = [-1.0, -2.0, 1.0];
        approx(angular_distance(&v, &w), 2.0);
    }

    #[test]
    fn angular_orthogonal_is_one() {
        approx(angular_distance(&[1.0, 0.0], &[0.0, 5.0]), 1.0);
    }

    #[test]
    fn angular_scale_invariant() {
        let a = [0.5, 1.5, -2.0, 0.25, 1.0];
        let b = [1.0, -0.5, 0.75, 2.0, -1.0];
        let a2: Vec<f32> = a.iter().map(|x| x * 7.0).collect();
        approx(angular_distance(&a, &b), angular_distance(&a2, &b));
    }

    #[test]
    fn angular_zero_vector_is_max() {
        approx(angular_distance(&[0.0, 0.0], &[1.0, 2.0]), 1.0);
    }

    #[test]
    fn metric_dispatch() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        approx(Metric::Euclidean.distance(&a, &b), 2.0);
        approx(Metric::Angular.distance(&a, &b), 1.0);
        approx(Metric::InnerProduct.distance(&a, &b), 0.0);
        approx(Metric::InnerProduct.distance(&a, &a), -1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn metric_rejects_dim_mismatch() {
        Metric::Euclidean.distance(&[1.0], &[1.0, 2.0]);
    }

    // The safe kernels check lengths in every build: a release build that
    // skipped the check would read past the shorter slice.
    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn squared_euclidean_rejects_dim_mismatch() {
        squared_euclidean(&[1.0; 64], &[2.0; 8]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_rejects_dim_mismatch() {
        dot(&[1.0; 64], &[2.0; 8]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn angular_distance_rejects_dim_mismatch() {
        angular_distance(&[1.0; 64], &[2.0; 8]);
    }

    #[test]
    fn metric_names() {
        assert_eq!(Metric::Euclidean.name(), "euclidean");
        assert_eq!(Metric::Angular.name(), "angular");
        assert_eq!(Metric::InnerProduct.name(), "inner_product");
        assert_eq!(Metric::Angular.to_string(), "angular");
    }

    #[test]
    fn kernels_match_naive_implementations() {
        // Cross-check the dispatched kernels against straightforward loops on
        // a length that exercises both the vector body and the scalar tail.
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.91).cos()).collect();
        let naive_se: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        let naive_dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        approx(squared_euclidean(&a, &b), naive_se);
        approx(dot(&a, &b), naive_dot);
    }
}
