//! Property tests pinning the SIMD dispatch contract: whatever backend is
//! active (AVX2, NEON, or the scalar fallback — forced via `MBI_FORCE_SCALAR`
//! in one CI leg), the Euclidean and inner-product kernels are bit-identical
//! to the portable scalar reference shape, and the angular paths agree with the
//! three-pass scalar formula to within `1e-5` (a row with no cached norm is
//! scored bit for bit like one whose cached norm is `inv_norm_of(row)`).

use mbi_math::simd::{self, scalar};
use mbi_math::{
    angular_batch, angular_distance, dot, inv_norm_of, neg_dot_batch, squared_euclidean,
    squared_euclidean_batch, squared_euclidean_x4, Metric, PreparedQuery,
};
use proptest::prelude::*;

/// The dims the ISSUE calls out: none is a multiple of the 8-lane width, and
/// 130 exercises stride (32), full-block (8) and scalar tails at once. 32 and
/// 960 pin the aligned fast paths.
const DIMS: [usize; 7] = [1, 7, 9, 33, 130, 32, 960];

const MAX_DIM: usize = 960;
const MAX_ROWS: usize = 4;

fn value_pool() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-8.0f32..8.0, MAX_DIM * (MAX_ROWS + 1))
}

proptest! {
    #[test]
    fn dispatched_euclidean_and_dot_are_bit_identical_to_scalar_reference(
        dim_idx in 0usize..DIMS.len(),
        n in 1usize..=MAX_ROWS,
        pool in value_pool(),
    ) {
        let dim = DIMS[dim_idx];
        let q = &pool[..dim];
        let rows = &pool[dim..dim * (n + 1)];

        let (mut se, mut ndp) = (vec![], vec![]);
        squared_euclidean_batch(q, rows, &mut se);
        neg_dot_batch(q, rows, &mut ndp);

        let (mut se_ref, mut ndp_ref) = (vec![], vec![]);
        scalar::euclidean_batch(q, rows, &mut se_ref);
        scalar::neg_dot_batch(q, rows, &mut ndp_ref);

        for i in 0..n {
            let row = &rows[i * dim..(i + 1) * dim];
            let dp = dot(q, row);
            prop_assert_eq!(se[i].to_bits(), se_ref[i].to_bits(), "se dim={} i={}", dim, i);
            prop_assert_eq!(dp.to_bits(), scalar::dot_row(q, row).to_bits(), "dot dim={} i={}", dim, i);
            prop_assert_eq!(ndp[i].to_bits(), ndp_ref[i].to_bits(), "neg dim={} i={}", dim, i);
            // The fused negation is exactly the negated dot, and the per-call
            // kernels dispatch through the same single-row primitives.
            prop_assert_eq!(ndp[i].to_bits(), (-dp).to_bits());
            prop_assert_eq!(se[i].to_bits(), squared_euclidean(q, row).to_bits());
        }
    }

    /// The 1 × 4 blocked kernel scores every pair bit for bit like the
    /// one-pair kernel at every length through 300 (up to four 64-float
    /// strides, each count of 8-lane folds, each scalar tail), over values
    /// from 1e-12 to 1e12 in magnitude. The unit tests in `simd.rs` hold the
    /// AVX2 arm to the same under a forced-scalar run.
    #[test]
    fn blocked_euclidean_x4_is_bit_identical_to_se_row(
        exp in -2i32..=2,
        pool in prop::collection::vec(-1.0f32..1.0, 300 * 5),
    ) {
        let scale = 10f32.powi(6 * exp);
        let pool: Vec<f32> = pool.iter().map(|x| x * scale).collect();
        for dim in 1..=300 {
            let a = &pool[..dim];
            let rows: [&[f32]; 4] = std::array::from_fn(|r| &pool[(r + 1) * dim..(r + 2) * dim]);
            let got = squared_euclidean_x4(a, rows);
            for (r, row) in rows.iter().enumerate() {
                let want = scalar::se_row(a, row).to_bits();
                prop_assert_eq!(got[r].to_bits(), want, "dim={} r={}", dim, r);
                prop_assert_eq!(squared_euclidean(a, row).to_bits(), want, "one-pair dim={}", dim);
            }
        }
    }

    #[test]
    fn dispatched_angular_agrees_with_scalar_formula(
        dim_idx in 0usize..DIMS.len(),
        n in 1usize..=MAX_ROWS,
        pool in value_pool(),
    ) {
        let dim = DIMS[dim_idx];
        let q = &pool[..dim];
        let rows = &pool[dim..dim * (n + 1)];
        let q_inv = inv_norm_of(q);
        let inv: Vec<f32> = rows.chunks_exact(dim).map(inv_norm_of).collect();

        let (mut cached, mut uncached) = (vec![], vec![]);
        angular_batch(q, q_inv, rows, Some(&inv), &mut cached);
        angular_batch(q, q_inv, rows, None, &mut uncached);

        let pq = PreparedQuery::new(Metric::Angular, q);
        for (i, row) in rows.chunks_exact(dim).enumerate() {
            let reference = angular_distance(q, row);
            prop_assert!((cached[i] - reference).abs() <= 1e-5,
                "cached dim={} i={}: {} vs {}", dim, i, cached[i], reference);
            // A row with no cached norm is scored by the cached formula over
            // `inv_norm_of(row)`, so both paths give the same bits.
            prop_assert_eq!(uncached[i].to_bits(), cached[i].to_bits(), "uncached dim={} i={}", dim, i);
            prop_assert_eq!(
                pq.distance_to(row).to_bits(),
                pq.distance_to_cached(row, inv_norm_of(row)).to_bits(),
                "distance_to dim={} i={}", dim, i
            );
        }
    }
}

/// Not a proptest, but belongs with these: the env-forced scalar fallback and
/// the feature-dispatched path must report which backend won so CI can assert
/// the leg it intended to pin actually ran.
#[test]
fn forced_scalar_env_is_respected() {
    let forced =
        std::env::var("MBI_FORCE_SCALAR").map(|v| v == "1" || v == "true").unwrap_or(false);
    if forced {
        assert_eq!(simd::active_backend(), simd::Backend::Scalar);
    }
}
