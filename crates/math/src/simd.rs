//! Explicit-SIMD distance kernels with runtime dispatch.
//!
//! Every kernel in this module — scalar, AVX2 and NEON alike — implements the
//! same **canonical accumulation shape**, so the backends are bit-identical to
//! each other and the dispatch decision can never change a distance:
//!
//! * the input is consumed in strides of [`STRIDE`] = 32 floats, split across
//!   [`CHAINS`] = 4 independent 8-lane accumulators (`acc0..acc3`) so the
//!   floating-point dependency chains are short enough to saturate the FMA
//!   ports (the squared-Euclidean kernel uses [`SE_CHAINS`] = 8 chains over
//!   64-float strides — its extra `sub` per group makes the 4-chain loop
//!   front-end-bound);
//! * every multiply-accumulate is a **fused** multiply-add (`f32::mul_add` in
//!   the scalar shape, `vfmadd`/`vfma` in the vector shapes) — IEEE 754
//!   specifies fused rounding exactly, which is what makes the backends agree
//!   bit for bit;
//! * after the strided body the chains are combined lane-wise as
//!   `(acc0 + acc1) + (acc2 + acc3)`, remaining full 8-blocks fold into the
//!   combined vector, the 8 lanes are summed **sequentially** (lane 0 first),
//!   and a scalar tail handles the last `len % 8` elements in order.
//!
//! The active backend is chosen once per process by [`active_backend`]:
//! AVX2+FMA on `x86_64` when the CPU supports it, NEON on `aarch64`, and the
//! scalar shape otherwise. Setting the environment variable
//! `MBI_FORCE_SCALAR=1` (checked once, at first use) forces the scalar
//! fallback — CI runs the math and ann suites both ways to pin the
//! bit-identity contract.
//!
//! The SQ8 code dot ([`sq8_code_dot_batch`]) has no vector backend: no scorer
//! reads SQ8 codes, and the benchmark's kernel probe is its last caller. It
//! runs the canonical shape in scalar code ([`scalar::sq8_code_dot_row`]) and
//! is deprecated.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Virtual SIMD lane width of the canonical shape (8 × `f32` = one AVX2
/// register, two NEON registers).
pub const LANES: usize = 8;
/// Independent accumulator chains per kernel (dot-style kernels).
pub const CHAINS: usize = 4;
/// Floats consumed per unrolled iteration (`LANES * CHAINS`).
pub const STRIDE: usize = LANES * CHAINS;
/// Accumulator chains in the squared-Euclidean kernels. The extra `sub` per
/// 8-lane group makes a 4-chain loop front-end-bound, so Euclidean unrolls
/// twice as deep; the dot-style kernels would gain nothing (they are already
/// port- or bandwidth-bound).
pub const SE_CHAINS: usize = 8;
/// Floats consumed per unrolled iteration of the squared-Euclidean kernels.
pub const SE_STRIDE: usize = LANES * SE_CHAINS;

/// The kernel implementation selected at runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar shape built on `f32::mul_add`. Always available; forced
    /// by `MBI_FORCE_SCALAR=1`.
    Scalar,
    /// AVX2 + FMA intrinsics (`x86_64` only).
    Avx2,
    /// NEON intrinsics (`aarch64` only; baseline for that architecture).
    Neon,
}

impl Backend {
    /// Short lowercase name used in bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

const BACKEND_UNINIT: u8 = 0;
const BACKEND_SCALAR: u8 = 1;
const BACKEND_AVX2: u8 = 2;
const BACKEND_NEON: u8 = 3;

static BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNINIT);

/// Whether `MBI_FORCE_SCALAR` asks for the portable code paths — the one
/// switch shared by the distance kernels here and the checksum kernel in
/// [`crate::crc`].
pub(crate) fn scalar_forced() -> bool {
    std::env::var("MBI_FORCE_SCALAR").map(|v| v == "1" || v == "true").unwrap_or(false)
}

fn detect_backend() -> u8 {
    if scalar_forced() {
        return BACKEND_SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return BACKEND_AVX2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return BACKEND_NEON;
    }
    #[allow(unreachable_code)]
    BACKEND_SCALAR
}

#[inline]
fn backend_code() -> u8 {
    let b = BACKEND.load(Ordering::Relaxed);
    if b != BACKEND_UNINIT {
        return b;
    }
    let detected = detect_backend();
    BACKEND.store(detected, Ordering::Relaxed);
    detected
}

/// The backend every kernel in this crate dispatches to.
///
/// Decided once per process: the first call reads `MBI_FORCE_SCALAR` and the
/// CPU feature bits; later calls return the cached answer.
pub fn active_backend() -> Backend {
    match backend_code() {
        BACKEND_AVX2 => Backend::Avx2,
        BACKEND_NEON => Backend::Neon,
        _ => Backend::Scalar,
    }
}

/// Dispatches `$f($($args),*)` to the active backend implementation.
macro_rules! dispatch {
    ($f:ident($($args:expr),* $(,)?)) => {
        match backend_code() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: BACKEND_AVX2 is only stored after `is_x86_feature_detected!`
            // confirmed both `avx2` and `fma` on this CPU.
            BACKEND_AVX2 => unsafe { avx2::$f($($args),*) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            BACKEND_NEON => unsafe { neon::$f($($args),*) },
            _ => scalar::$f($($args),*),
        }
    };
}

/// Asks the CPU to start loading every 64-byte cache line of `data` into L1,
/// so a loop that gathers scattered rows can issue all their misses before it
/// scores the first one. A pure hint: it never faults, changes no value and
/// returns at once. A no-op off `x86_64` and under Miri.
#[inline]
pub fn prefetch<T>(data: &[T]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let (p, bytes) = (data.as_ptr().cast::<i8>(), std::mem::size_of_val(data));
        // Stepping from the first byte misses the last line of a slice that
        // does not start on a line boundary; the last byte covers it.
        for off in (0..bytes).step_by(64).chain(bytes.checked_sub(1)) {
            // SAFETY: `off < bytes`, so the pointer stays inside `data`; SSE
            // is baseline on x86_64, and a prefetch never faults or writes.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(p.add(off)) };
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = data;
}

// ---------------------------------------------------------------------------
// Dispatched entry points (crate-internal; `kernels`/`metric` wrap them).
// ---------------------------------------------------------------------------

#[inline]
pub(crate) fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(se_row(a, b))
}

#[inline]
pub(crate) fn squared_euclidean_x4(a: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
    dispatch!(se_rows4(a, rows))
}

#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(dot_row(a, b))
}

#[inline]
pub(crate) fn euclidean_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
    dispatch!(euclidean_batch(query, rows, out))
}

#[inline]
pub(crate) fn neg_dot_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
    dispatch!(neg_dot_batch(query, rows, out))
}

#[inline]
pub(crate) fn angular_batch_cached(
    query: &[f32],
    query_inv_norm: f32,
    rows: &[f32],
    inv_norms: &[f32],
    out: &mut Vec<f32>,
) {
    dispatch!(angular_batch_cached(query, query_inv_norm, rows, inv_norms, out))
}

/// Appends `Σⱼ qdⱼ·codeᵢⱼ` for each SQ8-coded row of `codes` — the raw code
/// dot of the expanded-form SQ8 scan, where `qd` is the query pre-scaled by
/// the per-dimension deltas (`qdⱼ = qⱼ·deltaⱼ`). Scalar on every backend.
///
/// # Panics
///
/// Panics if `codes.len()` is not a multiple of `qd.len()`.
#[deprecated(note = "no scorer uses SQ8; removed with ROADMAP item 1")]
pub fn sq8_code_dot_batch(qd: &[f32], codes: &[u8], out: &mut Vec<f32>) {
    let dim = qd.len();
    assert!(dim > 0, "query must have at least one dimension");
    assert_eq!(
        codes.len() % dim,
        0,
        "codes length {} is not a multiple of dim {}",
        codes.len(),
        dim
    );
    out.extend(codes.chunks_exact(dim).map(|row| scalar::sq8_code_dot_row(qd, row)));
}

// ---------------------------------------------------------------------------
// Scalar reference shape.
// ---------------------------------------------------------------------------

/// Portable implementation of the canonical shape.
///
/// This is both the runtime fallback and the reference the SIMD backends are
/// property-tested against (bit-identical for Euclidean/dot, `1e-5` for the
/// derived angular paths). Public so tests and benches can pin a backend
/// without going through the env switch.
pub mod scalar {
    use super::{CHAINS, LANES, SE_CHAINS, SE_STRIDE, STRIDE};
    use crate::kernels::angular_from_parts;

    /// One fused step of a reduction: `acc ← fma(x, y, acc)` style updates.
    /// Each kernel supplies its own `step` so the shape is written once.
    #[inline(always)]
    fn reduce(a: &[f32], b: &[f32], step: impl Fn(f32, f32, f32) -> f32) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = [[0.0f32; LANES]; CHAINS];
        let mut i = 0;
        while i + STRIDE <= n {
            for (c, chain) in acc.iter_mut().enumerate() {
                let base = i + c * LANES;
                for (l, slot) in chain.iter_mut().enumerate() {
                    *slot = step(*slot, a[base + l], b[base + l]);
                }
            }
            i += STRIDE;
        }
        let mut v = [0.0f32; LANES];
        for (l, slot) in v.iter_mut().enumerate() {
            *slot = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
        }
        while i + LANES <= n {
            for (l, slot) in v.iter_mut().enumerate() {
                *slot = step(*slot, a[i + l], b[i + l]);
            }
            i += LANES;
        }
        let mut s = v[0];
        for &lane in &v[1..] {
            s += lane;
        }
        while i < n {
            s = step(s, a[i], b[i]);
            i += 1;
        }
        s
    }

    /// Squared Euclidean distance of one row pair (8-chain shape).
    #[inline]
    pub fn se_row(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = [[0.0f32; LANES]; SE_CHAINS];
        let mut i = 0;
        while i + SE_STRIDE <= n {
            for (c, chain) in acc.iter_mut().enumerate() {
                let base = i + c * LANES;
                for (l, slot) in chain.iter_mut().enumerate() {
                    let d = a[base + l] - b[base + l];
                    *slot = d.mul_add(d, *slot);
                }
            }
            i += SE_STRIDE;
        }
        let mut v = [0.0f32; LANES];
        for (l, slot) in v.iter_mut().enumerate() {
            *slot = ((acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]))
                + ((acc[4][l] + acc[5][l]) + (acc[6][l] + acc[7][l]));
        }
        while i + LANES <= n {
            for (l, slot) in v.iter_mut().enumerate() {
                let d = a[i + l] - b[i + l];
                *slot = d.mul_add(d, *slot);
            }
            i += LANES;
        }
        let mut s = v[0];
        for &lane in &v[1..] {
            s += lane;
        }
        while i < n {
            let d = a[i] - b[i];
            s = d.mul_add(d, s);
            i += 1;
        }
        s
    }

    /// Squared Euclidean distances from `a` to four rows: [`se_row`] of
    /// each pair.
    #[inline]
    pub fn se_rows4(a: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
        rows.map(|b| se_row(a, b))
    }

    /// Inner product of one row pair.
    #[inline]
    pub fn dot_row(a: &[f32], b: &[f32]) -> f32 {
        reduce(a, b, |acc, x, y| x.mul_add(y, acc))
    }

    /// Batched squared Euclidean distances (appends one value per row).
    pub fn euclidean_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
        for row in rows.chunks_exact(query.len()) {
            out.push(se_row(query, row));
        }
    }

    /// Batched inner-product distances `−⟨query, row⟩`, the sign flip fused
    /// into the same pass.
    pub fn neg_dot_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
        for row in rows.chunks_exact(query.len()) {
            out.push(-dot_row(query, row));
        }
    }

    /// Batched angular distances against a cached inverse-norm column.
    pub fn angular_batch_cached(
        query: &[f32],
        query_inv_norm: f32,
        rows: &[f32],
        inv_norms: &[f32],
        out: &mut Vec<f32>,
    ) {
        for (row, &inv_b) in rows.chunks_exact(query.len()).zip(inv_norms) {
            out.push(angular_from_parts(dot_row(query, row), query_inv_norm, inv_b));
        }
    }

    /// `Σⱼ qdⱼ · codeⱼ` for one coded row: the raw code dot used by the
    /// expanded-form SQ8 scan (`qd` is the query pre-scaled by the deltas).
    #[inline]
    pub fn sq8_code_dot_row(qd: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(qd.len(), codes.len());
        let n = qd.len();
        let mut acc = [[0.0f32; LANES]; CHAINS];
        let mut i = 0;
        while i + STRIDE <= n {
            for (c, chain) in acc.iter_mut().enumerate() {
                let base = i + c * LANES;
                for (l, slot) in chain.iter_mut().enumerate() {
                    *slot = qd[base + l].mul_add(codes[base + l] as f32, *slot);
                }
            }
            i += STRIDE;
        }
        let mut v = [0.0f32; LANES];
        for (l, slot) in v.iter_mut().enumerate() {
            *slot = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
        }
        while i + LANES <= n {
            for (l, slot) in v.iter_mut().enumerate() {
                *slot = qd[i + l].mul_add(codes[i + l] as f32, *slot);
            }
            i += LANES;
        }
        let mut s = v[0];
        for &lane in &v[1..] {
            s += lane;
        }
        while i < n {
            s = qd[i].mul_add(codes[i] as f32, s);
            i += 1;
        }
        s
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA backend.
// ---------------------------------------------------------------------------

/// AVX2+FMA implementation of the canonical shape (`x86_64` only).
///
/// # Safety
///
/// Every function in this module requires the `avx2` and `fma` CPU features;
/// callers must check `is_x86_feature_detected!` first (the dispatcher does).
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::{LANES, SE_STRIDE, STRIDE};
    use crate::kernels::angular_from_parts;
    use std::arch::x86_64::*;

    /// Sums the 8 lanes of `v` sequentially (lane 0 first), matching the
    /// scalar shape's ordered horizontal sum.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum_ordered(v: __m256) -> f32 {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        let mut s = lanes[0];
        for &l in &lanes[1..] {
            s += l;
        }
        s
    }

    /// Whether this backend can run on the current CPU.
    pub fn available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// Squared Euclidean distance of one row pair.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `a` and `b` must have equal lengths.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn se_row(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = [_mm256_setzero_ps(); 8];
        let mut i = 0;
        while i + SE_STRIDE <= n {
            for (c, slot) in acc.iter_mut().enumerate() {
                // SAFETY: i + 64 <= n, so every 8-lane load is in bounds.
                let base = i + c * LANES;
                let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(base)), _mm256_loadu_ps(pb.add(base)));
                *slot = _mm256_fmadd_ps(d, d, *slot);
            }
            i += SE_STRIDE;
        }
        let mut v = _mm256_add_ps(
            _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3])),
            _mm256_add_ps(_mm256_add_ps(acc[4], acc[5]), _mm256_add_ps(acc[6], acc[7])),
        );
        while i + LANES <= n {
            // SAFETY: i + 8 <= n.
            let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            v = _mm256_fmadd_ps(d, d, v);
            i += LANES;
        }
        let mut s = hsum_ordered(v);
        while i < n {
            // SAFETY: i < n.
            let d = *pa.add(i) - *pb.add(i);
            s = d.mul_add(d, s);
            i += 1;
        }
        s
    }

    /// Squared Euclidean distances from `a` to four rows, each bit-identical
    /// to [`se_row`] of that pair: every pair runs the same 8 chains,
    /// combine tree, 8-lane folds, ordered horizontal sum and scalar tail.
    /// The chains are independent, so they run one after another over all
    /// four rows: each 8-lane group of `a` is loaded once for the four, and
    /// four rows' loads are in flight at once.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. Every row must have `a.len()` elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn se_rows4(a: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
        debug_assert!(rows.iter().all(|r| r.len() == a.len()));
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), rows.map(<[f32]>::as_ptr));
        let body = n - n % SE_STRIDE;
        let mut chains = [[_mm256_setzero_ps(); 4]; 8];
        for (c, acc) in chains.iter_mut().enumerate() {
            let mut i = c * LANES;
            while i < body {
                // SAFETY: i + 8 <= body <= n, for `a` and every row.
                let x = _mm256_loadu_ps(pa.add(i));
                for (slot, p) in acc.iter_mut().zip(pb) {
                    let d = _mm256_sub_ps(x, _mm256_loadu_ps(p.add(i)));
                    *slot = _mm256_fmadd_ps(d, d, *slot);
                }
                i += SE_STRIDE;
            }
        }
        let mut v = [_mm256_setzero_ps(); 4];
        for (r, slot) in v.iter_mut().enumerate() {
            let ch = |c: usize| chains[c][r];
            *slot = _mm256_add_ps(
                _mm256_add_ps(_mm256_add_ps(ch(0), ch(1)), _mm256_add_ps(ch(2), ch(3))),
                _mm256_add_ps(_mm256_add_ps(ch(4), ch(5)), _mm256_add_ps(ch(6), ch(7))),
            );
        }
        let mut i = body;
        while i + LANES <= n {
            // SAFETY: i + 8 <= n.
            let x = _mm256_loadu_ps(pa.add(i));
            for (slot, p) in v.iter_mut().zip(pb) {
                let d = _mm256_sub_ps(x, _mm256_loadu_ps(p.add(i)));
                *slot = _mm256_fmadd_ps(d, d, *slot);
            }
            i += LANES;
        }
        // The ordered horizontal sums, four rows at a time: transpose so each
        // 4-wide `lane` holds one lane of the four rows, then add lanes 0..8
        // in order, as `hsum_ordered` does for one row.
        let t0 = _mm256_unpacklo_ps(v[0], v[1]);
        let t1 = _mm256_unpackhi_ps(v[0], v[1]);
        let t2 = _mm256_unpacklo_ps(v[2], v[3]);
        let t3 = _mm256_unpackhi_ps(v[2], v[3]);
        let u = [
            _mm256_shuffle_ps::<0x44>(t0, t2),
            _mm256_shuffle_ps::<0xEE>(t0, t2),
            _mm256_shuffle_ps::<0x44>(t1, t3),
            _mm256_shuffle_ps::<0xEE>(t1, t3),
        ];
        let mut s = _mm256_castps256_ps128(u[0]);
        for l in 1..LANES {
            let lane = if l < 4 {
                _mm256_castps256_ps128(u[l])
            } else {
                _mm256_extractf128_ps::<1>(u[l - 4])
            };
            s = _mm_add_ps(s, lane);
        }
        while i < n {
            // SAFETY: i < n, for `a` and every row.
            let b = _mm_setr_ps(*pb[0].add(i), *pb[1].add(i), *pb[2].add(i), *pb[3].add(i));
            let d = _mm_sub_ps(_mm_set1_ps(*pa.add(i)), b);
            s = _mm_fmadd_ps(d, d, s);
            i += 1;
        }
        let mut out = [0.0f32; 4];
        _mm_storeu_ps(out.as_mut_ptr(), s);
        out
    }

    /// Inner product of one row pair.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `a` and `b` must have equal lengths.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_row(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + STRIDE <= n {
            // SAFETY: i + 32 <= n.
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
                acc3,
            );
            i += STRIDE;
        }
        let mut v = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        while i + LANES <= n {
            // SAFETY: i + 8 <= n.
            v = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), v);
            i += LANES;
        }
        let mut s = hsum_ordered(v);
        while i < n {
            // SAFETY: i < n.
            s = (*pa.add(i)).mul_add(*pb.add(i), s);
            i += 1;
        }
        s
    }

    /// Batched squared Euclidean distances.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `rows.len()` must be a multiple of `query.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn euclidean_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
        for row in rows.chunks_exact(query.len()) {
            out.push(se_row(query, row));
        }
    }

    /// Batched inner-product distances `−⟨query, row⟩`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `rows.len()` must be a multiple of `query.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn neg_dot_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
        for row in rows.chunks_exact(query.len()) {
            out.push(-dot_row(query, row));
        }
    }

    /// Batched angular distances against a cached inverse-norm column.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. One `inv_norms` entry per row.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn angular_batch_cached(
        query: &[f32],
        query_inv_norm: f32,
        rows: &[f32],
        inv_norms: &[f32],
        out: &mut Vec<f32>,
    ) {
        for (row, &inv_b) in rows.chunks_exact(query.len()).zip(inv_norms) {
            out.push(angular_from_parts(dot_row(query, row), query_inv_norm, inv_b));
        }
    }
}

// ---------------------------------------------------------------------------
// NEON backend.
// ---------------------------------------------------------------------------

/// NEON implementation of the canonical shape (`aarch64` only).
///
/// Each virtual 8-lane accumulator is a pair of `float32x4_t` registers; the
/// chains, lane-wise combine and ordered horizontal sum mirror the scalar
/// shape exactly, and `vfmaq_f32` is a fused multiply-add, so results are
/// bit-identical to the scalar fallback.
#[cfg(target_arch = "aarch64")]
pub mod neon {
    use super::{LANES, SE_STRIDE, STRIDE};
    use crate::kernels::angular_from_parts;
    use std::arch::aarch64::*;

    /// One virtual 8-lane accumulator (two q-registers).
    #[derive(Clone, Copy)]
    struct V8(float32x4_t, float32x4_t);

    /// # Safety: NEON is baseline on aarch64.
    #[inline]
    unsafe fn v8_zero() -> V8 {
        V8(vdupq_n_f32(0.0), vdupq_n_f32(0.0))
    }

    /// # Safety: `p` must be valid for reading 8 floats.
    #[inline]
    unsafe fn v8_load(p: *const f32) -> V8 {
        V8(vld1q_f32(p), vld1q_f32(p.add(4)))
    }

    #[inline]
    unsafe fn v8_add(a: V8, b: V8) -> V8 {
        V8(vaddq_f32(a.0, b.0), vaddq_f32(a.1, b.1))
    }

    #[inline]
    unsafe fn v8_fma(acc: V8, x: V8, y: V8) -> V8 {
        V8(vfmaq_f32(acc.0, x.0, y.0), vfmaq_f32(acc.1, x.1, y.1))
    }

    #[inline]
    unsafe fn v8_sub(a: V8, b: V8) -> V8 {
        V8(vsubq_f32(a.0, b.0), vsubq_f32(a.1, b.1))
    }

    /// Ordered horizontal sum (lane 0 first), matching the scalar shape.
    #[inline]
    unsafe fn hsum_ordered(v: V8) -> f32 {
        let mut lanes = [0.0f32; LANES];
        vst1q_f32(lanes.as_mut_ptr(), v.0);
        vst1q_f32(lanes.as_mut_ptr().add(4), v.1);
        let mut s = lanes[0];
        for &l in &lanes[1..] {
            s += l;
        }
        s
    }

    /// Squared Euclidean distance of one row pair.
    ///
    /// # Safety
    ///
    /// `a` and `b` must have equal lengths.
    pub unsafe fn se_row(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = [v8_zero(); 8];
        let mut i = 0;
        while i + SE_STRIDE <= n {
            for (c, slot) in acc.iter_mut().enumerate() {
                let base = i + c * LANES;
                let d = v8_sub(v8_load(pa.add(base)), v8_load(pb.add(base)));
                *slot = v8_fma(*slot, d, d);
            }
            i += SE_STRIDE;
        }
        let mut v = v8_add(
            v8_add(v8_add(acc[0], acc[1]), v8_add(acc[2], acc[3])),
            v8_add(v8_add(acc[4], acc[5]), v8_add(acc[6], acc[7])),
        );
        while i + LANES <= n {
            let d = v8_sub(v8_load(pa.add(i)), v8_load(pb.add(i)));
            v = v8_fma(v, d, d);
            i += LANES;
        }
        let mut s = hsum_ordered(v);
        while i < n {
            let d = *pa.add(i) - *pb.add(i);
            s = d.mul_add(d, s);
            i += 1;
        }
        s
    }

    /// Squared Euclidean distances from `a` to four rows: [`se_row`] of
    /// each pair.
    ///
    /// # Safety
    ///
    /// Every row must have `a.len()` elements.
    pub unsafe fn se_rows4(a: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
        [se_row(a, rows[0]), se_row(a, rows[1]), se_row(a, rows[2]), se_row(a, rows[3])]
    }

    /// Inner product of one row pair.
    ///
    /// # Safety
    ///
    /// `a` and `b` must have equal lengths.
    pub unsafe fn dot_row(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = [v8_zero(); 4];
        let mut i = 0;
        while i + STRIDE <= n {
            for (c, slot) in acc.iter_mut().enumerate() {
                let base = i + c * LANES;
                *slot = v8_fma(*slot, v8_load(pa.add(base)), v8_load(pb.add(base)));
            }
            i += STRIDE;
        }
        let mut v = v8_add(v8_add(acc[0], acc[1]), v8_add(acc[2], acc[3]));
        while i + LANES <= n {
            v = v8_fma(v, v8_load(pa.add(i)), v8_load(pb.add(i)));
            i += LANES;
        }
        let mut s = hsum_ordered(v);
        while i < n {
            s = (*pa.add(i)).mul_add(*pb.add(i), s);
            i += 1;
        }
        s
    }

    /// Batched squared Euclidean distances.
    ///
    /// # Safety
    ///
    /// `rows.len()` must be a multiple of `query.len()`.
    pub unsafe fn euclidean_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
        for row in rows.chunks_exact(query.len()) {
            out.push(se_row(query, row));
        }
    }

    /// Batched inner-product distances `−⟨query, row⟩`.
    ///
    /// # Safety
    ///
    /// `rows.len()` must be a multiple of `query.len()`.
    pub unsafe fn neg_dot_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
        for row in rows.chunks_exact(query.len()) {
            out.push(-dot_row(query, row));
        }
    }

    /// Batched angular distances against a cached inverse-norm column.
    ///
    /// # Safety
    ///
    /// One `inv_norms` entry per row.
    pub unsafe fn angular_batch_cached(
        query: &[f32],
        query_inv_norm: f32,
        rows: &[f32],
        inv_norms: &[f32],
        out: &mut Vec<f32>,
    ) {
        for (row, &inv_b) in rows.chunks_exact(query.len()).zip(inv_norms) {
            out.push(angular_from_parts(dot_row(query, row), query_inv_norm, inv_b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn backend_is_detected_once() {
        let b = active_backend();
        assert_eq!(active_backend(), b);
        assert!(!b.name().is_empty());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_scalar_bitwise() {
        if !avx2::available() {
            return;
        }
        for dim in [1usize, 7, 8, 9, 31, 32, 33, 63, 64, 65, 130, 960] {
            let a = vec_of(dim, 11);
            let b = vec_of(dim, 23);
            // SAFETY: availability checked above.
            unsafe {
                assert_eq!(
                    avx2::se_row(&a, &b).to_bits(),
                    scalar::se_row(&a, &b).to_bits(),
                    "se dim={dim}"
                );
                assert_eq!(
                    avx2::dot_row(&a, &b).to_bits(),
                    scalar::dot_row(&a, &b).to_bits(),
                    "dot dim={dim}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_blocked_euclidean_matches_scalar_bitwise() {
        if !avx2::available() {
            return;
        }
        for dim in 1..=300 {
            let a = vec_of(dim, 11);
            let rows: Vec<Vec<f32>> = (0..4).map(|r| vec_of(dim, 29 + r)).collect();
            let rows = [&rows[0][..], &rows[1], &rows[2], &rows[3]];
            // SAFETY: availability checked above; every row has `dim` floats.
            let got = unsafe { avx2::se_rows4(&a, rows) };
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(got[r].to_bits(), scalar::se_row(&a, row).to_bits(), "dim={dim} r={r}");
            }
        }
    }

    #[test]
    fn prefetch_accepts_any_slice() {
        // Empty, sub-line, misaligned and multi-line slices: the hint reads
        // nothing, so the address sanitizer must see no access outside them.
        let rows = vec_of(300, 13);
        for (lo, hi) in [(0, 0), (1, 2), (3, 19), (5, 133), (0, 300)] {
            prefetch(&rows[lo..hi]);
        }
        prefetch(&b"x"[..]);
    }

    #[test]
    fn sq8_expanded_form_reconstructs_the_decoded_dot() {
        for dim in [1usize, 7, 9, 33, 130] {
            let q = vec_of(dim, 3);
            let codes: Vec<u8> = (0..dim * 3).map(|i| (i * 37 % 256) as u8).collect();
            let mins = vec_of(dim, 17);
            let deltas: Vec<f32> = vec_of(dim, 19).iter().map(|x| x.abs() / 255.0).collect();
            let qd: Vec<f32> = q.iter().zip(&deltas).map(|(x, d)| x * d).collect();
            // ⟨q,x̂⟩ = ⟨q,min⟩ + Σ qdⱼ·codeⱼ with x̂ⱼ = deltaⱼ·codeⱼ + minⱼ, to fp
            // tolerance.
            let qm: f32 = q.iter().zip(&mins).map(|(x, m)| x * m).sum();
            for (i, row) in codes.chunks_exact(dim).enumerate() {
                let decoded = row.iter().zip(&mins).zip(&deltas);
                let x_hat = decoded.map(|((&c, &m), &d)| d.mul_add(c as f32, m));
                let direct: f32 = q.iter().zip(x_hat).map(|(a, b)| a * b).sum();
                let expanded = qm + scalar::sq8_code_dot_row(&qd, row);
                let tol = 1e-4 * direct.abs().max(1.0);
                assert!(
                    (expanded - direct).abs() <= tol,
                    "dim={dim} i={i}: {expanded} vs {direct}"
                );
            }
        }
    }
}
