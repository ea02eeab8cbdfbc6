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
//! The SQ8 kernels scan `u8` scalar-quantized rows (see
//! `mbi-ann`'s segment column): codes are decoded on the fly as
//! `x̂ᵢ = deltaᵢ · codeᵢ + minᵢ` and folded into the same canonical reduction,
//! so a quantized scan touches a quarter of the memory of an `f32` scan.
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
/// port- or bandwidth-bound) and `dot_norm2` would spill registers.
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

// ---------------------------------------------------------------------------
// Dispatched entry points (crate-internal; `kernels`/`metric` wrap them).
// ---------------------------------------------------------------------------

#[inline]
pub(crate) fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(se_row(a, b))
}

#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(dot_row(a, b))
}

#[inline]
pub(crate) fn dot_norm2(a: &[f32], b: &[f32]) -> (f32, f32) {
    dispatch!(dot_norm2_row(a, b))
}

#[inline]
pub(crate) fn euclidean_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
    dispatch!(euclidean_batch(query, rows, out))
}

#[inline]
pub(crate) fn dot_batch(query: &[f32], rows: &[f32], negate: bool, out: &mut Vec<f32>) {
    dispatch!(dot_batch(query, rows, negate, out))
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

#[inline]
pub(crate) fn angular_batch_uncached(
    query: &[f32],
    query_inv_norm: f32,
    rows: &[f32],
    out: &mut Vec<f32>,
) {
    dispatch!(angular_batch_uncached(query, query_inv_norm, rows, out))
}

/// Appends `‖query − x̂ᵢ‖²` for each SQ8-coded row of `codes`, decoding
/// `x̂ᵢⱼ = deltaⱼ·codeᵢⱼ + minⱼ` on the fly.
///
/// # Panics
///
/// Panics if `codes.len()` is not a multiple of `query.len()`, or if the
/// per-dimension parameter columns are shorter than `query.len()`.
pub fn sq8_euclidean_batch(
    query: &[f32],
    codes: &[u8],
    mins: &[f32],
    deltas: &[f32],
    out: &mut Vec<f32>,
) {
    sq8_validate(query, codes, mins, deltas);
    out.reserve(codes.len() / query.len());
    dispatch!(sq8_euclidean_batch(query, codes, mins, deltas, out))
}

/// Appends `⟨query, x̂ᵢ⟩` (or `−⟨query, x̂ᵢ⟩` when `negate` is set) for each
/// SQ8-coded row of `codes`, decoding `x̂ᵢⱼ = deltaⱼ·codeᵢⱼ + minⱼ` on the fly.
///
/// # Panics
///
/// Panics if `codes.len()` is not a multiple of `query.len()`, or if the
/// per-dimension parameter columns are shorter than `query.len()`.
pub fn sq8_dot_batch(
    query: &[f32],
    codes: &[u8],
    mins: &[f32],
    deltas: &[f32],
    negate: bool,
    out: &mut Vec<f32>,
) {
    sq8_validate(query, codes, mins, deltas);
    out.reserve(codes.len() / query.len());
    dispatch!(sq8_dot_batch(query, codes, mins, deltas, negate, out))
}

/// Appends `Σⱼ qdⱼ·codeᵢⱼ` for each SQ8-coded row of `codes` — the raw code
/// dot of the expanded-form scan, where `qd` is the query pre-scaled by the
/// per-dimension deltas (`qdⱼ = qⱼ·deltaⱼ`).
///
/// With per-row decoded norms cached at encode time this reconstructs every
/// metric's first-pass distance from one pass over the codes:
/// `⟨q, x̂ᵢ⟩ = ⟨q, min⟩ + Σⱼ qdⱼ·codeᵢⱼ`.
///
/// # Panics
///
/// Panics if `codes.len()` is not a multiple of `qd.len()`.
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
    out.reserve(codes.len() / dim);
    dispatch!(sq8_code_dot_batch(qd, codes, out))
}

/// Single-row [`sq8_code_dot_batch`] — `Σⱼ qdⱼ·codesⱼ` for one SQ8-coded row,
/// bit-identical to the row's entry in the batched output. The graph-search
/// gather path evaluates candidates one row at a time, so it needs a row
/// primitive that goes through the same dispatch.
///
/// # Panics
///
/// Panics if `codes.len() != qd.len()`.
pub fn sq8_code_dot(qd: &[f32], codes: &[u8]) -> f32 {
    assert_eq!(codes.len(), qd.len(), "code row length does not match dim");
    dispatch!(sq8_code_dot_row(qd, codes))
}

#[inline]
fn sq8_validate(query: &[f32], codes: &[u8], mins: &[f32], deltas: &[f32]) {
    let dim = query.len();
    assert!(dim > 0, "query must have at least one dimension");
    assert_eq!(
        codes.len() % dim,
        0,
        "codes length {} is not a multiple of dim {}",
        codes.len(),
        dim
    );
    assert!(mins.len() >= dim && deltas.len() >= dim, "SQ8 parameter columns shorter than dim");
}

#[inline]
fn inv_from_norm2(n2: f32) -> f32 {
    if n2 == 0.0 {
        0.0
    } else {
        1.0 / n2.sqrt()
    }
}

#[inline]
fn angular_from_parts(dp: f32, inv_a: f32, inv_b: f32) -> f32 {
    if inv_a == 0.0 || inv_b == 0.0 {
        return 1.0;
    }
    1.0 - (dp * inv_a * inv_b).clamp(-1.0, 1.0)
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
    use super::{angular_from_parts, inv_from_norm2, CHAINS, LANES, SE_CHAINS, SE_STRIDE, STRIDE};

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

    /// Inner product of one row pair.
    #[inline]
    pub fn dot_row(a: &[f32], b: &[f32]) -> f32 {
        reduce(a, b, |acc, x, y| x.mul_add(y, acc))
    }

    /// Fused `(⟨a,b⟩, ‖b‖²)`; each half is bit-equal to the standalone kernel.
    #[inline]
    pub fn dot_norm2_row(a: &[f32], b: &[f32]) -> (f32, f32) {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc_dp = [[0.0f32; LANES]; CHAINS];
        let mut acc_nb = [[0.0f32; LANES]; CHAINS];
        let mut i = 0;
        while i + STRIDE <= n {
            for c in 0..CHAINS {
                let base = i + c * LANES;
                for l in 0..LANES {
                    let (x, y) = (a[base + l], b[base + l]);
                    acc_dp[c][l] = x.mul_add(y, acc_dp[c][l]);
                    acc_nb[c][l] = y.mul_add(y, acc_nb[c][l]);
                }
            }
            i += STRIDE;
        }
        let mut v_dp = [0.0f32; LANES];
        let mut v_nb = [0.0f32; LANES];
        for l in 0..LANES {
            v_dp[l] = (acc_dp[0][l] + acc_dp[1][l]) + (acc_dp[2][l] + acc_dp[3][l]);
            v_nb[l] = (acc_nb[0][l] + acc_nb[1][l]) + (acc_nb[2][l] + acc_nb[3][l]);
        }
        while i + LANES <= n {
            for l in 0..LANES {
                let (x, y) = (a[i + l], b[i + l]);
                v_dp[l] = x.mul_add(y, v_dp[l]);
                v_nb[l] = y.mul_add(y, v_nb[l]);
            }
            i += LANES;
        }
        let mut dp = v_dp[0];
        let mut nb = v_nb[0];
        for l in 1..LANES {
            dp += v_dp[l];
            nb += v_nb[l];
        }
        while i < n {
            let (x, y) = (a[i], b[i]);
            dp = x.mul_add(y, dp);
            nb = y.mul_add(y, nb);
            i += 1;
        }
        (dp, nb)
    }

    /// Batched squared Euclidean distances (appends one value per row).
    pub fn euclidean_batch(query: &[f32], rows: &[f32], out: &mut Vec<f32>) {
        for row in rows.chunks_exact(query.len()) {
            out.push(se_row(query, row));
        }
    }

    /// Batched inner products; `negate` fuses the inner-product metric's sign
    /// flip into the same pass.
    pub fn dot_batch(query: &[f32], rows: &[f32], negate: bool, out: &mut Vec<f32>) {
        if negate {
            for row in rows.chunks_exact(query.len()) {
                out.push(-dot_row(query, row));
            }
        } else {
            for row in rows.chunks_exact(query.len()) {
                out.push(dot_row(query, row));
            }
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

    /// Batched angular distances recovering each row norm in the same pass.
    pub fn angular_batch_uncached(
        query: &[f32],
        query_inv_norm: f32,
        rows: &[f32],
        out: &mut Vec<f32>,
    ) {
        for row in rows.chunks_exact(query.len()) {
            let (dp, nb2) = dot_norm2_row(query, row);
            out.push(angular_from_parts(dp, query_inv_norm, inv_from_norm2(nb2)));
        }
    }

    /// Squared Euclidean distance of `query` against one SQ8-coded row
    /// (`x̂ᵢ = deltaᵢ·codeᵢ + minᵢ`).
    #[inline]
    pub fn sq8_se_row(query: &[f32], codes: &[u8], mins: &[f32], deltas: &[f32]) -> f32 {
        debug_assert_eq!(query.len(), codes.len());
        let n = query.len();
        let mut acc = [[0.0f32; LANES]; CHAINS];
        let mut i = 0;
        while i + STRIDE <= n {
            for (c, chain) in acc.iter_mut().enumerate() {
                let base = i + c * LANES;
                for (l, slot) in chain.iter_mut().enumerate() {
                    let j = base + l;
                    let x = deltas[j].mul_add(codes[j] as f32, mins[j]);
                    let d = query[j] - x;
                    *slot = d.mul_add(d, *slot);
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
                let j = i + l;
                let x = deltas[j].mul_add(codes[j] as f32, mins[j]);
                let d = query[j] - x;
                *slot = d.mul_add(d, *slot);
            }
            i += LANES;
        }
        let mut s = v[0];
        for &lane in &v[1..] {
            s += lane;
        }
        while i < n {
            let x = deltas[i].mul_add(codes[i] as f32, mins[i]);
            let d = query[i] - x;
            s = d.mul_add(d, s);
            i += 1;
        }
        s
    }

    /// Inner product of `query` against one SQ8-coded row.
    #[inline]
    pub fn sq8_dot_row(query: &[f32], codes: &[u8], mins: &[f32], deltas: &[f32]) -> f32 {
        debug_assert_eq!(query.len(), codes.len());
        let n = query.len();
        let mut acc = [[0.0f32; LANES]; CHAINS];
        let mut i = 0;
        while i + STRIDE <= n {
            for (c, chain) in acc.iter_mut().enumerate() {
                let base = i + c * LANES;
                for (l, slot) in chain.iter_mut().enumerate() {
                    let j = base + l;
                    let x = deltas[j].mul_add(codes[j] as f32, mins[j]);
                    *slot = query[j].mul_add(x, *slot);
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
                let j = i + l;
                let x = deltas[j].mul_add(codes[j] as f32, mins[j]);
                *slot = query[j].mul_add(x, *slot);
            }
            i += LANES;
        }
        let mut s = v[0];
        for &lane in &v[1..] {
            s += lane;
        }
        while i < n {
            let x = deltas[i].mul_add(codes[i] as f32, mins[i]);
            s = query[i].mul_add(x, s);
            i += 1;
        }
        s
    }

    /// Batched SQ8 squared Euclidean scan.
    pub fn sq8_euclidean_batch(
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        deltas: &[f32],
        out: &mut Vec<f32>,
    ) {
        for row in codes.chunks_exact(query.len()) {
            out.push(sq8_se_row(query, row, mins, deltas));
        }
    }

    /// Batched SQ8 inner-product scan; `negate` fuses the sign flip.
    pub fn sq8_dot_batch(
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        deltas: &[f32],
        negate: bool,
        out: &mut Vec<f32>,
    ) {
        if negate {
            for row in codes.chunks_exact(query.len()) {
                out.push(-sq8_dot_row(query, row, mins, deltas));
            }
        } else {
            for row in codes.chunks_exact(query.len()) {
                out.push(sq8_dot_row(query, row, mins, deltas));
            }
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

    /// Batched raw code dots (appends one value per coded row).
    pub fn sq8_code_dot_batch(qd: &[f32], codes: &[u8], out: &mut Vec<f32>) {
        for row in codes.chunks_exact(qd.len()) {
            out.push(sq8_code_dot_row(qd, row));
        }
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
    use super::{angular_from_parts, inv_from_norm2, LANES, SE_STRIDE, STRIDE};
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

    /// Fused `(⟨a,b⟩, ‖b‖²)`; each half is bit-equal to the standalone kernel.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `a` and `b` must have equal lengths.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_norm2_row(a: &[f32], b: &[f32]) -> (f32, f32) {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut dp0 = _mm256_setzero_ps();
        let mut dp1 = _mm256_setzero_ps();
        let mut dp2 = _mm256_setzero_ps();
        let mut dp3 = _mm256_setzero_ps();
        let mut nb0 = _mm256_setzero_ps();
        let mut nb1 = _mm256_setzero_ps();
        let mut nb2 = _mm256_setzero_ps();
        let mut nb3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + STRIDE <= n {
            // SAFETY: i + 32 <= n.
            let (x0, y0) = (_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            let (x1, y1) = (_mm256_loadu_ps(pa.add(i + 8)), _mm256_loadu_ps(pb.add(i + 8)));
            let (x2, y2) = (_mm256_loadu_ps(pa.add(i + 16)), _mm256_loadu_ps(pb.add(i + 16)));
            let (x3, y3) = (_mm256_loadu_ps(pa.add(i + 24)), _mm256_loadu_ps(pb.add(i + 24)));
            dp0 = _mm256_fmadd_ps(x0, y0, dp0);
            nb0 = _mm256_fmadd_ps(y0, y0, nb0);
            dp1 = _mm256_fmadd_ps(x1, y1, dp1);
            nb1 = _mm256_fmadd_ps(y1, y1, nb1);
            dp2 = _mm256_fmadd_ps(x2, y2, dp2);
            nb2 = _mm256_fmadd_ps(y2, y2, nb2);
            dp3 = _mm256_fmadd_ps(x3, y3, dp3);
            nb3 = _mm256_fmadd_ps(y3, y3, nb3);
            i += STRIDE;
        }
        let mut vdp = _mm256_add_ps(_mm256_add_ps(dp0, dp1), _mm256_add_ps(dp2, dp3));
        let mut vnb = _mm256_add_ps(_mm256_add_ps(nb0, nb1), _mm256_add_ps(nb2, nb3));
        while i + LANES <= n {
            // SAFETY: i + 8 <= n.
            let (x, y) = (_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            vdp = _mm256_fmadd_ps(x, y, vdp);
            vnb = _mm256_fmadd_ps(y, y, vnb);
            i += LANES;
        }
        let mut dp = hsum_ordered(vdp);
        let mut nb = hsum_ordered(vnb);
        while i < n {
            // SAFETY: i < n.
            let (x, y) = (*pa.add(i), *pb.add(i));
            dp = x.mul_add(y, dp);
            nb = y.mul_add(y, nb);
            i += 1;
        }
        (dp, nb)
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

    /// Batched inner products; `negate` fuses the sign flip.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `rows.len()` must be a multiple of `query.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_batch(query: &[f32], rows: &[f32], negate: bool, out: &mut Vec<f32>) {
        if negate {
            for row in rows.chunks_exact(query.len()) {
                out.push(-dot_row(query, row));
            }
        } else {
            for row in rows.chunks_exact(query.len()) {
                out.push(dot_row(query, row));
            }
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

    /// Batched angular distances recovering each row norm in the same pass.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `rows.len()` must be a multiple of `query.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn angular_batch_uncached(
        query: &[f32],
        query_inv_norm: f32,
        rows: &[f32],
        out: &mut Vec<f32>,
    ) {
        for row in rows.chunks_exact(query.len()) {
            let (dp, nb2) = dot_norm2_row(query, row);
            out.push(angular_from_parts(dp, query_inv_norm, inv_from_norm2(nb2)));
        }
    }

    /// Decodes 8 consecutive SQ8 codes starting at `p` to `f32` lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `p` must be valid for reading 8 bytes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load8_codes(p: *const u8) -> __m256 {
        // SAFETY: caller guarantees 8 readable bytes at `p`.
        let bytes = _mm_loadl_epi64(p as *const __m128i);
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes))
    }

    /// Squared Euclidean distance of `query` against one SQ8-coded row.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `codes`, `mins`, `deltas` must be at least
    /// `query.len()` long.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_se_row(query: &[f32], codes: &[u8], mins: &[f32], deltas: &[f32]) -> f32 {
        debug_assert_eq!(query.len(), codes.len());
        let n = query.len();
        let (pq, pc, pm, pd) = (query.as_ptr(), codes.as_ptr(), mins.as_ptr(), deltas.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + STRIDE <= n {
            // SAFETY: i + 32 <= n for all four streams.
            let x0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pd.add(i)),
                load8_codes(pc.add(i)),
                _mm256_loadu_ps(pm.add(i)),
            );
            let x1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pd.add(i + 8)),
                load8_codes(pc.add(i + 8)),
                _mm256_loadu_ps(pm.add(i + 8)),
            );
            let x2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pd.add(i + 16)),
                load8_codes(pc.add(i + 16)),
                _mm256_loadu_ps(pm.add(i + 16)),
            );
            let x3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pd.add(i + 24)),
                load8_codes(pc.add(i + 24)),
                _mm256_loadu_ps(pm.add(i + 24)),
            );
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(pq.add(i)), x0);
            let d1 = _mm256_sub_ps(_mm256_loadu_ps(pq.add(i + 8)), x1);
            let d2 = _mm256_sub_ps(_mm256_loadu_ps(pq.add(i + 16)), x2);
            let d3 = _mm256_sub_ps(_mm256_loadu_ps(pq.add(i + 24)), x3);
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            acc2 = _mm256_fmadd_ps(d2, d2, acc2);
            acc3 = _mm256_fmadd_ps(d3, d3, acc3);
            i += STRIDE;
        }
        let mut v = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        while i + LANES <= n {
            // SAFETY: i + 8 <= n.
            let x = _mm256_fmadd_ps(
                _mm256_loadu_ps(pd.add(i)),
                load8_codes(pc.add(i)),
                _mm256_loadu_ps(pm.add(i)),
            );
            let d = _mm256_sub_ps(_mm256_loadu_ps(pq.add(i)), x);
            v = _mm256_fmadd_ps(d, d, v);
            i += LANES;
        }
        let mut s = hsum_ordered(v);
        while i < n {
            // SAFETY: i < n.
            let x = (*pd.add(i)).mul_add(*pc.add(i) as f32, *pm.add(i));
            let d = *pq.add(i) - x;
            s = d.mul_add(d, s);
            i += 1;
        }
        s
    }

    /// Inner product of `query` against one SQ8-coded row.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `codes`, `mins`, `deltas` must be at least
    /// `query.len()` long.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_dot_row(query: &[f32], codes: &[u8], mins: &[f32], deltas: &[f32]) -> f32 {
        debug_assert_eq!(query.len(), codes.len());
        let n = query.len();
        let (pq, pc, pm, pd) = (query.as_ptr(), codes.as_ptr(), mins.as_ptr(), deltas.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + STRIDE <= n {
            // SAFETY: i + 32 <= n for all four streams.
            let x0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pd.add(i)),
                load8_codes(pc.add(i)),
                _mm256_loadu_ps(pm.add(i)),
            );
            let x1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pd.add(i + 8)),
                load8_codes(pc.add(i + 8)),
                _mm256_loadu_ps(pm.add(i + 8)),
            );
            let x2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pd.add(i + 16)),
                load8_codes(pc.add(i + 16)),
                _mm256_loadu_ps(pm.add(i + 16)),
            );
            let x3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pd.add(i + 24)),
                load8_codes(pc.add(i + 24)),
                _mm256_loadu_ps(pm.add(i + 24)),
            );
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), x0, acc0);
            acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i + 8)), x1, acc1);
            acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i + 16)), x2, acc2);
            acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i + 24)), x3, acc3);
            i += STRIDE;
        }
        let mut v = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        while i + LANES <= n {
            // SAFETY: i + 8 <= n.
            let x = _mm256_fmadd_ps(
                _mm256_loadu_ps(pd.add(i)),
                load8_codes(pc.add(i)),
                _mm256_loadu_ps(pm.add(i)),
            );
            v = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), x, v);
            i += LANES;
        }
        let mut s = hsum_ordered(v);
        while i < n {
            // SAFETY: i < n.
            let x = (*pd.add(i)).mul_add(*pc.add(i) as f32, *pm.add(i));
            s = (*pq.add(i)).mul_add(x, s);
            i += 1;
        }
        s
    }

    /// Batched SQ8 squared Euclidean scan.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `codes.len()` must be a multiple of
    /// `query.len()`; `mins`/`deltas` hold one entry per dimension.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_euclidean_batch(
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        deltas: &[f32],
        out: &mut Vec<f32>,
    ) {
        for row in codes.chunks_exact(query.len()) {
            out.push(sq8_se_row(query, row, mins, deltas));
        }
    }

    /// Batched SQ8 inner-product scan; `negate` fuses the sign flip.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `codes.len()` must be a multiple of
    /// `query.len()`; `mins`/`deltas` hold one entry per dimension.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_dot_batch(
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        deltas: &[f32],
        negate: bool,
        out: &mut Vec<f32>,
    ) {
        if negate {
            for row in codes.chunks_exact(query.len()) {
                out.push(-sq8_dot_row(query, row, mins, deltas));
            }
        } else {
            for row in codes.chunks_exact(query.len()) {
                out.push(sq8_dot_row(query, row, mins, deltas));
            }
        }
    }

    /// `Σⱼ qdⱼ · codeⱼ` for one coded row (expanded-form SQ8 scan).
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `qd` and `codes` must have equal lengths.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_code_dot_row(qd: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(qd.len(), codes.len());
        let n = qd.len();
        let (pq, pc) = (qd.as_ptr(), codes.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + STRIDE <= n {
            // SAFETY: i + 32 <= n for both streams.
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), load8_codes(pc.add(i)), acc0);
            acc1 =
                _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i + 8)), load8_codes(pc.add(i + 8)), acc1);
            acc2 =
                _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i + 16)), load8_codes(pc.add(i + 16)), acc2);
            acc3 =
                _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i + 24)), load8_codes(pc.add(i + 24)), acc3);
            i += STRIDE;
        }
        let mut v = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        while i + LANES <= n {
            // SAFETY: i + 8 <= n.
            v = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), load8_codes(pc.add(i)), v);
            i += LANES;
        }
        let mut s = hsum_ordered(v);
        while i < n {
            // SAFETY: i < n.
            s = (*pq.add(i)).mul_add(*pc.add(i) as f32, s);
            i += 1;
        }
        s
    }

    /// Batched raw code dots.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `codes.len()` must be a multiple of `qd.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_code_dot_batch(qd: &[f32], codes: &[u8], out: &mut Vec<f32>) {
        for row in codes.chunks_exact(qd.len()) {
            out.push(sq8_code_dot_row(qd, row));
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
    use super::{angular_from_parts, inv_from_norm2, LANES, SE_STRIDE, STRIDE};
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

    /// Fused `(⟨a,b⟩, ‖b‖²)`.
    ///
    /// # Safety
    ///
    /// `a` and `b` must have equal lengths.
    pub unsafe fn dot_norm2_row(a: &[f32], b: &[f32]) -> (f32, f32) {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc_dp = [v8_zero(); 4];
        let mut acc_nb = [v8_zero(); 4];
        let mut i = 0;
        while i + STRIDE <= n {
            for c in 0..4 {
                let base = i + c * LANES;
                let x = v8_load(pa.add(base));
                let y = v8_load(pb.add(base));
                acc_dp[c] = v8_fma(acc_dp[c], x, y);
                acc_nb[c] = v8_fma(acc_nb[c], y, y);
            }
            i += STRIDE;
        }
        let mut vdp = v8_add(v8_add(acc_dp[0], acc_dp[1]), v8_add(acc_dp[2], acc_dp[3]));
        let mut vnb = v8_add(v8_add(acc_nb[0], acc_nb[1]), v8_add(acc_nb[2], acc_nb[3]));
        while i + LANES <= n {
            let x = v8_load(pa.add(i));
            let y = v8_load(pb.add(i));
            vdp = v8_fma(vdp, x, y);
            vnb = v8_fma(vnb, y, y);
            i += LANES;
        }
        let mut dp = hsum_ordered(vdp);
        let mut nb = hsum_ordered(vnb);
        while i < n {
            let (x, y) = (*pa.add(i), *pb.add(i));
            dp = x.mul_add(y, dp);
            nb = y.mul_add(y, nb);
            i += 1;
        }
        (dp, nb)
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

    /// Batched inner products; `negate` fuses the sign flip.
    ///
    /// # Safety
    ///
    /// `rows.len()` must be a multiple of `query.len()`.
    pub unsafe fn dot_batch(query: &[f32], rows: &[f32], negate: bool, out: &mut Vec<f32>) {
        if negate {
            for row in rows.chunks_exact(query.len()) {
                out.push(-dot_row(query, row));
            }
        } else {
            for row in rows.chunks_exact(query.len()) {
                out.push(dot_row(query, row));
            }
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

    /// Batched angular distances recovering each row norm in the same pass.
    ///
    /// # Safety
    ///
    /// `rows.len()` must be a multiple of `query.len()`.
    pub unsafe fn angular_batch_uncached(
        query: &[f32],
        query_inv_norm: f32,
        rows: &[f32],
        out: &mut Vec<f32>,
    ) {
        for row in rows.chunks_exact(query.len()) {
            let (dp, nb2) = dot_norm2_row(query, row);
            out.push(angular_from_parts(dp, query_inv_norm, inv_from_norm2(nb2)));
        }
    }

    /// Decodes 8 consecutive SQ8 codes starting at `p` to two f32 quads.
    ///
    /// # Safety
    ///
    /// `p` must be valid for reading 8 bytes.
    #[inline]
    unsafe fn load8_codes(p: *const u8) -> V8 {
        let bytes = vld1_u8(p);
        let wide = vmovl_u8(bytes);
        let lo = vcvtq_f32_u32(vmovl_u16(vget_low_u16(wide)));
        let hi = vcvtq_f32_u32(vmovl_u16(vget_high_u16(wide)));
        V8(lo, hi)
    }

    /// Squared Euclidean distance of `query` against one SQ8-coded row.
    ///
    /// # Safety
    ///
    /// `codes`, `mins`, `deltas` must be at least `query.len()` long.
    pub unsafe fn sq8_se_row(query: &[f32], codes: &[u8], mins: &[f32], deltas: &[f32]) -> f32 {
        debug_assert_eq!(query.len(), codes.len());
        let n = query.len();
        let (pq, pc, pm, pd) = (query.as_ptr(), codes.as_ptr(), mins.as_ptr(), deltas.as_ptr());
        let mut acc = [v8_zero(); 4];
        let mut i = 0;
        while i + STRIDE <= n {
            for (c, slot) in acc.iter_mut().enumerate() {
                let base = i + c * LANES;
                let x =
                    v8_fma(v8_load(pm.add(base)), v8_load(pd.add(base)), load8_codes(pc.add(base)));
                let d = v8_sub(v8_load(pq.add(base)), x);
                *slot = v8_fma(*slot, d, d);
            }
            i += STRIDE;
        }
        let mut v = v8_add(v8_add(acc[0], acc[1]), v8_add(acc[2], acc[3]));
        while i + LANES <= n {
            let x = v8_fma(v8_load(pm.add(i)), v8_load(pd.add(i)), load8_codes(pc.add(i)));
            let d = v8_sub(v8_load(pq.add(i)), x);
            v = v8_fma(v, d, d);
            i += LANES;
        }
        let mut s = hsum_ordered(v);
        while i < n {
            let x = (*pd.add(i)).mul_add(*pc.add(i) as f32, *pm.add(i));
            let d = *pq.add(i) - x;
            s = d.mul_add(d, s);
            i += 1;
        }
        s
    }

    /// Inner product of `query` against one SQ8-coded row.
    ///
    /// # Safety
    ///
    /// `codes`, `mins`, `deltas` must be at least `query.len()` long.
    pub unsafe fn sq8_dot_row(query: &[f32], codes: &[u8], mins: &[f32], deltas: &[f32]) -> f32 {
        debug_assert_eq!(query.len(), codes.len());
        let n = query.len();
        let (pq, pc, pm, pd) = (query.as_ptr(), codes.as_ptr(), mins.as_ptr(), deltas.as_ptr());
        let mut acc = [v8_zero(); 4];
        let mut i = 0;
        while i + STRIDE <= n {
            for (c, slot) in acc.iter_mut().enumerate() {
                let base = i + c * LANES;
                let x =
                    v8_fma(v8_load(pm.add(base)), v8_load(pd.add(base)), load8_codes(pc.add(base)));
                *slot = v8_fma(*slot, v8_load(pq.add(base)), x);
            }
            i += STRIDE;
        }
        let mut v = v8_add(v8_add(acc[0], acc[1]), v8_add(acc[2], acc[3]));
        while i + LANES <= n {
            let x = v8_fma(v8_load(pm.add(i)), v8_load(pd.add(i)), load8_codes(pc.add(i)));
            v = v8_fma(v, v8_load(pq.add(i)), x);
            i += LANES;
        }
        let mut s = hsum_ordered(v);
        while i < n {
            let x = (*pd.add(i)).mul_add(*pc.add(i) as f32, *pm.add(i));
            s = (*pq.add(i)).mul_add(x, s);
            i += 1;
        }
        s
    }

    /// Batched SQ8 squared Euclidean scan.
    ///
    /// # Safety
    ///
    /// `codes.len()` must be a multiple of `query.len()`.
    pub unsafe fn sq8_euclidean_batch(
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        deltas: &[f32],
        out: &mut Vec<f32>,
    ) {
        for row in codes.chunks_exact(query.len()) {
            out.push(sq8_se_row(query, row, mins, deltas));
        }
    }

    /// Batched SQ8 inner-product scan; `negate` fuses the sign flip.
    ///
    /// # Safety
    ///
    /// `codes.len()` must be a multiple of `query.len()`.
    pub unsafe fn sq8_dot_batch(
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        deltas: &[f32],
        negate: bool,
        out: &mut Vec<f32>,
    ) {
        if negate {
            for row in codes.chunks_exact(query.len()) {
                out.push(-sq8_dot_row(query, row, mins, deltas));
            }
        } else {
            for row in codes.chunks_exact(query.len()) {
                out.push(sq8_dot_row(query, row, mins, deltas));
            }
        }
    }

    /// `Σⱼ qdⱼ · codeⱼ` for one coded row (expanded-form SQ8 scan).
    ///
    /// # Safety
    ///
    /// `qd` and `codes` must have equal lengths.
    pub unsafe fn sq8_code_dot_row(qd: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(qd.len(), codes.len());
        let n = qd.len();
        let (pq, pc) = (qd.as_ptr(), codes.as_ptr());
        let mut acc = [v8_zero(); 4];
        let mut i = 0;
        while i + STRIDE <= n {
            for (c, slot) in acc.iter_mut().enumerate() {
                let base = i + c * LANES;
                *slot = v8_fma(*slot, v8_load(pq.add(base)), load8_codes(pc.add(base)));
            }
            i += STRIDE;
        }
        let mut v = v8_add(v8_add(acc[0], acc[1]), v8_add(acc[2], acc[3]));
        while i + LANES <= n {
            v = v8_fma(v, v8_load(pq.add(i)), load8_codes(pc.add(i)));
            i += LANES;
        }
        let mut s = hsum_ordered(v);
        while i < n {
            s = (*pq.add(i)).mul_add(*pc.add(i) as f32, s);
            i += 1;
        }
        s
    }

    /// Batched raw code dots.
    ///
    /// # Safety
    ///
    /// `codes.len()` must be a multiple of `qd.len()`.
    pub unsafe fn sq8_code_dot_batch(qd: &[f32], codes: &[u8], out: &mut Vec<f32>) {
        for row in codes.chunks_exact(qd.len()) {
            out.push(sq8_code_dot_row(qd, row));
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
                let (dp_v, nb_v) = avx2::dot_norm2_row(&a, &b);
                let (dp_s, nb_s) = scalar::dot_norm2_row(&a, &b);
                assert_eq!(dp_v.to_bits(), dp_s.to_bits(), "dp dim={dim}");
                assert_eq!(nb_v.to_bits(), nb_s.to_bits(), "nb dim={dim}");
            }
        }
    }

    #[test]
    fn scalar_dot_norm2_halves_match_standalone() {
        for dim in [1usize, 7, 9, 33, 130] {
            let a = vec_of(dim, 5);
            let b = vec_of(dim, 9);
            let (dp, nb) = scalar::dot_norm2_row(&a, &b);
            assert_eq!(dp.to_bits(), scalar::dot_row(&a, &b).to_bits());
            assert_eq!(nb.to_bits(), scalar::dot_row(&b, &b).to_bits());
        }
    }

    #[test]
    fn sq8_kernels_agree_across_backends() {
        for dim in [1usize, 7, 9, 33, 130] {
            let q = vec_of(dim, 3);
            let codes: Vec<u8> = (0..dim * 3).map(|i| (i * 37 % 256) as u8).collect();
            let mins = vec_of(dim, 17);
            let deltas: Vec<f32> = vec_of(dim, 19).iter().map(|x| x.abs() / 255.0).collect();
            let mut se_s = Vec::new();
            let mut dp_s = Vec::new();
            let mut cd_s = Vec::new();
            let qd: Vec<f32> = q.iter().zip(&deltas).map(|(x, d)| x * d).collect();
            scalar::sq8_euclidean_batch(&q, &codes, &mins, &deltas, &mut se_s);
            scalar::sq8_dot_batch(&q, &codes, &mins, &deltas, true, &mut dp_s);
            scalar::sq8_code_dot_batch(&qd, &codes, &mut cd_s);
            #[cfg(target_arch = "x86_64")]
            if avx2::available() {
                let mut se_v = Vec::new();
                let mut dp_v = Vec::new();
                let mut cd_v = Vec::new();
                // SAFETY: availability checked above.
                unsafe {
                    avx2::sq8_euclidean_batch(&q, &codes, &mins, &deltas, &mut se_v);
                    avx2::sq8_dot_batch(&q, &codes, &mins, &deltas, true, &mut dp_v);
                    avx2::sq8_code_dot_batch(&qd, &codes, &mut cd_v);
                }
                for i in 0..se_s.len() {
                    assert_eq!(se_v[i].to_bits(), se_s[i].to_bits(), "sq8 se dim={dim} i={i}");
                    assert_eq!(dp_v[i].to_bits(), dp_s[i].to_bits(), "sq8 dot dim={dim} i={i}");
                    assert_eq!(cd_v[i].to_bits(), cd_s[i].to_bits(), "sq8 cd dim={dim} i={i}");
                }
            }
            // Expanded form reconstructs the direct decode-dot to fp tolerance:
            // ⟨q,x̂⟩ = ⟨q,min⟩ + Σ qdⱼ·codeⱼ.
            let qm: f32 = q.iter().zip(&mins).map(|(x, m)| x * m).sum();
            for (i, &cd) in cd_s.iter().enumerate() {
                let direct = -dp_s[i];
                let expanded = qm + cd;
                let tol = 1e-4 * direct.abs().max(1.0);
                assert!(
                    (expanded - direct).abs() <= tol,
                    "dim={dim} i={i}: {expanded} vs {direct}"
                );
            }
        }
    }
}
