//! Numeric foundations for the MBI time-restricted kNN stack.
//!
//! This crate provides the small, hot pieces shared by every other crate in the
//! workspace:
//!
//! * [`Metric`] — the distance functions used by the paper's datasets
//!   (Euclidean for SIFT/GIST, angular a.k.a. cosine distance for
//!   MovieLens/COMS/GloVe/DEEP), run by the explicit AVX2/NEON or portable
//!   scalar kernels of [`simd`].
//! * [`PreparedQuery`] and the `*_batch` kernels — the norm-cached,
//!   1-to-many fast paths used by every search loop (see DESIGN.md
//!   "Distance-kernel architecture").
//! * [`OrderedF32`] — a totally ordered `f32` wrapper so distances can live in
//!   heaps and sorted collections without `partial_cmp().unwrap()` noise.
//! * [`Neighbor`] and [`TopK`] — the `(id, distance)` pair and the bounded
//!   max-heap used to keep the `k` best candidates in `O(log k)` per insert,
//!   matching the complexity accounting in §3.2.1 of the paper.
//! * [`crc32`] — the one CRC32 (IEEE) kernel behind every checksummed byte
//!   (persist, cold tier, WAL, replication): a PCLMULQDQ fold on `x86_64`, a
//!   slice-by-16 table loop elsewhere (see DESIGN.md "SIMD dispatch").
//! * [`OnlineStats`] — Welford streaming statistics used by the experiment
//!   harness for timing summaries.
//!
//! Everything here is deliberately dependency-free (apart from `serde` for
//! result reporting) and heavily unit- and property-tested, because a subtle
//! ordering bug in a distance kernel silently corrupts every recall number in
//! the evaluation.
//!
//! `unsafe` is denied crate-wide with one exception, the intrinsics behind
//! runtime feature detection: the [`simd`] module's explicit AVX2/NEON distance
//! kernels and its sibling `crc`, the carry-less-multiply checksum fold.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod float;
mod kernels;
mod metric;
pub mod simd;
mod stats;
mod topk;

pub use crc::{crc32, crc32_backend};
pub use float::OrderedF32;
pub use kernels::{
    angular_batch, angular_from_parts, inv_norm_of, neg_dot_batch, squared_euclidean_batch,
    PreparedQuery,
};
pub use metric::{angular_distance, dot, norm, squared_euclidean, squared_euclidean_x4, Metric};
pub use stats::OnlineStats;
pub use topk::{topk_by_sort, Neighbor, TopK};
