//! **Multi-level Block Indexing (MBI)** — the contribution of the paper
//! *"Efficient Proximity Search in Time-accumulating High-dimensional Data
//! using Multi-level Block Indexing"* (EDBT 2024).
//!
//! MBI answers *time-restricted kNN* (TkNN) queries — "the `k` vectors
//! nearest to `w` with timestamps in `[t_s, t_e)`" (Definition 3.1) — over a
//! database that grows in timestamp order. It divides the data into blocks
//! that form a perfect binary tree over time:
//!
//! * each **leaf block** holds `S_L` consecutive vectors;
//! * each **internal block** holds the union of its two children;
//! * every block carries its own graph-based ANN index;
//! * blocks are materialised bottom-up as leaves fill (Algorithm 3) and are
//!   numbered in postorder, so a block's relatives are index arithmetic, not
//!   pointers (`sibling(i) = i + 1 − 2^h`).
//!
//! A query selects a *search block set* top-down using the overlap ratio
//! `r_o` and threshold `τ` (Algorithm 4), runs the filtered graph search of
//! Algorithm 2 in every full block, brute-forces the non-full tail leaf, and
//! merges the per-block top-k.
//!
//! # Quick start
//!
//! ```
//! use mbi_core::{MbiConfig, MbiIndex, TimeWindow};
//! use mbi_math::Metric;
//!
//! let config = MbiConfig::new(4, Metric::Euclidean).with_leaf_size(64);
//! let mut index = MbiIndex::new(config);
//! for i in 0..1000i64 {
//!     let x = i as f32 * 0.01;
//!     index.insert(&[x.sin(), x.cos(), x, -x], i).unwrap();
//! }
//! let hits = index.query(&[0.5, 0.5, 0.5, -0.5], 10, TimeWindow::new(100, 900));
//! assert_eq!(hits.len(), 10);
//! for h in &hits {
//!     assert!((100..900).contains(&h.timestamp));
//! }
//! ```
//!
//! # Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`config`] | Table 3 | [`MbiConfig`], [`GraphBackend`] |
//! | [`block`] | §4.1 | [`Block`], [`BlockGraph`] |
//! | [`index`] | §4.2, Alg. 3–4 | [`MbiIndex`]: insert / query / exact query |
//! | `layout` | §4.2–4.3, Alg. 3–4 | crate-private: the binary postorder arithmetic (block count, leaf index, children, merge chain, roots) |
//! | [`select`] | §4.3 | top-down block selection, overlap ratio |
//! | [`persist`] | §4.4.2 | the one on-disk format (v9): checksummed save/load of an index or snapshot |
//! | [`engine`] | — | [`StreamingMbi`]: queries concurrent with ingest, background builds, snapshot publication |
//! | [`tier`] | — | [`ColdIndex`]: an `IndexSnapshot` over a mapped snapshot file; rows and chunks checked once per open |
//! | [`times`] | — | [`TimeChunks`]: chunk-shared timestamp column for snapshots |
//! | [`tuner`] | §5.4.2 | [`TauTuner`]: per-window-length `τ` calibration |
//! | [`wal`] | — | [`Wal`]: segmented, checksummed write-ahead log |
//! | [`replicate`] | — | [`WalFeed`] / [`Replica`]: WAL-shipped read replicas |
//! | [`fail`] | — | deterministic fault injection (`--cfg failpoints`) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod config;
pub mod engine;
pub mod error;
pub mod fail;
pub mod index;
pub(crate) mod layout;
pub mod persist;
pub(crate) mod query_exec;
pub mod replicate;
pub mod select;
pub mod tier;
pub mod times;
pub mod tuner;
pub mod wal;

pub use block::{Block, BlockGraph};
pub use config::{GraphBackend, MbiConfig};
pub use engine::{EngineConfig, EngineHealth, EngineStats, IndexSnapshot, StreamingMbi, WalSync};
pub use error::MbiError;
pub use index::{LevelStats, MbiIndex, QueryOutput, TknnResult};
pub use replicate::{ReplEvent, Replica, ReplicationCursor, WalFeed};
pub use select::{SearchBlockSet, TimeWindow};
pub use tier::{ColdIndex, TierStats};
pub use times::TimeChunks;
pub use tuner::TauTuner;
pub use wal::Wal;

/// Timestamps are signed 64-bit integers; any monotone clock works (unix
/// seconds, milliseconds, frame numbers, release years, …). §3.1 only
/// requires that timestamps be comparable.
pub type Timestamp = i64;
