//! # MBI — Multi-level Block Indexing for time-restricted kNN search
//!
//! A from-scratch Rust implementation of *"Efficient Proximity Search in
//! Time-accumulating High-dimensional Data using Multi-level Block Indexing"*
//! (Han, Kim & Park, EDBT 2024), including the full evaluation substrate:
//! the NNDescent/HNSW graph indexes each block uses, the BSBF and SF
//! baselines the paper compares against, synthetic stand-ins for the paper's
//! datasets, and a harness regenerating every table and figure.
//!
//! This crate is the facade: it re-exports the public API of the workspace
//! crates and hosts the runnable examples and cross-crate integration tests.
//!
//! ## The problem
//!
//! A *time-restricted kNN* (TkNN) query `q = (w, k, t_s, t_e)` asks for the
//! `k` vectors nearest to `w` among those with timestamps in `[t_s, t_e)` —
//! "which 10 photos taken between January 2010 and May 2011 are most similar
//! to this one?". Plain ANN indexes either scan the whole window (fast only
//! for short windows) or search-then-filter (fast only for long windows).
//!
//! ## The method
//!
//! [`MbiIndex`] keeps vectors in timestamp order, groups them into leaf
//! blocks of `S_L`, and materialises a perfect binary tree of blocks
//! bottom-up, each with its own graph index. A query picks a minimal set of
//! blocks whose windows it covers densely (overlap ratio > `τ`), searches
//! each with a filtered graph traversal, and merges. With `τ ≤ 0.5` at most
//! two blocks are ever searched (Lemma 4.1).
//!
//! ## Quick start
//!
//! ```
//! use mbi::{MbiConfig, MbiIndex, Metric, TimeWindow};
//!
//! // 8-dimensional vectors under Euclidean distance, tiny blocks for demo.
//! let config = MbiConfig::new(8, Metric::Euclidean).with_leaf_size(128);
//! let mut index = MbiIndex::new(config);
//!
//! // Ingest in timestamp order (here: one vector per "day").
//! for day in 0..2000i64 {
//!     let x = day as f32 * 0.01;
//!     let v = [x.sin(), x.cos(), (2.0 * x).sin(), (2.0 * x).cos(),
//!              (3.0 * x).sin(), (3.0 * x).cos(), x.fract(), 1.0];
//!     index.insert(&v, day).unwrap();
//! }
//!
//! // The 5 nearest neighbours among days [500, 1500).
//! let query = [0.5f32, 0.8, 0.9, 0.1, 0.2, -0.9, 0.3, 1.0];
//! let hits = index.query(&query, 5, TimeWindow::new(500, 1500));
//! assert_eq!(hits.len(), 5);
//! assert!(hits.iter().all(|h| (500..1500).contains(&h.timestamp)));
//! ```
//!
//! See `examples/` for realistic scenarios (photo library, movie catalogue,
//! streaming satellite feed) and `crates/bench` for the paper's experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mbi_core::{
    Backpressure, Block, BlockGraph, ColdIndex, EngineConfig, EngineHealth, EngineStats,
    GraphBackend, IndexSnapshot, MbiConfig, MbiError, MbiIndex, QueryOutput, ReplEvent, Replica,
    ReplicationCursor, RetryPolicy, SearchBlockSet, StreamingMbi, TauTuner, TierStats, TimeChunks,
    TimeWindow, Timestamp, TknnResult, Wal, WalFeed, WalSync,
};
pub use mbi_math::{Metric, Neighbor, OnlineStats, OrderedF32, TopK};

/// The graph-ANN substrate (vector store, NNDescent, HNSW, beam search).
pub use mbi_ann as ann;
/// The BSBF and SF baselines from §3.2 of the paper.
pub use mbi_baselines as baselines;
/// The MBI index implementation (re-exported at the root too).
pub use mbi_core as core;
/// Synthetic datasets, workloads, ground truth, recall.
pub use mbi_data as data;
/// The experiment harness (sweeps, operating points, reports).
pub use mbi_eval as eval;
/// Numeric foundations (metrics, top-k, ordered floats).
pub use mbi_math as math;
/// The multi-tenant network query service (HTTP/JSON + binary protocols).
pub use mbi_server as server;

pub use mbi_ann::{HnswParams, NnDescentParams, SearchParams, SearchStats, Segment, SegmentStore};
