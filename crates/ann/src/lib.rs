//! Graph-based approximate nearest neighbour substrate for MBI.
//!
//! The paper (§4.1) builds one graph-based kNN index per block, constructed
//! with **NNDescent** (Dong et al., WWW'11) and searched with the best-first
//! beam search of Algorithm 2. This crate implements that substrate from
//! scratch:
//!
//! * [`VectorStore`] / [`VectorView`] — row-major `f32` storage. MBI appends
//!   strictly in timestamp order, so every block is a row *range* of one
//!   global store; views make per-block search zero-copy.
//! * [`Segment`] / [`SegmentStore`] — immutable leaf-sized row chunks shared
//!   by `Arc` across the streaming engine's snapshots, so publishing a new
//!   snapshot costs O(segments) pointer copies instead of re-copying the
//!   sealed prefix. Views over a segment store stream per-segment contiguous
//!   runs through the same batched kernels.
//! * [`KnnGraph`] + [`NnDescentParams`] — the approximate kNN graph and its
//!   NNDescent builder (random initialisation, local joins over sampled
//!   new/old/reverse neighbours, convergence detection).
//! * [`greedy_search`] — Algorithm 2: best-first traversal with a candidate
//!   set capped at `M_C`, range factor `ε`, and a pluggable predicate filter
//!   used for the time window. When the filter accepts everything this is
//!   plain graph kNN search. Every candidate is scored with the exact
//!   distance.
//! * [`brute_force`] — exact kNN, used by the BSBF baseline, by MBI's
//!   non-full tail leaf, and for ground truth ([`brute_force_filtered`] is
//!   the per-row reference the filtered graph search is tested against).
//!
//! The hot entry points take a [`PreparedQuery`] plus a caller-owned
//! [`SearchScratch`], so the query path never re-derives the query norm and
//! never allocates; [`with_thread_scratch`] supplies a thread-local scratch
//! for callers that don't manage their own.

// `unsafe` is denied crate-wide with a single exception (mirroring
// `mbi_math::simd`): the `mapped` module holds the raw `mmap`/`madvise`
// plumbing of the storage tier and is the only place it is allowed.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bruteforce;
mod check;
mod graph;
pub mod mapped;
mod nndescent;
mod scratch;
mod search;
mod segment;
mod store;

pub use bruteforce::{brute_force, brute_force_filtered, brute_force_into, brute_force_prepared};
pub use check::ChunkFault;
pub use graph::{KnnGraph, ADJACENCY_CHUNK};
pub use mapped::{Col, FileMap, PAGE_SIZE};
pub use nndescent::NnDescentParams;
pub use scratch::{with_thread_scratch, SearchScratch};
pub use search::{greedy_search, greedy_search_prepared, EntryPolicy, SearchParams, SearchStats};
pub use segment::{Segment, SegmentStore};
pub use store::{VectorStore, VectorView};

pub use mbi_math::{Metric, Neighbor, PreparedQuery};
