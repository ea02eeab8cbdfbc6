//! Streaming ingest engine: background merge-chain builds with atomic
//! snapshot publication.
//!
//! One lock around an [`MbiIndex`] would be a correct way to query during
//! ingest, but it runs every seal's merge-chain build *inline under the
//! write lock* — a root-level merge over `2^h` leaves stalls every insert
//! and query for the whole build. [`StreamingMbi`] removes the build from
//! the insert path entirely:
//!
//! * **Inserts** append to a write-side *tail* (a leaf-sized partial buffer
//!   behind a short `RwLock`) and return. When a leaf fills, the buffer is
//!   frozen into an immutable [`Segment`] whose `Arc` is shared with the
//!   builder-side *master* copy — a pointer move, not a row copy — and the
//!   leaf index is handed to the background builders over a bounded channel.
//! * **Builders** (dedicated `std::thread` workers) compute the leaf's merge
//!   chain (Algorithm 3), *share* the chain's segments out of the master
//!   (the chain range is always leaf-aligned), build the graphs lock-free
//!   with the exact same deterministic seeds as the synchronous path, and
//!   stage the finished blocks. Chains may finish out of order; they are
//!   *published* strictly in leaf order.
//! * **Publication** swaps an [`Arc<IndexSnapshot>`] — an immutable sealed
//!   prefix of shared segments, shared timestamp chunks, and postorder
//!   blocks — under a short write lock. Assembling the snapshot is
//!   `O(published leaves)` pointer copies: consecutive snapshots share every
//!   segment of their common prefix, so publication cost is independent of
//!   how many rows have accumulated. Queries clone the current `Arc` (no
//!   lock held while searching) and serve the not-yet-published region from
//!   the tail with the BSBF scan, so every committed row is always visible
//!   exactly once.
//!
//! # Correctness of the tail fallback
//!
//! The publisher swaps the snapshot *before* trimming the published rows off
//! the tail, and a query acquires the tail read lock *before* loading the
//! snapshot. Lock acquire/release ordering therefore guarantees
//! `tail.first_row ≤ snapshot.sealed_rows()` at query time: any row the
//! snapshot already covers that is still present in the tail is skipped by
//! clamping the tail scan to start at `sealed_rows − first_row`. Every
//! committed row is thus served exactly once — from the snapshot's graphs if
//! its chain has been published, else by exact scan — and once builds drain
//! ([`StreamingMbi::flush`]) the snapshot's blocks are bit-identical to a
//! synchronous [`MbiIndex`] fed the same stream (same ranges, same
//! deterministic seed salts, same norm-cache columns).
//!
//! # Failure isolation
//!
//! A chain build that panics is caught on the builder thread
//! (`catch_unwind`) and retried with bounded exponential backoff
//! ([`RetryPolicy`]); [`StreamingMbi::health`] reports the engine as
//! [`Degraded`](EngineHealth::Degraded) while chains are failing and
//! [`Halted`](EngineHealth::Halted) once one exhausts its retries. Neither
//! state compromises answers: an unpublished chain blocks in-order
//! publication, so its rows simply *stay in the tail*, which queries already
//! serve by exact scan — a failed build degrades recall-free to brute force
//! over that region, it never loses or double-counts a row. Inserts and
//! queries keep working in every health state, and every lock in the engine
//! is non-poisoning (`parking_lot`), so a builder panic cannot wedge the
//! insert or query path. [`StreamingMbi::flush`] returns (rather than hangs)
//! on a halted engine.
//!
//! # Durability
//!
//! [`StreamingMbi::open`] attaches the engine to a directory: every insert
//! appends to a segmented, checksummed [`Wal`] *before* it
//! is acknowledged, [`StreamingMbi::checkpoint`] atomically persists the
//! published snapshot and prunes the log, and [`StreamingMbi::recover`]
//! rebuilds the exact acked state — snapshot plus WAL replay, tolerating a
//! torn final record — after a crash. [`WalSync`] picks the fsync cadence.

use crate::block::{Block, SharedBlocks};
use crate::config::MbiConfig;
use crate::error::MbiError;
use crate::fail;
use crate::index::{
    assemble_blocks, blocks_for_leaves, build_chain_graphs, merge_chain, validate_blocks, MbiIndex,
    QueryOutput, TknnResult,
};
use crate::query_exec::QueryTarget;
use crate::select::TimeWindow;
use crate::times::TimeChunks;
use crate::wal::Wal;
use crate::Timestamp;
use mbi_ann::{
    brute_force_prepared, SearchParams, SearchStats, Segment, SegmentStore, VectorStore,
};
use mbi_math::{Metric, OrderedF32, PreparedQuery, TopK};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Applies the config's seal-time column policy to a freshly frozen
/// segment: when the SQ8 scan is enabled, every sealed segment carries its
/// code column from birth, so the store-wide uniformity invariant holds.
pub(crate) fn finish_segment(config: &MbiConfig, mut seg: Segment) -> Segment {
    if config.sq8_scan {
        seg.build_sq8();
    }
    seg
}

/// File name of the persisted snapshot inside a durable engine directory.
pub const SNAPSHOT_FILE: &str = "snapshot.mbi";
/// Subdirectory holding the WAL segments inside a durable engine directory.
pub const WAL_DIR: &str = "wal";

/// What an insert does when it seals a leaf but the builder queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the inserting thread until a queue slot frees up (bounded
    /// memory, insert latency spikes to one *queue wait*, never to a build).
    Block,
    /// Build the merge chain on the inserting thread instead of waiting — a
    /// load-shedding mode that degrades towards the synchronous index's
    /// inline builds under sustained overload but never stalls on a full
    /// queue.
    BuildInline,
}

/// When the WAL of a durable engine fsyncs acked rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalSync {
    /// fsync after every append: an acked insert is on stable storage, at
    /// the cost of one `fdatasync` per insert.
    Always,
    /// fsync when a leaf seals (the segment rotation syncs the finished
    /// segment) and at [`StreamingMbi::checkpoint`]. Rows of the growing
    /// partial leaf survive a process crash (the OS holds them) but up to
    /// one leaf may be lost to a power failure. The default.
    OnSeal,
}

/// Bounded exponential backoff for retrying a panicked chain build.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first failure before the engine halts (default 2;
    /// `0` = a single failure halts).
    pub max_retries: usize,
    /// Backoff before the first retry; doubles each retry (default 10 ms).
    pub initial_backoff: Duration,
    /// Backoff ceiling (default 1 s).
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based): `initial · 2^attempt`
    /// capped at `max_backoff`.
    pub fn backoff(&self, attempt: usize) -> Duration {
        self.initial_backoff.saturating_mul(1u32 << attempt.min(16) as u32).min(self.max_backoff)
    }
}

/// Builder health, reported by [`StreamingMbi::health`]. Queries and inserts
/// stay correct in every state (see the module docs on failure isolation);
/// the states describe how much of the data is served by graphs vs. by the
/// exact tail scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineHealth {
    /// No chain build has failed (or every failure has since been retried
    /// successfully).
    Healthy,
    /// These chains have failed at least once and are being retried; their
    /// rows (and every later row) are served from the tail by exact scan
    /// until the retry succeeds.
    Degraded {
        /// Leaf indices of the currently failing chains.
        failed_chains: Vec<usize>,
    },
    /// A chain exhausted its [`RetryPolicy`]: publication is frozen at the
    /// last published leaf. Inserts, queries, [`StreamingMbi::flush`], and
    /// [`StreamingMbi::checkpoint`] all still work; the unpublished region
    /// is served by exact scan indefinitely.
    Halted,
}

impl EngineHealth {
    /// Whether the engine has frozen publication ([`EngineHealth::Halted`])
    /// — the state a load balancer should rotate a node out on.
    pub fn is_halted(&self) -> bool {
        matches!(self, EngineHealth::Halted)
    }

    /// Stable lower-case label for wire formats: `"healthy"`, `"degraded"`,
    /// or `"halted"`.
    pub fn label(&self) -> &'static str {
        match self {
            EngineHealth::Healthy => "healthy",
            EngineHealth::Degraded { .. } => "degraded",
            EngineHealth::Halted => "halted",
        }
    }
}

/// Tunables of the streaming engine (the index itself is configured by
/// [`MbiConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Dedicated background builder threads (minimum 1; default 1).
    pub builder_threads: usize,
    /// Capacity of the bounded seal queue (default 2; `0` = rendezvous —
    /// a seal waits for an idle builder).
    pub queue_depth: usize,
    /// Policy when the seal queue is full (default [`Backpressure::Block`]).
    pub backpressure: Backpressure,
    /// Intra-build threads per chain build (`0` = auto: available cores
    /// divided by `builder_threads`; default 0). Graphs are bit-identical
    /// for every value.
    pub build_threads: usize,
    /// Record per-insert latency into [`EngineStats::insert_nanos`]
    /// (default true; turn off to shave the `Instant` reads in ingest-bound
    /// deployments).
    pub record_insert_latency: bool,
    /// Retry/backoff policy for panicked chain builds (default: 2 retries,
    /// 10 ms doubling backoff).
    pub retry: RetryPolicy,
    /// WAL fsync cadence for durable engines (default [`WalSync::OnSeal`];
    /// ignored without a durable directory).
    pub wal_sync: WalSync,
    /// How many rows a replication retention hold
    /// ([`StreamingMbi::set_replica_hold`]) may lag behind a checkpoint
    /// before [`Wal::prune`](crate::Wal::prune) evicts it instead of pinning
    /// log segments forever (default `u64::MAX` — never evict).
    pub replica_lag_cap_rows: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            builder_threads: 1,
            queue_depth: 2,
            backpressure: Backpressure::Block,
            build_threads: 0,
            record_insert_latency: true,
            retry: RetryPolicy::default(),
            wal_sync: WalSync::OnSeal,
            replica_lag_cap_rows: u64::MAX,
        }
    }
}

impl EngineConfig {
    /// Sets the number of dedicated builder threads (clamped to ≥ 1).
    pub fn with_builder_threads(mut self, n: usize) -> Self {
        self.builder_threads = n.max(1);
        self
    }

    /// Sets the bounded seal-queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the full-queue policy.
    pub fn with_backpressure(mut self, policy: Backpressure) -> Self {
        self.backpressure = policy;
        self
    }

    /// Sets the intra-build thread count per chain (`0` = auto).
    pub fn with_build_threads(mut self, n: usize) -> Self {
        self.build_threads = n;
        self
    }

    /// Enables or disables per-insert latency recording.
    pub fn with_record_insert_latency(mut self, on: bool) -> Self {
        self.record_insert_latency = on;
        self
    }

    /// Sets the retry/backoff policy for panicked chain builds.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the WAL fsync cadence for durable engines.
    pub fn with_wal_sync(mut self, sync: WalSync) -> Self {
        self.wal_sync = sync;
        self
    }

    /// Sets the replication retention-hold lag cap in rows.
    pub fn with_replica_lag_cap(mut self, rows: u64) -> Self {
        self.replica_lag_cap_rows = rows;
        self
    }
}

/// A point-in-time snapshot of progress counters and latency samples.
///
/// Latencies are raw nanosecond samples (not pre-aggregated) so callers can
/// feed them to whatever summariser they use — `mbi-eval`'s
/// `IngestSummary::from_engine_stats` turns them into the serialisable
/// mean/p50/p99/max report (core cannot depend on eval, which depends on
/// core).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Leaves sealed so far (= merge chains handed to the builders,
    /// including any built inline under [`Backpressure::BuildInline`]).
    pub seals: usize,
    /// Leaves whose chains have been published to the snapshot.
    pub published_leaves: usize,
    /// Chains sealed but not yet published (queued + in build).
    pub queued_builds: usize,
    /// Blocks in the current snapshot.
    pub published_blocks: usize,
    /// Greatest block height in the current snapshot (0 when empty).
    pub published_height: u32,
    /// Chains built on an inserting thread because the queue was full (or
    /// because no builder thread could be spawned).
    pub inline_builds: u64,
    /// Builder threads that failed to spawn; the engine fell back to
    /// building those chains inline on the inserting thread.
    pub spawn_failures: u64,
    /// Chain-build panics caught and retried (or halted on).
    pub build_panics: u64,
    /// Per-insert wall-clock nanoseconds, in insert order (empty when
    /// [`EngineConfig::record_insert_latency`] is off). A streaming insert
    /// is an append plus a channel send and routinely finishes under a
    /// microsecond, hence the unit.
    pub insert_nanos: Vec<u64>,
    /// Per-chain graph-build wall-clock nanoseconds, in completion order.
    pub build_nanos: Vec<u64>,
    /// One `(sealed_rows, nanos)` sample per snapshot publication, in
    /// publication order: how many rows the published snapshot covers and
    /// how long the publication itself took (staging the chain's blocks,
    /// assembling the pointer-shared snapshot, swapping it in, trimming the
    /// tail — everything except the lock-free graph build). With the
    /// segment-shared store this stays flat as `sealed_rows` grows.
    pub publish_nanos: Vec<(u64, u64)>,
}

/// An immutable published view of the sealed prefix: leaf-sized shared
/// vector segments, the matching shared timestamp chunks, and the postorder
/// block array. Queries run on it without any lock.
///
/// Everything in a snapshot is shared by `Arc`: consecutive snapshots of the
/// same engine hold the *same* segments, timestamp chunks, and blocks for
/// their common prefix, so publishing a new snapshot costs `O(segments)`
/// pointer copies for the store plus `O(1)` amortised for the chunk-shared
/// [`SharedBlocks`] array (never a row copy), and a retired snapshot frees
/// only what no newer snapshot still references.
#[derive(Clone, Debug)]
pub struct IndexSnapshot {
    pub(crate) config: MbiConfig,
    pub(crate) store: SegmentStore,
    pub(crate) times: TimeChunks,
    pub(crate) blocks: SharedBlocks,
    pub(crate) num_leaves: usize,
}

impl IndexSnapshot {
    fn empty(config: MbiConfig) -> Self {
        IndexSnapshot {
            store: SegmentStore::new(config.dim, config.leaf_size),
            times: TimeChunks::new(config.leaf_size),
            blocks: SharedBlocks::new(),
            num_leaves: 0,
            config,
        }
    }

    fn target(&self) -> QueryTarget<'_, SharedBlocks, SegmentStore, TimeChunks> {
        QueryTarget {
            config: &self.config,
            store: &self.store,
            times: &self.times,
            blocks: &self.blocks,
            num_leaves: self.num_leaves,
        }
    }

    /// The configuration of the engine that published this snapshot.
    pub fn config(&self) -> &MbiConfig {
        &self.config
    }

    /// Rows covered by this snapshot (`num_leaves · S_L`).
    pub fn sealed_rows(&self) -> usize {
        self.times.len()
    }

    /// Whether the snapshot covers no rows.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of published (full) leaves.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// The published postorder block array (chunk-shared across snapshots).
    pub fn blocks(&self) -> &SharedBlocks {
        &self.blocks
    }

    /// The segment-shared vector store (one segment per published leaf).
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// The chunk-shared timestamp column, parallel to [`Self::store`].
    pub fn times(&self) -> &TimeChunks {
        &self.times
    }

    /// Builds a snapshot from a synchronous index by chunking its rows into
    /// leaf-sized segments. Fails with [`MbiError::UnsealedTail`] when the
    /// index has tail rows — a snapshot holds only sealed leaves; use
    /// [`StreamingMbi::from_index`] to resume streaming with a tail.
    pub fn from_index(index: &MbiIndex) -> Result<Self, MbiError> {
        if !index.tail_rows().is_empty() {
            return Err(MbiError::UnsealedTail { tail_rows: index.tail_rows().len() });
        }
        let config = *index.config();
        let s_l = config.leaf_size;
        let mut store = SegmentStore::new(config.dim, s_l);
        let mut times = TimeChunks::new(s_l);
        for leaf in 0..index.num_leaves() {
            let rows = leaf * s_l..(leaf + 1) * s_l;
            store.push_segment(Arc::new(finish_segment(
                &config,
                Segment::from_view(index.store().slice(rows.clone())),
            )));
            times.push_chunk(index.timestamps()[rows].into());
        }
        Ok(IndexSnapshot {
            config,
            store,
            times,
            blocks: index.blocks().iter().cloned().map(Arc::new).collect(),
            num_leaves: index.num_leaves(),
        })
    }

    /// Exhaustively checks the snapshot's structural invariants (the
    /// [`MbiIndex::validate`] checks, applied to the segmented columns);
    /// returns the first violation, if any. Run after loading persisted
    /// bytes from an untrusted source, and by tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.store.len() != self.times.len() {
            return Err(format!(
                "store has {} rows but {} timestamps",
                self.store.len(),
                self.times.len()
            ));
        }
        if self.num_leaves * self.config.leaf_size != self.times.len() {
            return Err(format!(
                "{} leaves of {} rows do not cover {} stored rows",
                self.num_leaves,
                self.config.leaf_size,
                self.times.len()
            ));
        }
        for i in 1..self.times.len() {
            if self.times.get(i) < self.times.get(i - 1) {
                return Err("timestamps not sorted".into());
            }
        }
        validate_blocks(self.config.leaf_size, self.num_leaves, &self.blocks, &self.times)
    }

    /// Approximate TkNN over the published rows only (the engine's
    /// [`StreamingMbi::query`] adds the tail).
    pub fn query_with_params(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
    ) -> QueryOutput {
        self.target().query_with_params(query, k, window, params)
    }

    /// [`IndexSnapshot::query_with_params`] under a cooperative deadline
    /// (see [`MbiIndex::query_with_deadline`]).
    pub fn query_with_deadline(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        deadline: Option<std::time::Instant>,
    ) -> QueryOutput {
        let target = self.target();
        let selection = target.block_selection(window);
        target.query_on_selection_deadline(
            query,
            k,
            window,
            params,
            &selection,
            self.config.query_threads,
            &crate::query_exec::Deadline::new(deadline),
        )
    }

    /// Exact TkNN over the published rows only, by brute force.
    pub fn exact_query(&self, query: &[f32], k: usize, window: TimeWindow) -> Vec<TknnResult> {
        self.target().exact_query(query, k, window)
    }

    /// Bytes of heap memory the snapshot holds: vector segments with every
    /// side column (inverse norms *and* the SQ8 code column when the engine
    /// quantizes), timestamp chunks, and block graphs. Structure shared
    /// with other snapshots or the engine tail is counted once per holder;
    /// mapped (cold-tier) columns count `0` — their residency is charged to
    /// [`crate::tier::TierStats::bytes_resident`] instead.
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes() + self.times.memory_bytes() + self.blocks.memory_bytes()
    }
}

/// The write-side tail: rows not yet covered by the published snapshot.
/// `first_row` is the global row id of the tail's first local row; it is
/// always a multiple of `S_L` and only ever increases (trims happen at
/// publication).
///
/// Sealed-but-unpublished leaves sit in `sealed` as the *same*
/// `Arc<Segment>` / timestamp chunk the master copy holds — sealing a leaf
/// freezes the partial buffers and shares the pointers, so neither the seal
/// nor the publication trim copies a row: the trim pops whole leaves off the
/// front of the deque in O(1) each.
#[derive(Debug)]
struct TailState {
    /// Sealed, not-yet-trimmed leaves, oldest first: leaf `first_row / S_L`
    /// onwards, each exactly `S_L` rows.
    sealed: VecDeque<(Arc<Segment>, Arc<[Timestamp]>)>,
    /// The growing, non-full last leaf (rows past every sealed leaf).
    partial: VectorStore,
    /// Timestamps of the partial leaf, parallel to `partial`.
    partial_ts: Vec<Timestamp>,
    first_row: usize,
    last_ts: Option<Timestamp>,
    leaf_size: usize,
}

impl TailState {
    /// Local rows currently in the tail (sealed-but-untrimmed + partial).
    fn len(&self) -> usize {
        self.sealed.len() * self.leaf_size + self.partial.len()
    }

    /// Timestamp of local tail row `local`.
    fn ts_at(&self, local: usize) -> Timestamp {
        let sealed_rows = self.sealed.len() * self.leaf_size;
        if local < sealed_rows {
            self.sealed[local / self.leaf_size].1[local % self.leaf_size]
        } else {
            self.partial_ts[local - sealed_rows]
        }
    }

    /// Index of the first local row with timestamp `>= bound` (chunk-level
    /// binary search over the sealed deque, then within one chunk).
    fn partition_below(&self, bound: Timestamp) -> usize {
        let s_l = self.leaf_size;
        let (mut lo, mut hi) = (0usize, self.sealed.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.sealed[mid].1[s_l - 1] < bound {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < self.sealed.len() {
            return lo * s_l + self.sealed[lo].1.partition_point(|&t| t < bound);
        }
        self.sealed.len() * s_l + self.partial_ts.partition_point(|&t| t < bound)
    }
}

/// The builder-side master copy: every sealed leaf (pushed as a shared
/// segment at seal time, in leaf order, under the tail lock), the growing
/// postorder block array, and the in-order publication frontier.
/// Out-of-order chain completions wait in `ready` until every earlier leaf
/// has been published.
#[derive(Debug)]
struct Master {
    /// All enqueued leaves as shared segments (`enqueued_leaves` of them);
    /// the published snapshot shares the first `published_leaves`.
    store: SegmentStore,
    /// Timestamp chunks parallel to `store`.
    times: TimeChunks,
    /// The postorder block array, chunk-shared with every published
    /// snapshot — publication shares it in amortised `O(1)` instead of
    /// cloning `O(blocks)` pointers.
    blocks: SharedBlocks,
    ready: BTreeMap<usize, Vec<Block>>,
    published_leaves: usize,
    enqueued_leaves: usize,
}

/// One currently-failing chain build (cleared when a retry succeeds).
#[derive(Debug)]
struct ChainFailure {
    attempts: usize,
    last_error: String,
}

/// Durable attachment of an engine to a directory: the open WAL plus the
/// directory that holds the persisted snapshot.
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    wal: Mutex<Wal>,
}

#[derive(Debug)]
struct Shared {
    config: MbiConfig,
    engine: EngineConfig,
    snapshot: RwLock<Arc<IndexSnapshot>>,
    tail: RwLock<TailState>,
    master: Mutex<Master>,
    publish_cv: Condvar,
    /// Set when a chain exhausted its retries; publication is frozen and
    /// `flush` waiters return. Checked under the master lock by waiters and
    /// set *before* a lock/unlock + notify, so no wakeup is lost.
    halted: AtomicBool,
    failing: Mutex<BTreeMap<usize, ChainFailure>>,
    durability: Option<Durability>,
    inline_builds: AtomicU64,
    spawn_failures: AtomicU64,
    build_panics: AtomicU64,
    insert_nanos: Mutex<Vec<u64>>,
    build_nanos: Mutex<Vec<u64>>,
    publish_nanos: Mutex<Vec<(u64, u64)>>,
}

impl Shared {
    /// Locks the master state. All engine locks are non-poisoning
    /// (`parking_lot`): a builder panic unwinds through its guards and every
    /// other thread keeps going — the panicked chain is retried per
    /// [`RetryPolicy`], never wedging `flush`/`drop`.
    fn master_lock(&self) -> MutexGuard<'_, Master> {
        self.master.lock()
    }

    fn effective_build_threads(&self) -> usize {
        if self.engine.build_threads != 0 {
            return self.engine.build_threads;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        (cores / self.engine.builder_threads).max(1)
    }

    fn halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }
}

/// A streaming MBI: `&self` inserts return without building graphs; merge
/// chains build on background threads; queries are served from a lock-free
/// snapshot plus an exact scan of the unpublished tail.
///
/// ```
/// use mbi_core::{EngineConfig, MbiConfig, StreamingMbi, TimeWindow};
/// use mbi_math::Metric;
///
/// let config = MbiConfig::new(2, Metric::Euclidean).with_leaf_size(8);
/// let engine = StreamingMbi::with_engine_config(config, EngineConfig::default());
/// for i in 0..100i64 {
///     engine.insert(&[i as f32, 0.0], i).unwrap();
/// }
/// // Queries are correct immediately (unbuilt region served exactly) …
/// let hits = engine.query(&[40.0, 0.0], 3, TimeWindow::all());
/// assert_eq!(hits[0].id, 40);
/// // … and after flush() the snapshot equals the synchronous index.
/// engine.flush();
/// assert_eq!(engine.stats().queued_builds, 0);
/// ```
#[derive(Debug)]
pub struct StreamingMbi {
    shared: Arc<Shared>,
    /// Senders live behind a mutex so sealing inserts from many threads keep
    /// queue order, and `drop` can take the sender to disconnect the workers.
    tx: Mutex<Option<SyncSender<usize>>>,
    workers: Vec<JoinHandle<()>>,
}

impl StreamingMbi {
    /// Creates an empty streaming engine with default [`EngineConfig`].
    pub fn new(config: MbiConfig) -> Self {
        Self::with_engine_config(config, EngineConfig::default())
    }

    /// Creates an empty streaming engine with explicit tunables, spawning
    /// the builder threads immediately.
    pub fn with_engine_config(config: MbiConfig, engine: EngineConfig) -> Self {
        Self::build(config, engine, None)
    }

    fn build(config: MbiConfig, engine: EngineConfig, durability: Option<Durability>) -> Self {
        let engine = EngineConfig { builder_threads: engine.builder_threads.max(1), ..engine };
        let shared = Arc::new(Shared {
            snapshot: RwLock::new(Arc::new(IndexSnapshot::empty(config))),
            tail: RwLock::new(TailState {
                sealed: VecDeque::new(),
                partial: Self::fresh_partial(&config),
                partial_ts: Vec::with_capacity(config.leaf_size),
                first_row: 0,
                last_ts: None,
                leaf_size: config.leaf_size,
            }),
            master: Mutex::new(Master {
                store: SegmentStore::new(config.dim, config.leaf_size),
                times: TimeChunks::new(config.leaf_size),
                blocks: SharedBlocks::new(),
                ready: BTreeMap::new(),
                published_leaves: 0,
                enqueued_leaves: 0,
            }),
            publish_cv: Condvar::new(),
            halted: AtomicBool::new(false),
            failing: Mutex::new(BTreeMap::new()),
            durability,
            inline_builds: AtomicU64::new(0),
            spawn_failures: AtomicU64::new(0),
            build_panics: AtomicU64::new(0),
            insert_nanos: Mutex::new(Vec::new()),
            build_nanos: Mutex::new(Vec::new()),
            publish_nanos: Mutex::new(Vec::new()),
            config,
            engine,
        });
        let (tx, rx) = mpsc::sync_channel::<usize>(engine.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(engine.builder_threads);
        for i in 0..engine.builder_threads {
            let worker_shared = Arc::clone(&shared);
            let worker_rx = Arc::clone(&rx);
            let spawned = if fail::trigger("builder::spawn").is_some() {
                Err(std::io::Error::other(fail::INJECTED_MSG))
            } else {
                std::thread::Builder::new()
                    .name(format!("mbi-builder-{i}"))
                    .spawn(move || worker_loop(&worker_shared, &worker_rx))
            };
            match spawned {
                Ok(handle) => workers.push(handle),
                // A spawn failure (thread exhaustion, injected fault) is not
                // fatal: record it and fall back to inline builds — chains
                // still build, just on the inserting thread.
                Err(_) => {
                    shared.spawn_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        StreamingMbi { shared, tx: Mutex::new(Some(tx)), workers }
    }

    /// An empty leaf-capacity buffer for the tail's partial leaf, with the
    /// norm cache pre-enabled for angular configs (so a seal can freeze it
    /// into a [`Segment`] without recomputing norms).
    fn fresh_partial(config: &MbiConfig) -> VectorStore {
        let mut store = VectorStore::with_capacity(config.dim, config.leaf_size);
        if config.metric == Metric::Angular {
            store.enable_norm_cache();
        }
        store
    }

    /// The index configuration.
    pub fn config(&self) -> &MbiConfig {
        &self.shared.config
    }

    /// The engine tunables (normalised: `builder_threads ≥ 1`).
    pub fn engine_config(&self) -> &EngineConfig {
        &self.shared.engine
    }

    /// Builder health (see [`EngineHealth`]). Never blocks on builds.
    pub fn health(&self) -> EngineHealth {
        if self.shared.halted() {
            return EngineHealth::Halted;
        }
        let failing = self.shared.failing.lock();
        if failing.is_empty() {
            EngineHealth::Healthy
        } else {
            EngineHealth::Degraded { failed_chains: failing.keys().copied().collect() }
        }
    }

    /// One diagnostic line per currently-failing chain: leaf index, attempt
    /// count, and the caught panic message of the latest attempt.
    pub fn failure_log(&self) -> Vec<String> {
        self.shared
            .failing
            .lock()
            .iter()
            .map(|(leaf, f)| {
                format!(
                    "chain {leaf}: {} failed attempt(s), last error: {}",
                    f.attempts, f.last_error
                )
            })
            .collect()
    }

    /// Appends a timestamped vector; returns the new global row id. Never
    /// builds graphs on this thread (except under [`Backpressure::
    /// BuildInline`] with a full queue): a seal freezes the leaf into a
    /// shared segment — moving the buffers, copying no rows — and enqueues
    /// the chain.
    ///
    /// On a durable engine ([`Self::open`]) the row is appended to the WAL —
    /// and, under [`WalSync::Always`], fsynced — *before* this method
    /// returns; an `Err` means the row was neither acked nor logged. The one
    /// exception: a WAL *rotation* failure at a leaf seal is reported as an
    /// error although the row itself is committed (in memory and in the
    /// log), because durability of the sealed leaf could not be confirmed.
    ///
    /// Timestamps must be non-decreasing across *all* inserting threads —
    /// the same Algorithm 3 contract as [`MbiIndex::insert`].
    pub fn insert(&self, vector: &[f32], t: Timestamp) -> Result<u32, MbiError> {
        self.insert_impl(vector, t, true)
    }

    fn insert_impl(&self, vector: &[f32], t: Timestamp, durable: bool) -> Result<u32, MbiError> {
        let t0 = self.shared.engine.record_insert_latency.then(Instant::now);
        let s_l = self.shared.config.leaf_size;
        let mut sealed_leaf = None;
        let mut seal_wal_err = None;
        let id = {
            let mut tail = self.shared.tail.write();
            if vector.len() != self.shared.config.dim {
                return Err(MbiError::DimensionMismatch {
                    expected: self.shared.config.dim,
                    got: vector.len(),
                });
            }
            if let Some(newest) = tail.last_ts {
                if t < newest {
                    return Err(MbiError::NonMonotonicTimestamp { newest, got: t });
                }
            }
            // Log before ack: a WAL failure aborts the insert with no state
            // change (the WAL rolls its own partial bytes back).
            if durable {
                if let Some(d) = &self.shared.durability {
                    d.wal.lock().append_durable(
                        t,
                        vector,
                        self.shared.engine.wal_sync == WalSync::Always,
                    )?;
                }
            }
            tail.last_ts = Some(t);
            let id = tail.first_row + tail.len();
            tail.partial.push(vector);
            tail.partial_ts.push(t);
            let global_len = tail.first_row + tail.len();
            if global_len.is_multiple_of(s_l) {
                // A leaf just filled. Freeze the partial buffers into a
                // shared segment (a move, not a copy) and hand the *same*
                // pointers to the master copy — still holding the tail lock
                // so concurrent writers enqueue leaves in seal order.
                let leaf = global_len / s_l - 1;
                let seg = Arc::new(finish_segment(
                    &self.shared.config,
                    Segment::from_store(std::mem::replace(
                        &mut tail.partial,
                        Self::fresh_partial(&self.shared.config),
                    )),
                ));
                let ts: Arc<[Timestamp]> =
                    std::mem::replace(&mut tail.partial_ts, Vec::with_capacity(s_l)).into();
                {
                    let mut m = self.shared.master_lock();
                    debug_assert_eq!(m.enqueued_leaves, leaf, "leaves must seal in order");
                    m.store.push_segment(Arc::clone(&seg));
                    m.times.push_chunk(Arc::clone(&ts));
                    m.enqueued_leaves = leaf + 1;
                }
                tail.sealed.push_back((seg, ts));
                sealed_leaf = Some(leaf);
                // Rotate the WAL so segment boundaries are leaf boundaries
                // (rotation fsyncs the finished segment — the OnSeal sync
                // point). A failure here must not abort before the chain is
                // dispatched, so it is carried out of the lock.
                if durable {
                    if let Some(d) = &self.shared.durability {
                        seal_wal_err = d.wal.lock().rotate().err();
                    }
                }
            }
            id
        };

        // Dispatch the chain outside every lock: a blocked send must never
        // hold up readers of the tail.
        if let Some(leaf) = sealed_leaf {
            self.dispatch(leaf);
        }
        if let Some(t0) = t0 {
            self.shared.insert_nanos.lock().push(t0.elapsed().as_nanos() as u64);
        }
        match seal_wal_err {
            Some(e) => Err(e),
            None => Ok(id as u32),
        }
    }

    /// Hands a sealed leaf to the builders according to the backpressure
    /// policy. With no builder threads (every spawn failed), chains build
    /// inline on the inserting thread.
    fn dispatch(&self, leaf: usize) {
        if self.workers.is_empty() {
            self.shared.inline_builds.fetch_add(1, Ordering::Relaxed);
            run_chain(&self.shared, leaf);
            return;
        }
        let tx = self.tx.lock();
        match self.shared.engine.backpressure {
            Backpressure::Block => {
                if let Some(tx) = tx.as_ref() {
                    // The workers outlive the sender (drop takes it first),
                    // so send only fails after disconnect mid-drop.
                    let _ = tx.send(leaf);
                }
            }
            Backpressure::BuildInline => {
                let sent = tx.as_ref().map(|tx| tx.try_send(leaf));
                drop(tx);
                if !matches!(sent, Some(Ok(()))) {
                    self.shared.inline_builds.fetch_add(1, Ordering::Relaxed);
                    run_chain(&self.shared, leaf);
                }
            }
        }
    }

    /// Appends many timestamped vectors.
    pub fn insert_batch<'a, I>(&self, items: I) -> Result<(), MbiError>
    where
        I: IntoIterator<Item = (&'a [f32], Timestamp)>,
    {
        for (v, t) in items {
            self.insert(v, t)?;
        }
        Ok(())
    }

    /// Total committed rows (published + tail).
    pub fn len(&self) -> usize {
        let tail = self.shared.tail.read();
        tail.first_row + tail.len()
    }

    /// Whether no rows have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones the current published snapshot (lock held only for the `Arc`
    /// clone). The snapshot stays valid — and immutable — for as long as the
    /// caller keeps it, independent of further inserts or publications.
    pub fn snapshot(&self) -> Arc<IndexSnapshot> {
        self.shared.snapshot.read().clone()
    }

    /// Approximate TkNN with the configured default search parameters.
    pub fn query(&self, query: &[f32], k: usize, window: TimeWindow) -> Vec<TknnResult> {
        self.query_with_params(query, k, window, &self.shared.config.search).results
    }

    /// Approximate TkNN over every committed row: the published snapshot
    /// answers with its per-block graphs, the unpublished tail is scanned
    /// exactly, and the two top-k lists are merged. See the module docs for
    /// why no committed row is missed or double-counted — including when
    /// builds are failing (the failed region stays in the tail).
    pub fn query_with_params(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
    ) -> QueryOutput {
        assert_eq!(query.len(), self.shared.config.dim, "query has wrong dimension");
        // Order matters: tail read lock *before* the snapshot load
        // establishes `first_row ≤ sealed_rows` (the publisher swaps the
        // snapshot before trimming the tail).
        let (snap, tail_hits) = {
            let tail = self.shared.tail.read();
            let snap = self.shared.snapshot.read().clone();
            let hits = self.scan_tail(&tail, snap.sealed_rows(), query, k, window);
            (snap, hits)
        };
        let mut out = snap.query_with_params(query, k, window, params);
        if let Some((hits, tail_stats)) = tail_hits {
            out.results = merge_results(out.results, hits, k);
            out.stats.merge(&tail_stats);
            out.selection.tail = true;
        }
        out
    }

    /// [`StreamingMbi::query_with_params`] under a cooperative deadline
    /// (see [`MbiIndex::query_with_deadline`]): if `deadline` has already
    /// passed on entry the tail scan is skipped too and the output is
    /// flagged `timed_out`; otherwise the bounded tail scan runs and only
    /// the snapshot's block visits are cut short.
    pub fn query_with_deadline(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        deadline: Option<std::time::Instant>,
    ) -> QueryOutput {
        assert_eq!(query.len(), self.shared.config.dim, "query has wrong dimension");
        let late_on_entry = deadline.is_some_and(|d| std::time::Instant::now() >= d);
        let (snap, tail_hits) = {
            let tail = self.shared.tail.read();
            let snap = self.shared.snapshot.read().clone();
            let hits = if late_on_entry {
                None
            } else {
                self.scan_tail(&tail, snap.sealed_rows(), query, k, window)
            };
            (snap, hits)
        };
        let mut out = snap.query_with_deadline(query, k, window, params, deadline);
        out.timed_out |= late_on_entry;
        if let Some((hits, tail_stats)) = tail_hits {
            out.results = merge_results(out.results, hits, k);
            out.stats.merge(&tail_stats);
            out.selection.tail = true;
        }
        out
    }

    /// Answers many queries against one consistent engine state: the tail
    /// lock and snapshot are taken *once*, every query's tail scan runs
    /// under that single lock hold, and the snapshot (immutable by
    /// construction) is then fanned out across `threads` workers (`0` = all
    /// cores), mirroring the thread-budget rule of
    /// [`MbiIndex::query_batch`]. Per query the answer is bit-identical to
    /// [`StreamingMbi::query_with_params`] against the same state — the
    /// server's batch coalescer relies on exactly this equivalence.
    pub fn query_batch(
        &self,
        queries: &[(Vec<f32>, usize, TimeWindow)],
        params: &SearchParams,
        threads: usize,
    ) -> Vec<Vec<TknnResult>> {
        for (q, _, _) in queries {
            assert_eq!(q.len(), self.shared.config.dim, "query has wrong dimension");
        }
        let (snap, tail_hits) = {
            let tail = self.shared.tail.read();
            let snap = self.shared.snapshot.read().clone();
            let hits: Vec<_> = queries
                .iter()
                .map(|(q, k, w)| self.scan_tail(&tail, snap.sealed_rows(), q, *k, *w))
                .collect();
            (snap, hits)
        };
        let merge_one = |(q, k, w): &(Vec<f32>, usize, TimeWindow),
                         tail_hit: Option<(Vec<TknnResult>, SearchStats)>,
                         inner: usize| {
            let target = snap.target();
            let selection = target.block_selection(*w);
            let out = target.query_on_selection_threaded(q, *k, *w, params, &selection, inner);
            match tail_hit {
                Some((hits, _)) => merge_results(out.results, hits, *k),
                None => out.results,
            }
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = if threads == 0 { cores } else { threads };
        let mut out: Vec<Vec<TknnResult>> = vec![Vec::new(); queries.len()];
        if threads <= 1 || queries.len() <= 1 {
            for ((qkw, hit), slot) in queries.iter().zip(tail_hits).zip(out.iter_mut()) {
                *slot = merge_one(qkw, hit, self.shared.config.query_threads);
            }
            return out;
        }
        let chunk = queries.len().div_ceil(threads).max(1);
        let workers = queries.len().div_ceil(chunk);
        let inner = if workers >= cores { 1 } else { (cores / workers).max(1) };
        let mut hit_chunks: Vec<Vec<_>> = Vec::with_capacity(workers);
        {
            let mut rest = tail_hits;
            while rest.len() > chunk {
                let tail = rest.split_off(chunk);
                hit_chunks.push(rest);
                rest = tail;
            }
            hit_chunks.push(rest);
        }
        std::thread::scope(|scope| {
            for ((qchunk, hchunk), ochunk) in
                queries.chunks(chunk).zip(hit_chunks).zip(out.chunks_mut(chunk))
            {
                let merge_one = &merge_one;
                scope.spawn(move || {
                    for ((qkw, hit), slot) in qchunk.iter().zip(hchunk).zip(ochunk.iter_mut()) {
                        *slot = merge_one(qkw, hit, inner);
                    }
                });
            }
        });
        out
    }

    /// Exact scan of the unpublished, in-window tail rows. Returns `None`
    /// when no such rows exist.
    fn scan_tail(
        &self,
        tail: &TailState,
        sealed_rows: usize,
        query: &[f32],
        k: usize,
        window: TimeWindow,
    ) -> Option<(Vec<TknnResult>, SearchStats)> {
        let wlo = tail.partition_below(window.start);
        let whi = tail.partition_below(window.end);
        let lo = wlo.max(sealed_rows.saturating_sub(tail.first_row));
        if whi <= lo {
            return None;
        }
        let mut stats =
            SearchStats { blocks_searched: 1, blocks_bruteforced: 1, ..Default::default() };
        let pq = PreparedQuery::new(self.shared.config.metric, query);
        // The tail is piecewise (sealed leaf segments, then the partial
        // buffer); scan each in-range piece and keep the top-k of the union.
        // Piece top-ks retain every candidate for the overall top-k, and the
        // `(dist, id)` tie-break is unaffected because local ids are offered
        // in ascending global order.
        let s_l = tail.leaf_size;
        let sealed_len = tail.sealed.len() * s_l;
        let mut top = TopK::new(k);
        let mut pos = lo;
        while pos < whi.min(sealed_len) {
            let ci = pos / s_l;
            let start = pos % s_l;
            let end = (whi - ci * s_l).min(s_l);
            for n in brute_force_prepared(tail.sealed[ci].0.slice(start..end), &pq, k, &mut stats) {
                top.offer((ci * s_l + start + n.id as usize) as u32, n.dist);
            }
            pos = (ci + 1) * s_l;
        }
        if whi > sealed_len {
            let off = pos - sealed_len;
            let view = tail.partial.slice(off..whi - sealed_len);
            for n in brute_force_prepared(view, &pq, k, &mut stats) {
                top.offer((pos + n.id as usize) as u32, n.dist);
            }
        }
        let hits = top
            .into_sorted_vec()
            .into_iter()
            .map(|n| {
                let local = n.id as usize;
                TknnResult {
                    id: (tail.first_row + local) as u32,
                    timestamp: tail.ts_at(local),
                    dist: n.dist,
                }
            })
            .collect();
        Some((hits, stats))
    }

    /// Exact TkNN over every committed row (snapshot rows included), by
    /// brute force — ground truth for tests and recall measurements.
    pub fn exact_query(&self, query: &[f32], k: usize, window: TimeWindow) -> Vec<TknnResult> {
        assert_eq!(query.len(), self.shared.config.dim, "query has wrong dimension");
        let (snap, tail_hits) = {
            let tail = self.shared.tail.read();
            let snap = self.shared.snapshot.read().clone();
            let hits = self.scan_tail(&tail, snap.sealed_rows(), query, k, window);
            (snap, hits)
        };
        let sealed = snap.target().exact_query(query, k, window);
        match tail_hits {
            Some((hits, _)) => merge_results(sealed, hits, k),
            None => sealed,
        }
    }

    /// Blocks until every sealed leaf has been published to the snapshot —
    /// or until the engine halts ([`EngineHealth::Halted`]), so a failed
    /// build can never hang a flusher. After a clean `flush`, a query sees
    /// exactly what a synchronous [`MbiIndex`] fed the same stream would
    /// serve, and [`EngineStats::queued_builds`] is 0 (barring concurrent
    /// inserts).
    pub fn flush(&self) {
        let mut m = self.shared.master_lock();
        while m.published_leaves < m.enqueued_leaves && !self.shared.halted() {
            self.shared.publish_cv.wait(&mut m);
        }
    }

    /// Progress counters and latency samples (see [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        let (seals, published_leaves, published_blocks, published_height) = {
            let m = self.shared.master_lock();
            (
                m.enqueued_leaves,
                m.published_leaves,
                m.blocks.len(),
                m.blocks.iter().map(|b| b.height).max().unwrap_or(0),
            )
        };
        EngineStats {
            seals,
            published_leaves,
            queued_builds: seals - published_leaves,
            published_blocks,
            published_height,
            inline_builds: self.shared.inline_builds.load(Ordering::Relaxed),
            spawn_failures: self.shared.spawn_failures.load(Ordering::Relaxed),
            build_panics: self.shared.build_panics.load(Ordering::Relaxed),
            insert_nanos: self.shared.insert_nanos.lock().clone(),
            build_nanos: self.shared.build_nanos.lock().clone(),
            publish_nanos: self.shared.publish_nanos.lock().clone(),
        }
    }

    /// Flushes, then assembles a standalone synchronous [`MbiIndex`] holding
    /// every committed row (published blocks deep-cloned, tail rows
    /// appended). The result is bit-identical — blocks, graphs, norm cache —
    /// to an `MbiIndex` fed the same stream, which the convergence tests
    /// assert and persistence relies on.
    pub fn to_index(&self) -> MbiIndex {
        self.flush();
        // Same nesting as a sealing insert (tail → master), so this cannot
        // deadlock against one.
        let tail = self.shared.tail.read();
        let m = self.shared.master_lock();
        let s_l = self.shared.config.leaf_size;
        let sealed = m.published_leaves * s_l;
        let total = tail.first_row + tail.len();
        let mut store = VectorStore::with_capacity(self.shared.config.dim, total);
        if self.shared.config.metric == Metric::Angular {
            store.enable_norm_cache();
        }
        let mut timestamps = Vec::with_capacity(total);
        for (seg, chunk) in m.store.segments().iter().zip(m.times.chunks()).take(m.published_leaves)
        {
            store.extend_from_view(seg.slice(0..s_l));
            timestamps.extend_from_slice(chunk);
        }
        // Tail leaves already published (not yet trimmed) are skipped; the
        // rest of the sealed deque and the partial buffer follow.
        let skip_leaves = (sealed - tail.first_row) / s_l;
        for (seg, chunk) in tail.sealed.iter().skip(skip_leaves) {
            store.extend_from_view(seg.slice(0..s_l));
            timestamps.extend_from_slice(chunk);
        }
        store.extend_from_view(tail.partial.slice(0..tail.partial.len()));
        timestamps.extend_from_slice(&tail.partial_ts);
        MbiIndex {
            config: self.shared.config,
            store,
            timestamps,
            blocks: m.blocks.iter().map(|b| (**b).clone()).collect(),
            num_leaves: m.published_leaves,
        }
    }

    /// Resumes streaming from a synchronous index: sealed leaves become
    /// shared segments (published immediately, blocks reused — nothing is
    /// rebuilt), tail rows refill the partial buffer. The inverse of
    /// [`Self::to_index`] up to storage layout: queries answer identically.
    pub fn from_index(index: MbiIndex, engine: EngineConfig) -> Self {
        let config = *index.config();
        let s_l = config.leaf_size;
        let this = Self::with_engine_config(config, engine);
        let num_leaves = index.num_leaves();
        let MbiIndex { store, timestamps, blocks, .. } = index;
        {
            let mut tail = this.shared.tail.write();
            let mut m = this.shared.master_lock();
            for leaf in 0..num_leaves {
                let rows = leaf * s_l..(leaf + 1) * s_l;
                m.store.push_segment(Arc::new(finish_segment(
                    &config,
                    Segment::from_view(store.slice(rows.clone())),
                )));
                m.times.push_chunk(timestamps[rows].into());
            }
            m.blocks = blocks.into_iter().map(Arc::new).collect();
            m.published_leaves = num_leaves;
            m.enqueued_leaves = num_leaves;
            *this.shared.snapshot.write() = Arc::new(IndexSnapshot {
                config,
                store: m.store.share(0..num_leaves * s_l),
                times: m.times.share_prefix(num_leaves),
                blocks: m.blocks.share(),
                num_leaves,
            });
            tail.first_row = num_leaves * s_l;
            tail.last_ts = timestamps.last().copied();
            for (i, &t) in timestamps.iter().enumerate().skip(num_leaves * s_l) {
                tail.partial.push(store.get(i));
                tail.partial_ts.push(t);
            }
        }
        this
    }

    /// Resumes streaming from a published (or persisted) snapshot: its
    /// leaves, blocks, and timestamp chunks are adopted by pointer — nothing
    /// is copied or rebuilt — and new inserts continue after them.
    pub fn from_snapshot(snapshot: IndexSnapshot, engine: EngineConfig) -> Self {
        Self::from_snapshot_internal(snapshot, engine, None)
    }

    fn from_snapshot_internal(
        snapshot: IndexSnapshot,
        engine: EngineConfig,
        durability: Option<Durability>,
    ) -> Self {
        let config = snapshot.config;
        let num_leaves = snapshot.num_leaves;
        let sealed = snapshot.sealed_rows();
        let last_ts = (sealed > 0).then(|| snapshot.times.get(sealed - 1));
        let this = Self::build(config, engine, durability);
        {
            let mut tail = this.shared.tail.write();
            let mut m = this.shared.master_lock();
            m.store = snapshot.store.clone();
            m.times = snapshot.times.clone();
            m.blocks = snapshot.blocks.clone();
            m.published_leaves = num_leaves;
            m.enqueued_leaves = num_leaves;
            *this.shared.snapshot.write() = Arc::new(snapshot);
            tail.first_row = sealed;
            tail.last_ts = last_ts;
        }
        this
    }

    /// Opens a *durable* engine in `dir`: creates the directory (with an
    /// empty persisted snapshot and a fresh WAL) when it does not hold one
    /// yet, otherwise recovers the existing state exactly like
    /// [`Self::recover`] — in which case `config` is ignored in favour of
    /// the persisted one.
    ///
    /// On a durable engine every insert is WAL-logged before it is acked
    /// (see [`WalSync`] for the fsync cadence), and
    /// [`Self::checkpoint`] persists the published snapshot and prunes the
    /// log.
    pub fn open(
        dir: impl AsRef<Path>,
        config: MbiConfig,
        engine: EngineConfig,
    ) -> Result<Self, MbiError> {
        let dir = dir.as_ref();
        if dir.join(SNAPSHOT_FILE).exists() {
            return Self::recover(dir, engine);
        }
        std::fs::create_dir_all(dir)?;
        IndexSnapshot::empty(config).save_file(dir.join(SNAPSHOT_FILE))?;
        let mut wal = Wal::create(dir.join(WAL_DIR), config.dim)?;
        wal.set_hold_lag_cap(engine.replica_lag_cap_rows);
        Ok(Self::build(
            config,
            engine,
            Some(Durability { dir: dir.to_path_buf(), wal: Mutex::new(wal) }),
        ))
    }

    /// Recovers a durable engine from `dir`: loads the persisted snapshot
    /// (verifying its checksums), replays every acked WAL row past the
    /// snapshot through the normal insert path (so sealed leaves re-enqueue
    /// their chain builds), and resumes appending to the log. A torn final
    /// WAL record — an append the process died inside — is truncated away;
    /// it was never acked. Any other corruption in the snapshot or the log
    /// is an error, never silently dropped data.
    ///
    /// After recovery the engine serves **exactly the acked prefix** of the
    /// pre-crash insert stream: [`Self::flush`] + [`Self::to_index`] yields
    /// an index bit-identical to a synchronous one fed those rows.
    pub fn recover(dir: impl AsRef<Path>, engine: EngineConfig) -> Result<Self, MbiError> {
        let dir = dir.as_ref();
        let snapshot = IndexSnapshot::load_file(dir.join(SNAPSHOT_FILE))?;
        snapshot.validate().map_err(|detail| {
            MbiError::corrupt(0, format!("recovered snapshot invalid: {detail}"))
        })?;
        let config = snapshot.config;
        let sealed = snapshot.sealed_rows() as u64;
        let mut replayed: Vec<(Timestamp, Vec<f32>)> = Vec::new();
        let mut first_kept = None;
        let mut wal = Wal::recover(dir.join(WAL_DIR), config.dim, |r| {
            if r.row >= sealed {
                if first_kept.is_none() {
                    first_kept = Some(r.row);
                }
                replayed.push((r.timestamp, r.vector.to_vec()));
            }
            Ok(())
        })?;
        if let Some(first) = first_kept {
            if first != sealed {
                return Err(MbiError::corrupt(
                    0,
                    format!(
                        "WAL resumes at row {first} but the snapshot covers only {sealed} rows — \
                         the rows in between are gone"
                    ),
                ));
            }
        }
        if wal.next_row() < sealed {
            // Every logged row is inside the snapshot (the log may even be
            // empty after aggressive pruning); restart it at the boundary.
            wal.reset_to(sealed)?;
        }
        wal.set_hold_lag_cap(engine.replica_lag_cap_rows);
        let this = Self::from_snapshot_internal(
            snapshot,
            engine,
            Some(Durability { dir: dir.to_path_buf(), wal: Mutex::new(wal) }),
        );
        for (t, v) in replayed {
            // Replay through the normal path minus the WAL append (the rows
            // are already in the log); seals re-enqueue their chain builds.
            this.insert_impl(&v, t, false)?;
        }
        Ok(this)
    }

    /// Persists the published snapshot atomically (temp file + fsync +
    /// rename) and prunes every WAL segment it covers. Flushes first, so on
    /// a healthy engine the checkpoint covers every sealed leaf; on a halted
    /// one it covers the published prefix and the WAL retains the rest.
    ///
    /// Returns an error on a non-durable engine (one not created by
    /// [`Self::open`] / [`Self::recover`]).
    pub fn checkpoint(&self) -> Result<(), MbiError> {
        let Some(d) = &self.shared.durability else {
            return Err(MbiError::Io(std::io::Error::other(
                "checkpoint on a non-durable engine (create it with StreamingMbi::open)",
            )));
        };
        self.flush();
        let snap = self.snapshot();
        snap.save_file(d.dir.join(SNAPSHOT_FILE))?;
        d.wal.lock().prune(snap.sealed_rows() as u64)?;
        Ok(())
    }

    /// The durable directory this engine persists to, if any.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.shared.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Registers (or refreshes) the replication retention hold `id` at
    /// `row`: [`Self::checkpoint`] will not prune WAL segments containing
    /// row `row` or later while the hold stands, so a follower resuming
    /// from its durable cursor always finds its segments — unless it lags
    /// past [`EngineConfig::replica_lag_cap_rows`] and is evicted (see
    /// [`Self::take_evicted_replica_holds`]). A no-op on a non-durable
    /// engine.
    pub fn set_replica_hold(&self, id: &str, row: u64) {
        if let Some(d) = &self.shared.durability {
            d.wal.lock().hold(id, row);
        }
    }

    /// Releases the retention hold `id` (follower disconnected cleanly or
    /// was deregistered). A no-op when absent.
    pub fn release_replica_hold(&self, id: &str) {
        if let Some(d) = &self.shared.durability {
            d.wal.lock().release_hold(id);
        }
    }

    /// The registered replication holds as `(id, row)` pairs.
    pub fn replica_holds(&self) -> Vec<(String, u64)> {
        self.shared.durability.as_ref().map(|d| d.wal.lock().holds()).unwrap_or_default()
    }

    /// Drains the ids of holds evicted by the lag cap since the last call —
    /// each names a follower that must be re-seeded.
    pub fn take_evicted_replica_holds(&self) -> Vec<String> {
        self.shared
            .durability
            .as_ref()
            .map(|d| d.wal.lock().take_evicted_holds())
            .unwrap_or_default()
    }
}

impl Drop for StreamingMbi {
    /// Disconnects the seal queue and joins every builder thread. Chains
    /// already queued are still built (the workers drain the channel before
    /// observing the disconnect), so no committed data is lost; they are
    /// simply never observable again since the engine is gone. A durable
    /// engine syncs its WAL on the way out, so a clean shutdown loses
    /// nothing regardless of [`WalSync`] policy.
    fn drop(&mut self) {
        drop(self.tx.lock().take());
        for worker in self.workers.drain(..) {
            // A panicked builder already recorded its failure via the
            // catch_unwind in run_chain; surfacing a residual panic here
            // would abort unwinding callers.
            let _ = worker.join();
        }
        if let Some(d) = &self.shared.durability {
            let _ = d.wal.lock().sync();
        }
    }
}

/// Builder thread body: take leaf indices off the shared channel until it
/// disconnects. Only one worker blocks in `recv` at a time (the receiver
/// lives behind a mutex — `std::sync::mpsc` receivers are single-consumer);
/// the others are inside builds, so job pickup is effectively immediate.
fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<usize>>) {
    loop {
        let job = {
            let rx = rx.lock();
            rx.recv()
        };
        match job {
            Ok(leaf) => run_chain(shared, leaf),
            Err(_) => return,
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "chain build panicked".to_string()
    }
}

/// Runs `process_chain` with panic isolation: a panic is caught, recorded
/// in the failing map (making the engine [`Degraded`](EngineHealth::
/// Degraded)), and retried with the configured exponential backoff. A chain
/// that exhausts its retries halts the engine — publication freezes, but
/// inserts, queries, and `flush` all keep working (the unpublished rows are
/// served from the tail by exact scan).
fn run_chain(shared: &Shared, leaf: usize) {
    let policy = shared.engine.retry;
    for attempt in 0.. {
        match catch_unwind(AssertUnwindSafe(|| process_chain(shared, leaf))) {
            Ok(()) => {
                if attempt > 0 {
                    shared.failing.lock().remove(&leaf);
                }
                return;
            }
            Err(payload) => {
                shared.build_panics.fetch_add(1, Ordering::Relaxed);
                let last_error = panic_message(payload.as_ref());
                shared
                    .failing
                    .lock()
                    .insert(leaf, ChainFailure { attempts: attempt + 1, last_error });
                if attempt >= policy.max_retries {
                    // Halt: set the flag, then lock/unlock the master mutex
                    // before notifying so a flusher between its predicate
                    // check and its wait cannot miss the wakeup.
                    shared.halted.store(true, Ordering::SeqCst);
                    drop(shared.master_lock());
                    shared.publish_cv.notify_all();
                    return;
                }
                std::thread::sleep(policy.backoff(attempt));
            }
        }
    }
}

/// Builds and publishes the merge chain of (0-based) leaf `leaf`: compute the
/// chain, *share* its rows out of the master (pointer copies — the chain
/// range is always segment-aligned), build the graphs lock-free with the
/// same deterministic ids as the synchronous path, stage the blocks, and
/// publish every chain that is next in leaf order.
///
/// Publication materialises nothing: the new snapshot shares the sealed
/// prefix's segments and timestamp chunks with the master (and with every
/// previous snapshot), so the work under the lock is `O(published leaves)`
/// pointer copies plus the new chain's blocks — independent of row count.
///
/// Re-running after a panic is safe at every point: staging is skipped for
/// already-published leaves, and the publish decision compares the master's
/// frontier against the *live* snapshot, so a crash between advancing the
/// frontier and swapping the snapshot heals on the retry (or on the next
/// publication).
fn process_chain(shared: &Shared, leaf: usize) {
    if fail::trigger("builder::build") == Some(fail::FailAction::Panic) {
        panic!("{}", fail::INJECTED_MSG);
    }
    let t0 = Instant::now();
    let s_l = shared.config.leaf_size;
    let pending = merge_chain(leaf + 1, s_l);
    let chain_rows = pending.last().expect("chain is never empty").0.clone();
    let base_id = blocks_for_leaves(leaf) as u64;

    // Share the chain's segments so the build holds no lock and copies no
    // rows. The segments carry the inverse-norm column, keeping angular
    // graphs bit-identical.
    let chunk = shared.master_lock().store.share(chain_rows.clone());
    let graphs = build_chain_graphs(
        &shared.config,
        &chunk,
        chain_rows.start,
        &pending,
        base_id,
        shared.effective_build_threads(),
    );
    // Record before publication so a flush() that returns has every
    // published chain's sample in view.
    shared.build_nanos.lock().push(t0.elapsed().as_nanos() as u64);

    // Stage, then publish every consecutive ready chain in leaf order. The
    // publish decision is against the live snapshot (not just "did this
    // call advance"), so a previous attempt that advanced the frontier but
    // died before the swap is healed here.
    let t_pub = Instant::now();
    let cur_leaves = shared.snapshot.read().num_leaves;
    let publish = {
        let mut m = shared.master_lock();
        if leaf >= m.published_leaves {
            let blocks = assemble_blocks(pending, graphs, &m.times);
            m.ready.insert(leaf, blocks);
        }
        while let Some(chain) = {
            let next = m.published_leaves;
            m.ready.remove(&next)
        } {
            m.blocks.extend(chain.into_iter().map(Arc::new));
            m.published_leaves += 1;
        }
        (m.published_leaves > cur_leaves).then(|| {
            Arc::new(IndexSnapshot {
                config: shared.config,
                store: m.store.share(0..m.published_leaves * s_l),
                times: m.times.share_prefix(m.published_leaves),
                // Chunk-shared: amortised O(1), not an O(blocks) clone.
                blocks: m.blocks.share(),
                num_leaves: m.published_leaves,
            })
        })
    };

    if fail::trigger("engine::publish") == Some(fail::FailAction::Panic) {
        panic!("{}", fail::INJECTED_MSG);
    }

    if let Some(snap) = publish {
        let sealed = snap.sealed_rows();
        {
            // Concurrent publishers race benignly: only a strictly newer
            // snapshot replaces the current one.
            let mut cur = shared.snapshot.write();
            if snap.num_leaves > cur.num_leaves {
                *cur = snap;
            }
        }
        {
            // Trim the published prefix off the tail — *after* the swap, so
            // a query that still sees these rows in its snapshot clamps them
            // out of its tail scan instead of losing them. Whole shared
            // leaves pop off the front of the deque: O(1) per leaf, no row
            // moves.
            let mut tail = shared.tail.write();
            while tail.first_row < sealed {
                tail.sealed.pop_front();
                tail.first_row += s_l;
            }
        }
        shared.publish_nanos.lock().push((sealed as u64, t_pub.elapsed().as_nanos() as u64));
        shared.publish_cv.notify_all();
    }
}

/// Merges two ascending top-k lists (each already ≤ k, disjoint ids) into
/// the ascending top-k of their union, under the same `(dist, id)` total
/// order the `TopK` accumulator uses.
fn merge_results(a: Vec<TknnResult>, b: Vec<TknnResult>, k: usize) -> Vec<TknnResult> {
    let key = |r: &TknnResult| (OrderedF32(r.dist), r.id);
    let mut out = Vec::with_capacity(k.min(a.len() + b.len()));
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    while out.len() < k {
        let take_a = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => key(x) <= key(y),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let next = if take_a { a.next() } else { b.next() };
        out.extend(next);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MbiConfig {
        MbiConfig::new(2, Metric::Euclidean)
            .with_leaf_size(8)
            .with_search(SearchParams::new(64, 1.2))
    }

    fn fill(engine: &StreamingMbi, n: usize) {
        for i in 0..n {
            engine.insert(&[i as f32, 0.0], i as i64).unwrap();
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbi_engine_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn query_batch_matches_individual_queries() {
        let engine = StreamingMbi::new(config());
        fill(&engine, 67); // 8 sealed leaves + 3 tail rows
        engine.flush();
        let params = SearchParams::new(64, 1.2);
        let queries: Vec<(Vec<f32>, usize, TimeWindow)> =
            (0..9).map(|i| (vec![i as f32 * 7.0, 0.0], 3, TimeWindow::new(i, i + 50))).collect();
        let serial = engine.query_batch(&queries, &params, 1);
        let parallel = engine.query_batch(&queries, &params, 4);
        assert_eq!(serial, parallel);
        for ((q, k, w), batch) in queries.iter().zip(&serial) {
            assert_eq!(*batch, engine.query_with_params(q, *k, *w, &params).results);
        }
    }

    #[test]
    fn query_batch_covers_unpublished_tail() {
        // No flush: with a slow builder most rows are still tail-resident,
        // so the batch path must merge tail scans to stay correct.
        let engine = StreamingMbi::new(config());
        fill(&engine, 29);
        let params = SearchParams::new(64, 1.2);
        let queries: Vec<(Vec<f32>, usize, TimeWindow)> = vec![
            (vec![28.0, 0.0], 4, TimeWindow::all()),
            (vec![0.0, 0.0], 2, TimeWindow::new(24, 29)),
        ];
        for (i, res) in engine.query_batch(&queries, &params, 0).iter().enumerate() {
            let (q, k, w) = &queries[i];
            assert_eq!(*res, engine.query_with_params(q, *k, *w, &params).results, "query {i}");
        }
    }

    #[test]
    fn engine_deadline_flags_partial_results() {
        let engine = StreamingMbi::new(config());
        fill(&engine, 67);
        engine.flush();
        let params = SearchParams::new(64, 1.2);
        let none = engine.query_with_deadline(&[40.0, 0.0], 5, TimeWindow::all(), &params, None);
        assert!(!none.timed_out);
        assert_eq!(
            none.results,
            engine.query_with_params(&[40.0, 0.0], 5, TimeWindow::all(), &params).results
        );
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let late =
            engine.query_with_deadline(&[40.0, 0.0], 5, TimeWindow::all(), &params, Some(past));
        assert!(late.timed_out);
        assert!(late.results.is_empty());
    }

    #[test]
    fn health_helpers_label_states() {
        assert!(!EngineHealth::Healthy.is_halted());
        assert!(EngineHealth::Halted.is_halted());
        assert_eq!(EngineHealth::Healthy.label(), "healthy");
        assert_eq!(EngineHealth::Degraded { failed_chains: vec![3] }.label(), "degraded");
        assert_eq!(EngineHealth::Halted.label(), "halted");
    }

    #[test]
    fn insert_validates_like_the_sync_index() {
        let engine = StreamingMbi::new(config());
        assert!(matches!(
            engine.insert(&[1.0], 0),
            Err(MbiError::DimensionMismatch { expected: 2, got: 1 })
        ));
        engine.insert(&[0.0, 0.0], 10).unwrap();
        assert!(matches!(
            engine.insert(&[0.0, 0.0], 9),
            Err(MbiError::NonMonotonicTimestamp { newest: 10, got: 9 })
        ));
        engine.insert(&[0.0, 1.0], 10).unwrap();
        assert_eq!(engine.len(), 2);
        assert!(!engine.is_empty());
    }

    #[test]
    fn empty_engine_queries_cleanly() {
        let engine = StreamingMbi::new(config());
        assert!(engine.is_empty());
        assert!(engine.query(&[0.0, 0.0], 5, TimeWindow::all()).is_empty());
        assert!(engine.exact_query(&[0.0, 0.0], 5, TimeWindow::all()).is_empty());
        engine.flush();
        assert_eq!(engine.stats().seals, 0);
        assert_eq!(engine.health(), EngineHealth::Healthy);
        assert!(engine.durable_dir().is_none());
    }

    #[test]
    fn flush_publishes_every_chain() {
        let engine = StreamingMbi::new(config());
        fill(&engine, 67); // 8 full leaves + 3 tail rows
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.seals, 8);
        assert_eq!(stats.published_leaves, 8);
        assert_eq!(stats.queued_builds, 0);
        assert_eq!(stats.published_blocks, blocks_for_leaves(8));
        assert_eq!(stats.published_height, 3);
        assert_eq!(stats.build_nanos.len(), 8);
        assert_eq!(stats.insert_nanos.len(), 67);
        assert_eq!(stats.spawn_failures, 0);
        assert_eq!(stats.build_panics, 0);
        let snap = engine.snapshot();
        assert_eq!(snap.sealed_rows(), 64);
        assert_eq!(snap.num_leaves(), 8);
        assert_eq!(snap.blocks().len(), blocks_for_leaves(8));
    }

    #[test]
    fn queries_are_exact_over_committed_rows_at_any_lag() {
        // Compare against a fully synchronous index after every insert-ish
        // checkpoint; the engine may be arbitrarily behind on builds, yet
        // every committed row must be served (exactly once).
        let engine = StreamingMbi::new(config());
        let mut sync = MbiIndex::new(config());
        for i in 0..50usize {
            engine.insert(&[i as f32, 0.0], i as i64).unwrap();
            sync.insert(&[i as f32, 0.0], i as i64).unwrap();
            if i % 7 == 0 {
                let w = TimeWindow::new(0, i as i64 + 1);
                let got = engine.exact_query(&[i as f32, 0.0], 3, w);
                let want = sync.exact_query(&[i as f32, 0.0], 3, w);
                assert_eq!(got, want, "after {} inserts", i + 1);
            }
        }
    }

    #[test]
    fn to_index_converges_to_the_sync_index() {
        let engine = StreamingMbi::new(config());
        let mut sync = MbiIndex::new(config());
        for i in 0..45usize {
            engine.insert(&[i as f32, (i % 3) as f32], i as i64 / 2).unwrap();
            sync.insert(&[i as f32, (i % 3) as f32], i as i64 / 2).unwrap();
        }
        let converged = engine.to_index();
        assert_eq!(converged.validate(), Ok(()));
        assert_eq!(converged.len(), sync.len());
        assert_eq!(converged.num_leaves(), sync.num_leaves());
        assert_eq!(converged.timestamps(), sync.timestamps());
        assert_eq!(converged.store().as_flat(), sync.store().as_flat());
        let w = TimeWindow::new(2, 20);
        assert_eq!(
            converged.query(&[17.0, 1.0], 5, w),
            sync.query(&[17.0, 1.0], 5, w),
            "flushed engine answers like the sync index"
        );
    }

    #[test]
    fn snapshots_are_immutable_under_further_ingest() {
        let engine = StreamingMbi::new(config());
        fill(&engine, 16);
        engine.flush();
        let snap = engine.snapshot();
        let before = snap.sealed_rows();
        fill_from(&engine, 16, 64);
        engine.flush();
        assert_eq!(snap.sealed_rows(), before, "old snapshot is frozen");
        assert!(engine.snapshot().sealed_rows() > before);
    }

    fn fill_from(engine: &StreamingMbi, from: usize, to: usize) {
        for i in from..to {
            engine.insert(&[i as f32, 0.0], i as i64).unwrap();
        }
    }

    #[test]
    fn snapshot_memory_accounts_for_sq8_column() {
        let run = |sq8: bool| {
            let engine = StreamingMbi::new(config().with_sq8_scan(sq8));
            fill(&engine, 64);
            engine.flush();
            engine.snapshot().memory_bytes()
        };
        let (plain, quantized) = (run(false), run(true));
        assert!(plain > 0);
        // 64 rows × 2 dims of u8 codes plus per-segment mins/deltas/norms:
        // the quantized snapshot must report strictly more resident bytes.
        assert!(quantized > plain, "sq8 column unaccounted: sq8 on {quantized} <= off {plain}");
        let per_seg = 2 * 4 + 2 * 4 + 8 * 4; // mins + deltas + row_norm2 (8 rows)
        let codes = 64 * 2;
        assert!(
            quantized >= plain + codes + 8 * per_seg / 2,
            "sq8 accounting smaller than the column itself: {quantized} vs {plain}"
        );
    }

    #[test]
    fn build_inline_policy_never_stalls_and_converges() {
        let engine = StreamingMbi::with_engine_config(
            config(),
            EngineConfig::default()
                .with_queue_depth(0)
                .with_backpressure(Backpressure::BuildInline),
        );
        fill(&engine, 80);
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.published_leaves, 10);
        let idx = engine.to_index();
        assert_eq!(idx.validate(), Ok(()));
    }

    #[test]
    fn latency_recording_can_be_disabled() {
        let engine = StreamingMbi::with_engine_config(
            config(),
            EngineConfig::default().with_record_insert_latency(false),
        );
        fill(&engine, 20);
        assert!(engine.stats().insert_nanos.is_empty());
        assert_eq!(engine.engine_config().builder_threads, 1);
    }

    #[test]
    fn consecutive_snapshots_share_segments() {
        let engine = StreamingMbi::new(config());
        fill(&engine, 16);
        engine.flush();
        let snap1 = engine.snapshot();
        fill_from(&engine, 16, 64);
        engine.flush();
        let snap2 = engine.snapshot();
        assert_eq!(snap1.num_leaves(), 2);
        assert_eq!(snap2.num_leaves(), 8);
        for (a, b) in snap1.store().segments().iter().zip(snap2.store().segments()) {
            assert!(Arc::ptr_eq(a, b), "prefix segments are the same allocation");
        }
        for (a, b) in snap1.times().chunks().iter().zip(snap2.times().chunks()) {
            assert!(Arc::ptr_eq(a, b), "prefix timestamp chunks are the same allocation");
        }
        for (a, b) in snap1.blocks().iter().zip(snap2.blocks()) {
            assert!(Arc::ptr_eq(a, b), "prefix blocks are the same allocation");
        }
        assert_eq!(snap2.validate(), Ok(()));
    }

    #[test]
    fn publications_record_latency_samples() {
        let engine = StreamingMbi::new(config());
        fill(&engine, 64);
        engine.flush();
        let stats = engine.stats();
        assert!(!stats.publish_nanos.is_empty(), "every publication takes a sample");
        let (last_rows, _) = *stats.publish_nanos.last().unwrap();
        assert_eq!(last_rows, 64, "samples carry the published row count");
        assert!(stats.publish_nanos.iter().all(|&(rows, _)| rows > 0 && rows <= 64));
    }

    #[test]
    fn from_index_resumes_with_identical_answers() {
        let mut sync = MbiIndex::new(config());
        for i in 0..45usize {
            sync.insert(&[i as f32, (i % 3) as f32], i as i64).unwrap();
        }
        let engine = StreamingMbi::from_index(sync.clone(), EngineConfig::default());
        assert_eq!(engine.len(), 45);
        assert_eq!(engine.stats().published_leaves, 5);
        let w = TimeWindow::new(2, 40);
        assert_eq!(engine.query(&[17.0, 1.0], 5, w), sync.query(&[17.0, 1.0], 5, w));
        assert_eq!(engine.exact_query(&[17.0, 1.0], 5, w), sync.exact_query(&[17.0, 1.0], 5, w));
        // Streaming continues where the index left off, converging again.
        for i in 45..64usize {
            engine.insert(&[i as f32, (i % 3) as f32], i as i64).unwrap();
            sync.insert(&[i as f32, (i % 3) as f32], i as i64).unwrap();
        }
        let converged = engine.to_index();
        assert_eq!(converged.timestamps(), sync.timestamps());
        assert_eq!(converged.store().as_flat(), sync.store().as_flat());
        assert_eq!(converged.validate(), Ok(()));
    }

    #[test]
    fn from_snapshot_resumes_by_pointer() {
        let engine = StreamingMbi::new(config());
        fill(&engine, 32);
        engine.flush();
        let snap = engine.snapshot();
        let resumed = StreamingMbi::from_snapshot((*snap).clone(), EngineConfig::default());
        assert_eq!(resumed.len(), 32);
        assert_eq!(resumed.stats().published_leaves, 4);
        for (a, b) in snap.store().segments().iter().zip(resumed.snapshot().store().segments()) {
            assert!(Arc::ptr_eq(a, b), "adopted segments are the same allocation");
        }
        // Ingest continues from the snapshot boundary.
        fill_from(&resumed, 32, 48);
        resumed.flush();
        assert_eq!(resumed.len(), 48);
        assert_eq!(resumed.to_index().validate(), Ok(()));
    }

    #[test]
    fn snapshot_from_index_rejects_unsealed_tails() {
        let mut sync = MbiIndex::new(config());
        for i in 0..10usize {
            sync.insert(&[i as f32, 0.0], i as i64).unwrap();
        }
        match IndexSnapshot::from_index(&sync) {
            Err(MbiError::UnsealedTail { tail_rows: 2 }) => {}
            other => panic!("expected UnsealedTail {{ 2 }}, got {other:?}"),
        }
        for i in 10..16usize {
            sync.insert(&[i as f32, 0.0], i as i64).unwrap();
        }
        let snap = IndexSnapshot::from_index(&sync).unwrap();
        assert_eq!(snap.validate(), Ok(()));
        assert_eq!(snap.sealed_rows(), 16);
        let w = TimeWindow::all();
        assert_eq!(snap.query_with_params(&[7.0, 0.0], 3, w, &config().search).results, {
            sync.query(&[7.0, 0.0], 3, w)
        });
    }

    #[test]
    fn merge_results_is_topk_of_the_union() {
        let r = |id: u32, dist: f32| TknnResult { id, timestamp: id as i64, dist };
        let a = vec![r(1, 0.5), r(4, 2.0), r(9, 3.0)];
        let b = vec![r(2, 1.0), r(3, 2.0)];
        let merged = merge_results(a.clone(), b.clone(), 4);
        let ids: Vec<u32> = merged.iter().map(|x| x.id).collect();
        // Tie at dist 2.0 breaks on id: 3 before 4.
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert_eq!(merge_results(a, Vec::new(), 2).len(), 2);
        assert!(merge_results(Vec::new(), Vec::new(), 3).is_empty());
        assert_eq!(merge_results(Vec::new(), b, 10).len(), 2);
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(65),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(65), "capped");
        assert_eq!(p.backoff(60), Duration::from_millis(65), "shift is clamped");
    }

    #[test]
    fn durable_engine_recovers_acked_rows_without_checkpoint() {
        let dir = temp_dir("recover");
        let mut sync = MbiIndex::new(config());
        {
            let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
            assert_eq!(engine.durable_dir(), Some(dir.as_path()));
            for i in 0..29usize {
                engine.insert(&[i as f32, 0.0], i as i64).unwrap();
                sync.insert(&[i as f32, 0.0], i as i64).unwrap();
            }
            // Dropped without checkpoint: recovery must come from WAL alone.
        }
        let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
        assert_eq!(engine.len(), 29);
        let w = TimeWindow::new(3, 25);
        assert_eq!(engine.exact_query(&[11.0, 0.0], 4, w), sync.exact_query(&[11.0, 0.0], 4, w));
        // Recovery rebuilds the chains: the flushed index is bit-identical
        // to the synchronous one fed the acked stream.
        let recovered = engine.to_index();
        assert_eq!(recovered.validate(), Ok(()));
        assert_eq!(recovered.to_bytes(), sync.to_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_persists_snapshot_and_prunes_wal() {
        let dir = temp_dir("checkpoint");
        {
            let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
            fill(&engine, 64); // 8 sealed leaves => 8 rotated segments + current
            engine.checkpoint().unwrap();
            let segments = std::fs::read_dir(dir.join(WAL_DIR)).unwrap().count();
            assert!(segments <= 2, "checkpoint prunes covered segments, {segments} left");
            fill_from(&engine, 64, 70);
        }
        let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
        assert_eq!(engine.len(), 70, "snapshot + post-checkpoint WAL rows");
        engine.flush();
        assert_eq!(engine.stats().published_leaves, 8);
        assert_eq!(engine.to_index().validate(), Ok(()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_creates_then_recovers() {
        let dir = temp_dir("open");
        {
            let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
            fill(&engine, 10);
        }
        // Second open takes the recover path (config comes from disk).
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        assert_eq!(engine.len(), 10);
        assert_eq!(engine.config().dim, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_sync_always_is_durable_per_insert() {
        let dir = temp_dir("sync_always");
        {
            let engine = StreamingMbi::open(
                &dir,
                config(),
                EngineConfig::default().with_wal_sync(WalSync::Always),
            )
            .unwrap();
            fill(&engine, 5);
        }
        let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
        assert_eq!(engine.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_requires_durable_engine() {
        let engine = StreamingMbi::new(config());
        let err = engine.checkpoint().unwrap_err();
        assert!(err.to_string().contains("non-durable"), "{err}");
    }
}
