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
//!   builder-side *master* copy — a pointer move, not a row copy — the new
//!   leaf is published (below), and the leaf index is handed to the
//!   background builders over a bounded channel.
//! * **Builders** (dedicated `std::thread` workers) compute the leaf's merge
//!   chain (Algorithm 3), *share* the chain's segments out of the master
//!   (the chain range is always leaf-aligned), build the graphs lock-free
//!   with the exact same deterministic seeds as the synchronous path, and
//!   stage the finished blocks. Chains may finish out of order; they are
//!   *published* strictly in leaf order.
//! * **Publication** swaps an [`Arc<IndexSnapshot>`] under a short write
//!   lock: every sealed leaf (shared segments and timestamp chunks) with
//!   postorder blocks over the first [`IndexSnapshot::num_leaves`]. A seal
//!   publishes one, and so does every chain publication. Like an
//!   [`MbiIndex`], the snapshot serves rows under blocks by graph search and
//!   its unbuilt leaves by exact scan (Algorithm 4 line 6). Assembling it is
//!   `O(sealed leaves)` pointer copies: consecutive snapshots share every
//!   segment of their common prefix, so publication cost is independent of
//!   how many rows have accumulated. Queries clone the current `Arc` (no
//!   lock held while searching) and scan only the partial leaf beside it.
//!
//! # Every committed row exactly once
//!
//! A seal publishes while it still holds the tail write lock, and a query
//! takes the tail read lock *before* it loads the snapshot. So the snapshot
//! a query sees holds exactly the rows before `tail.first_row`, and the tail
//! holds the rest: each committed row is served once — by the snapshot's
//! graphs if its chain is published, by the snapshot's exact tail scan if
//! not, or by the scan of the partial leaf. Once builds drain
//! ([`StreamingMbi::flush`]) the snapshot's blocks are bit-identical to a
//! synchronous [`MbiIndex`] fed the same stream (same ranges, same
//! deterministic seed salts, same norm-cache columns).
//!
//! # Failure isolation
//!
//! A chain build is deterministic — the same rows and the same seed salts
//! every time — so a chain that panicked once would panic again: the engine
//! does not retry. The panic is caught on the builder thread
//! (`catch_unwind`) and **halts publication at once**:
//! [`StreamingMbi::health`] reports [`Halted`](EngineHealth::Halted) with the
//! chain's leaf and the panic message, and every later chain is skipped.
//! That never compromises answers: an unpublished chain blocks in-order
//! publication, so its rows and every later row simply *stay unbuilt
//! leaves* of the snapshot, which queries already serve by exact scan — it
//! never loses or double-counts a row. Inserts, queries,
//! [`StreamingMbi::flush`] (which returns rather than hangs) and
//! [`StreamingMbi::checkpoint`] keep working, and every lock in the engine
//! is non-poisoning (`parking_lot`), so a builder panic cannot wedge the
//! insert or query path.
//!
//! # Durability
//!
//! [`StreamingMbi::open`] attaches the engine to a directory: every insert
//! appends to a segmented, checksummed [`Wal`](crate::Wal) *before* it
//! is acknowledged, [`StreamingMbi::checkpoint`] atomically persists the
//! published snapshot and prunes the log, and [`StreamingMbi::recover`]
//! rebuilds the exact acked state — snapshot plus WAL replay, tolerating a
//! torn final record — after a crash. [`WalSync`] picks the fsync cadence.

use crate::block::{Block, BlockGraph};
use crate::config::MbiConfig;
use crate::error::MbiError;
use crate::index::{check_row, validate_blocks, validate_edges, MbiIndex, QueryOutput, TknnResult};
use crate::query_exec::QueryTarget;
use crate::select::{SearchBlockSet, TimeWindow};
use crate::times::TimeChunks;
use crate::Timestamp;
use mbi_ann::{
    brute_force_prepared, KnnGraph, SearchParams, SearchStats, Segment, SegmentStore, VectorStore,
};
use mbi_math::{Metric, OrderedF32, PreparedQuery};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

mod builder;
mod durable;

use builder::spawn_builders;
use durable::Durability;
pub use durable::{WalSync, SNAPSHOT_FILE, WAL_DIR};

/// Builder health, reported by [`StreamingMbi::health`]. Queries and inserts
/// stay correct in both states (see the module docs on failure isolation);
/// the states describe whether new rows still move from exact scan to graph
/// search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineHealth {
    /// No chain build has panicked.
    Healthy,
    /// A chain build panicked: publication is frozen at the last published
    /// leaf. Inserts, queries, [`StreamingMbi::flush`], and
    /// [`StreamingMbi::checkpoint`] all still work; the unpublished region
    /// is served by exact scan indefinitely.
    Halted {
        /// Leaf index of the first chain whose build panicked.
        chain: usize,
        /// That build's panic message.
        error: String,
    },
}

impl EngineHealth {
    /// Whether the engine has frozen publication ([`EngineHealth::Halted`])
    /// — the state a load balancer should rotate a node out on.
    pub fn is_halted(&self) -> bool {
        matches!(self, EngineHealth::Halted { .. })
    }

    /// Stable lower-case label for wire formats: `"healthy"` or `"halted"`.
    pub fn label(&self) -> &'static str {
        match self {
            EngineHealth::Healthy => "healthy",
            EngineHealth::Halted { .. } => "halted",
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
    /// a seal waits for an idle builder). A seal that finds the queue full
    /// waits for a slot: memory stays bounded, and insert latency spikes to
    /// one queue wait, never to a build.
    pub queue_depth: usize,
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
///
/// The engine keeps only the newest 65 536 samples of each latency series
/// (a fixed bound, not a knob), so a long-running engine's memory and the
/// cost of each `stats()` call stay bounded; the counters are never
/// truncated.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Leaves sealed so far (= merge chains handed to the builders,
    /// including any built inline because no builder thread could be
    /// spawned).
    pub seals: usize,
    /// Leaves whose chains have been published to the snapshot.
    pub published_leaves: usize,
    /// Chains sealed but not yet published (queued + in build).
    pub queued_builds: usize,
    /// Blocks in the current snapshot.
    pub published_blocks: usize,
    /// Greatest block height in the current snapshot (0 when empty).
    pub published_height: u32,
    /// Chains built on an inserting thread because no builder thread could
    /// be spawned.
    pub inline_builds: u64,
    /// Builder threads that failed to spawn; the engine fell back to
    /// building those chains inline on the inserting thread.
    pub spawn_failures: u64,
    /// Chain-build panics caught (the first one halts the engine).
    pub build_panics: u64,
    /// Per-insert wall-clock nanoseconds, in insert order. A streaming
    /// insert is an append plus a channel send and routinely finishes under
    /// a microsecond, hence the unit.
    pub insert_nanos: Vec<u64>,
    /// Per-chain graph-build wall-clock nanoseconds, in completion order.
    pub build_nanos: Vec<u64>,
    /// One `(sealed_rows, nanos)` sample per chain publication, in
    /// publication order: how many rows the published snapshot has under
    /// blocks and how long the publication itself took (staging the chain's
    /// blocks, assembling the pointer-shared snapshot, swapping it in —
    /// everything except the lock-free graph build). With the
    /// segment-shared store this stays flat as `sealed_rows` grows.
    pub publish_nanos: Vec<(u64, u64)>,
}

/// An immutable published view of every sealed leaf: leaf-sized shared
/// vector segments, the matching shared timestamp chunks, and the postorder
/// block array over the first [`Self::num_leaves`] leaves. It has an
/// [`MbiIndex`]'s semantics — blocks over a prefix, exact scan of the rest:
/// rows under blocks are graph-searched, and the leaves sealed but not yet
/// built are scanned exactly (Algorithm 4 line 6). Queries run on it
/// without any lock.
///
/// Everything in a snapshot is shared by `Arc`: consecutive snapshots of the
/// same engine hold the *same* segments, timestamp chunks, and blocks for
/// their common prefix, so publishing a new snapshot costs `O(segments)`
/// pointer copies for the store and `O(blocks)` for the block array (never
/// a row copy), and a retired snapshot frees only what no newer snapshot
/// still references.
#[derive(Clone, Debug)]
pub struct IndexSnapshot {
    pub(crate) config: MbiConfig,
    pub(crate) store: SegmentStore,
    pub(crate) times: TimeChunks,
    pub(crate) blocks: Vec<Arc<Block>>,
    pub(crate) num_leaves: usize,
}

impl IndexSnapshot {
    fn empty(config: MbiConfig) -> Self {
        IndexSnapshot {
            store: SegmentStore::new(config.dim, config.leaf_size),
            times: TimeChunks::new(config.leaf_size),
            blocks: Vec::new(),
            num_leaves: 0,
            config,
        }
    }

    fn target(&self) -> QueryTarget<'_, SegmentStore, TimeChunks> {
        QueryTarget {
            config: &self.config,
            store: &self.store,
            times: &self.times,
            num_leaves: self.num_leaves,
        }
    }

    /// The configuration of the engine that published this snapshot.
    pub fn config(&self) -> &MbiConfig {
        &self.config
    }

    /// Rows under blocks (`num_leaves · S_L`). [`Self::to_bytes`] persists
    /// them and a short last segment (a loaded index's partial leaf).
    /// Unbuilt leaves past them are served by exact scan but not persisted:
    /// a checkpoint's WAL keeps their rows.
    pub fn sealed_rows(&self) -> usize {
        self.num_leaves * self.config.leaf_size
    }

    /// Whether the snapshot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of leaves under blocks (built and published).
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// The published postorder block array (each block shared across
    /// snapshots).
    pub fn blocks(&self) -> &[Arc<Block>] {
        &self.blocks
    }

    /// The segment-shared vector store (one segment per sealed leaf, built
    /// or not).
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// The chunk-shared timestamp column, parallel to [`Self::store`].
    pub fn times(&self) -> &TimeChunks {
        &self.times
    }

    /// Builds a snapshot from a synchronous index by chunking its rows into
    /// leaf-sized segments; its partial leaf becomes a short last segment,
    /// which queries scan exactly as the index does.
    pub fn from_index(index: &MbiIndex) -> Self {
        let config = *index.config();
        let s_l = config.leaf_size;
        let mut store = SegmentStore::new(config.dim, s_l);
        let mut times = TimeChunks::new(s_l);
        for start in (0..index.len()).step_by(s_l) {
            let rows = start..(start + s_l).min(index.len());
            store.push_segment(Arc::new(Segment::from_view(index.store().slice(rows.clone()))));
            times.push_chunk(index.timestamps()[rows].into());
        }
        IndexSnapshot {
            config,
            store,
            times,
            blocks: index.blocks().iter().cloned().map(Arc::new).collect(),
            num_leaves: index.num_leaves(),
        }
    }

    /// The inverse of [`Self::from_index`]: a standalone [`MbiIndex`] with
    /// every row copied into one flat store and every graph's edges into an
    /// owned column, so it keeps no view of a loaded stream's buffer.
    pub(crate) fn to_index(&self) -> MbiIndex {
        let mut store = self.store.to_vector_store();
        // An empty angular store carries no norm column yet; the index
        // keeps one for the rows it will take.
        if self.config.metric == Metric::Angular {
            store.enable_norm_cache();
        }
        MbiIndex {
            config: self.config,
            store,
            timestamps: self.times.to_vec(),
            blocks: (self.blocks.iter())
                .map(|b| {
                    let BlockGraph(g) = &b.graph;
                    let graph = BlockGraph(KnnGraph::from_flat(g.degree(), g.as_flat().to_vec()));
                    Block { rows: b.rows.clone(), graph, ..**b }
                })
                .collect(),
            num_leaves: self.num_leaves,
        }
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
        if self.times.len() < self.sealed_rows() {
            return Err(format!(
                "{} stored rows are fewer than the {} leaves under blocks hold",
                self.times.len(),
                self.num_leaves
            ));
        }
        for i in 1..self.times.len() {
            if self.times.get(i) < self.times.get(i - 1) {
                return Err("timestamps not sorted".into());
            }
        }
        let blocks = self.blocks.iter().map(|b| b.entry());
        validate_blocks(self.config.leaf_size, self.num_leaves, blocks, &self.times)?;
        validate_edges(self.blocks.iter().map(|b| &**b))
    }

    /// Approximate TkNN over the snapshot's rows: graph search under the
    /// blocks, exact scan of the unbuilt leaves (the engine's
    /// [`StreamingMbi::query`] adds the partial leaf).
    pub fn query_with_params(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
    ) -> QueryOutput {
        self.query_with_deadline(query, k, window, params, None)
    }

    /// [`IndexSnapshot::query_with_params`] under a cooperative deadline:
    /// the executor stops between block visits once `deadline` passes and
    /// returns whatever it merged so far with [`QueryOutput::timed_out`]
    /// set. `None` never times out.
    pub fn query_with_deadline(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        deadline: Option<Instant>,
    ) -> QueryOutput {
        self.search(query, k, window, params, &self.selection(window), deadline)
    }

    /// The blocks, and whether the unbuilt leaves, a query over `window`
    /// searches (Algorithm 4 line 3): block metadata alone, no row read.
    pub(crate) fn selection(&self, window: TimeWindow) -> SearchBlockSet {
        let meta = |i: usize| self.blocks[i].select_meta();
        self.target().block_selection(window, self.config.tau, meta)
    }

    /// The rest of [`Self::query_with_deadline`]: searches what
    /// `selection` names.
    pub(crate) fn search(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        selection: &SearchBlockSet,
        deadline: Option<Instant>,
    ) -> QueryOutput {
        let blocks: Vec<&Block> = selection.blocks.iter().map(|&i| &*self.blocks[i]).collect();
        self.target().search(query, k, window, params, selection, &blocks, deadline)
    }

    /// Exact TkNN over the snapshot's rows, by brute force.
    pub fn exact_query(&self, query: &[f32], k: usize, window: TimeWindow) -> Vec<TknnResult> {
        self.target().exact_query(query, k, window)
    }

    /// Bytes of heap memory the snapshot holds: vector segments with their
    /// inverse-norm columns, timestamp chunks, and block graphs. Structure
    /// shared with other snapshots or the engine's master copy is counted
    /// once per holder. Columns of a loaded snapshot count the bytes they
    /// view in its stream buffer; columns over a live mapping (the cold
    /// tier's) count `0` — their pages belong to the kernel's page cache,
    /// which keeps or reclaims them.
    pub fn memory_bytes(&self) -> usize {
        let blocks = self.blocks.iter().map(|b| b.memory_bytes() + size_of::<Arc<Block>>());
        self.store.memory_bytes() + self.times.memory_bytes() + blocks.sum::<usize>()
    }
}

/// The write-side tail: the growing, non-full leaf. `first_row` is the
/// global row id of its first row — the sealed row count, always a multiple
/// of `S_L` — and the published snapshot holds exactly the rows before it
/// (see the module docs).
#[derive(Debug)]
struct TailState {
    /// The partial leaf's rows.
    partial: VectorStore,
    /// Timestamps of the partial leaf, parallel to `partial`.
    partial_ts: Vec<Timestamp>,
    first_row: usize,
    last_ts: Option<Timestamp>,
}

/// The builder-side master copy: every sealed leaf (pushed as a shared
/// segment at seal time, in leaf order, under the tail lock), the growing
/// postorder block array, and the in-order publication frontier.
/// Out-of-order chain completions wait in `ready` until every earlier leaf
/// has been published.
#[derive(Debug)]
struct Master {
    /// Every sealed leaf as a shared segment; the published snapshot shares
    /// all of them.
    store: SegmentStore,
    /// Timestamp chunks parallel to `store`.
    times: TimeChunks,
    /// The postorder block array; every published snapshot shares its
    /// blocks.
    blocks: Vec<Arc<Block>>,
    ready: BTreeMap<usize, Vec<Block>>,
    published_leaves: usize,
}

impl Master {
    fn sealed_leaves(&self) -> usize {
        self.times.num_chunks()
    }
}

#[derive(Debug)]
struct Shared {
    config: MbiConfig,
    engine: EngineConfig,
    snapshot: RwLock<Arc<IndexSnapshot>>,
    tail: RwLock<TailState>,
    /// Like every engine lock, non-poisoning (`parking_lot`): a builder
    /// panic unwinds through its guard and every other thread keeps going.
    master: Mutex<Master>,
    publish_cv: Condvar,
    /// The first panicked chain's leaf and message; once set, publication
    /// is frozen and `flush` waiters return. Checked under the master lock
    /// by waiters and set *before* a lock/unlock + notify, so no wakeup is
    /// lost.
    halt: OnceLock<(usize, String)>,
    durability: Option<Durability>,
    inline_builds: AtomicU64,
    spawn_failures: AtomicU64,
    build_panics: AtomicU64,
    insert_nanos: Samples<u64>,
    build_nanos: Samples<u64>,
    publish_nanos: Samples<(u64, u64)>,
}

/// Samples kept per latency series (see [`EngineStats`]).
const LATENCY_SAMPLES: usize = 1 << 16;

/// One latency series, holding its newest [`LATENCY_SAMPLES`] samples.
#[derive(Debug, Default)]
struct Samples<T>(Mutex<VecDeque<T>>);

impl<T: Copy> Samples<T> {
    fn push(&self, sample: T) {
        let mut series = self.0.lock();
        if series.len() == LATENCY_SAMPLES {
            series.pop_front();
        }
        series.push_back(sample);
    }

    /// The kept samples, oldest first.
    fn to_vec(&self) -> Vec<T> {
        self.0.lock().iter().copied().collect()
    }
}

impl Shared {
    /// Whether a chain's blocks build concurrently, one thread per block:
    /// only when every builder thread has a second core to fan out onto.
    fn parallel_chain_build(&self) -> bool {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores >= 2 * self.engine.builder_threads
    }

    fn halted(&self) -> bool {
        self.halt.get().is_some()
    }

    /// Swaps in a snapshot of `m`: every sealed leaf, with blocks over the
    /// first `published_leaves`. Every published snapshot is built here,
    /// under the master lock (lock order tail → master → snapshot), so a
    /// newer master state can never be overwritten by an older one. Costs
    /// `O(sealed leaves)` pointer copies (segments, timestamp chunks and
    /// blocks), never a row copy.
    fn publish(&self, m: &Master) {
        let snap = IndexSnapshot {
            config: self.config,
            store: m.store.clone(),
            times: m.times.clone(),
            blocks: m.blocks.clone(),
            num_leaves: m.published_leaves,
        };
        *self.snapshot.write() = Arc::new(snap);
    }
}

/// A streaming MBI: `&self` inserts return without building graphs; merge
/// chains build on background threads; queries are served from a lock-free
/// snapshot (exact scan of its unbuilt leaves) plus an exact scan of the
/// partial leaf.
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
                partial: Self::fresh_partial(&config),
                partial_ts: Vec::with_capacity(config.leaf_size),
                first_row: 0,
                last_ts: None,
            }),
            master: Mutex::new(Master {
                store: SegmentStore::new(config.dim, config.leaf_size),
                times: TimeChunks::new(config.leaf_size),
                blocks: Vec::new(),
                ready: BTreeMap::new(),
                published_leaves: 0,
            }),
            publish_cv: Condvar::new(),
            halt: OnceLock::new(),
            durability,
            inline_builds: AtomicU64::new(0),
            spawn_failures: AtomicU64::new(0),
            build_panics: AtomicU64::new(0),
            insert_nanos: Samples::default(),
            build_nanos: Samples::default(),
            publish_nanos: Samples::default(),
            config,
            engine,
        });
        let (tx, workers) = spawn_builders(&shared);
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
        match self.shared.halt.get() {
            Some((chain, error)) => EngineHealth::Halted { chain: *chain, error: error.clone() },
            None => EngineHealth::Healthy,
        }
    }

    /// Appends a timestamped vector; returns the new global row id. Never
    /// builds graphs on this thread (unless no builder thread could be
    /// spawned): a seal freezes the leaf into a shared segment — moving the
    /// buffers, copying no rows — publishes it, and enqueues the chain.
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
        let t0 = Instant::now();
        check_row(&self.shared.config, vector, t)?;
        let s_l = self.shared.config.leaf_size;
        let mut sealed_leaf = None;
        let mut seal_wal_err = None;
        let id = {
            let mut tail = self.shared.tail.write();
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
            let id = tail.first_row + tail.partial.len();
            tail.partial.push(vector);
            tail.partial_ts.push(t);
            if tail.partial.len() == s_l {
                // A leaf just filled. Freeze the partial buffers into a
                // shared segment (a move, not a copy), hand it to the master
                // copy and publish it — still holding the tail lock, so
                // writers seal leaves in order and a query sees the leaf in
                // exactly one of the snapshot and the tail.
                let leaf = tail.first_row / s_l;
                let seg = Segment::from_store(std::mem::replace(
                    &mut tail.partial,
                    Self::fresh_partial(&self.shared.config),
                ));
                let ts = std::mem::replace(&mut tail.partial_ts, Vec::with_capacity(s_l));
                {
                    let mut m = self.shared.master.lock();
                    debug_assert_eq!(m.sealed_leaves(), leaf, "leaves must seal in order");
                    m.store.push_segment(Arc::new(seg));
                    m.times.push_chunk(ts.into());
                    self.shared.publish(&m);
                }
                tail.first_row += s_l;
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
        self.shared.insert_nanos.push(t0.elapsed().as_nanos() as u64);
        match seal_wal_err {
            Some(e) => Err(e),
            None => Ok(id as u32),
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

    /// Total committed rows (sealed + partial leaf).
    pub fn len(&self) -> usize {
        let tail = self.shared.tail.read();
        tail.first_row + tail.partial.len()
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
    /// answers (graph search under its blocks, exact scan of its unbuilt
    /// leaves), the partial leaf is scanned exactly, and the two top-k lists
    /// are merged. See the module docs for why no committed row is missed or
    /// double-counted — including on a halted engine (the unpublished region
    /// stays unbuilt).
    pub fn query_with_params(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
    ) -> QueryOutput {
        self.query_with_deadline(query, k, window, params, None)
    }

    /// [`StreamingMbi::query_with_params`] under a cooperative deadline
    /// (see [`IndexSnapshot::query_with_deadline`]): if `deadline` has
    /// already passed on entry the partial-leaf scan is skipped too and the
    /// output is flagged `timed_out`; otherwise the bounded partial-leaf
    /// scan runs and only the snapshot's search is cut short.
    pub fn query_with_deadline(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        params: &SearchParams,
        deadline: Option<Instant>,
    ) -> QueryOutput {
        assert_eq!(query.len(), self.shared.config.dim, "query has wrong dimension");
        let late_on_entry = deadline.is_some_and(|d| Instant::now() >= d);
        let (snap, tail_hits) = self.pin_tail(|tail| {
            (!late_on_entry).then(|| self.scan_tail(tail, query, k, window)).flatten()
        });
        let mut out = snap.query_with_deadline(query, k, window, params, deadline);
        out.timed_out |= late_on_entry;
        if let Some((hits, tail_stats)) = tail_hits {
            out.results = merge_results(out.results, hits, k);
            out.stats.merge(&tail_stats);
            out.selection.tail = true;
        }
        out
    }

    /// Takes the tail read lock, clones the published snapshot, and runs
    /// `scan(tail)` under that lock. Order matters: a seal publishes under
    /// the tail write lock, so the snapshot loaded under the read lock holds
    /// exactly the rows before `tail.first_row` — no committed row is missed
    /// or counted twice.
    fn pin_tail<R>(&self, scan: impl FnOnce(&TailState) -> R) -> (Arc<IndexSnapshot>, R) {
        let tail = self.shared.tail.read();
        let snap = self.shared.snapshot.read().clone();
        let scanned = scan(&tail);
        (snap, scanned)
    }

    /// Exact scan of the partial leaf's in-window rows — the only rows the
    /// snapshot does not hold. Returns `None` when no such rows exist.
    fn scan_tail(
        &self,
        tail: &TailState,
        query: &[f32],
        k: usize,
        window: TimeWindow,
    ) -> Option<(Vec<TknnResult>, SearchStats)> {
        let lo = tail.partial_ts.partition_point(|&t| t < window.start);
        let hi = tail.partial_ts.partition_point(|&t| t < window.end);
        if hi <= lo {
            return None;
        }
        let mut stats =
            SearchStats { blocks_searched: 1, blocks_bruteforced: 1, ..Default::default() };
        let pq = PreparedQuery::new(self.shared.config.metric, query);
        let hits = brute_force_prepared(tail.partial.slice(lo..hi), &pq, k, &mut stats)
            .into_iter()
            .map(|n| {
                let local = lo + n.id as usize;
                TknnResult {
                    id: (tail.first_row + local) as u32,
                    timestamp: tail.partial_ts[local],
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
        let (snap, tail_hits) = self.pin_tail(|tail| self.scan_tail(tail, query, k, window));
        let sealed = snap.exact_query(query, k, window);
        match tail_hits {
            Some((hits, _)) => merge_results(sealed, hits, k),
            None => sealed,
        }
    }

    /// Blocks until every sealed leaf's chain has been published — or until
    /// the engine halts ([`EngineHealth::Halted`]), so a failed build can
    /// never hang a flusher. After a clean `flush`, a query sees exactly
    /// what a synchronous [`MbiIndex`] fed the same stream would serve, and
    /// [`EngineStats::queued_builds`] is 0 (barring concurrent inserts).
    pub fn flush(&self) {
        let mut m = self.shared.master.lock();
        while m.published_leaves < m.sealed_leaves() && !self.shared.halted() {
            self.shared.publish_cv.wait(&mut m);
        }
    }

    /// Progress counters and latency samples (see [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        let (seals, published_leaves, published_blocks, published_height) = {
            let m = self.shared.master.lock();
            (
                m.sealed_leaves(),
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
            insert_nanos: self.shared.insert_nanos.to_vec(),
            build_nanos: self.shared.build_nanos.to_vec(),
            publish_nanos: self.shared.publish_nanos.to_vec(),
        }
    }

    /// Flushes, then assembles a standalone synchronous [`MbiIndex`] holding
    /// every committed row (published blocks deep-cloned, partial leaf
    /// appended). The result is bit-identical — blocks, graphs, norm cache —
    /// to an `MbiIndex` fed the same stream, which the convergence tests
    /// assert and persistence relies on.
    ///
    /// # Panics
    ///
    /// Panics on a halted engine ([`EngineHealth::Halted`]), naming the
    /// chain and its panic message: an `MbiIndex` cannot hold unbuilt full
    /// leaves, and the build that would make them representable is the one
    /// that panicked.
    pub fn to_index(&self) -> MbiIndex {
        self.flush();
        if let Some((chain, error)) = self.shared.halt.get() {
            panic!("to_index on a halted engine: the build of chain {chain} panicked: {error}");
        }
        let tail = self.shared.tail.read();
        let mut snap = IndexSnapshot::clone(&self.shared.snapshot.read());
        if !tail.partial.is_empty() {
            snap.store.push_segment(Arc::new(Segment::from_view(tail.partial.view())));
            snap.times.push_chunk(tail.partial_ts.as_slice().into());
        }
        snap.to_index()
    }

    /// Resumes streaming from a synchronous index:
    /// [`Self::from_snapshot`] of [`IndexSnapshot::from_index`]. The inverse
    /// of [`Self::to_index`] up to storage layout: queries answer
    /// identically.
    pub fn from_index(index: MbiIndex, engine: EngineConfig) -> Self {
        Self::from_snapshot(IndexSnapshot::from_index(&index), engine)
    }

    /// Resumes streaming from a published (or persisted) snapshot: its
    /// leaves, blocks, and timestamp chunks are adopted by pointer — nothing
    /// is copied or rebuilt — and new inserts continue after them. A short
    /// last segment (a loaded index's partial leaf) refills the partial
    /// buffer, and the chains of any unbuilt leaves are enqueued.
    pub fn from_snapshot(snapshot: IndexSnapshot, engine: EngineConfig) -> Self {
        Self::from_snapshot_internal(snapshot, engine, None)
    }

    fn from_snapshot_internal(
        mut snapshot: IndexSnapshot,
        engine: EngineConfig,
        durability: Option<Durability>,
    ) -> Self {
        let last_ts = (!snapshot.is_empty()).then(|| snapshot.times.get(snapshot.times.len() - 1));
        // A short last segment is a partial leaf: it moves to the tail.
        let whole = snapshot.times.len() / snapshot.config.leaf_size;
        let short = (snapshot.times.num_chunks() > whole).then(|| {
            let seg = Arc::clone(&snapshot.store.segments()[whole]);
            let ts = snapshot.times.chunks()[whole].to_vec();
            snapshot.store = snapshot.store.share(0..whole * snapshot.config.leaf_size);
            snapshot.times = snapshot.times.share_prefix(whole);
            (seg, ts)
        });
        let rows = snapshot.times.len();
        let this = Self::build(snapshot.config, engine, durability);
        let unbuilt = {
            let mut tail = this.shared.tail.write();
            let mut m = this.shared.master.lock();
            tail.first_row = rows;
            tail.last_ts = last_ts;
            if let Some((seg, ts)) = short {
                tail.partial.extend_from_view(seg.view());
                tail.partial_ts = ts;
            }
            m.store = snapshot.store.clone();
            m.times = snapshot.times.clone();
            m.blocks = snapshot.blocks.clone();
            m.published_leaves = snapshot.num_leaves;
            *this.shared.snapshot.write() = Arc::new(snapshot);
            m.published_leaves..m.sealed_leaves()
        };
        for leaf in unbuilt {
            this.dispatch(leaf);
        }
        this
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
    use crate::layout::blocks_for_leaves;
    use std::path::PathBuf;
    use std::time::Duration;

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
        let halted = EngineHealth::Halted { chain: 3, error: "boom".into() };
        assert!(!EngineHealth::Healthy.is_halted());
        assert!(halted.is_halted());
        assert_eq!(EngineHealth::Healthy.label(), "healthy");
        assert_eq!(halted.label(), "halted");
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
    fn i64_max_is_rejected_before_the_wal() {
        let dir = temp_dir("i64max");
        {
            let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
            fill(&engine, 7); // the next row would seal a leaf
            assert!(matches!(
                engine.insert(&[7.0, 0.0], i64::MAX),
                Err(MbiError::TimestampOutOfRange { got: i64::MAX })
            ));
            assert_eq!(engine.len(), 7);
            engine.insert(&[7.0, 0.0], i64::MAX - 1).unwrap();
            engine.flush();
            engine.checkpoint().unwrap();
        }
        let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
        assert_eq!(engine.len(), 8, "the rejected row never reached the log");
        assert_eq!(engine.snapshot().blocks()[0].end_ts, i64::MAX);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A saved `MbiIndex` with a partial leaf is a valid stream, but its tail
    /// rows are in no WAL: a durable engine refuses to resume from it.
    #[test]
    fn recovery_refuses_a_checkpoint_with_a_tail_record() {
        let dir = temp_dir("tailed");
        drop(StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap());
        let mut index = MbiIndex::new(config());
        for i in 0..11usize {
            index.insert(&[i as f32, 0.0], i as i64).unwrap();
        }
        index.save_file(dir.join(durable::SNAPSHOT_FILE)).unwrap();
        match StreamingMbi::recover(&dir, EngineConfig::default()) {
            Err(MbiError::Corrupt { detail, .. }) => assert!(detail.contains("3 rows"), "{detail}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|e| e.len())),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The 4-d, leaf-64, degree-8 configuration of the row-validation and
    /// early-checkpoint tests.
    fn leaf64_config(metric: Metric) -> MbiConfig {
        let backend = crate::GraphBackend::NnDescent(mbi_ann::NnDescentParams::with_degree(8));
        MbiConfig::new(4, metric).with_leaf_size(64).with_backend(backend)
    }

    fn row4(i: usize) -> [f32; 4] {
        let x = i as f32;
        [(x * 0.37).sin(), (x * 0.11).cos(), 0.5 + x * 0.01, -0.25]
    }

    #[test]
    fn non_finite_rows_are_rejected_before_the_wal() {
        let dir = temp_dir("nonfinite");
        let config = leaf64_config(Metric::Euclidean);
        let q = row4(5);
        let before = {
            let engine = StreamingMbi::open(&dir, config, EngineConfig::default()).unwrap();
            for i in 0..63 {
                engine.insert(&row4(i), i as i64).unwrap();
            }
            // The next accepted row seals the leaf. A NaN would panic its
            // chain's build and halt the engine.
            for bad in [
                [0.5, f32::NAN, 0.5, 0.5],
                [0.5, 0.5, f32::INFINITY, 0.5],
                [f32::NEG_INFINITY, 0.5, 0.5, 0.5],
                [0.5, 0.5, 0.5, 3e38],
            ] {
                assert!(matches!(engine.insert(&bad, 63), Err(MbiError::NonFiniteVector)));
                assert_eq!(engine.len(), 63, "{bad:?} reached the tail");
            }
            engine.insert(&row4(63), 63).unwrap();
            engine.insert(&row4(64), 64).unwrap();
            engine.flush();
            assert_eq!(engine.health(), EngineHealth::Healthy);
            assert_eq!(engine.stats().published_leaves, 1);
            engine.checkpoint().unwrap();
            engine.query(&q, 5, TimeWindow::all())
        };
        let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
        assert_eq!(engine.len(), 65, "no rejected row reached the log");
        assert_eq!(engine.query(&q, 5, TimeWindow::all()), before);
        assert_eq!(engine.health(), EngineHealth::Healthy);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn angular_engine_checkpointed_before_its_first_leaf_recovers() {
        // Below one full leaf the snapshot holds no segment, so it carries no
        // norm column — which the reader used to reject for angular indexes.
        for rows in [0, 63] {
            let dir = temp_dir(&format!("angular_early_{rows}"));
            let q = row4(7);
            let before = {
                let engine = StreamingMbi::open(
                    &dir,
                    leaf64_config(Metric::Angular),
                    EngineConfig::default(),
                )
                .unwrap();
                for i in 0..rows {
                    engine.insert(&row4(i), i as i64).unwrap();
                }
                engine.checkpoint().unwrap();
                engine.query(&q, 5, TimeWindow::all())
            };
            let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
            assert_eq!(engine.len(), rows);
            assert_eq!(engine.query(&q, 5, TimeWindow::all()), before, "{rows} rows");
            // The recovered engine keeps ingesting past its first seal and
            // answers like one that never stopped.
            let fresh = StreamingMbi::new(leaf64_config(Metric::Angular));
            for i in 0..rows + 65 {
                if i >= rows {
                    engine.insert(&row4(i), i as i64).unwrap();
                }
                fresh.insert(&row4(i), i as i64).unwrap();
            }
            engine.flush();
            fresh.flush();
            assert_eq!(engine.health(), EngineHealth::Healthy);
            let q = row4(rows + 3);
            assert_eq!(
                engine.query(&q, 5, TimeWindow::all()),
                fresh.query(&q, 5, TimeWindow::all())
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    fn line_snapshot(n: usize) -> IndexSnapshot {
        let mut idx = MbiIndex::new(config());
        for i in 0..n {
            idx.insert(&[i as f32, 0.0], i as i64).unwrap();
        }
        IndexSnapshot::from_index(&idx)
    }

    #[test]
    fn deadline_none_matches_undeadlined_query() {
        let snap = line_snapshot(96);
        let params = SearchParams::new(64, 1.2);
        let w = TimeWindow::new(3, 90);
        let plain = snap.query_with_params(&[40.0, 0.0], 5, w, &params);
        let dead = snap.query_with_deadline(&[40.0, 0.0], 5, w, &params, None);
        assert_eq!(plain.results, dead.results);
        assert!(!dead.timed_out);
        let far = Instant::now() + Duration::from_secs(3600);
        let relaxed = snap.query_with_deadline(&[40.0, 0.0], 5, w, &params, Some(far));
        assert_eq!(plain.results, relaxed.results);
        assert!(!relaxed.timed_out);
    }

    #[test]
    fn expired_deadline_returns_partial_flagged() {
        let snap = line_snapshot(96);
        let past = Instant::now() - Duration::from_millis(1);
        let params = SearchParams::new(64, 1.2);
        let out = snap.query_with_deadline(&[40.0, 0.0], 5, TimeWindow::all(), &params, Some(past));
        // Every block visit is skipped; no panic, empty partial result,
        // flag set.
        assert!(out.timed_out);
        assert!(out.results.is_empty());
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
    fn latency_series_keep_only_the_newest_samples() {
        // A leaf that never seals: every insert is a tail append, and the
        // series must stop growing at its bound instead of with the engine.
        let engine = StreamingMbi::new(config().with_leaf_size(1 << 17));
        fill(&engine, 65_636);
        let stats = engine.stats();
        assert_eq!(stats.seals, 0);
        assert_eq!(stats.insert_nanos.len(), 65_536);
        assert!(stats.build_nanos.is_empty() && stats.publish_nanos.is_empty());
        assert_eq!(engine.len(), 65_636);
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
                // The approximate path merges the unpublished partial leaf
                // too: over it and the last sealed leaf, where every block
                // is scanned, it answers exactly.
                let recent =
                    TimeWindow::new(((i + 1) / 8 * 8).saturating_sub(4) as i64, i as i64 + 1);
                let out = engine.query_with_params(&[i as f32, 0.0], 3, recent, &config().search);
                assert_eq!(out.results, sync.exact_query(&[i as f32, 0.0], 3, recent));
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
    fn snapshot_from_index_keeps_the_tail() {
        let mut sync = MbiIndex::new(config());
        let w = TimeWindow::all();
        for n in [10usize, 16] {
            for i in sync.len()..n {
                sync.insert(&[i as f32, 0.0], i as i64).unwrap();
            }
            let snap = IndexSnapshot::from_index(&sync);
            assert_eq!(snap.validate(), Ok(()));
            assert_eq!(
                (snap.sealed_rows(), snap.store().len(), snap.times().len()),
                (8 * (n / 8), n, n)
            );
            for q in [[1.0f32, 0.0], [9.2, 0.0]] {
                let out = snap.query_with_params(&q, 3, w, &config().search);
                assert_eq!(out.results, sync.query(&q, 3, w), "{n} rows, query {q:?}");
            }
            // The short last segment moves to the engine's partial leaf.
            let resumed = StreamingMbi::from_snapshot(snap, EngineConfig::default());
            assert_eq!((resumed.len(), resumed.snapshot().times().len()), (n, 8 * (n / 8)));
            assert_eq!(resumed.to_index().to_bytes(), sync.to_bytes());
        }
    }

    #[test]
    fn unbuilt_leaves_are_scanned_exactly_and_rebuilt_on_resume() {
        // Four sealed leaves with blocks over the first two: what an engine
        // publishes while the last two chains are still building.
        let config = config();
        let mut sync = MbiIndex::new(config);
        for i in 0..32usize {
            sync.insert(&[i as f32, (i % 5) as f32], i as i64).unwrap();
        }
        let mut snap = IndexSnapshot::from_index(&sync);
        snap.blocks = snap.blocks.iter().take(blocks_for_leaves(2)).cloned().collect();
        snap.num_leaves = 2;
        assert_eq!(snap.validate(), Ok(()));
        assert_eq!(snap.sealed_rows(), 16);
        assert_eq!(snap.times().len(), 32);
        // The unbuilt leaves are scanned exactly: one distance evaluation per
        // in-window row.
        for (x, w) in [
            (20.0, TimeWindow::new(16, 32)),
            (17.0, TimeWindow::new(18, 27)),
            (31.0, TimeWindow::new(30, 40)),
        ] {
            let q = [x, 1.0];
            let out = snap.query_with_params(&q, 3, w, &config.search);
            assert_eq!(out.results, snap.exact_query(&q, 3, w), "{w:?}");
            assert_eq!(out.stats.dist_evals, (w.end.min(32) - w.start) as u64, "{w:?}");
        }
        // Persistence keeps the prefix under blocks.
        let prefix = IndexSnapshot::from_bytes(snap.to_bytes()).unwrap();
        assert_eq!((prefix.num_leaves(), prefix.times().len()), (2, 16));
        assert_eq!(prefix.validate(), Ok(()));
        // Resuming builds the missing chains.
        let engine = StreamingMbi::from_snapshot(snap, EngineConfig::default());
        engine.flush();
        assert_eq!(engine.to_index().to_bytes(), sync.to_bytes());
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
