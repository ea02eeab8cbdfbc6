//! The one adapter between the benchmark and the workspace crates.
//!
//! Every call into `mbi-*` happens in this file, so when the query API is
//! collapsed or a front-end is deleted the follow-up benchmark change is a
//! one-file edit. The public functions the benchmark depends on:
//!
//! | layer | functions |
//! |---|---|
//! | `mbi-data` | `presets::SIFT1M.generate`, `window_for_fraction`, `recall_at_k` |
//! | `mbi-math` | `squared_euclidean_batch`, `angular_batch`, `simd::sq8_code_dot_batch`, `simd::active_backend`, `TopK::{new, reset, offer}`, `PreparedQuery::new` |
//! | `mbi-ann` | `BlockGraph::search_prepared` (→ `greedy_search_prepared`), `brute_force_prepared`, `NnDescentParams::build_threaded`, `SearchScratch::new`, `VectorStore::{get, slice, as_flat, len}` |
//! | `mbi-core` index | `MbiConfig::{new, with_*}`, `MbiIndex::{new, insert, block_selection, query_on_selection, query_with_params, query_with_params_threaded, exact_query, blocks, store, len, index_memory_bytes, data_bytes, to_bytes, from_bytes}` |
//! | `mbi-core` snapshot/persist | `StreamingMbi::{from_index, snapshot}`, `IndexSnapshot::{query_with_params, exact_query, save_file, sealed_rows, memory_bytes}` |
//! | `mbi-core` tier | `ColdIndex::{open_with_budget, query_with_params, set_prefetch, stats}` |
//! | `mbi-core` engine | `StreamingMbi::{open, recover, insert, query_with_params, exact_query, flush, checkpoint, stats, len, snapshot}`, `EngineConfig::{default, with_*}` |
//! | `mbi-core` wal | `Wal::{create, append, sync}` |
//! | `mbi-baselines` | `BsbfIndex::{new, insert, query}` |
//! | `mbi-server` | `Server::start`, `ServerConfig::{new, with_*}`, `TenantConfig::memory`, `ServerHandle::{addr, registry, shutdown}`, `TenantRegistry::by_name`, `Tenant::engine`, `BinaryClient::{connect, query, insert, ping, stats}`, `client::http_request`, `wire::{MAGIC, Op, PayloadWriter, write_frame, read_frame, encode_results, decode_results}` |

use mbi_ann::{
    brute_force_prepared, NnDescentParams, SearchParams, SearchScratch, SearchStats, VectorStore,
};
use mbi_baselines::BsbfIndex;
use mbi_core::{
    ColdIndex, EngineConfig, GraphBackend, IndexSnapshot, MbiConfig, MbiIndex, SearchBlockSet,
    StreamingMbi, Wal, WalSync,
};
use mbi_data::presets::SIFT1M;
use mbi_math::{Metric, Neighbor, PreparedQuery, TopK};
use mbi_server::client::http_request;
use mbi_server::wire;
use mbi_server::{BinaryClient, Server, ServerConfig, ServerHandle, TenantConfig, TenantEngine};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use mbi_core::{TimeWindow, TknnResult};

pub type Dataset = mbi_data::Dataset;
pub type Index = MbiIndex;
pub type Snapshot = Arc<IndexSnapshot>;
pub type Cold = ColdIndex;
pub type Engine = StreamingMbi;
pub type Selection = SearchBlockSet;
pub type Bsbf = BsbfIndex;
pub type Client = BinaryClient;

pub const K: usize = 10;
pub const DIM: usize = 128;
pub const LEAF: usize = 1024;
pub const DEGREE: usize = 16;
/// `M_C` and `ε`, picked once so `recall_at_10 ≥ 0.95` on `hot_windows`.
pub const MAX_CANDIDATES: usize = 128;
pub const EPSILON: f32 = 1.2;
const TENANT: &str = "bench";
const TOKEN: &str = "tok-bench";

/// Work counters of one query, summed over a phase.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub struct Work {
    pub dist_evals: u64,
    pub visited: u64,
    pub scanned: u64,
    pub blocks_searched: u64,
    pub blocks_bruteforced: u64,
}

impl Work {
    fn of(s: &SearchStats) -> Work {
        Work {
            dist_evals: s.dist_evals,
            visited: s.visited,
            scanned: s.scanned,
            blocks_searched: s.blocks_searched,
            blocks_bruteforced: s.blocks_bruteforced,
        }
    }

    pub fn add(&mut self, o: Work) {
        self.dist_evals += o.dist_evals;
        self.visited += o.visited;
        self.scanned += o.scanned;
        self.blocks_searched += o.blocks_searched;
        self.blocks_bruteforced += o.blocks_bruteforced;
    }
}

/// One query answer as every front-end returns it.
pub struct Answer {
    pub results: Vec<TknnResult>,
    pub work: Work,
}

fn answer(out: mbi_core::QueryOutput) -> Answer {
    Answer { work: Work::of(&out.stats), results: out.results }
}

pub fn search_params() -> SearchParams {
    SearchParams::new(MAX_CANDIDATES, EPSILON)
}

/// The one index configuration every workload uses (τ is the default 0.5).
pub fn index_config() -> MbiConfig {
    MbiConfig::new(DIM, Metric::Euclidean)
        .with_leaf_size(LEAF)
        .with_backend(GraphBackend::NnDescent(NnDescentParams {
            degree: DEGREE,
            ..Default::default()
        }))
        .with_search(search_params())
        .with_parallel_build(true)
        .with_query_threads(1)
}

pub fn simd_backend() -> String {
    format!("{:?}", mbi_math::simd::active_backend())
}

// ---------------------------------------------------------------------------
// data
// ---------------------------------------------------------------------------

/// The `sift1m` stand-in at `rows` train vectors.
pub fn generate(rows: usize, seed: u64) -> Dataset {
    let d = SIFT1M.generate((rows as f64 + 0.5) / SIFT1M.paper_train as f64, seed);
    assert_eq!((d.len(), d.dim()), (rows, DIM), "preset produced an unexpected shape");
    d
}

pub fn test_vectors(d: &Dataset) -> usize {
    d.test.len()
}

pub fn test_vector(d: &Dataset, i: usize) -> &[f32] {
    d.test.get(i)
}

pub fn train_row(d: &Dataset, i: usize) -> (&[f32], i64) {
    (d.train.get(i), d.timestamps[i])
}

/// A window over `fraction` of the first `rows` rows, positioned by `pick`.
pub fn window(d: &Dataset, rows: usize, fraction: f64, pick: f64) -> TimeWindow {
    mbi_data::window_for_fraction(&d.timestamps[..rows], fraction, pick)
}

/// `|approx ∩ exact| / K` — the paper's recall@k (§3.1).
pub fn recall(approx: &[TknnResult], exact: &[TknnResult]) -> f64 {
    let ids = |r: &[TknnResult]| r.iter().map(|x| x.id).collect::<Vec<u32>>();
    mbi_data::recall_at_k(&ids(approx), &ids(exact), K)
}

/// The window covering the newest `fraction` of the first `rows` rows.
pub fn newest_window(d: &Dataset, rows: usize, fraction: f64) -> TimeWindow {
    let first = rows - ((rows as f64 * fraction) as usize).clamp(1, rows);
    TimeWindow::new(d.timestamps[first], i64::MAX)
}

// ---------------------------------------------------------------------------
// index (core::index, core::select, core::query_exec)
// ---------------------------------------------------------------------------

/// Builds the synchronous index over the first `rows` rows.
pub fn build_index(d: &Dataset, rows: usize) -> Index {
    let mut idx = MbiIndex::new(index_config());
    for i in 0..rows {
        idx.insert(d.train.get(i), d.timestamps[i]).expect("dataset is timestamp-ordered");
    }
    idx
}

/// (index structures + data) bytes ÷ raw f32 bytes.
pub fn index_bytes_ratio(idx: &Index) -> f64 {
    (idx.index_memory_bytes() + idx.data_bytes()) as f64 / (idx.len() * DIM * 4) as f64
}

pub fn select(idx: &Index, w: TimeWindow) -> Selection {
    idx.block_selection(w)
}

/// (full blocks selected, whether the tail leaf is in the cover).
pub fn selection_shape(sel: &Selection) -> (usize, bool) {
    (sel.blocks.len(), sel.tail)
}

pub fn exec(idx: &Index, q: &[f32], w: TimeWindow, sel: &Selection) -> Answer {
    answer(idx.query_on_selection(q, K, w, &search_params(), sel))
}

pub fn query(idx: &Index, q: &[f32], w: TimeWindow) -> Answer {
    answer(idx.query_with_params(q, K, w, &search_params()))
}

pub fn query_fanout(idx: &Index, q: &[f32], w: TimeWindow, threads: usize) -> Answer {
    answer(idx.query_with_params_threaded(q, K, w, &search_params(), threads))
}

pub fn exact(idx: &Index, q: &[f32], w: TimeWindow) -> Vec<TknnResult> {
    idx.exact_query(q, K, w)
}

// ---------------------------------------------------------------------------
// snapshot + persist
// ---------------------------------------------------------------------------

/// The published-snapshot view of the index's sealed leaves (the tail leaf
/// is not part of a snapshot).
pub fn snapshot_of(idx: &Index) -> Snapshot {
    StreamingMbi::from_index(idx.clone(), EngineConfig::default()).snapshot()
}

pub fn snapshot_rows(s: &Snapshot) -> usize {
    s.sealed_rows()
}

pub fn snapshot_query(s: &Snapshot, q: &[f32], w: TimeWindow) -> Answer {
    answer(s.query_with_params(q, K, w, &search_params()))
}

pub fn snapshot_exact(s: &Snapshot, q: &[f32], w: TimeWindow) -> Vec<TknnResult> {
    s.exact_query(q, K, w)
}

/// Writes the v7 snapshot file; returns its size in bytes.
pub fn save_snapshot(s: &Snapshot, path: &Path) -> u64 {
    s.save_file(path).expect("snapshot saves");
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Eager persist round trip of the synchronous index: (bytes, save s, load s).
pub fn index_roundtrip(idx: &Index) -> (u64, f64, f64) {
    let t = Instant::now();
    let bytes = idx.to_bytes();
    let save_s = t.elapsed().as_secs_f64();
    let len = bytes.len() as u64;
    let t = Instant::now();
    let loaded = MbiIndex::from_bytes(bytes).expect("index bytes load back");
    let load_s = t.elapsed().as_secs_f64();
    assert_eq!(loaded.len(), idx.len());
    (len, save_s, load_s)
}

// ---------------------------------------------------------------------------
// tier (core::tier)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Default, Debug)]
pub struct TierCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub prefetches: u64,
    pub bytes_resident: u64,
    pub budget_bytes: u64,
}

pub fn open_cold(path: &Path, budget: u64) -> Cold {
    ColdIndex::open_with_budget(path, budget).expect("cold index opens")
}

pub fn cold_query(c: &Cold, q: &[f32], w: TimeWindow) -> Result<Answer, String> {
    c.query_with_params(q, K, w, &search_params()).map(answer).map_err(|e| e.to_string())
}

pub fn cold_set_prefetch(c: &Cold, on: bool) {
    c.set_prefetch(on);
}

pub fn cold_counters(c: &Cold) -> TierCounters {
    let s = c.stats();
    TierCounters {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        prefetches: s.prefetches,
        bytes_resident: s.bytes_resident,
        budget_bytes: s.budget_bytes,
    }
}

// ---------------------------------------------------------------------------
// engine (core::engine) + wal
// ---------------------------------------------------------------------------

fn engine_config() -> EngineConfig {
    EngineConfig::default().with_builder_threads(1).with_wal_sync(WalSync::OnSeal)
}

/// Opens (creating) the durable streaming engine in `dir`.
pub fn open_engine(dir: &Path) -> Engine {
    StreamingMbi::open(dir, index_config(), engine_config()).expect("durable engine opens")
}

pub fn recover_engine(dir: &Path) -> Result<Engine, String> {
    StreamingMbi::recover(dir, engine_config()).map_err(|e| e.to_string())
}

pub fn engine_insert(e: &Engine, v: &[f32], t: i64) -> Result<u32, String> {
    e.insert(v, t).map_err(|e| e.to_string())
}

pub fn engine_query(e: &Engine, q: &[f32], w: TimeWindow) -> Answer {
    answer(e.query_with_params(q, K, w, &search_params()))
}

pub fn engine_exact(e: &Engine, q: &[f32], w: TimeWindow) -> Vec<TknnResult> {
    e.exact_query(q, K, w)
}

pub fn engine_flush(e: &Engine) {
    e.flush();
}

pub fn engine_checkpoint(e: &Engine) -> Result<(), String> {
    e.checkpoint().map_err(|e| e.to_string())
}

pub fn engine_len(e: &Engine) -> usize {
    e.len()
}

/// Rows not yet covered by the published snapshot (served by exact scan).
pub fn engine_tail_rows(e: &Engine) -> usize {
    e.len().saturating_sub(e.snapshot().sealed_rows())
}

/// (snapshot bytes in RAM) ÷ raw f32 bytes of the rows it covers.
pub fn engine_bytes_ratio(e: &Engine) -> f64 {
    let snap = e.snapshot();
    snap.memory_bytes() as f64 / (snap.sealed_rows().max(1) * DIM * 4) as f64
}

pub fn engine_queued_builds(e: &Engine) -> usize {
    e.stats().queued_builds
}

/// The engine's own counters and raw latency series.
pub struct EngineReport {
    pub seals: usize,
    pub published_leaves: usize,
    pub inline_builds: u64,
    pub insert_nanos: Vec<u64>,
    pub build_nanos: Vec<u64>,
    pub publish_nanos: Vec<u64>,
}

pub fn engine_report(e: &Engine) -> EngineReport {
    let s = e.stats();
    EngineReport {
        seals: s.seals,
        published_leaves: s.published_leaves,
        inline_builds: s.inline_builds,
        insert_nanos: s.insert_nanos,
        build_nanos: s.build_nanos,
        publish_nanos: s.publish_nanos.into_iter().map(|(_, n)| n).collect(),
    }
}

/// Standalone WAL probe: `rows` appends then `syncs` append+fsync pairs in a
/// fresh log under `dir`. Returns (append nanos, sync nanos, bytes on disk).
pub fn wal_probe(dir: &Path, d: &Dataset, rows: usize, syncs: usize) -> (Vec<u64>, Vec<u64>, u64) {
    let mut wal = Wal::create(dir, DIM).expect("wal creates");
    let mut append = Vec::with_capacity(rows);
    for i in 0..rows {
        let t = Instant::now();
        wal.append(d.timestamps[i], d.train.get(i)).expect("wal appends");
        append.push(t.elapsed().as_nanos() as u64);
    }
    let mut sync = Vec::with_capacity(syncs);
    for i in rows..rows + syncs {
        wal.append(d.timestamps[i], d.train.get(i)).expect("wal appends");
        let t = Instant::now();
        wal.sync().expect("wal syncs");
        sync.push(t.elapsed().as_nanos() as u64);
    }
    drop(wal);
    (append, sync, crate::harness::dir_bytes(dir))
}

// ---------------------------------------------------------------------------
// baselines
// ---------------------------------------------------------------------------

pub fn build_bsbf(d: &Dataset, rows: usize) -> Bsbf {
    let mut b = BsbfIndex::new(DIM, Metric::Euclidean);
    for i in 0..rows {
        b.insert(d.train.get(i), d.timestamps[i]).expect("dataset is timestamp-ordered");
    }
    b
}

pub fn bsbf_query(b: &Bsbf, q: &[f32], w: TimeWindow) -> Vec<TknnResult> {
    b.query(q, K, w)
}

// ---------------------------------------------------------------------------
// server + wire
// ---------------------------------------------------------------------------

pub struct ServerUnderTest {
    handle: Option<ServerHandle>,
    pub addr: SocketAddr,
}

/// Starts a server with one empty in-memory tenant; `coalesce` turns on the
/// 2 ms / 16-query collector.
pub fn start_server(coalesce: bool) -> ServerUnderTest {
    let mut config = ServerConfig::new("127.0.0.1:0", index_config())
        .with_tenant(TenantConfig::memory(TENANT, TOKEN))
        .with_engine(engine_config())
        .with_default_deadline(None);
    if coalesce {
        config = config.with_coalescing(Duration::from_millis(2), 16);
    }
    let handle = Server::start(config).expect("server starts");
    ServerUnderTest { addr: handle.addr(), handle: Some(handle) }
}

impl ServerUnderTest {
    /// The tenant's engine, in-process: the reference the wire replies must
    /// equal bit for bit, and the base of `server.overhead_p50_us`.
    pub fn with_engine<T>(&self, f: impl FnOnce(&Engine) -> T) -> T {
        let handle = self.handle.as_ref().expect("server is running");
        let tenant = handle.registry().by_name(TENANT).expect("tenant exists");
        match &tenant.engine {
            TenantEngine::Streaming(e) => f(e),
            _ => unreachable!("the benchmark tenant is a streaming tenant"),
        }
    }
}

impl Drop for ServerUnderTest {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

pub fn connect(addr: SocketAddr) -> Client {
    BinaryClient::connect(addr, TENANT, TOKEN).expect("client connects")
}

/// A binary QUERY; a reply flagged timed-out counts as a failure.
pub fn client_query(c: &mut Client, q: &[f32], w: TimeWindow) -> Result<Vec<TknnResult>, String> {
    let reply = c.query(q, K, w, None).map_err(|e| e.to_string())?;
    if reply.timed_out {
        return Err("query timed out".into());
    }
    Ok(reply.results)
}

pub fn client_insert(c: &mut Client, v: &[f32], t: i64) -> Result<u32, String> {
    c.insert(v, t).map_err(|e| e.to_string())
}

pub fn client_ping(c: &mut Client) -> Result<(), String> {
    c.ping().map_err(|e| e.to_string())
}

/// What the benchmark reads out of the tenant's `/stats` document.
#[derive(Default, Debug)]
pub struct ServerStats {
    pub rows: u64,
    pub queued_builds: u64,
    pub queries: u64,
    pub shed: u64,
    pub coalesce_ratio: f64,
    pub reported_p50_us: f64,
}

pub fn client_stats(c: &mut Client) -> Result<ServerStats, String> {
    let doc =
        serde_json::from_str(&c.stats().map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let num = |section: &str, key: &str| {
        doc.get(section).and_then(|s| s.get(key)).and_then(|v| v.as_f64()).unwrap_or(0.0)
    };
    Ok(ServerStats {
        rows: num("engine", "rows") as u64,
        queued_builds: num("engine", "queued_builds") as u64,
        queries: num("serving", "queries") as u64,
        shed: num("serving", "shed") as u64,
        coalesce_ratio: num("serving", "coalesce_ratio"),
        reported_p50_us: doc
            .get("serving")
            .and_then(|s| s.get("latency"))
            .and_then(|l| l.get("p50_us"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0),
    })
}

/// One HTTP `POST /query` on a fresh connection; returns the status.
pub fn http_query(addr: SocketAddr, q: &[f32], w: TimeWindow) -> Result<u16, String> {
    let body = format!("{{\"vector\":{q:?},\"k\":{K},\"from\":{},\"to\":{}}}", w.start, w.end);
    let auth = format!("Bearer {TOKEN}");
    http_request(addr, "POST", "/query", &[("Authorization", &auth)], &body)
        .map(|(status, _)| status)
        .map_err(|e| e.to_string())
}

/// A bare binary-protocol connection whose request is three separate calls —
/// encode, socket round trip, decode — so the traced round can put a span
/// around each. `BinaryClient::query` is the same three steps in one call.
pub struct RawConn(std::net::TcpStream);

impl RawConn {
    pub fn dial(addr: SocketAddr) -> Result<RawConn, String> {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.write_all(&wire::MAGIC).map_err(|e| e.to_string())?;
        let auth = wire::PayloadWriter::new().str16(TENANT).str16(TOKEN).build();
        let mut conn = RawConn(stream);
        match conn.round_trip(wire::Op::Auth as u8, &auth)? {
            (0, _) => Ok(conn),
            (status, body) => Err(format!("auth: {status} {}", String::from_utf8_lossy(&body))),
        }
    }

    pub fn encode_query(q: &[f32], w: TimeWindow) -> Vec<u8> {
        wire::PayloadWriter::new()
            .u32(K as u32)
            .i64(w.start)
            .i64(w.end)
            .u32(0)
            .u32(q.len() as u32)
            .f32s(q)
            .build()
    }

    /// Sends one frame and reads the reply: (status byte, payload).
    pub fn round_trip(&mut self, op: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), String> {
        wire::write_frame(&mut self.0, op, payload).map_err(|e| e.to_string())?;
        wire::read_frame(&mut self.0)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "server closed mid-call".to_string())
    }

    pub fn query_round_trip(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        match self.round_trip(wire::Op::Query as u8, payload)? {
            (0, body) => Ok(body),
            (status, body) => Err(format!("query: {status} {}", String::from_utf8_lossy(&body))),
        }
    }

    pub fn decode_results(body: &[u8]) -> Result<Vec<TknnResult>, String> {
        wire::decode_results(body).map(|(_, results)| results)
    }
}

/// Encodes then decodes one results payload; returns (encode ns, decode ns).
pub fn wire_roundtrip(results: &[TknnResult], reps: usize) -> (f64, f64) {
    let t = Instant::now();
    let mut payload = Vec::new();
    for _ in 0..reps {
        payload = wire::encode_results(std::hint::black_box(results), 0);
    }
    let encode = t.elapsed().as_nanos() as f64 / reps as f64;
    let t = Instant::now();
    for _ in 0..reps {
        let decoded = wire::decode_results(std::hint::black_box(&payload));
        assert_eq!(decoded.expect("payload decodes").1.len(), results.len());
    }
    (encode, t.elapsed().as_nanos() as f64 / reps as f64)
}

// ---------------------------------------------------------------------------
// math + ann probes
// ---------------------------------------------------------------------------

/// ns per row of the three batch kernels over `rows` in-cache train rows.
pub fn kernel_probe(d: &Dataset, rows: usize, reps: usize) -> (f64, f64, f64) {
    let q = d.test.get(0);
    let flat = &d.train.as_flat()[..rows * DIM];
    let mut out = Vec::with_capacity(rows);
    let per_row = |t: Instant| t.elapsed().as_nanos() as f64 / (reps * rows) as f64;

    let t = Instant::now();
    for _ in 0..reps {
        out.clear();
        mbi_math::squared_euclidean_batch(std::hint::black_box(q), flat, &mut out);
        std::hint::black_box(&out);
    }
    let se = per_row(t);

    let inv: Vec<f32> = (0..rows).map(|i| mbi_math::inv_norm_of(d.train.get(i))).collect();
    let q_inv = mbi_math::inv_norm_of(q);
    let t = Instant::now();
    for _ in 0..reps {
        out.clear();
        mbi_math::angular_batch(std::hint::black_box(q), q_inv, flat, Some(&inv), &mut out);
        std::hint::black_box(&out);
    }
    let angular = per_row(t);

    let codes: Vec<u8> = flat.iter().map(|x| (x.abs() * 255.0) as u8).collect();
    let t = Instant::now();
    for _ in 0..reps {
        out.clear();
        mbi_math::simd::sq8_code_dot_batch(std::hint::black_box(q), &codes, &mut out);
        std::hint::black_box(&out);
    }
    (se, angular, per_row(t))
}

/// ns per `TopK::offer` of a pseudo-random distance stream into a k=10 heap.
pub fn topk_probe(offers: usize) -> f64 {
    let mut rng = crate::harness::SplitMix(17);
    let dists: Vec<f32> = (0..offers).map(|_| rng.unit() as f32).collect();
    let mut top = TopK::new(K);
    let t = Instant::now();
    for rep in 0..8 {
        top.reset(K);
        for (i, &dist) in dists.iter().enumerate() {
            top.offer(i as u32, std::hint::black_box(dist));
        }
        std::hint::black_box((rep, top.worst()));
    }
    t.elapsed().as_nanos() as f64 / (8 * offers) as f64
}

/// Unfiltered graph search over the index's largest block for every test
/// vector: (mean µs, dist evals per search, visited per search).
pub fn graph_search_probe(idx: &Index, d: &Dataset) -> (f64, f64, f64) {
    let block = idx.blocks().iter().max_by_key(|b| b.rows.len()).expect("index has blocks");
    let view = idx.store().slice(block.rows.clone());
    let params = search_params();
    let mut scratch = SearchScratch::new();
    let mut out: Vec<Neighbor> = Vec::new();
    let mut stats = SearchStats::default();
    let n = d.test.len();
    let t = Instant::now();
    for i in 0..n {
        let pq = PreparedQuery::new(Metric::Euclidean, d.test.get(i));
        block.graph.search_prepared(
            view,
            &pq,
            K,
            &params,
            &mut |_| true,
            &mut stats,
            &mut scratch,
            &mut out,
        );
        std::hint::black_box(&out);
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    (us, stats.dist_evals as f64 / n as f64, stats.visited as f64 / n as f64)
}

/// µs per 1 000 rows of the exact scan over the first `rows` rows.
pub fn brute_force_probe(store: &VectorStore, d: &Dataset, rows: usize) -> f64 {
    let view = store.slice(0..rows);
    let mut stats = SearchStats::default();
    let n = d.test.len();
    let t = Instant::now();
    for i in 0..n {
        let pq = PreparedQuery::new(Metric::Euclidean, d.test.get(i));
        std::hint::black_box(brute_force_prepared(view, &pq, K, &mut stats));
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64 / (rows as f64 / 1e3)
}

pub fn index_store(idx: &Index) -> &VectorStore {
    idx.store()
}

/// NNDescent build rate (rows/s) over the first `rows` rows, `threads` wide.
pub fn nndescent_probe(idx: &Index, rows: usize, threads: usize) -> f64 {
    let params = NnDescentParams { degree: DEGREE, ..Default::default() };
    let t = Instant::now();
    let graph = params.build_threaded(idx.store().slice(0..rows), Metric::Euclidean, threads);
    std::hint::black_box(&graph);
    rows as f64 / t.elapsed().as_secs_f64()
}
