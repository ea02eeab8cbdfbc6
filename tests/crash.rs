//! Crash-safety proof suite: durable engines must recover **exactly the
//! acked prefix** of their insert stream under every failure we can
//! simulate — process death without flush or checkpoint, torn final WAL
//! writes, bit flips and truncations of WAL segments and snapshot files,
//! and (with `RUSTFLAGS='--cfg failpoints'`) panics injected mid-build, IO
//! errors injected into the WAL writer, and panics on the publish path.
//!
//! The headline assertion, repeated throughout: after recovery,
//! `flush() + to_index().to_bytes()` is **bit-identical** to a synchronous
//! [`MbiIndex`] fed the same acked rows. Not "similar recall" — the same
//! graphs, the same bytes.
//!
//! The fault-injection half of the suite is compiled only under
//! `--cfg failpoints` (CI runs it as a dedicated job); the file-corruption
//! half runs in every configuration.

use mbi::{
    EngineConfig, MbiConfig, MbiError, MbiIndex, Metric, SearchParams, StreamingMbi, TimeWindow,
    WalSync,
};
use std::path::PathBuf;

const SNAPSHOT_FILE: &str = mbi::core::engine::SNAPSHOT_FILE;
const WAL_DIR: &str = mbi::core::engine::WAL_DIR;

fn config() -> MbiConfig {
    MbiConfig::new(3, Metric::Euclidean).with_leaf_size(16).with_search(SearchParams::new(32, 1.2))
}

fn row(i: usize) -> [f32; 3] {
    let x = i as f32;
    [(x * 0.31).sin() + 1.5, (x * 0.17).cos() + 1.5, 0.05 * x]
}

/// A synchronous index fed rows `0..n` — the recovery oracle.
fn sync_index(n: usize) -> MbiIndex {
    let mut idx = MbiIndex::new(config());
    for i in 0..n {
        idx.insert(&row(i), i as i64).unwrap();
    }
    idx
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbi_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The last (highest-numbered) WAL segment file in the engine dir.
fn last_wal_segment(dir: &std::path::Path) -> PathBuf {
    let mut segs: Vec<PathBuf> =
        std::fs::read_dir(dir.join(WAL_DIR)).unwrap().map(|e| e.unwrap().path()).collect();
    segs.sort();
    segs.pop().expect("wal directory is empty")
}

fn first_wal_segment(dir: &std::path::Path) -> PathBuf {
    let mut segs: Vec<PathBuf> =
        std::fs::read_dir(dir.join(WAL_DIR)).unwrap().map(|e| e.unwrap().path()).collect();
    segs.sort();
    segs.into_iter().next().expect("wal directory is empty")
}

fn assert_recovered_equals_sync(dir: &std::path::Path, n: usize) {
    let engine = StreamingMbi::recover(dir, EngineConfig::default()).unwrap();
    assert_eq!(engine.len(), n, "recovered row count");
    let recovered = engine.to_index();
    assert_eq!(recovered.validate(), Ok(()));
    assert_eq!(
        recovered.to_bytes(),
        sync_index(n).to_bytes(),
        "recovered index is bit-identical to a synchronous build of the acked prefix"
    );
}

#[test]
fn drop_without_checkpoint_recovers_every_acked_row() {
    let dir = temp_dir("no_checkpoint");
    {
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        for i in 0..53usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
        // Dropped mid-stream: builds may be queued, nothing checkpointed.
    }
    assert_recovered_equals_sync(&dir, 53);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_final_wal_record_is_truncated_not_fatal() {
    let dir = temp_dir("torn_tail");
    let n = 20usize; // leaf 16 → one rotated segment + 4 rows in the current
    {
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        for i in 0..n {
            engine.insert(&row(i), i as i64).unwrap();
        }
    }
    // Simulate dying inside an append: half a record at the end of the
    // *last* segment. It was never acked, so recovery drops it silently.
    let seg = last_wal_segment(&dir);
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x21, 0x00, 0x00, 0x00, 0xAB, 0xCD]); // len + partial crc
    std::fs::write(&seg, &bytes).unwrap();
    assert_recovered_equals_sync(&dir, n);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_recovery_then_new_inserts_share_one_log() {
    // After a torn-tail recovery the log is truncated back to the last
    // record boundary; new inserts must append cleanly from there.
    let dir = temp_dir("torn_then_grow");
    {
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        for i in 0..10usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
    }
    let seg = last_wal_segment(&dir);
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0xFF; 11]);
    std::fs::write(&seg, &bytes).unwrap();
    {
        let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
        assert_eq!(engine.len(), 10);
        for i in 10..40usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
    }
    assert_recovered_equals_sync(&dir, 40);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_bitflip_in_sealed_segment_is_wal_corrupt() {
    let dir = temp_dir("wal_flip");
    {
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        for i in 0..40usize {
            // two sealed leaves → two rotated segments
            engine.insert(&row(i), i as i64).unwrap();
        }
    }
    // Flip a payload byte mid-record in the *first* (sealed) segment:
    // corruption before the final record is data loss, not a torn tail.
    let seg = first_wal_segment(&dir);
    let mut bytes = std::fs::read(&seg).unwrap();
    let pos = bytes.len() / 2;
    bytes[pos] ^= 0x40;
    std::fs::write(&seg, &bytes).unwrap();
    match StreamingMbi::recover(&dir, EngineConfig::default()) {
        Err(MbiError::WalCorrupt { segment: 0, offset }) => {
            assert!(offset > 0, "offset points at the corrupt record");
        }
        other => panic!("expected WalCorrupt in segment 0, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_bitflip_is_rejected_at_recovery() {
    let dir = temp_dir("snap_flip");
    {
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        for i in 0..48usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
        engine.checkpoint().unwrap();
    }
    let snap_path = dir.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let pos = bytes.len() / 3;
    bytes[pos] ^= 0x04;
    std::fs::write(&snap_path, &bytes).unwrap();
    let err = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap_err();
    assert!(
        matches!(err, MbiError::ChecksumMismatch { .. } | MbiError::Corrupt { .. }),
        "expected checksum/corruption error, got {err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_snapshot_is_rejected_at_recovery() {
    let dir = temp_dir("snap_trunc");
    {
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        for i in 0..32usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
        engine.checkpoint().unwrap();
    }
    let snap_path = dir.join(SNAPSHOT_FILE);
    let bytes = std::fs::read(&snap_path).unwrap();
    std::fs::write(&snap_path, &bytes[..bytes.len() - 7]).unwrap();
    assert!(StreamingMbi::recover(&dir, EngineConfig::default()).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_then_crash_replays_only_the_suffix() {
    let dir = temp_dir("suffix");
    {
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        for i in 0..32usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
        engine.checkpoint().unwrap(); // 2 leaves persisted, WAL pruned
        for i in 32..59usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
        // crash: the 27 post-checkpoint rows exist only in the WAL
    }
    assert_recovered_equals_sync(&dir, 59);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_sync_always_survives_unsynced_drop_path() {
    // WalSync::Always fsyncs inside insert, so durability cannot depend on
    // the Drop-time sync. (We cannot SIGKILL ourselves in-process; the
    // fsync-before-ack ordering is the load-bearing property.)
    let dir = temp_dir("sync_always");
    {
        let engine = StreamingMbi::open(
            &dir,
            config(),
            EngineConfig::default().with_wal_sync(WalSync::Always),
        )
        .unwrap();
        for i in 0..21usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
    }
    assert_recovered_equals_sync(&dir, 21);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_engine_answers_windowed_queries_exactly() {
    let dir = temp_dir("queries");
    let n = 45usize;
    {
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        for i in 0..n {
            engine.insert(&row(i), i as i64).unwrap();
        }
    }
    let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
    let sync = sync_index(n);
    for (s, e) in [(0i64, n as i64), (5, 20), (30, 45), (44, 45)] {
        let w = TimeWindow::new(s, e);
        let q = row(7);
        assert_eq!(engine.exact_query(&q, 5, w), sync.exact_query(&q, 5, w), "window [{s},{e})");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tiered_checkpoint_crash_recovers_bit_identically_and_serves_cold() {
    use mbi::ColdIndex;
    // The engine's checkpoint file is a snapshot stream, so after a crash
    // the same file must (a) recover the engine bit-identically and (b) open
    // directly as a ColdIndex whose answers match the recovered snapshot.
    let dir = temp_dir("tiered");
    let cfg = config();
    let n = 64usize;
    {
        let engine = StreamingMbi::open(&dir, cfg, EngineConfig::default()).unwrap();
        for i in 0..48usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
        engine.checkpoint().unwrap();
        for i in 48..n {
            engine.insert(&row(i), i as i64).unwrap();
        }
        // crash: rows 48.. exist only in the WAL
    }
    // A kill mid-checkpoint can only leave a torn *temp* file behind — the
    // write-then-rename protocol never exposes a partial snapshot under the
    // live name. Recovery must shrug the leftover off.
    std::fs::write(dir.join(format!("{SNAPSHOT_FILE}.tmp")), b"torn mid-checkpoint").unwrap();
    let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
    assert_eq!(engine.len(), n, "recovered row count");
    let recovered = engine.to_index();
    assert_eq!(recovered.validate(), Ok(()));
    let mut oracle = MbiIndex::new(cfg);
    for i in 0..n {
        oracle.insert(&row(i), i as i64).unwrap();
    }
    assert_eq!(recovered.to_bytes(), oracle.to_bytes(), "recovery is bit-identical");
    // Re-checkpoint, then serve the fresh checkpoint through the cold tier:
    // every answer must match the in-RAM snapshot that wrote it.
    engine.checkpoint().unwrap();
    let cold = ColdIndex::open(dir.join(SNAPSHOT_FILE)).unwrap();
    let snap = engine.snapshot();
    assert_eq!(cold.len(), snap.sealed_rows());
    for (s, e) in [(0i64, n as i64), (3, 40), (17, 18), (50, 64)] {
        let w = TimeWindow::new(s, e);
        let q = row(11);
        assert_eq!(
            cold.query(&q, 5, w).unwrap(),
            snap.query_with_params(&q, 5, w, &cfg.search).results,
            "cold tier answer for window [{s},{e})"
        );
        assert_eq!(cold.exact_query(&q, 5, w).unwrap(), snap.exact_query(&q, 5, w));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn server_killed_mid_ingest_recovers_every_tenant_bit_identically() {
    use mbi::server::client::BinaryClient;
    use mbi::server::{Server, ServerConfig, TenantConfig};

    // Two durable tenants ingest over TCP, then the server "dies":
    // `ServerHandle::abort` leaks the engines so no Drop runs — no WAL
    // sync, no checkpoint, no builder join — the in-process stand-in for
    // SIGKILL. With `WalSync::Always` every *acked* insert was fsynced
    // before its response frame, so recovery owes us exactly the acked
    // rows, bit-identically, in each tenant's namespace.
    let base = temp_dir("server_abort");
    let dirs = [base.join("alpha"), base.join("beta")];
    let rows = [33usize, 51];
    {
        let server_config = ServerConfig::new("127.0.0.1:0", config())
            .with_engine(EngineConfig::default().with_wal_sync(WalSync::Always))
            .with_tenant(TenantConfig::durable("alpha", "tok-a", &dirs[0]))
            .with_tenant(TenantConfig::durable("beta", "tok-b", &dirs[1]));
        let handle = Server::start(server_config).unwrap();
        let addr = handle.addr();
        let mut alpha = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
        let mut beta = BinaryClient::connect(addr, "beta", "tok-b").unwrap();
        // Interleaved ingest so both WALs are mid-stream at the kill.
        for i in 0..rows[1] {
            if i < rows[0] {
                alpha.insert(&row(i), i as i64).unwrap();
            }
            beta.insert(&row(i + 100), i as i64).unwrap();
        }
        handle.abort(); // no drain, no checkpoint, engines leaked
    }
    for (dir, n, offset) in [(&dirs[0], rows[0], 0usize), (&dirs[1], rows[1], 100)] {
        let engine = StreamingMbi::recover(dir, EngineConfig::default()).unwrap();
        assert_eq!(engine.len(), n, "acked rows in {}", dir.display());
        let recovered = engine.to_index();
        assert_eq!(recovered.validate(), Ok(()));
        let mut oracle = MbiIndex::new(config());
        for i in 0..n {
            oracle.insert(&row(i + offset), i as i64).unwrap();
        }
        assert_eq!(
            recovered.to_bytes(),
            oracle.to_bytes(),
            "tenant at {} recovered bit-identically",
            dir.display()
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// Fault-injection half: compiled only with `RUSTFLAGS='--cfg failpoints'`.
/// The failpoint registry is process-global, so these tests serialise on a
/// mutex and disarm everything on entry and exit.
#[cfg(failpoints)]
mod failpoints {
    use super::*;
    use mbi::core::fail::{self, FailAction};
    use mbi::EngineHealth;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner());
        fail::disarm_all();
        guard
    }

    /// Drops the guard *after* disarming, so a passing test never leaks an
    /// armed site into the next one.
    struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for Armed {
        fn drop(&mut self) {
            fail::disarm_all();
        }
    }

    /// Asserts `engine` halted on chain `chain` with the injected panic.
    fn assert_halted_on(engine: &StreamingMbi, chain: usize) {
        match engine.health() {
            EngineHealth::Halted { chain: c, error } => {
                assert_eq!(c, chain);
                assert!(error.contains(fail::INJECTED_MSG), "{error}");
            }
            other => panic!("expected Halted on chain {chain}, got {other:?}"),
        }
    }

    #[test]
    fn builder_panic_halts_without_wedging_inserts_or_queries() {
        let _g = Armed(serial());
        // The first chain's build panics once. Builds are deterministic, so
        // the engine does not retry: it halts at once, and later rows keep
        // flowing into the snapshot's unbuilt leaves and the tail.
        fail::arm("builder::build", FailAction::Panic, 0, 1);
        let engine = StreamingMbi::with_engine_config(config(), EngineConfig::default());
        let mut sync = MbiIndex::new(config());
        for i in 0..40usize {
            engine.insert(&row(i), i as i64).unwrap();
            sync.insert(&row(i), i as i64).unwrap();
        }
        // flush() must return (not hang) on a halted engine.
        engine.flush();
        assert_halted_on(&engine, 0);
        assert_eq!(engine.stats().build_panics, 1, "one panic, no retry");
        assert_eq!(engine.stats().published_leaves, 0, "publication frozen");

        // The regression the poisoning locks used to cause: inserts and
        // queries keep working after a builder panic, and answers stay
        // exact (the unpublished region is served by exact scan).
        for i in 40..50usize {
            engine.insert(&row(i), i as i64).unwrap();
            sync.insert(&row(i), i as i64).unwrap();
        }
        let w = TimeWindow::new(0, 50);
        let q = row(23);
        assert_eq!(engine.exact_query(&q, 7, w), sync.exact_query(&q, 7, w));
        assert_eq!(
            engine.query(&q, 7, w),
            sync.exact_query(&q, 7, w),
            "unbuilt leaves scan exactly"
        );
    }

    /// A halted engine holds whole leaves no block covers, which no
    /// `MbiIndex` can hold (its tail is shorter than a leaf): `to_index`
    /// refuses with the halted chain and its panic message.
    #[test]
    fn halted_engine_refuses_to_index() {
        let _g = Armed(serial());
        fail::arm("builder::build", FailAction::Panic, 0, 1);
        let engine = StreamingMbi::with_engine_config(config(), EngineConfig::default());
        for i in 0..40usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
        engine.flush();
        assert_halted_on(&engine, 0);
        let refusal = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.to_index()))
            .expect_err("to_index must refuse a halted engine");
        let msg = refusal.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.contains("chain 0") && msg.contains(fail::INJECTED_MSG), "{msg}");
        assert_eq!(engine.len(), 40, "the engine keeps serving its rows");
    }

    #[test]
    fn halted_engine_builds_no_later_chain() {
        let _g = Armed(serial());
        // A rendezvous queue and one builder: a seal's send returns only
        // when the builder takes its chain, i.e. once it has finished every
        // earlier chain. So after the four seals below, at least three
        // later chains have been run — and must have built nothing.
        fail::arm("builder::build", FailAction::Panic, 0, 1);
        let engine =
            StreamingMbi::with_engine_config(config(), EngineConfig::default().with_queue_depth(0));
        let mut sync = MbiIndex::new(config());
        for i in 0..16usize {
            engine.insert(&row(i), i as i64).unwrap();
            sync.insert(&row(i), i as i64).unwrap();
        }
        engine.flush();
        assert_halted_on(&engine, 0);
        let before = engine.stats();
        fail::disarm_all();
        for i in 16..16 * 5 {
            engine.insert(&row(i), i as i64).unwrap();
            sync.insert(&row(i), i as i64).unwrap();
        }
        engine.flush();
        let after = engine.stats();
        assert_eq!(after.seals, 5);
        assert_eq!(
            after.build_nanos.len(),
            before.build_nanos.len(),
            "no chain built after the halt"
        );
        assert_eq!(after.build_panics, 1);
        assert_eq!(after.published_leaves, 0);
        assert_halted_on(&engine, 0);
        let w = TimeWindow::all();
        for q in [row(3), row(40), row(77)] {
            assert_eq!(engine.exact_query(&q, 5, w), sync.exact_query(&q, 5, w));
            assert_eq!(engine.query(&q, 5, w), sync.exact_query(&q, 5, w));
        }
    }

    #[test]
    fn halted_tenant_fails_healthz() {
        use mbi::server::client::{http_request, BinaryClient};
        use mbi::server::{Server, ServerConfig, TenantConfig};

        let _g = Armed(serial());
        fail::arm("builder::build", FailAction::Panic, 0, 1);
        let handle = Server::start(
            ServerConfig::new("127.0.0.1:0", config())
                .with_tenant(TenantConfig::memory("photos", "tok-p")),
        )
        .unwrap();
        let addr = handle.addr();
        let mut client = BinaryClient::connect(addr, "photos", "tok-p").unwrap();
        for i in 0..16usize {
            client.insert(&row(i), i as i64).unwrap();
        }
        // The leaf's chain panics on the tenant's builder thread.
        let tenant = handle.registry().by_name("photos").unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !tenant.health().is_halted() {
            assert!(std::time::Instant::now() < deadline, "tenant never halted");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }

        let (status, body) = http_request(addr, "GET", "/healthz", &[], "").unwrap();
        assert_eq!(status, 503, "{body}");
        let doc = client.health().unwrap();
        assert!(doc.contains(r#""status":"halted""#), "{doc}");
        assert!(doc.contains(r#""halted":true"#), "{doc}");
        assert!(doc.contains("chain 0 panicked: injected fault"), "{doc}");
        // /healthz carries the same per-tenant document as the HEALTH frame.
        assert_eq!(body, format!(r#"{{"status":"halted","tenants":{{"photos":{doc}}}}}"#));

        let q = row(5);
        let hits = client.query(&q, 3, TimeWindow::all(), None).unwrap();
        assert_eq!(hits.results, sync_index(16).exact_query(&q, 3, TimeWindow::all()));
        handle.shutdown();
    }

    #[test]
    fn injected_wal_io_error_rejects_insert_without_losing_state() {
        let _g = Armed(serial());
        let dir = temp_dir("wal_io_err");
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        for i in 0..5usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
        fail::arm("wal::append", FailAction::IoError, 0, 1);
        let err = engine.insert(&row(5), 5).unwrap_err();
        assert!(matches!(err, MbiError::Io(_)), "{err:?}");
        assert_eq!(engine.len(), 5, "failed insert left no partial state");
        // The same row goes through once the fault clears, and recovery
        // sees exactly the acked stream.
        engine.insert(&row(5), 5).unwrap();
        for i in 6..23usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
        drop(engine);
        assert_recovered_equals_sync(&dir, 23);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_short_write_is_rolled_back_and_rejected() {
        let _g = Armed(serial());
        let dir = temp_dir("wal_short");
        let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
        fail::arm("wal::append", FailAction::ShortWrite, 0, 1);
        assert!(engine.insert(&row(0), 0).is_err(), "short write must not ack");
        assert_eq!(engine.len(), 0);
        for i in 0..19usize {
            engine.insert(&row(i), i as i64).unwrap();
        }
        drop(engine);
        // The rolled-back partial record must not poison the log.
        assert_recovered_equals_sync(&dir, 19);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spawn_failure_falls_back_to_inline_builds() {
        let _g = Armed(serial());
        fail::arm("builder::spawn", FailAction::IoError, 0, 1);
        let engine = StreamingMbi::with_engine_config(config(), EngineConfig::default());
        let mut sync = MbiIndex::new(config());
        for i in 0..33usize {
            engine.insert(&row(i), i as i64).unwrap();
            sync.insert(&row(i), i as i64).unwrap();
        }
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.spawn_failures, 1);
        assert_eq!(stats.inline_builds, 2, "both seals built inline");
        assert_eq!(stats.published_leaves, 2);
        assert_eq!(engine.to_index().to_bytes(), sync.to_bytes());
    }

    #[test]
    fn publish_path_panic_halts_and_keeps_serving() {
        let _g = Armed(serial());
        // Panic *after* staging, before the frontier advance and the
        // snapshot swap — the nastiest spot. The engine halts; the published
        // snapshot stays valid and every row stays served.
        fail::arm("engine::publish", FailAction::Panic, 0, 1);
        let engine = StreamingMbi::with_engine_config(config(), EngineConfig::default());
        let mut sync = MbiIndex::new(config());
        for i in 0..16usize {
            engine.insert(&row(i), i as i64).unwrap();
            sync.insert(&row(i), i as i64).unwrap();
        }
        engine.flush();
        assert_halted_on(&engine, 0);
        assert_eq!(engine.stats().build_panics, 1);
        assert_eq!(engine.snapshot().validate(), Ok(()));
        // The frontier the stats report is the one the snapshot serves.
        let frontier = engine.snapshot().num_leaves();
        assert_eq!(engine.stats().published_leaves, frontier);

        for i in 16..40usize {
            engine.insert(&row(i), i as i64).unwrap();
            sync.insert(&row(i), i as i64).unwrap();
        }
        engine.flush();
        assert_eq!(engine.snapshot().validate(), Ok(()));
        // Later seals publish no block: the panicked chain stays staged.
        assert_eq!(engine.snapshot().num_leaves(), frontier);
        assert_eq!(engine.stats().published_leaves, frontier);
        let q = row(29);
        let all = TimeWindow::all();
        assert_eq!(engine.exact_query(&q, 7, all), sync.exact_query(&q, 7, all));
        // Past the first leaf every row is an unbuilt leaf or the tail: exact.
        let recent = TimeWindow::new(16, 40);
        assert_eq!(engine.query(&q, 7, recent), sync.exact_query(&q, 7, recent));
    }

    #[test]
    fn kill_mid_build_then_recover_is_bit_identical() {
        let _g = Armed(serial());
        let dir = temp_dir("kill_mid_build");
        let n = 37usize;
        {
            // The first build dies and halts the engine, so every chain
            // stays unbuilt — the closest in-process approximation of
            // killing the process mid-chain. All rows are in the WAL, none
            // published.
            fail::arm("builder::build", FailAction::Panic, 0, 1000);
            let engine = StreamingMbi::open(&dir, config(), EngineConfig::default()).unwrap();
            for i in 0..n {
                engine.insert(&row(i), i as i64).unwrap();
            }
            engine.flush();
            assert_halted_on(&engine, 0);
            assert_eq!(engine.snapshot().num_leaves(), 0);
        }
        fail::disarm_all();
        // Recovery rebuilds every chain from the log, bit-identically.
        assert_recovered_equals_sync(&dir, n);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
