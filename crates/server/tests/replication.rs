//! Loopback replication tests: a real leader server and a real follower
//! server on 127.0.0.1, wired through `REPL_FETCH` over the binary
//! protocol.
//!
//! The issue's acceptance scenario lives here: a follower serving read-only
//! queries while it lags, catching up to a bit-identical copy of the
//! leader's index, then being promoted and accepting writes.

use mbi_core::{MbiConfig, TimeWindow};
use mbi_math::Metric;
use mbi_server::client::{http_request, BinaryClient, ClientError};
use mbi_server::wire::Status;
use mbi_server::{ReplicaSource, Server, ServerConfig, TenantConfig, TenantEngine};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// A small leaf so a few dozen inserts cross several segment seals.
fn index_config() -> MbiConfig {
    MbiConfig::new(4, Metric::Euclidean).with_leaf_size(8)
}

fn row(i: usize) -> [f32; 4] {
    let x = i as f32;
    [(x * 0.31).sin(), (x * 0.17).cos(), 0.05 * x, 1.0]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbi_repl_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(config: ServerConfig) -> (mbi_server::ServerHandle, SocketAddr) {
    let handle = Server::start(config).expect("server starts");
    let addr = handle.addr();
    (handle, addr)
}

/// Polls until the named tenant holds `rows`, panicking after `wait`.
fn wait_for_rows(handle: &mbi_server::ServerHandle, name: &str, rows: usize, wait: Duration) {
    let deadline = Instant::now() + wait;
    loop {
        let got = handle.registry().by_name(name).expect("tenant exists").len();
        if got >= rows {
            return;
        }
        assert!(Instant::now() < deadline, "follower stuck at {got}/{rows} rows");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn follower_serves_while_lagging_then_promotes_and_accepts_writes() {
    let ldir = temp_dir("leader");
    let fdir = temp_dir("follower");

    // Leader: one durable streaming tenant, populated over the binary
    // protocol *before* the follower exists — it must backfill from row 0.
    let (leader, laddr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::durable("alpha", "tok-a", &ldir)),
    );
    let mut lc = BinaryClient::connect(laddr, "alpha", "tok-a").unwrap();
    for i in 0..100 {
        lc.insert(&row(i), i as i64).unwrap();
    }

    // Follower: a replica tenant tailing the leader.
    let source =
        ReplicaSource { addr: laddr.to_string(), tenant: "alpha".into(), token: "tok-a".into() };
    let (follower, faddr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::replica("alpha", "tok-a", &fdir, source)),
    );

    // The follower serves reads from the instant it starts — even before
    // (and while) it catches up — and refuses writes.
    let mut fc = BinaryClient::connect(faddr, "alpha", "tok-a").unwrap();
    let early = fc.query(&row(3), 1, TimeWindow::all(), None).unwrap();
    assert!(early.results.len() <= 1, "read-only query is served while lagging");
    match fc.insert(&row(0), 0) {
        Err(ClientError::Server { status: Status::ReadOnly, .. }) => {}
        other => panic!("insert on an unpromoted replica must be ReadOnly, got {other:?}"),
    }

    // Catch-up: the tailing thread backfills all 100 rows.
    wait_for_rows(&follower, "alpha", 100, Duration::from_secs(20));
    let hit = fc.query(&row(3), 1, TimeWindow::all(), None).unwrap();
    assert_eq!(hit.results[0].dist, 0.0, "replicated row answers with distance zero");

    // Live tail: new leader rows arrive without a resubscribe.
    for i in 100..120 {
        lc.insert(&row(i), i as i64).unwrap();
    }
    wait_for_rows(&follower, "alpha", 120, Duration::from_secs(20));

    // Leader-side observability: /stats lists the follower with its lag.
    let stats = serde_json::from_str(&lc.stats().unwrap()).unwrap();
    let entry = stats
        .get("followers")
        .and_then(|f| f.get("alpha"))
        .expect("leader /stats lists the subscribed follower");
    assert_eq!(entry.get("connected").and_then(|c| c.as_bool()), Some(true));
    assert!(entry.get("rows_behind").and_then(|r| r.as_u64()).is_some());

    // The acceptance bar: the follower's index is *bit-identical* to the
    // leader's, not merely the same row count.
    let lt = leader.registry().by_name("alpha").unwrap();
    let ft = follower.registry().by_name("alpha").unwrap();
    let TenantEngine::Streaming(le) = &lt.engine else { panic!("leader tenant is streaming") };
    let TenantEngine::Replica { replica, state, .. } = &ft.engine else {
        panic!("follower tenant is a replica")
    };
    le.flush();
    replica.engine().flush();
    assert_eq!(
        le.to_index().to_bytes(),
        replica.engine().to_index().to_bytes(),
        "follower is bit-identical to the leader"
    );
    assert!(state.connected.load(Ordering::Relaxed), "link is up");

    // Failover: promote the follower and it starts accepting writes.
    fc.promote().unwrap();
    fc.insert(&row(120), 120).unwrap();
    assert_eq!(follower.registry().by_name("alpha").unwrap().len(), 121);
    let fstats = serde_json::from_str(&fc.stats().unwrap()).unwrap();
    let engine = fstats.get("engine").expect("tenant stats carry an engine section");
    assert_eq!(engine.get("kind").and_then(|k| k.as_str()), Some("replica"));
    assert_eq!(engine.get("promoted").and_then(|p| p.as_bool()), Some(true));

    follower.shutdown();
    leader.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn healthz_degrades_when_replication_lag_exceeds_threshold() {
    let fdir = temp_dir("laggy");
    // The leader address is a closed port: the follower retries in the
    // background and simply stays behind.
    let source =
        ReplicaSource { addr: "127.0.0.1:1".into(), tenant: "alpha".into(), token: "t".into() };
    let (follower, faddr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_replica_lag_warn(10)
            .with_tenant(TenantConfig::replica("alpha", "tok-a", &fdir, source)),
    );

    // No leader observed yet → lag unknown (zero) → healthy.
    let (status, body) = http_request(faddr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));

    // Simulate an observed-then-lost leader far ahead of us: lag 1000
    // rows against a warn threshold of 10.
    let tenant = follower.registry().by_name("alpha").unwrap();
    let TenantEngine::Replica { state, .. } = &tenant.engine else { panic!("replica tenant") };
    state.leader_rows.store(1000, Ordering::Relaxed);
    assert_eq!(tenant.replication_lag_rows(), Some(1000));

    // Degraded, but still 200: the replica keeps serving stale reads.
    let (status, body) = http_request(faddr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("degraded"), "{body}");

    follower.shutdown();
    let _ = std::fs::remove_dir_all(&fdir);
}
