//! A panic inside one connection costs that request, never a resource of
//! the server. Compiled only under `RUSTFLAGS='--cfg failpoints'`, in its
//! own test binary so the process-global failpoint registry cannot race
//! other suites.
#![cfg(failpoints)]

use mbi_core::{fail, MbiConfig};
use mbi_math::Metric;
use mbi_server::client::{http_request, BinaryClient};
use mbi_server::{ReplicaSource, Server, ServerConfig, TenantConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn index_config() -> MbiConfig {
    MbiConfig::new(4, Metric::Euclidean).with_leaf_size(8)
}

fn row(i: usize) -> [f32; 4] {
    let x = i as f32;
    [(x * 0.31).sin(), (x * 0.17).cos(), 0.05 * x, 1.0]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbi_connfault_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The server's open-connection gauge as `/stats` reports it; the `/stats`
/// request's own connection is one of them.
fn open_connections(addr: SocketAddr) -> u64 {
    let auth = [("Authorization", "Bearer tok-a"), ("X-Tenant", "alpha")];
    let (status, body) = http_request(addr, "GET", "/stats", &auth, "").expect("stats request");
    assert_eq!(status, 200, "{body}");
    let stats = serde_json::from_str(&body).unwrap();
    stats.get("server").and_then(|s| s.get("connections")).and_then(|c| c.as_u64()).unwrap()
}

/// The leader's connection thread panics mid-reply to a follower's fetch.
/// The follower reconnects and catches up, and once it is gone the leader
/// counts no connection but the one asking, and shuts down at once instead
/// of waiting out its drain timeout for a connection that no longer exists.
#[test]
fn a_panicking_connection_gives_its_slot_back() {
    let ldir = temp_dir("leader");
    let fdir = temp_dir("follower");
    let leader = Server::start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::durable("alpha", "tok-a", &ldir)),
    )
    .unwrap();
    let laddr = leader.addr();
    let mut lc = BinaryClient::connect(laddr, "alpha", "tok-a").unwrap();
    for i in 0..20 {
        lc.insert(&row(i), i as i64).unwrap();
    }
    drop(lc);

    fail::arm("repl::fetch_reply", fail::FailAction::Panic, 0, 1);
    let source =
        ReplicaSource { addr: laddr.to_string(), tenant: "alpha".into(), token: "tok-a".into() };
    let follower = Server::start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::replica("alpha", "tok-a", &fdir, source)),
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while follower.registry().by_name("alpha").unwrap().len() < 20 {
        assert!(Instant::now() < deadline, "follower did not catch up after the panic");
        std::thread::sleep(Duration::from_millis(10));
    }
    fail::disarm_all();
    follower.shutdown();

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut open = open_connections(laddr);
    while open > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        open = open_connections(laddr);
    }
    assert_eq!(open, 1, "only the stats request's own connection is open");

    let started = Instant::now();
    leader.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}
