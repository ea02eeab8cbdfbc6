//! Link-level fault injection over real loopback replication, compiled only
//! under `RUSTFLAGS='--cfg failpoints'`. Lives in its own test binary so
//! the process-global failpoint registry cannot race the clean replication
//! tests.
#![cfg(failpoints)]

use mbi_core::{fail, MbiConfig};
use mbi_math::Metric;
use mbi_server::client::BinaryClient;
use mbi_server::{ReplicaSource, Server, ServerConfig, TenantConfig, TenantEngine};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The failpoint registry is process-global; serialise the tests so one
/// stream cannot consume the other's armed fault.
static SERIAL: Mutex<()> = Mutex::new(());

fn index_config() -> MbiConfig {
    MbiConfig::new(4, Metric::Euclidean).with_leaf_size(8)
}

fn row(i: usize) -> [f32; 4] {
    let x = i as f32;
    [(x * 0.31).sin(), (x * 0.17).cos(), 0.05 * x, 1.0]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbi_replfault_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A frame torn mid-record on the wire (half the bytes, then a severed
/// socket) must not corrupt the follower: it reconnects from its durable
/// cursor and converges bit-identically.
#[test]
fn torn_push_frame_reconnects_and_converges_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ldir = temp_dir("torn_leader");
    let fdir = temp_dir("torn_follower");
    let leader = Server::start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::durable("alpha", "tok-a", &ldir)),
    )
    .unwrap();
    let mut lc = BinaryClient::connect(leader.addr(), "alpha", "tok-a").unwrap();
    for i in 0..60 {
        lc.insert(&row(i), i as i64).unwrap();
    }

    // The first fetch reply, all 60 records, sends half its frame and
    // severs the socket: the follower has applied none of them.
    fail::arm("repl::fetch_reply", fail::FailAction::ShortWrite, 0, 1);
    let source = ReplicaSource {
        addr: leader.addr().to_string(),
        tenant: "alpha".into(),
        token: "tok-a".into(),
    };
    let follower = Server::start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::replica("alpha", "tok-a", &fdir, source)),
    )
    .unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = follower.registry().by_name("alpha").unwrap().len();
        if got >= 60 {
            break;
        }
        assert!(Instant::now() < deadline, "follower stuck at {got}/60 after torn frame");
        std::thread::sleep(Duration::from_millis(10));
    }
    fail::disarm_all();

    let lt = leader.registry().by_name("alpha").unwrap();
    let ft = follower.registry().by_name("alpha").unwrap();
    let TenantEngine::Streaming(le) = &lt.engine else { panic!("leader tenant is streaming") };
    let TenantEngine::Replica { replica, state, .. } = &ft.engine else {
        panic!("follower tenant is a replica")
    };
    assert!(state.reconnects.load(Ordering::Relaxed) >= 1, "the torn link forced a reconnect");
    le.flush();
    replica.engine().flush();
    assert_eq!(
        le.to_index().to_bytes(),
        replica.engine().to_index().to_bytes(),
        "follower is bit-identical after surviving a torn frame"
    );

    follower.shutdown();
    leader.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// A clean disconnect between frames (injected `IoError` on the push path)
/// is transparent: reconnect, resume, converge.
#[test]
fn disconnect_between_frames_is_transparent() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ldir = temp_dir("disc_leader");
    let fdir = temp_dir("disc_follower");
    let leader = Server::start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::durable("beta", "tok-b", &ldir)),
    )
    .unwrap();
    let mut lc = BinaryClient::connect(leader.addr(), "beta", "tok-b").unwrap();
    for i in 0..40 {
        lc.insert(&row(i), i as i64).unwrap();
    }

    // Sever the link at the second fetch, after the first reply's batch.
    fail::arm("repl::fetch_reply", fail::FailAction::IoError, 1, 1);
    let source = ReplicaSource {
        addr: leader.addr().to_string(),
        tenant: "beta".into(),
        token: "tok-b".into(),
    };
    let follower = Server::start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::replica("beta", "tok-b", &fdir, source)),
    )
    .unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = follower.registry().by_name("beta").unwrap().len();
        if got >= 40 {
            break;
        }
        assert!(Instant::now() < deadline, "follower stuck at {got}/40 after disconnect");
        std::thread::sleep(Duration::from_millis(10));
    }
    fail::disarm_all();

    let lt = leader.registry().by_name("beta").unwrap();
    let ft = follower.registry().by_name("beta").unwrap();
    let TenantEngine::Streaming(le) = &lt.engine else { panic!("leader tenant is streaming") };
    let TenantEngine::Replica { replica, .. } = &ft.engine else {
        panic!("follower tenant is a replica")
    };
    le.flush();
    replica.engine().flush();
    assert_eq!(le.to_index().to_bytes(), replica.engine().to_index().to_bytes());

    follower.shutdown();
    leader.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}
