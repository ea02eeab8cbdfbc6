//! Loopback integration tests: a real server on 127.0.0.1, real TCP
//! clients on both protocols.
//!
//! The serving scenarios: two tenants with isolated namespaces and
//! cross-tenant auth rejection, concurrent connections bit-identical to
//! serial, a deadline-exceeded query answered with an error frame while the
//! server keeps serving, graceful shutdown checkpointing every durable
//! tenant's WAL, and a read-only cold tenant served from a snapshot file,
//! whose damaged rows are answered as the server's error.

use mbi_core::{ColdIndex, EngineConfig, MbiConfig, MbiIndex, StreamingMbi, TimeWindow};
use mbi_math::Metric;
use mbi_server::client::{http_request, BinaryClient, ClientError};
use mbi_server::wire::Status;
use mbi_server::{Server, ServerConfig, TenantConfig};
use std::net::SocketAddr;
use std::time::Duration;

fn index_config() -> MbiConfig {
    MbiConfig::new(4, Metric::Euclidean).with_leaf_size(32)
}

fn row(i: usize) -> [f32; 4] {
    let x = i as f32;
    [(x * 0.31).sin(), (x * 0.17).cos(), 0.05 * x, 1.0]
}

fn start(config: ServerConfig) -> (mbi_server::ServerHandle, SocketAddr) {
    let handle = Server::start(config).expect("server starts");
    let addr = handle.addr();
    (handle, addr)
}

#[test]
fn two_tenants_are_isolated_and_cross_tenant_tokens_rejected() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a"))
            .with_tenant(TenantConfig::memory("beta", "tok-b")),
    );

    // Populate the two namespaces with disjoint data over the binary
    // protocol: alpha gets rows 0..40, beta gets rows 1000..1040.
    let mut alpha = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    let mut beta = BinaryClient::connect(addr, "beta", "tok-b").unwrap();
    for i in 0..40 {
        alpha.insert(&row(i), i as i64).unwrap();
        beta.insert(&row(1000 + i), i as i64).unwrap();
    }

    // Each tenant only ever sees its own rows: the nearest neighbour of
    // alpha's first row inside alpha is itself (distance 0), while beta —
    // holding disjoint vectors — answers with a strictly positive distance.
    let a_hit = alpha.query(&row(0), 1, TimeWindow::all(), None).unwrap();
    assert_eq!(a_hit.results[0].dist, 0.0, "alpha finds its own row");
    let b_hit = beta.query(&row(0), 1, TimeWindow::all(), None).unwrap();
    assert!(b_hit.results[0].dist > 0.0, "beta does not hold alpha's rows");

    // Cross-tenant auth: a valid token presented against the *other*
    // namespace is rejected on both protocols.
    match BinaryClient::connect(addr, "beta", "tok-a") {
        Err(ClientError::Server { status: Status::Unauthorized, .. }) => {}
        other => panic!("cross-tenant binary auth should fail, got {other:?}", other = other.err()),
    }
    let (status, body) = http_request(
        addr,
        "POST",
        "/query",
        &[("Authorization", "Bearer tok-a"), ("X-Tenant", "beta")],
        r#"{"vector":[0,0,0,0],"k":1}"#,
    )
    .unwrap();
    assert_eq!(status, 401, "cross-tenant http auth should fail: {body}");

    // Correct HTTP credentials work and answer from the right namespace.
    let (status, body) = http_request(
        addr,
        "POST",
        "/query",
        &[("Authorization", "Bearer tok-b"), ("X-Tenant", "beta")],
        r#"{"vector":[0.5,0.5,0.5,1.0],"k":3}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("results").and_then(|r| r.as_seq()).map(<[_]>::len), Some(3));

    // /healthz needs no auth and lists both tenants as healthy.
    let (status, body) = http_request(addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    let tenants = v.get("tenants").unwrap();
    for name in ["alpha", "beta"] {
        let health = tenants.get(name).unwrap_or_else(|| panic!("{name} in healthz"));
        assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("healthy"));
    }

    // /stats is per-tenant: alpha's view counts alpha's traffic.
    let stats = serde_json::from_str(&alpha.stats().unwrap()).unwrap();
    assert_eq!(stats.get("tenant").and_then(|t| t.as_str()), Some("alpha"));
    let serving = stats.get("serving").unwrap();
    assert_eq!(serving.get("inserts").and_then(|n| n.as_u64()), Some(40));

    handle.shutdown();
}

#[test]
fn concurrent_connections_are_bit_identical_to_serial() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let mut seed = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    for i in 0..200 {
        seed.insert(&row(i), i as i64).unwrap();
    }

    let queries: Vec<[f32; 4]> = (0..8).map(|i| row(i * 25 + 3)).collect();
    let window = TimeWindow::new(10, 180);

    // Serial reference: one connection, one query after another.
    let serial: Vec<_> = queries
        .iter()
        .map(|q| seed.query(q, 5, window, Some(Duration::from_secs(30))).unwrap().results)
        .collect();

    // The same queries as one burst, each on its own connection (and so on
    // its own server thread).
    let concurrent: Vec<Vec<mbi_core::TknnResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                scope.spawn(move || {
                    let mut c = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
                    c.query(q, 5, window, None).unwrap().results
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (got, want)) in concurrent.iter().zip(&serial).enumerate() {
        assert_eq!(got, want, "query {i}: concurrent result differs from serial");
    }

    handle.shutdown();
}

#[test]
fn deadline_exceeded_returns_error_frame_and_server_keeps_serving() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let mut client = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    for i in 0..100 {
        client.insert(&row(i), i as i64).unwrap();
    }

    // An already-expired deadline (0 ms, only expressible over HTTP — the
    // binary encoding reserves 0 for "server default") must come back 408
    // with the partial flag, never a hang or a crash.
    let (status, body) = http_request(
        addr,
        "POST",
        "/query",
        &[("Authorization", "Bearer tok-a")],
        r#"{"vector":[0.1,0.9,0.5,1.0],"k":5,"deadline_ms":0}"#,
    )
    .unwrap();
    assert_eq!(status, 408, "{body}");
    let v = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("timed_out").and_then(|b| b.as_bool()), Some(true));

    // The connection and the server both keep serving afterwards.
    let reply = client.query(&row(7), 3, TimeWindow::all(), Some(Duration::from_secs(30))).unwrap();
    assert_eq!(reply.results.len(), 3);
    assert!(!reply.timed_out);
    let (status, _) = http_request(addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(status, 200);

    // The timeout shows up in the tenant's serving metrics.
    let stats = serde_json::from_str(&client.stats().unwrap()).unwrap();
    let timeouts = stats.get("serving").and_then(|s| s.get("timeouts")).and_then(|t| t.as_u64());
    assert_eq!(timeouts, Some(1));

    handle.shutdown();
}

#[test]
fn graceful_shutdown_checkpoints_durable_tenants() {
    let dir = std::env::temp_dir().join(format!("mbi_server_shutdown_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rows = 75usize;
    {
        let (handle, addr) = start(
            ServerConfig::new("127.0.0.1:0", index_config())
                .with_tenant(TenantConfig::durable("alpha", "tok-a", &dir)),
        );
        let mut client = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
        for i in 0..rows {
            client.insert(&row(i), i as i64).unwrap();
        }
        handle.shutdown();
    }
    // Shutdown checkpointed: the WAL is pruned into the snapshot, and a
    // recovery (what the next `mbi serve` start does) sees every acked row.
    let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
    assert_eq!(engine.len(), rows, "every acked insert survived the drain");
    let hit = engine.query(&row(3), 1, TimeWindow::all());
    assert_eq!(hit[0].dist, 0.0);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold tenant serves a saved index read-only, its partial leaf (the
/// tail record) included: its binary and HTTP answers are the in-process
/// `ColdIndex`'s, an insert is refused on both protocols, and the engine
/// section of its `/stats` holds exactly the kind, the rows and the bytes
/// the tier has checksummed.
#[test]
fn a_cold_tenant_answers_like_its_cold_index_and_refuses_inserts() {
    let path = std::env::temp_dir().join(format!("mbi_server_cold_{}.mbi", std::process::id()));
    let mut idx = MbiIndex::new(index_config());
    for i in 0..140 {
        idx.insert(&row(i), i as i64).unwrap();
    }
    assert_eq!(idx.tail_rows(), 128..140);
    idx.save_file(&path).unwrap();
    let cold = ColdIndex::open(&path).unwrap();
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::cold("archive", "tok-c", &path)),
    );
    let mut client = BinaryClient::connect(addr, "archive", "tok-c").unwrap();
    let auth = [("Authorization", "Bearer tok-c")];
    let windows = [(0, 140), (10, 90), (40, 41), (100, 200), (130, 140)];
    for (i, (from, to)) in windows.into_iter().enumerate() {
        let (q, w) = (row(i * 31 + 5), TimeWindow::new(from, to));
        let want = cold.query(&q, 5, w).unwrap();
        assert!(!want.is_empty(), "{w:?}");
        assert_eq!(client.query(&q, 5, w, None).unwrap().results, want, "binary, {w:?}");
        // Each f32 printed as its exact f64, so the server parses it back
        // bit for bit.
        let vector = q.map(f64::from);
        let body = format!(r#"{{"vector":{vector:?},"k":5,"from":{from},"to":{to}}}"#);
        let (status, body) = http_request(addr, "POST", "/query", &auth, &body).unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::from_str(&body).unwrap();
        let got: Vec<_> = (v.get("results").and_then(|r| r.as_seq()).unwrap().iter())
            .map(|r| {
                let field = |name| r.get(name).unwrap();
                let dist = field("dist").as_f64().unwrap() as f32;
                (field("id").as_u64().unwrap() as u32, field("timestamp").as_i64().unwrap(), dist)
            })
            .collect();
        let want: Vec<_> = want.iter().map(|r| (r.id, r.timestamp, r.dist)).collect();
        assert_eq!(got, want, "http, {w:?}");
    }

    match client.insert(&row(0), 500) {
        Err(ClientError::Server { status: Status::ReadOnly, .. }) => {}
        other => panic!("a binary insert into a cold tenant must be refused, got {other:?}"),
    }
    let body = r#"{"vector":[0.1,0.2,0.3,0.4],"timestamp":500}"#;
    let (status, body) = http_request(addr, "POST", "/insert", &auth, body).unwrap();
    assert_eq!(status, 403, "{body}");

    let stats = serde_json::from_str(&client.stats().unwrap()).unwrap();
    let Some(serde::Value::Map(engine)) = stats.get("engine") else {
        panic!("no engine section in {stats:?}");
    };
    let keys: Vec<&str> = engine.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["kind", "rows", "bytes_verified"]);
    let engine = stats.get("engine").unwrap();
    assert_eq!(engine.get("kind").and_then(|k| k.as_str()), Some("cold"));
    assert_eq!(engine.get("rows").and_then(|r| r.as_u64()), Some(140));
    assert!(engine.get("bytes_verified").and_then(|b| b.as_u64()) > Some(0), "{stats:?}");

    handle.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// A cold tenant whose file has one flipped row byte opens (no check the
/// open runs covers the byte), and the query that reads the row fails its
/// row CRC: the damaged file is the server's fault, so both protocols
/// answer it as an internal error (500 / `Internal`), not as the client's.
#[test]
fn a_corrupt_row_in_a_cold_tenant_is_a_server_error() {
    let path = std::env::temp_dir().join(format!("mbi_server_bad_row_{}.mbi", std::process::id()));
    let mut idx = MbiIndex::new(index_config());
    for i in 0..64 {
        idx.insert(&row(i), i as i64).unwrap();
    }
    idx.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let stored: Vec<u8> = idx.store().get(5).iter().flat_map(|x| x.to_le_bytes()).collect();
    let at = bytes.windows(stored.len()).position(|w| w == stored).expect("row 5 is in the file");
    bytes[at + 1] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::cold("archive", "tok-c", &path)),
    );
    let mut client = BinaryClient::connect(addr, "archive", "tok-c").unwrap();
    match client.query(&row(5), 3, TimeWindow::new(0, 32), None) {
        Err(ClientError::Server { status: Status::Internal, message }) => {
            assert!(message.contains("leaf rows"), "{message}")
        }
        Err(e) => panic!("a corrupt row must be an internal error, got {e}"),
        Ok(_) => panic!("a query over a corrupt row must fail"),
    }
    let auth = [("Authorization", "Bearer tok-c")];
    let body = r#"{"vector":[0.1,0.2,0.3,0.4],"k":3,"from":0,"to":32}"#;
    let (status, body) = http_request(addr, "POST", "/query", &auth, body).unwrap();
    assert_eq!(status, 500, "{body}");
    handle.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn connection_cap_refuses_excess_connections() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a"))
            .with_max_connections(1),
    );
    // First connection occupies the only slot…
    let mut held = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    held.ping().unwrap();
    // …so the next one is refused with an immediate overload response.
    let refused = http_request(addr, "GET", "/healthz", &[], "");
    match refused {
        Ok((status, _)) => assert_eq!(status, 503),
        // The server may also close before the response is readable.
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        Err(e) => panic!("unexpected refusal shape: {e}"),
    }
    drop(held);
    // Slot freed: new connections serve normally again (the accept loop
    // decrements the gauge when the connection thread exits).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok((200, _)) = http_request(addr, "GET", "/healthz", &[], "") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "connection slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

#[test]
fn idle_connections_are_dropped_and_clients_reconnect_transparently() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a"))
            .with_idle_timeout(Some(Duration::from_millis(150))),
    );
    let mut client = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    client.insert(&row(0), 0).unwrap();

    // Hold the connection silent past the idle deadline: the server reaps
    // it (a slow-loris peer would hold a thread forever otherwise)…
    std::thread::sleep(Duration::from_millis(500));

    // …and the client's idempotent path reconnects without surfacing an
    // error to the caller.
    let hit = client.query(&row(0), 1, TimeWindow::all(), None).unwrap();
    assert_eq!(hit.results[0].dist, 0.0, "query served after transparent reconnect");

    let stats = serde_json::from_str(&client.stats().unwrap()).unwrap();
    let dropped = stats.get("server").and_then(|s| s.get("idle_dropped")).and_then(|v| v.as_u64());
    assert!(dropped >= Some(1), "idle reap is counted, got {dropped:?}");
    handle.shutdown();
}

#[test]
fn oversized_binary_frame_is_rejected_and_counted() {
    // A 16-byte frame cap (the floor) admits the AUTH frame for short
    // names but nothing query-sized.
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("a", "t"))
            .with_max_frame_bytes(16),
    );
    let mut client = BinaryClient::connect(addr, "a", "t").unwrap();
    match client.query(&row(0), 1, TimeWindow::all(), None) {
        Err(ClientError::Server { status: Status::BadRequest, message }) => {
            assert!(message.contains("frame too large"), "{message}");
        }
        other => panic!("oversized frame should be refused, got {other:?}", other = other.err()),
    }
    // The guard is observable: a fresh (small-framed) stats call sees the
    // oversize counter.
    let (status, body) = http_request(
        addr,
        "GET",
        "/stats",
        &[("Authorization", "Bearer t"), ("X-Tenant", "a")],
        "",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let stats = serde_json::from_str(&body).unwrap();
    let oversized = stats.get("server").and_then(|s| s.get("oversized")).and_then(|v| v.as_u64());
    assert!(oversized >= Some(1), "oversized frames are counted, got {oversized:?}");
    handle.shutdown();
}

#[test]
fn oversized_http_head_answers_431() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    // A 20 KiB header blows the 16 KiB request-head cap.
    let padding = "x".repeat(20 * 1024);
    let (status, body) =
        http_request(addr, "GET", "/healthz", &[("X-Padding", &padding)], "").unwrap();
    assert_eq!(status, 431, "{body}");
    // The server survives and keeps serving normal requests.
    let (status, _) = http_request(addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn hostile_k_gets_a_reply_and_the_server_keeps_serving() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let mut client = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    for i in 0..40 {
        client.insert(&row(i), i as i64).unwrap();
    }
    // k = u32::MAX over the binary protocol: every row comes back, and the
    // server does not try to reserve a u32::MAX-entry heap first.
    let reply = client.query(&row(3), u32::MAX as usize, TimeWindow::all(), None).unwrap();
    assert_eq!(reply.results.len(), 40);
    assert_eq!(reply.results[0].dist, 0.0);
    // k = u64::MAX over HTTP.
    let (status, body) = http_request(
        addr,
        "POST",
        "/query",
        &[("Authorization", "Bearer tok-a")],
        r#"{"vector":[0.1,0.9,0.5,1.0],"k":18446744073709551615}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("results").and_then(|r| r.as_seq()).map(<[_]>::len), Some(40));
    client.ping().unwrap();
    handle.shutdown();
}

#[test]
fn http_insert_at_i64_max_is_a_bad_request() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let insert = |t: i64| {
        let body = format!(r#"{{"vector":[0.1,0.2,0.3,0.4],"timestamp":{t}}}"#);
        http_request(addr, "POST", "/insert", &[("Authorization", "Bearer tok-a")], &body).unwrap()
    };
    let (status, body) = insert(i64::MAX);
    assert_eq!(status, 400, "{body}");
    assert_eq!(insert(i64::MAX - 1).0, 200, "the largest storable timestamp is accepted");
    let tenant = handle.registry().by_name("alpha").unwrap();
    assert_eq!(tenant.len(), 1, "the rejected row left no trace");
    handle.shutdown();
}

#[test]
fn non_finite_rows_are_bad_requests_on_both_protocols() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let mut client = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    for i in 0..31 {
        client.insert(&row(i), i as i64).unwrap();
    }
    // The next accepted row seals the first leaf; a NaN there used to halt
    // the tenant's builder for good.
    match client.insert(&[0.1, f32::NAN, 0.3, 0.4], 31) {
        Err(ClientError::Server { status: Status::BadRequest, message }) => {
            assert!(message.contains("non-finite"), "{message}");
        }
        other => panic!("a NaN row must be refused, got {other:?}"),
    }
    // JSON has no NaN, but 1e39 overflows f32 to infinity.
    let (status, body) = http_request(
        addr,
        "POST",
        "/insert",
        &[("Authorization", "Bearer tok-a")],
        r#"{"vector":[0.1,1e39,0.3,0.4],"timestamp":31}"#,
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    let tenant = handle.registry().by_name("alpha").unwrap();
    assert_eq!(tenant.len(), 31, "rejected rows left no trace");
    client.insert(&row(31), 31).unwrap();
    let hit = client.query(&row(31), 1, TimeWindow::all(), None).unwrap();
    assert_eq!(hit.results[0].dist, 0.0);
    assert!(!tenant.health().is_halted());
    handle.shutdown();
}

/// A scripted binary-protocol server: it accepts every connection, answers
/// AUTH, and answers each INSERT with the request's timestamp as the row id
/// — after `slow` when the timestamp is 1. Returns its address.
fn scripted_server(slow: Duration) -> SocketAddr {
    use mbi_server::wire::{self, PayloadReader};
    use std::io::{BufReader, Read};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(conn) = conn else { return };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(&conn);
                let mut magic = [0u8; 4];
                reader.read_exact(&mut magic).unwrap();
                assert_eq!(magic, wire::MAGIC);
                while let Ok(Some((op, payload))) = wire::read_frame(&mut reader) {
                    let reply = if op == wire::Op::Insert as u8 {
                        let ts = PayloadReader::new(&payload).i64().unwrap();
                        if ts == 1 {
                            std::thread::sleep(slow);
                        }
                        (ts as u32).to_le_bytes().to_vec()
                    } else {
                        Vec::new()
                    };
                    if wire::write_frame(&mut &conn, Status::Ok as u8, &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn a_reply_that_arrives_after_its_timeout_is_never_read_as_the_next_answer() {
    let addr = scripted_server(Duration::from_millis(300));
    let mut client = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    client.set_timeout(Some(Duration::from_millis(100))).unwrap();
    match client.insert(&row(1), 1) {
        Err(ClientError::Io(e)) => {
            assert!(matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ))
        }
        other => panic!("the slow insert should time out, got {other:?}"),
    }
    // Let the late reply to request 1 land on the old connection.
    std::thread::sleep(Duration::from_millis(400));
    // The re-dial's AUTH reply need not beat 100 ms on a loaded host.
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    // Request 2 must get its own answer (id 2), not request 1's stale one.
    assert_eq!(client.insert(&row(2), 2).unwrap(), 2);
    assert_eq!(client.insert(&row(3), 3).unwrap(), 3);
}

/// Runs `stop` on a server bound to `addr` that no client ever connected
/// to, and fails if it has not returned within 2 s: the accept loop blocks
/// in `accept()`, and only the wake-up connection can end it.
fn stops_within_two_seconds(addr: &str, stop: fn(mbi_server::ServerHandle)) {
    let (handle, _) = start(
        ServerConfig::new(addr, index_config()).with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let (done, returned) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        stop(handle);
        let _ = done.send(());
    });
    returned.recv_timeout(Duration::from_secs(2)).expect("stop returned within 2 s");
}

#[test]
fn shutdown_of_an_idle_server_returns_promptly() {
    stops_within_two_seconds("127.0.0.1:0", mbi_server::ServerHandle::shutdown);
}

#[test]
fn abort_of_an_idle_server_returns_promptly() {
    stops_within_two_seconds("127.0.0.1:0", mbi_server::ServerHandle::abort);
}

#[test]
fn a_server_bound_to_the_unspecified_address_is_woken_through_loopback() {
    stops_within_two_seconds("0.0.0.0:0", mbi_server::ServerHandle::shutdown);
}
