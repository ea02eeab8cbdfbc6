//! The checks of a query's values, made once by the request handler both
//! protocols share, seen from real TCP clients: a query for no neighbours
//! and a query over a reversed window are refused, over HTTP with 400 and
//! over the binary protocol with `BadRequest`, each with its own message,
//! and the binary connection keeps serving.

use mbi_core::{MbiConfig, TimeWindow};
use mbi_math::Metric;
use mbi_server::client::{http_request, BinaryClient, ClientError};
use mbi_server::wire::Status;
use mbi_server::{Server, ServerConfig, TenantConfig};

#[test]
fn queries_for_no_neighbours_or_over_reversed_windows_are_refused_on_both_protocols() {
    let handle = Server::start(
        ServerConfig::new("127.0.0.1:0", MbiConfig::new(4, Metric::Euclidean))
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    )
    .expect("server starts");
    let addr = handle.addr();
    let mut client = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    client.insert(&[0.0; 4], 5).unwrap();
    let auth = [("Authorization", "Bearer tok-a"), ("X-Tenant", "alpha")];
    let cases = [
        (0, TimeWindow::new(0, 100), "k must be positive"),
        (3, TimeWindow { start: 90, end: -7 }, "window start 90 is after end -7"),
    ];
    for (k, window, message) in cases {
        let (from, to) = (window.start, window.end);
        let body = format!(r#"{{"vector":[0,0,0,0],"k":{k},"from":{from},"to":{to}}}"#);
        let (status, answer) = http_request(addr, "POST", "/query", &auth, &body).unwrap();
        assert_eq!(status, 400, "{answer}");
        assert!(answer.contains(message), "{answer}");
        match client.query(&[0.0; 4], k, window, None) {
            Err(ClientError::Server { status: Status::BadRequest, message: m }) => {
                assert_eq!(m, message)
            }
            other => panic!("expected BadRequest {message:?}, got {:?}", other.err()),
        }
    }
    // Both refusals leave the binary connection in step.
    let hit = client.query(&[0.0; 4], 1, TimeWindow::new(0, 100), None).unwrap();
    assert_eq!(hit.results.len(), 1);
    handle.shutdown();
}
