//! `mbi-server` — a multi-tenant network query service for the MBI engine.
//!
//! Exposes [`StreamingMbi`](mbi_core::StreamingMbi) (and read-only
//! [`ColdIndex`](mbi_core::ColdIndex) tenants) over TCP with two protocols
//! on one port:
//!
//! * **HTTP/1.1 + JSON** — `POST /query`, `POST /insert`, `GET /stats`,
//!   `GET /healthz`; bearer-token auth; debuggable with `curl`.
//! * **Binary** — a compact length-prefixed framing opened by the 4-byte
//!   magic `MBI1` (see [`wire`]); the throughput path.
//!
//! Both are hand-rolled on `std::net` + per-connection threads: the build
//! environment is offline, so tokio/axum/hyper are unavailable and the
//! workspace's vendored-stand-in discipline applies (no async runtime is
//! worth stubbing — blocking threads serve the tested load fine).
//!
//! The server owns four concerns the engine itself does not:
//!
//! 1. **Tenancy** ([`tenant`]) — one engine per named tenant, bearer-token
//!    auth, builder threads divided across tenants.
//! 2. **Admission control** ([`server`]) — a connection cap, a bounded
//!    in-flight request gate that sheds load with `503`/`Overloaded`
//!    instead of queueing unboundedly, and per-request deadlines that cut
//!    off stragglers with `408`/`Timeout` via the engine's cooperative
//!    deadline check. Each query runs on its connection's thread.
//! 3. **Replication** ([`replicate`]) — WAL-shipped read replicas over the
//!    binary protocol: followers fetch sealed segments plus the live tail
//!    from a leader in request-sized batches, serve read-only queries while
//!    they tail, verify every segment handoff by CRC (divergence is a named
//!    error, never silent drift), survive link faults with jittered
//!    backoff, and can be promoted to writable primaries on failover.
//! 4. **Observability** ([`metrics`]) — per-tenant p50/p99/max latency,
//!    QPS, queue depth, replication lag, and the engine's
//!    own stats/health/tier counters as JSON.

// deny (not forbid): the signal module needs one audited `extern "C"` FFI
// declaration for SIGINT/SIGTERM, mirroring the mapped-I/O exception in
// `mbi-ann`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod http;
pub mod metrics;
pub mod replicate;
pub mod server;
pub mod signal;
pub mod tenant;
pub mod wire;

pub use client::{BinaryClient, ClientError, RetryPolicy};
pub use config::{ReplicaSource, ServerConfig, TenantConfig};
pub use metrics::{LatencyHistogram, ServerMetrics, TenantMetrics};
pub use replicate::ReplicaState;
pub use server::{Server, ServerHandle};
pub use tenant::{FollowerInfo, Tenant, TenantEngine, TenantRegistry};
