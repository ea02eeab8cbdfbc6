//! Server and tenant configuration.

use mbi_core::{EngineConfig, MbiConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Where a replica tenant replicates from: the leader's address and the
/// credentials of the leader-side tenant it fetches from.
#[derive(Clone, Debug)]
pub struct ReplicaSource {
    /// Leader address, e.g. `"127.0.0.1:7171"`.
    pub addr: String,
    /// Leader-side tenant name to fetch from.
    pub tenant: String,
    /// That tenant's bearer token.
    pub token: String,
}

/// One tenant: a name, its bearer token, and where its data lives.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Namespace name (appears in `/stats`, never in auth decisions alone).
    pub name: String,
    /// Bearer token. A request must present the `(name, token)` pair; one
    /// tenant's token never grants access to another's namespace.
    pub token: String,
    /// Durable directory for a streaming tenant
    /// ([`StreamingMbi::open`](mbi_core::StreamingMbi::open)): WAL +
    /// checkpoints live here and the tenant recovers from it on restart.
    /// `None` (and no `cold_path`) = in-memory streaming tenant. Required
    /// for a replica tenant (the follower's WAL lives here).
    pub dir: Option<PathBuf>,
    /// Path to a saved index (an `mbi build` output or an engine's
    /// checkpoint) for a read-only cold tenant
    /// ([`ColdIndex`](mbi_core::ColdIndex)); inserts are rejected.
    pub cold_path: Option<PathBuf>,
    /// Present on a replica tenant: the leader to tail. The tenant serves
    /// read-only queries while replicating and rejects inserts until
    /// promoted.
    pub replica_of: Option<ReplicaSource>,
}

impl TenantConfig {
    /// An in-memory streaming tenant.
    pub fn memory(name: impl Into<String>, token: impl Into<String>) -> Self {
        TenantConfig {
            name: name.into(),
            token: token.into(),
            dir: None,
            cold_path: None,
            replica_of: None,
        }
    }

    /// A durable streaming tenant rooted at `dir`.
    pub fn durable(
        name: impl Into<String>,
        token: impl Into<String>,
        dir: impl Into<PathBuf>,
    ) -> Self {
        TenantConfig {
            name: name.into(),
            token: token.into(),
            dir: Some(dir.into()),
            cold_path: None,
            replica_of: None,
        }
    }

    /// A read-only cold tenant served from a saved index file.
    pub fn cold(
        name: impl Into<String>,
        token: impl Into<String>,
        path: impl Into<PathBuf>,
    ) -> Self {
        TenantConfig {
            name: name.into(),
            token: token.into(),
            dir: None,
            cold_path: Some(path.into()),
            replica_of: None,
        }
    }

    /// A replica tenant: a durable follower rooted at `dir` tailing
    /// `source`, serving read-only queries until promoted.
    pub fn replica(
        name: impl Into<String>,
        token: impl Into<String>,
        dir: impl Into<PathBuf>,
        source: ReplicaSource,
    ) -> Self {
        TenantConfig {
            name: name.into(),
            token: token.into(),
            dir: Some(dir.into()),
            cold_path: None,
            replica_of: Some(source),
        }
    }
}

/// Everything [`Server::start`](crate::Server::start) needs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:7171"`. Port `0` picks a free port
    /// (tests read it back from
    /// [`ServerHandle::addr`](crate::ServerHandle::addr)).
    pub addr: String,
    /// Index configuration shared by every streaming tenant (cold tenants
    /// carry their own persisted config).
    pub index: MbiConfig,
    /// Engine tunables. `builder_threads` is the *total* background-build
    /// pool: it is divided evenly across streaming tenants (at least one
    /// each), which approximates a shared pool without cross-engine work
    /// stealing — an idle tenant's builders sleep on their queue and cost
    /// nothing.
    pub engine: EngineConfig,
    /// Accepted-connection cap; beyond it new connections get an immediate
    /// overload response and are closed.
    pub max_connections: usize,
    /// In-flight request cap (the admission gate): a query/insert arriving
    /// while this many are executing is shed with `503`/`Overloaded`
    /// rather than queued.
    pub max_inflight: usize,
    /// Default per-request deadline applied when a request does not carry
    /// its own; `None` = unbounded.
    pub default_deadline: Option<Duration>,
    /// Idle-connection deadline (the slow-loris guard): a connection that
    /// sends no complete request for this long is dropped and counted in
    /// `idle_dropped`. `None` = no deadline. A follower's fetch connection
    /// is no exception: one dropped while the follower applies a batch is
    /// re-dialled, and counted in its `reconnects`.
    pub idle_timeout: Option<Duration>,
    /// Hard cap on one binary frame (and indirectly the request head cap
    /// guards HTTP); larger frames get a clean error and the connection
    /// closes. Clamped to the protocol-wide
    /// [`MAX_FRAME`](crate::wire::MAX_FRAME).
    pub max_frame_bytes: usize,
    /// `/healthz` reports `"degraded"` when any replica tenant lags its
    /// leader by more than this many rows.
    pub replica_lag_warn_rows: u64,
    /// The tenants to serve. Duplicate names or tokens are a start-time
    /// error.
    pub tenants: Vec<TenantConfig>,
}

impl ServerConfig {
    /// A config with production-ish defaults: 256 connections, 64 in-flight
    /// requests, a 2 s default deadline.
    pub fn new(addr: impl Into<String>, index: MbiConfig) -> Self {
        ServerConfig {
            addr: addr.into(),
            index,
            engine: EngineConfig::default(),
            max_connections: 256,
            max_inflight: 64,
            default_deadline: Some(Duration::from_secs(2)),
            idle_timeout: Some(Duration::from_secs(30)),
            max_frame_bytes: crate::wire::MAX_FRAME,
            replica_lag_warn_rows: 10_000,
            tenants: Vec::new(),
        }
    }

    /// Adds a tenant.
    pub fn with_tenant(mut self, tenant: TenantConfig) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Sets the engine tunables (see [`ServerConfig::engine`]).
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Returns `self` unchanged: every query runs on its connection's
    /// thread, so there is no coalescing window to set. Kept only so the
    /// `e2e` benchmark's `start_server` still builds; ROADMAP item 1 (the
    /// next benchmark change) removes it.
    #[deprecated(note = "a no-op; removed with ROADMAP item 1")]
    pub fn with_coalescing(self, _window: Duration, _max_batch: usize) -> Self {
        self
    }

    /// Sets the in-flight request cap.
    pub fn with_max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }

    /// Sets the default per-request deadline (`None` = unbounded).
    pub fn with_default_deadline(mut self, d: Option<Duration>) -> Self {
        self.default_deadline = d;
        self
    }

    /// Sets the connection cap.
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    /// Sets the idle-connection deadline (`None` = never drop idlers).
    pub fn with_idle_timeout(mut self, d: Option<Duration>) -> Self {
        self.idle_timeout = d;
        self
    }

    /// Sets the per-frame size cap (clamped to at least 16 bytes and at
    /// most the protocol-wide maximum).
    pub fn with_max_frame_bytes(mut self, n: usize) -> Self {
        self.max_frame_bytes = n.clamp(16, crate::wire::MAX_FRAME);
        self
    }

    /// Sets the replica-lag threshold at which `/healthz` degrades.
    pub fn with_replica_lag_warn(mut self, rows: u64) -> Self {
        self.replica_lag_warn_rows = rows;
        self
    }
}
