//! Per-tenant namespaces: one engine per tenant, bearer-token auth, and the
//! division of shared builder threads across tenants.

use crate::config::{ReplicaSource, ServerConfig, TenantConfig};
use crate::metrics::TenantMetrics;
use crate::replicate::ReplicaState;
use crate::wire::Status;
use mbi_core::{
    ColdIndex, EngineHealth, MbiConfig, MbiError, QueryOutput, Replica, StreamingMbi, TimeWindow,
};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The engine behind one tenant.
pub enum TenantEngine {
    /// A live streaming engine (in-memory or durable).
    Streaming(StreamingMbi),
    /// A read-only disk-tiered index; inserts are rejected.
    Cold(Box<ColdIndex>),
    /// A replication follower: a durable engine fed from a leader, serving
    /// read-only queries until promoted.
    Replica {
        /// The follower applier around the durable engine.
        replica: Arc<Replica>,
        /// Live link state (lag, connectivity, reconnects).
        state: Arc<ReplicaState>,
        /// The leader this tenant tails.
        source: ReplicaSource,
    },
}

/// What the leader knows about one follower (keyed by the follower id its
/// `REPL_FETCH` requests carry).
#[derive(Clone, Copy, Debug)]
pub struct FollowerInfo {
    /// Highest row the follower fetched from: every row below it is
    /// durable at the follower.
    pub acked_row: u64,
    /// Fetch connections of this follower currently open; it is connected
    /// while this is not zero.
    pub links: usize,
}

/// What answers a tenant's reads: the [`StreamingMbi`] of a streaming or a
/// replica tenant, or a cold tenant's file.
pub(crate) enum Reader<'a> {
    /// A streaming engine, a replica's included.
    Streaming(&'a StreamingMbi),
    /// A read-only disk-tiered index.
    Cold(&'a ColdIndex),
}

/// One tenant: engine + token + serving metrics.
pub struct Tenant {
    /// Namespace name.
    pub name: String,
    token: String,
    /// The tenant's engine.
    pub engine: TenantEngine,
    /// The engine's index config.
    config: MbiConfig,
    /// Serving counters (latency, shed, timeouts).
    pub metrics: TenantMetrics,
    /// Leader-side registry of followers (empty unless this tenant has ever
    /// answered a `REPL_FETCH`).
    pub followers: Mutex<BTreeMap<String, FollowerInfo>>,
}

impl Tenant {
    /// Constant-length-agnostic token comparison. Tokens are short and this
    /// is not a remote-timing-hardened service, but avoiding the obvious
    /// early-exit compare costs nothing.
    pub fn token_matches(&self, presented: &str) -> bool {
        let a = self.token.as_bytes();
        let b = presented.as_bytes();
        if a.len() != b.len() {
            return false;
        }
        a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
    }

    /// Vector dimensionality this tenant expects.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The engine that answers this tenant's reads.
    pub(crate) fn reader(&self) -> Reader<'_> {
        match &self.engine {
            TenantEngine::Streaming(e) => Reader::Streaming(e),
            TenantEngine::Replica { replica, .. } => Reader::Streaming(replica.engine()),
            TenantEngine::Cold(c) => Reader::Cold(c),
        }
    }

    /// One query with an optional cooperative deadline, on the calling
    /// thread, under the config's search parameters. Only a cold tenant
    /// fails, when a row or adjacency chunk it reads fails its check.
    pub fn query(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        deadline: Option<Instant>,
    ) -> Result<QueryOutput, TenantError> {
        let search = &self.config.search;
        match self.reader() {
            Reader::Streaming(e) => Ok(e.query_with_deadline(query, k, window, search, deadline)),
            Reader::Cold(c) => Ok(c.query_with_deadline(query, k, window, search, deadline)?),
        }
    }

    /// One insert; read-only tenants reject it. A replica accepts inserts
    /// only once promoted.
    pub fn insert(&self, vector: &[f32], t: i64) -> Result<u32, TenantError> {
        match &self.engine {
            TenantEngine::Streaming(e) => Ok(e.insert(vector, t)?),
            TenantEngine::Replica { replica, .. } if replica.is_promoted() => {
                Ok(replica.engine().insert(vector, t)?)
            }
            _ => Err(TenantError::ReadOnly),
        }
    }

    /// Promotes a replica tenant (manual failover): verifies its WAL tail,
    /// checkpoints, and opens it for writes. Errors on non-replica tenants.
    pub fn promote(&self) -> Result<(), TenantError> {
        let TenantEngine::Replica { replica, .. } = &self.engine else {
            return Err(TenantError::NotReplica);
        };
        Ok(replica.promote()?)
    }

    /// Rows this replica lags its leader by (`None` for non-replicas).
    /// Lag is against the highest leader row count observed over the link,
    /// so a disconnected follower reports its last-known lag, not zero.
    pub fn replication_lag_rows(&self) -> Option<u64> {
        let TenantEngine::Replica { replica, state, .. } = &self.engine else { return None };
        Some(state.leader_rows.load(Ordering::Relaxed).saturating_sub(replica.next_row()))
    }

    /// Rows currently committed.
    pub fn len(&self) -> usize {
        match self.reader() {
            Reader::Streaming(e) => e.len(),
            Reader::Cold(c) => c.len(),
        }
    }

    /// Whether the tenant holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Engine health (cold tenants are immutable, hence always healthy).
    pub fn health(&self) -> EngineHealth {
        match self.reader() {
            Reader::Streaming(e) => e.health(),
            Reader::Cold(_) => EngineHealth::Healthy,
        }
    }

    /// Engine-level stats as JSON: the scalar `EngineStats` counters for a
    /// streaming tenant, `TierStats` for a cold one. (The per-sample nano
    /// series stay in-process — up to 65 536 samples each, they belong to
    /// the bench harness, not a stats endpoint.)
    pub fn engine_stats_value(&self) -> Value {
        match &self.engine {
            TenantEngine::Streaming(e) => {
                let s = e.stats();
                Value::Map(vec![
                    ("kind".into(), Value::Str("streaming".into())),
                    ("rows".into(), Value::UInt(e.len() as u64)),
                    ("seals".into(), Value::UInt(s.seals as u64)),
                    ("published_leaves".into(), Value::UInt(s.published_leaves as u64)),
                    ("queued_builds".into(), Value::UInt(s.queued_builds as u64)),
                    ("published_blocks".into(), Value::UInt(s.published_blocks as u64)),
                    ("published_height".into(), Value::UInt(u64::from(s.published_height))),
                    ("inline_builds".into(), Value::UInt(s.inline_builds)),
                    ("spawn_failures".into(), Value::UInt(s.spawn_failures)),
                    ("build_panics".into(), Value::UInt(s.build_panics)),
                ])
            }
            TenantEngine::Cold(c) => {
                let t = c.stats();
                Value::Map(vec![
                    ("kind".into(), Value::Str("cold".into())),
                    ("rows".into(), Value::UInt(c.len() as u64)),
                    ("bytes_verified".into(), Value::UInt(t.bytes_verified)),
                ])
            }
            TenantEngine::Replica { replica, state, source } => {
                let rows = replica.next_row();
                let leader_rows = state.leader_rows.load(Ordering::Relaxed);
                let lag = leader_rows.saturating_sub(rows);
                let leaf = self.config.leaf_size.max(1) as u64;
                let (duplicates, verified, unverified) = replica.apply_counters();
                let last_error =
                    state.last_error.lock().ok().and_then(|e| e.clone()).unwrap_or_default();
                Value::Map(vec![
                    ("kind".into(), Value::Str("replica".into())),
                    ("rows".into(), Value::UInt(rows)),
                    ("leader".into(), Value::Str(format!("{}/{}", source.addr, source.tenant))),
                    ("leader_rows".into(), Value::UInt(leader_rows)),
                    ("lag_rows".into(), Value::UInt(lag)),
                    ("lag_segments".into(), Value::UInt(lag / leaf)),
                    ("connected".into(), Value::Bool(state.connected.load(Ordering::Relaxed))),
                    ("promoted".into(), Value::Bool(replica.is_promoted())),
                    ("reconnects".into(), Value::UInt(state.reconnects.load(Ordering::Relaxed))),
                    ("duplicates_skipped".into(), Value::UInt(duplicates)),
                    ("seals_verified".into(), Value::UInt(verified)),
                    ("seals_unverified".into(), Value::UInt(unverified)),
                    ("last_error".into(), Value::Str(last_error)),
                ])
            }
        }
    }

    /// The leader-side follower section of `/stats`: per-follower acked
    /// row, rows behind, and segments behind. `None` when this tenant has
    /// never had a follower.
    pub fn followers_value(&self) -> Option<Value> {
        let followers = self.followers.lock().ok()?;
        if followers.is_empty() {
            return None;
        }
        let rows = self.len() as u64;
        let leaf = self.config.leaf_size.max(1) as u64;
        let entries = followers
            .iter()
            .map(|(id, info)| {
                let behind = rows.saturating_sub(info.acked_row);
                (
                    id.clone(),
                    Value::Map(vec![
                        ("acked_row".into(), Value::UInt(info.acked_row)),
                        ("rows_behind".into(), Value::UInt(behind)),
                        ("segments_behind".into(), Value::UInt(behind / leaf)),
                        ("connected".into(), Value::Bool(info.links > 0)),
                    ]),
                )
            })
            .collect();
        Some(Value::Map(entries))
    }

    /// Health as JSON: stable label, halted flag, and a failure log that is
    /// empty or names the panicked chain and its panic message.
    pub fn health_value(&self) -> Value {
        let health = self.health();
        let failure_log = match &health {
            EngineHealth::Healthy => Vec::new(),
            EngineHealth::Halted { chain, error } => {
                vec![Value::Str(format!("chain {chain} panicked: {error}"))]
            }
        };
        Value::Map(vec![
            ("status".into(), Value::Str(health.label().into())),
            ("halted".into(), Value::Bool(health.is_halted())),
            ("failure_log".into(), Value::Seq(failure_log)),
        ])
    }
}

/// Errors a tenant operation can surface to the protocol layer.
#[derive(Debug)]
pub enum TenantError {
    /// Insert on a cold (read-only) tenant.
    ReadOnly,
    /// Promotion of a tenant that does not follow a leader.
    NotReplica,
    /// The engine rejected the operation.
    Engine(MbiError),
}

impl TenantError {
    /// The one mapping onto both protocols: the HTTP status and the binary
    /// frame status. A row the engine refuses, a write to a read-only
    /// tenant and a promotion of a non-replica are the client's error;
    /// every other engine failure (I/O, the WAL, a checksum, a log that
    /// will not promote) is the server's, so the client may retry.
    pub(crate) fn status(&self) -> (u16, Status) {
        match self {
            TenantError::ReadOnly => (403, Status::ReadOnly),
            TenantError::NotReplica
            | TenantError::Engine(
                MbiError::DimensionMismatch { .. }
                | MbiError::NonMonotonicTimestamp { .. }
                | MbiError::TimestampOutOfRange { .. }
                | MbiError::NonFiniteVector,
            ) => (400, Status::BadRequest),
            TenantError::Engine(_) => (500, Status::Internal),
        }
    }
}

impl From<MbiError> for TenantError {
    fn from(e: MbiError) -> Self {
        TenantError::Engine(e)
    }
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::ReadOnly => write!(f, "tenant is read-only"),
            TenantError::NotReplica => write!(f, "tenant is not a replica"),
            TenantError::Engine(e) => write!(f, "{e}"),
        }
    }
}

/// A server config the tenants cannot be built from.
fn invalid(message: String) -> MbiError {
    MbiError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, message))
}

/// All tenants of one server, resolved at start-up.
pub struct TenantRegistry {
    tenants: Vec<Arc<Tenant>>,
}

impl TenantRegistry {
    /// Builds every tenant's engine from the server config.
    ///
    /// Shared-resource division: `engine.builder_threads` is split evenly
    /// across streaming tenants (each gets at least 1) — the documented
    /// approximation of one shared pool. A cold tenant maps its file; the
    /// kernel's page cache decides what of it stays resident.
    pub fn build(config: &ServerConfig) -> Result<TenantRegistry, MbiError> {
        for (i, a) in config.tenants.iter().enumerate() {
            for b in &config.tenants[i + 1..] {
                if a.name == b.name {
                    return Err(invalid(format!("duplicate tenant name {:?}", a.name)));
                }
                if a.token == b.token {
                    return Err(invalid(format!(
                        "tenants {:?} and {:?} share a token",
                        a.name, b.name
                    )));
                }
            }
        }
        let streaming = config.tenants.iter().filter(|t| t.cold_path.is_none()).count().max(1);
        let mut engine = config.engine;
        engine.builder_threads = (engine.builder_threads / streaming).max(1);
        let mut tenants = Vec::with_capacity(config.tenants.len());
        for tc in &config.tenants {
            let (engine, index) = Self::build_engine(config, tc, engine)?;
            tenants.push(Arc::new(Tenant {
                name: tc.name.clone(),
                token: tc.token.clone(),
                engine,
                config: index,
                metrics: TenantMetrics::default(),
                followers: Mutex::new(BTreeMap::new()),
            }));
        }
        Ok(TenantRegistry { tenants })
    }

    /// One tenant's engine, and the index config it runs with.
    fn build_engine(
        config: &ServerConfig,
        tc: &TenantConfig,
        engine: mbi_core::EngineConfig,
    ) -> Result<(TenantEngine, MbiConfig), MbiError> {
        if let Some(source) = &tc.replica_of {
            let dir = (tc.dir.as_ref()).ok_or_else(|| {
                invalid(format!("replica tenant {:?} needs a durable dir", tc.name))
            })?;
            let replica = Arc::new(Replica::open(dir, config.index, engine)?);
            let index = *replica.engine().config();
            let state = Arc::new(ReplicaState::default());
            return Ok((TenantEngine::Replica { replica, state, source: source.clone() }, index));
        }
        if let Some(path) = &tc.cold_path {
            let cold = ColdIndex::open(path)?;
            let index = *cold.config();
            return Ok((TenantEngine::Cold(Box::new(cold)), index));
        }
        let streaming = match &tc.dir {
            Some(dir) => StreamingMbi::open(dir, config.index, engine)?,
            None => StreamingMbi::with_engine_config(config.index, engine),
        };
        let index = *streaming.config();
        Ok((TenantEngine::Streaming(streaming), index))
    }

    /// Resolves a `(tenant, token)` pair. Both must match: a valid token
    /// for tenant A presented against tenant B's namespace is rejected,
    /// which is the cross-tenant isolation property the integration tests
    /// assert.
    pub fn authenticate(&self, name: &str, token: &str) -> Option<&Arc<Tenant>> {
        self.tenants.iter().find(|t| t.name == name).filter(|t| t.token_matches(token))
    }

    /// Resolves a token alone to its unique tenant (the convenience path
    /// for single-tenant clients that do not name a namespace).
    pub fn by_token(&self, token: &str) -> Option<&Arc<Tenant>> {
        self.tenants.iter().find(|t| t.token_matches(token))
    }

    /// Looks a tenant up by name (no auth — used for metrics attribution).
    pub fn by_name(&self, name: &str) -> Option<&Arc<Tenant>> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// All tenants.
    pub fn all(&self) -> &[Arc<Tenant>] {
        &self.tenants
    }

    /// Whether any tenant's engine is halted (drives the `/healthz` status
    /// code).
    pub fn any_halted(&self) -> bool {
        self.tenants.iter().any(|t| t.health().is_halted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tenant_error_maps_to_one_status_per_protocol() {
        let client = (400, Status::BadRequest);
        let server = (500, Status::Internal);
        let engine = |e| TenantError::Engine(e);
        for (err, want) in [
            (TenantError::ReadOnly, (403, Status::ReadOnly)),
            (TenantError::NotReplica, client),
            (engine(MbiError::DimensionMismatch { expected: 2, got: 3 }), client),
            (engine(MbiError::NonMonotonicTimestamp { newest: 5, got: 4 }), client),
            (engine(MbiError::TimestampOutOfRange { got: i64::MAX }), client),
            (engine(MbiError::NonFiniteVector), client),
            (engine(MbiError::Corrupt { offset: 8, detail: "bad".into() }), server),
            (engine(MbiError::ChecksumMismatch { section: "data", expected: 1, got: 2 }), server),
            (engine(MbiError::WalCorrupt { segment: 0, offset: 120 }), server),
            (engine(MbiError::ReplicaDiverged { segment: 0, offset: 24 }), server),
            (engine(MbiError::Io(std::io::Error::other("disk full"))), server),
        ] {
            assert_eq!(err.status(), want, "{err}");
        }
    }
}
