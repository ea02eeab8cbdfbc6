//! The network half of replication: the leader's `REPL_FETCH` handler and
//! the follower's tailing thread.
//!
//! The durable substrate lives in [`mbi_core::replicate`] ([`WalFeed`] on
//! the leader, [`Replica`] on the follower); this module moves its events
//! over the binary protocol as ordinary requests. A follower asks for the
//! events from its own row count on ([`Op::ReplFetch`]); the leader answers
//! with one batch in one OK frame. Each fetch also moves the follower's WAL
//! retention hold to the row it asked for, so segments a live follower
//! still needs outlast `checkpoint`'s pruning; a follower lagging past the
//! configured cap is evicted from the hold table instead of wedging prune,
//! after which its cursor eventually points at a pruned segment and the
//! fetch is answered with a terminal error ("re-seed").
//!
//! The follower retries its link forever with bounded-exponential jittered
//! backoff (reusing the client's [`RetryPolicy`]) — a leader restart is a
//! transient; only divergence, eviction, a config mismatch and local
//! promotion are terminal.

use crate::client::{BinaryClient, ClientError, RetryPolicy};
use crate::config::ReplicaSource;
use crate::server::Shared;
use crate::tenant::{FollowerInfo, Tenant, TenantEngine};
use crate::wire::{self, Op, Status};
use mbi_core::{fail, MbiError, ReplEvent, Replica, WalFeed};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long the follower waits after an empty batch before it fetches
/// again, and the slice its backoff sleeps in between stop-flag checks.
const LINK_POLL: Duration = Duration::from_millis(20);
/// How long the follower waits for one fetch reply before it drops the
/// link (bounds its shutdown behind a stalled leader).
const FETCH_TIMEOUT: Duration = Duration::from_secs(2);
/// Most records in one fetch reply.
const FEED_BATCH: usize = 256;
/// The follower checkpoints after every this many seals, bounding replay
/// work after a follower crash.
const CHECKPOINT_EVERY_SEALS: u64 = 8;
/// Event tags of a fetch reply, and the bytes each event takes before its
/// vector.
const RECORD: u8 = 0;
const SEAL: u8 = 1;
const RECORD_BYTES: usize = 1 + 8 + 8;
const SEAL_BYTES: usize = 1 + 8 + 4;

/// Live link state of one replica tenant, shared between its tailing
/// thread and the stats/health endpoints.
#[derive(Debug, Default)]
pub struct ReplicaState {
    /// Highest leader row count observed over the link (lag numerator).
    pub leader_rows: AtomicU64,
    /// Whether the follower's fetch connection is currently open.
    pub connected: AtomicBool,
    /// Times the link was re-established after a failure.
    pub reconnects: AtomicU64,
    /// The most recent link error, for `/stats`.
    pub last_error: Mutex<Option<String>>,
}

impl ReplicaState {
    /// Fresh state: disconnected, no lag observed.
    pub fn new() -> Self {
        Self::default()
    }

    fn note_error(&self, message: &str) {
        if let Ok(mut slot) = self.last_error.lock() {
            *slot = Some(message.to_string());
        }
    }
}

// ---------------------------------------------------------------------------
// Leader side
// ---------------------------------------------------------------------------

/// A follower's fetch connection on the leader: the follower counts as
/// connected in `/stats` from its first fetch until this drops with the
/// connection.
pub(crate) struct FollowerLink {
    tenant: Arc<Tenant>,
    id: String,
}

impl Drop for FollowerLink {
    fn drop(&mut self) {
        if let Ok(mut followers) = self.tenant.followers.lock() {
            if let Some(info) = followers.get_mut(&self.id) {
                info.links = info.links.saturating_sub(1);
            }
        }
    }
}

/// Records in one reply: [`FEED_BATCH`], or fewer when that many
/// `dim`-float records, each perhaps followed by a seal, would not fit one
/// frame.
fn batch_records(dim: usize) -> usize {
    let per_record = RECORD_BYTES + SEAL_BYTES + 4 * dim;
    ((wire::MAX_FRAME - 64) / per_record).clamp(1, FEED_BATCH)
}

/// Answers one `REPL_FETCH`: moves the follower's retention hold to
/// `from_row` and replies with the next batch of the leader's WAL feed from
/// there, laid out as the [`wire`] module doc sets out. A feed error is
/// answered with its message. `link` is the connection's follower
/// registration; a new one replaces (and so uncounts) the old.
pub(crate) fn serve_fetch(
    payload: &[u8],
    tenant: &Arc<Tenant>,
    link: &mut Option<FollowerLink>,
) -> (Status, Vec<u8>) {
    let mut r = wire::PayloadReader::new(payload);
    let parsed = (|| {
        let id = r.str16()?;
        let from_row = r.u64()?;
        r.finish()?;
        Ok::<_, String>((id, from_row))
    })();
    let (id, from_row) = match parsed {
        Ok(p) => p,
        Err(m) => return (Status::BadRequest, m.into_bytes()),
    };
    let TenantEngine::Streaming(engine) = &tenant.engine else {
        return (Status::BadRequest, b"only a streaming tenant can lead replication".to_vec());
    };
    engine.set_replica_hold(&id, from_row);
    let config = engine.config();
    let batch = WalFeed::for_engine(engine, from_row)
        .and_then(|mut feed| feed.next_batch(batch_records(config.dim)));
    let events = match batch {
        Ok(events) => events,
        Err(e) => return (Status::Internal, e.to_string().into_bytes()),
    };
    let linked = link.as_ref().is_some_and(|l| l.id == id && Arc::ptr_eq(&l.tenant, tenant));
    if let Ok(mut followers) = tenant.followers.lock() {
        let info = followers.entry(id.clone()).or_insert(FollowerInfo { acked_row: 0, links: 0 });
        info.acked_row = info.acked_row.max(from_row);
        info.links += usize::from(!linked);
    }
    if !linked {
        *link = Some(FollowerLink { tenant: Arc::clone(tenant), id });
    }
    let mut w = wire::PayloadWriter::new()
        .u32(config.dim as u32)
        .u32(config.leaf_size as u32)
        .u64(engine.len() as u64)
        .u32(events.len() as u32);
    for event in &events {
        w = match event {
            ReplEvent::Record { row, timestamp, vector } => {
                w.u8(RECORD).u64(*row).i64(*timestamp).f32s(vector)
            }
            ReplEvent::Seal { segment, crc } => w.u8(SEAL).u64(*segment).u32(*crc),
        };
    }
    (Status::Ok, w.build())
}

/// The fetch reply's failpoint, `repl::fetch_reply`: `ShortWrite` sends a
/// torn prefix of the reply frame and `IoError` sends nothing, and either
/// is an error on which the caller drops the connection; `Panic` kills the
/// connection thread mid-reply.
pub(crate) fn reply_fault(out: &mut impl Write, response: &[u8]) -> std::io::Result<()> {
    let injected = || std::io::Error::other(fail::INJECTED_MSG);
    match fail::trigger("repl::fetch_reply") {
        Some(fail::FailAction::ShortWrite) => {
            let mut frame = Vec::new();
            wire::push_frame(&mut frame, Status::Ok as u8, response)?;
            out.write_all(&frame[..frame.len() / 2])?;
            Err(injected())
        }
        Some(fail::FailAction::IoError) => Err(injected()),
        Some(fail::FailAction::Panic) => panic!("injected leader crash mid-reply"),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Follower side
// ---------------------------------------------------------------------------

/// One decoded fetch reply.
struct Batch {
    dim: usize,
    leaf_size: usize,
    leader_rows: u64,
    events: Vec<ReplEvent>,
}

/// Decodes a whole fetch reply (see [`serve_fetch`]). Nothing is reserved
/// from the announced count: every event takes its bytes from the payload
/// before it is kept.
fn decode_batch(payload: &[u8]) -> Result<Batch, String> {
    let mut r = wire::PayloadReader::new(payload);
    let dim = r.u32()? as usize;
    let leaf_size = r.u32()? as usize;
    let leader_rows = r.u64()?;
    let count = r.u32()?;
    let mut events = Vec::new();
    for _ in 0..count {
        events.push(match r.u8()? {
            RECORD => {
                ReplEvent::Record { row: r.u64()?, timestamp: r.i64()?, vector: r.f32s(dim)? }
            }
            SEAL => ReplEvent::Seal { segment: r.u64()?, crc: r.u32()? },
            tag => return Err(format!("unknown event tag {tag}")),
        });
    }
    r.finish()?;
    Ok(Batch { dim, leaf_size, leader_rows, events })
}

/// How one link attempt ended.
enum LinkEnd {
    /// Shutdown or promotion — stop tailing.
    Stopped,
    /// Unrecoverable (divergence, eviction, config mismatch) — stop tailing
    /// and leave the reason in `last_error`.
    Terminal(String),
    /// Transient (connect refused, leader restart, torn reply) — back off
    /// and reconnect from the current cursor.
    Transient(String),
}

/// The tailing thread of one replica tenant: connect, fetch from the local
/// row count, apply each batch — forever, with jittered backoff across link
/// failures, until shutdown, promotion, or a terminal replication error.
pub(crate) fn run_follower(tenant: Arc<Tenant>, shared: Arc<Shared>) {
    let TenantEngine::Replica { replica, state, source } = &tenant.engine else {
        return;
    };
    let stopped = || shared.stop.load(Ordering::Relaxed) || replica.is_promoted();
    let retry = RetryPolicy::default();
    let mut rng = crate::client::jitter_seed();
    let mut attempt = 0usize;
    let mut connected_once = false;
    while !stopped() {
        let end = follow_once(replica, state, source, &tenant.name, &stopped);
        let was_connected = state.connected.swap(false, Ordering::Relaxed);
        match end {
            LinkEnd::Stopped => break,
            LinkEnd::Terminal(m) => {
                state.note_error(&m);
                break;
            }
            LinkEnd::Transient(m) => {
                state.note_error(&m);
                // A dropped link is counted; a leader not reached yet is not.
                connected_once |= was_connected;
                if connected_once {
                    state.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                // Bounded-exponential jittered backoff, sliced so shutdown
                // is never stuck behind a sleep.
                let mut wait = retry.backoff(attempt, &mut rng);
                attempt = (attempt + 1).min(16);
                while wait > Duration::ZERO && !shared.stop.load(Ordering::Relaxed) {
                    let slice = wait.min(LINK_POLL);
                    std::thread::sleep(slice);
                    wait -= slice;
                }
            }
        }
    }
}

/// One link attempt: connect, then fetch and apply until the link breaks
/// or the follower must stop. Each reply is decoded whole before any of it
/// is applied.
fn follow_once(
    replica: &Replica,
    state: &ReplicaState,
    source: &ReplicaSource,
    follower_id: &str,
    stopped: &dyn Fn() -> bool,
) -> LinkEnd {
    let client = BinaryClient::connect_with_retry(
        &source.addr,
        &source.tenant,
        &source.token,
        RetryPolicy::none(),
    );
    // Auth rejections are usually deterministic, but during a leader
    // restart the tenant may simply not be up yet: keep retrying rather
    // than orphan the follower.
    let mut client = match client {
        Ok(c) => c,
        Err(e) => return LinkEnd::Transient(format!("connect {}: {e}", source.addr)),
    };
    if let Err(e) = client.set_timeout(Some(FETCH_TIMEOUT)) {
        return LinkEnd::Transient(format!("link setup: {e}"));
    }
    state.connected.store(true, Ordering::Relaxed);
    let mut seals = 0u64;
    loop {
        if stopped() {
            return LinkEnd::Stopped;
        }
        let request = wire::PayloadWriter::new().str16(follower_id).u64(replica.next_row()).build();
        let body = match client.call(Op::ReplFetch, &request) {
            Ok(body) => body,
            Err(ClientError::Server { message, .. })
                if message.contains("diverged") || message.contains("re-seed") =>
            {
                return LinkEnd::Terminal(message)
            }
            Err(e) => return LinkEnd::Transient(format!("fetch: {e}")),
        };
        let batch = match decode_batch(&body) {
            Ok(batch) => batch,
            Err(m) => return LinkEnd::Transient(format!("bad fetch reply: {m}")),
        };
        let config = replica.engine().config();
        if batch.dim != config.dim || batch.leaf_size != config.leaf_size {
            return LinkEnd::Terminal(format!(
                "leader config mismatch: leader dim {} leaf {}, follower dim {} leaf {}",
                batch.dim, batch.leaf_size, config.dim, config.leaf_size
            ));
        }
        state.leader_rows.fetch_max(batch.leader_rows, Ordering::Relaxed);
        if batch.events.is_empty() {
            std::thread::sleep(LINK_POLL);
            continue;
        }
        for event in &batch.events {
            match replica.apply(event) {
                Ok(()) => {}
                Err(e @ MbiError::ReplicaDiverged { .. }) => {
                    return LinkEnd::Terminal(e.to_string())
                }
                Err(e) => return LinkEnd::Transient(e.to_string()),
            }
            if matches!(event, ReplEvent::Seal { .. }) {
                seals += 1;
                if seals.is_multiple_of(CHECKPOINT_EVERY_SEALS) {
                    if let Err(e) = replica.engine().checkpoint() {
                        // Checkpointing bounds replay, it does not gate
                        // correctness — log it and keep tailing.
                        state.note_error(&format!("follower checkpoint: {e}"));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServerConfig, TenantConfig};
    use crate::tenant::TenantRegistry;
    use mbi_core::engine::WAL_DIR;
    use mbi_core::MbiConfig;
    use mbi_math::Metric;
    use std::path::{Path, PathBuf};
    use std::sync::OnceLock;

    fn leader_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mbi_repl_fetch_{tag}_{}", std::process::id()))
    }

    /// The fetch request of follower `f` from row 3.
    fn valid_request() -> Vec<u8> {
        wire::PayloadWriter::new().str16("f").u64(3).build()
    }

    /// A durable leader tenant in `dir` holding 21 rows at dim 2 and leaf 4
    /// (five sealed segments and a live one), and its valid reply to
    /// [`valid_request`].
    fn leader(dir: &Path) -> (TenantRegistry, Vec<u8>) {
        let _ = std::fs::remove_dir_all(dir);
        let config = MbiConfig::new(2, Metric::Euclidean).with_leaf_size(4);
        let registry = TenantRegistry::build(
            &ServerConfig::new("127.0.0.1:0", config)
                .with_tenant(TenantConfig::durable("lead", "tok", dir)),
        )
        .unwrap();
        let tenant = &registry.all()[0];
        for i in 0..21 {
            tenant.insert(&[i as f32, -0.5 * i as f32], i).unwrap();
        }
        let (status, reply) = serve_fetch(&valid_request(), tenant, &mut None);
        assert_eq!(status, Status::Ok);
        (registry, reply)
    }

    #[test]
    fn a_fetch_reply_carries_the_feed_in_order() {
        let dir = leader_dir("order");
        let (registry, reply) = leader(&dir);
        let batch = decode_batch(&reply).unwrap();
        assert_eq!((batch.dim, batch.leaf_size, batch.leader_rows), (2, 4, 21));
        let mut feed = WalFeed::new(dir.join(WAL_DIR), 2, 4, 3);
        assert_eq!(batch.events, feed.next_batch(FEED_BATCH).unwrap());
        assert_eq!(batch.events.len(), 18 + 5, "rows 3..21 and the five seals");
        // The connection's link lists the follower as connected until it
        // drops.
        let tenant = &registry.all()[0];
        let request = wire::PayloadWriter::new().str16("g").u64(21).build();
        let mut link = None;
        let (status, reply) = serve_fetch(&request, tenant, &mut link);
        assert_eq!(status, Status::Ok);
        assert!(decode_batch(&reply).unwrap().events.is_empty(), "caught up");
        serve_fetch(&request, tenant, &mut link);
        assert_eq!(tenant.followers.lock().unwrap()["g"].links, 1);
        drop(link);
        assert_eq!(tenant.followers.lock().unwrap()["g"].links, 0);
        drop(registry);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The leader the hostile cases fetch from, built once.
    static HOSTILE: OnceLock<(TenantRegistry, Vec<u8>)> = OnceLock::new();

    #[test]
    fn arbitrary_repl_fetch_bytes_never_panic() {
        let dir = leader_dir("hostile");
        HOSTILE.get_or_init(|| leader(&dir));
        hostile_fetch_bytes();
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

        /// Hostile bytes on both ends of a fetch — arbitrary bytes, and a
        /// valid request or reply with bytes overwritten, then maybe cut
        /// and extended — make the leader's handler and the follower's
        /// decoder answer `Ok` or an error, never panic. Every reply the
        /// handler sends decodes and fits a frame, and a decoded batch
        /// holds no more events and floats than its payload has bytes for.
        fn hostile_fetch_bytes(
            kind in 0..4usize,
            raw in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..96),
            writes in proptest::collection::vec(
                (proptest::arbitrary::any::<usize>(), proptest::arbitrary::any::<u8>()), 1..5),
            cut in proptest::arbitrary::any::<usize>(),
        ) {
            let (registry, reply) = HOSTILE.get().expect("the test builds the leader");
            let bytes = match kind {
                0 | 2 => raw,
                _ => {
                    let mut b = if kind == 1 { valid_request() } else { reply.clone() };
                    for &(at, x) in &writes {
                        let at = at % b.len();
                        b[at] = x;
                    }
                    if cut % 2 == 1 {
                        b.truncate(cut / 2 % (b.len() + 1));
                        b.extend(raw);
                    }
                    b
                }
            };
            let reply = if kind < 2 {
                let (status, reply) = serve_fetch(&bytes, &registry.all()[0], &mut None);
                proptest::prop_assert!(reply.len() < wire::MAX_FRAME);
                proptest::prop_assert!(status != Status::Ok || decode_batch(&reply).is_ok());
                reply
            } else {
                bytes
            };
            if let Ok(batch) = decode_batch(&reply) {
                let floats: usize = batch
                    .events
                    .iter()
                    .map(|e| match e {
                        ReplEvent::Record { vector, .. } => vector.len(),
                        ReplEvent::Seal { .. } => 0,
                    })
                    .sum();
                proptest::prop_assert!(batch.events.len() * SEAL_BYTES <= reply.len());
                proptest::prop_assert!(floats * 4 <= reply.len());
            }
        }
    }
}
