//! The network half of replication: the leader's push loop behind
//! `REPL_SUBSCRIBE` and the follower's tailing thread.
//!
//! The durable substrate lives in [`mbi_core::replicate`] ([`WalFeed`] on
//! the leader, [`Replica`] on the follower); this module only moves its
//! events over the binary protocol. One subscribed connection carries
//! leader→follower push frames ([`REPL_RECORD`](crate::wire::REPL_RECORD),
//! [`REPL_SEAL`](crate::wire::REPL_SEAL),
//! [`REPL_HEARTBEAT`](crate::wire::REPL_HEARTBEAT)) and follower→leader
//! [`REPL_ACK`](crate::wire::REPL_ACK) frames on the same socket. Acks move
//! the leader's WAL retention hold forward, so segments a live follower
//! still needs outlast `checkpoint`'s pruning; a follower lagging past the
//! configured cap is evicted from the hold table instead of wedging prune,
//! after which its cursor eventually points at a pruned segment and the
//! link errors terminally ("re-seed").
//!
//! The follower retries its link forever with bounded-exponential jittered
//! backoff (reusing the client's [`RetryPolicy`]) — a leader restart is a
//! transient; only divergence, eviction, and local promotion are terminal.

use crate::client::RetryPolicy;
use crate::config::ReplicaSource;
use crate::server::Shared;
use crate::tenant::{Tenant, TenantEngine};
use crate::wire::{self, Op, Status};
use mbi_core::{fail, MbiError, ReplEvent, Replica, StreamingMbi, WalFeed};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long the leader's push loop sleeps when the feed is caught up, and
/// the granularity at which both sides poll their stop flags.
const LINK_POLL: Duration = Duration::from_millis(20);
/// Records per feed batch on the leader.
const FEED_BATCH: usize = 256;
/// The follower acks at least every this many applied records (and after
/// every seal), bounding how far the leader's retention hold trails.
const ACK_EVERY: u64 = 32;
/// The follower checkpoints after every this many seals, bounding replay
/// work after a follower crash.
const CHECKPOINT_EVERY_SEALS: u64 = 8;

/// Live link state of one replica tenant, shared between its tailing
/// thread and the stats/health endpoints.
#[derive(Debug, Default)]
pub struct ReplicaState {
    /// Highest leader row count observed over the link (lag numerator).
    pub leader_rows: AtomicU64,
    /// Whether the subscription is currently established.
    pub connected: AtomicBool,
    /// Set once the tenant is promoted; the tailing thread exits.
    pub promoted: AtomicBool,
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

/// Serves one `REPL_SUBSCRIBE` request: flips the connection into a push
/// stream and owns it until disconnect, eviction, or shutdown. The caller
/// (the binary serving loop) must not touch the connection afterwards.
pub(crate) fn serve_repl_subscribe(
    stream: &TcpStream,
    payload: &[u8],
    tenant: &Arc<Tenant>,
    shared: &Shared,
) {
    let mut out = stream;
    let mut r = wire::PayloadReader::new(payload);
    let parsed = (|| {
        let id = r.str16()?;
        let start = r.u64()?;
        r.finish()?;
        Ok::<_, String>((id, start))
    })();
    let (follower_id, start_row) = match parsed {
        Ok(p) => p,
        Err(m) => {
            let _ = wire::write_frame(&mut out, Status::BadRequest as u8, m.as_bytes());
            return;
        }
    };
    let TenantEngine::Streaming(engine) = &tenant.engine else {
        let _ = wire::write_frame(
            &mut out,
            Status::BadRequest as u8,
            b"only a streaming tenant can lead replication",
        );
        return;
    };
    let mut feed = match WalFeed::for_engine(engine, start_row) {
        Ok(f) => f,
        Err(e) => {
            let _ = wire::write_frame(&mut out, Status::BadRequest as u8, e.to_string().as_bytes());
            return;
        }
    };
    // Register the retention hold *before* replying: between the reply and
    // the first batch a checkpoint must not prune the cursor's segment.
    engine.set_replica_hold(&follower_id, start_row);
    set_follower(tenant, &follower_id, start_row, true);
    let hello = wire::PayloadWriter::new()
        .u32(engine.config().dim as u32)
        .u32(engine.config().leaf_size as u32)
        .u64(engine.len() as u64)
        .build();
    if wire::write_frame(&mut out, Status::Ok as u8, &hello).is_err() {
        set_follower(tenant, &follower_id, start_row, false);
        return;
    }
    // Ack reader: a blocking loop on a cloned handle, moving the retention
    // hold forward as the follower reports durability.
    let ack_stop = Arc::new(AtomicBool::new(false));
    let ack_thread = stream.try_clone().ok().and_then(|clone| {
        let tenant = Arc::clone(tenant);
        let id = follower_id.clone();
        let stop = Arc::clone(&ack_stop);
        std::thread::Builder::new()
            .name("mbi-repl-ack".into())
            .spawn(move || ack_loop(clone, &tenant, &id, &stop))
            .ok()
    });
    push_loop(&mut out, &mut feed, engine, shared);
    // Sever the socket so the ack reader wakes, then mark the follower
    // disconnected — but keep its retention hold: only the lag cap (or an
    // explicit release) drops it, so a bounded outage never loses segments.
    ack_stop.store(true, Ordering::Relaxed);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    if let Some(t) = ack_thread {
        let _ = t.join();
    }
    if let Ok(mut followers) = tenant.followers.lock() {
        if let Some(info) = followers.get_mut(&follower_id) {
            info.connected = false;
        }
    }
}

/// The leader's push loop: stream records and seals, heartbeat when caught
/// up, surface feed errors as a final `REPL_ERR` frame.
fn push_loop(out: &mut &TcpStream, feed: &mut WalFeed, engine: &StreamingMbi, shared: &Shared) {
    while !shared.stop.load(Ordering::Relaxed) {
        let events = match feed.next_batch(FEED_BATCH) {
            Ok(events) => events,
            Err(e) => {
                // Pruned-cursor ("re-seed") and corruption errors are
                // terminal for this follower; tell it why before closing.
                let _ = wire::write_frame(out, wire::REPL_ERR, e.to_string().as_bytes());
                return;
            }
        };
        if events.is_empty() {
            let hb = wire::PayloadWriter::new().u64(engine.len() as u64).build();
            if wire::write_frame(out, wire::REPL_HEARTBEAT, &hb).is_err() {
                return;
            }
            std::thread::sleep(LINK_POLL);
            continue;
        }
        for event in &events {
            let sent = match event {
                ReplEvent::Record { row, timestamp, vector } => {
                    let payload = wire::PayloadWriter::new()
                        .u64(*row)
                        .i64(*timestamp)
                        .u32(vector.len() as u32)
                        .f32s(vector)
                        .build();
                    send_push(out, wire::REPL_RECORD, &payload, "repl::send_record")
                }
                ReplEvent::Seal { segment, crc } => {
                    let payload = wire::PayloadWriter::new().u64(*segment).u32(*crc).build();
                    send_push(out, wire::REPL_SEAL, &payload, "repl::send_seal")
                }
            };
            if !sent {
                return;
            }
        }
    }
}

/// Writes one push frame, honouring the link-level failpoints: `ShortWrite`
/// sends a torn prefix of the frame and severs the socket (the follower
/// must survive a frame cut mid-record), `IoError` severs it cleanly
/// between frames, `Panic` kills the leader thread mid-push.
fn send_push(out: &mut &TcpStream, tag: u8, payload: &[u8], site: &str) -> bool {
    match fail::trigger(site) {
        Some(fail::FailAction::ShortWrite) => {
            let mut frame = Vec::new();
            if wire::push_frame(&mut frame, tag, payload).is_ok() {
                let _ = out.write_all(&frame[..5 + payload.len() / 2]);
            }
            let _ = out.flush();
            let _ = out.shutdown(std::net::Shutdown::Both);
            return false;
        }
        Some(fail::FailAction::IoError) => {
            let _ = out.shutdown(std::net::Shutdown::Both);
            return false;
        }
        Some(fail::FailAction::Panic) => panic!("injected leader crash mid-push"),
        None => {}
    }
    wire::write_frame(out, tag, payload).is_ok()
}

/// Reads `REPL_ACK` frames off the subscribed connection until it closes,
/// advancing the leader's retention hold and the follower's stats entry.
fn ack_loop(stream: TcpStream, tenant: &Tenant, follower_id: &str, stop: &AtomicBool) {
    let mut reader = &stream;
    loop {
        let frame = match read_frame_poll(&mut reader, stop, None) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return,
        };
        let (tag, payload) = frame;
        if tag != wire::REPL_ACK || payload.len() != 8 {
            continue;
        }
        let next_row = u64::from_le_bytes(payload.as_slice().try_into().expect("8 bytes"));
        if let TenantEngine::Streaming(engine) = &tenant.engine {
            engine.set_replica_hold(follower_id, next_row);
        }
        if let Ok(mut followers) = tenant.followers.lock() {
            if let Some(info) = followers.get_mut(follower_id) {
                info.acked_row = info.acked_row.max(next_row);
            }
        }
    }
}

fn set_follower(tenant: &Tenant, id: &str, acked_row: u64, connected: bool) {
    if let Ok(mut followers) = tenant.followers.lock() {
        let info = followers
            .entry(id.to_string())
            .or_insert(crate::tenant::FollowerInfo { acked_row, connected });
        info.connected = connected;
        info.acked_row = info.acked_row.max(acked_row);
    }
}

// ---------------------------------------------------------------------------
// Follower side
// ---------------------------------------------------------------------------

/// How one link attempt ended.
enum LinkEnd {
    /// Shutdown or promotion — stop tailing.
    Stopped,
    /// Unrecoverable (divergence, eviction, config mismatch) — stop tailing
    /// and leave the reason in `last_error`.
    Terminal(String),
    /// Transient (connect refused, leader restart, torn frame) — back off
    /// and reconnect from the current cursor.
    Transient(String),
}

/// The tailing thread of one replica tenant: connect, subscribe from the
/// local row count, apply pushed events, ack durability — forever, with
/// jittered backoff across link failures, until shutdown, promotion, or a
/// terminal replication error.
pub(crate) fn run_follower(tenant: Arc<Tenant>, shared: Arc<Shared>) {
    let TenantEngine::Replica { replica, state, source } = &tenant.engine else {
        return;
    };
    let retry = RetryPolicy::default();
    let mut rng = crate::client::jitter_seed();
    let mut attempt = 0usize;
    let mut connected_once = false;
    while !shared.stop.load(Ordering::Relaxed) && !replica.is_promoted() {
        let end = follow_once(replica, state, source, &tenant.name, &shared);
        state.connected.store(false, Ordering::Relaxed);
        match end {
            LinkEnd::Stopped => break,
            LinkEnd::Terminal(m) => {
                state.note_error(&m);
                break;
            }
            LinkEnd::Transient(m) => {
                state.note_error(&m);
                // A leader hello sets `leader_rows`, so this distinguishes
                // "the link dropped" (counted) from "never got through yet".
                connected_once = connected_once || state.leader_rows.load(Ordering::Relaxed) > 0;
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
    state.connected.store(false, Ordering::Relaxed);
}

/// One link attempt: returns how it ended. On success this blocks for the
/// life of the subscription.
fn follow_once(
    replica: &Arc<Replica>,
    state: &Arc<ReplicaState>,
    source: &ReplicaSource,
    follower_id: &str,
    shared: &Shared,
) -> LinkEnd {
    let transient = |m: String| LinkEnd::Transient(m);
    let mut stream = match TcpStream::connect(&source.addr) {
        Ok(s) => s,
        Err(e) => return transient(format!("connect {}: {e}", source.addr)),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(LINK_POLL));
    // The magic and the AUTH frame go out in one write.
    let auth = wire::PayloadWriter::new().str16(&source.tenant).str16(&source.token).build();
    let mut hello = wire::MAGIC.to_vec();
    let sent =
        wire::push_frame(&mut hello, Op::Auth as u8, &auth).and_then(|()| stream.write_all(&hello));
    if let Err(e) = sent {
        return transient(format!("handshake: {e}"));
    }
    match read_reply(&stream, shared, replica) {
        Ok(Some((tag, body))) if tag == Status::Ok as u8 => drop(body),
        Ok(Some((_, body))) => {
            // Auth rejections are usually deterministic, but during a
            // leader restart the tenant may simply not be up yet — keep
            // retrying rather than orphan the follower.
            return transient(format!("auth rejected: {}", String::from_utf8_lossy(&body)));
        }
        Ok(None) => return LinkEnd::Stopped,
        Err(m) => return transient(m),
    }
    let subscribe = wire::PayloadWriter::new().str16(follower_id).u64(replica.next_row()).build();
    if let Err(e) = wire::write_frame(&mut &stream, Op::ReplSubscribe as u8, &subscribe) {
        return transient(format!("subscribe send: {e}"));
    }
    let hello = match read_reply(&stream, shared, replica) {
        Ok(Some((tag, body))) if tag == Status::Ok as u8 => body,
        Ok(Some((_, body))) => {
            return transient(format!("subscribe rejected: {}", String::from_utf8_lossy(&body)))
        }
        Ok(None) => return LinkEnd::Stopped,
        Err(m) => return transient(m),
    };
    let mut r = wire::PayloadReader::new(&hello);
    let parsed = (|| {
        let dim = r.u32()? as usize;
        let leaf = r.u32()? as usize;
        let rows = r.u64()?;
        r.finish()?;
        Ok::<_, String>((dim, leaf, rows))
    })();
    let (dim, leaf, leader_rows) = match parsed {
        Ok(p) => p,
        Err(m) => return transient(format!("bad subscribe reply: {m}")),
    };
    let config = replica.engine().config();
    if dim != config.dim || leaf != config.leaf_size {
        return LinkEnd::Terminal(format!(
            "leader config mismatch: leader dim {dim} leaf {leaf}, follower dim {} leaf {}",
            config.dim, config.leaf_size
        ));
    }
    state.leader_rows.fetch_max(leader_rows, Ordering::Relaxed);
    state.connected.store(true, Ordering::Relaxed);
    // Established. Apply pushes until the link breaks or we must stop.
    let mut reader = &stream;
    let mut unacked = 0u64;
    let mut seals_since_checkpoint = 0u64;
    loop {
        if replica.is_promoted() {
            return LinkEnd::Stopped;
        }
        let (tag, payload) = match read_frame_poll(&mut reader, &shared.stop, Some(replica)) {
            Ok(Some(f)) => f,
            Ok(None) => {
                if shared.stop.load(Ordering::Relaxed) || replica.is_promoted() {
                    return LinkEnd::Stopped;
                }
                return transient("leader closed the link".into());
            }
            Err(e) => return transient(format!("link read: {e}")),
        };
        match tag {
            wire::REPL_RECORD => {
                let mut r = wire::PayloadReader::new(&payload);
                let parsed = (|| {
                    let row = r.u64()?;
                    let timestamp = r.i64()?;
                    let n = r.u32()? as usize;
                    let vector = r.f32s(n)?;
                    r.finish()?;
                    Ok::<_, String>((row, timestamp, vector))
                })();
                let (row, timestamp, vector) = match parsed {
                    Ok(p) => p,
                    Err(m) => return transient(format!("bad record frame: {m}")),
                };
                match replica.apply(&ReplEvent::Record { row, timestamp, vector }) {
                    Ok(()) => {}
                    Err(e @ MbiError::ReplicaDiverged { .. }) => {
                        return LinkEnd::Terminal(e.to_string())
                    }
                    Err(e) => return transient(e.to_string()),
                }
                unacked += 1;
                if unacked >= ACK_EVERY {
                    unacked = 0;
                    if send_ack(&stream, replica).is_err() {
                        return transient("ack send failed".into());
                    }
                }
            }
            wire::REPL_SEAL => {
                let mut r = wire::PayloadReader::new(&payload);
                let parsed = (|| {
                    let segment = r.u64()?;
                    let crc = r.u32()?;
                    r.finish()?;
                    Ok::<_, String>((segment, crc))
                })();
                let (segment, crc) = match parsed {
                    Ok(p) => p,
                    Err(m) => return transient(format!("bad seal frame: {m}")),
                };
                match replica.apply(&ReplEvent::Seal { segment, crc }) {
                    Ok(()) => {}
                    Err(e @ MbiError::ReplicaDiverged { .. }) => {
                        return LinkEnd::Terminal(e.to_string())
                    }
                    Err(e) => return transient(e.to_string()),
                }
                unacked = 0;
                if send_ack(&stream, replica).is_err() {
                    return transient("ack send failed".into());
                }
                seals_since_checkpoint += 1;
                if seals_since_checkpoint >= CHECKPOINT_EVERY_SEALS {
                    seals_since_checkpoint = 0;
                    if let Err(e) = replica.engine().checkpoint() {
                        // Checkpointing bounds replay, it does not gate
                        // correctness — log it and keep tailing.
                        state.note_error(&format!("follower checkpoint: {e}"));
                    }
                }
            }
            wire::REPL_HEARTBEAT if payload.len() == 8 => {
                let rows = u64::from_le_bytes(payload.as_slice().try_into().expect("8 bytes"));
                state.leader_rows.fetch_max(rows, Ordering::Relaxed);
            }
            wire::REPL_ERR => {
                let message = String::from_utf8_lossy(&payload).into_owned();
                if message.contains("diverged") || message.contains("re-seed") {
                    return LinkEnd::Terminal(message);
                }
                return transient(message);
            }
            _ => return transient(format!("unexpected push frame tag {tag:#04x}")),
        }
    }
}

/// Sends one durability ack carrying the follower's current row count.
fn send_ack(stream: &TcpStream, replica: &Replica) -> std::io::Result<()> {
    let payload = wire::PayloadWriter::new().u64(replica.next_row()).build();
    wire::write_frame(&mut &*stream, wire::REPL_ACK, &payload)
}

/// Reads one handshake reply, polling the stop flag; `Ok(None)` means we
/// should stop (shutdown/promotion) or the peer closed.
fn read_reply(
    stream: &TcpStream,
    shared: &Shared,
    replica: &Replica,
) -> Result<Option<(u8, Vec<u8>)>, String> {
    let mut reader = stream;
    read_frame_poll(&mut reader, &shared.stop, Some(replica)).map_err(|e| e.to_string())
}

/// [`wire::read_frame`] over a socket with a short read timeout: timeouts
/// poll `stop` (and promotion, when a replica is given) instead of tearing
/// the frame — partial reads keep their position and resume. `Ok(None)` on
/// clean close before a frame starts, or when told to stop.
fn read_frame_poll(
    reader: &mut impl Read,
    stop: &AtomicBool,
    replica: Option<&Replica>,
) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let should_stop = |started: bool| {
        !started && (stop.load(Ordering::Relaxed) || replica.is_some_and(|r| r.is_promoted()))
    };
    let mut len = [0u8; 4];
    if !read_exact_poll(reader, &mut len, &should_stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > wire::MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad push frame length {len}"),
        ));
    }
    let never = |_: bool| false;
    let mut tag = [0u8; 1];
    if !read_exact_poll(reader, &mut tag, &never)? {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "torn frame"));
    }
    let mut payload = vec![0u8; len - 1];
    if !read_exact_poll(reader, &mut payload, &never)? {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "torn frame"));
    }
    Ok(Some((tag[0], payload)))
}

/// `read_exact` that survives read timeouts without losing position.
/// `Ok(false)` when the peer closed (or `should_stop` said to) before the
/// first byte; a close mid-buffer is an `UnexpectedEof` error.
fn read_exact_poll(
    reader: &mut impl Read,
    buf: &mut [u8],
    should_stop: &dyn Fn(bool) -> bool,
) -> std::io::Result<bool> {
    let mut got = 0usize;
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if should_stop(got > 0) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_exact_poll_resumes_across_timeouts() {
        // A reader that yields WouldBlock between every byte must still
        // deliver the full buffer without losing position.
        struct Choppy<'a> {
            bytes: &'a [u8],
            pos: usize,
            ready: bool,
        }
        impl Read for Choppy<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.ready {
                    self.ready = true;
                    return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "later"));
                }
                self.ready = false;
                if self.pos == self.bytes.len() {
                    return Ok(0);
                }
                buf[0] = self.bytes[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, wire::REPL_HEARTBEAT, &7u64.to_le_bytes()).unwrap();
        let mut chopped = Choppy { bytes: &frame, pos: 0, ready: false };
        let stop = AtomicBool::new(false);
        let (tag, payload) = read_frame_poll(&mut chopped, &stop, None).unwrap().unwrap();
        assert_eq!(tag, wire::REPL_HEARTBEAT);
        assert_eq!(payload, 7u64.to_le_bytes());
        // Clean EOF between frames is None, not an error.
        assert!(read_frame_poll(&mut chopped, &stop, None).unwrap().is_none());
    }

    #[test]
    fn stop_flag_only_applies_between_frames() {
        struct Never;
        impl Read for Never {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "idle"))
            }
        }
        let stop = AtomicBool::new(true);
        assert!(read_frame_poll(&mut Never, &stop, None).unwrap().is_none());
    }
}
