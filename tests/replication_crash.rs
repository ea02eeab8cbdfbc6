//! Replication fault suite: a follower fed through the WAL-shipping layer
//! must end **bit-identical** to its leader after every link/process fault
//! we can simulate — disconnects mid-batch, leader death before the
//! follower's ack lands, follower death mid-replay and mid-append, tampered
//! records (divergence), and retention holds across `prune`.
//!
//! The headline assertion, shared with `tests/crash.rs`: after recovery and
//! catch-up, `to_index().to_bytes()` on the follower equals the leader's.
//! Not "same row count" — the same graphs, the same bytes.
//!
//! The injected-fault half (feed I/O errors, panics mid-replay) is compiled
//! only under `RUSTFLAGS='--cfg failpoints'`; everything else runs in every
//! configuration.

use mbi::core::engine::WAL_DIR;
use mbi::core::{ReplEvent, Replica, WalFeed};
use mbi::{EngineConfig, MbiConfig, MbiError, Metric, SearchParams, StreamingMbi, TimeWindow};
use std::path::{Path, PathBuf};

/// The failpoint registry is process-global, and every test here feeds and
/// applies through the sites the injected tests arm, so a site armed by one
/// test could fire in another: the tests run one at a time.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn config() -> MbiConfig {
    MbiConfig::new(3, Metric::Euclidean).with_leaf_size(16).with_search(SearchParams::new(32, 1.2))
}

fn row(i: usize) -> [f32; 3] {
    let x = i as f32;
    [(x * 0.31).sin() + 1.5, (x * 0.17).cos() + 1.5, 0.05 * x]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbi_replcrash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable leader holding rows `0..n`.
fn leader(dir: &Path, n: usize) -> StreamingMbi {
    let engine = StreamingMbi::open(dir, config(), EngineConfig::default()).unwrap();
    for i in 0..n {
        engine.insert(&row(i), i as i64).unwrap();
    }
    engine
}

/// Pumps the feed into the replica until it reports caught-up.
fn drain(feed: &mut WalFeed, replica: &Replica) -> Result<(), MbiError> {
    loop {
        let events = feed.next_batch(64)?;
        if events.is_empty() {
            return Ok(());
        }
        for event in &events {
            replica.apply(event)?;
        }
    }
}

fn assert_identical(leader: &StreamingMbi, replica: &Replica) {
    leader.flush();
    replica.engine().flush();
    assert_eq!(leader.len(), replica.engine().len(), "row counts match");
    assert_eq!(
        leader.to_index().to_bytes(),
        replica.engine().to_index().to_bytes(),
        "follower is bit-identical to the leader"
    );
}

/// Scenario 1 — **disconnect mid-record**: the link dies partway through a
/// segment. A fresh feed from the follower's own row count (its only
/// cursor) resumes without loss or duplication.
#[test]
fn disconnect_mid_record_resumes_from_follower_cursor() {
    let _serial = serial();
    let ldir = temp_dir("disc_leader");
    let fdir = temp_dir("disc_follower");
    let leader = leader(&ldir, 40);
    let replica = Replica::open(&fdir, config(), EngineConfig::default()).unwrap();

    // First connection delivers a few small batches, then "drops".
    let mut feed = WalFeed::for_engine(&leader, 0).unwrap();
    for _ in 0..3 {
        for event in feed.next_batch(7).unwrap() {
            replica.apply(&event).unwrap();
        }
    }
    let applied = replica.next_row();
    assert!(applied > 0 && applied < 40, "mid-stream disconnect, got {applied}");
    drop(feed); // the disconnect

    // Reconnect: the follower's row count seeds the new cursor.
    let mut feed = WalFeed::for_engine(&leader, replica.next_row()).unwrap();
    drain(&mut feed, &replica).unwrap();
    assert_identical(&leader, &replica);

    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// Scenario 2 — **leader crash before the ack**: the leader dies after
/// shipping a segment but before recording how far the follower got. On
/// recovery it re-serves from the segment boundary; the follower skips the
/// overlap as duplicates and converges bit-identically.
#[test]
fn leader_crash_before_ack_resends_overlap_harmlessly() {
    let _serial = serial();
    let ldir = temp_dir("preack_leader");
    let fdir = temp_dir("preack_follower");
    let engine = leader(&ldir, 25);
    let replica = Replica::open(&fdir, config(), EngineConfig::default()).unwrap();
    let mut feed = WalFeed::for_engine(&engine, 0).unwrap();
    for event in feed.next_batch(20).unwrap() {
        replica.apply(&event).unwrap();
    }
    // (the 20-event batch counts seals too, so 17..=19 records landed)
    let follower_at = replica.next_row();
    assert!(follower_at > 16 && follower_at < 25, "mid-stream crash point, got {follower_at}");

    // Leader dies without flush/checkpoint (no Drop runs)…
    std::mem::forget(engine);
    // …and recovers from its own log.
    let recovered = StreamingMbi::recover(&ldir, EngineConfig::default()).unwrap();
    assert_eq!(recovered.len(), 25, "leader recovery sees every acked row");

    // Its stale view of the follower restarts the stream at the last
    // segment boundary — before rows the follower already holds.
    let resend_from = follower_at - follower_at % 16;
    let mut feed = WalFeed::for_engine(&recovered, resend_from).unwrap();
    drain(&mut feed, &replica).unwrap();
    let (duplicates, _, _) = replica.apply_counters();
    assert_eq!(duplicates, follower_at - resend_from, "overlap was skipped, not re-applied");
    assert_identical(&recovered, &replica);

    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// Scenario 3 — **follower crash mid-append** (the torn-frame aftermath on
/// disk): the follower dies while writing a record, leaving half of it at
/// the end of its own WAL. Recovery truncates the torn bytes and
/// replication resumes from the durable prefix.
#[test]
fn follower_crash_mid_append_truncates_and_resumes() {
    let _serial = serial();
    let ldir = temp_dir("torn_leader");
    let fdir = temp_dir("torn_follower");
    let engine = leader(&ldir, 20);
    let replica = Replica::open(&fdir, config(), EngineConfig::default()).unwrap();
    let mut feed = WalFeed::for_engine(&engine, 0).unwrap();
    drain(&mut feed, &replica).unwrap();

    // Crash: leak the replica (no Drop, no checkpoint) with half a record
    // appended to its newest WAL segment — died mid-write.
    let wal_dir = replica.engine().durable_dir().unwrap().join(WAL_DIR);
    std::mem::forget(replica);
    let mut segments: Vec<PathBuf> =
        std::fs::read_dir(&wal_dir).unwrap().map(|e| e.unwrap().path()).collect();
    segments.sort();
    let tail = segments.pop().expect("follower wrote WAL segments");
    let mut bytes = std::fs::read(&tail).unwrap();
    bytes.extend_from_slice(&[0x21, 0x00, 0x00, 0x00, 0xAB, 0xCD]); // len + partial crc
    std::fs::write(&tail, &bytes).unwrap();

    // Reopen: the torn record was never acked upstream, so dropping it is
    // correct — and the resumed stream re-delivers from the cursor.
    let replica = Replica::open(&fdir, config(), EngineConfig::default()).unwrap();
    assert_eq!(replica.next_row(), 20, "torn bytes dropped, durable prefix kept");
    for i in 20..40 {
        engine.insert(&row(i), i as i64).unwrap();
    }
    let mut feed = WalFeed::for_engine(&engine, replica.next_row()).unwrap();
    drain(&mut feed, &replica).unwrap();
    assert_identical(&engine, &replica);

    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// Scenario 4 — **diverged segment**: a record is corrupted in flight (or
/// by a buggy proxy); both copies are internally consistent but differ.
/// The seal handoff catches it and names the segment — never silent drift.
#[test]
fn in_flight_corruption_is_reported_as_divergence_at_the_seal() {
    let _serial = serial();
    let ldir = temp_dir("div_leader");
    let fdir = temp_dir("div_follower");
    let engine = leader(&ldir, 40);
    let replica = Replica::open(&fdir, config(), EngineConfig::default()).unwrap();
    let mut feed = WalFeed::for_engine(&engine, 0).unwrap();
    let mut divergence = None;
    'stream: loop {
        let events = feed.next_batch(64).unwrap();
        if events.is_empty() {
            break;
        }
        for mut event in events {
            if let ReplEvent::Record { row: 20, vector, .. } = &mut event {
                vector[0] += 0.5; // the in-flight flip
            }
            match replica.apply(&event) {
                Ok(()) => {}
                Err(e @ MbiError::ReplicaDiverged { .. }) => {
                    divergence = Some(e);
                    break 'stream;
                }
                Err(e) => panic!("unexpected apply error: {e}"),
            }
        }
    }
    match divergence {
        Some(MbiError::ReplicaDiverged { segment, .. }) => {
            assert_eq!(segment, 16, "row 20 lives in the segment starting at row 16");
        }
        other => panic!("divergence was not detected: {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// Scenario 5 — **prune under the tail**: a registered retention hold pins
/// WAL segments a slow follower still needs across `checkpoint`, so a
/// lagging-but-live follower can always resume.
#[test]
fn retention_hold_keeps_segments_a_follower_still_needs() {
    let _serial = serial();
    let ldir = temp_dir("hold_leader");
    let fdir = temp_dir("hold_follower");
    let engine = leader(&ldir, 60);
    engine.set_replica_hold("follower-1", 0);
    engine.checkpoint().unwrap();

    // Despite the checkpoint, the feed can still serve from row 0.
    let replica = Replica::open(&fdir, config(), EngineConfig::default()).unwrap();
    let mut feed = WalFeed::for_engine(&engine, 0).unwrap();
    drain(&mut feed, &replica).unwrap();
    assert_identical(&engine, &replica);
    // The follower's own queries see the replicated data.
    let hit = replica.engine().query(&row(3), 1, TimeWindow::all());
    assert_eq!(hit[0].dist, 0.0);

    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// Scenario 6 (injected) — **feed I/O error**: a transient read failure on
/// the leader surfaces as an error (the link layer reconnects), and the
/// retried feed continues from the same cursor.
#[cfg(failpoints)]
#[test]
fn injected_feed_io_error_is_transient_and_resumable() {
    let _serial = serial();
    use mbi::core::fail;
    let ldir = temp_dir("feedio_leader");
    let fdir = temp_dir("feedio_follower");
    let engine = leader(&ldir, 40);
    let replica = Replica::open(&fdir, config(), EngineConfig::default()).unwrap();
    let mut feed = WalFeed::for_engine(&engine, 0).unwrap();

    fail::arm("repl::feed", fail::FailAction::IoError, 1, 1);
    for event in feed.next_batch(8).unwrap() {
        replica.apply(&event).unwrap();
    }
    let err = feed.next_batch(8).expect_err("armed site must fire");
    assert!(err.to_string().contains(fail::INJECTED_MSG), "{err}");
    fail::disarm("repl::feed");

    // The cursor did not advance through the failure; a plain retry of the
    // same feed object drains the rest.
    drain(&mut feed, &replica).unwrap();
    assert_identical(&engine, &replica);

    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// Scenario 7 (injected) — **follower crash mid-replay**: a panic while
/// applying a record kills the follower process. Reopening the directory
/// recovers the durable prefix and the stream resumes to bit-identity.
#[cfg(failpoints)]
#[test]
fn injected_follower_panic_mid_replay_recovers_bit_identical() {
    let _serial = serial();
    use mbi::core::fail;
    let ldir = temp_dir("fpanic_leader");
    let fdir = temp_dir("fpanic_follower");
    let engine = leader(&ldir, 48);
    let replica = Replica::open(&fdir, config(), EngineConfig::default()).unwrap();

    // The 23rd record application panics.
    fail::arm("repl::apply", fail::FailAction::Panic, 22, 1);
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut feed = WalFeed::for_engine(&engine, 0).unwrap();
        loop {
            let events = feed.next_batch(64).unwrap();
            if events.is_empty() {
                return;
            }
            for event in &events {
                replica.apply(event).unwrap();
            }
        }
    }));
    assert!(crashed.is_err(), "armed panic site must fire");
    fail::disarm_all();

    // Process death: no Drop, no checkpoint, builders leaked.
    let durable = replica.next_row();
    std::mem::forget(replica);

    // Reopen and resume from the recovered row count.
    let replica = Replica::open(&fdir, config(), EngineConfig::default()).unwrap();
    assert!(replica.next_row() <= durable, "recovery never invents rows");
    let mut feed = WalFeed::for_engine(&engine, replica.next_row()).unwrap();
    drain(&mut feed, &replica).unwrap();
    assert_identical(&engine, &replica);

    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}
