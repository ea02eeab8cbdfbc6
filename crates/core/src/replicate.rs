//! WAL-shipped replication: a leader-side feed over its own log directory
//! and a follower-side applier that replays the stream into a durable
//! [`StreamingMbi`].
//!
//! The WAL is already the replication substrate: segments are immutable
//! once rotated, rotation happens at deterministic leaf boundaries, and the
//! record encoding is a pure function of `(timestamp, vector)`. A follower
//! that applies the leader's records through its own durable engine
//! therefore writes **byte-identical** WAL segment files — which is what
//! makes divergence *detectable*: when a segment seals, the leader ships the
//! CRC32 of the segment's record bytes and the follower recomputes it over
//! its own file. A mismatch is [`MbiError::ReplicaDiverged`] naming the
//! segment and offset, never silent drift.
//!
//! The pieces, transport-agnostic (the server crate moves [`ReplEvent`]s
//! over its binary protocol; tests drive them directly):
//!
//! * [`ReplicationCursor`] — a durable `(segment, offset, row)` position,
//!   derivable from the row count alone, so a follower resumes from
//!   `engine.len()` after any crash or disconnect.
//! * [`WalFeed`] — the leader-side reader: lists segments, reads records
//!   past the cursor through the WAL's one segment scanner, emits
//!   [`ReplEvent::Record`]s and, when a segment is followed by a newer one
//!   (i.e. sealed), a [`ReplEvent::Seal`] carrying the segment CRC.
//! * [`Replica`] — the follower-side applier: inserts records through a
//!   durable [`StreamingMbi`] (idempotently skipping rows it already has),
//!   verifies every seal, and supports [`Replica::promote`] for manual
//!   failover.
//!
//! Failpoint sites (`--cfg failpoints`): `repl::feed` (leader read fails
//! mid-batch) and `repl::apply` (follower crashes mid-replay).

use crate::config::MbiConfig;
use crate::engine::{EngineConfig, StreamingMbi, WAL_DIR};
use crate::error::MbiError;
use crate::fail;
use crate::wal::{self, record_offset, ScanStop, SegmentScan, HEADER_LEN};
use crate::Timestamp;
use mbi_math::crc32;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A durable replication position: the next record to ship is at byte
/// `offset` of segment `segment` and carries global row id `row`.
///
/// Because segment boundaries are leaf boundaries and records are
/// fixed-size, the cursor is a pure function of the row count
/// ([`ReplicationCursor::at_row`]) — a follower never persists it
/// separately; its own engine length *is* the cursor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicationCursor {
    /// First global row id of the segment being read (its file name number).
    pub segment: u64,
    /// Byte offset inside the segment file of the next record.
    pub offset: u64,
    /// Global row id of the next record.
    pub row: u64,
}

impl ReplicationCursor {
    /// The cursor addressing global row `row` in a log with `leaf_size`-row
    /// segments of `dim`-dimensional records.
    pub fn at_row(row: u64, dim: usize, leaf_size: usize) -> Self {
        let leaf = leaf_size.max(1) as u64;
        let segment = row - row % leaf;
        ReplicationCursor { segment, offset: record_offset(dim, row - segment), row }
    }
}

/// One replication event, in stream order.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplEvent {
    /// One WAL record: apply it (append to the follower's WAL + engine).
    Record {
        /// Global row id.
        row: u64,
        /// The row's timestamp.
        timestamp: Timestamp,
        /// The row's vector.
        vector: Vec<f32>,
    },
    /// The segment starting at `segment` sealed with the given CRC32 over
    /// its record bytes; the follower must verify its own copy matches.
    Seal {
        /// First global row id of the sealed segment.
        segment: u64,
        /// CRC32 of the segment's record region (everything past the
        /// 24-byte header) as the leader stored it.
        crc: u32,
    },
}

/// Leader-side reader over a WAL directory, emitting the replication
/// stream from a cursor. Stateless beyond the cursor: reconstruct it at any
/// row and the stream continues identically.
#[derive(Debug)]
pub struct WalFeed {
    dir: PathBuf,
    dim: usize,
    leaf_size: usize,
    cursor: ReplicationCursor,
}

impl WalFeed {
    /// A feed over `wal_dir` (the engine's `<dir>/wal`) starting at global
    /// row `start_row`.
    pub fn new(wal_dir: impl Into<PathBuf>, dim: usize, leaf_size: usize, start_row: u64) -> Self {
        WalFeed {
            dir: wal_dir.into(),
            dim,
            leaf_size,
            cursor: ReplicationCursor::at_row(start_row, dim, leaf_size),
        }
    }

    /// A feed over a durable engine's log, starting at `start_row`. Errors
    /// on a non-durable engine (nothing to replicate from).
    pub fn for_engine(engine: &StreamingMbi, start_row: u64) -> Result<Self, MbiError> {
        let dir = engine.durable_dir().ok_or_else(|| {
            MbiError::Io(std::io::Error::other(
                "replication requires a durable leader (create it with StreamingMbi::open)",
            ))
        })?;
        let config = engine.config();
        Ok(Self::new(dir.join(WAL_DIR), config.dim, config.leaf_size, start_row))
    }

    /// The current cursor (the position of the next event).
    pub fn cursor(&self) -> ReplicationCursor {
        self.cursor
    }

    /// Reads the next batch of events (at most `max` records, plus any seal
    /// they complete). An empty batch means the feed is caught up with the
    /// live tail — poll again later. A cursor whose segment was pruned away
    /// (a checkpoint ran while no retention hold covered it) is a terminal
    /// `NotFound` error: the follower must be re-seeded.
    pub fn next_batch(&mut self, max: usize) -> Result<Vec<ReplEvent>, MbiError> {
        match fail::trigger("repl::feed") {
            Some(fail::FailAction::IoError | fail::FailAction::ShortWrite) => {
                return Err(MbiError::Io(std::io::Error::other(fail::INJECTED_MSG)));
            }
            Some(fail::FailAction::Panic) => panic!("injected feed panic"),
            None => {}
        }
        let seal_len = record_offset(self.dim, self.leaf_size as u64);
        let mut out = Vec::new();
        let segments = wal::list_segments(&self.dir)?;
        loop {
            let Some(pos) = segments.iter().position(|&(r, _)| r == self.cursor.segment) else {
                if segments.first().is_some_and(|&(r, _)| r > self.cursor.segment) {
                    return Err(cursor_pruned(self.cursor));
                }
                // The cursor points past every segment on disk: nothing to
                // ship yet (a fresh log, or the next rotation mid-flight).
                return Ok(out);
            };
            let (first_row, path) = &segments[pos];
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                // Pruned between the listing and the read.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(cursor_pruned(self.cursor))
                }
                Err(e) => return Err(e.into()),
            };
            // A sealed segment (a newer one follows it) must hold exactly
            // `leaf_size` whole records. The live tail may end mid-append —
            // a torn header or record is re-read whole next poll — but
            // corruption anywhere is reported, as recovery would.
            let sealed = pos + 1 < segments.len();
            let corrupt = |offset: u64| MbiError::WalCorrupt { segment: *first_row, offset };
            if sealed && bytes.len() as u64 != seal_len {
                return Err(corrupt(seal_len.min(bytes.len() as u64)));
            }
            let mut scan = match SegmentScan::new(&bytes, *first_row, self.dim, self.cursor.offset)
            {
                Ok(scan) => scan,
                Err(ScanStop::Torn(_)) if !sealed => return Ok(out),
                Err(stop) => return Err(corrupt(stop.offset())),
            };
            while out.len() < max {
                match scan.next_record() {
                    Ok(Some((timestamp, vector))) => {
                        out.push(ReplEvent::Record { row: self.cursor.row, timestamp, vector });
                        self.cursor.row += 1;
                        self.cursor.offset = scan.offset as u64;
                    }
                    Ok(None) => break,
                    Err(ScanStop::Torn(_)) if !sealed => return Ok(out),
                    Err(stop) => return Err(corrupt(stop.offset())),
                }
            }
            if sealed && self.cursor.offset >= seal_len {
                out.push(ReplEvent::Seal {
                    segment: *first_row,
                    crc: crc32(&bytes[HEADER_LEN as usize..seal_len as usize]),
                });
                let next = segments[pos + 1].0;
                if next != self.cursor.row {
                    return Err(MbiError::WalCorrupt { segment: next, offset: 8 });
                }
                self.cursor =
                    ReplicationCursor { segment: next, offset: HEADER_LEN, row: self.cursor.row };
                if out.len() >= max {
                    return Ok(out);
                }
                continue;
            }
            return Ok(out);
        }
    }
}

/// The terminal error for a cursor whose segment has been pruned away.
fn cursor_pruned(cursor: ReplicationCursor) -> MbiError {
    MbiError::Io(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!(
            "replication cursor at row {} (segment {}) precedes the oldest retained WAL \
             segment — no retention hold kept its rows, so the follower must be re-seeded",
            cursor.row, cursor.segment
        ),
    ))
}

/// Follower-side applier: a durable [`StreamingMbi`] fed from a leader's
/// replication stream, serving read-only queries the whole time.
#[derive(Debug)]
pub struct Replica {
    engine: StreamingMbi,
    promoted: AtomicBool,
    duplicates: AtomicU64,
    verified_seals: AtomicU64,
    unverified_seals: AtomicU64,
}

impl Replica {
    /// Opens (or recovers) a durable follower engine in `dir`. On restart
    /// the engine replays its own WAL first; replication then resumes from
    /// [`Replica::next_row`] — the cursor needs no separate persistence.
    pub fn open(
        dir: impl AsRef<Path>,
        config: MbiConfig,
        engine: EngineConfig,
    ) -> Result<Replica, MbiError> {
        Self::from_engine(StreamingMbi::open(dir, config, engine)?)
    }

    /// Wraps an already-open durable engine as a follower.
    pub fn from_engine(engine: StreamingMbi) -> Result<Replica, MbiError> {
        if engine.durable_dir().is_none() {
            return Err(MbiError::Io(std::io::Error::other(
                "a replica engine must be durable (create it with StreamingMbi::open)",
            )));
        }
        Ok(Replica {
            engine,
            promoted: AtomicBool::new(false),
            duplicates: AtomicU64::new(0),
            verified_seals: AtomicU64::new(0),
            unverified_seals: AtomicU64::new(0),
        })
    }

    /// The wrapped engine (serve read-only queries through it).
    pub fn engine(&self) -> &StreamingMbi {
        &self.engine
    }

    /// The next row this follower needs — its resume cursor.
    pub fn next_row(&self) -> u64 {
        self.engine.len() as u64
    }

    /// Whether [`Replica::promote`] has run.
    pub fn is_promoted(&self) -> bool {
        self.promoted.load(Ordering::Relaxed)
    }

    /// Records re-received and skipped (reconnect overlap), seals verified,
    /// and seals that could not be checked (local segment already pruned).
    pub fn apply_counters(&self) -> (u64, u64, u64) {
        (
            self.duplicates.load(Ordering::Relaxed),
            self.verified_seals.load(Ordering::Relaxed),
            self.unverified_seals.load(Ordering::Relaxed),
        )
    }

    /// Applies one replication event.
    ///
    /// Records below [`Replica::next_row`] are skipped (a resumed link
    /// re-sends the tail of the last segment); a record *past* it is a gap —
    /// the link must reconnect from the cursor. Seals are CRC-verified
    /// against the follower's own segment file; a mismatch is
    /// [`MbiError::ReplicaDiverged`].
    pub fn apply(&self, event: &ReplEvent) -> Result<(), MbiError> {
        if self.is_promoted() {
            return Err(MbiError::Io(std::io::Error::other(
                "replica already promoted; applying leader records would diverge",
            )));
        }
        match event {
            ReplEvent::Record { row, timestamp, vector } => {
                if let Some(fail::FailAction::Panic) = fail::trigger("repl::apply") {
                    panic!("injected replica crash mid-replay");
                }
                let next = self.next_row();
                if *row < next {
                    self.duplicates.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                if *row > next {
                    return Err(MbiError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("replication gap: got row {row}, expected {next}"),
                    )));
                }
                self.engine.insert(vector, *timestamp)?;
                Ok(())
            }
            ReplEvent::Seal { segment, crc } => self.verify_seal(*segment, *crc),
        }
    }

    /// Verifies the local copy of a sealed segment against the leader's CRC.
    fn verify_seal(&self, segment: u64, leader_crc: u32) -> Result<(), MbiError> {
        let dir = self.engine.durable_dir().expect("replica engines are durable").join(WAL_DIR);
        let path = dir.join(wal::segment_file_name(segment));
        let config = self.engine.config();
        let end = record_offset(config.dim, config.leaf_size as u64) as usize;
        let bytes = match std::fs::read(&path) {
            Ok(b) if b.len() >= end => b,
            // The follower's own checkpoint already pruned (or truncated)
            // this segment locally; the handoff cannot be re-checked. Count
            // it — lots of these mean checkpointing outruns verification.
            _ => {
                self.unverified_seals.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        };
        if crc32(&bytes[HEADER_LEN as usize..end]) == leader_crc {
            self.verified_seals.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        // Diverged. Name the first record that fails its *own* stored CRC
        // (local bit rot); when every record is self-consistent the
        // histories themselves differ — report the record region start.
        let scan = SegmentScan::new(&bytes[..end], segment, config.dim, HEADER_LEN);
        let stop = scan.and_then(|mut scan| {
            while scan.next_record()?.is_some() {}
            Ok(())
        });
        let offset = stop.err().map_or(HEADER_LEN, ScanStop::offset);
        Err(MbiError::ReplicaDiverged { segment, offset })
    }

    /// Manual failover: flushes the engine, runs recovery's check of the
    /// newest WAL segment read-only (a log recovery would refuse is
    /// [`MbiError::WalCorrupt`] here too), checkpoints, and marks the
    /// replica promoted. After this the engine accepts writes and
    /// [`Replica::apply`] refuses further leader records (applying them
    /// would diverge).
    pub fn promote(&self) -> Result<(), MbiError> {
        self.engine.flush();
        let dir = self.engine.durable_dir().expect("replica engines are durable").join(WAL_DIR);
        wal::check_newest_segment(&dir, self.engine.config().dim)?;
        self.engine.checkpoint()?;
        self.promoted.store(true, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::TimeWindow;
    use crate::wal::Wal;
    use mbi_math::Metric;

    fn config() -> MbiConfig {
        MbiConfig::new(2, Metric::Euclidean).with_leaf_size(4)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbi_repl_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn leader(dir: &Path, rows: i64) -> StreamingMbi {
        let engine = StreamingMbi::open(dir, config(), EngineConfig::default()).unwrap();
        for i in 0..rows {
            engine.insert(&[i as f32, -i as f32], i).unwrap();
        }
        engine
    }

    fn drain(feed: &mut WalFeed, replica: &Replica) -> usize {
        let mut applied = 0;
        loop {
            let batch = feed.next_batch(64).unwrap();
            if batch.is_empty() {
                return applied;
            }
            for ev in &batch {
                replica.apply(ev).unwrap();
                applied += 1;
            }
        }
    }

    fn assert_identical(leader: &StreamingMbi, replica: &Replica) {
        let a = leader.to_index();
        let b = replica.engine().to_index();
        assert_eq!(a.to_bytes(), b.to_bytes(), "follower not bit-identical to leader");
    }

    #[test]
    fn cursor_math_addresses_rows() {
        let c = ReplicationCursor::at_row(0, 2, 4);
        assert_eq!(c, ReplicationCursor { segment: 0, offset: HEADER_LEN, row: 0 });
        // dim 2 → record = 8 + 8 + 8 = 24 bytes; row 6 is 2 rows into [4,8).
        let c = ReplicationCursor::at_row(6, 2, 4);
        assert_eq!(c, ReplicationCursor { segment: 4, offset: HEADER_LEN + 2 * 24, row: 6 });
    }

    #[test]
    fn feed_streams_records_and_seals_to_identical_replica() {
        let ldir = temp_dir("feed_l");
        let rdir = temp_dir("feed_r");
        let leader = leader(&ldir, 10);
        let replica = Replica::open(&rdir, config(), EngineConfig::default()).unwrap();
        let mut feed = WalFeed::for_engine(&leader, 0).unwrap();
        drain(&mut feed, &replica);
        assert_eq!(replica.next_row(), 10);
        let (dups, verified, unverified) = replica.apply_counters();
        assert_eq!((dups, unverified), (0, 0));
        assert_eq!(verified, 2, "two sealed leaves, both CRC-checked");
        assert_identical(&leader, &replica);
        // Caught up: further polls are empty, not errors.
        assert!(feed.next_batch(64).unwrap().is_empty());
        std::fs::remove_dir_all(&ldir).unwrap();
        std::fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn feed_resumes_mid_segment_and_replica_skips_duplicates() {
        let ldir = temp_dir("resume_l");
        let rdir = temp_dir("resume_r");
        let leader = leader(&ldir, 11);
        let replica = Replica::open(&rdir, config(), EngineConfig::default()).unwrap();
        let mut feed = WalFeed::for_engine(&leader, 0).unwrap();
        drain(&mut feed, &replica);
        // A reconnect restarts the feed at the last *segment* boundary the
        // follower acked; the three re-sent tail rows are skipped.
        let mut feed = WalFeed::for_engine(&leader, 8).unwrap();
        drain(&mut feed, &replica);
        let (dups, _, _) = replica.apply_counters();
        assert_eq!(dups, 3);
        assert_eq!(replica.next_row(), 11);
        assert_identical(&leader, &replica);
        std::fs::remove_dir_all(&ldir).unwrap();
        std::fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn gap_in_stream_is_rejected() {
        let rdir = temp_dir("gap_r");
        let replica = Replica::open(&rdir, config(), EngineConfig::default()).unwrap();
        let err = replica
            .apply(&ReplEvent::Record { row: 5, timestamp: 5, vector: vec![0.0, 0.0] })
            .unwrap_err();
        assert!(err.to_string().contains("replication gap"), "{err}");
        std::fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn tampered_record_is_replica_diverged_with_offset() {
        let ldir = temp_dir("tamper_l");
        let rdir = temp_dir("tamper_r");
        let leader = leader(&ldir, 8);
        let replica = Replica::open(&rdir, config(), EngineConfig::default()).unwrap();
        let mut feed = WalFeed::for_engine(&leader, 0).unwrap();
        let mut seal_crcs = Vec::new();
        loop {
            let batch = feed.next_batch(64).unwrap();
            if batch.is_empty() {
                break;
            }
            for ev in batch {
                match ev {
                    // Corrupt one element of row 5's vector in flight; its
                    // record lands in segment [4,8).
                    ReplEvent::Record { row: 5, timestamp, mut vector } => {
                        vector[0] += 1.0;
                        replica.apply(&ReplEvent::Record { row: 5, timestamp, vector }).unwrap();
                    }
                    ReplEvent::Seal { segment, crc } => seal_crcs.push((segment, crc)),
                    ev => replica.apply(&ev).unwrap(),
                }
            }
        }
        replica.apply(&ReplEvent::Seal { segment: seal_crcs[0].0, crc: seal_crcs[0].1 }).unwrap();
        let err = replica
            .apply(&ReplEvent::Seal { segment: seal_crcs[1].0, crc: seal_crcs[1].1 })
            .unwrap_err();
        match err {
            MbiError::ReplicaDiverged { segment: 4, offset } => {
                // The follower's own records are self-consistent (it wrote
                // what it was told); the histories differ, so the offset is
                // the record region start.
                assert_eq!(offset, HEADER_LEN);
            }
            other => panic!("expected ReplicaDiverged in segment 4, got {other:?}"),
        }
        std::fs::remove_dir_all(&ldir).unwrap();
        std::fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn promote_opens_for_writes_and_refuses_further_records() {
        let ldir = temp_dir("promote_l");
        let rdir = temp_dir("promote_r");
        let leader = leader(&ldir, 9);
        let replica = Replica::open(&rdir, config(), EngineConfig::default()).unwrap();
        let mut feed = WalFeed::for_engine(&leader, 0).unwrap();
        drain(&mut feed, &replica);
        replica.promote().unwrap();
        assert!(replica.is_promoted());
        let err = replica
            .apply(&ReplEvent::Record { row: 9, timestamp: 9, vector: vec![0.0, 0.0] })
            .unwrap_err();
        assert!(err.to_string().contains("promoted"), "{err}");
        // The promoted engine accepts writes and serves them.
        replica.engine().insert(&[100.0, -100.0], 100).unwrap();
        let hits = replica.engine().query(&[100.0, -100.0], 1, TimeWindow::all());
        assert_eq!(hits[0].timestamp, 100);
        std::fs::remove_dir_all(&ldir).unwrap();
        std::fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn pruned_cursor_is_terminal_not_silent() {
        let ldir = temp_dir("pruned_l");
        let leader = leader(&ldir, 12);
        leader.checkpoint().unwrap();
        // The checkpoint pruned segments below the sealed prefix; a feed
        // resuming from row 0 must error, never skip rows silently.
        let mut feed = WalFeed::for_engine(&leader, 0).unwrap();
        let err = feed.next_batch(64).unwrap_err();
        assert!(err.to_string().contains("re-seeded"), "{err}");
        std::fs::remove_dir_all(&ldir).unwrap();
    }

    /// The promotion gate accepts exactly what recovery accepts: 20 stray
    /// bytes after the last record, announcing a 4-byte payload, are
    /// corruption to both, not a torn tail.
    #[test]
    fn promote_refuses_a_log_recovery_refuses() {
        let rdir = temp_dir("gate_r");
        let config = MbiConfig::new(2, Metric::Euclidean).with_leaf_size(8);
        let replica = Replica::open(&rdir, config, EngineConfig::default()).unwrap();
        for row in 0..4u64 {
            let vector = vec![row as f32, 0.0];
            replica.apply(&ReplEvent::Record { row, timestamp: row as i64, vector }).unwrap();
        }
        let wal_dir = rdir.join(WAL_DIR);
        let mut stray = 4u32.to_le_bytes().to_vec();
        stray.resize(20, 0xab);
        let segment = wal_dir.join(wal::segment_file_name(0));
        let mut file = std::fs::OpenOptions::new().append(true).open(segment).unwrap();
        std::io::Write::write_all(&mut file, &stray).unwrap();
        match replica.promote() {
            Err(MbiError::WalCorrupt { segment: 0, offset: 120 }) => {}
            other => panic!("expected WalCorrupt at byte 120, got {other:?}"),
        }
        assert!(!replica.is_promoted());
        match Wal::recover(&wal_dir, 2, |_| Ok(())) {
            Err(MbiError::WalCorrupt { segment: 0, offset: 120 }) => {}
            other => panic!("expected recovery to refuse the same log, got {other:?}"),
        }
        drop(replica);
        std::fs::remove_dir_all(&rdir).unwrap();
    }

    /// One table of newest-segment tails and each reader's verdict on it:
    /// recovery, the promotion gate, and the replication feed with the
    /// segment live (the newest) or sealed (a newer one follows it).
    #[test]
    fn wal_verdict_table() {
        let dir = temp_dir("verdicts");
        let mut wal = Wal::create(&dir, 2).unwrap();
        for i in 0..4i64 {
            wal.append(i, &[i as f32, 0.0]).unwrap();
        }
        drop(wal);
        // The 24-byte header, then four 24-byte records (length, CRC,
        // timestamp, two floats): one whole leaf of `config()`.
        let clean = std::fs::read(dir.join(wal::segment_file_name(0))).unwrap();
        let last = clean.len() - 24;
        let edit = |at: usize, bytes: &[u8]| {
            let mut b = clean.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            b
        };
        let flip = |at: usize| edit(at, &[clean[at] ^ 1]);
        let mut stray = clean.clone();
        stray.extend(4u32.to_le_bytes());
        stray.resize(clean.len() + 20, 0xab);
        let mut next_header = clean[..24].to_vec();
        next_header[8..16].copy_from_slice(&4u64.to_le_bytes());

        // Ok(n): n records read and the rest tolerated as a torn tail;
        // Err(o): `WalCorrupt { segment: 0, offset: o }`.
        type Verdict = Result<u64, u64>;
        #[rustfmt::skip]
        let table = [
            // shape                    bytes                            recover  gate      live     sealed
            ("clean end",               clean.clone(),                   Ok(4),   Ok(()),   Ok(4),   Ok(4)),
            ("partial segment header",  clean[..10].to_vec(),            Ok(0),   Ok(()),   Ok(0),   Err(10)),
            ("partial record header",   clean[..last + 5].to_vec(),      Ok(3),   Ok(()),   Ok(3),   Err(101)),
            ("partial record",          clean[..last + 12].to_vec(),     Ok(3),   Ok(()),   Ok(3),   Err(108)),
            ("bad CRC at EOF",          flip(last + 10),                 Ok(3),   Ok(()),   Ok(3),   Err(96)),
            ("bad CRC mid-segment",     flip(48 + 10),                   Err(48), Err(48),  Err(48), Err(48)),
            ("short length field",      edit(last, &4u32.to_le_bytes()), Err(96), Err(96),  Err(96), Err(96)),
            ("long length field",       edit(last, &999u32.to_le_bytes()), Ok(3), Ok(()),   Ok(3),   Err(96)),
            ("20 stray bytes",          stray,                           Err(120), Err(120), Err(120), Err(120)),
        ];
        for (shape, bytes, recover, gate, live, sealed) in table {
            let offset = |e: MbiError| match e {
                MbiError::WalCorrupt { segment: 0, offset } => offset,
                other => panic!("{shape}: {other}"),
            };
            let feed = |dir: &Path| -> Verdict {
                let events = WalFeed::new(dir, 2, 4, 0).next_batch(64).map_err(offset)?;
                Ok(events.iter().filter(|e| matches!(e, ReplEvent::Record { .. })).count() as u64)
            };
            let (live_dir, sealed_dir) = (temp_dir("verdict_live"), temp_dir("verdict_sealed"));
            for dir in [&live_dir, &sealed_dir] {
                std::fs::create_dir_all(dir).unwrap();
                std::fs::write(dir.join(wal::segment_file_name(0)), &bytes).unwrap();
            }
            std::fs::write(sealed_dir.join(wal::segment_file_name(4)), &next_header).unwrap();

            assert_eq!(feed(&live_dir), live, "{shape}: live feed");
            assert_eq!(feed(&sealed_dir), sealed, "{shape}: sealed feed");
            let gated = wal::check_newest_segment(&live_dir, 2).map_err(offset);
            assert_eq!(gated, gate, "{shape}: promotion gate");
            let mut rows = 0;
            let recovered = Wal::recover(&live_dir, 2, |_| {
                rows += 1;
                Ok(())
            });
            assert_eq!(recovered.map(|_| rows).map_err(offset), recover, "{shape}: recovery");
            assert_eq!(gated, recover.map(drop), "{shape}: the gate accepts what recovery does");
            for dir in [live_dir, sealed_dir] {
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
