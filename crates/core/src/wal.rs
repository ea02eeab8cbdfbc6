//! Segmented, checksummed write-ahead log for the streaming engine.
//!
//! The paper's data model is append-only (§4.2): rows arrive forever in
//! timestamp order. [`StreamingMbi`](crate::StreamingMbi) acks an insert as
//! soon as the row is in the in-memory tail — a restart would silently lose
//! every row whose merge chain had not been persisted. The WAL closes that
//! hole: an insert appends one record here *before* it is acknowledged, so
//! [`StreamingMbi::recover`](crate::StreamingMbi::recover) can replay every
//! acked row over the last persisted snapshot.
//!
//! # On-disk format
//!
//! The log is a directory of segment files, one per sealed leaf (the engine
//! rotates at each seal), named `wal-<first_row>.log` with `first_row`
//! zero-padded so lexicographic order is row order:
//!
//! ```text
//! segment  := header record*
//! header   := "MBIW" version:u32 first_row:u64 dim:u64          (24 bytes)
//! record   := len:u32 crc:u32 payload                           (len = |payload|)
//! payload  := timestamp:i64 vector:[f32; dim]                   (little-endian)
//! ```
//!
//! `crc` is the CRC32 (IEEE) of `payload`. Records are fixed-size for a
//! given `dim`, so `len` is itself a strong validity check.
//!
//! # Failure semantics
//!
//! One scanner, `SegmentScan`, reads segments for [`Wal::recover`], the
//! replica promotion gate, and the replication feed: it stops at the first
//! invalid byte and says whether a torn append could have left it.
//!
//! * A **torn tail** — the newest segment's header or final record cut
//!   short, or that record failing its CRC exactly at EOF — is tolerated:
//!   the row was never acked (the append errored or the process died inside
//!   it), so replay stops there and the segment is truncated back to the
//!   last valid boundary. Promotion accepts exactly these tails.
//! * Any other invalid byte — a whole record header with the wrong length,
//!   a CRC failure before EOF, a torn record in an older segment — is
//!   **corruption**, reported as [`MbiError::WalCorrupt`] with the segment
//!   and byte offset: never a panic, never silently dropped data.
//! * A failed append (I/O error, injected fault) rolls the segment back to
//!   the last record boundary so later appends keep the log parseable.
//!
//! Sealed-and-published leaves let their segments be pruned: once a
//! persisted snapshot covers a segment's rows, [`Wal::prune`] deletes it —
//! unless a registered replication *retention hold* ([`Wal::hold`]) still
//! needs it, in which case the segment survives until the hold advances.

use crate::error::MbiError;
use crate::fail;
use crate::Timestamp;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// CRC32 (IEEE) of WAL payloads — [`mbi_math::crc32`], re-exported where it
/// was first defined so the `mbi_core::wal::crc32` path keeps working.
pub use mbi_math::crc32;

const WAL_MAGIC: &[u8; 4] = b"MBIW";
const WAL_VERSION: u32 = 1;
pub(crate) const HEADER_LEN: u64 = 24;
const REC_HEADER_LEN: usize = 8;

pub(crate) fn segment_file_name(first_row: u64) -> String {
    format!("wal-{first_row:020}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// Best-effort directory fsync so segment creation/removal survives a crash;
/// ignored on platforms where directories cannot be synced.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// An open write-ahead log: appends go to the newest segment; rotation and
/// pruning are driven by the engine's seal/checkpoint events.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    dim: usize,
    file: File,
    segment_start: u64,
    /// Bytes of the current segment known to hold whole valid records (plus
    /// the header); failed appends roll the file back to this length.
    good_len: u64,
    next_row: u64,
    /// Scratch buffer for one encoded record (reused across appends).
    scratch: Vec<u8>,
    /// Retention holds: each registered follower pins every segment holding
    /// rows at or past its row, keeping [`Wal::prune`] from deleting
    /// segments the follower has not replicated yet.
    holds: std::collections::BTreeMap<String, u64>,
}

/// One replayed WAL record, borrowed from the replay buffer.
#[derive(Debug, PartialEq)]
pub struct WalRecord<'a> {
    /// Global row id of the record (position in the insert stream).
    pub row: u64,
    /// The row's timestamp.
    pub timestamp: Timestamp,
    /// The row's vector (`dim` floats).
    pub vector: &'a [f32],
}

impl Wal {
    /// Creates a fresh, empty log in `dir` (creating the directory), with
    /// the first segment starting at global row 0.
    pub fn create(dir: impl Into<PathBuf>, dim: usize) -> Result<Self, MbiError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut wal = Wal {
            file: Self::open_segment(&dir, dim, 0)?,
            segment_start: 0,
            good_len: HEADER_LEN,
            next_row: 0,
            scratch: Vec::new(),
            holds: std::collections::BTreeMap::new(),
            dir,
            dim,
        };
        wal.scratch.reserve(record_len(dim) as usize);
        Ok(wal)
    }

    fn open_segment(dir: &Path, dim: usize, first_row: u64) -> Result<File, MbiError> {
        let path = dir.join(segment_file_name(first_row));
        let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&first_row.to_le_bytes());
        header.extend_from_slice(&(dim as u64).to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        sync_dir(dir);
        Ok(file)
    }

    /// Global row id the next append will get.
    pub fn next_row(&self) -> u64 {
        self.next_row
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record. On any error the segment is rolled back to the
    /// last record boundary, so a failed append never leaves bytes that a
    /// later successful append would bury mid-segment.
    pub fn append(&mut self, t: Timestamp, vector: &[f32]) -> Result<(), MbiError> {
        debug_assert_eq!(vector.len(), self.dim);
        self.scratch.clear();
        let payload_len = 8 + vector.len() * 4;
        self.scratch.extend_from_slice(&(payload_len as u32).to_le_bytes());
        self.scratch.extend_from_slice(&[0; 4]); // crc placeholder
        self.scratch.extend_from_slice(&t.to_le_bytes());
        for &x in vector {
            self.scratch.extend_from_slice(&x.to_le_bytes());
        }
        let crc = crc32(&self.scratch[REC_HEADER_LEN..]);
        self.scratch[4..8].copy_from_slice(&crc.to_le_bytes());

        let result = match fail::trigger("wal::append") {
            Some(fail::FailAction::IoError) => Err(std::io::Error::other(fail::INJECTED_MSG)),
            Some(fail::FailAction::ShortWrite) => self
                .file
                .write_all(&self.scratch[..self.scratch.len() / 2])
                .and_then(|()| Err(std::io::Error::other(fail::INJECTED_MSG))),
            Some(fail::FailAction::Panic) => panic!("injected WAL panic"),
            None => self.file.write_all(&self.scratch),
        };
        match result {
            Ok(()) => {
                self.good_len += self.scratch.len() as u64;
                self.next_row += 1;
                Ok(())
            }
            Err(e) => {
                // Roll back any torn prefix — truncate *and* move the write
                // cursor back, or the next append would leave a zero-filled
                // hole where the torn bytes were. If even the rollback fails
                // the next replay still stops cleanly at the torn tail.
                let _ = self.file.set_len(self.good_len);
                let _ = self.file.seek(SeekFrom::Start(self.good_len));
                Err(MbiError::Io(e))
            }
        }
    }

    /// Forces appended records to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), MbiError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Appends one record and, when `sync` is set, fsyncs it before
    /// returning. A failed sync rolls the record back out of the log (the
    /// caller will not ack the row, so replaying it would invent data).
    pub fn append_durable(
        &mut self,
        t: Timestamp,
        vector: &[f32],
        sync: bool,
    ) -> Result<(), MbiError> {
        let before = self.good_len;
        self.append(t, vector)?;
        if sync {
            if let Err(e) = self.file.sync_data() {
                let _ = self.file.set_len(before);
                let _ = self.file.seek(SeekFrom::Start(before));
                self.good_len = before;
                self.next_row -= 1;
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Points the log at a fresh segment starting at `first_row`, abandoning
    /// the current one. Used by recovery when the log on disk ends before
    /// the persisted snapshot (every logged row is already covered).
    pub(crate) fn reset_to(&mut self, first_row: u64) -> Result<(), MbiError> {
        self.file = Self::open_segment(&self.dir, self.dim, first_row)?;
        self.segment_start = first_row;
        self.good_len = HEADER_LEN;
        self.next_row = first_row;
        Ok(())
    }

    /// Syncs and rotates to a fresh segment starting at the next row id.
    /// The engine calls this when a leaf seals, so segment boundaries are
    /// leaf boundaries and pruning can drop whole leaves.
    pub fn rotate(&mut self) -> Result<(), MbiError> {
        self.file.sync_data()?;
        self.file = Self::open_segment(&self.dir, self.dim, self.next_row)?;
        self.segment_start = self.next_row;
        self.good_len = HEADER_LEN;
        Ok(())
    }

    /// Registers (or refreshes) a retention hold: segments holding rows at
    /// or past `row` survive [`Wal::prune`] until the hold advances.
    pub fn hold(&mut self, id: &str, row: u64) {
        self.holds.insert(id.to_string(), row);
    }

    /// Deletes every segment whose rows are all `< durable_rows` (covered by
    /// a persisted snapshot) **and** below every retention hold. The newest
    /// segment is never deleted. A segment vanishing underneath the delete
    /// (concurrent prune, manual cleanup) counts as already pruned, not an
    /// error.
    pub fn prune(&mut self, durable_rows: u64) -> Result<(), MbiError> {
        let floor =
            self.holds.values().copied().min().map_or(durable_rows, |h| h.min(durable_rows));
        let segments = list_segments(&self.dir)?;
        let mut removed = false;
        for pair in segments.windows(2) {
            let (first_row, ref path) = pair[0];
            if pair[1].0 <= floor && first_row != self.segment_start {
                match std::fs::remove_file(path) {
                    Ok(()) => removed = true,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        if removed {
            sync_dir(&self.dir);
        }
        Ok(())
    }

    /// Opens the log in `dir`, replaying every valid record through
    /// `visit(row, timestamp, vector)` in row order, then positions the log
    /// to append after the last valid record (truncating a torn tail).
    ///
    /// A missing directory or an empty one yields a fresh log. A torn final
    /// record ends replay silently (it was never acked); any other invalid
    /// record is [`MbiError::WalCorrupt`].
    pub fn recover(
        dir: impl Into<PathBuf>,
        dim: usize,
        mut visit: impl FnMut(WalRecord<'_>) -> Result<(), MbiError>,
    ) -> Result<Self, MbiError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let segments = list_segments(&dir)?;
        let Some(&(last_start, _)) = segments.last() else {
            return Self::create(dir, dim);
        };

        // The first remaining segment sets the starting row (earlier ones
        // may have been pruned under a persisted snapshot); every later
        // segment must continue exactly where its predecessor stopped.
        let mut next_row = segments[0].0;
        let mut last_valid_len = HEADER_LEN;
        for (i, (first_row, path)) in segments.iter().enumerate() {
            let newest = i == segments.len() - 1;
            let bytes = std::fs::read(path)?;
            last_valid_len =
                replay_segment(&bytes, *first_row, dim, &mut next_row, newest, &mut visit)?;
        }

        // Reopen the newest segment for appending, truncating any torn tail
        // (or recreating it when even its header was torn).
        let path = dir.join(segment_file_name(last_start));
        let (file, segment_start, good_len) = if last_valid_len < HEADER_LEN {
            (Self::open_segment(&dir, dim, next_row)?, next_row, HEADER_LEN)
        } else {
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(last_valid_len)?;
            file.sync_data()?;
            (file, last_start, last_valid_len)
        };
        let mut wal = Wal {
            file,
            segment_start,
            good_len,
            next_row,
            scratch: Vec::new(),
            holds: std::collections::BTreeMap::new(),
            dir,
            dim,
        };
        // Position the write cursor at the (possibly truncated) end.
        wal.file.seek(SeekFrom::End(0))?;
        wal.scratch.reserve(record_len(dim) as usize);
        Ok(wal)
    }
}

/// Bytes of one record for `dim`-dimensional vectors.
fn record_len(dim: usize) -> u64 {
    (REC_HEADER_LEN + 8 + dim * 4) as u64
}

/// Byte offset of record `k` of a segment: records are fixed-size, so a
/// row's position is a pure function of its index in the segment.
pub(crate) fn record_offset(dim: usize, k: u64) -> u64 {
    HEADER_LEN + k * record_len(dim)
}

/// Why a [`SegmentScan`] stopped before the end of its bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScanStop {
    /// The bytes at this offset could be a torn append: a header or record
    /// cut short, or a record failing its CRC exactly at EOF. Tolerated at
    /// the end of the newest segment; anywhere else it is corruption here.
    Torn(u64),
    /// Bytes at this offset that no torn append leaves behind.
    Corrupt(u64),
}

impl ScanStop {
    pub(crate) fn offset(self) -> u64 {
        match self {
            ScanStop::Torn(offset) | ScanStop::Corrupt(offset) => offset,
        }
    }
}

/// The one reader of the segment format: checks the header, then walks the
/// fixed-size records from a given offset, verifying each CRC. Recovery,
/// the promotion gate, the replication feed and the divergence diagnosis
/// all read segments through it and differ only in which [`ScanStop`] they
/// tolerate.
pub(crate) struct SegmentScan<'a> {
    bytes: &'a [u8],
    payload_len: usize,
    /// Where the next record starts: just past the last record read.
    pub(crate) offset: usize,
}

impl<'a> SegmentScan<'a> {
    /// Checks the 24-byte header — magic, version, `first_row` (the file
    /// name's number) and `dim`, at offsets 0/4/8/16 — and positions the
    /// scan at byte `from`, which must be a record boundary.
    pub(crate) fn new(
        bytes: &'a [u8],
        first_row: u64,
        dim: usize,
        from: u64,
    ) -> Result<Self, ScanStop> {
        if bytes.len() < HEADER_LEN as usize {
            return Err(ScanStop::Torn(bytes.len() as u64));
        }
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        if &bytes[0..4] != WAL_MAGIC {
            return Err(ScanStop::Corrupt(0));
        }
        if bytes[4..8] != WAL_VERSION.to_le_bytes() {
            return Err(ScanStop::Corrupt(4));
        }
        if word(8) != first_row {
            return Err(ScanStop::Corrupt(8));
        }
        if word(16) != dim as u64 {
            return Err(ScanStop::Corrupt(16));
        }
        Ok(SegmentScan { bytes, payload_len: 8 + dim * 4, offset: from as usize })
    }

    /// The next record as `(timestamp, vector)`, `Ok(None)` at the end of
    /// the bytes, or why the record at [`Self::offset`] is unreadable.
    pub(crate) fn next_record(&mut self) -> Result<Option<(Timestamp, Vec<f32>)>, ScanStop> {
        let (b, off) = (self.bytes, self.offset);
        if off >= b.len() {
            return Ok(None);
        }
        let (torn, corrupt) = (ScanStop::Torn(off as u64), ScanStop::Corrupt(off as u64));
        if b.len() - off < REC_HEADER_LEN {
            return Err(torn);
        }
        let field = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
        let end = off + REC_HEADER_LEN + field(off) as usize;
        if field(off) as usize != self.payload_len || end > b.len() {
            // A torn append writes a *prefix* of a correct record, so a
            // whole header with the wrong length is corruption — unless the
            // record it announces runs past EOF.
            return Err(if end > b.len() { torn } else { corrupt });
        }
        let payload = &b[off + REC_HEADER_LEN..end];
        if crc32(payload) != field(off + 4) {
            // Only the record ending exactly at EOF can be a torn write.
            return Err(if end == b.len() { torn } else { corrupt });
        }
        self.offset = end;
        let (ts, vector) = payload.split_at(8);
        let vector =
            vector.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")));
        Ok(Some((Timestamp::from_le_bytes(ts.try_into().expect("8 bytes")), vector.collect())))
    }
}

/// Recovery's verdict on one segment: replays its records through `visit`,
/// numbering them from `*next_row`, and returns the length of its valid
/// prefix. A torn tail ends replay only in the `newest` segment, and a torn
/// header only when that segment continues the log; every other stop is
/// [`MbiError::WalCorrupt`].
fn replay_segment(
    bytes: &[u8],
    first_row: u64,
    dim: usize,
    next_row: &mut u64,
    newest: bool,
    visit: &mut impl FnMut(WalRecord<'_>) -> Result<(), MbiError>,
) -> Result<u64, MbiError> {
    let corrupt = |offset: u64| MbiError::WalCorrupt { segment: first_row, offset };
    let mut scan = match SegmentScan::new(bytes, first_row, dim, HEADER_LEN) {
        Ok(scan) if first_row == *next_row => scan,
        Ok(_) => return Err(corrupt(8)),
        Err(ScanStop::Torn(_)) if newest && first_row == *next_row => return Ok(0),
        Err(stop) => return Err(corrupt(stop.offset())),
    };
    loop {
        match scan.next_record() {
            Ok(Some((timestamp, vector))) => {
                visit(WalRecord { row: *next_row, timestamp, vector: &vector })?;
                *next_row += 1;
            }
            Ok(None) => return Ok(scan.offset as u64),
            Err(ScanStop::Torn(_)) if newest => return Ok(scan.offset as u64),
            Err(stop) => return Err(corrupt(stop.offset())),
        }
    }
}

/// The promotion gate: recovery's scan of the newest segment in `dir`, run
/// read-only. A follower must not open for writes on top of a log it could
/// not itself recover from, so this accepts exactly what
/// [`Wal::recover`] accepts there.
pub(crate) fn check_newest_segment(dir: &Path, dim: usize) -> Result<(), MbiError> {
    let segments = list_segments(dir)?;
    let Some(&(first_row, ref path)) = segments.last() else {
        return Ok(());
    };
    let bytes = std::fs::read(path)?;
    replay_segment(&bytes, first_row, dim, &mut { first_row }, true, &mut |_| Ok(()))?;
    Ok(())
}

/// Segment files of `dir` as `(first_row, path)`, sorted by row.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, MbiError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(first_row) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((first_row, entry.path()));
        }
    }
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbi_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    type CollectedRows = Vec<(u64, Timestamp, Vec<f32>)>;

    fn collect(dir: &Path, dim: usize) -> Result<(CollectedRows, Wal), MbiError> {
        let mut rows = Vec::new();
        let wal = Wal::recover(dir, dim, |r| {
            rows.push((r.row, r.timestamp, r.vector.to_vec()));
            Ok(())
        })?;
        Ok((rows, wal))
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn roundtrip_with_rotation() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::create(&dir, 2).unwrap();
        for i in 0..10i64 {
            wal.append(i, &[i as f32, -i as f32]).unwrap();
            if (i + 1) % 4 == 0 {
                wal.rotate().unwrap();
            }
        }
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(list_segments(&dir).unwrap().len(), 3, "two rotations + initial");

        let (rows, mut wal) = collect(&dir, 2).unwrap();
        assert_eq!(rows.len(), 10);
        for (i, (row, ts, v)) in rows.iter().enumerate() {
            assert_eq!(*row, i as u64);
            assert_eq!(*ts, i as i64);
            assert_eq!(v, &vec![i as f32, -(i as f32)]);
        }
        // Recovery resumes appending where the log ended.
        assert_eq!(wal.next_row(), 10);
        wal.append(10, &[10.0, -10.0]).unwrap();
        drop(wal);
        let (rows, _) = collect(&dir, 2).unwrap();
        assert_eq!(rows.len(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_serves_prefix() {
        let dir = temp_dir("torn");
        let mut wal = Wal::create(&dir, 2).unwrap();
        for i in 0..5i64 {
            wal.append(i, &[i as f32, 0.0]).unwrap();
        }
        drop(wal);
        let seg = dir.join(segment_file_name(0));
        let full = std::fs::metadata(&seg).unwrap().len();
        let rec = (full - HEADER_LEN) / 5;
        // Cut the last record in half: replay yields 4 rows, and the file is
        // truncated back to the 4-record boundary.
        let torn_len = HEADER_LEN + 4 * rec + rec / 2;
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(torn_len).unwrap();
        let (rows, wal) = collect(&dir, 2).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(wal.next_row(), 4);
        drop(wal);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), HEADER_LEN + 4 * rec);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_segment_corruption_is_wal_corrupt() {
        let dir = temp_dir("corrupt");
        let mut wal = Wal::create(&dir, 2).unwrap();
        for i in 0..4i64 {
            wal.append(i, &[i as f32, 0.0]).unwrap();
        }
        wal.rotate().unwrap();
        wal.append(4, &[4.0, 0.0]).unwrap();
        drop(wal);
        // Flip a payload byte of record 1 in the *first* (non-last) segment.
        let seg = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let rec = (bytes.len() as u64 - HEADER_LEN) / 4;
        let victim = (HEADER_LEN + rec + REC_HEADER_LEN as u64) as usize;
        bytes[victim] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        match collect(&dir, 2) {
            Err(MbiError::WalCorrupt { segment: 0, offset }) => {
                assert_eq!(offset, HEADER_LEN + rec);
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// At d = 128 a payload is 520 bytes — 32 sixteen-byte folds and an
    /// 8-byte table tail in the checksum kernel — so the *last* payload byte
    /// is the one a broken tail would miss.
    #[test]
    fn flipped_last_payload_byte_is_corrupt_mid_log_and_torn_at_the_end() {
        let dir = temp_dir("lastbyte");
        let dim = 128;
        let mut wal = Wal::create(&dir, dim).unwrap();
        for i in 0..4i64 {
            wal.append(i, &vec![i as f32 + 0.5; dim]).unwrap();
        }
        drop(wal);
        let seg = dir.join(segment_file_name(0));
        let clean = std::fs::read(&seg).unwrap();
        let rec = (clean.len() - HEADER_LEN as usize) / 4;
        assert_eq!(rec, REC_HEADER_LEN + 8 + 4 * dim);
        let last_byte_of = |record: usize| HEADER_LEN as usize + (record + 1) * rec - 1;

        let mut bytes = clean.clone();
        bytes[last_byte_of(1)] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        match collect(&dir, dim) {
            Err(MbiError::WalCorrupt { segment: 0, offset }) => {
                assert_eq!(offset, HEADER_LEN + rec as u64);
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }

        let mut bytes = clean;
        bytes[last_byte_of(3)] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let (rows, wal) = collect(&dir, dim).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(wal.next_row(), 3);
        drop(wal);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), HEADER_LEN + 3 * rec as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_drops_only_fully_covered_segments() {
        let dir = temp_dir("prune");
        let mut wal = Wal::create(&dir, 1).unwrap();
        for i in 0..9i64 {
            wal.append(i, &[i as f32]).unwrap();
            if (i + 1) % 3 == 0 {
                wal.rotate().unwrap();
            }
        }
        // Segments: [0,3) [3,6) [6,9) [9,..). Snapshot covers 6 rows.
        wal.prune(6).unwrap();
        let left: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(left, vec![6, 9]);
        // Replay restarts at the first surviving segment, keeping the
        // original global row ids from the segment headers.
        let (rows, _) = collect(&dir, 1).unwrap();
        let ids: Vec<u64> = rows.iter().map(|(r, _, _)| *r).collect();
        assert_eq!(ids, vec![6, 7, 8]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_tolerates_segment_vanishing_underneath() {
        let dir = temp_dir("prune_race");
        let mut wal = Wal::create(&dir, 1).unwrap();
        for i in 0..9i64 {
            wal.append(i, &[i as f32]).unwrap();
            if (i + 1) % 3 == 0 {
                wal.rotate().unwrap();
            }
        }
        // Simulate a concurrent prune/manual cleanup deleting a fully
        // covered segment between the listing and the remove.
        std::fs::remove_file(dir.join(segment_file_name(0))).unwrap();
        wal.prune(6).unwrap();
        let left: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(left, vec![6, 9]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_hold_pins_segments_until_released() {
        let dir = temp_dir("hold");
        let mut wal = Wal::create(&dir, 1).unwrap();
        for i in 0..9i64 {
            wal.append(i, &[i as f32]).unwrap();
            if (i + 1) % 3 == 0 {
                wal.rotate().unwrap();
            }
        }
        // A follower at row 3 pins [3,6) even though the snapshot covers 9.
        wal.hold("follower-a", 3);
        wal.prune(9).unwrap();
        let left: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(left, vec![3, 6, 9], "segment [3,6) survives under the hold");
        // The hold advancing releases the pinned prefix.
        wal.hold("follower-a", 6);
        wal.prune(9).unwrap();
        let left: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(left, vec![6, 9]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_contiguous_segments_are_corrupt() {
        let dir = temp_dir("gap");
        let mut wal = Wal::create(&dir, 1).unwrap();
        for i in 0..6i64 {
            wal.append(i, &[i as f32]).unwrap();
            if (i + 1) % 3 == 0 {
                wal.rotate().unwrap();
            }
        }
        drop(wal);
        // Deleting a *middle* segment leaves a row gap: replay must refuse.
        std::fs::remove_file(dir.join(segment_file_name(3))).unwrap();
        match collect(&dir, 1) {
            Err(MbiError::WalCorrupt { segment: 6, offset: 8 }) => {}
            other => panic!("expected WalCorrupt over the gap, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A clean dim-2 segment of four records (one leaf of four rows), the
    /// base of `replicate::tests::wal_verdict_table`'s shapes.
    fn clean_segment() -> &'static [u8] {
        static CLEAN: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        CLEAN.get_or_init(|| {
            let dir = temp_dir("hostile_seed");
            let mut wal = Wal::create(&dir, 2).unwrap();
            for i in 0..4i64 {
                wal.append(i, &[i as f32, 0.0]).unwrap();
            }
            drop(wal);
            let bytes = std::fs::read(dir.join(segment_file_name(0))).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            bytes
        })
    }

    /// The verdict table's segment shapes: clean, torn at each depth, a
    /// bad CRC at EOF and mid-segment, wrong length fields, stray bytes.
    fn verdict_shapes() -> Vec<Vec<u8>> {
        let clean = clean_segment();
        let last = clean.len() - 24;
        let edit = |at: usize, bytes: &[u8]| {
            let mut b = clean.to_vec();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            b
        };
        let flip = |at: usize| edit(at, &[clean[at] ^ 1]);
        let mut stray = clean.to_vec();
        stray.extend(4u32.to_le_bytes());
        stray.resize(clean.len() + 20, 0xab);
        vec![
            clean.to_vec(),
            clean[..10].to_vec(),
            clean[..last + 5].to_vec(),
            clean[..last + 12].to_vec(),
            flip(last + 10),
            flip(48 + 10),
            edit(last, &4u32.to_le_bytes()),
            edit(last, &999u32.to_le_bytes()),
            stray,
        ]
    }

    /// `Ok(())` or a `WalCorrupt`'s `(segment, offset)`, in any segment;
    /// anything else (a panic included) fails the test.
    fn verdict<T>(r: Result<T, MbiError>) -> Result<(), (u64, u64)> {
        match r {
            Ok(_) => Ok(()),
            Err(MbiError::WalCorrupt { segment, offset }) => Err((segment, offset)),
            Err(other) => panic!("hostile WAL bytes gave {other:?}"),
        }
    }

    /// The replication feed's first batch over `dir` (dim 2, leaf 4, from
    /// row 0).
    fn feed(dir: &Path) -> Result<Vec<crate::replicate::ReplEvent>, MbiError> {
        crate::replicate::WalFeed::new(dir, 2, 4, 0).next_batch(64)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Hostile segment bytes — arbitrary bytes after a valid header,
        /// arbitrary whole files, and the verdict table's shapes with bytes
        /// flipped, cut and appended — make recovery, the promotion gate and
        /// the replication feed answer `Ok` or `WalCorrupt`, never panic,
        /// whether the segment is the newest or has a successor. As the
        /// newest segment, the gate accepts exactly what recovery does, and
        /// the feed fails exactly where recovery does.
        #[test]
        fn arbitrary_wal_bytes_never_panic(
            kind in 0..4usize,
            shape in 0..9usize,
            flips in proptest::collection::vec(
                (proptest::arbitrary::any::<usize>(), 1..=255u8), 0..4),
            cut in proptest::arbitrary::any::<usize>(),
            tail in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..80),
        ) {
            let bytes = match kind {
                0 => [&clean_segment()[..HEADER_LEN as usize], &tail[..]].concat(),
                1 => tail,
                _ => {
                    let mut b = verdict_shapes().swap_remove(shape);
                    for (at, x) in flips {
                        if !b.is_empty() {
                            let at = at % b.len();
                            b[at] ^= x;
                        }
                    }
                    if kind == 3 {
                        b.truncate(cut % (b.len() + 1));
                        b.extend(tail);
                    }
                    b
                }
            };
            let (newest, middle) = (temp_dir("hostile_newest"), temp_dir("hostile_middle"));
            for dir in [&newest, &middle] {
                std::fs::create_dir_all(dir).unwrap();
                std::fs::write(dir.join(segment_file_name(0)), &bytes).unwrap();
            }
            let mut next_header = clean_segment()[..HEADER_LEN as usize].to_vec();
            next_header[8..16].copy_from_slice(&4u64.to_le_bytes());
            std::fs::write(middle.join(segment_file_name(4)), &next_header).unwrap();

            // Recovery truncates a torn tail, so the readers go first.
            let gate = verdict(check_newest_segment(&newest, 2));
            let fed = verdict(feed(&newest));
            let recovered = verdict(Wal::recover(&newest, 2, |_| Ok(())));
            proptest::prop_assert_eq!(gate, recovered, "{:?}", bytes);
            proptest::prop_assert_eq!(fed, recovered, "{:?}", bytes);
            verdict(check_newest_segment(&middle, 2)).unwrap();
            let _ = verdict(feed(&middle));
            let _ = verdict(Wal::recover(&middle, 2, |_| Ok(())));
            for dir in [newest, middle] {
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }
}
