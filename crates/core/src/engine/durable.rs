//! Durability: the WAL an engine appends to before it acks an insert,
//! [`StreamingMbi::open`] / [`StreamingMbi::recover`] /
//! [`StreamingMbi::checkpoint`] over a directory, and the replication
//! retention holds that keep WAL segments a follower still needs.

use super::{EngineConfig, IndexSnapshot, StreamingMbi};
use crate::config::MbiConfig;
use crate::error::MbiError;
use crate::wal::Wal;
use crate::Timestamp;
use parking_lot::Mutex;
use std::path::{Path, PathBuf};

/// File name of the persisted snapshot inside a durable engine directory.
pub const SNAPSHOT_FILE: &str = "snapshot.mbi";
/// Subdirectory holding the WAL segments inside a durable engine directory.
pub const WAL_DIR: &str = "wal";

/// When the WAL of a durable engine fsyncs acked rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalSync {
    /// fsync after every append: an acked insert is on stable storage, at
    /// the cost of one `fdatasync` per insert.
    Always,
    /// fsync when a leaf seals (the segment rotation syncs the finished
    /// segment) and at [`StreamingMbi::checkpoint`]. Rows of the growing
    /// partial leaf survive a process crash (the OS holds them) but up to
    /// one leaf may be lost to a power failure. The default.
    OnSeal,
}

/// Durable attachment of an engine to a directory: the open WAL plus the
/// directory that holds the persisted snapshot.
#[derive(Debug)]
pub(super) struct Durability {
    pub(super) dir: PathBuf,
    pub(super) wal: Mutex<Wal>,
}

impl StreamingMbi {
    /// Opens a *durable* engine in `dir`: creates the directory (with an
    /// empty persisted snapshot and a fresh WAL) when it does not hold one
    /// yet, otherwise recovers the existing state exactly like
    /// [`Self::recover`] — in which case `config` is ignored in favour of
    /// the persisted one.
    ///
    /// On a durable engine every insert is WAL-logged before it is acked
    /// (see [`WalSync`] for the fsync cadence), and
    /// [`Self::checkpoint`] persists the published snapshot and prunes the
    /// log.
    pub fn open(
        dir: impl AsRef<Path>,
        config: MbiConfig,
        engine: EngineConfig,
    ) -> Result<Self, MbiError> {
        let dir = dir.as_ref();
        if dir.join(SNAPSHOT_FILE).exists() {
            return Self::recover(dir, engine);
        }
        std::fs::create_dir_all(dir)?;
        IndexSnapshot::empty(config).save_file(dir.join(SNAPSHOT_FILE))?;
        let wal = Wal::create(dir.join(WAL_DIR), config.dim)?;
        Ok(Self::build(
            config,
            engine,
            Some(Durability { dir: dir.to_path_buf(), wal: Mutex::new(wal) }),
        ))
    }

    /// Recovers a durable engine from `dir`: loads the persisted snapshot
    /// (verifying its checksums), replays every acked WAL row past the
    /// snapshot through the normal insert path (so sealed leaves re-enqueue
    /// their chain builds), and resumes appending to the log. A torn final
    /// WAL record — an append the process died inside — is truncated away;
    /// it was never acked. Any other corruption in the snapshot or the log
    /// is an error, never silently dropped data.
    ///
    /// After recovery the engine serves **exactly the acked prefix** of the
    /// pre-crash insert stream: [`Self::flush`] + [`Self::to_index`] yields
    /// an index bit-identical to a synchronous one fed those rows.
    pub fn recover(dir: impl AsRef<Path>, engine: EngineConfig) -> Result<Self, MbiError> {
        let dir = dir.as_ref();
        // The snapshot reader checks every CRC and the block structure.
        let snapshot = IndexSnapshot::load_file(dir.join(SNAPSHOT_FILE))?;
        let config = snapshot.config;
        let sealed = snapshot.sealed_rows() as u64;
        // A checkpoint holds whole leaves only; a tail record's rows are in
        // no WAL, so a file with one (an `MbiIndex` save) cannot resume here.
        let tail = snapshot.times.len() as u64 - sealed;
        if tail > 0 {
            let detail = format!("the snapshot holds {tail} rows past its leaves, in no WAL");
            return Err(MbiError::corrupt(0, detail));
        }
        let mut replayed: Vec<(Timestamp, Vec<f32>)> = Vec::new();
        let mut first_kept = None;
        let mut wal = Wal::recover(dir.join(WAL_DIR), config.dim, |r| {
            if r.row >= sealed {
                if first_kept.is_none() {
                    first_kept = Some(r.row);
                }
                replayed.push((r.timestamp, r.vector.to_vec()));
            }
            Ok(())
        })?;
        if let Some(first) = first_kept {
            if first != sealed {
                return Err(MbiError::corrupt(
                    0,
                    format!(
                        "WAL resumes at row {first} but the snapshot covers only {sealed} rows — \
                         the rows in between are gone"
                    ),
                ));
            }
        }
        if wal.next_row() < sealed {
            // Every logged row is inside the snapshot (the log may even be
            // empty after aggressive pruning); restart it at the boundary.
            wal.reset_to(sealed)?;
        }
        let this = Self::from_snapshot_internal(
            snapshot,
            engine,
            Some(Durability { dir: dir.to_path_buf(), wal: Mutex::new(wal) }),
        );
        for (t, v) in replayed {
            // Replay through the normal path minus the WAL append (the rows
            // are already in the log); seals re-enqueue their chain builds.
            this.insert_impl(&v, t, false)?;
        }
        Ok(this)
    }

    /// Persists the published snapshot atomically (temp file + fsync +
    /// rename) and prunes every WAL segment it covers. Flushes first, so on
    /// a healthy engine the checkpoint covers every sealed leaf; on a halted
    /// one it covers the published prefix and the WAL retains the rest.
    ///
    /// Returns an error on a non-durable engine (one not created by
    /// [`Self::open`] / [`Self::recover`]).
    pub fn checkpoint(&self) -> Result<(), MbiError> {
        let Some(d) = &self.shared.durability else {
            return Err(MbiError::Io(std::io::Error::other(
                "checkpoint on a non-durable engine (create it with StreamingMbi::open)",
            )));
        };
        self.flush();
        let snap = self.snapshot();
        snap.save_file(d.dir.join(SNAPSHOT_FILE))?;
        d.wal.lock().prune(snap.sealed_rows() as u64)?;
        Ok(())
    }

    /// The durable directory this engine persists to, if any.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.shared.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Registers (or refreshes) the replication retention hold `id` at
    /// `row`: [`Self::checkpoint`] will not prune WAL segments containing
    /// row `row` or later while the hold stands, so a follower resuming
    /// from its durable cursor always finds its segments. A no-op on a
    /// non-durable engine.
    pub fn set_replica_hold(&self, id: &str, row: u64) {
        if let Some(d) = &self.shared.durability {
            d.wal.lock().hold(id, row);
        }
    }
}
