//! Error type for MBI operations.

use std::fmt;

/// Errors surfaced by the MBI index.
#[derive(Debug)]
pub enum MbiError {
    /// A vector of the wrong dimensionality was offered.
    DimensionMismatch {
        /// Dimension the index was configured with.
        expected: usize,
        /// Dimension of the offered vector.
        got: usize,
    },
    /// A timestamp older than the newest stored one was offered. MBI appends
    /// in timestamp order (§4.2: "a new vector has a later timestamp than all
    /// existing vectors"); equal timestamps are allowed per the tie rule of
    /// §3.1.
    NonMonotonicTimestamp {
        /// Newest timestamp already in the index.
        newest: i64,
        /// Offered timestamp.
        got: i64,
    },
    /// `i64::MAX` was offered as a timestamp. Window ends are exclusive, so
    /// no [`TimeWindow`](crate::TimeWindow) can contain it, and the block
    /// bound `end_ts = newest + 1` would overflow.
    TimestampOutOfRange {
        /// Offered timestamp.
        got: i64,
    },
    /// A vector with a NaN or infinite component, or whose squared norm
    /// `Σx²` overflows `f32`, was offered. No distance to it is finite, so
    /// graph builds could not order it and an SQ8 column could not encode it.
    NonFiniteVector,
    /// The persisted byte stream is malformed or truncated.
    Corrupt {
        /// Byte offset into the stream where parsing failed.
        offset: usize,
        /// What was wrong at that offset.
        detail: String,
    },
    /// A persisted section's CRC32 does not match its stored checksum: the
    /// bytes were altered (bit rot, torn write, tampering) after being
    /// written. The structural parse is not attempted on mismatching bytes.
    ChecksumMismatch {
        /// Which section failed ("config", "data", "blocks", "footer", …).
        section: &'static str,
        /// Checksum stored in the stream.
        expected: u32,
        /// Checksum computed over the bytes actually read.
        got: u32,
    },
    /// A write-ahead-log record failed validation somewhere other than the
    /// torn tail of the final segment (a torn final record is tolerated and
    /// simply ends replay — it was never acked).
    WalCorrupt {
        /// First global row id of the segment (its file name number).
        segment: u64,
        /// Byte offset inside the segment file where validation failed.
        offset: u64,
    },
    /// A replica's WAL bytes for a sealed segment do not match the leader's
    /// (the leader's segment CRC disagrees with the one the follower computed
    /// over its own segment file). Replication stops rather than serving
    /// silently divergent data; the follower must be re-seeded from the
    /// leader.
    ReplicaDiverged {
        /// First global row id of the divergent segment (its file name
        /// number).
        segment: u64,
        /// Byte offset inside the segment file of the first record that
        /// fails its own stored CRC, or the start of the record region when
        /// every record is locally self-consistent (the histories differ).
        offset: u64,
    },
    /// An I/O error during save/load.
    Io(std::io::Error),
    /// An [`IndexSnapshot`](crate::IndexSnapshot) was requested from an index
    /// whose last leaf is not full: snapshots hold only sealed leaf-sized
    /// segments. Resume via
    /// [`StreamingMbi::from_index`](crate::StreamingMbi::from_index) instead,
    /// which carries tail rows.
    UnsealedTail {
        /// Rows in the non-full tail leaf.
        tail_rows: usize,
    },
}

impl MbiError {
    /// Shorthand for a [`MbiError::Corrupt`] at a known offset.
    pub(crate) fn corrupt(offset: usize, detail: impl Into<String>) -> Self {
        MbiError::Corrupt { offset, detail: detail.into() }
    }
}

impl fmt::Display for MbiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MbiError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: index is {expected}-d, vector is {got}-d")
            }
            MbiError::NonMonotonicTimestamp { newest, got } => write!(
                f,
                "non-monotonic timestamp: {got} precedes newest stored timestamp {newest}"
            ),
            MbiError::TimestampOutOfRange { got } => {
                write!(f, "timestamp {got} is out of range: it must be below i64::MAX")
            }
            MbiError::NonFiniteVector => {
                write!(f, "vector has a non-finite component or its squared norm overflows f32")
            }
            MbiError::Corrupt { offset, detail } => {
                write!(f, "corrupt index data at byte {offset}: {detail}")
            }
            MbiError::ChecksumMismatch { section, expected, got } => write!(
                f,
                "checksum mismatch in section {section:?}: stored {expected:#010x}, computed {got:#010x}"
            ),
            MbiError::WalCorrupt { segment, offset } => write!(
                f,
                "corrupt WAL record in segment {segment} at byte {offset} (not a torn tail)"
            ),
            MbiError::ReplicaDiverged { segment, offset } => write!(
                f,
                "replica diverged from leader in WAL segment {segment} at byte {offset}; \
                 refusing to serve — re-seed this follower"
            ),
            MbiError::Io(e) => write!(f, "i/o error: {e}"),
            MbiError::UnsealedTail { tail_rows } => write!(
                f,
                "index has {tail_rows} unsealed tail rows; snapshots hold only sealed leaves"
            ),
        }
    }
}

impl std::error::Error for MbiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MbiError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MbiError {
    fn from(e: std::io::Error) -> Self {
        MbiError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_messages() {
        let e = MbiError::DimensionMismatch { expected: 4, got: 3 };
        assert!(e.to_string().contains("4-d"));
        let e = MbiError::NonMonotonicTimestamp { newest: 10, got: 5 };
        assert!(e.to_string().contains("5 precedes"));
        let e = MbiError::TimestampOutOfRange { got: i64::MAX };
        assert!(e.to_string().contains("below i64::MAX"), "{e}");
        assert!(MbiError::NonFiniteVector.to_string().contains("non-finite"));
        let e = MbiError::corrupt(17, "bad magic");
        assert!(e.to_string().contains("bad magic"));
        assert!(e.to_string().contains("byte 17"), "{e}");
    }

    #[test]
    fn checksum_mismatch_display_names_section_and_values() {
        let e = MbiError::ChecksumMismatch { section: "blocks", expected: 0xDEAD_BEEF, got: 1 };
        let s = e.to_string();
        assert!(s.contains("\"blocks\""), "{s}");
        assert!(s.contains("0xdeadbeef"), "{s}");
        assert!(s.contains("0x00000001"), "{s}");
    }

    #[test]
    fn wal_corrupt_display_names_segment_and_offset() {
        let e = MbiError::WalCorrupt { segment: 128, offset: 44 };
        let s = e.to_string();
        assert!(s.contains("segment 128"), "{s}");
        assert!(s.contains("byte 44"), "{s}");
    }

    #[test]
    fn replica_diverged_display_names_segment_and_offset() {
        let e = MbiError::ReplicaDiverged { segment: 64, offset: 24 };
        let s = e.to_string();
        assert!(s.contains("segment 64"), "{s}");
        assert!(s.contains("byte 24"), "{s}");
        assert!(s.contains("re-seed"), "{s}");
        assert!(e.source().is_none());
    }

    #[test]
    fn io_conversion_preserves_source() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: MbiError = io.into();
        assert!(e.source().is_some());
        // The parse-level variants are roots: no chained source.
        assert!(MbiError::corrupt(0, "x").source().is_none());
        assert!(MbiError::ChecksumMismatch { section: "data", expected: 0, got: 1 }
            .source()
            .is_none());
        assert!(MbiError::WalCorrupt { segment: 0, offset: 0 }.source().is_none());
    }
}
