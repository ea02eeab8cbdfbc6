//! First-use verification of mapped bytes, one fixed-size chunk at a time.
//!
//! A cold read should pay for the bytes a query reads, not for a whole
//! column: a [`ChunkCheck`] holds the stored CRC-32 of each chunk of a
//! mapped column and checks a chunk the first time an accessor hands it out.
//! A segment's rows are checked this way (one row per chunk), and so is a
//! block graph's adjacency (a fixed run of vertex lists per chunk, whose ids
//! must also name vertices of the block).

use crate::mapped::{Col, Plain};
use mbi_math::crc32;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// The first way a lazily checked chunk failed its check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkFault {
    /// The chunk's bytes do not hash to their stored CRC-32.
    Checksum {
        /// Chunk index within its column (the row, for a segment's rows).
        chunk: usize,
        /// The CRC-32 stored for the chunk.
        expected: u32,
        /// The CRC-32 of the chunk's bytes as read.
        got: u32,
    },
    /// A chunk that matched its CRC holds a vertex id out of range.
    BadId {
        /// File offset of the byte after the bad id.
        offset: usize,
        /// The id as stored.
        id: u32,
    },
}

/// Per-chunk CRC-32s over a mapped column, each checked the first time its
/// chunk is read.
#[derive(Debug)]
pub(crate) struct ChunkCheck {
    /// The column's bytes in place in the map.
    bytes: Col<u8>,
    /// Bytes per chunk; the last chunk may be shorter.
    chunk_bytes: usize,
    /// The stored CRC-32 of each chunk.
    crcs: Col<u32>,
    /// For an adjacency column: every `u32` of a chunk must be below this
    /// bound or the padding sentinel `u32::MAX`.
    ids_below: Option<u32>,
    /// One bit per chunk, set once the chunk passed. A chunk that failed is
    /// never marked, so every read of it fails again. The bits publish
    /// nothing but themselves (the bytes they vouch for are immutable), so
    /// `Relaxed` suffices.
    verified: Box<[AtomicU64]>,
    /// Checks that failed, counting a chunk each time it is read.
    failures: AtomicU64,
    /// The first check that failed.
    first_failure: OnceLock<ChunkFault>,
    /// Bytes checksummed, shared with the owner's other checks.
    checked_bytes: Arc<AtomicU64>,
}

impl ChunkCheck {
    /// A check over the bytes of the mapped column `col`, cut into chunks
    /// of `chunk_bytes` with one stored CRC-32 each in `crcs`.
    ///
    /// # Panics
    ///
    /// Panics unless `col` is mapped and `crcs` holds one CRC per chunk
    /// (`chunk_bytes == 0` makes every chunk empty).
    pub(crate) fn new<T: Plain>(
        col: &Col<T>,
        chunk_bytes: usize,
        crcs: Col<u32>,
        ids_below: Option<u32>,
        checked_bytes: Arc<AtomicU64>,
    ) -> ChunkCheck {
        let Col::Mapped { map, byte_off, len } = col else {
            panic!("chunk checks verify mapped columns");
        };
        let bytes = Col::mapped(Arc::clone(map), *byte_off, len * size_of::<T>())
            .expect("the column's own bytes are in bounds");
        let chunks = if chunk_bytes == 0 { crcs.len() } else { bytes.len().div_ceil(chunk_bytes) };
        assert_eq!(crcs.len(), chunks, "chunk CRC column has wrong length");
        ChunkCheck {
            bytes,
            chunk_bytes,
            crcs,
            ids_below,
            verified: (0..chunks.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            failures: AtomicU64::new(0),
            first_failure: OnceLock::new(),
            checked_bytes,
        }
    }

    /// Checks chunk `c` unless it already passed; whether it passed.
    #[inline]
    pub(crate) fn verify(&self, c: usize) -> bool {
        let bit = 1u64 << (c % 64);
        self.verified[c / 64].load(Relaxed) & bit != 0 || self.verify_chunk(c, bit)
    }

    /// Checks every chunk of `chunks` that has not passed yet.
    #[inline]
    pub(crate) fn verify_range(&self, chunks: Range<usize>) {
        for c in chunks {
            self.verify(c);
        }
    }

    #[inline(never)]
    fn verify_chunk(&self, c: usize, bit: u64) -> bool {
        let start = (c * self.chunk_bytes).min(self.bytes.len());
        let bytes = &self.bytes[start..(start + self.chunk_bytes).min(self.bytes.len())];
        let (expected, got) = (self.crcs[c], crc32(bytes));
        self.checked_bytes.fetch_add(bytes.len() as u64, Relaxed);
        let fault = if got != expected {
            Some(ChunkFault::Checksum { chunk: c, expected, got })
        } else {
            // One branch-free pass over the ids; only a failing chunk is
            // searched for its first bad id.
            self.ids_below.and_then(|n| {
                let id = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
                let valid = |b: &[u8]| id(b) == u32::MAX || id(b) < n;
                if bytes.chunks_exact(4).fold(true, |ok, b| ok & valid(b)) {
                    return None;
                }
                let i = bytes.chunks_exact(4).position(|b| !valid(b)).expect("a bad id");
                let offset = self.file_offset() + start + (i + 1) * 4;
                Some(ChunkFault::BadId { offset, id: id(&bytes[4 * i..4 * i + 4]) })
            })
        };
        match fault {
            None => {
                self.verified[c / 64].fetch_or(bit, Relaxed);
                true
            }
            Some(fault) => {
                self.failures.fetch_add(1, Relaxed);
                let _ = self.first_failure.set(fault);
                false
            }
        }
    }

    /// File offset of the column's first byte.
    fn file_offset(&self) -> usize {
        match &self.bytes {
            Col::Mapped { byte_off, .. } => *byte_off,
            Col::Owned(_) => 0,
        }
    }

    /// Checks that have failed so far.
    pub(crate) fn failures(&self) -> u64 {
        self.failures.load(Relaxed)
    }

    /// The first check that failed, if any.
    pub(crate) fn first_fault(&self) -> Option<ChunkFault> {
        self.first_failure.get().copied()
    }

    /// Heap bytes of the verified bits.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.verified.len() * size_of::<AtomicU64>()
    }
}
