//! Binary persistence for a built index.
//!
//! Time-accumulating deployments restart; rebuilding every block graph costs
//! `O(|D|^1.14 log |D|)` (§4.4.2), so a saved index pays for itself quickly.
//! There is one on-disk format, version 8: a single little-endian stream in
//! a checksummed envelope. Everything is length-prefixed and validated on
//! load; malformed input yields [`MbiError::Corrupt`] (carrying the byte
//! offset where parsing failed) or [`MbiError::ChecksumMismatch`], never a
//! panic. A header version other than 8 is `Corrupt` at byte 4 — there is
//! no converter and no second reader.
//!
//! The config section keeps one reserved `u64` after `parallel_build`: it
//! held the query fan-out width, which is gone (a query runs on its
//! caller's thread). It is written as 0 and read and ignored, whatever it
//! holds; the slot goes at the next format cut (v9).
//!
//! # Envelope
//!
//! ```text
//! stream := "MBI1" version:u32 kind:u8 config data blocks footer
//! kind   := 0 (MbiIndex, flat body) | 1 (IndexSnapshot, leaf records)
//! footer := count:u8 (tag:u8 len:u64 crc:u32)*count footer_crc:u32
//!           footer_len:u32 "MBIF"
//! ```
//!
//! The four sections — `header` (magic + version + kind), `config`, `data`,
//! `blocks` — tile the stream exactly; each carries the CRC32 of its bytes,
//! and the footer carries its own CRC. Any single-byte flip anywhere in a
//! stream therefore fails a checksum (or the structural parse) before an
//! index is built from it, so disk corruption is *detected*, not parsed.
//! All `save_file` paths write atomically: temp file in the same directory,
//! fsync, rename, directory fsync — a crash mid-save leaves the previous
//! file intact.
//!
//! # Index kind: flat body
//!
//! ```text
//! data   := n:u64 ts:i64[n] rows:f32[n·d] has_norms:u8 [inv:f32[n]]
//! blocks := num_leaves:u64 num_blocks:u64
//!           (rows:u64×2 height:u32 start_ts:i64 end_ts:i64 graph)*num_blocks
//! ```
//!
//! An [`MbiIndex`] stream holds every row, the unsealed tail included, and
//! is only ever loaded whole.
//!
//! # Snapshot kind: page-aligned leaf records
//!
//! The snapshot `data` section is laid out so [`crate::tier::ColdIndex`]
//! can mmap the file and load each leaf independently, without touching
//! (faulting) the rest:
//!
//! ```text
//! data   := num_leaves:u64 seg_rows:u64 has_norms:u8 has_sq8:u8
//!           leaf_dir[num_leaves] dir_crc:u32 pad(page) record[num_leaves]
//! leaf_dir := record_off:u64 graph_off:u64 graph_len:u64
//!             crc_ts:u32 crc_rows:u32 crc_inv:u32 crc_sq8:u32 crc_graph:u32
//! record := ts:i64[s_l] rows:f32[s_l·d] row_crc:u32[s_l] [inv:f32[s_l]]
//!           [mins:f32[d] deltas:f32[d] row_norm2:f32[s_l] codes:u8[s_l·d]]
//!           graph pad(page)
//! blocks := num_blocks:u64 block_meta[num_blocks] meta_crc:u32 graphs
//! block_meta := rows:u64×2 height:u32 start_ts:i64 end_ts:i64
//!               graph_off:u64 graph_len:u64 graph_crc:u32
//! ```
//!
//! Every record starts on a 4096-byte page boundary and co-locates the leaf
//! block's graph with its vectors (one contiguous read brings in everything
//! a block search needs); offsets are absolute, so the directory alone
//! resolves any leaf. Internal (height ≥ 1) block graphs are concatenated
//! after the block metadata; leaf block entries point back into the leaf
//! records. The optional SQ8 column group lets quantized engines restart
//! without re-encoding.
//!
//! `row_crc[r]` is the CRC32 of row `r`'s `d·4` bytes, and the directory's
//! `crc_rows` is the CRC32 of the `row_crc` column, not of the rows. So a
//! reader can check the rows a query reads, one at a time, instead of the
//! whole row column before any of it is used: the cold tier checks the
//! 4-byte-per-row column when it loads a leaf and each row the first time a
//! query reads it; the eager loader checks every row.
//!
//! A snapshot stream has one reader, shared by the eager loader
//! ([`IndexSnapshot::from_bytes`]) and the cold tier: an open step
//! (`open_v8`: directories, CRC-checked timestamp chunks, and the postorder
//! and timestamp structure queries walk) and a per-piece decoder that
//! checks each piece's own CRC and scalars. The cold tier decodes lazily
//! over a mapped file, rows verified as they are read; the eager loader
//! decodes every piece into owned columns, after the whole-section CRCs have
//! also covered every byte.
//!
//! ```
//! use mbi_core::{MbiConfig, MbiIndex, TimeWindow};
//! use mbi_math::Metric;
//!
//! let mut index = MbiIndex::new(MbiConfig::new(2, Metric::Euclidean).with_leaf_size(16));
//! for i in 0..50i64 {
//!     index.insert(&[i as f32, 0.0], i).unwrap();
//! }
//! let bytes = index.to_bytes();
//! let restored = MbiIndex::from_bytes(bytes).unwrap();
//! let w = TimeWindow::new(5, 45);
//! assert_eq!(index.query(&[20.0, 0.0], 3, w), restored.query(&[20.0, 0.0], 3, w));
//! ```

use crate::block::{Block, BlockGraph};
use crate::config::{GraphBackend, MbiConfig};
use crate::engine::IndexSnapshot;
use crate::error::MbiError;
use crate::index::{validate_blocks, MbiIndex};
use crate::layout;
use crate::times::TimeChunks;
use crate::Timestamp;
use bytes::{BufMut, Bytes, BytesMut};
use mbi_ann::mapped::Plain;
use mbi_ann::{
    Col, EntryPolicy, FileMap, KnnGraph, NnDescentParams, SearchParams, Segment, SegmentStore,
    Sq8Column, VectorStore,
};
use mbi_math::{crc32, Metric};
use std::io::{Read, Write};
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"MBI1";
/// The one format version this build writes and reads.
const VERSION: u32 = 8;

const KIND_INDEX: u8 = 0;
const KIND_SNAPSHOT: u8 = 1;

const FOOTER_MAGIC: &[u8; 4] = b"MBIF";
/// Section names, in stream order; the footer stores one CRC per section.
const SECTIONS: [&str; 4] = ["header", "config", "data", "blocks"];
/// magic + version + kind.
const HEADER_LEN: usize = 4 + 4 + 1;
/// v8 leaf records start on this boundary, so a mapped read of one record
/// faults only its own pages.
pub(crate) const PAGE: usize = mbi_ann::PAGE_SIZE;
/// v8 leaf-directory entry: `record_off` + `graph_off` + `graph_len` + five
/// per-piece CRCs (ts, row CRCs, inv, sq8, graph).
const LEAF_DIR_ENTRY_LEN: usize = 8 * 3 + 4 * 5;
/// v8 block-directory entry: row range + height + timestamp span + graph
/// location (`graph_off`, `graph_len`, `graph_crc`).
const BLOCK_DIR_ENTRY_LEN: usize = 8 * 2 + 4 + 8 * 2 + 8 * 2 + 4;

/// A bounded little-endian cursor over `b[pos..end]` of the full stream.
/// `pos` is absolute, so every parse failure reports the offset where it
/// happened; the cursor only borrows, so the snapshot directories parse off
/// a memory map without copying (or faulting) anything beyond themselves.
/// Callers reserve with [`Src::need`] before the `get_*` calls.
struct Src<'a> {
    b: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> Src<'a> {
    fn new(b: &'a [u8], pos: usize, end: usize) -> Self {
        debug_assert!(pos <= end && end <= b.len());
        Src { b, pos, end }
    }

    fn corrupt(&self, detail: impl Into<String>) -> MbiError {
        MbiError::corrupt(self.pos, detail)
    }

    fn has_remaining(&self) -> bool {
        self.pos < self.end
    }

    fn need(&self, need: usize) -> Result<(), MbiError> {
        if self.end - self.pos < need {
            Err(self.corrupt(format!(
                "truncated stream: need {need} bytes, have {}",
                self.end - self.pos
            )))
        } else {
            Ok(())
        }
    }

    /// The next `n` bytes, consumed.
    fn bytes(&mut self, n: usize) -> &'a [u8] {
        let x = &self.b[self.pos..self.end][..n];
        self.pos += n;
        x
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        self.bytes(N).try_into().expect("N bytes")
    }

    fn get_u8(&mut self) -> u8 {
        u8::from_le_bytes(self.take())
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take())
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.take())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }
}

/// Atomically replaces `path` with `bytes`: write to a temp file alongside,
/// fsync it, rename over the target, fsync the directory. A crash at any
/// point leaves either the old file or the new one, never a torn mix.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), MbiError> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = dir.join(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Appends the footer: per-section CRCs, the footer's own CRC, its
/// length, and the trailing magic. `bounds` are the section boundaries
/// (`bounds[i]..bounds[i+1]` is section `i`), tiling `b` exactly.
fn write_footer(b: &mut BytesMut, bounds: &[usize]) {
    debug_assert_eq!(bounds.len(), SECTIONS.len() + 1);
    debug_assert_eq!(*bounds.last().unwrap(), b.len());
    let crcs: Vec<u32> = bounds.windows(2).map(|w| crc32(&b[w[0]..w[1]])).collect();
    let footer_start = b.len();
    b.put_u8(SECTIONS.len() as u8);
    for (tag, (w, crc)) in bounds.windows(2).zip(&crcs).enumerate() {
        b.put_u8(tag as u8);
        b.put_u64_le((w[1] - w[0]) as u64);
        b.put_u32_le(*crc);
    }
    let footer_crc = crc32(&b[footer_start..]);
    b.put_u32_le(footer_crc);
    b.put_u32_le((b.len() - footer_start) as u32);
    b.put_slice(FOOTER_MAGIC);
}

/// Parses and structurally verifies the footer on a raw byte slice: the
/// footer's own CRC is checked and the sections must tile the stream, but
/// the sections themselves are *not* hashed — [`verify_sections`] does that
/// for eager loads, while the cold (mmap) reader verifies lazily per piece
/// so opening a file never faults its data pages. Returns each section's
/// absolute byte range and stored CRC, in [`SECTIONS`] order.
fn parse_footer(b: &[u8]) -> Result<[(usize, usize, u32); 4], MbiError> {
    let total = b.len();
    // footer_crc + footer_len + trailing magic is the minimal suffix.
    if total < HEADER_LEN + 12 {
        return Err(MbiError::corrupt(total, "truncated stream: no room for footer"));
    }
    if &b[total - 4..] != FOOTER_MAGIC {
        return Err(MbiError::corrupt(total - 4, "bad footer magic"));
    }
    let footer_len = rd_u32(b, total - 8) as usize;
    let trailer_len = footer_len + 8; // + footer_len field + magic
    if footer_len < 9 || trailer_len > total - HEADER_LEN {
        return Err(MbiError::corrupt(
            total - 8,
            format!("implausible footer length {footer_len}"),
        ));
    }
    let footer_start = total - 8 - footer_len;
    let footer = &b[footer_start..total - 8];
    check_crc(&footer[..footer_len - 4], rd_u32(footer, footer_len - 4), "footer")?;
    let count = footer[0] as usize;
    if count != SECTIONS.len() {
        return Err(MbiError::corrupt(
            footer_start,
            format!("expected {} sections, footer lists {count}", SECTIONS.len()),
        ));
    }
    if footer_len != 1 + SECTIONS.len() * (1 + 8 + 4) + 4 {
        return Err(MbiError::corrupt(footer_start, "trailing bytes in footer"));
    }
    let mut sections = [(0usize, 0usize, 0u32); 4];
    let mut pos = 0usize;
    for (i, &name) in SECTIONS.iter().enumerate() {
        let e = 1 + i * (1 + 8 + 4);
        let tag = footer[e] as usize;
        if tag != i {
            return Err(MbiError::corrupt(footer_start + e, format!("section {i} has tag {tag}")));
        }
        let len = rd_u64(footer, e + 1) as usize;
        let end = pos.checked_add(len).filter(|&end| end <= footer_start);
        let Some(end) = end else {
            return Err(MbiError::corrupt(
                footer_start + e + 1,
                format!("section {name:?} of {len} bytes overruns the stream"),
            ));
        };
        sections[i] = (pos, end, rd_u32(footer, e + 9));
        pos = end;
    }
    if pos != footer_start {
        return Err(MbiError::corrupt(pos, "sections do not tile the stream"));
    }
    Ok(sections)
}

/// Checks the envelope header — magic, then the one readable version — and
/// returns the kind byte. Any other version is `Corrupt` at byte 4.
fn read_header(b: &[u8]) -> Result<u8, MbiError> {
    if b.len() >= 4 && &b[..4] != MAGIC {
        return Err(MbiError::corrupt(0, "bad magic"));
    }
    if b.len() < HEADER_LEN {
        return Err(MbiError::corrupt(b.len(), "truncated stream: no room for header"));
    }
    let version = rd_u32(b, 4);
    if version != VERSION {
        return Err(MbiError::corrupt(
            4,
            format!("unsupported version {version}: only version {VERSION} streams are readable"),
        ));
    }
    Ok(b[8])
}

/// Verifies a stream's footer and every section CRC; returns the body
/// region `(start, end)` — the bytes after the kind byte, before the footer.
fn verify_sections(b: &[u8]) -> Result<(usize, usize), MbiError> {
    let sections = parse_footer(b)?;
    for (&name, &(start, end, expected)) in SECTIONS.iter().zip(&sections) {
        check_crc(&b[start..end], expected, name)?;
    }
    Ok((HEADER_LEN, sections[3].1))
}

/// Fails with [`MbiError::ChecksumMismatch`] unless `bytes` hash to `expected`.
fn check_crc(bytes: &[u8], expected: u32, section: &'static str) -> Result<(), MbiError> {
    let got = crc32(bytes);
    if got != expected {
        return Err(MbiError::ChecksumMismatch { section, expected, got });
    }
    Ok(())
}

fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

impl MbiIndex {
    /// Serialises the index to `w`.
    pub fn save_to(&self, w: &mut impl Write) -> Result<(), MbiError> {
        let buf = self.to_bytes();
        w.write_all(&buf)?;
        Ok(())
    }

    /// Serialises the index to a file at `path`, atomically: the bytes land
    /// in a temp file that is fsynced and renamed over the target, so a
    /// crash mid-save never leaves a half-written index.
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), MbiError> {
        atomic_write(path.as_ref(), &self.to_bytes())
    }

    /// Deserialises an index from `r`.
    pub fn load_from(r: &mut impl Read) -> Result<Self, MbiError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        Self::from_bytes(Bytes::from(buf))
    }

    /// Deserialises an index from a file at `path`.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, MbiError> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::load_from(&mut f)
    }

    /// Serialises the index into one contiguous buffer (checksummed
    /// sections + footer over the flat index-kind body).
    pub fn to_bytes(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(128 + self.data_bytes() + self.index_memory_bytes());
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION);
        b.put_u8(KIND_INDEX);
        let mut bounds = vec![0, b.len()];
        write_config(&mut b, &self.config);
        bounds.push(b.len());

        let n = self.timestamps.len();
        b.put_u64_le(n as u64);
        for &t in &self.timestamps {
            b.put_i64_le(t);
        }
        for &v in self.store.as_flat() {
            b.put_f32_le(v);
        }
        match self.store.inv_norms() {
            Some(inv) => {
                b.put_u8(1);
                for &x in inv {
                    b.put_f32_le(x);
                }
            }
            None => b.put_u8(0),
        }
        bounds.push(b.len());

        b.put_u64_le(self.num_leaves as u64);
        b.put_u64_le(self.blocks.len() as u64);
        for block in &self.blocks {
            b.put_u64_le(block.rows.start as u64);
            b.put_u64_le(block.rows.end as u64);
            b.put_u32_le(block.height);
            b.put_i64_le(block.start_ts);
            b.put_i64_le(block.end_ts);
            write_graph(&mut b, &block.graph);
        }
        bounds.push(b.len());
        write_footer(&mut b, &bounds);
        b.freeze()
    }

    /// Deserialises an index from one contiguous buffer.
    pub fn from_bytes(b: Bytes) -> Result<Self, MbiError> {
        if read_header(&b)? != KIND_INDEX {
            return Err(MbiError::corrupt(8, "stream holds a snapshot, not an index"));
        }
        let (start, end) = verify_sections(&b)?;
        decode_index_body(&mut Src::new(&b, start, end))
    }
}

/// Decodes an index-kind body (config / data / blocks), consuming `src`
/// exactly.
fn decode_index_body(src: &mut Src<'_>) -> Result<MbiIndex, MbiError> {
    let config = read_config(src)?;

    src.need(8)?;
    let n = src.get_u64_le() as usize;
    src.need(n.checked_mul(8).ok_or_else(|| overflow(src))?)?;
    let timestamps: Vec<i64> = le_vec(src.bytes(n * 8));
    for (i, pair) in timestamps.windows(2).enumerate() {
        if pair[1] < pair[0] {
            return Err(MbiError::corrupt(src.pos - (n - i - 1) * 8, "timestamps not sorted"));
        }
    }
    let floats = n.checked_mul(config.dim).ok_or_else(|| overflow(src))?;
    src.need(floats.checked_mul(4).ok_or_else(|| overflow(src))?)?;
    let flat = le_vec(src.bytes(floats * 4));
    src.need(1)?;
    let has_norms = src.get_u8() != 0;
    let mut store = if has_norms {
        src.need(n.checked_mul(4).ok_or_else(|| overflow(src))?)?;
        let at = src.pos;
        let inv = scalars(le_vec::<f32>(src.bytes(n * 4)), at, "inverse norm", false)?;
        VectorStore::from_flat_with_inv_norms(config.dim, flat, inv)
    } else {
        VectorStore::from_flat(config.dim, flat)
    };
    // A stream written without the column still loads: angular indexes
    // recompute it so loaded indexes query identically to freshly built ones.
    if config.metric == Metric::Angular && !store.has_norm_cache() {
        store.enable_norm_cache();
    }

    src.need(16)?;
    let num_leaves = src.get_u64_le() as usize;
    let num_blocks = src.get_u64_le() as usize;
    if num_leaves.checked_mul(config.leaf_size).is_none_or(|rows| rows > n) {
        return Err(src.corrupt("leaf count exceeds data"));
    }
    let mut blocks = Vec::with_capacity(num_blocks.min(1 << 20));
    for _ in 0..num_blocks {
        src.need(8 * 2 + 4 + 8 * 2)?;
        let start = src.get_u64_le() as usize;
        let end = src.get_u64_le() as usize;
        let height = src.get_u32_le();
        let start_ts = src.get_i64_le();
        let end_ts = src.get_i64_le();
        if start > end || end > n || end_ts <= start_ts {
            return Err(src.corrupt("invalid block bounds"));
        }
        let graph = read_graph(src, end - start)?;
        blocks.push(Block { rows: start..end, height, start_ts, end_ts, graph });
    }
    if src.has_remaining() {
        return Err(src.corrupt("trailing bytes"));
    }
    let index = MbiIndex { config, store, timestamps, blocks, num_leaves };
    // Full structural validation: persisted bytes may come from an
    // untrusted source, and a structurally inconsistent index would
    // return wrong answers rather than crash.
    index.validate().map_err(|detail| MbiError::corrupt(0, detail))?;
    Ok(index)
}

impl IndexSnapshot {
    /// Serialises the snapshot to `w`.
    pub fn save_to(&self, w: &mut impl Write) -> Result<(), MbiError> {
        w.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Serialises the snapshot to a file at `path`, atomically (temp file +
    /// fsync + rename, like [`MbiIndex::save_file`]).
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), MbiError> {
        atomic_write(path.as_ref(), &self.to_bytes())
    }

    /// Deserialises a snapshot from `r`.
    pub fn load_from(r: &mut impl Read) -> Result<Self, MbiError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        Self::from_bytes(Bytes::from(buf))
    }

    /// Deserialises a snapshot from a file at `path`.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, MbiError> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::load_from(&mut f)
    }

    /// Serialises the snapshot into one contiguous buffer (checksummed
    /// sections + footer over page-aligned, directory-indexed leaf records
    /// that a [`crate::tier::ColdIndex`] can serve straight off disk).
    ///
    /// Only the prefix under blocks is written — the
    /// [`sealed_rows`](IndexSnapshot::sealed_rows) rows of the first
    /// [`num_leaves`](IndexSnapshot::num_leaves) leaves. Unbuilt leaves are
    /// left out: a checkpoint prunes the WAL only up to that prefix, so
    /// recovery replays their rows and rebuilds their chains.
    pub fn to_bytes(&self) -> Bytes {
        self.encode_v8()
    }

    /// Encodes the v8 layout: a leaf directory with per-piece CRCs, then one
    /// page-aligned, self-contained record per leaf (timestamps, rows, row
    /// CRCs, optional norm and SQ8 columns, the leaf block's graph), then the
    /// block metadata with a graph directory and the internal-block graphs.
    fn encode_v8(&self) -> Bytes {
        let config = self.config();
        let dim = config.dim;
        let s_l = config.leaf_size;
        // The prefix under blocks: unbuilt leaves are not persisted.
        let store = &self.store().share(0..self.sealed_rows());
        let num_leaves = self.num_leaves();
        let has_norms = store.segments().first().is_some_and(|s| s.has_norm_cache());
        let has_sq8 = store.has_sq8();

        // Serialise every block graph up front: the directories need graph
        // lengths and CRCs before the first record byte is written.
        let graphs: Vec<Bytes> = self
            .blocks()
            .iter()
            .map(|blk| {
                let mut g = BytesMut::new();
                write_graph(&mut g, &blk.graph);
                g.freeze()
            })
            .collect();
        let ts_len = s_l * 8;
        let rows_len = s_l * dim * 4;
        let row_crc_len = s_l * 4;
        let inv_len = if has_norms { s_l * 4 } else { 0 };
        let sq8_len = if has_sq8 { dim * 8 + s_l * 4 + s_l * dim } else { 0 };
        let payload_len = ts_len + rows_len + row_crc_len + inv_len + sq8_len;

        struct LeafBlob {
            payload: Vec<u8>,
            graph: Bytes,
            crcs: [u32; 5],
        }
        let mut blobs = Vec::with_capacity(num_leaves);
        for (i, (seg, chunk)) in store.segments().iter().zip(self.times().chunks()).enumerate() {
            let mut p = Vec::with_capacity(payload_len);
            for &t in chunk.iter() {
                p.extend_from_slice(&t.to_le_bytes());
            }
            for &v in seg.as_flat() {
                p.extend_from_slice(&v.to_le_bytes());
            }
            let crc_off = ts_len + rows_len;
            for r in 0..s_l {
                let crc = crc32(&p[ts_len + r * dim * 4..ts_len + (r + 1) * dim * 4]);
                p.extend_from_slice(&crc.to_le_bytes());
            }
            if has_norms {
                let inv = seg.inv_norms().expect("norm flag implies a cached column");
                for &x in inv {
                    p.extend_from_slice(&x.to_le_bytes());
                }
            }
            if has_sq8 {
                let col = seg.sq8().expect("sq8 flag implies a uniform code column");
                for &m in col.mins() {
                    p.extend_from_slice(&m.to_le_bytes());
                }
                for &d in col.deltas() {
                    p.extend_from_slice(&d.to_le_bytes());
                }
                for &n2 in col.row_norm2() {
                    p.extend_from_slice(&n2.to_le_bytes());
                }
                p.extend_from_slice(col.codes());
            }
            debug_assert_eq!(p.len(), payload_len);
            // Leaf i's graph is co-located with its record.
            let graph = graphs[layout::leaf_block(i)].clone();
            let inv_off = crc_off + row_crc_len;
            let crcs = [
                crc32(&p[..ts_len]),
                crc32(&p[crc_off..inv_off]),
                if has_norms { crc32(&p[inv_off..inv_off + inv_len]) } else { 0 },
                if has_sq8 { crc32(&p[payload_len - sq8_len..]) } else { 0 },
                crc32(&graph),
            ];
            blobs.push(LeafBlob { payload: p, graph, crcs });
        }

        let graph_total: usize = graphs.iter().map(Bytes::len).sum();
        let mut b = BytesMut::with_capacity(
            (256 + num_leaves * (payload_len + LEAF_DIR_ENTRY_LEN) + graph_total)
                .next_multiple_of(PAGE)
                + num_leaves * PAGE,
        );
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION);
        b.put_u8(KIND_SNAPSHOT);
        let mut bounds = vec![0, b.len()];
        write_config(&mut b, config);
        bounds.push(b.len());

        let data_start = b.len();
        b.put_u64_le(num_leaves as u64);
        b.put_u64_le(s_l as u64);
        b.put_u8(u8::from(has_norms));
        b.put_u8(u8::from(has_sq8));
        let dir_end = b.len() + num_leaves * LEAF_DIR_ENTRY_LEN + 4;
        let mut record_offs = Vec::with_capacity(num_leaves);
        let mut rec_off = dir_end.next_multiple_of(PAGE);
        for blob in &blobs {
            let graph_off = rec_off + payload_len;
            b.put_u64_le(rec_off as u64);
            b.put_u64_le(graph_off as u64);
            b.put_u64_le(blob.graph.len() as u64);
            for crc in blob.crcs {
                b.put_u32_le(crc);
            }
            record_offs.push(rec_off);
            rec_off = (graph_off + blob.graph.len()).next_multiple_of(PAGE);
        }
        let dir_crc = crc32(&b[data_start..]);
        b.put_u32_le(dir_crc);
        debug_assert_eq!(b.len(), dir_end);
        for (blob, &off) in blobs.iter().zip(&record_offs) {
            pad_to(&mut b, off);
            b.put_slice(&blob.payload);
            b.put_slice(&blob.graph);
        }
        let data_end = b.len().next_multiple_of(PAGE);
        pad_to(&mut b, data_end);
        bounds.push(b.len());

        let blocks_start = b.len();
        b.put_u64_le(self.blocks().len() as u64);
        let entries_end = b.len() + self.blocks().len() * BLOCK_DIR_ENTRY_LEN;
        let mut g_off = entries_end + 4; // + meta_crc
        let mut leaf_ix = 0usize;
        for (i, blk) in self.blocks().iter().enumerate() {
            let (graph_off, graph_len, graph_crc) = if blk.height == 0 {
                let blob = &blobs[leaf_ix];
                let off = record_offs[leaf_ix] + payload_len;
                leaf_ix += 1;
                (off, blob.graph.len(), blob.crcs[4])
            } else {
                let off = g_off;
                g_off += graphs[i].len();
                (off, graphs[i].len(), crc32(&graphs[i]))
            };
            b.put_u64_le(blk.rows.start as u64);
            b.put_u64_le(blk.rows.end as u64);
            b.put_u32_le(blk.height);
            b.put_i64_le(blk.start_ts);
            b.put_i64_le(blk.end_ts);
            b.put_u64_le(graph_off as u64);
            b.put_u64_le(graph_len as u64);
            b.put_u32_le(graph_crc);
        }
        let meta_crc = crc32(&b[blocks_start..]);
        b.put_u32_le(meta_crc);
        for (i, blk) in self.blocks().iter().enumerate() {
            if blk.height != 0 {
                b.put_slice(&graphs[i]);
            }
        }
        bounds.push(b.len());
        write_footer(&mut b, &bounds);
        b.freeze()
    }

    /// Deserialises a snapshot from one contiguous buffer. Also accepts an
    /// [`MbiIndex`] stream (converted via [`IndexSnapshot::from_index`] —
    /// fails with [`MbiError::UnsealedTail`] if the stored index has tail
    /// rows).
    pub fn from_bytes(b: Bytes) -> Result<Self, MbiError> {
        let kind = read_header(&b)?;
        verify_sections(&b)?;
        match kind {
            KIND_SNAPSHOT => {
                // The cold tier's reader with every column copied out of the
                // stream: the snapshot owns its bytes, so `memory_bytes`
                // counts them and the stream buffer is freed once loaded.
                let (layout, times) = open_v8(&b)?;
                let cols = Columns::Copied(&b);
                let mut store = SegmentStore::new(layout.config.dim, layout.seg_rows);
                for leaf in 0..layout.num_leaves {
                    store.push_segment(Arc::new(layout.decode_segment(&cols, leaf)?));
                }
                let blocks = (0..layout.blocks.len())
                    .map(|bi| layout.decode_block(&b, bi).map(Arc::new))
                    .collect::<Result<_, _>>()?;
                let (config, num_leaves) = (layout.config, layout.num_leaves);
                Ok(IndexSnapshot { config, store, times, blocks, num_leaves })
            }
            KIND_INDEX => IndexSnapshot::from_index(&MbiIndex::from_bytes(b)?),
            k => Err(MbiError::corrupt(8, format!("unknown stream kind {k}"))),
        }
    }
}

fn overflow(src: &Src<'_>) -> MbiError {
    src.corrupt("size overflow")
}

/// Zero-fills `b` up to absolute offset `target` (v8 page padding).
fn pad_to(b: &mut BytesMut, target: usize) {
    const ZEROS: [u8; PAGE] = [0; PAGE];
    debug_assert!(target >= b.len());
    let mut need = target - b.len();
    while need > 0 {
        let n = need.min(PAGE);
        b.put_slice(&ZEROS[..n]);
        need -= n;
    }
}

/// Where one leaf's record lives in a v8 stream: the page-aligned record
/// offset, the co-located graph, and the per-piece CRCs from the directory.
#[derive(Clone, Copy, Debug)]
pub(crate) struct V8Leaf {
    /// Absolute, page-aligned offset of the record (timestamps first).
    pub(crate) record_off: usize,
    /// Absolute offset of the leaf block's serialized graph.
    pub(crate) graph_off: usize,
    /// Serialized graph length in bytes.
    pub(crate) graph_len: usize,
    /// CRC32 of the timestamp column.
    pub(crate) crc_ts: u32,
    /// CRC32 of the row CRC column (each row's own CRC32 is in the record).
    pub(crate) crc_rows: u32,
    /// CRC32 of the inverse-norm column; 0 when the stream has none.
    pub(crate) crc_inv: u32,
    /// CRC32 of the SQ8 column group; 0 when the stream has none.
    pub(crate) crc_sq8: u32,
    /// CRC32 of the serialized graph.
    pub(crate) crc_graph: u32,
}

/// One block's metadata from a v8 blocks section, graph unloaded: enough to
/// run block selection and to fetch + verify the graph on demand.
#[derive(Clone, Debug)]
pub(crate) struct V8BlockEntry {
    /// Global row range the block covers.
    pub(crate) rows: std::ops::Range<usize>,
    /// Height in the postorder tree (0 = leaf).
    pub(crate) height: u32,
    /// Minimum timestamp in the block.
    pub(crate) start_ts: i64,
    /// One past the maximum timestamp in the block.
    pub(crate) end_ts: i64,
    /// Absolute offset of the serialized graph (into the leaf record for
    /// height-0 blocks, into the blocks section otherwise).
    pub(crate) graph_off: usize,
    /// Serialized graph length in bytes.
    pub(crate) graph_len: usize,
    /// CRC32 of the serialized graph.
    pub(crate) graph_crc: u32,
}

/// The parsed geometry of a v8 snapshot stream: config, flags, and where
/// every leaf record and block graph lives — everything a reader (eager or
/// cold/mmap) needs to load pieces independently. Parsing verifies the
/// footer, the header and config sections, and both directory CRCs, but
/// never reads a record payload: opening a cold file faults only the
/// directory pages.
pub(crate) struct V8Layout {
    pub(crate) config: MbiConfig,
    pub(crate) num_leaves: usize,
    pub(crate) seg_rows: usize,
    pub(crate) has_norms: bool,
    pub(crate) has_sq8: bool,
    pub(crate) leaves: Vec<V8Leaf>,
    pub(crate) blocks: Vec<V8BlockEntry>,
}

impl V8Layout {
    /// The file span leaf `leaf`'s record occupies, page-rounded and graph
    /// included.
    pub(crate) fn leaf_span(&self, leaf: usize) -> std::ops::Range<usize> {
        let l = &self.leaves[leaf];
        l.record_off..(l.graph_off + l.graph_len).next_multiple_of(PAGE)
    }

    /// Decodes leaf `leaf`'s vector columns into a segment. The row CRC,
    /// norm and SQ8 columns are checked against their directory CRCs (for
    /// mapped bytes that pass *is* the disk read), the norm and SQ8 scalars
    /// must be finite and in range, and a quantizing config rebuilds the
    /// codes of a stream written without them. Copied rows are checked
    /// against their row CRCs here; mapped rows as they are read.
    pub(crate) fn decode_segment(
        &self,
        cols: &Columns<'_>,
        leaf: usize,
    ) -> Result<Segment, MbiError> {
        let (l, b) = (&self.leaves[leaf], cols.bytes());
        let (dim, rows) = (self.config.dim, self.seg_rows);
        let rows_off = l.record_off + self.ts_len();
        let crc_off = rows_off + self.rows_len();
        let inv_off = crc_off + self.row_crc_len();
        let sq8_off = inv_off + self.inv_len();
        check_crc(&b[crc_off..inv_off], l.crc_rows, "leaf row checksums")?;
        let data = cols.col(rows_off, rows * dim)?;
        let row_crcs: Col<u32> = cols.col(crc_off, rows)?;
        let inv_norms = if self.has_norms {
            check_crc(&b[inv_off..sq8_off], l.crc_inv, "leaf norms")?;
            Some(scalars(cols.col(inv_off, rows)?, inv_off, "inverse norm", false)?)
        } else {
            None
        };
        let sq8 = if self.has_sq8 {
            check_crc(&b[sq8_off..sq8_off + self.sq8_len()], l.crc_sq8, "leaf sq8")?;
            // Column order: mins, deltas, row norms, codes.
            let deltas_off = sq8_off + dim * 4;
            let norms_off = deltas_off + dim * 4;
            let codes_off = norms_off + rows * 4;
            Some(Sq8Column::from_cols(
                dim,
                cols.col(codes_off, rows * dim)?,
                scalars(cols.col(sq8_off, dim)?, sq8_off, "sq8 min", true)?,
                scalars(cols.col(deltas_off, dim)?, deltas_off, "sq8 delta", false)?,
                scalars(cols.col(norms_off, rows)?, norms_off, "sq8 row norm", false)?,
            ))
        } else {
            None
        };
        let mut seg = Segment::from_cols(dim, data, inv_norms, sq8);
        match cols {
            Columns::Mapped { checked_bytes, .. } => {
                seg = seg.with_row_check(row_crcs, Arc::clone(checked_bytes));
            }
            Columns::Copied(_) => {
                let row_bytes = dim * 4;
                for (r, &crc) in row_crcs.iter().enumerate() {
                    let row = rows_off + r * row_bytes;
                    check_crc(&b[row..row + row_bytes], crc, "leaf rows")?;
                }
            }
        }
        if !self.has_sq8 && self.config.sq8_scan {
            // A quantizing engine must see a uniformly quantized store even
            // when restoring from a stream written without codes. Encoding
            // reads (and so checks) every row.
            seg.build_sq8();
            if let Some(mismatch) = seg.first_row_mismatch() {
                return Err(mismatch.into());
            }
        }
        Ok(seg)
    }

    /// Decodes block `bi`: its directory entry plus its graph, checked
    /// against the directory CRC and decoded with every edge bounds-checked.
    pub(crate) fn decode_block(&self, b: &[u8], bi: usize) -> Result<Block, MbiError> {
        let m = &self.blocks[bi];
        let end = m.graph_off + m.graph_len;
        check_crc(&b[m.graph_off..end], m.graph_crc, "block graph")?;
        let mut src = Src::new(b, m.graph_off, end);
        let graph = read_graph(&mut src, m.rows.len())?;
        if src.has_remaining() {
            return Err(src.corrupt("trailing bytes after block graph"));
        }
        let (rows, height, start_ts, end_ts) = (m.rows.clone(), m.height, m.start_ts, m.end_ts);
        Ok(Block { rows, height, start_ts, end_ts, graph })
    }

    /// Bytes of one record's timestamp column.
    pub(crate) fn ts_len(&self) -> usize {
        self.seg_rows * 8
    }

    /// Bytes of one record's f32 row column.
    pub(crate) fn rows_len(&self) -> usize {
        self.seg_rows * self.config.dim * 4
    }

    /// Bytes of one record's row CRC column.
    pub(crate) fn row_crc_len(&self) -> usize {
        self.seg_rows * 4
    }

    /// Bytes of one record's inverse-norm column (0 when absent).
    pub(crate) fn inv_len(&self) -> usize {
        if self.has_norms {
            self.seg_rows * 4
        } else {
            0
        }
    }

    /// Bytes of one record's SQ8 column group (0 when absent): mins, deltas,
    /// row norms, codes.
    pub(crate) fn sq8_len(&self) -> usize {
        if self.has_sq8 {
            self.config.dim * 8 + self.seg_rows * 4 + self.seg_rows * self.config.dim
        } else {
            0
        }
    }

    /// Bytes of one record before its graph.
    pub(crate) fn payload_len(&self) -> usize {
        self.ts_len() + self.rows_len() + self.row_crc_len() + self.inv_len() + self.sq8_len()
    }
}

/// Parses a v8 snapshot stream's directories off a raw byte slice. See
/// [`V8Layout`] for what is (and deliberately is not) verified here.
pub(crate) fn parse_v8_layout(b: &[u8]) -> Result<V8Layout, MbiError> {
    if read_header(b)? != KIND_SNAPSHOT {
        return Err(MbiError::corrupt(8, "cold open requires a snapshot stream"));
    }
    let sections = parse_footer(b)?;
    // Header and config are a few dozen bytes: verify them eagerly.
    for i in [0, 1] {
        let (start, end, expected) = sections[i];
        check_crc(&b[start..end], expected, SECTIONS[i])?;
    }
    let (c0, c1, _) = sections[1];
    let mut cfg = Src::new(b, c0, c1);
    let config = read_config(&mut cfg)?;
    if cfg.has_remaining() {
        return Err(cfg.corrupt("trailing bytes in config section"));
    }

    let (d0, d1, _) = sections[2];
    let mut d = Src::new(b, d0, d1);
    d.need(8 + 8 + 1 + 1)?;
    let num_leaves = d.get_u64_le() as usize;
    let seg_rows = d.get_u64_le() as usize;
    let has_norms = d.get_u8() != 0;
    let has_sq8 = d.get_u8() != 0;
    if seg_rows != config.leaf_size {
        return Err(MbiError::corrupt(
            d0 + 8,
            format!("segment rows {seg_rows} do not match leaf size {}", config.leaf_size),
        ));
    }
    // An empty store has no segment to carry the column, so the writer
    // stores `has_norms = 0` for it whatever the metric.
    if config.metric == Metric::Angular && !has_norms && num_leaves > 0 {
        return Err(MbiError::corrupt(d0 + 16, "angular snapshot lacks norm column"));
    }
    let ovf = |at: usize| MbiError::corrupt(at, "size overflow");
    let dir_bytes = num_leaves.checked_mul(LEAF_DIR_ENTRY_LEN).ok_or_else(|| ovf(d.pos))?;
    d.need(dir_bytes + 4)?;
    let dir_end = d.pos + dir_bytes;
    check_crc(&b[d0..dir_end], rd_u32(b, dir_end), "leaf directory")?;
    let mut leaves = Vec::with_capacity(num_leaves);
    for _ in 0..num_leaves {
        leaves.push(V8Leaf {
            record_off: d.get_u64_le() as usize,
            graph_off: d.get_u64_le() as usize,
            graph_len: d.get_u64_le() as usize,
            crc_ts: d.get_u32_le(),
            crc_rows: d.get_u32_le(),
            crc_inv: d.get_u32_le(),
            crc_sq8: d.get_u32_le(),
            crc_graph: d.get_u32_le(),
        });
    }
    // Geometry: records are page-aligned, non-overlapping, graph contiguous
    // with its payload, everything inside the data section.
    let payload_len = seg_rows
        .checked_mul(8 + config.dim * 4 + 4 + usize::from(has_norms) * 4)
        .and_then(|x| {
            if has_sq8 {
                x.checked_add(config.dim * 8 + seg_rows * 4 + seg_rows * config.dim)
            } else {
                Some(x)
            }
        })
        .ok_or_else(|| ovf(d0))?;
    let mut prev_end = dir_end + 4;
    for (i, leaf) in leaves.iter().enumerate() {
        let at = d0 + 18 + i * LEAF_DIR_ENTRY_LEN;
        if leaf.record_off % PAGE != 0 {
            return Err(MbiError::corrupt(at, "leaf record not page-aligned"));
        }
        if leaf.record_off < prev_end {
            return Err(MbiError::corrupt(at, "overlapping leaf records"));
        }
        let payload_end = leaf.record_off.checked_add(payload_len).ok_or_else(|| ovf(at))?;
        if leaf.graph_off != payload_end {
            return Err(MbiError::corrupt(at, "leaf graph not contiguous with its record"));
        }
        let graph_end = leaf.graph_off.checked_add(leaf.graph_len).ok_or_else(|| ovf(at))?;
        if graph_end > d1 {
            return Err(MbiError::corrupt(at, "leaf record overruns data section"));
        }
        prev_end = graph_end;
    }

    let (b0, b1, _) = sections[3];
    let mut s = Src::new(b, b0, b1);
    s.need(8)?;
    let num_blocks = s.get_u64_le() as usize;
    let entry_bytes = num_blocks.checked_mul(BLOCK_DIR_ENTRY_LEN).ok_or_else(|| ovf(s.pos))?;
    s.need(entry_bytes + 4)?;
    let meta_end = s.pos + entry_bytes;
    check_crc(&b[b0..meta_end], rd_u32(b, meta_end), "block directory")?;
    let mut blocks = Vec::with_capacity(num_blocks);
    let mut leaf_blocks = 0usize;
    let mut prev_graph_end = meta_end + 4;
    for i in 0..num_blocks {
        let at = b0 + 8 + i * BLOCK_DIR_ENTRY_LEN;
        let start = s.get_u64_le() as usize;
        let end = s.get_u64_le() as usize;
        let height = s.get_u32_le();
        let start_ts = s.get_i64_le();
        let end_ts = s.get_i64_le();
        let graph_off = s.get_u64_le() as usize;
        let graph_len = s.get_u64_le() as usize;
        let graph_crc = s.get_u32_le();
        // Rows, heights and time bounds are checked against the postorder
        // layout by `open_v8`, once the timestamps are read.
        if height == 0 {
            let Some(leaf) = leaves.get(leaf_blocks) else {
                return Err(MbiError::corrupt(at, "more leaf blocks than leaf records"));
            };
            if graph_off != leaf.graph_off
                || graph_len != leaf.graph_len
                || graph_crc != leaf.crc_graph
            {
                return Err(MbiError::corrupt(
                    at,
                    "leaf block graph does not match the leaf directory",
                ));
            }
            leaf_blocks += 1;
        } else {
            if graph_off < prev_graph_end {
                return Err(MbiError::corrupt(at, "overlapping block graphs"));
            }
            let graph_end = graph_off.checked_add(graph_len).ok_or_else(|| ovf(at))?;
            if graph_end > b1 {
                return Err(MbiError::corrupt(at, "block graph overruns blocks section"));
            }
            prev_graph_end = graph_end;
        }
        blocks.push(V8BlockEntry {
            rows: start..end,
            height,
            start_ts,
            end_ts,
            graph_off,
            graph_len,
            graph_crc,
        });
    }
    if leaf_blocks != num_leaves {
        return Err(MbiError::corrupt(b0, "leaf record count does not match height-0 blocks"));
    }
    let layout = V8Layout { config, num_leaves, seg_rows, has_norms, has_sq8, leaves, blocks };
    debug_assert_eq!(payload_len, layout.payload_len());
    Ok(layout)
}

/// The one open step of a v8 snapshot stream, shared by the eager loader
/// and the cold tier: parses the directories, reads every timestamp chunk
/// against its CRC (selection and windowing read this column on every
/// query), then checks the structure a query walks — timestamps
/// non-decreasing, and the block directory the postorder layout for
/// `num_leaves` with time bounds matching the timestamps. Records and
/// graphs are left to [`V8Layout::decode_segment`] and
/// [`V8Layout::decode_block`].
pub(crate) fn open_v8(b: &[u8]) -> Result<(V8Layout, TimeChunks), MbiError> {
    let layout = parse_v8_layout(b)?;
    let mut times = TimeChunks::new(layout.seg_rows);
    let mut newest = Timestamp::MIN;
    for leaf in &layout.leaves {
        let ts = &b[leaf.record_off..leaf.record_off + layout.ts_len()];
        check_crc(ts, leaf.crc_ts, "leaf timestamps")?;
        let chunk: Vec<Timestamp> = le_vec(ts);
        for (r, &t) in chunk.iter().enumerate() {
            if t < newest {
                return Err(MbiError::corrupt(leaf.record_off + r * 8, "timestamps not sorted"));
            }
            newest = t;
        }
        times.push_chunk(chunk.into());
    }
    let blocks = layout.blocks.iter().map(|m| (&m.rows, m.height, m.start_ts, m.end_ts));
    validate_blocks(layout.seg_rows, layout.num_leaves, blocks, &times)
        .map_err(|detail| MbiError::corrupt(0, detail))?;
    Ok((layout, times))
}

/// Where a decoded leaf's columns live: viewed in place inside a shared map
/// (the cold tier: zero copy, charged to its block cache, rows checked as
/// they are read and the bytes checked counted in `checked_bytes`) or copied
/// out of the stream into owned vectors (the eager loader).
pub(crate) enum Columns<'a> {
    Mapped { map: &'a Arc<FileMap>, checked_bytes: &'a Arc<AtomicU64> },
    Copied(&'a [u8]),
}

impl Columns<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Columns::Mapped { map, .. } => map.bytes(),
            Columns::Copied(b) => b,
        }
    }

    /// The column of `len` elements at absolute offset `off`.
    fn col<T: LeScalar>(&self, off: usize, len: usize) -> Result<Col<T>, MbiError> {
        match self {
            Columns::Mapped { map, .. } => {
                Col::mapped(Arc::clone(map), off, len).map_err(|e| MbiError::corrupt(off, e))
            }
            Columns::Copied(b) => Ok(Col::Owned(le_vec(&b[off..off + len * size_of::<T>()]))),
        }
    }
}

/// A column element the format stores little-endian.
trait LeScalar: Plain {
    fn from_le(b: &[u8]) -> Self;
}

macro_rules! le_scalar {
    ($($t:ty),*) => {$(
        impl LeScalar for $t {
            fn from_le(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("one element"))
            }
        }
    )*};
}
le_scalar!(u8, u32, f32, i64);

fn le_vec<T: LeScalar>(b: &[u8]) -> Vec<T> {
    b.chunks_exact(size_of::<T>()).map(T::from_le).collect()
}

/// Passes `col` through unless it holds a non-finite scalar — or a negative
/// one unless `signed` — which is `Corrupt` at that scalar's offset (the
/// column starts at `off`).
fn scalars<C: Deref<Target = [f32]>>(
    col: C,
    off: usize,
    what: &str,
    signed: bool,
) -> Result<C, MbiError> {
    match col.iter().position(|&x| !x.is_finite() || (!signed && x < 0.0)) {
        Some(i) => Err(MbiError::corrupt(off + i * 4, format!("invalid {what} {}", col[i]))),
        None => Ok(col),
    }
}

fn write_config(b: &mut BytesMut, c: &MbiConfig) {
    b.put_u64_le(c.dim as u64);
    b.put_u8(metric_tag(c.metric));
    b.put_u64_le(c.leaf_size as u64);
    b.put_f64_le(c.tau);
    let GraphBackend::NnDescent(p) = &c.backend;
    b.put_u8(0);
    b.put_u64_le(p.degree as u64);
    b.put_f64_le(p.rho);
    b.put_f64_le(p.delta);
    b.put_u64_le(p.max_iters as u64);
    b.put_u64_le(p.seed);
    b.put_u64_le(c.search.max_candidates as u64);
    b.put_f32_le(c.search.epsilon);
    match c.search.entry {
        EntryPolicy::QueryHash => b.put_u8(0),
        EntryPolicy::Fixed(id) => {
            b.put_u8(1);
            b.put_u32_le(id);
        }
    }
    b.put_u8(u8::from(c.parallel_build));
    // Reserved slot (was the query fan-out width): written 0, read and
    // ignored; it goes at the next format cut.
    b.put_u64_le(0);
    b.put_u8(u8::from(c.sq8_scan));
    b.put_f32_le(c.sq8_overfetch);
    b.put_u64_le(c.ram_budget_bytes);
    b.put_u32_le(c.cache_shards.min(u32::MAX as usize) as u32);
}

fn read_config(b: &mut Src<'_>) -> Result<MbiConfig, MbiError> {
    b.need(8 + 1 + 8 + 8 + 1)?;
    let dim = b.get_u64_le() as usize;
    if dim == 0 || dim > 1 << 20 {
        return Err(b.corrupt(format!("implausible dimension {dim}")));
    }
    let metric = metric_from_tag(b)?;
    let leaf_size = b.get_u64_le() as usize;
    if leaf_size == 0 {
        return Err(b.corrupt("zero leaf size"));
    }
    let tau = b.get_f64_le();
    if !(tau > 0.0 && tau <= 1.0) {
        return Err(b.corrupt(format!("tau {tau} out of range")));
    }
    let backend = match b.get_u8() {
        0 => {
            b.need(8 * 4 + 8)?;
            GraphBackend::NnDescent(NnDescentParams {
                degree: b.get_u64_le() as usize,
                rho: b.get_f64_le(),
                delta: b.get_f64_le(),
                max_iters: b.get_u64_le() as usize,
                seed: b.get_u64_le(),
            })
        }
        t => return Err(b.corrupt(format!("unknown backend tag {t}"))),
    };
    b.need(8 + 4 + 1)?;
    let max_candidates = b.get_u64_le() as usize;
    let epsilon = b.get_f32_le();
    let entry = match b.get_u8() {
        0 => EntryPolicy::QueryHash,
        1 => {
            b.need(4)?;
            EntryPolicy::Fixed(b.get_u32_le())
        }
        t => return Err(b.corrupt(format!("unknown entry tag {t}"))),
    };
    b.need(1 + 8)?;
    let parallel_build = b.get_u8() != 0;
    // The reserved slot: any value loads, since older writers stored a
    // fan-out width here.
    b.get_u64_le();
    b.need(1 + 4)?;
    let sq8_scan = b.get_u8() != 0;
    let sq8_overfetch = b.get_f32_le();
    if !sq8_overfetch.is_finite() || sq8_overfetch < 1.0 {
        return Err(b.corrupt(format!("sq8 overfetch {sq8_overfetch} out of range")));
    }
    b.need(8 + 4)?;
    let ram_budget_bytes = b.get_u64_le();
    let cache_shards = b.get_u32_le() as usize;
    if cache_shards == 0 {
        return Err(b.corrupt("zero cache shards"));
    }
    Ok(MbiConfig {
        dim,
        metric,
        leaf_size,
        tau,
        backend,
        search: SearchParams { max_candidates, epsilon, entry },
        parallel_build,
        sq8_scan,
        sq8_overfetch,
        ram_budget_bytes,
        cache_shards,
    })
}

fn metric_tag(m: Metric) -> u8 {
    match m {
        Metric::Euclidean => 0,
        Metric::Angular => 1,
        Metric::InnerProduct => 2,
    }
}

fn metric_from_tag(b: &mut Src<'_>) -> Result<Metric, MbiError> {
    match b.get_u8() {
        0 => Ok(Metric::Euclidean),
        1 => Ok(Metric::Angular),
        2 => Ok(Metric::InnerProduct),
        t => Err(b.corrupt(format!("unknown metric tag {t}"))),
    }
}

/// Appends `g`, reserving its exact serialised size first.
fn write_graph(b: &mut BytesMut, BlockGraph(g): &BlockGraph) {
    let flat = g.as_flat();
    b.reserve(1 + 8 + 8 + flat.len() * 4);
    b.put_u8(0);
    b.put_u64_le(g.degree() as u64);
    b.put_u64_le(flat.len() as u64);
    let start = b.len();
    b.resize(start + flat.len() * 4, 0);
    for (dst, x) in b[start..].chunks_exact_mut(4).zip(flat) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

fn read_graph(b: &mut Src<'_>, block_len: usize) -> Result<BlockGraph, MbiError> {
    b.need(1)?;
    match b.get_u8() {
        0 => {
            b.need(16)?;
            let degree = b.get_u64_le() as usize;
            let len = b.get_u64_le() as usize;
            // `degree` slots per row, exactly — so a degree-0 graph has no
            // edges, and a degree that overflows the product is rejected.
            if degree.checked_mul(block_len) != Some(len) {
                return Err(b.corrupt(format!(
                    "graph size {len} does not match degree {degree} × block {block_len}"
                )));
            }
            // In range, or the padding sentinel. A `u32` bound keeps the
            // check in 32-bit vector lanes; a block of 2^32 rows or more
            // makes every edge valid, and so does the clamped bound.
            let n = u32::try_from(block_len).unwrap_or(u32::MAX);
            let flat = read_edges(b, len, "edge", |x| x == u32::MAX || x < n)?;
            Ok(BlockGraph(KnnGraph::from_flat(degree, flat)))
        }
        t => Err(b.corrupt(format!("unknown graph tag {t}"))),
    }
}

/// Decodes `len` edges in bulk and checks them in one branch-free pass; only
/// on failure is the first bad edge located, reported at the byte after it.
fn read_edges(
    b: &mut Src<'_>,
    len: usize,
    what: &str,
    valid: impl Fn(u32) -> bool,
) -> Result<Vec<u32>, MbiError> {
    b.need(len.checked_mul(4).ok_or_else(|| overflow(b))?)?;
    let at = b.pos;
    let edges: Vec<u32> = le_vec(b.bytes(len * 4));
    if !edges.iter().fold(true, |ok, &x| ok & valid(x)) {
        let i = edges.iter().position(|&x| !valid(x)).expect("a bad edge");
        let detail = format!("{what} to missing node {}", edges[i]);
        return Err(MbiError::corrupt(at + (i + 1) * 4, detail));
    }
    Ok(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fail::{ErrorInjectingReader, ErrorInjectingWriter};
    use crate::select::TimeWindow;
    use crate::tier::ColdIndex;
    use mbi_ann::FileMap;

    fn build_index(backend: GraphBackend, n: usize) -> MbiIndex {
        let config = MbiConfig::new(3, Metric::Euclidean).with_leaf_size(16).with_backend(backend);
        let mut idx = MbiIndex::new(config);
        for i in 0..n {
            let x = i as f32;
            idx.insert(&[x, (x * 0.1).sin(), -x], i as i64).unwrap();
        }
        idx
    }

    fn build_angular_index(n: usize) -> MbiIndex {
        let config = MbiConfig::new(3, Metric::Angular).with_leaf_size(16);
        let mut idx = MbiIndex::new(config);
        for i in 0..n {
            let x = i as f32 * 0.37;
            idx.insert(&[x.sin(), x.cos(), (x * 0.5).sin()], i as i64).unwrap();
        }
        idx
    }

    fn build_sq8_index(n: usize, sq8: bool) -> MbiIndex {
        let config = MbiConfig::new(3, Metric::Euclidean).with_leaf_size(16).with_sq8_scan(sq8);
        let mut idx = MbiIndex::new(config);
        for i in 0..n {
            let x = i as f32;
            idx.insert(&[x, (x * 0.2).cos(), -x], i as i64).unwrap();
        }
        idx
    }

    fn snapshot_of(idx: &MbiIndex) -> IndexSnapshot {
        IndexSnapshot::from_index(idx).unwrap()
    }

    fn cold_from(stream: &[u8]) -> Result<ColdIndex, MbiError> {
        ColdIndex::from_map(Arc::new(FileMap::from_bytes(stream.to_vec())))
    }

    fn assert_same_answers(a: &MbiIndex, b: &MbiIndex) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_leaves(), b.num_leaves());
        assert_eq!(a.blocks().len(), b.blocks().len());
        for (q, w) in [(5.0f32, (0i64, 60i64)), (30.0, (10, 50)), (55.0, (40, 64))] {
            let qa = a.query(&[q, 0.0, -q], 5, TimeWindow::new(w.0, w.1));
            let qb = b.query(&[q, 0.0, -q], 5, TimeWindow::new(w.0, w.1));
            assert_eq!(qa, qb);
        }
    }

    fn assert_same_snapshot_answers(a: &IndexSnapshot, b: &IndexSnapshot) {
        assert_eq!(a.sealed_rows(), b.sealed_rows());
        assert_eq!(a.num_leaves(), b.num_leaves());
        assert_eq!(a.blocks().len(), b.blocks().len());
        let params = a.config().search;
        for (q, w) in [(5.0f32, (0i64, 60i64)), (30.0, (10, 50)), (55.0, (40, 64))] {
            let w = TimeWindow::new(w.0, w.1);
            let qa = a.query_with_params(&[q, 0.0, -q], 5, w, &params);
            let qb = b.query_with_params(&[q, 0.0, -q], 5, w, &params);
            assert_eq!(qa.results, qb.results);
        }
    }

    /// Re-seals a mutated stream so the structural check *behind* the CRCs
    /// is what fires: strips the footer, lets `mutate` edit (or extend) the
    /// section bytes, and writes a fresh footer over the same section starts.
    fn refooter(stream: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        let sections = parse_footer(stream).unwrap();
        let mut body = stream[..sections[3].1].to_vec();
        mutate(&mut body);
        let mut b = BytesMut::with_capacity(body.len() + 80);
        b.put_slice(&body);
        write_footer(&mut b, &[0, sections[1].0, sections[2].0, sections[3].0, body.len()]);
        b.freeze()
    }

    fn put_u32(b: &mut [u8], off: usize, x: u32) {
        b[off..off + 4].copy_from_slice(&x.to_le_bytes());
    }

    /// Where a clean snapshot stream keeps its two directories.
    struct Dirs {
        lay: V8Layout,
        /// Start of the data section: `num_leaves`, `seg_rows`, the flags,
        /// then the leaf directory.
        d0: usize,
        /// Start of the blocks section: `num_blocks`, then the block
        /// directory.
        b0: usize,
    }

    impl Dirs {
        fn of(stream: &[u8]) -> Dirs {
            let sections = parse_footer(stream).unwrap();
            Dirs { lay: parse_v8_layout(stream).unwrap(), d0: sections[2].0, b0: sections[3].0 }
        }

        fn leaf_entry(&self, leaf: usize) -> usize {
            self.d0 + 18 + leaf * LEAF_DIR_ENTRY_LEN
        }

        fn block_entry(&self, block: usize) -> usize {
            self.b0 + 8 + block * BLOCK_DIR_ENTRY_LEN
        }

        /// Rewrites leaf `leaf`'s piece CRC `k` (0 timestamps, 1 row CRCs,
        /// 2 norms, 3 sq8, 4 graph) over the piece's bytes in `body`.
        fn recrc_piece(&self, body: &mut [u8], leaf: usize, k: usize) {
            let (lay, l) = (&self.lay, self.lay.leaves[leaf]);
            // The record's columns in order; the rows have no piece CRC.
            let lens = [
                lay.ts_len(),
                lay.rows_len(),
                lay.row_crc_len(),
                lay.inv_len(),
                lay.sq8_len(),
                l.graph_len,
            ];
            let col = if k == 0 { 0 } else { k + 1 };
            let start = l.record_off + lens[..col].iter().sum::<usize>();
            let crc = crc32(&body[start..start + lens[col]]);
            put_u32(body, self.leaf_entry(leaf) + 24 + 4 * k, crc);
        }

        /// `refooter` that also rewrites both directory CRCs after `mutate`,
        /// so only the structural checks behind them can object.
        fn reseal(&self, stream: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Bytes {
            refooter(stream, |body| {
                mutate(body);
                let dir_end = self.leaf_entry(self.lay.num_leaves);
                let dir_crc = crc32(&body[self.d0..dir_end]);
                put_u32(body, dir_end, dir_crc);
                let meta_end = self.block_entry(self.lay.blocks.len());
                let meta_crc = crc32(&body[self.b0..meta_end]);
                put_u32(body, meta_end, meta_crc);
            })
        }

        /// `reseal` for an edit inside block `bi`'s graph: the graph CRC is
        /// the last field of the block's entry and, for a leaf block, of its
        /// leaf's entry too; both are rewritten before the directory CRCs.
        fn reseal_graph(&self, stream: &[u8], bi: usize, mutate: impl FnOnce(&mut [u8])) -> Bytes {
            let m = &self.lay.blocks[bi];
            self.reseal(stream, |body| {
                mutate(&mut body[m.graph_off..m.graph_off + m.graph_len]);
                let crc = crc32(&body[m.graph_off..m.graph_off + m.graph_len]);
                put_u32(body, self.block_entry(bi + 1) - 4, crc);
                if let Some(leaf) = layout::block_leaf(bi) {
                    put_u32(body, self.leaf_entry(leaf + 1) - 4, crc);
                }
            })
        }
    }

    /// Where each block's graph starts in an index-kind stream: the graphs
    /// follow one another in the blocks section, each after its block's
    /// 36 bytes of fixed fields.
    fn index_graph_offsets(idx: &MbiIndex, stream: &[u8]) -> Vec<usize> {
        let mut at = parse_footer(stream).unwrap()[3].0 + 16;
        let mut offsets = Vec::new();
        for block in idx.blocks() {
            let mut g = BytesMut::new();
            write_graph(&mut g, &block.graph);
            offsets.push(at + 36);
            at += 36 + g.len();
        }
        offsets
    }

    /// `Some(offset)` for a `Corrupt` verdict, `None` for a successful one;
    /// any other error fails the test.
    fn corrupt_at<T>(r: Result<T, MbiError>, what: &str, detail: &str) -> Option<usize> {
        match r {
            Ok(_) => None,
            Err(MbiError::Corrupt { offset, detail: d }) if d == detail => Some(offset),
            Err(e) => panic!("{what}: expected Ok or Corrupt({detail:?}), got {e}"),
        }
    }

    #[test]
    fn index_roundtrips() {
        for idx in [build_index(GraphBackend::default(), 70), build_angular_index(70)] {
            let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
            // The norm column survives when present and is not grown when not.
            assert_eq!(idx.store().has_norm_cache(), idx.config().metric == Metric::Angular);
            assert_eq!(loaded.store().inv_norms(), idx.store().inv_norms());
            assert_same_answers(&idx, &loaded);
        }
    }

    #[test]
    fn roundtrip_empty_index() {
        let idx = MbiIndex::new(MbiConfig::new(4, Metric::Angular));
        let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.config().dim, 4);
    }

    #[test]
    fn roundtrips_through_files() {
        let idx = build_index(GraphBackend::default(), 32);
        let dir = std::env::temp_dir().join("mbi_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.mbi");
        idx.save_file(&path).unwrap();
        assert_same_answers(&idx, &MbiIndex::load_file(&path).unwrap());
        let snap = snapshot_of(&idx);
        snap.save_file(&path).unwrap();
        assert_same_snapshot_answers(&snap, &IndexSnapshot::load_file(&path).unwrap());
        assert!(!dir.join("index.mbi.tmp").exists(), "atomic save leaves no temp file behind");
        std::fs::remove_file(&path).ok();
    }

    /// One reader means format drift is data loss: the exact bytes written
    /// for three fixed 64-row indexes are pinned as (length, CRC32),
    /// recorded when format v8 added the per-row CRC column.
    #[test]
    fn v8_bytes_are_pinned() {
        let pin = |b: Bytes| (b.len(), crc32(&b));
        for (idx, index_pin, snapshot_pin) in [
            (build_index(GraphBackend::default(), 64), (21055, 0x1b9c_e913), (33800, 0xba03_e1f9)),
            (build_angular_index(64), (21311, 0x3e9a_f03a), (33800, 0xd176_8348)),
            (build_sq8_index(64, true), (21055, 0x8e47_450f), (33800, 0xa94e_3731)),
        ] {
            let what = (idx.config().metric, idx.config().sq8_scan);
            assert_eq!(pin(idx.to_bytes()), index_pin, "{what:?} index stream drifted");
            let snapshot = snapshot_of(&idx).to_bytes();
            assert_eq!(pin(snapshot), snapshot_pin, "{what:?} snapshot stream drifted");
        }
    }

    /// Query outputs pinned like the stream bytes: per entry policy and
    /// front-end, one CRC-32 over every answer's `(id, dist bits)` and its
    /// five `SearchStats` counters. The index runs with `sq8_scan` on, so the
    /// snapshot and the cold tier (budget 0: every piece reloads) traverse
    /// and scan the code column, and `MbiIndex`'s flat store falls back to
    /// exact. The SQ8 scorer runs through the dispatched `sq8_code_dot`
    /// kernel, so the pins must hold on the SIMD and the forced-scalar
    /// backend alike. The `QueryHash` row also pins the default entry policy
    /// (re-recorded when it began seeding `C` with strided pivots); the
    /// `Fixed` row starts every search at one vertex, so it pins the beam
    /// loop alone (recorded on the tree that still had a second backend,
    /// before the loop stopped taking a trait object).
    #[test]
    fn query_outputs_are_pinned() {
        fn transcript(bytes: &mut Vec<u8>, out: &crate::index::QueryOutput) {
            for r in &out.results {
                bytes.extend(r.id.to_le_bytes());
                bytes.extend(r.dist.to_bits().to_le_bytes());
            }
            let s = &out.stats;
            for c in [s.dist_evals, s.visited, s.scanned, s.blocks_searched, s.blocks_bruteforced] {
                bytes.extend(c.to_le_bytes());
            }
        }
        let fixed = SearchParams { entry: EntryPolicy::Fixed(5), ..SearchParams::default() };
        for (name, search, pins) in [
            ("query-hash entry", SearchParams::default(), [0xd4dd_96f5, 0xf8db_a202, 0xf8db_a202]),
            ("fixed entry", fixed, [0x436e_504c, 0x82fa_9c8d, 0x82fa_9c8d]),
        ] {
            let config = MbiConfig::new(4, Metric::Euclidean)
                .with_leaf_size(32)
                .with_search(search)
                .with_sq8_scan(true);
            let mut idx = MbiIndex::new(config);
            for i in 0..256 {
                let x = i as f32;
                let v = [(x * 0.37).sin(), (x * 0.11).cos(), (x * 0.05).sin() * 2.0, x / 256.0];
                idx.insert(&v, i as i64).unwrap();
            }
            let snapshot = snapshot_of(&idx);
            let map = Arc::new(FileMap::from_bytes(snapshot.to_bytes().to_vec()));
            let cold = ColdIndex::from_map_with_budget(map, 0).unwrap();
            let params = config.search;
            let mut bytes = [Vec::new(), Vec::new(), Vec::new()];
            for q in 0..4 {
                let x = q as f32 * 61.0 + 7.0;
                let query = [(x * 0.3).cos(), (x * 0.2).sin(), 0.5 - q as f32 * 0.4, x / 256.0];
                for (lo, hi) in [(0, 256), (10, 200), (100, 140), (37, 45)] {
                    let w = TimeWindow::new(lo, hi);
                    for k in [1, 10] {
                        transcript(&mut bytes[0], &idx.query_with_params(&query, k, w, &params));
                        transcript(
                            &mut bytes[1],
                            &snapshot.query_with_params(&query, k, w, &params),
                        );
                        let out = cold.query_with_params(&query, k, w, &params).unwrap();
                        transcript(&mut bytes[2], &out);
                    }
                }
            }
            let got = bytes.map(|b| crc32(&b));
            assert_eq!(got, pins, "{name} outputs drifted (MbiIndex, IndexSnapshot, ColdIndex)");
        }
    }

    #[test]
    fn empty_angular_snapshot_opens_and_answers_empty() {
        // No segment carries a norm column yet, so the stream says
        // `has_norms = 0`; the reader accepts that for an empty store only.
        let stream = snapshot_of(&build_angular_index(0)).to_bytes();
        let q = [0.6, 0.8, 0.0];
        let snapshot = IndexSnapshot::from_bytes(stream.clone()).unwrap();
        assert_eq!(snapshot.sealed_rows(), 0);
        let params = snapshot.config().search;
        assert!(snapshot.query_with_params(&q, 5, TimeWindow::all(), &params).results.is_empty());
        let cold = cold_from(&stream).unwrap();
        assert!(cold.query(&q, 5, TimeWindow::all()).unwrap().is_empty());
        // A non-empty angular stream without the column is still corrupt.
        let full = snapshot_of(&build_angular_index(64)).to_bytes();
        let d0 = parse_footer(&full).unwrap()[2].0;
        let mut raw = full.to_vec();
        raw[d0 + 16] = 0;
        let err = IndexSnapshot::from_bytes(refooter(&raw, |_| {})).unwrap_err();
        assert!(err.to_string().contains("lacks norm column"), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let err = MbiIndex::from_bytes(Bytes::from_static(b"NOPE\0\0\0\0")).unwrap_err();
        assert!(matches!(err, MbiError::Corrupt { offset: 0, .. }));
    }

    #[test]
    fn rejects_every_retired_version() {
        let index = build_index(GraphBackend::default(), 64);
        let snapshot = snapshot_of(&index).to_bytes();
        for version in [2u32, 3, 4, 5, 6, 7, 9] {
            let restamp = |stream: &[u8]| {
                let mut raw = stream.to_vec();
                put_u32(&mut raw, 4, version);
                raw
            };
            let errs = [
                MbiIndex::from_bytes(Bytes::from(restamp(&index.to_bytes()))).unwrap_err(),
                IndexSnapshot::from_bytes(Bytes::from(restamp(&snapshot))).unwrap_err(),
                cold_from(&restamp(&snapshot)).unwrap_err(),
            ];
            for err in errs {
                assert!(matches!(err, MbiError::Corrupt { offset: 4, .. }), "{err}");
                let msg = err.to_string();
                assert!(msg.contains(&format!("version {version}")), "{msg}");
                assert!(msg.contains("only version 8"), "{msg}");
            }
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let idx = build_angular_index(32);
        // Chop both kinds of stream at many points; every prefix must fail
        // cleanly.
        let full = idx.to_bytes();
        for cut in [0, 3, 7, 20, 60, full.len() / 2, full.len() - 1] {
            let err = MbiIndex::from_bytes(full.slice(0..cut));
            assert!(err.is_err(), "index prefix of {cut} bytes was accepted");
        }
        let full = snapshot_of(&idx).to_bytes();
        for cut in [0, 3, 7, 20, 60, full.len() / 2, full.len() - 1] {
            let err = IndexSnapshot::from_bytes(full.slice(0..cut));
            assert!(err.is_err(), "snapshot prefix of {cut} bytes was accepted");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let idx = build_index(GraphBackend::default(), 40);
        let mut raw = idx.to_bytes().to_vec();
        raw.extend_from_slice(b"junk");
        // Appended junk displaces the footer → bad footer magic.
        let err = MbiIndex::from_bytes(Bytes::from(raw.clone())).unwrap_err();
        assert!(err.to_string().contains("footer magic"), "{err}");
        assert!(IndexSnapshot::from_bytes(Bytes::from(raw)).is_err());
        // Junk sealed *inside* the blocks section is caught structurally.
        let sealed = refooter(&idx.to_bytes(), |body| body.extend_from_slice(b"junk"));
        let err = MbiIndex::from_bytes(sealed).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_unsorted_timestamps_with_offset() {
        let idx = build_index(GraphBackend::default(), 40);
        let stream = idx.to_bytes();
        let ts_start = parse_footer(&stream).unwrap()[2].0 + 8; // data section, after n
        let sealed = refooter(&stream, |body| {
            body[ts_start..ts_start + 8].copy_from_slice(&1i64.to_le_bytes());
            body[ts_start + 8..ts_start + 16].copy_from_slice(&0i64.to_le_bytes());
        });
        match MbiIndex::from_bytes(sealed).unwrap_err() {
            MbiError::Corrupt { offset, ref detail } if detail.contains("not sorted") => {
                assert_eq!(offset, ts_start + 8, "offset points at the out-of-order timestamp");
            }
            other => panic!("expected unsorted-timestamp Corrupt, got {other}"),
        }
    }

    #[test]
    fn rejects_corrupt_norm_column() {
        // A NaN flipped into a stored stream trips the data CRC first, so
        // re-seal it: the per-scalar check itself must still say no.
        let idx = build_angular_index(64);
        let n = idx.len();
        let stream = idx.to_bytes();
        // Index kind: the column follows n, the timestamps, the floats and
        // the flag byte.
        let norms_start = parse_footer(&stream).unwrap()[2].0 + 8 + n * 8 + n * 3 * 4 + 1;
        let nan = f32::NAN.to_le_bytes();
        let sealed =
            refooter(&stream, |body| body[norms_start..norms_start + 4].copy_from_slice(&nan));
        let err = MbiIndex::from_bytes(sealed).unwrap_err();
        assert!(err.to_string().contains("inverse norm"), "{err}");

        // Snapshot kind: the column's own CRC is re-sealed too, and the
        // eager and cold readers both refuse it.
        let stream = snapshot_of(&idx).to_bytes();
        let dirs = Dirs::of(&stream);
        let lay = &dirs.lay;
        let norms_start =
            lay.leaves[1].record_off + lay.ts_len() + lay.rows_len() + lay.row_crc_len();
        let sealed = dirs.reseal(&stream, |body| {
            body[norms_start..norms_start + 4].copy_from_slice(&nan);
            dirs.recrc_piece(body, 1, 2);
        });
        let err = IndexSnapshot::from_bytes(sealed.clone()).unwrap_err();
        assert!(err.to_string().contains("inverse norm"), "{err}");
        let err = cold_from(&sealed).unwrap().exact_query(&[0.0; 3], 3, TimeWindow::all());
        assert!(err.unwrap_err().to_string().contains("inverse norm"));
    }

    #[test]
    fn detects_any_section_flip_as_checksum_mismatch() {
        let idx = build_index(GraphBackend::default(), 40);
        let raw = idx.to_bytes().to_vec();
        let sections = parse_footer(&raw).unwrap();
        // One flip inside each region: kind byte (header section), config,
        // data (a vector float — structurally valid, only the CRC sees it:
        // without the checksum it would load as a silently different index),
        // blocks.
        let float_pos = sections[2].0 + 8 + idx.len() * 8 + 10;
        for (pos, expect_section) in [
            (8usize, "header"),
            (sections[1].0 + 3, "config"),
            (float_pos, "data"),
            (sections[3].1 - 5, "blocks"),
        ] {
            let mut bad = raw.clone();
            bad[pos] ^= 0x10;
            match MbiIndex::from_bytes(Bytes::from(bad)) {
                Err(MbiError::ChecksumMismatch { section, .. }) => {
                    assert_eq!(section, expect_section, "flip at byte {pos}");
                }
                // A kind-byte flip can also fail before checksumming.
                Err(MbiError::Corrupt { .. }) if expect_section == "header" => {}
                other => panic!("flip at {pos}: expected ChecksumMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn detects_footer_flips() {
        let idx = build_index(GraphBackend::default(), 30);
        let raw = idx.to_bytes().to_vec();
        let n = raw.len();
        // Flip in the footer body → footer CRC or section CRC mismatch;
        // flip in the trailing magic → corrupt.
        let mut bad = raw.clone();
        bad[n - 20] ^= 0x01;
        assert!(MbiIndex::from_bytes(Bytes::from(bad)).is_err());
        let mut bad = raw.clone();
        bad[n - 1] ^= 0x01;
        let err = MbiIndex::from_bytes(Bytes::from(bad)).unwrap_err();
        assert!(err.to_string().contains("footer magic"), "{err}");
    }

    /// Hostile graph degrees, and graph tags no reader knows: `1` (HNSW's,
    /// a backend since deleted) and `0xFF`. Each is `Corrupt` with its own
    /// detail, never a panic.
    #[test]
    fn hostile_graph_headers_are_corrupt_not_panics() {
        fn corrupt_with(err: &MbiError, detail: &str) -> bool {
            matches!(err, MbiError::Corrupt { detail: d, .. } if d.contains(detail))
        }
        let idx = build_index(GraphBackend::default(), 64);
        let index_stream = idx.to_bytes();
        // Index kind: the first graph follows the two counts and block 0's
        // fixed fields; it opens with its tag byte, then its degree.
        let index_graph_at = parse_footer(&index_stream).unwrap()[3].0 + 16 + 36;
        let snap_stream = snapshot_of(&idx).to_bytes();
        let dirs = Dirs::of(&snap_stream);
        // (what, offset into the graph, the bytes written there, the detail)
        let degrees = [0u64, 1 << 63, 3].map(|degree| {
            let detail = "does not match degree".to_string();
            (format!("degree {degree}"), 1, degree.to_le_bytes().to_vec(), detail)
        });
        let tags = [1u8, 0xFF].map(|tag| {
            (format!("graph tag {tag}"), 0, vec![tag], format!("unknown graph tag {tag}"))
        });
        for (what, at, bytes, detail) in degrees.into_iter().chain(tags) {
            let edit = |g: &mut [u8]| g[at..at + bytes.len()].copy_from_slice(&bytes);
            let sealed = refooter(&index_stream, |body| edit(&mut body[index_graph_at..]));
            let err = MbiIndex::from_bytes(sealed).unwrap_err();
            assert!(corrupt_with(&err, &detail), "index, {what}: {err}");

            // Snapshot kind: leaf 0's graph (block 0) and a height-1 graph
            // (block 2), every CRC over them re-sealed so only the graph
            // decoder is left to object.
            for bi in [0, 2] {
                let what = format!("block {bi}, {what}");
                let sealed = dirs.reseal_graph(&snap_stream, bi, edit);
                let err = IndexSnapshot::from_bytes(sealed.clone()).unwrap_err();
                assert!(corrupt_with(&err, &detail), "snapshot, {what}: {err}");
                // The cold reader opens on directories alone and meets a
                // graph on the first query that reads it: a height-1 graph
                // whenever its block is selected, a leaf's only when the leaf
                // is graph-searched, which never pays at 16 rows.
                let m = &dirs.lay.blocks[bi];
                let cold = cold_from(&sealed).unwrap();
                let got = cold.query(&[0.0, 0.0, 0.0], 3, TimeWindow::new(m.start_ts, m.end_ts));
                if m.height > 0 {
                    let corrupt = matches!(&got, Err(e) if corrupt_with(e, &detail));
                    assert!(corrupt, "cold, {what}: {got:?}");
                } else {
                    assert!(got.is_ok(), "cold, {what}: {got:?}");
                }
            }
        }
    }

    /// One verdict per edited edge of a leaf graph and of a height-1 graph:
    /// the first edge, one on a 64-byte boundary of the adjacency and the
    /// last, set to `n − 1`, `n`, `u32::MAX − 1` and `u32::MAX` (`n` the
    /// block's row count, `u32::MAX` the padding), CRCs re-sealed. The index
    /// loader, the snapshot loader and the cold tier at budgets 0 and
    /// unlimited must open the stream or report `Corrupt` at the byte after
    /// the bad edge, as recorded on the reader that decoded one edge at a
    /// time — except that the cold tier never reads the leaf graph: it
    /// decodes a leaf's graph only when it graph-searches the leaf, and at 16
    /// rows a scan always pays.
    #[test]
    fn graph_edge_verdict_table() {
        // Per graph, per slot: where a bad edge is reported in the index
        // stream and in the snapshot stream.
        const BAD_EDGE_AT: [[(usize, usize); 3]; 2] = [
            [(1476, 4501), (2308, 5333), (3072, 6097)],
            [(4782, 20905), (6382, 22505), (7978, 24101)],
        ];
        let idx = build_index(GraphBackend::default(), 64);
        let index_stream = idx.to_bytes();
        let index_graphs = index_graph_offsets(&idx, &index_stream);
        let snap_stream = snapshot_of(&idx).to_bytes();
        let dirs = Dirs::of(&snap_stream);
        let q = [20.0f32, 0.5, -20.0];
        for (g, bi) in [0, 2].into_iter().enumerate() {
            let m = &dirs.lay.blocks[bi];
            assert_eq!(m.height as usize, g, "block {bi}");
            let BlockGraph(graph) = &idx.blocks()[bi].graph;
            let (n, len) = (m.rows.len() as u32, graph.as_flat().len());
            let window = TimeWindow::new(m.start_ts, m.end_ts);
            for (s, slot) in [0, (len / 2).next_multiple_of(16), len - 1].into_iter().enumerate() {
                let edge = 17 + 4 * slot;
                for x in [n - 1, n, u32::MAX - 1, u32::MAX] {
                    let what = format!("block {bi}, edge {slot} of {len} set to {x}");
                    let detail = format!("edge to missing node {x}");
                    let edit = |bytes: &mut [u8]| {
                        bytes[edge..edge + 4].copy_from_slice(&x.to_le_bytes());
                    };
                    let sealed =
                        refooter(&index_stream, |body| edit(&mut body[index_graphs[bi]..]));
                    let index = corrupt_at(MbiIndex::from_bytes(sealed), &what, &detail);
                    let sealed = dirs.reseal_graph(&snap_stream, bi, edit);
                    let snapshot =
                        corrupt_at(IndexSnapshot::from_bytes(sealed.clone()), &what, &detail);
                    for budget in [0, u64::MAX] {
                        let map = Arc::new(FileMap::from_bytes(sealed.to_vec()));
                        let cold = ColdIndex::from_map_with_budget(map, budget)
                            .and_then(|cold| cold.query(&q, 5, window));
                        let cold = corrupt_at(cold, &what, &detail);
                        let read = if m.height > 0 { snapshot } else { None };
                        assert_eq!(cold, read, "{what}: cold at budget {budget}");
                    }
                    let (index_at, snapshot_at) = BAD_EDGE_AT[g][s];
                    let expected = if x < n || x == u32::MAX {
                        (None, None)
                    } else {
                        (Some(index_at), Some(snapshot_at))
                    };
                    assert_eq!((index, snapshot), expected, "{what}");
                }
            }
        }
    }

    /// The per-element decoder the bulk one replaced: the `Corrupt` offset of
    /// the first out-of-range edge of a serialised kNN graph at `base`.
    fn first_bad_edge(graph: &[u8], base: usize, block_len: usize) -> Option<usize> {
        let mut at = base + 17;
        for edge in graph[17..].chunks_exact(4) {
            at += 4;
            let x = u32::from_le_bytes(edge.try_into().unwrap());
            if x != u32::MAX && x as usize >= block_len {
                return Some(at);
            }
        }
        None
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        /// Any kNN graph survives `write_graph` → `read_graph`, padding and
        /// all, at lengths that are no multiple of a vector lane; an edge out
        /// of range is `Corrupt` where the per-element reference says.
        #[test]
        fn knn_graph_roundtrips_and_bad_edges_match_the_reference(
            degree in 0usize..=33,
            block_len in 0usize..=70,
            raw in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 33 * 70),
            base in 0usize..8,
            bad in (proptest::arbitrary::any::<usize>(), proptest::arbitrary::any::<usize>()),
            bad_value in proptest::arbitrary::any::<u32>(),
        ) {
            // Ids in range, or the padding sentinel.
            let n = block_len as u32;
            let flat = raw[..degree * block_len].iter().map(|&r| r % (n + 1)).map(|e| {
                if e == n { u32::MAX } else { e }
            });
            let graph = KnnGraph::from_flat(degree, flat.collect());
            let mut b = BytesMut::new();
            b.put_slice(&[0xa5; 8][..base]);
            write_graph(&mut b, &BlockGraph(graph.clone()));
            let mut stream = b.to_vec();
            let mut src = Src::new(&stream, base, stream.len());
            let BlockGraph(back) = read_graph(&mut src, block_len).unwrap();
            proptest::prop_assert_eq!(&back, &graph);
            proptest::prop_assert!(!src.has_remaining());

            let len = graph.as_flat().len();
            if len > 0 {
                // One or two edges in [n, u32::MAX − 1].
                let x = n + bad_value % (u32::MAX - n);
                for slot in [bad.0 % len, bad.1 % len] {
                    let at = base + 17 + 4 * slot;
                    stream[at..at + 4].copy_from_slice(&x.to_le_bytes());
                }
                let expected = first_bad_edge(&stream[base..], base, block_len);
                let got = read_graph(&mut Src::new(&stream, base, stream.len()), block_len);
                proptest::prop_assert!(expected.is_some());
                let detail = format!("edge to missing node {x}");
                proptest::prop_assert_eq!(corrupt_at(got, "bad edge", &detail), expected);
            }
        }
    }

    /// Selection finds a child at `c − 2^h`, so a height off the postorder
    /// layout must stop the cold open, not underflow in the first query.
    #[test]
    fn cold_open_rejects_a_block_height_off_the_postorder_layout() {
        let stream = snapshot_of(&build_index(GraphBackend::default(), 32)).to_bytes();
        let dirs = Dirs::of(&stream);
        assert_eq!((dirs.lay.num_leaves, dirs.lay.blocks[2].height), (2, 1));
        let sealed = dirs.reseal(&stream, |body| put_u32(body, dirs.block_entry(2) + 16, 5));
        for err in [
            IndexSnapshot::from_bytes(sealed.clone()).unwrap_err(),
            cold_from(&sealed).unwrap_err(),
        ] {
            match err {
                MbiError::Corrupt { detail, .. } => {
                    assert_eq!(
                        detail,
                        "block 2: expected rows 0..32 height 1, found 0..32 height 5"
                    );
                }
                other => panic!("expected Corrupt, got {other}"),
            }
        }
    }

    /// Windowing binary-searches the timestamp column, so an unsorted chunk
    /// must stop the cold open rather than answer outside the window.
    #[test]
    fn cold_open_rejects_unsorted_timestamps() {
        let stream = snapshot_of(&build_index(GraphBackend::default(), 32)).to_bytes();
        let dirs = Dirs::of(&stream);
        let ts = dirs.lay.leaves[0].record_off;
        let sealed = dirs.reseal(&stream, |body| {
            for (row, t) in [(3, 9i64), (9, 3)] {
                body[ts + row * 8..ts + row * 8 + 8].copy_from_slice(&t.to_le_bytes());
            }
            dirs.recrc_piece(body, 0, 0);
        });
        for err in [
            IndexSnapshot::from_bytes(sealed.clone()).unwrap_err(),
            cold_from(&sealed).unwrap_err(),
        ] {
            match err {
                MbiError::Corrupt { offset, detail } if detail == "timestamps not sorted" => {
                    assert_eq!(offset, ts + 4 * 8, "offset names the first row out of order");
                }
                other => panic!("expected unsorted-timestamp Corrupt, got {other}"),
            }
        }
    }

    /// One verdict per hostile stream. Each case edits one field of the leaf
    /// directory, the block directory or a timestamp chunk of a clean
    /// snapshot and re-seals every CRC over it, so the structural checks
    /// behind them decide. The eager loader and the cold tier (budgets 0 and
    /// unlimited) must both refuse the stream, or both open it and answer
    /// every window alike; neither may panic.
    #[test]
    fn v8_verdict_table() {
        let clean = snapshot_of(&build_index(GraphBackend::default(), 64)).to_bytes();
        let dirs = Dirs::of(&clean);
        let lay = &dirs.lay;
        // A block's own span selects it, so these windows load every piece.
        let windows: Vec<TimeWindow> = (lay.blocks.iter())
            .map(|m| TimeWindow::new(m.start_ts, m.end_ts))
            .chain([TimeWindow::all()])
            .collect();
        let q = [20.0f32, 0.5, -20.0];
        type Answers = Vec<Vec<crate::TknnResult>>;
        let eager = |s: &Bytes| -> Result<Answers, MbiError> {
            let snap = IndexSnapshot::from_bytes(s.clone())?;
            let params = snap.config().search;
            let answer =
                |w| [snap.query_with_params(&q, 5, w, &params).results, snap.exact_query(&q, 5, w)];
            Ok(windows.iter().flat_map(|&w| answer(w)).collect())
        };
        let cold = |s: &Bytes, budget| -> Result<Answers, MbiError> {
            let cold =
                ColdIndex::from_map_with_budget(Arc::new(FileMap::from_bytes(s.to_vec())), budget)?;
            let mut out = Vec::new();
            for &w in &windows {
                out.extend([cold.query(&q, 5, w)?, cold.exact_query(&q, 5, w)?]);
            }
            Ok(out)
        };

        // Every directory field as (name, offset, width).
        let mut fields = vec![
            ("num_leaves", dirs.d0, 8),
            ("seg_rows", dirs.d0 + 8, 8),
            ("has_norms", dirs.d0 + 16, 1),
            ("has_sq8", dirs.d0 + 17, 1),
            ("num_blocks", dirs.b0, 8),
        ];
        let leaf_fields = [
            ("record_off", 8),
            ("graph_off", 8),
            ("graph_len", 8),
            ("crc_ts", 4),
            ("crc_rows", 4),
            ("crc_inv", 4),
            ("crc_sq8", 4),
            ("crc_graph", 4),
        ];
        let block_fields = [
            ("rows.start", 8),
            ("rows.end", 8),
            ("height", 4),
            ("start_ts", 8),
            ("end_ts", 8),
            ("graph_off", 8),
            ("graph_len", 8),
            ("graph_crc", 4),
        ];
        let entries = (0..lay.num_leaves).map(|i| (dirs.leaf_entry(i), leaf_fields));
        for (mut at, shape) in
            entries.chain((0..lay.blocks.len()).map(|i| (dirs.block_entry(i), block_fields)))
        {
            for (name, width) in shape {
                fields.push((name, at, width));
                at += width;
            }
        }
        let mut cases = vec![("clean".to_string(), clean.clone())];
        for (name, at, width) in fields {
            let mut raw = [0u8; 8];
            raw[..width].copy_from_slice(&clean[at..at + width]);
            let (v, max) = (u64::from_le_bytes(raw), u64::MAX >> (64 - 8 * width));
            let mut xs = vec![v ^ 1, v.wrapping_add(1) & max, v.wrapping_sub(1) & max, 0, max];
            xs.sort_unstable();
            xs.dedup();
            for x in xs.into_iter().filter(|&x| x != v) {
                let sealed = dirs.reseal(&clean, |body| {
                    body[at..at + width].copy_from_slice(&x.to_le_bytes()[..width]);
                });
                cases.push((format!("{name} at byte {at} set to {x}"), sealed));
            }
        }
        // Timestamp edits as (leaf, row, timestamp); row r of leaf l holds
        // 16·l + r. Each chunk is re-sealed under its own CRC.
        for edits in [
            vec![(0, 3, 9), (0, 9, 3)],
            vec![(1, 0, i64::MIN)],
            vec![(3, 15, i64::MAX)],
            vec![(0, 0, -1)],
            vec![(3, 15, 64)],
            vec![(2, 5, 38)],
        ] {
            let sealed = dirs.reseal(&clean, |body| {
                for &(leaf, row, t) in &edits {
                    let at = lay.leaves[leaf].record_off + row * 8;
                    body[at..at + 8].copy_from_slice(&i64::to_le_bytes(t));
                    dirs.recrc_piece(body, leaf, 0);
                }
            });
            cases.push((format!("timestamps {edits:?}"), sealed));
        }

        let mut opened = Vec::new();
        for (what, stream) in &cases {
            match [eager(stream), cold(stream, 0), cold(stream, u64::MAX)] {
                [Ok(a), Ok(b), Ok(c)] => {
                    assert!(a == b && a == c, "{what}: eager and cold answers differ");
                    opened.push(what.as_str());
                }
                [Err(_), Err(_), Err(_)] => {}
                verdicts => panic!("{what}: verdicts differ: {verdicts:?}"),
            }
        }
        // Only the clean stream, the CRCs of its absent norm and SQ8 columns
        // (0, so two edits each), and a timestamp edit that keeps every
        // bound open.
        let harmless = ["clean", "crc_inv", "crc_sq8", "timestamps [(2, 5, 38)]"];
        assert!(opened.iter().all(|w| harmless.iter().any(|h| w.starts_with(h))), "{opened:?}");
        assert_eq!(opened.len(), 2 + lay.num_leaves * 2 * 2, "{opened:?}");
    }

    /// One verdict per row check: a flipped byte of a row and a flipped
    /// byte of its stored CRC, at the first, a middle and the last row of
    /// leaves 0 and 3, every section and directory CRC re-sealed so only the
    /// row check can object. The eager loader refuses the stream; the cold
    /// tier (budgets 0 and unlimited) opens it, answers every exact query
    /// that skips the row as the clean stream does, and fails the first
    /// query that reads it, approximate or exact.
    #[test]
    fn row_crc_verdict_table() {
        let clean = snapshot_of(&build_index(GraphBackend::default(), 64)).to_bytes();
        let dirs = Dirs::of(&clean);
        let lay = &dirs.lay;
        let (s_l, row_len) = (lay.seg_rows, lay.config.dim * 4);
        let q = [20.0f32, 0.5, -20.0];
        let leaf_rows = |r: Option<MbiError>| {
            matches!(r, Some(MbiError::ChecksumMismatch { section: "leaf rows", .. }))
        };
        for leaf in [0, 3] {
            let rows_off = lay.leaves[leaf].record_off + lay.ts_len();
            for row in [0, s_l / 2, s_l - 1] {
                let crc_at = rows_off + lay.rows_len() + 4 * row;
                for (what, at) in [("row", rows_off + row * row_len + 5), ("row crc", crc_at + 2)] {
                    let what = format!("leaf {leaf}, {what} {row}");
                    let sealed = dirs.reseal(&clean, |body| {
                        body[at] ^= 0x10;
                        dirs.recrc_piece(body, leaf, 1);
                    });
                    assert!(
                        leaf_rows(IndexSnapshot::from_bytes(sealed.clone()).err()),
                        "eager, {what}"
                    );
                    let t = (leaf * s_l + row) as i64;
                    for budget in [0, u64::MAX] {
                        let open = |s: &[u8]| {
                            let map = Arc::new(FileMap::from_bytes(s.to_vec()));
                            ColdIndex::from_map_with_budget(map, budget).unwrap()
                        };
                        let (cold, reference) = (open(&sealed), open(&clean));
                        for w in [TimeWindow::new(i64::MIN, t), TimeWindow::new(t + 1, i64::MAX)] {
                            let want = reference.exact_query(&q, 5, w).unwrap();
                            assert_eq!(cold.exact_query(&q, 5, w).unwrap(), want, "{what}, {w:?}");
                        }
                        let w = TimeWindow::new(t, t + 1);
                        assert!(leaf_rows(cold.query(&q, 5, w).err()), "{what}, budget {budget}");
                        let exact = cold.exact_query(&q, 5, w).err();
                        assert!(leaf_rows(exact), "{what}, budget {budget}");
                    }
                }
            }
        }
    }

    #[test]
    fn error_injecting_writer_surfaces_io_error() {
        let idx = build_index(GraphBackend::default(), 40);
        let full_len = idx.to_bytes().len();
        let mut w = ErrorInjectingWriter::new(Vec::new(), full_len / 2);
        let err = idx.save_to(&mut w).unwrap_err();
        assert!(matches!(err, MbiError::Io(_)), "{err}");
        // Whatever made it through is a truncated prefix: loading it fails
        // cleanly too.
        let prefix = w.into_inner();
        assert!(prefix.len() <= full_len / 2);
        assert!(MbiIndex::from_bytes(Bytes::from(prefix)).is_err());
    }

    #[test]
    fn error_injecting_reader_surfaces_io_error() {
        let idx = build_index(GraphBackend::default(), 40);
        let bytes = idx.to_bytes();
        let mut r = ErrorInjectingReader::new(&bytes[..], bytes.len() / 2);
        let err = MbiIndex::load_from(&mut r).unwrap_err();
        assert!(matches!(err, MbiError::Io(_)), "{err}");
    }

    #[test]
    fn snapshot_roundtrips_and_reencodes_bit_identically() {
        for idx in [
            build_index(GraphBackend::default(), 64),
            build_angular_index(64),
            build_sq8_index(64, true),
        ] {
            let snap = snapshot_of(&idx);
            assert_eq!(snap.store().has_sq8(), idx.config().sq8_scan, "sq8_scan quantizes");
            let bytes = snap.to_bytes();
            assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), VERSION);
            assert_eq!(bytes[8], KIND_SNAPSHOT);
            let loaded = IndexSnapshot::from_bytes(bytes.clone()).unwrap();
            assert_eq!(loaded.validate(), Ok(()));
            assert_eq!(loaded.config().sq8_scan, idx.config().sq8_scan);
            for (a, b) in snap.store().segments().iter().zip(loaded.store().segments()) {
                assert_eq!(a.inv_norms(), b.inv_norms(), "norm column survives when present");
                assert_eq!(a.sq8(), b.sq8(), "codes and parameters survive when present");
            }
            assert_same_snapshot_answers(&snap, &loaded);
            assert_eq!(&loaded.to_bytes()[..], &bytes[..], "decode → encode is a fixed point");
        }
    }

    #[test]
    fn v8_layout_is_page_aligned_with_colocated_graphs() {
        let snap = snapshot_of(&build_sq8_index(64, true));
        let bytes = snap.to_bytes();
        let layout = parse_v8_layout(&bytes).unwrap();
        assert_eq!(layout.num_leaves, 4);
        assert!(layout.has_sq8);
        assert_eq!(layout.blocks.len(), snap.blocks().len());
        let mut leaf_ix = 0;
        for (meta, block) in layout.blocks.iter().zip(snap.blocks()) {
            assert_eq!(meta.rows, block.rows);
            assert_eq!(meta.height, block.height);
            if meta.height == 0 {
                let leaf = &layout.leaves[leaf_ix];
                assert_eq!(leaf.record_off % PAGE, 0, "records start on page boundaries");
                assert_eq!(
                    meta.graph_off,
                    leaf.record_off + layout.payload_len(),
                    "leaf graphs are co-located with their records"
                );
                // Per-piece CRCs authenticate each column independently; the
                // rows are authenticated one by one by the row CRC column.
                let ts = leaf.record_off..leaf.record_off + layout.ts_len();
                assert_eq!(crc32(&bytes[ts.clone()]), leaf.crc_ts);
                let crcs =
                    ts.end + layout.rows_len()..ts.end + layout.rows_len() + layout.row_crc_len();
                assert_eq!(crc32(&bytes[crcs.clone()]), leaf.crc_rows);
                let row_bytes = layout.config.dim * 4;
                for (r, crc) in bytes[crcs].chunks_exact(4).enumerate() {
                    let row = ts.end + r * row_bytes;
                    assert_eq!(crc32(&bytes[row..row + row_bytes]).to_le_bytes(), crc, "row {r}");
                }
                assert_eq!(
                    crc32(&bytes[meta.graph_off..meta.graph_off + meta.graph_len]),
                    leaf.crc_graph
                );
                leaf_ix += 1;
            }
        }
        assert_eq!(leaf_ix, layout.num_leaves);
    }

    #[test]
    fn v8_tier_knobs_roundtrip() {
        let config = MbiConfig::new(3, Metric::Euclidean)
            .with_leaf_size(16)
            .with_ram_budget_bytes(123)
            .with_cache_shards(3);
        let mut idx = MbiIndex::new(config);
        for i in 0..32 {
            let x = i as f32;
            idx.insert(&[x, 0.0, -x], i as i64).unwrap();
        }
        let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
        assert_eq!(loaded.config().ram_budget_bytes, 123);
        assert_eq!(loaded.config().cache_shards, 3);
        let loaded = IndexSnapshot::from_bytes(snapshot_of(&idx).to_bytes()).unwrap();
        assert_eq!(loaded.config().ram_budget_bytes, 123);
        assert_eq!(loaded.config().cache_shards, 3);

        // The reserved slot after `parallel_build` (it precedes `sq8_scan`,
        // `sq8_overfetch` and the two tier knobs) loads with any value —
        // older streams carry a fan-out width there — and changes no answer.
        let with_slot = |stream: &[u8], v: u64| {
            let at = parse_footer(stream).unwrap()[1].1 - (8 + 4) - 4 - 1 - 8;
            assert_eq!(stream[at..at + 8], [0; 8], "the slot is written as 0");
            refooter(stream, |body| body[at..at + 8].copy_from_slice(&v.to_le_bytes()))
        };
        let idx = build_index(GraphBackend::default(), 64);
        let (index_stream, snapshot_stream) = (idx.to_bytes(), snapshot_of(&idx).to_bytes());
        let snapshot = IndexSnapshot::from_bytes(snapshot_stream.clone()).unwrap();
        let cold = cold_from(&snapshot_stream).unwrap();
        let params = idx.config().search;
        for v in [1, u64::MAX] {
            assert_same_answers(&idx, &MbiIndex::from_bytes(with_slot(&index_stream, v)).unwrap());
            let stream = with_slot(&snapshot_stream, v);
            assert_same_snapshot_answers(
                &snapshot,
                &IndexSnapshot::from_bytes(stream.clone()).unwrap(),
            );
            let other = cold_from(&stream).unwrap();
            for (q, w) in [(5.0f32, (0i64, 60i64)), (30.0, (10, 50)), (55.0, (40, 64))] {
                let (q, w) = ([q, 0.0, -q], TimeWindow::new(w.0, w.1));
                let want = cold.query_with_params(&q, 5, w, &params).unwrap();
                let got = other.query_with_params(&q, 5, w, &params).unwrap();
                assert_eq!((got.results, got.stats), (want.results, want.stats), "slot {v}");
            }
        }

        // A backend tag other than NNDescent's 0 is `Corrupt` in every
        // reader: 1 (HNSW's, a backend since deleted) and an unknown 0xFF.
        // The tag follows `dim`, the metric tag, `leaf_size` and `tau`.
        for tag in [1u8, 0xFF] {
            let with_tag = |stream: &[u8]| {
                let at = parse_footer(stream).unwrap()[1].0 + 8 + 1 + 8 + 8;
                assert_eq!(stream[at], 0, "NNDescent's backend tag");
                refooter(stream, |body| body[at] = tag)
            };
            let detail = format!("unknown backend tag {tag}");
            let verdicts = [
                corrupt_at(MbiIndex::from_bytes(with_tag(&index_stream)), "index", &detail),
                corrupt_at(IndexSnapshot::from_bytes(with_tag(&snapshot_stream)), "eager", &detail),
                corrupt_at(cold_from(&with_tag(&snapshot_stream)), "cold", &detail),
            ];
            assert!(verdicts.iter().all(Option::is_some), "backend tag {tag}: {verdicts:?}");
        }
    }

    #[test]
    fn quantizing_config_rebuilds_sq8_from_columnless_stream() {
        // A stream written exact (`has_sq8 = 0`) whose config says
        // `sq8_scan = true` must still load uniformly quantized — eagerly and
        // through the cold tier — and answer like a natively quantized one.
        // Crafted from the same rows written with the knob off: the config
        // record's flag (it sits before `sq8_overfetch` and the two tier
        // knobs) is flipped on and the stream re-sealed.
        let exact = snapshot_of(&build_sq8_index(64, false));
        assert!(!exact.store().has_sq8());
        let stream = exact.to_bytes();
        let flag_at = parse_footer(&stream).unwrap()[1].1 - (8 + 4) - 4 - 1;
        assert_eq!(stream[flag_at], 0);
        let sealed = refooter(&stream, |body| body[flag_at] = 1);
        assert!(!parse_v8_layout(&sealed).unwrap().has_sq8);

        let native = snapshot_of(&build_sq8_index(64, true));
        let loaded = IndexSnapshot::from_bytes(sealed.clone()).unwrap();
        assert!(loaded.config().sq8_scan);
        assert!(loaded.store().has_sq8(), "sq8_scan config quantizes columnless streams on load");
        for (a, b) in native.store().segments().iter().zip(loaded.store().segments()) {
            assert_eq!(a.sq8(), b.sq8(), "rebuilt codes match insert-time codes");
        }
        assert_same_snapshot_answers(&native, &loaded);

        let cold = cold_from(&sealed).unwrap();
        let params = native.config().search;
        for (q, w) in [(5.0f32, (0i64, 60i64)), (30.0, (10, 50)), (55.0, (40, 64))] {
            let w = TimeWindow::new(w.0, w.1);
            let hot = native.query_with_params(&[q, 0.0, -q], 5, w, &params);
            let via_cold = cold.query_with_params(&[q, 0.0, -q], 5, w, &params).unwrap();
            assert_eq!(hot.results, via_cold.results);
        }
    }

    #[test]
    fn snapshot_reads_index_streams() {
        // An index stream loads as a snapshot when sealed …
        let idx = build_index(GraphBackend::default(), 64);
        let snap = IndexSnapshot::from_bytes(idx.to_bytes()).unwrap();
        assert_eq!(snap.num_leaves(), idx.num_leaves());
        assert_eq!(snap.validate(), Ok(()));
        assert_same_snapshot_answers(&snap, &snapshot_of(&idx));
        // … and surfaces the tail explicitly when not.
        let with_tail = build_index(GraphBackend::default(), 70);
        match IndexSnapshot::from_bytes(with_tail.to_bytes()) {
            Err(MbiError::UnsealedTail { tail_rows: 6 }) => {}
            other => panic!("expected UnsealedTail {{ 6 }}, got {other:?}"),
        }
    }

    #[test]
    fn index_loader_rejects_snapshot_streams() {
        let snap = snapshot_of(&build_index(GraphBackend::default(), 32));
        let err = MbiIndex::from_bytes(snap.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("snapshot"), "{err}");
    }
}
