//! Binary persistence for a built index.
//!
//! Time-accumulating deployments restart; rebuilding every block graph costs
//! `O(|D|^1.14 log |D|)` (§4.4.2), so a saved index pays for itself quickly.
//! There is one on-disk format, version 12, and one stream kind: a single
//! little-endian stream in a checksummed envelope, written alike by
//! [`MbiIndex`] and [`IndexSnapshot`] and read by one decoder, the cold
//! open, whether over a mapped file ([`crate::tier::ColdIndex`]) or over an
//! owned copy of the stream ([`IndexSnapshot::from_bytes`], which
//! [`MbiIndex::from_bytes`] flattens). Everything is length-prefixed and
//! validated on load; malformed input yields [`MbiError::Corrupt`]
//! (carrying the byte offset where parsing failed) or
//! [`MbiError::ChecksumMismatch`], never a panic. A header version other
//! than 12 is `Corrupt` at byte 4 — there is no converter and no second
//! reader.
//!
//! # Envelope
//!
//! ```text
//! stream := "MBI1" version:u32 config data blocks footer
//! config := dim:u64 metric:u8 leaf_size:u64 tau:f64 degree:u64 rho:f64
//!           delta:f64 max_iters:u64 seed:u64 max_candidates:u64 epsilon:f32
//!           entry:u8 [entry_id:u32] parallel_build:u8
//! footer := count:u8 (tag:u8 len:u64 crc:u32)*count footer_crc:u32
//!           footer_len:u32 "MBIF"
//! ```
//!
//! The four sections — `header` (magic + version), `config`, `data`,
//! `blocks` — tile the stream exactly; each carries the CRC32 of its bytes,
//! and the footer carries its own CRC. Any single-byte flip anywhere in a
//! stream therefore fails a checksum (or the structural parse) before an
//! index is built from it, so disk corruption is *detected*, not parsed.
//! All `save_file` paths write atomically: temp file in the same directory,
//! fsync, rename, directory fsync — a crash mid-save leaves the previous
//! file intact.
//!
//! # Block graphs
//!
//! A block of `n` rows stores its kNN graph as:
//!
//! ```text
//! graph := tag:u32 degree:u64 len:u64 edges:u32[len] chunk_crc:u32[⌈n/16⌉]
//! ```
//!
//! `tag` is 0 (NNDescent's kNN graph, the only kind), `len = degree · n`,
//! and vertex `v`'s list is `edges[v·degree ..][..degree]`: ids below `n`,
//! padded at the tail with `u32::MAX`. `chunk_crc[c]` is the CRC32 of the
//! lists of vertices `16c .. min(16c + 16, n)` ([`ADJACENCY_CHUNK`]), so no
//! list spans two chunks. The 20-byte header keeps `edges` 4-byte aligned
//! wherever the graph starts 4-byte aligned, which every graph does, so a
//! reader can view the edges in place in a mapped file.
//!
//! # Page-aligned records
//!
//! The `data` section is laid out so [`crate::tier::ColdIndex`] can mmap the
//! file and view each record's columns in place, copying nothing:
//!
//! ```text
//! data   := num_leaves:u64 seg_rows:u64 has_norms:u8 tail_rows:u64
//!           leaf_dir[records] dir_crc:u32 pad(page) record[records]
//! records := num_leaves + (1 if tail_rows > 0)
//! leaf_dir := record_off:u64 graph_off:u64 graph_len:u64
//!             crc_ts:u32 crc_rows:u32 crc_inv:u32 crc_graph:u32
//! record := ts:i64[r] rows:f32[r·d] row_crc:u32[r] [inv:f32[r]] graph
//!           pad(page)
//! blocks := num_blocks:u64 block_meta[num_blocks] meta_crc:u32 graphs
//! block_meta := rows:u64×2 height:u32 start_ts:i64 end_ts:i64
//!               graph_off:u64 graph_len:u64 graph_crc:u32
//! ```
//!
//! A leaf record holds `r = seg_rows` rows and co-locates the leaf block's
//! graph with its vectors (one contiguous read brings in everything a block
//! search needs). The optional **tail record** comes last: the
//! `0 < tail_rows < seg_rows` rows past the leaves under blocks — an
//! [`MbiIndex`]'s partial leaf, which queries scan exactly. It has a leaf
//! record's columns and its own directory entry, and no graph (`graph_len`
//! and `crc_graph` are 0). An engine's checkpoint never holds a partial
//! leaf, so it writes none, and its sealed but unbuilt leaves are not
//! written either: its WAL keeps their rows. Every record starts on a
//! 4096-byte page boundary; offsets are absolute, so the directory alone
//! resolves any record. Internal (height ≥ 1) block graphs are concatenated
//! after the block metadata; leaf block entries point back into the leaf
//! records.
//!
//! `row_crc[r]` is the CRC32 of row `r`'s `d·4` bytes, and the directory's
//! `crc_rows` is the CRC32 of the `row_crc` column, not of the rows. Graphs
//! are covered the same way: a directory's `crc_graph` / `graph_crc` is the
//! CRC32 of the graph's header followed by its `chunk_crc` column, not of
//! its edges. So a reader can check what a query reads, a row or a chunk of
//! vertex lists at a time, instead of a whole column before any of it is
//! used: the cold tier checks the small CRC columns when it opens, each
//! row the first time a query reads it, and each adjacency chunk (its CRC,
//! then every id) the first time a search expands a vertex in it — once per
//! open. One checker does all three: `mbi_ann`'s chunk check, behind every
//! row and adjacency accessor.
//!
//! The one reader has an open step (`open_snapshot`: directories,
//! CRC-checked timestamp chunks, and the postorder and timestamp structure
//! queries walk) and a decode of every piece that checks the piece's own
//! CRCs and scalars, both run by `decode_snapshot`. It copies nothing but
//! the timestamps: rows, norms and edges are viewed in place.
//! The cold tier runs it over a mapped file, and rows and adjacency chunks
//! are checked as queries first read them. The eager loader copies the
//! stream once into an owned, 8-byte-aligned buffer, checks every section
//! CRC (the only check that covers page padding), runs the same decoder
//! over the buffer, and then runs every first-use check at once, so a bad
//! row, chunk or id fails the load. A loaded snapshot's columns view that
//! buffer; [`MbiIndex::from_bytes`] copies rows and edges out, freeing it.
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
use crate::tier::check_in_full;
use crate::times::TimeChunks;
use crate::Timestamp;
use mbi_ann::mapped::Plain;
use mbi_ann::{
    Col, EntryPolicy, FileMap, KnnGraph, NnDescentParams, SearchParams, Segment, SegmentStore,
    ADJACENCY_CHUNK,
};
use mbi_math::{crc32, Metric};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"MBI1";
/// The one format version this build writes and reads.
const VERSION: u32 = 12;

const FOOTER_MAGIC: &[u8; 4] = b"MBIF";
/// Section names, in stream order; the footer stores one CRC per section.
const SECTIONS: [&str; 4] = ["header", "config", "data", "blocks"];
/// magic + version.
const HEADER_LEN: usize = 4 + 4;
/// Records start on this boundary, so a mapped read of one record faults
/// only its own pages.
pub(crate) const PAGE: usize = mbi_ann::PAGE_SIZE;
/// `num_leaves` + `seg_rows` + `has_norms` + `tail_rows`, before the leaf
/// directory.
const DATA_HEADER_LEN: usize = 8 + 8 + 1 + 8;
/// Leaf-directory entry: `record_off` + `graph_off` + `graph_len` + four
/// per-piece CRCs (ts, row CRCs, inv, graph).
const LEAF_DIR_ENTRY_LEN: usize = 8 * 3 + 4 * 4;
/// Block-directory entry: row range + height + timestamp span + graph
/// location (`graph_off`, `graph_len`, `graph_crc`).
const BLOCK_DIR_ENTRY_LEN: usize = 8 * 2 + 4 + 8 * 2 + 8 * 2 + 4;
/// Graph header: `tag:u32 degree:u64 len:u64`.
pub(crate) const GRAPH_HEADER_LEN: usize = 4 + 8 + 8;

/// A bounded little-endian cursor over `b[pos..end]` of the full stream.
/// `pos` is absolute, so every parse failure reports the offset where it
/// happened; the cursor only borrows, so the directories parse off a memory
/// map without copying (or faulting) anything beyond themselves. Callers
/// reserve with [`Src::need`] before the `get_*` calls.
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
fn write_footer(b: &mut Vec<u8>, bounds: &[usize]) {
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
/// for eager loads, while the cold (mmap) reader checks each piece's CRC
/// columns and leaves rows and edges to first use, so opening a file never
/// reads them. Returns each section's absolute byte range and stored CRC,
/// in [`SECTIONS`] order.
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

/// Checks the envelope header: the magic, then the one readable version.
/// Any other version is `Corrupt` at byte 4.
fn read_header(b: &[u8]) -> Result<(), MbiError> {
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
    Ok(())
}

/// Verifies a stream's footer and every section CRC.
fn verify_sections(b: &[u8]) -> Result<(), MbiError> {
    let sections = parse_footer(b)?;
    for (&name, &(start, end, expected)) in SECTIONS.iter().zip(&sections) {
        check_crc(&b[start..end], expected, name)?;
    }
    Ok(())
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
    /// Serialises the index to a file at `path`, atomically: the bytes land
    /// in a temp file that is fsynced and renamed over the target, so a
    /// crash mid-save never leaves a half-written index.
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), MbiError> {
        atomic_write(path.as_ref(), &self.to_bytes())
    }

    /// Deserialises an index from a file at `path`.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, MbiError> {
        IndexSnapshot::load_file(path).map(|snap| snap.to_index())
    }

    /// Serialises the index into one contiguous buffer: its whole leaves as
    /// leaf records, its partial leaf as the tail record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (s_l, dim) = (self.config.leaf_size, self.config.dim);
        let inv = self.store.inv_norms();
        let rows = self.store.as_flat().chunks(s_l * dim);
        let chunks = self.timestamps.chunks(s_l).zip(rows).enumerate().map(|(i, (ts, rows))| {
            Chunk { ts, rows, inv: inv.map(|inv| &inv[i * s_l..][..ts.len()]) }
        });
        encode(&self.config, chunks.collect(), self.num_leaves, self.blocks.iter().collect())
    }

    /// Deserialises an index from one contiguous buffer: the snapshot the
    /// stream decodes to ([`IndexSnapshot::from_bytes`]), flattened.
    pub fn from_bytes(b: impl AsRef<[u8]>) -> Result<Self, MbiError> {
        IndexSnapshot::from_bytes(b).map(|snap| snap.to_index())
    }
}

impl IndexSnapshot {
    /// Serialises the snapshot to a file at `path`, atomically (temp file +
    /// fsync + rename, like [`MbiIndex::save_file`]).
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), MbiError> {
        atomic_write(path.as_ref(), &self.to_bytes())
    }

    /// Deserialises a snapshot from a file at `path`, read once into the
    /// buffer its columns view.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, MbiError> {
        Self::load_buffer(FileMap::read(path)?)
    }

    /// Serialises the snapshot into one contiguous buffer (checksummed
    /// sections + footer over page-aligned, directory-indexed records that a
    /// [`crate::tier::ColdIndex`] can serve straight off disk).
    ///
    /// The [`num_leaves`](IndexSnapshot::num_leaves) leaves under blocks are
    /// written, and a short last segment (a loaded index's partial leaf) as
    /// the tail record. Sealed but unbuilt leaves are left out: a checkpoint
    /// prunes the WAL only up to the leaves under blocks, so recovery
    /// replays their rows and rebuilds their chains.
    pub fn to_bytes(&self) -> Vec<u8> {
        let chunks = self.store.segments().iter().zip(self.times.chunks());
        let chunks =
            chunks.map(|(seg, ts)| Chunk { ts, rows: seg.as_flat(), inv: seg.inv_norms() });
        let blocks = self.blocks.iter().map(|b| &**b).collect();
        encode(&self.config, chunks.collect(), self.num_leaves, blocks)
    }

    /// Deserialises a snapshot from one contiguous buffer, copied once into
    /// the buffer its columns view. A stream with a tail record loads with
    /// its tail as a short last segment, scanned exactly like the rows of an
    /// [`MbiIndex`]'s partial leaf.
    pub fn from_bytes(b: impl AsRef<[u8]>) -> Result<Self, MbiError> {
        Self::load_buffer(FileMap::from_slice(b.as_ref()))
    }

    /// The eager load: the cold open ([`decode_snapshot`]) of an owned
    /// stream buffer, checked in full. Every section CRC is checked first
    /// (the only check on page padding), and every row and adjacency chunk
    /// after the decode, so a bad row, chunk or id fails the load. The
    /// snapshot's columns view the buffer, which `memory_bytes` counts.
    fn load_buffer(map: FileMap) -> Result<Self, MbiError> {
        read_header(map.bytes())?;
        verify_sections(map.bytes())?;
        let snap = decode_snapshot(&Arc::new(map), &Arc::default())?;
        check_in_full(&snap)?;
        Ok(snap)
    }
}

/// At most `S_L` consecutive rows with their timestamps and norms: one
/// record, as the encoder reads it.
struct Chunk<'a> {
    ts: &'a [Timestamp],
    rows: &'a [f32],
    inv: Option<&'a [f32]>,
}

/// Encodes the one stream layout. `chunks` are an index's rows cut every
/// `S_L` rows and `blocks` its postorder blocks over the first `num_leaves`
/// chunks. Written: a directory with per-piece CRCs, one page-aligned,
/// self-contained record per leaf (timestamps, rows, row CRCs, the optional
/// norm column, the leaf block's graph), the tail record when the chunk
/// after the leaves is short, then the block metadata with a graph
/// directory and the internal-block graphs. Whole chunks past the leaves
/// are left out.
fn encode(
    config: &MbiConfig,
    mut chunks: Vec<Chunk<'_>>,
    num_leaves: usize,
    blocks: Vec<&Block>,
) -> Vec<u8> {
    let (dim, s_l) = (config.dim, config.leaf_size);
    let tail_rows = chunks.get(num_leaves).map_or(0, |c| c.ts.len());
    let tail_rows = if tail_rows < s_l { tail_rows } else { 0 };
    chunks.truncate(num_leaves + usize::from(tail_rows > 0));
    let has_norms = chunks.first().is_some_and(|c| c.inv.is_some());

    // Serialise every block graph up front: the directories need graph
    // lengths and CRCs before the first record byte is written.
    let graphs: Vec<Vec<u8>> = (blocks.iter())
        .map(|blk| {
            let mut g = Vec::new();
            write_graph(&mut g, &blk.graph, blk.len());
            g
        })
        .collect();

    struct Blob<'a> {
        payload: Vec<u8>,
        graph: &'a [u8],
        crcs: [u32; 4],
    }
    let mut blobs = Vec::with_capacity(chunks.len());
    for (i, chunk) in chunks.iter().enumerate() {
        let c = RecordCols::new(0, chunk.ts.len(), dim, has_norms);
        let mut p = Vec::with_capacity(c.end);
        for &t in chunk.ts {
            p.extend_from_slice(&t.to_le_bytes());
        }
        for &v in chunk.rows {
            p.extend_from_slice(&v.to_le_bytes());
        }
        let row_crcs: Vec<u32> = p[c.rows..].chunks_exact(dim * 4).map(crc32).collect();
        for crc in row_crcs {
            p.extend_from_slice(&crc.to_le_bytes());
        }
        for &x in chunk.inv.filter(|_| has_norms).unwrap_or_default() {
            p.extend_from_slice(&x.to_le_bytes());
        }
        debug_assert_eq!(p.len(), c.end);
        // A leaf's graph is co-located with its record; the tail has none.
        let (graph, crc_graph) = if i < num_leaves {
            let graph = graphs[layout::leaf_block(i)].as_slice();
            (graph, graph_crc(graph, s_l))
        } else {
            (&[][..], 0)
        };
        let crc_inv = if has_norms { crc32(&p[c.inv..c.end]) } else { 0 };
        let crcs = [crc32(&p[c.ts..c.rows]), crc32(&p[c.crcs..c.inv]), crc_inv, crc_graph];
        blobs.push(Blob { payload: p, graph, crcs });
    }

    let payload_total: usize = blobs.iter().map(|b| b.payload.len()).sum();
    let graph_total: usize = graphs.iter().map(Vec::len).sum();
    let mut b = Vec::with_capacity(
        (256 + blobs.len() * LEAF_DIR_ENTRY_LEN + payload_total + graph_total)
            .next_multiple_of(PAGE)
            + blobs.len() * PAGE,
    );
    b.put_slice(MAGIC);
    b.put_u32_le(VERSION);
    let mut bounds = vec![0, b.len()];
    write_config(&mut b, config);
    bounds.push(b.len());

    let data_start = b.len();
    b.put_u64_le(num_leaves as u64);
    b.put_u64_le(s_l as u64);
    b.put_u8(u8::from(has_norms));
    b.put_u64_le(tail_rows as u64);
    let dir_end = b.len() + blobs.len() * LEAF_DIR_ENTRY_LEN + 4;
    let mut graph_offs = Vec::with_capacity(blobs.len());
    let mut rec_off = dir_end.next_multiple_of(PAGE);
    for blob in &blobs {
        let graph_off = rec_off + blob.payload.len();
        b.put_u64_le(rec_off as u64);
        b.put_u64_le(graph_off as u64);
        b.put_u64_le(blob.graph.len() as u64);
        for crc in blob.crcs {
            b.put_u32_le(crc);
        }
        graph_offs.push(graph_off);
        rec_off = (graph_off + blob.graph.len()).next_multiple_of(PAGE);
    }
    let dir_crc = crc32(&b[data_start..]);
    b.put_u32_le(dir_crc);
    debug_assert_eq!(b.len(), dir_end);
    for blob in &blobs {
        pad_to_page(&mut b);
        b.put_slice(&blob.payload);
        b.put_slice(blob.graph);
    }
    pad_to_page(&mut b);
    bounds.push(b.len());

    let blocks_start = b.len();
    b.put_u64_le(blocks.len() as u64);
    let entries_end = b.len() + blocks.len() * BLOCK_DIR_ENTRY_LEN;
    let mut g_off = entries_end + 4; // + meta_crc
    let mut leaf_ix = 0usize;
    for (i, blk) in blocks.iter().enumerate() {
        let (graph_off, graph_crc) = if blk.height == 0 {
            leaf_ix += 1;
            (graph_offs[leaf_ix - 1], blobs[leaf_ix - 1].crcs[3])
        } else {
            g_off += graphs[i].len();
            (g_off - graphs[i].len(), graph_crc(&graphs[i], blk.len()))
        };
        b.put_u64_le(blk.rows.start as u64);
        b.put_u64_le(blk.rows.end as u64);
        b.put_u32_le(blk.height);
        b.put_i64_le(blk.start_ts);
        b.put_i64_le(blk.end_ts);
        b.put_u64_le(graph_off as u64);
        b.put_u64_le(graphs[i].len() as u64);
        b.put_u32_le(graph_crc);
    }
    let meta_crc = crc32(&b[blocks_start..]);
    b.put_u32_le(meta_crc);
    for (blk, graph) in blocks.iter().zip(&graphs) {
        if blk.height != 0 {
            b.put_slice(graph);
        }
    }
    bounds.push(b.len());
    write_footer(&mut b, &bounds);
    b
}

/// The little-endian appends the encoder writes a stream with.
trait Put {
    fn put_u8(&mut self, x: u8);
    fn put_u32_le(&mut self, x: u32);
    fn put_u64_le(&mut self, x: u64);
    fn put_i64_le(&mut self, x: i64);
    fn put_f32_le(&mut self, x: f32);
    fn put_f64_le(&mut self, x: f64);
    fn put_slice(&mut self, s: &[u8]);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, x: u8) {
        self.push(x);
    }
    fn put_u32_le(&mut self, x: u32) {
        self.extend_from_slice(&x.to_le_bytes());
    }
    fn put_u64_le(&mut self, x: u64) {
        self.extend_from_slice(&x.to_le_bytes());
    }
    fn put_i64_le(&mut self, x: i64) {
        self.extend_from_slice(&x.to_le_bytes());
    }
    fn put_f32_le(&mut self, x: f32) {
        self.extend_from_slice(&x.to_le_bytes());
    }
    fn put_f64_le(&mut self, x: f64) {
        self.extend_from_slice(&x.to_le_bytes());
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

/// Zero-fills `b` up to the next page boundary.
fn pad_to_page(b: &mut Vec<u8>) {
    b.resize(b.len().next_multiple_of(PAGE), 0);
}

/// Where one record lives in a stream: the page-aligned record offset, the
/// co-located graph (none for the tail record), and the per-piece CRCs from
/// the directory.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LeafEntry {
    /// Absolute, page-aligned offset of the record (timestamps first).
    pub(crate) record_off: usize,
    /// Absolute offset of the leaf block's serialized graph.
    pub(crate) graph_off: usize,
    /// Serialized graph length in bytes (0 for the tail record).
    pub(crate) graph_len: usize,
    /// CRC32 of the timestamp column.
    pub(crate) crc_ts: u32,
    /// CRC32 of the row CRC column (each row's own CRC32 is in the record).
    pub(crate) crc_rows: u32,
    /// CRC32 of the inverse-norm column; 0 when the stream has none.
    pub(crate) crc_inv: u32,
    /// CRC32 of the graph's header and chunk-CRC column (0 for the tail
    /// record).
    pub(crate) crc_graph: u32,
}

/// Absolute offsets of one record's columns: timestamps at `ts`, rows at
/// `rows`, row CRCs at `crcs`, norms at `inv` (empty without the column),
/// all ending at `end`, where a leaf's graph starts. Every column is a
/// whole number of 4-byte elements, so `end` keeps the graph 4-byte aligned.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecordCols {
    pub(crate) ts: usize,
    pub(crate) rows: usize,
    pub(crate) crcs: usize,
    pub(crate) inv: usize,
    pub(crate) end: usize,
}

impl RecordCols {
    /// The columns of a record of `rows` rows of `dim` floats at `off`.
    fn new(off: usize, rows: usize, dim: usize, has_norms: bool) -> Self {
        let crcs = off + rows * 8 + rows * dim * 4;
        let inv = crcs + rows * 4;
        RecordCols {
            ts: off,
            rows: off + rows * 8,
            crcs,
            inv,
            end: inv + usize::from(has_norms) * rows * 4,
        }
    }
}

/// One block's metadata from a stream's blocks section, graph unloaded:
/// enough to run block selection and to fetch + verify the graph on demand.
#[derive(Clone, Debug)]
pub(crate) struct BlockEntry {
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
    /// CRC32 of the graph's header and chunk-CRC column.
    pub(crate) graph_crc: u32,
}

/// The parsed geometry of a stream: config, flags, and where every record
/// and block graph lives — everything a reader (eager or cold/mmap) needs
/// to decode pieces independently. Parsing verifies the footer, the header
/// and config sections, and both directory CRCs, but never reads a record
/// payload.
pub(crate) struct SnapshotLayout {
    pub(crate) config: MbiConfig,
    pub(crate) num_leaves: usize,
    pub(crate) seg_rows: usize,
    pub(crate) has_norms: bool,
    /// Rows of the tail record; 0 when there is none.
    pub(crate) tail_rows: usize,
    /// One entry per record: the leaves', then the tail record's.
    pub(crate) leaves: Vec<LeafEntry>,
    pub(crate) blocks: Vec<BlockEntry>,
}

impl SnapshotLayout {
    /// Rows of record `i`: a leaf's `seg_rows`, or the tail's `tail_rows`.
    pub(crate) fn record_rows(&self, i: usize) -> usize {
        if i < self.num_leaves {
            self.seg_rows
        } else {
            self.tail_rows
        }
    }

    /// Where record `i`'s columns lie.
    pub(crate) fn record(&self, i: usize) -> RecordCols {
        let rows = self.record_rows(i);
        RecordCols::new(self.leaves[i].record_off, rows, self.config.dim, self.has_norms)
    }
}

/// Views the graph of a block of `n` rows serialised at `off` (`len`
/// bytes, at least its header and chunk-CRC column) in `map`: the header is
/// checked against the block, and each chunk of edges is checked against
/// its CRC and the block the first time it is read.
fn view_graph(
    map: &Arc<FileMap>,
    off: usize,
    len: usize,
    n: usize,
    checked_bytes: &Arc<AtomicU64>,
) -> Result<KnnGraph, MbiError> {
    let chunks = n.div_ceil(ADJACENCY_CHUNK);
    let crc_off = off + len - chunks * 4;
    let mut src = Src::new(map.bytes(), off, crc_off);
    let (degree, edges) = read_graph_header(&mut src, n)?;
    if edges.checked_mul(4) != Some(src.end - src.pos) {
        return Err(src.corrupt("block graph length does not match its header"));
    }
    checked_bytes.fetch_add((GRAPH_HEADER_LEN + chunks * 4) as u64, Relaxed);
    // Ids are checked in 32-bit lanes; a block of 2^32 rows or more admits
    // every id, and so does the clamped bound.
    let ids_below = u32::try_from(n).unwrap_or(u32::MAX);
    let crcs = col(map, crc_off, chunks)?;
    Ok(KnnGraph::from_flat(degree, col::<u32>(map, src.pos, edges)?).with_chunk_check(
        crcs,
        ids_below,
        Arc::clone(checked_bytes),
    ))
}

/// The column of `len` elements at absolute offset `off` of `map`, viewed
/// in place.
fn col<T: Plain>(map: &Arc<FileMap>, off: usize, len: usize) -> Result<Col<T>, MbiError> {
    Col::mapped(Arc::clone(map), off, len).map_err(|e| MbiError::corrupt(off, e))
}

/// Parses a stream's directories off a raw byte slice. See
/// [`SnapshotLayout`] for what is (and deliberately is not) verified here.
pub(crate) fn parse_layout(b: &[u8]) -> Result<SnapshotLayout, MbiError> {
    read_header(b)?;
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
    d.need(DATA_HEADER_LEN)?;
    let num_leaves = d.get_u64_le() as usize;
    let seg_rows = d.get_u64_le() as usize;
    let has_norms = d.get_u8() != 0;
    let tail_rows = d.get_u64_le() as usize;
    if seg_rows != config.leaf_size {
        return Err(MbiError::corrupt(
            d0 + 8,
            format!("segment rows {seg_rows} do not match leaf size {}", config.leaf_size),
        ));
    }
    if tail_rows >= seg_rows {
        return Err(MbiError::corrupt(
            d0 + 17,
            format!("a tail of {tail_rows} rows is not shorter than a leaf"),
        ));
    }
    let ovf = |at: usize| MbiError::corrupt(at, "size overflow");
    let records = num_leaves.checked_add(usize::from(tail_rows > 0)).ok_or_else(|| ovf(d0))?;
    // An empty store has no segment to carry the column, so the writer
    // stores `has_norms = 0` for it whatever the metric.
    if config.metric == Metric::Angular && !has_norms && records > 0 {
        return Err(MbiError::corrupt(d0 + 16, "angular snapshot lacks norm column"));
    }
    let dir_bytes = records.checked_mul(LEAF_DIR_ENTRY_LEN).ok_or_else(|| ovf(d.pos))?;
    d.need(dir_bytes + 4)?;
    let dir_end = d.pos + dir_bytes;
    check_crc(&b[d0..dir_end], rd_u32(b, dir_end), "leaf directory")?;
    let mut leaves = Vec::with_capacity(records);
    for _ in 0..records {
        leaves.push(LeafEntry {
            record_off: d.get_u64_le() as usize,
            graph_off: d.get_u64_le() as usize,
            graph_len: d.get_u64_le() as usize,
            crc_ts: d.get_u32_le(),
            crc_rows: d.get_u32_le(),
            crc_inv: d.get_u32_le(),
            crc_graph: d.get_u32_le(),
        });
    }
    // Geometry: records are page-aligned, non-overlapping, graph contiguous
    // with its payload, everything inside the data section; the tail record
    // has no graph.
    let row_len = 8 + config.dim * 4 + 4 + usize::from(has_norms) * 4;
    let mut prev_end = dir_end + 4;
    for (i, leaf) in leaves.iter().enumerate() {
        let at = d0 + DATA_HEADER_LEN + i * LEAF_DIR_ENTRY_LEN;
        if leaf.record_off % PAGE != 0 {
            return Err(MbiError::corrupt(at, "leaf record not page-aligned"));
        }
        if leaf.record_off < prev_end {
            return Err(MbiError::corrupt(at, "overlapping leaf records"));
        }
        let rows = if i < num_leaves { seg_rows } else { tail_rows };
        let payload_end = (rows.checked_mul(row_len))
            .and_then(|len| leaf.record_off.checked_add(len))
            .ok_or_else(|| ovf(at))?;
        if leaf.graph_off != payload_end {
            return Err(MbiError::corrupt(at, "leaf graph not contiguous with its record"));
        }
        if i == num_leaves && (leaf.graph_len, leaf.crc_graph) != (0, 0) {
            return Err(MbiError::corrupt(at, "tail record has a graph"));
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
        // layout by `open_snapshot`, once the timestamps are read.
        if height == 0 {
            let Some(leaf) = leaves[..num_leaves].get(leaf_blocks) else {
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
            if !graph_off.is_multiple_of(4) {
                return Err(MbiError::corrupt(at, "block graph not 4-byte aligned"));
            }
            let graph_end = graph_off.checked_add(graph_len).ok_or_else(|| ovf(at))?;
            if graph_end > b1 {
                return Err(MbiError::corrupt(at, "block graph overruns blocks section"));
            }
            prev_graph_end = graph_end;
        }
        blocks.push(BlockEntry {
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
    if prev_graph_end != b1 {
        return Err(MbiError::corrupt(prev_graph_end, "trailing bytes in blocks section"));
    }
    Ok(SnapshotLayout { config, num_leaves, seg_rows, has_norms, tail_rows, leaves, blocks })
}

/// The one open step of a stream, shared by the eager loader and the cold
/// tier: parses the directories, reads every record's timestamp chunk
/// against its CRC (selection and windowing read this column on every
/// query), then checks the structure a query walks — timestamps
/// non-decreasing, and the block directory the postorder layout for
/// `num_leaves` with time bounds matching the timestamps. Records and
/// graphs are left to [`decode_snapshot`].
pub(crate) fn open_snapshot(map: &Arc<FileMap>) -> Result<(SnapshotLayout, TimeChunks), MbiError> {
    let b = map.bytes();
    let layout = parse_layout(b)?;
    let mut times = TimeChunks::new(layout.seg_rows);
    let mut newest = Timestamp::MIN;
    for (i, leaf) in layout.leaves.iter().enumerate() {
        let c = layout.record(i);
        check_crc(&b[c.ts..c.rows], leaf.crc_ts, "leaf timestamps")?;
        let chunk = col::<Timestamp>(map, c.ts, layout.record_rows(i))?;
        for (r, &t) in chunk.iter().enumerate() {
            if t < newest {
                return Err(MbiError::corrupt(c.ts + r * 8, "timestamps not sorted"));
            }
            newest = t;
        }
        times.push_chunk(chunk[..].into());
    }
    // Inserts refuse `i64::MAX`: the exclusive end bound of the rows that
    // hold it would overflow.
    if newest == Timestamp::MAX {
        let at = layout.record(layout.leaves.len() - 1).rows - 8;
        return Err(MbiError::corrupt(at, format!("timestamp {newest} is out of range")));
    }
    let blocks = layout.blocks.iter().map(|m| (&m.rows, m.height, m.start_ts, m.end_ts));
    validate_blocks(layout.seg_rows, layout.num_leaves, blocks, &times)
        .map_err(|detail| MbiError::corrupt(0, detail))?;
    Ok((layout, times))
}

/// Decodes a stream into an [`IndexSnapshot`] whose columns view `map`:
/// [`open_snapshot`], then every record (the tail record as a short last
/// segment) and every block. Each record's row CRC and norm columns are
/// checked against their directory CRCs and its norms must be finite and
/// non-negative; each graph's header and chunk-CRC column are checked
/// against its directory CRC and the header against the block. Rows and
/// adjacency chunks are left to their first-use checks, which count the
/// bytes they hash in `checked_bytes`. The cold tier opens a mapped file
/// with it; the eager loaders run it over an owned buffer, then run every
/// first-use check at once.
pub(crate) fn decode_snapshot(
    map: &Arc<FileMap>,
    checked_bytes: &Arc<AtomicU64>,
) -> Result<IndexSnapshot, MbiError> {
    let (layout, times) = open_snapshot(map)?;
    let (b, dim) = (map.bytes(), layout.config.dim);
    let mut store = SegmentStore::new(dim, layout.seg_rows);
    for (i, l) in layout.leaves.iter().enumerate() {
        let (c, rows) = (layout.record(i), layout.record_rows(i));
        check_crc(&b[c.crcs..c.inv], l.crc_rows, "leaf row checksums")?;
        let inv_norms = if layout.has_norms {
            check_crc(&b[c.inv..c.end], l.crc_inv, "leaf norms")?;
            Some(inv_norms(col(map, c.inv, rows)?, c.inv)?)
        } else {
            None
        };
        checked_bytes.fetch_add((c.end - c.crcs) as u64, Relaxed);
        let seg = Segment::from_cols(dim, col(map, c.rows, rows * dim)?, inv_norms);
        let seg = seg.with_row_check(col(map, c.crcs, rows)?, Arc::clone(checked_bytes));
        store.push_segment(Arc::new(seg));
    }
    let mut blocks = Vec::with_capacity(layout.blocks.len());
    for m in &layout.blocks {
        let n = m.rows.len();
        if m.graph_len < GRAPH_HEADER_LEN + n.div_ceil(ADJACENCY_CHUNK) * 4 {
            return Err(MbiError::corrupt(m.graph_off, "block graph shorter than its header"));
        }
        let graph = &b[m.graph_off..m.graph_off + m.graph_len];
        check_crc(&graph_checked_bytes(graph, n), m.graph_crc, "block graph")?;
        let graph = BlockGraph(view_graph(map, m.graph_off, m.graph_len, n, checked_bytes)?);
        let (rows, height, start_ts, end_ts) = (m.rows.clone(), m.height, m.start_ts, m.end_ts);
        blocks.push(Arc::new(Block { rows, height, start_ts, end_ts, graph }));
    }
    let (config, num_leaves) = (layout.config, layout.num_leaves);
    Ok(IndexSnapshot { config, store, times, blocks, num_leaves })
}

/// Passes an inverse-norm column through unless it holds a non-finite or
/// negative value, which is `Corrupt` at that value's offset (the column
/// starts at `off`).
fn inv_norms(col: Col<f32>, off: usize) -> Result<Col<f32>, MbiError> {
    match col.iter().position(|&x| !x.is_finite() || x < 0.0) {
        Some(i) => Err(MbiError::corrupt(off + i * 4, format!("invalid inverse norm {}", col[i]))),
        None => Ok(col),
    }
}

fn write_config(b: &mut Vec<u8>, c: &MbiConfig) {
    b.put_u64_le(c.dim as u64);
    b.put_u8(metric_tag(c.metric));
    b.put_u64_le(c.leaf_size as u64);
    b.put_f64_le(c.tau);
    let GraphBackend::NnDescent(p) = &c.backend;
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
}

fn read_config(b: &mut Src<'_>) -> Result<MbiConfig, MbiError> {
    b.need(8 + 1 + 8 + 8)?;
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
    b.need(8 * 4 + 8)?;
    let backend = GraphBackend::NnDescent(NnDescentParams {
        degree: b.get_u64_le() as usize,
        rho: b.get_f64_le(),
        delta: b.get_f64_le(),
        max_iters: b.get_u64_le() as usize,
        seed: b.get_u64_le(),
    });
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
    b.need(1)?;
    let parallel_build = b.get_u8() != 0;
    Ok(MbiConfig {
        dim,
        metric,
        leaf_size,
        tau,
        backend,
        search: SearchParams { max_candidates, epsilon, entry },
        parallel_build,
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

/// Appends the graph `g` of a block of `block_len` rows, reserving its
/// exact serialised size first.
fn write_graph(b: &mut Vec<u8>, BlockGraph(g): &BlockGraph, block_len: usize) {
    let flat = g.as_flat();
    let chunks = block_len.div_ceil(ADJACENCY_CHUNK);
    b.reserve(GRAPH_HEADER_LEN + flat.len() * 4 + chunks * 4);
    b.put_u32_le(0);
    b.put_u64_le(g.degree() as u64);
    b.put_u64_le(flat.len() as u64);
    let start = b.len();
    b.resize(start + flat.len() * 4, 0);
    for (dst, x) in b[start..].chunks_exact_mut(4).zip(flat) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
    let crcs: Vec<u32> = chunk_crcs(&b[start..], g.degree(), chunks).collect();
    for crc in crcs {
        b.put_u32_le(crc);
    }
}

/// The CRC32 of each chunk of [`ADJACENCY_CHUNK`] vertex lists of `edges`
/// (the last chunk may be shorter, and every chunk of a degree-0 graph is
/// empty).
fn chunk_crcs(edges: &[u8], degree: usize, chunks: usize) -> impl Iterator<Item = u32> + '_ {
    let chunk_bytes = ADJACENCY_CHUNK * degree * 4;
    (0..chunks).map(move |c| {
        let start = (c * chunk_bytes).min(edges.len());
        crc32(&edges[start..(start + chunk_bytes).min(edges.len())])
    })
}

/// The bytes a snapshot directory's graph CRC covers: the serialised
/// graph's header, then its chunk-CRC column — not its edges.
fn graph_checked_bytes(graph: &[u8], block_len: usize) -> Vec<u8> {
    let column = block_len.div_ceil(ADJACENCY_CHUNK) * 4;
    [&graph[..GRAPH_HEADER_LEN], &graph[graph.len() - column..]].concat()
}

/// The directory CRC of a serialised graph of a block of `block_len` rows.
fn graph_crc(graph: &[u8], block_len: usize) -> u32 {
    crc32(&graph_checked_bytes(graph, block_len))
}

/// Reads a graph header and checks it against a block of `block_len`
/// rows; returns `(degree, len)`.
fn read_graph_header(b: &mut Src<'_>, block_len: usize) -> Result<(usize, usize), MbiError> {
    b.need(GRAPH_HEADER_LEN)?;
    let tag = b.get_u32_le();
    if tag != 0 {
        return Err(MbiError::corrupt(b.pos - 4, format!("unknown graph tag {tag}")));
    }
    let degree = b.get_u64_le() as usize;
    let len = b.get_u64_le() as usize;
    // `degree` slots per row, exactly — so a degree-0 graph has no edges,
    // and a degree that overflows the product is rejected.
    if degree.checked_mul(block_len) != Some(len) {
        return Err(b.corrupt(format!(
            "graph size {len} does not match degree {degree} × block {block_len}"
        )));
    }
    Ok((degree, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::TimeWindow;
    use crate::tier::{Check, ColdIndex};

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

    fn snapshot_of(idx: &MbiIndex) -> IndexSnapshot {
        IndexSnapshot::from_index(idx)
    }

    /// Opens `stream` cold.
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
    fn refooter(stream: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let sections = parse_footer(stream).unwrap();
        let mut body = stream[..sections[3].1].to_vec();
        mutate(&mut body);
        let mut b = Vec::with_capacity(body.len() + 80);
        b.put_slice(&body);
        write_footer(&mut b, &[0, sections[1].0, sections[2].0, sections[3].0, body.len()]);
        b
    }

    fn put_u32(b: &mut [u8], off: usize, x: u32) {
        b[off..off + 4].copy_from_slice(&x.to_le_bytes());
    }

    /// Where a clean snapshot stream keeps its two directories.
    struct Dirs {
        lay: SnapshotLayout,
        /// Start of the data section: `num_leaves`, `seg_rows`, the norm
        /// flag, `tail_rows`, then the leaf directory.
        d0: usize,
        /// Start of the blocks section: `num_blocks`, then the block
        /// directory.
        b0: usize,
    }

    impl Dirs {
        fn of(stream: &[u8]) -> Dirs {
            let sections = parse_footer(stream).unwrap();
            Dirs { lay: parse_layout(stream).unwrap(), d0: sections[2].0, b0: sections[3].0 }
        }

        fn leaf_entry(&self, leaf: usize) -> usize {
            self.d0 + DATA_HEADER_LEN + leaf * LEAF_DIR_ENTRY_LEN
        }

        fn block_entry(&self, block: usize) -> usize {
            self.b0 + 8 + block * BLOCK_DIR_ENTRY_LEN
        }

        /// Rewrites record `leaf`'s piece CRC `k` (0 timestamps, 1 row
        /// CRCs, 2 norms) over the piece's bytes in `body`.
        fn recrc_piece(&self, body: &mut [u8], leaf: usize, k: usize) {
            let c = self.lay.record(leaf);
            // The rows have no piece CRC.
            let piece = [c.ts..c.rows, c.crcs..c.inv, c.inv..c.end][k].clone();
            let crc = crc32(&body[piece]);
            put_u32(body, self.leaf_entry(leaf) + 24 + 4 * k, crc);
        }

        /// `refooter` that also rewrites both directory CRCs after `mutate`,
        /// so only the structural checks behind them can object.
        fn reseal(&self, stream: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
            refooter(stream, |body| {
                mutate(body);
                let dir_end = self.leaf_entry(self.lay.leaves.len());
                let dir_crc = crc32(&body[self.d0..dir_end]);
                put_u32(body, dir_end, dir_crc);
                let meta_end = self.block_entry(self.lay.blocks.len());
                let meta_crc = crc32(&body[self.b0..meta_end]);
                put_u32(body, meta_end, meta_crc);
            })
        }

        /// `reseal` for an edit inside block `bi`'s graph: every chunk CRC
        /// is recomputed over the edited edges (at the clean graph's degree),
        /// then the graph's directory CRC over its header and chunk-CRC
        /// column — the last field of the block's entry and, for a leaf
        /// block, of its leaf's entry too — before the directory CRCs.
        fn reseal_graph(
            &self,
            stream: &[u8],
            bi: usize,
            mutate: impl FnOnce(&mut [u8]),
        ) -> Vec<u8> {
            let m = &self.lay.blocks[bi];
            let (n, degree) = (m.rows.len(), rd_u64(stream, m.graph_off + 4) as usize);
            self.reseal(stream, |body| {
                let graph = &mut body[m.graph_off..m.graph_off + m.graph_len];
                mutate(graph);
                rechunk(graph, degree, n);
                let crc = graph_crc(graph, n);
                put_u32(body, self.block_entry(bi + 1) - 4, crc);
                if let Some(leaf) = layout::block_leaf(bi) {
                    put_u32(body, self.leaf_entry(leaf + 1) - 4, crc);
                }
            })
        }
    }

    /// Recomputes the chunk-CRC column of `graph`, exactly the bytes of a
    /// serialised graph of a block of `n` rows, over its edges at `degree`.
    fn rechunk(graph: &mut [u8], degree: usize, n: usize) {
        let chunks = n.div_ceil(ADJACENCY_CHUNK);
        let (edges, column) = graph.split_at_mut(graph.len() - 4 * chunks);
        let crcs: Vec<u32> = chunk_crcs(&edges[GRAPH_HEADER_LEN..], degree, chunks).collect();
        for (dst, crc) in column.chunks_exact_mut(4).zip(crcs) {
            dst.copy_from_slice(&crc.to_le_bytes());
        }
    }

    /// Reads a graph of a block of `block_len` rows in full through the one
    /// checker: viewed in a buffer as `decode_snapshot` views it, then every
    /// chunk checked against its CRC and every edge against the block, the
    /// first fault reported as an eager load reports it. The edges are
    /// viewed in place as `u32`s, so the buffer is shifted to put them on a
    /// 4-byte boundary, and a `Corrupt` offset is shifted back.
    fn read_graph(b: &mut Src<'_>, block_len: usize) -> Result<BlockGraph, MbiError> {
        let start = b.pos;
        let (_, len) = read_graph_header(b, block_len)?;
        let chunks = block_len.div_ceil(ADJACENCY_CHUNK);
        let body = len.checked_mul(4).and_then(|edges| edges.checked_add(chunks * 4));
        let body = body.ok_or_else(|| b.corrupt("size overflow"))?;
        b.need(body)?;
        b.pos += body;
        let shift = (4 - start % 4) % 4;
        let map = Arc::new(FileMap::from_bytes([&vec![0; shift][..], &b.b[..b.pos]].concat()));
        let unshift = |e| match e {
            MbiError::Corrupt { offset, detail } => MbiError::corrupt(offset - shift, detail),
            e => e,
        };
        let graph = view_graph(&map, start + shift, b.pos - start, block_len, &Arc::default())
            .map_err(unshift)?;
        Check::Graph(&graph).run_all().map_err(unshift)?;
        Ok(BlockGraph(graph))
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
    /// for three fixed indexes — 64 rows, Euclidean and angular, and 70 rows,
    /// whose last 6 are the tail record — are pinned as (length, CRC32). An
    /// index and its snapshot write the same stream.
    #[test]
    fn v12_bytes_are_pinned() {
        let pin = |b: Vec<u8>| (b.len(), crc32(&b));
        for (idx, want) in [
            (build_index(GraphBackend::default(), 64), (33841, 0xaeec_9f21)),
            (build_angular_index(64), (33841, 0x158e_f1bb)),
            (build_index(GraphBackend::default(), 70), (37937, 0x428a_e35b)),
        ] {
            let what = (idx.config().metric, idx.len());
            assert_eq!(pin(idx.to_bytes()), want, "{what:?} stream drifted");
            assert_eq!(snapshot_of(&idx).to_bytes(), idx.to_bytes(), "{what:?}: one stream");
        }
    }

    /// Query outputs pinned like the stream bytes: per entry policy and
    /// front-end, one CRC-32 over every answer's `(id, dist bits)` and its
    /// five `SearchStats` counters. `MbiIndex`, the snapshot and the cold
    /// tier run one executor over the same rows and graphs, so all three
    /// must give the same pin; the scores run
    /// through the dispatched distance kernels, so the pins must hold on the
    /// SIMD and the forced-scalar backend alike. The pins were recorded on
    /// `MbiIndex` while the snapshot and the cold tier could still score
    /// through quantized codes. The `QueryHash` row also pins the default
    /// entry policy (re-recorded when it began seeding `C` with strided
    /// pivots); the `Fixed` row starts every search at one vertex, so it pins
    /// the beam loop alone (recorded on the tree that still had a second
    /// backend, before the loop stopped taking a trait object).
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
            ("query-hash entry", SearchParams::default(), [0xd4dd_96f5; 3]),
            ("fixed entry", fixed, [0x436e_504c; 3]),
        ] {
            let config =
                MbiConfig::new(4, Metric::Euclidean).with_leaf_size(32).with_search(search);
            let mut idx = MbiIndex::new(config);
            for i in 0..256 {
                let x = i as f32;
                let v = [(x * 0.37).sin(), (x * 0.11).cos(), (x * 0.05).sin() * 2.0, x / 256.0];
                idx.insert(&v, i as i64).unwrap();
            }
            let snapshot = snapshot_of(&idx);
            let map = Arc::new(FileMap::from_bytes(snapshot.to_bytes().to_vec()));
            let cold = ColdIndex::from_map(map).unwrap();
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
        let err = MbiIndex::from_bytes(b"NOPE\0\0\0\0").unwrap_err();
        assert!(matches!(err, MbiError::Corrupt { offset: 0, .. }));
    }

    #[test]
    fn rejects_every_retired_version() {
        let stream = build_index(GraphBackend::default(), 70).to_bytes();
        for version in [2u32, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13] {
            let mut raw = stream.to_vec();
            put_u32(&mut raw, 4, version);
            let errs = [
                MbiIndex::from_bytes(raw.clone()).unwrap_err(),
                IndexSnapshot::from_bytes(raw.clone()).unwrap_err(),
                cold_from(&raw).unwrap_err(),
            ];
            for err in errs {
                assert!(matches!(err, MbiError::Corrupt { offset: 4, .. }), "{err}");
                let msg = err.to_string();
                assert!(msg.contains(&format!("version {version}")), "{msg}");
                assert!(msg.contains("only version 12"), "{msg}");
            }
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        // Chop the stream at many points, a tail record's included; every
        // prefix must fail cleanly in both eager loaders.
        let full = build_angular_index(40).to_bytes();
        for cut in [0, 3, 7, 20, 60, full.len() / 2, full.len() - 1] {
            let err = MbiIndex::from_bytes(&full[..cut]);
            assert!(err.is_err(), "index prefix of {cut} bytes was accepted");
            let err = IndexSnapshot::from_bytes(&full[..cut]);
            assert!(err.is_err(), "snapshot prefix of {cut} bytes was accepted");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let idx = build_index(GraphBackend::default(), 40);
        let mut raw = idx.to_bytes().to_vec();
        raw.extend_from_slice(b"junk");
        // Appended junk displaces the footer → bad footer magic.
        let err = MbiIndex::from_bytes(raw.clone()).unwrap_err();
        assert!(err.to_string().contains("footer magic"), "{err}");
        assert!(IndexSnapshot::from_bytes(raw).is_err());
        // Junk sealed *inside* the blocks section is caught structurally.
        let sealed = refooter(&idx.to_bytes(), |body| body.extend_from_slice(b"junk"));
        let err = MbiIndex::from_bytes(sealed.clone()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        let err = cold_from(&sealed).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_unsorted_timestamps_with_offset() {
        // The timestamps of leaf 0's first two rows swapped, and the tail
        // record's, each under a re-sealed chunk CRC; row r holds r.
        let stream = build_index(GraphBackend::default(), 40).to_bytes();
        let dirs = Dirs::of(&stream);
        for leaf in [0, 2] {
            let (ts, first) = (dirs.lay.record(leaf).ts, 16 * leaf as i64);
            let sealed = dirs.reseal(&stream, |body| {
                body[ts..ts + 8].copy_from_slice(&(first + 1).to_le_bytes());
                body[ts + 8..ts + 16].copy_from_slice(&first.to_le_bytes());
                dirs.recrc_piece(body, leaf, 0);
            });
            match MbiIndex::from_bytes(sealed).unwrap_err() {
                MbiError::Corrupt { offset, ref detail } if detail.contains("not sorted") => {
                    assert_eq!(offset, ts + 8, "offset points at the out-of-order timestamp");
                }
                other => panic!("record {leaf}: expected unsorted-timestamp Corrupt, got {other}"),
            }
        }
    }

    #[test]
    fn rejects_corrupt_norm_column() {
        // A NaN flipped into a stored stream trips the data CRC first, so
        // re-seal it and the column's own CRC: the per-scalar check itself
        // must still say no, in every reader, for a leaf and for the tail.
        let stream = build_angular_index(70).to_bytes();
        let dirs = Dirs::of(&stream);
        let nan = f32::NAN.to_le_bytes();
        for leaf in [1, 4] {
            let norms_start = dirs.lay.record(leaf).inv + 4;
            let sealed = dirs.reseal(&stream, |body| {
                body[norms_start..norms_start + 4].copy_from_slice(&nan);
                dirs.recrc_piece(body, leaf, 2);
            });
            let errs = [
                MbiIndex::from_bytes(sealed.clone()).unwrap_err(),
                IndexSnapshot::from_bytes(sealed.clone()).unwrap_err(),
                cold_from(&sealed).unwrap_err(),
            ];
            for err in errs {
                assert!(err.to_string().contains("inverse norm"), "record {leaf}: {err}");
            }
        }
    }

    #[test]
    fn detects_any_section_flip_as_checksum_mismatch() {
        let idx = build_index(GraphBackend::default(), 40);
        let raw = idx.to_bytes().to_vec();
        let sections = parse_footer(&raw).unwrap();
        // One flip inside each region: the version (header section), config,
        // data (a vector float — structurally valid, only the CRC sees it:
        // without the checksum it would load as a silently different index),
        // blocks.
        let float_pos = Dirs::of(&raw).lay.record(0).rows + 10;
        for (pos, expect_section) in [
            (5usize, "header"),
            (sections[1].0 + 3, "config"),
            (float_pos, "data"),
            (sections[3].1 - 5, "blocks"),
        ] {
            let mut bad = raw.clone();
            bad[pos] ^= 0x10;
            match MbiIndex::from_bytes(bad) {
                Err(MbiError::ChecksumMismatch { section, .. }) => {
                    assert_eq!(section, expect_section, "flip at byte {pos}");
                }
                // A version flip fails before checksumming.
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
        assert!(MbiIndex::from_bytes(bad).is_err());
        let mut bad = raw.clone();
        bad[n - 1] ^= 0x01;
        let err = MbiIndex::from_bytes(bad).unwrap_err();
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
        let stream = build_index(GraphBackend::default(), 64).to_bytes();
        let dirs = Dirs::of(&stream);
        // (what, offset into the graph, the bytes written there, the detail)
        let degrees = [0u64, 1 << 63, 3].map(|degree| {
            let detail = "does not match degree".to_string();
            (format!("degree {degree}"), 4, degree.to_le_bytes().to_vec(), detail)
        });
        let tags = [1u8, 0xFF].map(|tag| {
            (format!("graph tag {tag}"), 0, vec![tag], format!("unknown graph tag {tag}"))
        });
        for (what, at, bytes, detail) in degrees.into_iter().chain(tags) {
            let edit = |g: &mut [u8]| g[at..at + bytes.len()].copy_from_slice(&bytes);
            // Leaf 0's graph (block 0) and a height-1 graph (block 2), every
            // CRC over them re-sealed so only the graph decoder is left to
            // object.
            for bi in [0, 2] {
                let what = format!("block {bi}, {what}");
                let sealed = dirs.reseal_graph(&stream, bi, edit);
                let err = MbiIndex::from_bytes(sealed.clone()).unwrap_err();
                assert!(corrupt_with(&err, &detail), "index, {what}: {err}");
                let err = IndexSnapshot::from_bytes(sealed.clone()).unwrap_err();
                assert!(corrupt_with(&err, &detail), "snapshot, {what}: {err}");
                // The cold reader decodes every graph's header as it opens.
                let err = cold_from(&sealed).unwrap_err();
                assert!(corrupt_with(&err, &detail), "cold, {what}: {err}");
            }
        }
    }

    /// One verdict per edited edge of a leaf graph and of a height-1 graph:
    /// the first edge, one on a 64-byte boundary of the adjacency and the
    /// last, set to `n − 1`, `n`, `u32::MAX − 1` and `u32::MAX` (`n` the
    /// block's row count, `u32::MAX` the padding), CRCs re-sealed. The index
    /// loader and the snapshot loader must open the stream or both report
    /// `Corrupt` at the byte after the bad edge, as recorded on the reader
    /// that decoded one edge at a time. The cold tier opens every stream and
    /// answers: it checks an adjacency chunk only when a search expands a
    /// vertex in it, and at 16 and 32 rows a scan always pays, so no query
    /// here expands one (`graph_chunk_verdict_table` covers the chunks a
    /// search expands).
    #[test]
    fn graph_edge_verdict_table() {
        // Per graph, per slot: where a bad edge is reported.
        const BAD_EDGE_AT: [[usize; 3]; 2] = [[4504, 5336, 6100], [20908, 22508, 24104]];
        let idx = build_index(GraphBackend::default(), 64);
        let stream = idx.to_bytes();
        let dirs = Dirs::of(&stream);
        let q = [20.0f32, 0.5, -20.0];
        for (g, bi) in [0, 2].into_iter().enumerate() {
            let m = &dirs.lay.blocks[bi];
            assert_eq!(m.height as usize, g, "block {bi}");
            let BlockGraph(graph) = &idx.blocks()[bi].graph;
            let (n, len) = (m.rows.len() as u32, graph.as_flat().len());
            let window = TimeWindow::new(m.start_ts, m.end_ts);
            for (s, slot) in [0, (len / 2).next_multiple_of(16), len - 1].into_iter().enumerate() {
                let edge = GRAPH_HEADER_LEN + 4 * slot;
                for x in [n - 1, n, u32::MAX - 1, u32::MAX] {
                    let what = format!("block {bi}, edge {slot} of {len} set to {x}");
                    let detail = format!("edge to missing node {x}");
                    let edit = |bytes: &mut [u8]| {
                        bytes[edge..edge + 4].copy_from_slice(&x.to_le_bytes());
                    };
                    let sealed = dirs.reseal_graph(&stream, bi, edit);
                    let index = corrupt_at(MbiIndex::from_bytes(sealed.clone()), &what, &detail);
                    let snapshot =
                        corrupt_at(IndexSnapshot::from_bytes(sealed.clone()), &what, &detail);
                    let cold = cold_from(&sealed).and_then(|cold| cold.query(&q, 5, window));
                    assert!(cold.is_ok(), "{what}: cold: {cold:?}");
                    let at = (x >= n && x != u32::MAX).then_some(BAD_EDGE_AT[g][s]);
                    assert_eq!((index, snapshot), (at, at), "{what}");
                }
            }
        }
    }

    /// Two 256-row leaves under one root: big enough that a window over a
    /// whole block is graph-searched, not scanned.
    fn two_graph_searched_leaves() -> MbiIndex {
        let config = MbiConfig::new(3, Metric::Euclidean).with_leaf_size(256);
        let mut idx = MbiIndex::new(config);
        for i in 0..512 {
            let x = i as f32 * 0.37;
            idx.insert(&[x.sin(), (x * 0.7).cos(), (x * 0.13).sin()], i as i64).unwrap();
        }
        idx
    }

    /// One verdict per flipped graph byte: in an edge, in the chunk-CRC
    /// column and in the header, of a leaf graph and of the height-1 root,
    /// each at the adjacency chunk of the best answer of a query that
    /// graph-searches the block (a search expands every vertex it answers
    /// with). The index and snapshot loaders refuse the stream as written
    /// (a section CRC) and with its sections re-sealed (the graph's own
    /// CRCs), naming the graph. The cold tier refuses it too: at open for the header and the
    /// column, and for the edge on the first query, which expands its
    /// chunk. Then one edge is set out of range with every CRC over it
    /// re-sealed: `Corrupt` at the byte after it from all three readers,
    /// never a panic or an out-of-bounds read.
    #[test]
    fn graph_chunk_verdict_table() {
        let idx = two_graph_searched_leaves();
        let config = *idx.config();
        let (stream, snap) = (idx.to_bytes(), snapshot_of(&idx));
        let dirs = Dirs::of(&stream);
        let (q, k) = ([0.3f32, -0.2, 0.5], 3);
        let graph_section = |r: Result<_, MbiError>| {
            matches!(r, Err(MbiError::ChecksumMismatch { section: "block graph", .. }))
        };
        for bi in [1, 2] {
            let m = &dirs.lay.blocks[bi];
            let w = TimeWindow::new(m.start_ts, m.end_ts);
            let hot = snap.query_with_params(&q, k, w, &config.search);
            assert_eq!(hot.stats.blocks_bruteforced, 0, "block {bi} is graph-searched");
            let cold = |s: &[u8]| {
                let map = Arc::new(FileMap::from_bytes(s.to_vec()));
                ColdIndex::from_map(map)?.query_with_params(&q, k, w, &config.search)
            };
            assert_eq!(cold(&stream).unwrap().results, hot.results, "clean");
            // The best answer's vertex list: its chunk, and its first edge.
            let v = hot.results[0].id as usize - m.rows.start;
            let degree = idx.blocks()[bi].graph.0.degree();
            let column = m.graph_len - 4 * m.rows.len().div_ceil(ADJACENCY_CHUNK);
            let edge = GRAPH_HEADER_LEN + 4 * v * degree;
            for (what, at) in [
                ("edge", edge + 1),
                ("chunk crc", column + 4 * (v / ADJACENCY_CHUNK) + 2),
                ("header", 5),
            ] {
                let what = format!("block {bi}, {what} byte {at} of the graph");
                let mut raw = stream.to_vec();
                raw[m.graph_off + at] ^= 0x04;
                assert!(MbiIndex::from_bytes(raw.clone()).is_err(), "index, {what}");
                let err = IndexSnapshot::from_bytes(raw.clone()).err();
                assert!(err.is_some(), "snapshot, {what}");
                let sealed = refooter(&raw, |_| {});
                let got = MbiIndex::from_bytes(sealed.clone()).map(|_| ());
                assert!(graph_section(got), "resealed index, {what}");
                let got = IndexSnapshot::from_bytes(sealed).map(|_| ());
                assert!(graph_section(got), "resealed snapshot, {what}");
                assert!(graph_section(cold(&raw).map(|_| ())), "cold, {what}");
            }
            for x in [m.rows.len() as u32, u32::MAX - 1] {
                let what = format!("block {bi}, edge of vertex {v} set to {x}");
                let detail = format!("edge to missing node {x}");
                let set = |g: &mut [u8]| g[edge..edge + 4].copy_from_slice(&x.to_le_bytes());
                let sealed = dirs.reseal_graph(&stream, bi, set);
                let index = corrupt_at(MbiIndex::from_bytes(sealed.clone()), &what, &detail);
                let snapshot =
                    corrupt_at(IndexSnapshot::from_bytes(sealed.clone()), &what, &detail);
                assert_eq!(snapshot, Some(m.graph_off + edge + 4), "{what}");
                assert_eq!(index, snapshot, "{what}");
                let got = corrupt_at(cold(&sealed), &what, &detail);
                assert_eq!(got, snapshot, "{what}: cold");
            }
        }
    }

    /// The per-element decoder the bulk one replaced: the `Corrupt` offset of
    /// the first out-of-range edge of the `len` edges of a serialised kNN
    /// graph at `base`.
    fn first_bad_edge(graph: &[u8], base: usize, len: usize, block_len: usize) -> Option<usize> {
        let mut at = base + GRAPH_HEADER_LEN;
        for edge in graph[GRAPH_HEADER_LEN..][..4 * len].chunks_exact(4) {
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
        /// all, at lengths that are no multiple of a vector lane or of a
        /// chunk; an edge out of range under re-sealed chunk CRCs is
        /// `Corrupt` where the per-element reference says, and without the
        /// re-seal a checksum mismatch.
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
            let graph = KnnGraph::from_flat(degree, flat.collect::<Vec<_>>());
            let mut b = Vec::new();
            b.put_slice(&[0xa5; 8][..base]);
            write_graph(&mut b, &BlockGraph(graph.clone()), block_len);
            let mut stream = b.to_vec();
            let mut src = Src::new(&stream, base, stream.len());
            let BlockGraph(back) = read_graph(&mut src, block_len).unwrap();
            proptest::prop_assert_eq!(&back, &graph);
            proptest::prop_assert!(!src.has_remaining());

            let len = graph.as_flat().len();
            if len > 0 {
                // One or two edges in [n, u32::MAX − 1].
                let x = n + bad_value % (u32::MAX - n);
                let edges = base + GRAPH_HEADER_LEN;
                for slot in [bad.0 % len, bad.1 % len] {
                    let at = edges + 4 * slot;
                    stream[at..at + 4].copy_from_slice(&x.to_le_bytes());
                }
                let got = read_graph(&mut Src::new(&stream, base, stream.len()), block_len);
                let stale = matches!(got, Err(MbiError::ChecksumMismatch { section: "block graph", .. }));
                proptest::prop_assert!(stale, "{:?}", got.err());
                rechunk(&mut stream[base..], degree, block_len);
                let expected = first_bad_edge(&stream[base..], base, len, block_len);
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
    /// directory (the tail record's entry included), the block directory or
    /// a timestamp chunk of a clean stream with four leaves and a 6-row
    /// tail record, and re-seals every CRC over it, so the structural checks
    /// behind them decide. The eager loader and the cold tier must both
    /// refuse the stream, or both open it and answer every window alike;
    /// neither may panic.
    #[test]
    fn directory_verdict_table() {
        let clean = build_index(GraphBackend::default(), 70).to_bytes();
        let dirs = Dirs::of(&clean);
        let lay = &dirs.lay;
        // A block's own span selects it, so these windows load every piece.
        let windows: Vec<TimeWindow> = (lay.blocks.iter())
            .map(|m| TimeWindow::new(m.start_ts, m.end_ts))
            .chain([TimeWindow::all()])
            .collect();
        let q = [20.0f32, 0.5, -20.0];
        type Answers = Vec<Vec<crate::TknnResult>>;
        let eager = |s: &Vec<u8>| -> Result<Answers, MbiError> {
            let snap = IndexSnapshot::from_bytes(s.clone())?;
            let params = snap.config().search;
            let answer =
                |w| [snap.query_with_params(&q, 5, w, &params).results, snap.exact_query(&q, 5, w)];
            Ok(windows.iter().flat_map(|&w| answer(w)).collect())
        };
        let cold = |s: &Vec<u8>| -> Result<Answers, MbiError> {
            let cold = cold_from(s)?;
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
            ("tail_rows", dirs.d0 + 17, 8),
            ("num_blocks", dirs.b0, 8),
        ];
        let leaf_fields = [
            ("record_off", 8),
            ("graph_off", 8),
            ("graph_len", 8),
            ("crc_ts", 4),
            ("crc_rows", 4),
            ("crc_inv", 4),
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
        let entries = (0..lay.leaves.len()).map(|i| (dirs.leaf_entry(i), &leaf_fields[..]));
        for (mut at, shape) in
            entries.chain((0..lay.blocks.len()).map(|i| (dirs.block_entry(i), &block_fields[..])))
        {
            for &(name, width) in shape {
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
        // Timestamp edits as (record, row, timestamp); row r of record l
        // holds 16·l + r, and record 4 is the tail. Each chunk is re-sealed
        // under its own CRC.
        for edits in [
            vec![(0, 3, 9), (0, 9, 3)],
            vec![(1, 0, i64::MIN)],
            vec![(3, 15, i64::MAX)],
            vec![(0, 0, -1)],
            vec![(3, 15, 64)],
            vec![(2, 5, 38)],
            vec![(4, 2, 60)],
            vec![(4, 5, i64::MAX)],
            vec![(4, 0, 63)],
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
            match [eager(stream), cold(stream)] {
                [Ok(a), Ok(b)] => {
                    assert!(a == b, "{what}: eager and cold answers differ");
                    opened.push(what.as_str());
                }
                [Err(_), Err(_)] => {}
                verdicts => panic!("{what}: verdicts differ: {verdicts:?}"),
            }
        }
        // Only the clean stream, the CRC of each record's absent norm column
        // (0, so two edits each), and two timestamp edits that keep every
        // bound and the order: one in a leaf, one in the tail record.
        let harmless = ["clean", "crc_inv", "timestamps [(2, 5, 38)]", "timestamps [(4, 0, 63)]"];
        assert!(opened.iter().all(|w| harmless.iter().any(|h| w.starts_with(h))), "{opened:?}");
        assert_eq!(opened.len(), 3 + lay.leaves.len() * 2, "{opened:?}");

        // The tail record's own CRCs are checked when the stream opens,
        // eager or cold.
        let tail = dirs.leaf_entry(lay.num_leaves);
        for (name, at) in [("crc_ts", tail + 24), ("crc_rows", tail + 28)] {
            let sealed = dirs.reseal(&clean, |body| body[at] ^= 1);
            let stale =
                |r: Result<(), MbiError>| matches!(r, Err(MbiError::ChecksumMismatch { .. }));
            assert!(stale(MbiIndex::from_bytes(sealed.clone()).map(|_| ())), "{name}");
            assert!(stale(cold_from(&sealed).map(|_| ())), "cold, {name}");
        }
    }

    /// One verdict per row check: a flipped byte of a row and a flipped
    /// byte of its stored CRC, at the first, a middle and the last row of
    /// leaves 0 and 3 and of the tail record, every section and directory
    /// CRC re-sealed so only the row check can object. Both eager loaders
    /// refuse the stream; the cold tier opens it, answers every exact query
    /// that skips the row as the clean stream does, and fails the first
    /// query that reads it, approximate or exact.
    #[test]
    fn row_crc_verdict_table() {
        let clean = build_index(GraphBackend::default(), 70).to_bytes();
        let dirs = Dirs::of(&clean);
        let lay = &dirs.lay;
        let (s_l, row_len) = (lay.seg_rows, lay.config.dim * 4);
        let q = [20.0f32, 0.5, -20.0];
        let leaf_rows = |r: Option<MbiError>| {
            matches!(r, Some(MbiError::ChecksumMismatch { section: "leaf rows", .. }))
        };
        for leaf in [0, 3, 4] {
            let (c, rows) = (lay.record(leaf), lay.record_rows(leaf));
            for row in [0, rows / 2, rows - 1] {
                let crc_at = c.crcs + 4 * row;
                for (what, at) in [("row", c.rows + row * row_len + 5), ("row crc", crc_at + 2)] {
                    let what = format!("record {leaf}, {what} {row}");
                    let sealed = dirs.reseal(&clean, |body| {
                        body[at] ^= 0x10;
                        dirs.recrc_piece(body, leaf, 1);
                    });
                    assert!(leaf_rows(MbiIndex::from_bytes(sealed.clone()).err()), "index, {what}");
                    assert!(
                        leaf_rows(IndexSnapshot::from_bytes(sealed.clone()).err()),
                        "eager, {what}"
                    );
                    let t = (leaf * s_l + row) as i64;
                    let (cold, reference) =
                        (cold_from(&sealed).unwrap(), cold_from(&clean).unwrap());
                    for w in [TimeWindow::new(i64::MIN, t), TimeWindow::new(t + 1, i64::MAX)] {
                        let want = reference.exact_query(&q, 5, w).unwrap();
                        assert_eq!(cold.exact_query(&q, 5, w).unwrap(), want, "{what}, {w:?}");
                    }
                    let w = TimeWindow::new(t, t + 1);
                    assert!(leaf_rows(cold.query(&q, 5, w).err()), "{what}");
                    assert!(leaf_rows(cold.exact_query(&q, 5, w).err()), "{what}");
                }
            }
        }
    }

    /// The clean streams of `directory_verdict_table` and
    /// `row_crc_verdict_table` (Euclidean, with a tail record, and its
    /// angular twin with a norm column), of `graph_chunk_verdict_table`,
    /// and of four whole leaves with no tail record, with their directories.
    fn hostile_seeds() -> &'static [(Vec<u8>, Dirs)] {
        static SEEDS: std::sync::OnceLock<Vec<(Vec<u8>, Dirs)>> = std::sync::OnceLock::new();
        SEEDS.get_or_init(|| {
            [
                build_index(GraphBackend::default(), 70),
                build_angular_index(70),
                two_graph_searched_leaves(),
                build_index(GraphBackend::default(), 64),
            ]
            .iter()
            .map(|idx| {
                let stream = idx.to_bytes();
                let dirs = Dirs::of(&stream);
                (stream, dirs)
            })
            .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Hostile bytes — whole random streams (bare, or behind a valid
        /// v12 header), and the verdict tables' clean streams with random
        /// bytes overwritten, then cut and extended, or with the overwrites
        /// confined to the directories or to one block's graph and every
        /// CRC over them re-sealed so the structural checks decide — make
        /// both eager loaders and a cold open plus one query answer `Ok` or
        /// `Err`, never panic. The eager loaders agree, and when they accept
        /// a stream, the cold tier answers that query as they do.
        #[test]
        fn arbitrary_snapshot_bytes_never_panic(
            kind in 0..5usize,
            seed in 0..4usize,
            writes in proptest::collection::vec(
                (proptest::arbitrary::any::<usize>(), proptest::arbitrary::any::<u8>()), 1..6),
            cut in proptest::arbitrary::any::<usize>(),
            tail in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..300),
            window in (proptest::arbitrary::any::<i64>(), 0i64..600),
        ) {
            let (clean, dirs) = &hostile_seeds()[seed];
            let overwrite = |b: &mut [u8], range: std::ops::Range<usize>| {
                for &(at, x) in &writes {
                    if !range.is_empty() {
                        b[range.start + at % range.len()] = x;
                    }
                }
            };
            let stream: Vec<u8> = match kind {
                0 => tail,
                1 => {
                    let mut b = clean[..HEADER_LEN].to_vec();
                    b.extend(tail);
                    b
                }
                2 => {
                    let mut b = clean.to_vec();
                    overwrite(&mut b, 0..clean.len());
                    b.truncate(cut % (b.len() + 1));
                    b.extend(tail);
                    b
                }
                3 => dirs.reseal(clean, |body| {
                    let leaves = dirs.d0..dirs.leaf_entry(dirs.lay.leaves.len());
                    let blocks = dirs.b0..dirs.block_entry(dirs.lay.blocks.len());
                    overwrite(body, if cut.is_multiple_of(2) { leaves } else { blocks });
                }),
                _ => dirs.reseal_graph(clean, cut % dirs.lay.blocks.len(), |graph| {
                    overwrite(graph, GRAPH_HEADER_LEN..graph.len());
                }),
            };
            let (start, len) = window;
            let w = TimeWindow::new(start % 700, (start % 700).saturating_add(len));
            let eager = IndexSnapshot::from_bytes(stream.clone()).map(|snap| {
                let q = vec![0.25f32; snap.config().dim];
                snap.query_with_params(&q, 5, w, &snap.config().search).results
            });
            let index = MbiIndex::from_bytes(stream.clone()).map(|idx| {
                let q = vec![0.25f32; idx.dim()];
                idx.query_with_params(&q, 5, w, &idx.config().search).results
            });
            proptest::prop_assert_eq!(index.ok(), eager.as_ref().ok().cloned(), "kind {} seed {}", kind, seed);
            let map = Arc::new(FileMap::from_bytes(stream.to_vec()));
            let cold = ColdIndex::from_map(map).and_then(|cold| {
                let q = vec![0.25f32; cold.config().dim];
                cold.query(&q, 5, w)
            });
            if let Ok(want) = eager {
                proptest::prop_assert_eq!(cold.ok(), Some(want), "kind {} seed {}", kind, seed);
            }
        }
    }

    #[test]
    fn snapshot_roundtrips_and_reencodes_bit_identically() {
        for idx in [build_index(GraphBackend::default(), 64), build_angular_index(70)] {
            let snap = snapshot_of(&idx);
            let bytes = snap.to_bytes();
            assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), VERSION);
            let loaded = IndexSnapshot::from_bytes(bytes.clone()).unwrap();
            assert_eq!(loaded.validate(), Ok(()));
            for (a, b) in snap.store().segments().iter().zip(loaded.store().segments()) {
                assert_eq!(a.inv_norms(), b.inv_norms(), "norm column survives when present");
            }
            assert_same_snapshot_answers(&snap, &loaded);
            assert_eq!(&loaded.to_bytes()[..], &bytes[..], "decode → encode is a fixed point");
        }
    }

    #[test]
    fn layout_is_page_aligned_with_colocated_graphs() {
        let snap = snapshot_of(&build_angular_index(70));
        let bytes = snap.to_bytes();
        let layout = parse_layout(&bytes).unwrap();
        assert_eq!((layout.num_leaves, layout.tail_rows, layout.leaves.len()), (4, 6, 5));
        assert!(layout.has_norms);
        assert_eq!(layout.blocks.len(), snap.blocks().len());
        for (i, leaf) in layout.leaves.iter().enumerate() {
            let c = layout.record(i);
            assert_eq!(leaf.record_off % PAGE, 0, "records start on page boundaries");
            // Per-piece CRCs authenticate each column independently; the
            // rows are authenticated one by one by the row CRC column.
            assert_eq!(crc32(&bytes[c.ts..c.rows]), leaf.crc_ts);
            assert_eq!(crc32(&bytes[c.crcs..c.inv]), leaf.crc_rows);
            assert_eq!(crc32(&bytes[c.inv..c.end]), leaf.crc_inv);
            let row_bytes = layout.config.dim * 4;
            for (r, crc) in bytes[c.crcs..c.inv].chunks_exact(4).enumerate() {
                let row = c.rows + r * row_bytes;
                assert_eq!(crc32(&bytes[row..row + row_bytes]).to_le_bytes(), crc, "row {r}");
            }
            assert_eq!(leaf.graph_off, c.end, "leaf graphs are co-located with their records");
        }
        let tail = layout.leaves[4];
        assert_eq!((tail.graph_len, tail.crc_graph), (0, 0), "the tail record has no graph");
        let mut leaf_ix = 0;
        for (meta, block) in layout.blocks.iter().zip(snap.blocks()) {
            assert_eq!(meta.rows, block.rows);
            assert_eq!(meta.height, block.height);
            if meta.height == 0 {
                let leaf = &layout.leaves[leaf_ix];
                assert_eq!(meta.graph_off, leaf.graph_off, "block {:?}", meta.rows);
                let graph = &bytes[meta.graph_off..meta.graph_off + meta.graph_len];
                assert_eq!(graph_crc(graph, meta.rows.len()), leaf.crc_graph);
                leaf_ix += 1;
            }
            // Every graph's edges can be viewed in place as `u32`s.
            assert_eq!((meta.graph_off + GRAPH_HEADER_LEN) % 4, 0, "block {:?}", meta.rows);
        }
        assert_eq!(leaf_ix, layout.num_leaves);
    }

    /// The config's tag bytes take only the values a writer stores, in every
    /// reader: a metric tag other than 0–2 (after `dim`) and an entry tag
    /// other than 0–1 (after the graph and search parameters) are `Corrupt`.
    #[test]
    fn unknown_config_tags_are_corrupt() {
        let stream = build_index(GraphBackend::default(), 70).to_bytes();
        let config = parse_footer(&stream).unwrap()[1].0;
        let (metric_at, entry_at) = (config + 8, config + 8 + 1 + 8 + 8 + 40 + 8 + 4);
        assert_eq!((stream[metric_at], stream[entry_at]), (0, 0), "Euclidean, query-hash entry");
        for (at, tag, detail) in [
            (metric_at, 3u8, "unknown metric tag 3"),
            (metric_at, 0xFF, "unknown metric tag 255"),
            (entry_at, 2, "unknown entry tag 2"),
            (entry_at, 0xFF, "unknown entry tag 255"),
        ] {
            let sealed = refooter(&stream, |body| body[at] = tag);
            let verdicts = [
                corrupt_at(MbiIndex::from_bytes(sealed.clone()), "index", detail),
                corrupt_at(IndexSnapshot::from_bytes(sealed.clone()), "eager", detail),
                corrupt_at(cold_from(&sealed), "cold", detail),
            ];
            assert_eq!(verdicts, [Some(at + 1); 3], "{detail}");
        }
    }

    /// An index with tail rows, saved once, answers bit for bit alike from
    /// the original, the reloaded index, the eager snapshot and the cold
    /// tier — results, distance bits and work counters, tail rows included
    /// — and an engine resumed from it answers as the original does.
    #[test]
    fn a_tailed_index_answers_alike_from_every_loader() {
        let config = MbiConfig::new(3, Metric::Euclidean).with_leaf_size(32);
        let mut idx = MbiIndex::new(config);
        for i in 0..117 {
            let x = i as f32 * 0.37;
            idx.insert(&[x.sin(), (x * 0.7).cos(), (x * 0.13).sin()], i as i64).unwrap();
        }
        assert_eq!(idx.tail_rows(), 96..117);
        let stream = idx.to_bytes();
        let index = MbiIndex::from_bytes(stream.clone()).unwrap();
        assert_eq!(index.to_bytes(), stream, "decode → encode is a fixed point");
        let snap = IndexSnapshot::from_bytes(stream.clone()).unwrap();
        let cold = cold_from(&stream).unwrap();
        assert_eq!((cold.len(), cold.num_leaves()), (117, 3));
        let engine = crate::StreamingMbi::from_index(idx.clone(), crate::EngineConfig::default());
        type Bits = Vec<(u32, i64, u32)>;
        let bits = |r: &[crate::TknnResult]| -> Bits {
            r.iter().map(|r| (r.id, r.timestamp, r.dist.to_bits())).collect()
        };
        let params = config.search;
        let mut tail_hits = 0;
        for (lo, hi) in [(0, 117), (96, 117), (80, 110), (100, 101), (40, 60), (-5, 500)] {
            let w = TimeWindow::new(lo, hi);
            for (k, q) in [(1, [0.2f32, -0.1, 0.4]), (5, [-0.6, 0.9, 0.1])] {
                let want = idx.query_with_params(&q, k, w, &params);
                let what = format!("window {w:?}, k {k}");
                tail_hits += want.results.iter().filter(|r| r.id >= 96).count();
                for (name, got) in [
                    ("index", index.query_with_params(&q, k, w, &params)),
                    ("snapshot", snap.query_with_params(&q, k, w, &params)),
                    ("cold", cold.query_with_params(&q, k, w, &params).unwrap()),
                ] {
                    assert_eq!(bits(&got.results), bits(&want.results), "{name}, {what}");
                    assert_eq!(got.stats, want.stats, "{name}, {what}");
                }
                let streamed = engine.query_with_params(&q, k, w, &params);
                assert_eq!(bits(&streamed.results), bits(&want.results), "engine, {what}");
                let exact = bits(&idx.exact_query(&q, k, w));
                assert_eq!(bits(&snap.exact_query(&q, k, w)), exact, "exact, {what}");
                assert_eq!(bits(&cold.exact_query(&q, k, w).unwrap()), exact, "cold exact, {what}");
            }
        }
        assert!(tail_hits > 0, "some answers are tail rows");
    }

    /// An eager load's columns view its owned stream buffer, and
    /// `memory_bytes` counts what they view: at least the rows and the
    /// edges, from a buffer or from a file.
    #[test]
    fn an_eager_snapshot_counts_the_bytes_its_columns_view() {
        let idx = build_angular_index(70);
        let rows = idx.len() * idx.dim() * 4;
        let edges: usize = idx.blocks().iter().map(|b| b.graph.0.as_flat().len() * 4).sum();
        let path = std::env::temp_dir().join(format!("mbi_eager_{}.mbi", std::process::id()));
        idx.save_file(&path).unwrap();
        let loaded = [
            IndexSnapshot::from_bytes(idx.to_bytes()).unwrap(),
            IndexSnapshot::load_file(&path).unwrap(),
        ];
        std::fs::remove_file(&path).unwrap();
        for snap in loaded {
            assert!(snap.store().segments().iter().all(|seg| seg.is_mapped()));
            assert!(snap.blocks().iter().all(|b| b.graph.0.is_mapped()));
            let bytes = snap.memory_bytes();
            assert!(bytes >= rows + edges, "{bytes} < {rows} row + {edges} edge bytes");
        }
    }

    /// A loaded `MbiIndex` copies its rows and edges out of the stream
    /// buffer, so it keeps no column that views it.
    #[test]
    fn a_loaded_index_keeps_no_view_of_the_stream() {
        for idx in [build_index(GraphBackend::default(), 70), build_angular_index(70)] {
            let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
            for (got, want) in loaded.blocks().iter().zip(idx.blocks()) {
                assert!(!got.graph.0.is_mapped(), "block {:?}", got.rows);
                assert_eq!(got.graph.0, want.graph.0, "block {:?}", got.rows);
            }
            assert_eq!(loaded.store().as_flat(), idx.store().as_flat());
        }
    }
}
