//! The compact binary protocol — the throughput path.
//!
//! A connection opens with the 4-byte magic `MBI1` (how the server tells
//! the two protocols apart), then exchanges frames:
//!
//! ```text
//! request:  [u32 len][u8 op][payload]          len = 1 + payload bytes
//! response: [u32 len][u8 status][payload]
//! ```
//!
//! All integers are little-endian. Ops:
//!
//! | op | name   | request payload                                           |
//! |----|--------|-----------------------------------------------------------|
//! | 01 | AUTH   | u16 name_len, name, u16 token_len, token                  |
//! | 02 | QUERY  | u32 k, i64 from, i64 to, u32 deadline_ms (0 = default), u32 dim, dim × f32 |
//! | 03 | INSERT | i64 timestamp, u32 dim, dim × f32                         |
//! | 04 | STATS  | (empty)                                                   |
//! | 05 | PING   | (empty)                                                   |
//! | 06 | HEALTH | (empty)                                                   |
//! | 07 | REPL_FETCH | u16 id_len, follower id, u64 from_row              |
//! | 08 | PROMOTE | (empty)                                                  |
//!
//! Status 0 is OK; the non-zero codes mirror the HTTP error statuses. OK
//! payloads: QUERY → `u8 flags` (bit 1 timed-out/partial; bit 0 is
//! reserved: the server never sets it and the client ignores it), `u32 n`,
//! then `n × (u32 id, i64 timestamp, f32 dist)`; INSERT → `u32 id`;
//! STATS/HEALTH → a JSON document; REPL_FETCH → one batch of the leader's
//! WAL (below); AUTH/PING/PROMOTE → empty. Every error payload is a
//! human-readable message.
//!
//! [`Request`] is the one encoder and decoder of these request payloads:
//! the client and the follower link encode with it, and the server decodes
//! with it. The HTTP endpoints decode their JSON bodies into the same type.
//!
//! # Replication
//!
//! A follower replicates with ordinary `REPL_FETCH` requests on its
//! authenticated connection, each asking for the leader's WAL events from
//! its own row count on. The OK reply is one batch in one frame:
//! `u32 dim, u16 config_len, config, u64 leader_rows, u32 count`, then
//! `count` events in feed order, where `config` is the leader's
//! `MbiConfig` as JSON with its query-time `search` defaults and its
//! `parallel_build` flag reset (a follower whose own config, so reset,
//! differs stops before it applies anything), and each event is a `u8`
//! tag and either a record (`0: u64 row, i64 timestamp, dim × f32`) or a
//! seal (`1: u64 segment, u32 crc`, the leader's CRC of the sealed segment
//! the follower checks its own bytes against). An empty batch means the
//! follower is caught up. A feed error (a pruned cursor, a corrupt segment)
//! is an error status carrying the feed's message.

use mbi_core::TknnResult;
use std::io::{Read, Write};
use std::time::Duration;

/// The protocol magic a binary connection opens with.
pub const MAGIC: [u8; 4] = *b"MBI1";

/// Largest frame either side accepts (guards against garbage lengths).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Request opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Authenticate the connection for one tenant.
    Auth = 0x01,
    /// One kNN query.
    Query = 0x02,
    /// One insert.
    Insert = 0x03,
    /// Tenant + server stats as JSON.
    Stats = 0x04,
    /// Liveness no-op.
    Ping = 0x05,
    /// Engine health as JSON.
    Health = 0x06,
    /// Fetch the next batch of the tenant's WAL as a replication follower.
    ReplFetch = 0x07,
    /// Promote a replica tenant: verify its tail and open it for writes.
    Promote = 0x08,
}

impl Op {
    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<Op> {
        match b {
            0x01 => Some(Op::Auth),
            0x02 => Some(Op::Query),
            0x03 => Some(Op::Insert),
            0x04 => Some(Op::Stats),
            0x05 => Some(Op::Ping),
            0x06 => Some(Op::Health),
            0x07 => Some(Op::ReplFetch),
            0x08 => Some(Op::Promote),
            _ => None,
        }
    }
}

/// Response status codes, mirroring the HTTP statuses of the JSON protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success.
    Ok = 0,
    /// Bad or cross-tenant credentials (HTTP 401/403).
    Unauthorized = 1,
    /// Shed by the admission gate (HTTP 503).
    Overloaded = 2,
    /// Deadline exceeded (HTTP 408).
    Timeout = 3,
    /// Malformed frame or arguments (HTTP 400).
    BadRequest = 4,
    /// Engine or I/O failure (HTTP 500).
    Internal = 5,
    /// Insert on a read-only tenant (HTTP 403).
    ReadOnly = 6,
}

impl Status {
    /// Decodes a status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Unauthorized),
            2 => Some(Status::Overloaded),
            3 => Some(Status::Timeout),
            4 => Some(Status::BadRequest),
            5 => Some(Status::Internal),
            6 => Some(Status::ReadOnly),
            _ => None,
        }
    }
}

/// QUERY response flag: the deadline expired; results are partial.
pub const FLAG_TIMED_OUT: u8 = 1 << 1;

/// One request to the service, whichever protocol carried it: the binary
/// protocol sends every kind, HTTP sends a query, an insert, stats and a
/// promotion. Decoding checks only the layout; the server's one handler
/// checks what the values mean (`k > 0`, the window order, the dimension).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Authenticate the connection as one tenant.
    Auth {
        /// The tenant's name.
        tenant: String,
        /// Its bearer token.
        token: String,
    },
    /// Liveness no-op.
    Ping,
    /// One TkNN query: the `k` rows nearest `vector` with a timestamp in
    /// `[from, to)`.
    Query {
        /// The query vector.
        vector: Vec<f32>,
        /// Neighbours asked for.
        k: usize,
        /// Window start (inclusive).
        from: i64,
        /// Window end (exclusive).
        to: i64,
        /// The query's own deadline; `None` takes the server default.
        deadline: Option<Duration>,
    },
    /// One append.
    Insert {
        /// The row.
        vector: Vec<f32>,
        /// Its timestamp.
        timestamp: i64,
    },
    /// Tenant and server stats.
    Stats,
    /// The tenant's engine health.
    Health,
    /// Promote a replica tenant.
    Promote,
    /// A follower's fetch of the leader's WAL events from `from_row` on.
    Fetch {
        /// The follower's id (its tenant name).
        follower: String,
        /// The follower's row count.
        from_row: u64,
    },
}

impl Request {
    /// The op this request travels under and its frame's payload, laid out
    /// as the table above sets out. A deadline goes out in whole
    /// milliseconds, at least 1.
    ///
    /// # Panics
    ///
    /// Panics if a name, token or follower id is longer than `u16::MAX`
    /// bytes.
    pub fn encode(&self) -> (Op, Vec<u8>) {
        let w = PayloadWriter::new();
        let (op, w) = match self {
            Request::Auth { tenant, token } => (Op::Auth, w.str16(tenant).str16(token)),
            Request::Query { vector, k, from, to, deadline } => {
                let deadline_ms =
                    deadline.map_or(0, |d| d.as_millis().clamp(1, u128::from(u32::MAX)) as u32);
                let w = w.u32(*k as u32).i64(*from).i64(*to).u32(deadline_ms);
                (Op::Query, w.u32(vector.len() as u32).f32s(vector))
            }
            Request::Insert { vector, timestamp } => {
                (Op::Insert, w.i64(*timestamp).u32(vector.len() as u32).f32s(vector))
            }
            Request::Fetch { follower, from_row } => {
                (Op::ReplFetch, w.str16(follower).u64(*from_row))
            }
            Request::Ping => (Op::Ping, w),
            Request::Stats => (Op::Stats, w),
            Request::Health => (Op::Health, w),
            Request::Promote => (Op::Promote, w),
        };
        (op, w.build())
    }

    /// Decodes the payload of an `op` frame. A payload that ends early,
    /// runs on, or holds a string that is not UTF-8 is an error; an op
    /// without a payload ignores whatever it carries. A `deadline_ms` of 0
    /// is no deadline of the query's own.
    pub fn decode(op: Op, payload: &[u8]) -> Result<Request, String> {
        let mut r = PayloadReader::new(payload);
        let request = match op {
            Op::Ping => return Ok(Request::Ping),
            Op::Stats => return Ok(Request::Stats),
            Op::Health => return Ok(Request::Health),
            Op::Promote => return Ok(Request::Promote),
            Op::Auth => Request::Auth { tenant: r.str16()?, token: r.str16()? },
            Op::Query => {
                let (k, from, to, deadline_ms) = (r.u32()? as usize, r.i64()?, r.i64()?, r.u32()?);
                let deadline =
                    (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
                let dim = r.u32()? as usize;
                Request::Query { vector: r.f32s(dim)?, k, from, to, deadline }
            }
            Op::Insert => {
                let timestamp = r.i64()?;
                let dim = r.u32()? as usize;
                Request::Insert { vector: r.f32s(dim)?, timestamp }
            }
            Op::ReplFetch => Request::Fetch { follower: r.str16()?, from_row: r.u64()? },
        };
        r.finish()?;
        Ok(request)
    }
}

/// Reads one frame, returning the tag byte (op or status) and payload.
/// `Ok(None)` means the peer closed cleanly between frames.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    read_frame_limit(r, MAX_FRAME)
}

/// [`read_frame`] with an explicit frame-size cap (the server's slow-loris
/// guard configures a tighter one than the protocol-wide [`MAX_FRAME`]).
/// An oversized length errors with a message containing `"exceeds cap"` —
/// the caller can tell it apart from other framing errors.
pub fn read_frame_limit<R: Read>(r: &mut R, max: usize) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "zero-length frame"));
    }
    if len > max.min(MAX_FRAME) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {}", max.min(MAX_FRAME)),
        ));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mut payload = vec![0u8; len - 1];
    r.read_exact(&mut payload)?;
    Ok(Some((tag[0], payload)))
}

/// Appends one whole frame — header and payload — to `buf`. A frame longer
/// than [`MAX_FRAME`], which every reader rejects, is an `InvalidInput`
/// error and leaves `buf` untouched.
pub fn push_frame(buf: &mut Vec<u8>, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() + 1;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    buf.reserve(4 + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(payload);
    Ok(())
}

/// Writes one frame with a single `write_all`, so on a `TCP_NODELAY`
/// socket the header and payload leave as one segment and wake the peer
/// once. An oversized frame fails before any byte is written.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::new();
    push_frame(&mut frame, tag, payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// A little-endian payload reader with bounds-checked accessors.
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(format!("payload truncated at byte {}", self.pos)),
        }
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a length-prefixed (`u16`) UTF-8 string.
    pub fn str16(&mut self) -> Result<String, String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "string not utf-8".into())
    }

    /// Reads `n` consecutive `f32`s.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, String> {
        let bytes = self.take(n.checked_mul(4).ok_or("vector length overflow")?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Asserts the payload is fully consumed.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes in payload", self.bytes.len() - self.pos))
        }
    }
}

/// Builds the little-endian payloads the reader parses.
#[derive(Default)]
pub struct PayloadWriter {
    bytes: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u32`.
    pub fn u32(mut self, v: u32) -> Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(mut self, v: u64) -> Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `i64`.
    pub fn i64(mut self, v: i64) -> Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a single byte.
    pub fn u8(mut self, v: u8) -> Self {
        self.bytes.push(v);
        self
    }

    /// Appends an `f32`.
    pub fn f32(mut self, v: f32) -> Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed (`u16`) string.
    pub fn str16(mut self, s: &str) -> Self {
        assert!(s.len() <= u16::MAX as usize, "string too long for u16 prefix");
        self.bytes.extend_from_slice(&(s.len() as u16).to_le_bytes());
        self.bytes.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends raw f32s.
    pub fn f32s(mut self, vs: &[f32]) -> Self {
        for v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// The finished payload.
    pub fn build(self) -> Vec<u8> {
        self.bytes
    }
}

/// Encodes a QUERY OK payload.
pub fn encode_results(results: &[TknnResult], flags: u8) -> Vec<u8> {
    let mut w = PayloadWriter::new().u8(flags).u32(results.len() as u32);
    for r in results {
        w = w.u32(r.id).i64(r.timestamp).f32(r.dist);
    }
    w.build()
}

/// Decodes a QUERY OK payload into `(flags, results)`.
pub fn decode_results(payload: &[u8]) -> Result<(u8, Vec<TknnResult>), String> {
    let mut r = PayloadReader::new(payload);
    let flags = r.u8()?;
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(TknnResult { id: r.u32()?, timestamp: r.i64()?, dist: r.f32()? });
    }
    r.finish()?;
    Ok((flags, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Op::Query as u8, b"payload").unwrap();
        let (tag, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(Op::from_u8(tag), Some(Op::Query));
        assert_eq!(payload, b"payload");
        // Clean EOF between frames is None, not an error.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn bogus_lengths_are_rejected() {
        let mut buf = 0u32.to_le_bytes().to_vec();
        assert!(read_frame(&mut buf.as_slice()).is_err(), "zero length");
        buf = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        assert!(read_frame(&mut buf.as_slice()).is_err(), "oversized length");
    }

    #[test]
    fn frame_limit_is_enforced_and_distinguishable() {
        // A frame within MAX_FRAME but over the caller's cap is rejected
        // with the "exceeds cap" marker the server keys its metrics on.
        let mut buf = Vec::new();
        write_frame(&mut buf, Op::Query as u8, &[0u8; 100]).unwrap();
        let err = read_frame_limit(&mut buf.as_slice(), 64).unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");
        // The same frame passes under a roomier cap.
        assert!(read_frame_limit(&mut buf.as_slice(), 4096).unwrap().is_some());
        // Zero-length frames carry a different message.
        let zero = 0u32.to_le_bytes().to_vec();
        let err = read_frame_limit(&mut zero.as_slice(), 64).unwrap_err();
        assert!(!err.to_string().contains("exceeds cap"), "{err}");
    }

    #[test]
    fn oversized_frames_are_refused_before_any_byte_is_written() {
        /// Keeps the header of what it is sent and counts the rest, so the
        /// test does not hold a second 64 MiB copy.
        #[derive(Default)]
        struct Head(Vec<u8>, usize);
        impl Write for Head {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let room = 5usize.saturating_sub(self.0.len()).min(buf.len());
                self.0.extend_from_slice(&buf[..room]);
                self.1 += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // The largest legal payload: the length field is exactly MAX_FRAME.
        // A reader accepts that header and fails only for want of the
        // payload bytes this test does not keep.
        let mut payload = vec![0u8; MAX_FRAME - 1];
        let mut sent = Head::default();
        write_frame(&mut sent, Status::Ok as u8, &payload).unwrap();
        assert_eq!(sent.1, 4 + MAX_FRAME);
        assert!(read_frame(&mut sent.0.as_slice()).is_err_and(|e| !e.to_string().contains("cap")));
        // One byte more and nothing leaves: no header, no partial frame.
        payload.push(0);
        let mut sent = Head::default();
        let err = write_frame(&mut sent, Status::Ok as u8, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(sent.1, 0, "bytes written for an oversized frame");
        let mut buf = Vec::new();
        let err = push_frame(&mut buf, Status::Ok as u8, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty());
    }

    #[test]
    fn u64_roundtrips() {
        let payload = PayloadWriter::new().u64(u64::MAX - 7).u64(0).build();
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.u64().unwrap(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn payloads_roundtrip() {
        let payload =
            PayloadWriter::new().u32(7).i64(-5).str16("tenant-a").f32s(&[1.0, 2.5]).build();
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.str16().unwrap(), "tenant-a");
        assert_eq!(r.f32s(2).unwrap(), vec![1.0, 2.5]);
        r.finish().unwrap();
        // Truncation and trailing garbage are both errors.
        assert!(PayloadReader::new(&payload[..3]).u32().is_err());
        let mut r = PayloadReader::new(&payload);
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }

    /// A request of kind `kind` (0..8, one per op) built from the given
    /// fields.
    fn request(kind: usize, text: &str, vector: Vec<f32>, ints: (u32, i64, i64, u32)) -> Request {
        let (k, a, b, ms) = ints;
        match kind {
            0 => Request::Auth { tenant: text.into(), token: text.repeat(2) },
            1 => Request::Ping,
            2 => {
                let deadline = (ms > 0).then(|| Duration::from_millis(u64::from(ms)));
                Request::Query { vector, k: k as usize, from: a, to: b, deadline }
            }
            3 => Request::Insert { vector, timestamp: a },
            4 => Request::Stats,
            5 => Request::Health,
            6 => Request::Promote,
            _ => Request::Fetch { follower: text.into(), from_row: b as u64 },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        /// Every request decodes from its own encoding to itself, and a
        /// payload cut short is an error for every op that carries one.
        /// Hostile payloads — arbitrary bytes, and a valid payload with
        /// bytes overwritten, then maybe cut and extended — decode under
        /// every op to `Ok` or an error, never a panic.
        #[test]
        fn requests_round_trip_and_hostile_payloads_never_panic(
            kind in 0..8usize,
            text in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..24),
            vector in proptest::collection::vec(-1e6f32..1e6f32, 0..12),
            ints in (
                proptest::arbitrary::any::<u32>(),
                proptest::arbitrary::any::<i64>(),
                proptest::arbitrary::any::<i64>(),
                proptest::arbitrary::any::<u32>(),
            ),
            raw in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..96),
            writes in proptest::collection::vec(
                (proptest::arbitrary::any::<usize>(), proptest::arbitrary::any::<u8>()), 1..5),
            cut in proptest::arbitrary::any::<usize>(),
        ) {
            let request = request(kind, &String::from_utf8_lossy(&text), vector, ints);
            let (op, payload) = request.encode();
            proptest::prop_assert_eq!(Request::decode(op, &payload), Ok(request));
            if !payload.is_empty() {
                let short = &payload[..cut % payload.len()];
                proptest::prop_assert!(Request::decode(op, short).is_err(), "{:?}", short);
            }
            let mut hostile = payload;
            if !hostile.is_empty() {
                for &(at, x) in &writes {
                    let at = at % hostile.len();
                    hostile[at] = x;
                }
            }
            if cut % 2 == 1 {
                hostile.truncate(cut / 2 % (hostile.len() + 1));
                hostile.extend(&raw);
            }
            for op in (0..=u8::MAX).filter_map(Op::from_u8) {
                let _ = Request::decode(op, &hostile);
                let _ = Request::decode(op, &raw);
            }
        }
    }

    #[test]
    fn results_roundtrip() {
        let results = vec![
            TknnResult { id: 1, timestamp: 10, dist: 0.5 },
            TknnResult { id: 9, timestamp: -3, dist: 2.25 },
        ];
        let enc = encode_results(&results, FLAG_TIMED_OUT);
        let (flags, dec) = decode_results(&enc).unwrap();
        assert_eq!(flags, FLAG_TIMED_OUT);
        assert_eq!(dec.len(), 2);
        assert_eq!((dec[0].id, dec[0].timestamp, dec[0].dist), (1, 10, 0.5));
        assert_eq!((dec[1].id, dec[1].timestamp, dec[1].dist), (9, -3, 2.25));
        assert!(decode_results(&enc[..enc.len() - 1]).is_err());
    }
}
