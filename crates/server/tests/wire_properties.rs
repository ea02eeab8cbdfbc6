//! The socket-facing encoders and decoders, without a socket.
//!
//! * Every message leaves in one `write` call: a frame's header and payload,
//!   and a whole HTTP response. On a `TCP_NODELAY` socket each `write` is
//!   its own segment and wakes the peer separately.
//! * The decoders that read bytes straight off a connection —
//!   `wire::read_frame_limit` and `http::read_request` — answer any input
//!   with `Ok` or `Err`: never a panic, and never a payload above the cap.
//! * Frames survive fragmented delivery: read through a `BufReader` from a
//!   stream that hands out 1–7 bytes per `read`, they come back whole.

use mbi_server::http::{self, ParseError};
use mbi_server::wire::{self, Op};
use proptest::prelude::*;
use std::io::{BufReader, Read, Write};

/// A `Write` that keeps what it is sent and counts its `write` calls.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_frame_is_one_write() {
    // 0: PING, STATS and every empty OK reply; 1: a bare byte; 540: a QUERY
    // of 128 dims (28 bytes of arguments + 512 of vector).
    for len in [0usize, 1, 540] {
        let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let mut out = CountingWriter::default();
        wire::write_frame(&mut out, Op::Query as u8, &payload).unwrap();
        assert_eq!(out.writes, 1, "payload of {len} bytes");
        let (tag, got) = wire::read_frame(&mut out.bytes.as_slice()).unwrap().unwrap();
        assert_eq!((tag, got), (Op::Query as u8, payload));
    }
}

#[test]
fn an_http_response_is_one_write() {
    let mut out = CountingWriter::default();
    http::write_response(&mut out, 200, "{\"id\":7}", true).unwrap();
    assert_eq!(out.writes, 1);
    assert_eq!(
        String::from_utf8(out.bytes).unwrap(),
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 8\r\n\
         connection: keep-alive\r\n\r\n{\"id\":7}"
    );
}

/// A reader that hands out its bytes a few at a time, cycling through
/// `sizes` — TCP delivering one message in fragments.
struct Chopped {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    reads: usize,
}

impl Read for Chopped {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = size.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Header fragments an HTTP head is built from, so generated requests get
/// past the request line often enough to reach the header and body code.
const HTTP_PIECES: [&str; 16] = [
    "GET ",
    "POST ",
    "/query",
    " HTTP/1.1",
    "\r\n",
    "\n",
    "Content-Length: ",
    "Content-Length: 99999999999",
    "7",
    "Authorization: Bearer t",
    "X-Tenant: a",
    "Connection: close",
    ":",
    " ",
    "{\"k\":1}",
    "\u{fffd}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_frame_limit_never_panics_or_exceeds_its_cap(
        claimed in 0u32..96,
        body in prop::collection::vec(any::<u8>(), 0..96),
        raw in any::<bool>(),
        cap in 1usize..80,
    ) {
        // Half the inputs are pure noise; the rest start with a small length
        // so the tag and payload reads run too.
        let bytes = if raw {
            body.clone()
        } else {
            let mut b = claimed.to_le_bytes().to_vec();
            b.extend_from_slice(&body);
            b
        };
        let claimed = bytes.get(..4).map(|h| u32::from_le_bytes(h.try_into().unwrap()) as usize);
        match wire::read_frame_limit(&mut bytes.as_slice(), cap) {
            Ok(None) => prop_assert!(bytes.len() < 4),
            Ok(Some((_, payload))) => {
                prop_assert!(payload.len() < cap, "payload {} not under cap {}", payload.len(), cap);
                prop_assert_eq!(Some(payload.len() + 1), claimed);
            }
            Err(e) => {
                // A length over the cap is refused at the header, before
                // any payload buffer exists.
                if claimed.is_some_and(|len| len > cap) {
                    prop_assert!(e.to_string().contains("exceeds cap"), "{}", e);
                }
            }
        }
    }

    #[test]
    fn read_request_never_panics_or_exceeds_its_caps(
        pieces in prop::collection::vec(0usize..HTTP_PIECES.len() + 1, 0..24),
        noise in any::<u8>(),
    ) {
        // The extra index stands for one arbitrary byte.
        let mut bytes = Vec::new();
        for p in pieces {
            match HTTP_PIECES.get(p) {
                Some(s) => bytes.extend_from_slice(s.as_bytes()),
                None => bytes.push(noise),
            }
        }
        match http::read_request(&mut BufReader::new(bytes.as_slice())) {
            Ok(req) => {
                prop_assert!(req.body.len() <= bytes.len());
                prop_assert!(!req.method.is_empty() && !req.path.is_empty());
            }
            Err(ParseError::Closed) => prop_assert!(bytes.is_empty()),
            Err(ParseError::Io(_) | ParseError::Malformed(_)) => {}
        }
    }

    #[test]
    fn frames_survive_fragmented_delivery(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..6),
        sizes in prop::collection::vec(1usize..8, 1..8),
        buffer in 1usize..32,
    ) {
        let mut data = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            wire::write_frame(&mut data, i as u8, p).unwrap();
        }
        let chopped = Chopped { data, pos: 0, sizes, reads: 0 };
        let mut reader = BufReader::with_capacity(buffer, chopped);
        for (i, p) in payloads.iter().enumerate() {
            let (tag, got) = wire::read_frame(&mut reader).unwrap().unwrap();
            prop_assert_eq!(tag, i as u8);
            prop_assert_eq!(&got, p);
        }
        prop_assert!(wire::read_frame(&mut reader).unwrap().is_none());
    }
}
