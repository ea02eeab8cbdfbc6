//! Minimal HTTP/1.1 request parsing and response writing — just enough for
//! `curl` and the JSON endpoints; not a general web server — and the
//! decoders of the JSON request bodies.
//!
//! Supported: request line + headers + `Content-Length` bodies, keep-alive,
//! `Authorization: Bearer` extraction, and an `X-Tenant` namespace header.
//! Not supported (responds `400`): chunked transfer encoding, multi-line
//! headers, upgrades.

use crate::wire;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::Duration;

/// Cap on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// Bearer token from `Authorization`, if present.
    pub bearer: Option<String>,
    /// `X-Tenant` namespace header, if present.
    pub tenant: Option<String>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed the connection before a request line arrived — the
    /// normal end of a keep-alive session, not an error to report.
    Closed,
    /// An I/O error (including read timeouts used for shutdown polling).
    Io(std::io::Error),
    /// The bytes were not the HTTP we speak; the message goes in a `400`.
    Malformed(String),
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Reads one line of the request head into `line`, taking at most `room`
/// bytes: a longer line makes the head too large, and is refused before it
/// is buffered whole.
fn read_head_line<R: Read>(
    reader: &mut BufReader<R>,
    room: usize,
    line: &mut String,
) -> Result<usize, ParseError> {
    let n = reader.by_ref().take(room as u64 + 1).read_line(line)?;
    if n > room {
        return Err(ParseError::Malformed("request head too large".into()));
    }
    Ok(n)
}

/// Reads one request from `reader`.
pub fn read_request<R: Read>(reader: &mut BufReader<R>) -> Result<Request, ParseError> {
    let mut line = String::new();
    if read_head_line(reader, MAX_HEAD_BYTES, &mut line)? == 0 {
        return Err(ParseError::Closed);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!("bad request line {line:?}")));
    }
    let mut bearer = None;
    let mut tenant = None;
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    let mut head_bytes = line.len();
    loop {
        let mut h = String::new();
        if read_head_line(reader, MAX_HEAD_BYTES - head_bytes, &mut h)? == 0 {
            return Err(ParseError::Malformed("eof inside headers".into()));
        }
        head_bytes += h.len();
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header {h:?}")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "authorization" => {
                bearer = value
                    .strip_prefix("Bearer ")
                    .or_else(|| value.strip_prefix("bearer "))
                    .map(str::to_string);
            }
            "x-tenant" => tenant = Some(value.to_string()),
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| ParseError::Malformed(format!("bad content-length {value:?}")))?;
            }
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::Malformed(format!("body of {content_length} bytes exceeds cap")));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| ParseError::Malformed("body is not valid utf-8".into()))?;
    let path = target.split('?').next().unwrap_or(&target).to_string();
    Ok(Request { method, path, bearer, tenant, keep_alive, body })
}

/// Writes one JSON response.
pub fn write_response<W: Write>(
    out: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    // Formatted whole, then written once: `write!` straight into a socket
    // is one `write` call (and one TCP segment) per formatted piece.
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.write_all(response.as_bytes())?;
    out.flush()
}

/// A JSON error body `{"error": "..."}`.
pub fn error_body(message: &str) -> String {
    render(Value::Map(vec![("error".into(), Value::Str(message.into()))]))
}

/// A JSON document as response body text.
pub(crate) fn render(value: Value) -> String {
    struct W(Value);
    impl serde::Serialize for W {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&W(value)).expect("serialiser is total")
}

/// Decodes a `POST /query` body: `vector` and `k` are required, `from` and
/// `to` default to the whole timeline, a `deadline_ms` of 0 is a deadline
/// already passed and a missing one is the server default. The server
/// checks what the values mean.
pub fn decode_query(body: &str) -> Result<wire::Request, String> {
    let v = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let vector = decode_vector(&v)?;
    let k = v.get("k").and_then(Value::as_u64).ok_or("missing \"k\"")? as usize;
    let from = v.get("from").and_then(Value::as_i64).unwrap_or(i64::MIN);
    let to = v.get("to").and_then(Value::as_i64).unwrap_or(i64::MAX);
    let deadline = match v.get("deadline_ms") {
        None => None,
        Some(d) => Some(Duration::from_millis(
            d.as_u64().ok_or("\"deadline_ms\" must be a non-negative integer")?,
        )),
    };
    Ok(wire::Request::Query { vector, k, from, to, deadline })
}

/// Decodes a `POST /insert` body: its vector and timestamp.
pub fn decode_insert(body: &str) -> Result<wire::Request, String> {
    let v = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let vector = decode_vector(&v)?;
    let timestamp = v.get("timestamp").and_then(Value::as_i64).ok_or("missing \"timestamp\"")?;
    Ok(wire::Request::Insert { vector, timestamp })
}

/// The `"vector"` array of a request body.
fn decode_vector(v: &Value) -> Result<Vec<f32>, String> {
    let seq = v.get("vector").and_then(Value::as_seq).ok_or("missing \"vector\" array")?;
    let floats = seq.iter().map(|x| x.as_f64().map(|f| f as f32));
    floats.collect::<Option<_>>().ok_or_else(|| "non-numeric vector element".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_post_with_body_and_auth() {
        let req = parse(
            "POST /query?x=1 HTTP/1.1\r\nHost: h\r\nAuthorization: Bearer tok-a\r\nX-Tenant: alpha\r\nContent-Length: 7\r\n\r\n{\"k\":3}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.bearer.as_deref(), Some("tok-a"));
        assert_eq!(req.tenant.as_deref(), Some("alpha"));
        assert_eq!(req.body, "{\"k\":3}");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_is_honoured() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(parse("NOT-HTTP\r\n\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(parse(""), Err(ParseError::Closed)));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn an_endless_head_line_is_refused_at_the_cap() {
        // No newline ever arrives: the parser stops one byte past the cap
        // instead of buffering the stream.
        for prefix in ["", "GET / HTTP/1.1\r\n"] {
            let endless = prefix.as_bytes().chain(std::io::repeat(b'a'));
            match read_request(&mut BufReader::new(endless)) {
                Err(ParseError::Malformed(m)) => assert_eq!(m, "request head too large"),
                other => panic!("{prefix:?}: {other:?}"),
            }
        }
        // A head of exactly the cap still parses; one byte more does not.
        let head = |pad: usize| {
            let fixed = "GET / HTTP/1.1\r\nx-pad: \r\n\r\n".len();
            format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "p".repeat(pad - fixed))
        };
        assert!(parse(&head(MAX_HEAD_BYTES)).is_ok());
        assert!(matches!(parse(&head(MAX_HEAD_BYTES + 1)), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn response_is_well_formed() {
        let mut buf = Vec::new();
        write_response(&mut buf, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
        assert_eq!(error_body("no"), "{\"error\":\"no\"}");
    }
}
