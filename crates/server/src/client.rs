//! Clients for both protocols: [`BinaryClient`] for the framed binary
//! protocol, and a minimal [`http_request`] helper the tests and bench use
//! against the JSON endpoints.

use crate::wire::{self, Op, Request, Status};
use mbi_core::{TimeWindow, TknnResult};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bounded-exponential retry with jitter for connects and transient
/// transport failures on **idempotent** calls (query/stats/health/ping —
/// an insert is never blindly resent: the client cannot know whether the
/// server applied it before the connection died).
///
/// The follower's replication link reuses this policy for its reconnect
/// backoff.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first failure (default 4; `0` disables retrying).
    pub max_retries: usize,
    /// Backoff before the first retry; doubles each retry (default 50 ms).
    pub initial_backoff: Duration,
    /// Backoff ceiling (default 2 s).
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the pre-resilience behaviour).
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, ..Self::default() }
    }

    /// The jittered backoff before retry `attempt` (0-based): half the
    /// bounded-exponential base plus a random slice of the other half, so
    /// a herd of clients reconnecting after one outage spreads out instead
    /// of stampeding in lockstep.
    pub fn backoff(&self, attempt: usize, rng: &mut u64) -> Duration {
        let base = self
            .initial_backoff
            .saturating_mul(1u32 << attempt.min(16) as u32)
            .min(self.max_backoff);
        let half = base / 2;
        half + base.mul_f64(0.5 * (xorshift(rng) % 1024) as f64 / 1024.0)
    }

    /// Runs `call` until it succeeds, fails with an error `transient` does
    /// not accept, or the retries are spent, sleeping the jittered backoff
    /// before each retry.
    fn run<T>(
        &self,
        rng: &mut u64,
        transient: impl Fn(&ClientError) -> bool,
        mut call: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0usize;
        loop {
            match call() {
                Err(e) if transient(&e) && attempt < self.max_retries => {
                    std::thread::sleep(self.backoff(attempt, rng));
                    attempt += 1;
                }
                done => return done,
            }
        }
    }
}

/// A tiny xorshift64 step — enough spread for backoff jitter without
/// pulling a PRNG crate into the client.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = (*state).max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Seeds jitter from the wall clock (the only entropy `std` offers).
pub(crate) fn jitter_seed() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9e37_79b9_7f4a_7c15)
        | 1
}

/// Errors a client call can return.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server answered with a non-OK status.
    Server {
        /// The response status.
        status: Status,
        /// The server's message (or decoded payload summary).
        message: String,
    },
    /// The response payload did not decode.
    Protocol(String),
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { status, message } => {
                write!(f, "server error {status:?}: {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

/// A query answer from the binary protocol.
pub struct QueryReply {
    /// The top-k results.
    pub results: Vec<TknnResult>,
    /// The deadline expired; results are partial.
    pub timed_out: bool,
}

/// One authenticated binary-protocol connection. Idempotent calls
/// (query/stats/health/ping) transparently reconnect and retry on transient
/// transport errors per the client's [`RetryPolicy`]; inserts never do.
///
/// After any transport or framing error the connection is dropped and the
/// next call dials a fresh one: a reply that arrives after its request gave
/// up must never be read as the answer to a later request.
pub struct BinaryClient {
    /// The live connection, read through a buffer and written through its
    /// socket; `None` after an error, until the next call re-dials.
    conn: Option<BufReader<TcpStream>>,
    peer: SocketAddr,
    tenant: String,
    token: String,
    retry: RetryPolicy,
    rng: u64,
    timeout: Option<Duration>,
}

impl BinaryClient {
    /// Connects, sends the protocol magic, and authenticates as
    /// `(tenant, token)`, retrying the connect itself per the default
    /// [`RetryPolicy`].
    pub fn connect(
        addr: impl ToSocketAddrs,
        tenant: &str,
        token: &str,
    ) -> Result<BinaryClient, ClientError> {
        Self::connect_with_retry(addr, tenant, token, RetryPolicy::default())
    }

    /// [`BinaryClient::connect`] with an explicit retry policy
    /// ([`RetryPolicy::none`] restores fail-fast behaviour).
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        tenant: &str,
        token: &str,
        retry: RetryPolicy,
    ) -> Result<BinaryClient, ClientError> {
        let peer = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        let mut rng = jitter_seed();
        // Auth/protocol rejections are deterministic; only transport errors
        // are worth retrying.
        let conn = retry.run(
            &mut rng,
            |e| matches!(e, ClientError::Io(_)),
            || Self::dial(peer, tenant, token, None),
        )?;
        Ok(BinaryClient {
            conn: Some(conn),
            peer,
            tenant: tenant.to_string(),
            token: token.to_string(),
            retry,
            rng,
            timeout: None,
        })
    }

    /// One fresh authenticated connection to `peer`. The magic and the AUTH
    /// frame go out in one write.
    fn dial(
        peer: SocketAddr,
        tenant: &str,
        token: &str,
        timeout: Option<Duration>,
    ) -> Result<BufReader<TcpStream>, ClientError> {
        let stream = TcpStream::connect(peer)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(timeout)?;
        let (op, auth) = Request::Auth { tenant: tenant.into(), token: token.into() }.encode();
        let mut hello = wire::MAGIC.to_vec();
        wire::push_frame(&mut hello, op as u8, &auth)?;
        (&stream).write_all(&hello)?;
        let mut conn = BufReader::new(stream);
        ok_body(read_reply(&mut conn)?)?;
        Ok(conn)
    }

    /// Sets a receive timeout on the connection (it survives reconnects).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.timeout = timeout;
        match &self.conn {
            Some(conn) => conn.get_ref().set_read_timeout(timeout),
            None => Ok(()),
        }
    }

    /// One raw round-trip; returns the status and untouched payload bytes.
    /// Re-dials first when the last call broke the connection, and drops the
    /// connection when this one breaks it.
    fn call_raw(&mut self, op: Op, payload: &[u8]) -> Result<(Status, Vec<u8>), ClientError> {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => Self::dial(self.peer, &self.tenant, &self.token, self.timeout)?,
        };
        let sent = wire::write_frame(&mut conn.get_ref(), op as u8, payload);
        let reply = sent.map_err(ClientError::Io).and_then(|()| read_reply(&mut conn));
        if !matches!(reply, Err(ClientError::Io(_) | ClientError::Protocol(_))) {
            self.conn = Some(conn);
        }
        reply
    }

    /// [`Self::call_raw`] with retry on transport errors — only safe for
    /// idempotent ops. A clean close mid-call
    /// (`Protocol("server closed mid-call")`) retries too: for a read-only
    /// op the work was either not done or safely repeatable. Each retry
    /// re-dials, and a failed re-dial consumes the attempt.
    fn call_raw_idempotent(&mut self, request: &Request) -> Result<(Status, Vec<u8>), ClientError> {
        let (op, payload) = request.encode();
        let (retry, mut rng) = (self.retry, self.rng);
        let transient = |e: &ClientError| !matches!(e, ClientError::Server { .. });
        let reply = retry.run(&mut rng, transient, || self.call_raw(op, &payload));
        self.rng = rng;
        reply
    }

    /// One request, not retried; a non-OK status is an error.
    pub(crate) fn call(&mut self, request: &Request) -> Result<Vec<u8>, ClientError> {
        let (op, payload) = request.encode();
        ok_body(self.call_raw(op, &payload)?)
    }

    fn call_idempotent(&mut self, request: &Request) -> Result<Vec<u8>, ClientError> {
        ok_body(self.call_raw_idempotent(request)?)
    }

    /// One kNN query. `deadline` of `None` uses the server's default.
    pub fn query(
        &mut self,
        vector: &[f32],
        k: usize,
        window: TimeWindow,
        deadline: Option<Duration>,
    ) -> Result<QueryReply, ClientError> {
        let (from, to) = (window.start, window.end);
        let request = Request::Query { vector: vector.to_vec(), k, from, to, deadline };
        let (status, body) = match self.call_raw_idempotent(&request)? {
            // A timed-out query still carries its (partial) encoded results.
            reply @ ((Status::Ok, _) | (Status::Timeout, _)) => reply,
            (status, body) => return Err(server_error(status, &body)),
        };
        let (flags, results) = wire::decode_results(&body).map_err(ClientError::Protocol)?;
        Ok(QueryReply {
            results,
            timed_out: flags & wire::FLAG_TIMED_OUT != 0 || status == Status::Timeout,
        })
    }

    /// One insert; returns the assigned row id.
    pub fn insert(&mut self, vector: &[f32], timestamp: i64) -> Result<u32, ClientError> {
        let body = self.call(&Request::Insert { vector: vector.to_vec(), timestamp })?;
        let bytes: [u8; 4] = body
            .as_slice()
            .try_into()
            .map_err(|_| ClientError::Protocol("insert reply is not a u32".into()))?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// The `/stats` document as a JSON string.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let body = self.call_idempotent(&Request::Stats)?;
        String::from_utf8(body).map_err(|_| ClientError::Protocol("stats not utf-8".into()))
    }

    /// The tenant's health document as a JSON string.
    pub fn health(&mut self) -> Result<String, ClientError> {
        let body = self.call_idempotent(&Request::Health)?;
        String::from_utf8(body).map_err(|_| ClientError::Protocol("health not utf-8".into()))
    }

    /// Round-trip liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call_idempotent(&Request::Ping).map(|_| ())
    }

    /// Promotes the authenticated replica tenant: verify its WAL tail and
    /// open it for writes (manual failover). Deliberately **not** retried:
    /// promotion is a state change the operator should observe directly.
    pub fn promote(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Promote).map(|_| ())
    }
}

/// Reads one reply frame: its status and payload.
fn read_reply(conn: &mut BufReader<TcpStream>) -> Result<(Status, Vec<u8>), ClientError> {
    let Some((tag, body)) = wire::read_frame(conn)? else {
        return Err(ClientError::Protocol("server closed mid-call".into()));
    };
    match Status::from_u8(tag) {
        Some(status) => Ok((status, body)),
        None => Err(ClientError::Protocol(format!("unknown status byte {tag}"))),
    }
}

/// The error a non-OK reply stands for: its status and the server's
/// message.
fn server_error(status: Status, body: &[u8]) -> ClientError {
    ClientError::Server { status, message: String::from_utf8_lossy(body).into_owned() }
}

/// The body of an OK reply; any other status is an error.
fn ok_body((status, body): (Status, Vec<u8>)) -> Result<Vec<u8>, ClientError> {
    match status {
        Status::Ok => Ok(body),
        status => Err(server_error(status, &body)),
    }
}

/// Sends one HTTP/1.1 request over a fresh connection and returns
/// `(status, body)`. `headers` are extra `Name: value` lines (e.g. the
/// `Authorization` and `X-Tenant` pair).
pub fn http_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Result<(u16, String), ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: mbi\r\nConnection: close\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line {status_line:?}")))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("eof inside response headers".into()));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ClientError::Protocol("bad content-length".into()))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body =
        String::from_utf8(body).map_err(|_| ClientError::Protocol("body not utf-8".into()))?;
    Ok((status, body))
}
