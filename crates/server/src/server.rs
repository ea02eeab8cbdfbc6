//! The serving loop: accept, sniff the protocol, admit, route, respond.
//!
//! One thread accepts; each connection gets its own thread (the offline
//! build environment has no async runtime, and per-connection threads serve
//! the tested load fine). A connection's first 4 bytes pick the protocol:
//! the magic [`MAGIC`](crate::wire::MAGIC) opens the binary framing,
//! anything else is parsed as HTTP/1.1.
//!
//! Admission control is two nested gates: a connection cap (refused
//! connections get an immediate overload response and close) and an
//! in-flight request cap (excess requests are shed with
//! `503`/`Overloaded` instead of queueing). Deadlines ride the engine's
//! cooperative check: an expired query comes back flagged partial and is
//! answered with `408`/`Timeout` — the connection and server keep serving.

use crate::config::ServerConfig;
use crate::http::{self, ParseError};
use crate::metrics::ServerMetrics;
use crate::replicate::{self, FollowerLink};
use crate::signal;
use crate::tenant::{Reader, Tenant, TenantEngine, TenantError, TenantRegistry};
use crate::wire::{self, Op, Request, Status};
use mbi_core::{MbiError, QueryOutput, TimeWindow};
use serde::Value;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection read timeout used to poll the stop flag between requests.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// How long [`ServerHandle::shutdown`] waits for in-flight work to drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Bound on the connect that wakes the accept loop at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The server. Construct with [`Server::start`]; it returns a
/// [`ServerHandle`] immediately and serves on background threads.
pub struct Server;

/// Everything shared across the accept loop and connection threads.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) registry: Arc<TenantRegistry>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) stop: AtomicBool,
}

impl Server {
    /// Builds every tenant engine, binds `config.addr`, and starts serving.
    pub fn start(config: ServerConfig) -> Result<ServerHandle, MbiError> {
        let registry = Arc::new(TenantRegistry::build(&config)?);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            registry: Arc::clone(&registry),
            metrics: ServerMetrics::default(),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("mbi-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(MbiError::Io)?;
        // Each replica tenant gets a tailing thread that fetches from its
        // leader until shutdown or promotion.
        let mut followers = Vec::new();
        for tenant in registry.all() {
            if matches!(tenant.engine, TenantEngine::Replica { .. }) {
                let tenant = Arc::clone(tenant);
                let shared = Arc::clone(&shared);
                let thread = std::thread::Builder::new()
                    .name(format!("mbi-repl-{}", tenant.name))
                    .spawn(move || replicate::run_follower(tenant, shared))
                    .map_err(MbiError::Io)?;
                followers.push(thread);
            }
        }
        Ok(ServerHandle { addr, shared, accept: Some(accept), followers })
    }
}

/// Handle to a running server: its address, shutdown, and introspection.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    followers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (read this back when the config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The tenant registry (tests and the CLI read metrics through it).
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.shared.registry
    }

    /// Blocks until a termination signal (or [`signal::request_shutdown`])
    /// arrives, then drains gracefully. The CLI's serving loop.
    pub fn wait_for_shutdown(mut self) {
        while !signal::shutdown_requested() && !self.shared.stop.load(Ordering::Relaxed) {
            std::thread::sleep(POLL_INTERVAL);
        }
        self.drain();
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests and open
    /// connections (bounded by an internal timeout), then checkpoint every
    /// durable tenant's WAL and drop the engines (which joins their
    /// builders).
    pub fn shutdown(mut self) {
        self.drain();
    }

    /// Simulated crash for the fault-injection suite: stop serving but
    /// *leak* the engines so no `Drop` runs — no WAL sync, no checkpoint,
    /// no builder join. Recovery must then reconstruct every acked insert
    /// from the log alone.
    pub fn abort(mut self) {
        self.stop_accepting();
        std::mem::forget(Arc::clone(&self.shared.registry));
    }

    /// Raises the stop flag and wakes the accept loop, which blocks in
    /// `accept()`, with one connection to the listener's own address. If
    /// that connect fails the accept thread is left detached — it exits at
    /// the next connection it accepts — so shutdown never hangs on it.
    fn stop_accepting(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let Some(accept) = self.accept.take() else { return };
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok() {
            let _ = accept.join();
        }
    }

    fn drain(&mut self) {
        self.stop_accepting();
        for t in self.followers.drain(..) {
            let _ = t.join();
        }
        let gone = Instant::now() + DRAIN_TIMEOUT;
        while self.shared.metrics.connections.load(Ordering::Relaxed) > 0 && Instant::now() < gone {
            std::thread::sleep(Duration::from_millis(5));
        }
        for tenant in self.shared.registry.all() {
            let Reader::Streaming(e) = tenant.reader() else { continue };
            if e.durable_dir().is_some() {
                if let Err(err) = e.checkpoint() {
                    eprintln!("checkpoint of tenant {:?} failed: {err}", tenant.name);
                }
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.drain();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // The stop flag is raised before the wake-up connection is made, so
        // the accept that returns it sees the flag.
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let open = shared.metrics.connections.fetch_add(1, Ordering::Relaxed) + 1;
                if open > shared.config.max_connections {
                    shared.metrics.connections.fetch_sub(1, Ordering::Relaxed);
                    shared.metrics.connections_refused.fetch_add(1, Ordering::Relaxed);
                    refuse(stream);
                    continue;
                }
                let conn_shared = Arc::clone(&shared);
                let spawned =
                    std::thread::Builder::new().name("mbi-conn".into()).spawn(move || {
                        let _open = GaugeGuard(&conn_shared.metrics.connections);
                        serve_connection(stream, &conn_shared);
                    });
                if spawned.is_err() {
                    shared.metrics.connections.fetch_sub(1, Ordering::Relaxed);
                    shared.metrics.connections_refused.fetch_add(1, Ordering::Relaxed);
                }
            }
            // A failed accept (an aborted handshake, or out of descriptors)
            // is retried; back off briefly so descriptor exhaustion does not
            // spin this thread.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Best-effort overload response to a connection refused at the cap; we
/// cannot know its protocol yet, so answer in both.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let body = http::error_body("connection limit reached");
    let _ = http::write_response(&mut stream, 503, &body, false);
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut sniff = [0u8; 4];
    let mut got = 0usize;
    // The idle deadline (the slow-loris guard) starts here: a connection
    // that cannot even produce its 4 sniff bytes in time is dropped.
    let idle_gone = shared.config.idle_timeout.map(|d| Instant::now() + d);
    while got < 4 {
        match poll_read(shared, idle_gone, || (&stream).read(&mut sniff[got..])) {
            Some(0) | None => return,
            Some(n) => got += n,
        }
    }
    if sniff == wire::MAGIC {
        serve_binary(&stream, shared);
    } else {
        serve_http(&stream, &sniff, shared);
    }
}

/// Runs `read` until it returns without timing out, checking the stop flag
/// and the idle deadline at each read timeout. `None` when the server
/// stops, the deadline passes (counted in `idle_dropped`) or `read` fails.
fn poll_read<T>(
    shared: &Shared,
    idle_gone: Option<Instant>,
    mut read: impl FnMut() -> std::io::Result<T>,
) -> Option<T> {
    loop {
        match read() {
            Ok(v) => return Some(v),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return None;
                }
                if idle_gone.is_some_and(|gone| Instant::now() >= gone) {
                    shared.metrics.idle_dropped.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// Waits until the reader has buffered data: `false` when the peer closes,
/// the server stops, or the idle deadline passes without a byte arriving.
/// The deadline is re-armed per request — it bounds *idle* time, not
/// connection lifetime.
fn wait_readable<R: Read>(reader: &mut BufReader<R>, shared: &Shared) -> bool {
    let idle_gone = shared.config.idle_timeout.map(|d| Instant::now() + d);
    poll_read(shared, idle_gone, || reader.fill_buf().map(|b| !b.is_empty())) == Some(true)
}

/// RAII decrement for a gauge (requests in flight, open connections): a
/// panic that unwinds past it gives the count back too.
struct GaugeGuard<'a>(&'a AtomicUsize);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The admission gate: a query or an insert over the in-flight cap is shed
/// and counted on its tenant.
fn admit<'a>(shared: &'a Shared, tenant: &Tenant) -> Result<GaugeGuard<'a>, Refusal> {
    let now = shared.metrics.inflight.fetch_add(1, Ordering::Relaxed) + 1;
    if now > shared.config.max_inflight {
        shared.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
        shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
        tenant.metrics.shed.fetch_add(1, Ordering::Relaxed);
        return Err(Refusal::new((503, Status::Overloaded), "server overloaded"));
    }
    Ok(GaugeGuard(&shared.metrics.inflight))
}

// ---------------------------------------------------------------------------
// The request path both protocols share
// ---------------------------------------------------------------------------

/// Who sends a request. HTTP presents credentials with every request; a
/// binary connection authenticates once, with AUTH, and acts for that
/// tenant from then on.
enum Caller<'a> {
    /// An HTTP request's `X-Tenant` name and bearer token.
    Credentials { tenant: Option<&'a str>, token: Option<&'a str> },
    /// A binary connection's tenant: `None` until an AUTH succeeds.
    Session(Option<&'a Arc<Tenant>>),
}

/// What a served request answers with; each protocol encodes it.
enum Outcome {
    /// AUTH succeeded: the connection acts for this tenant from now on.
    Authenticated(Arc<Tenant>),
    /// PING.
    Pong,
    /// A replica tenant was promoted.
    Promoted,
    /// A query's results, partial if its deadline expired.
    Results(QueryOutput),
    /// The row id an insert was given.
    Inserted(u32),
    /// A stats or health document.
    Document(Value),
    /// A fetch reply, laid out as the [`wire`] module doc sets out.
    Batch(Vec<u8>),
}

/// A refused request: its HTTP status and binary status, and a message.
pub(crate) struct Refusal {
    pub(crate) status: (u16, Status),
    pub(crate) message: String,
}

impl Refusal {
    pub(crate) fn new(status: (u16, Status), message: impl Into<String>) -> Self {
        Refusal { status, message: message.into() }
    }

    /// A request the client got wrong: 400 and `BadRequest`.
    pub(crate) fn bad_request(message: impl Into<String>) -> Self {
        Self::new((400, Status::BadRequest), message)
    }
}

impl From<TenantError> for Refusal {
    fn from(e: TenantError) -> Self {
        Self::new(e.status(), e.to_string())
    }
}

const UNAUTHORIZED: (u16, Status) = (401, Status::Unauthorized);

/// Resolves credentials to a tenant. With a tenant name the `(name, token)`
/// pair must match; without one the token alone must identify its tenant.
/// A rejection is counted on the tenant it names.
fn authenticate<'a>(
    shared: &'a Shared,
    name: Option<&str>,
    token: &str,
) -> Result<&'a Arc<Tenant>, Refusal> {
    let registry = &shared.registry;
    let found = match name {
        Some(name) => registry.authenticate(name, token),
        None => registry.by_token(token),
    };
    found.ok_or_else(|| {
        if let Some(t) = name.and_then(|n| registry.by_name(n)) {
            t.metrics.unauthorized.fetch_add(1, Ordering::Relaxed);
        }
        Refusal::new(UNAUTHORIZED, "invalid credentials")
    })
}

/// Serves one decoded request: the one path both protocols take. It
/// authenticates the caller, admits a query or an insert through the
/// in-flight gate, checks a query's `k`, window order and dimension, runs
/// the tenant operation and counts it in the tenant's metrics. A query runs
/// on the calling thread under its own deadline, else the server default.
fn serve<'a>(
    caller: Caller<'a>,
    request: Request,
    link: &mut Option<FollowerLink>,
    shared: &'a Shared,
) -> Result<Outcome, Refusal> {
    let tenant = match (&request, caller) {
        (Request::Ping, _) => return Ok(Outcome::Pong),
        (Request::Auth { tenant, token }, _) => {
            let tenant = authenticate(shared, Some(tenant), token)?;
            return Ok(Outcome::Authenticated(Arc::clone(tenant)));
        }
        (_, Caller::Session(Some(tenant))) => tenant,
        (_, Caller::Session(None)) => return Err(Refusal::new(UNAUTHORIZED, "authenticate first")),
        (_, Caller::Credentials { token: None, .. }) => {
            return Err(Refusal::new(UNAUTHORIZED, "missing bearer token"))
        }
        (_, Caller::Credentials { tenant, token: Some(token) }) => {
            authenticate(shared, tenant, token)?
        }
    };
    let _inflight = match request {
        Request::Query { .. } | Request::Insert { .. } => Some(admit(shared, tenant)?),
        _ => None,
    };
    match request {
        Request::Query { vector, k, from, to, deadline } => {
            if k == 0 {
                return Err(Refusal::bad_request("k must be positive"));
            }
            if from > to {
                return Err(Refusal::bad_request(format!("window start {from} is after end {to}")));
            }
            if vector.len() != tenant.dim() {
                return Err(Refusal::bad_request(format!(
                    "query dimension {} does not match index dimension {}",
                    vector.len(),
                    tenant.dim()
                )));
            }
            let start = Instant::now();
            let deadline = deadline.or(shared.config.default_deadline).map(|d| start + d);
            let window = TimeWindow::new(from, to);
            let out = tenant.query(&vector, k, window, deadline)?;
            if out.timed_out {
                tenant.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            tenant.metrics.queries.fetch_add(1, Ordering::Relaxed);
            tenant.metrics.query_latency.record(start.elapsed());
            Ok(Outcome::Results(out))
        }
        Request::Insert { vector, timestamp } => {
            let id = tenant.insert(&vector, timestamp)?;
            tenant.metrics.inserts.fetch_add(1, Ordering::Relaxed);
            Ok(Outcome::Inserted(id))
        }
        Request::Stats => Ok(Outcome::Document(stats_value(tenant, shared))),
        Request::Health => Ok(Outcome::Document(tenant.health_value())),
        Request::Promote => {
            tenant.promote()?;
            Ok(Outcome::Promoted)
        }
        Request::Fetch { follower, from_row } => {
            replicate::serve_fetch(tenant, follower, from_row, link).map(Outcome::Batch)
        }
        Request::Ping | Request::Auth { .. } => unreachable!("answered before the tenant lookup"),
    }
}

/// The `/stats` document: server-wide gauges plus the authenticated
/// tenant's own serving metrics and engine stats.
fn stats_value(tenant: &Arc<Tenant>, shared: &Shared) -> Value {
    let uptime = shared.metrics.started.elapsed();
    let mut doc = vec![
        ("server".into(), shared.metrics.to_value()),
        ("tenant".into(), Value::Str(tenant.name.clone())),
        ("serving".into(), tenant.metrics.to_value(uptime)),
        ("engine".into(), tenant.engine_stats_value()),
    ];
    if let Some(followers) = tenant.followers_value() {
        doc.push(("followers".into(), followers));
    }
    Value::Map(doc)
}

// ---------------------------------------------------------------------------
// HTTP protocol
// ---------------------------------------------------------------------------

fn serve_http(stream: &TcpStream, sniffed: &[u8], shared: &Shared) {
    // The sniffed bytes are the start of the request line.
    let mut reader = BufReader::new(sniffed.chain(stream));
    let mut out = stream;
    loop {
        if !wait_readable(&mut reader, shared) {
            return;
        }
        let request = match http::read_request(&mut reader) {
            Ok(r) => r,
            Err(ParseError::Closed | ParseError::Io(_)) => return,
            Err(ParseError::Malformed(m)) => {
                // An oversized request head is the HTTP face of the frame
                // cap: 431 and its own counter, not a generic 400.
                let (counter, status) = if m == "request head too large" {
                    (&shared.metrics.oversized, 431)
                } else {
                    (&shared.metrics.bad_requests, 400)
                };
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = http::write_response(&mut out, status, &http::error_body(&m), false);
                return;
            }
        };
        let keep_alive = request.keep_alive;
        let (status, body) = handle_http_request(&request, shared);
        if http::write_response(&mut out, status, &body, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Routes one HTTP request: `/healthz` is answered here, for the whole
/// server and without credentials; every other endpoint decodes its body
/// into a [`Request`] that [`serve`] answers for the caller's tenant.
fn handle_http_request(req: &http::Request, shared: &Shared) -> (u16, String) {
    let decoded = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => return healthz(shared),
        ("GET", "/stats") => Ok(Request::Stats),
        ("POST", "/query") => http::decode_query(&req.body),
        ("POST", "/insert") => http::decode_insert(&req.body),
        ("POST", "/promote") => Ok(Request::Promote),
        ("GET" | "POST", _) => return (404, http::error_body("no such endpoint")),
        _ => return (405, http::error_body("method not allowed")),
    };
    let caller =
        Caller::Credentials { tenant: req.tenant.as_deref(), token: req.bearer.as_deref() };
    let served = decoded
        .map_err(Refusal::bad_request)
        .and_then(|request| serve(caller, request, &mut None, shared));
    let field = |name: &str, value| http::render(Value::Map(vec![(name.into(), value)]));
    match served {
        Ok(Outcome::Results(done)) => {
            let results = (done.results.iter())
                .map(|r| {
                    Value::Map(vec![
                        ("id".into(), Value::UInt(u64::from(r.id))),
                        ("timestamp".into(), Value::Int(r.timestamp)),
                        ("dist".into(), Value::Float(f64::from(r.dist))),
                    ])
                })
                .collect();
            let body = Value::Map(vec![
                ("results".into(), Value::Seq(results)),
                ("timed_out".into(), Value::Bool(done.timed_out)),
            ]);
            (if done.timed_out { 408 } else { 200 }, http::render(body))
        }
        Ok(Outcome::Inserted(id)) => (200, field("id", Value::UInt(u64::from(id)))),
        Ok(Outcome::Promoted) => (200, field("promoted", Value::Bool(true))),
        Ok(Outcome::Document(doc)) => (200, http::render(doc)),
        Ok(Outcome::Authenticated(_) | Outcome::Pong | Outcome::Batch(_)) => {
            unreachable!("no HTTP endpoint decodes to AUTH, PING or a fetch")
        }
        Err(refusal) => (refusal.status.0, http::error_body(&refusal.message)),
    }
}

fn healthz(shared: &Shared) -> (u16, String) {
    let tenants: Vec<(String, Value)> =
        shared.registry.all().iter().map(|t| (t.name.clone(), t.health_value())).collect();
    let halted = shared.registry.any_halted();
    // A replica trailing its leader past the configured threshold degrades
    // the report (still 200 — the data it serves is stale, not wrong).
    let lagging = shared.registry.all().iter().any(|t| {
        t.replication_lag_rows().is_some_and(|lag| lag > shared.config.replica_lag_warn_rows)
    });
    let status = if halted {
        "halted"
    } else if lagging {
        "degraded"
    } else {
        "ok"
    };
    let body = Value::Map(vec![
        ("status".into(), Value::Str(status.into())),
        ("tenants".into(), Value::Map(tenants)),
    ]);
    (if halted { 503 } else { 200 }, http::render(body))
}

// ---------------------------------------------------------------------------
// Binary protocol
// ---------------------------------------------------------------------------

fn serve_binary(stream: &TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    let mut out = stream;
    // The connection's authenticated tenant. A follower's first fetch
    // registers it as connected until the connection closes.
    let mut tenant: Option<Arc<Tenant>> = None;
    let mut follower = None;
    loop {
        if !wait_readable(&mut reader, shared) {
            return;
        }
        // A frame that cannot be read, or names no op, is answered and ends
        // the connection: the stream is out of step.
        let frame = match wire::read_frame_limit(&mut reader, shared.config.max_frame_bytes) {
            Ok(None) => return,
            Ok(Some((tag, payload))) => match Op::from_u8(tag) {
                Some(op) => Ok((op, payload)),
                None => Err((&shared.metrics.bad_requests, "unknown op")),
            },
            Err(e) if e.to_string().contains("exceeds cap") => {
                Err((&shared.metrics.oversized, "frame too large"))
            }
            Err(_) => Err((&shared.metrics.bad_requests, "bad frame")),
        };
        let (op, payload) = match frame {
            Ok(frame) => frame,
            Err((counter, message)) => {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = wire::write_frame(&mut out, Status::BadRequest as u8, message.as_bytes());
                return;
            }
        };
        let served =
            Request::decode(op, &payload).map_err(Refusal::bad_request).and_then(|request| {
                serve(Caller::Session(tenant.as_ref()), request, &mut follower, shared)
            });
        let (status, response) = match served {
            Ok(Outcome::Results(done)) => {
                let flags = if done.timed_out { wire::FLAG_TIMED_OUT } else { 0 };
                let body = wire::encode_results(&done.results, flags);
                (if done.timed_out { Status::Timeout } else { Status::Ok }, body)
            }
            Ok(Outcome::Inserted(id)) => (Status::Ok, id.to_le_bytes().to_vec()),
            Ok(Outcome::Document(doc)) => (Status::Ok, http::render(doc).into_bytes()),
            Ok(Outcome::Batch(batch)) => (Status::Ok, batch),
            Ok(Outcome::Authenticated(t)) => {
                tenant = Some(t);
                (Status::Ok, Vec::new())
            }
            Ok(Outcome::Pong | Outcome::Promoted) => (Status::Ok, Vec::new()),
            Err(refusal) => (refusal.status.1, refusal.message.into_bytes()),
        };
        if op == Op::ReplFetch && replicate::reply_fault(&mut out, &response).is_err() {
            return;
        }
        if send_reply(&mut out, status, &response).is_err() {
            return;
        }
    }
}

/// Writes one reply frame. A reply over [`wire::MAX_FRAME`] is refused by
/// [`wire::write_frame`] before any byte is sent, so the connection is still
/// in step: the client gets a `BadRequest` frame in its place.
fn send_reply<W: Write>(out: &mut W, status: Status, response: &[u8]) -> std::io::Result<()> {
    match wire::write_frame(out, status as u8, response) {
        Err(e) if e.kind() == ErrorKind::InvalidInput => {
            wire::write_frame(out, Status::BadRequest as u8, e.to_string().as_bytes())
        }
        sent => sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_oversized_reply_is_answered_with_bad_request() {
        let mut out = Vec::new();
        send_reply(&mut out, Status::Ok, &vec![0u8; wire::MAX_FRAME]).unwrap();
        let mut sent = out.as_slice();
        let (tag, message) = wire::read_frame(&mut sent).unwrap().unwrap();
        assert_eq!(Status::from_u8(tag), Some(Status::BadRequest));
        let message = String::from_utf8(message).unwrap();
        assert!(message.contains("exceeds cap"), "{message}");
        assert!(sent.is_empty(), "no byte of the oversized frame was sent");
        // A reply within the cap goes out as it is.
        let mut out = Vec::new();
        send_reply(&mut out, Status::Ok, b"fits").unwrap();
        let (tag, body) = wire::read_frame(&mut out.as_slice()).unwrap().unwrap();
        assert_eq!((Status::from_u8(tag), body.as_slice()), (Some(Status::Ok), &b"fits"[..]));
    }

    /// A query body and an insert body the decoders accept.
    const VALID_BODIES: [&str; 2] = [
        r#"{"vector":[0.1,-2e3,3],"k":5,"from":-7,"to":90,"deadline_ms":250}"#,
        r#"{"vector":[0.1,0.2,0.3,0.4],"timestamp":-12}"#,
    ];

    /// The state of a server with one in-memory tenant `t` (token `tok`)
    /// of the dimension of the valid query body, holding a few rows. Built
    /// once and shared by every case.
    fn one_tenant() -> &'static Shared {
        static SHARED: std::sync::OnceLock<Shared> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| {
            let index = mbi_core::MbiConfig::new(3, mbi_math::Metric::Euclidean).with_leaf_size(4);
            let config = ServerConfig::new("127.0.0.1:0", index)
                .with_tenant(crate::TenantConfig::memory("t", "tok"));
            let registry = Arc::new(TenantRegistry::build(&config).unwrap());
            let tenant = registry.by_name("t").unwrap();
            for i in 0..6 {
                tenant.insert(&[i as f32, 0.5, -1.0], i64::from(i)).unwrap();
            }
            let (metrics, stop) = (ServerMetrics::default(), AtomicBool::new(false));
            Shared { config, registry, metrics, stop }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        /// Hostile HTTP bodies — arbitrary bytes, and the valid bodies with
        /// bytes overwritten, then maybe cut and extended, each decoded
        /// lossily (the request reader refuses a body that is not UTF-8) —
        /// make the query and the insert body decoders answer `Ok` or an
        /// error, never panic. Each body is also served as a `POST /query`,
        /// and its decoded query through [`serve`] as a binary session
        /// sends it: a body that does not decode, a query for no
        /// neighbours, over a reversed window or of another dimension is
        /// refused with 400/`BadRequest`, and every other query is answered.
        #[test]
        fn arbitrary_http_bodies_never_panic(
            kind in 0..3usize,
            raw in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..160),
            writes in proptest::collection::vec(
                (proptest::arbitrary::any::<usize>(), proptest::arbitrary::any::<u8>()), 1..5),
            cut in proptest::arbitrary::any::<usize>(),
        ) {
            proptest::prop_assert!(http::decode_query(VALID_BODIES[0]).is_ok());
            proptest::prop_assert!(http::decode_insert(VALID_BODIES[1]).is_ok());
            let bytes = match kind {
                0 => raw,
                _ => {
                    let mut b = VALID_BODIES[kind - 1].as_bytes().to_vec();
                    for &(at, x) in &writes {
                        let at = at % b.len();
                        b[at] = x;
                    }
                    if cut % 2 == 1 {
                        b.truncate(cut / 2 % (b.len() + 1));
                        b.extend(raw);
                    }
                    b
                }
            };
            let body = String::from_utf8_lossy(&bytes);
            let _ = http::decode_insert(&body);
            let shared = one_tenant();
            let post = http::Request {
                method: "POST".into(),
                path: "/query".into(),
                bearer: Some("tok".into()),
                tenant: Some("t".into()),
                keep_alive: true,
                body: body.to_string(),
            };
            let (status, answer) = handle_http_request(&post, shared);
            let query = http::decode_query(&body);
            // What the refusal's message names: the decoder's error, or the
            // first of the handler's checks the query fails.
            let refused = match &query {
                Err(m) => Some(m.clone()),
                Ok(Request::Query { k: 0, .. }) => Some("k must".to_string()),
                Ok(Request::Query { from, to, .. }) if from > to => {
                    Some(format!("window start {from} "))
                }
                Ok(Request::Query { vector, .. }) if vector.len() != 3 => {
                    Some(format!("query dimension {} ", vector.len()))
                }
                Ok(_) => None,
            };
            let tenant = shared.registry.by_name("t");
            let session = query
                .map_err(Refusal::bad_request)
                .and_then(|query| serve(Caller::Session(tenant), query, &mut None, shared));
            match refused {
                Some(m) => {
                    let refusal = session.err().expect("the session's query is refused");
                    proptest::prop_assert_eq!(refusal.status, (400, Status::BadRequest));
                    proptest::prop_assert!(refusal.message.starts_with(&m), "{}", refusal.message);
                    let same = (400, http::error_body(&refusal.message));
                    proptest::prop_assert_eq!((status, answer), same);
                }
                None => {
                    proptest::prop_assert!(status == 200 || status == 408, "{} {}", status, answer);
                    proptest::prop_assert!(matches!(session, Ok(Outcome::Results(_))));
                }
            }
        }
    }
}
