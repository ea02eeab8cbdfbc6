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
use crate::http::{self, ParseError, Request};
use crate::metrics::ServerMetrics;
use crate::replicate::{self, FollowerLink};
use crate::signal;
use crate::tenant::{Tenant, TenantRegistry};
use crate::wire::{self, Op, Status};
use mbi_core::{MbiError, QueryOutput, TimeWindow};
use serde::Value;
use std::io::{BufReader, Read, Write};
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
            if matches!(tenant.engine, crate::tenant::TenantEngine::Replica { .. }) {
                let tenant = Arc::clone(tenant);
                let shared = Arc::clone(&shared);
                let thread = std::thread::Builder::new()
                    .name(format!("mbi-repl-{}", tenant.name))
                    .spawn(move || replicate::run_follower(tenant, shared))
                    .map_err(MbiError::Io)?;
                followers.push(thread);
            }
        }
        Ok(ServerHandle { addr, shared, registry, accept: Some(accept), followers })
    }
}

/// Handle to a running server: its address, shutdown, and introspection.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    registry: Arc<TenantRegistry>,
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
        &self.registry
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
        std::mem::forget(Arc::clone(&self.registry));
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
        for tenant in self.registry.all() {
            match &tenant.engine {
                crate::tenant::TenantEngine::Streaming(e) if e.durable_dir().is_some() => {
                    if let Err(err) = e.checkpoint() {
                        eprintln!("checkpoint of tenant {:?} failed: {err}", tenant.name);
                    }
                }
                crate::tenant::TenantEngine::Replica { replica, .. } => {
                    if let Err(err) = replica.engine().checkpoint() {
                        eprintln!("checkpoint of replica {:?} failed: {err}", tenant.name);
                    }
                }
                _ => {}
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
    let mut buf = Vec::new();
    let _ =
        http::write_response(&mut buf, 503, &http::error_body("connection limit reached"), false);
    let _ = stream.write_all(&buf);
}

/// A `Read` that replays the sniffed prefix before the live stream.
struct PrefixedStream<'a> {
    prefix: &'a [u8],
    pos: usize,
    stream: &'a TcpStream,
}

impl Read for PrefixedStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.prefix.len() {
            let n = (&self.prefix[self.pos..]).read(buf)?;
            self.pos += n;
            return Ok(n);
        }
        self.stream.read(buf)
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut sniff = [0u8; 4];
    let mut got = 0usize;
    // Collect the 4 sniff bytes, polling the stop flag on timeouts. The
    // idle deadline (the slow-loris guard) starts here: a connection that
    // cannot even produce 4 bytes in time is dropped.
    let idle_gone = shared.config.idle_timeout.map(|d| Instant::now() + d);
    while got < 4 {
        match (&stream).read(&mut sniff[got..]) {
            Ok(0) => return,
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                if idle_gone.is_some_and(|gone| Instant::now() >= gone) {
                    shared.metrics.idle_dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            Err(_) => return,
        }
    }
    if sniff == wire::MAGIC {
        serve_binary(&stream, shared);
    } else {
        serve_http(&stream, &sniff, shared);
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Waits until the reader has buffered data, the peer closes (`Ok(false)`),
/// the server stops (`Ok(false)`), or the idle deadline passes without a
/// byte arriving (`Ok(false)`, counted in `idle_dropped`). The deadline is
/// re-armed per request — it bounds *idle* time, not connection lifetime.
fn wait_readable<R: Read>(reader: &mut BufReader<R>, shared: &Shared) -> std::io::Result<bool> {
    use std::io::BufRead;
    let idle_gone = shared.config.idle_timeout.map(|d| Instant::now() + d);
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(false),
            Ok(_) => return Ok(true),
            Err(e) if is_timeout(&e) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return Ok(false);
                }
                if idle_gone.is_some_and(|gone| Instant::now() >= gone) {
                    shared.metrics.idle_dropped.fetch_add(1, Ordering::Relaxed);
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// RAII decrement for a gauge (requests in flight, open connections): a
/// panic that unwinds past it gives the count back too.
struct GaugeGuard<'a>(&'a AtomicUsize);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The admission gate: `None` means shed.
fn admit(shared: &Shared) -> Option<GaugeGuard<'_>> {
    let now = shared.metrics.inflight.fetch_add(1, Ordering::Relaxed) + 1;
    if now > shared.config.max_inflight {
        shared.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
        shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    Some(GaugeGuard(&shared.metrics.inflight))
}

/// Runs one query on the connection's thread under its deadline (the
/// request's own, else the server default) and records tenant metrics.
fn run_query(
    tenant: &Tenant,
    query: &[f32],
    k: usize,
    window: TimeWindow,
    explicit_deadline: Option<Duration>,
    shared: &Shared,
) -> Result<QueryOutput, String> {
    if query.len() != tenant.dim() {
        return Err(format!(
            "query dimension {} does not match index dimension {}",
            query.len(),
            tenant.dim()
        ));
    }
    let start = Instant::now();
    let deadline = explicit_deadline.or(shared.config.default_deadline).map(|d| Instant::now() + d);
    let out = tenant.query(query, k, window, deadline).map_err(|e| e.to_string())?;
    if out.timed_out {
        tenant.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
    }
    tenant.metrics.queries.fetch_add(1, Ordering::Relaxed);
    tenant.metrics.query_latency.record(start.elapsed());
    Ok(out)
}

// ---------------------------------------------------------------------------
// HTTP protocol
// ---------------------------------------------------------------------------

fn serve_http(stream: &TcpStream, sniffed: &[u8], shared: &Shared) {
    let mut reader = BufReader::new(PrefixedStream { prefix: sniffed, pos: 0, stream });
    let mut out = stream;
    loop {
        match wait_readable(&mut reader, shared) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let request = match http::read_request(&mut reader) {
            Ok(r) => r,
            Err(ParseError::Closed) => return,
            Err(ParseError::Io(_)) => return,
            Err(ParseError::Malformed(m)) => {
                // An oversized request head is the HTTP face of the frame
                // cap: 431 and its own counter, not a generic 400.
                let status = if m == "request head too large" {
                    shared.metrics.oversized.fetch_add(1, Ordering::Relaxed);
                    431
                } else {
                    shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                    400
                };
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

fn handle_http_request(req: &Request, shared: &Shared) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/stats") => match authenticate_http(req, shared) {
            Ok(tenant) => (200, render(stats_value(tenant, shared))),
            Err(resp) => resp,
        },
        ("POST", "/query") => match authenticate_http(req, shared) {
            Ok(tenant) => http_query(req, tenant, shared),
            Err(resp) => resp,
        },
        ("POST", "/insert") => match authenticate_http(req, shared) {
            Ok(tenant) => http_insert(req, tenant, shared),
            Err(resp) => resp,
        },
        ("POST", "/promote") => match authenticate_http(req, shared) {
            Ok(tenant) => match tenant.promote() {
                Ok(()) => (200, render(Value::Map(vec![("promoted".into(), Value::Bool(true))]))),
                Err(e) => (e.status().0, http::error_body(&e.to_string())),
            },
            Err(resp) => resp,
        },
        ("GET" | "POST", _) => (404, http::error_body("no such endpoint")),
        _ => (405, http::error_body("method not allowed")),
    }
}

/// Resolves the request's credentials to a tenant. With an `X-Tenant`
/// header the `(name, token)` pair must match; without one the token alone
/// must uniquely identify its tenant.
fn authenticate_http<'a>(
    req: &Request,
    shared: &'a Shared,
) -> Result<&'a Arc<Tenant>, (u16, String)> {
    let Some(token) = req.bearer.as_deref() else {
        return Err((401, http::error_body("missing bearer token")));
    };
    let found = match req.tenant.as_deref() {
        Some(name) => shared.registry.authenticate(name, token),
        None => shared.registry.by_token(token),
    };
    found.ok_or_else(|| {
        // Attribute the rejection to the named tenant when one was claimed.
        if let Some(t) = req.tenant.as_deref().and_then(|n| shared.registry.by_name(n)) {
            t.metrics.unauthorized.fetch_add(1, Ordering::Relaxed);
        }
        (401, http::error_body("invalid credentials"))
    })
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
    (if halted { 503 } else { 200 }, render(body))
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

fn http_query(req: &Request, tenant: &Arc<Tenant>, shared: &Shared) -> (u16, String) {
    let Some(guard) = admit(shared) else {
        tenant.metrics.shed.fetch_add(1, Ordering::Relaxed);
        return (503, http::error_body("server overloaded"));
    };
    let _guard = guard;
    let parsed = match parse_query_body(&req.body) {
        Ok(p) => p,
        Err(m) => return (400, http::error_body(&m)),
    };
    let (query, k, window, deadline) = parsed;
    match run_query(tenant, &query, k, window, deadline, shared) {
        Ok(done) => {
            let results: Vec<Value> = done
                .results
                .iter()
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
            (if done.timed_out { 408 } else { 200 }, render(body))
        }
        Err(m) => (400, http::error_body(&m)),
    }
}

type ParsedQuery = (Vec<f32>, usize, TimeWindow, Option<Duration>);

fn parse_query_body(body: &str) -> Result<ParsedQuery, String> {
    let v = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let query = parse_vector(&v)?;
    let k = v.get("k").and_then(Value::as_u64).ok_or("missing \"k\"")? as usize;
    if k == 0 {
        return Err("k must be positive".into());
    }
    let from = v.get("from").and_then(Value::as_i64).unwrap_or(i64::MIN);
    let to = v.get("to").and_then(Value::as_i64).unwrap_or(i64::MAX);
    if from > to {
        return Err(format!("window start {from} is after end {to}"));
    }
    let deadline = match v.get("deadline_ms") {
        None => None,
        Some(d) => Some(Duration::from_millis(
            d.as_u64().ok_or("\"deadline_ms\" must be a non-negative integer")?,
        )),
    };
    Ok((query, k, TimeWindow::new(from, to), deadline))
}

/// The `"vector"` array of a request body.
fn parse_vector(v: &Value) -> Result<Vec<f32>, String> {
    let seq = v.get("vector").and_then(Value::as_seq).ok_or("missing \"vector\" array")?;
    let floats = seq.iter().map(|x| x.as_f64().map(|f| f as f32));
    floats.collect::<Option<_>>().ok_or_else(|| "non-numeric vector element".into())
}

/// An insert body: its vector and timestamp. Every error is a 400.
fn parse_insert_body(body: &str) -> Result<(Vec<f32>, i64), String> {
    let v = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let vector = parse_vector(&v)?;
    let t = v.get("timestamp").and_then(Value::as_i64).ok_or("missing \"timestamp\"")?;
    Ok((vector, t))
}

fn http_insert(req: &Request, tenant: &Arc<Tenant>, shared: &Shared) -> (u16, String) {
    let Some(guard) = admit(shared) else {
        tenant.metrics.shed.fetch_add(1, Ordering::Relaxed);
        return (503, http::error_body("server overloaded"));
    };
    let _guard = guard;
    let (vector, t) = match parse_insert_body(&req.body) {
        Ok(p) => p,
        Err(m) => return (400, http::error_body(&m)),
    };
    match tenant.insert(&vector, t) {
        Ok(id) => {
            tenant.metrics.inserts.fetch_add(1, Ordering::Relaxed);
            (200, render(Value::Map(vec![("id".into(), Value::UInt(u64::from(id)))])))
        }
        Err(e) => (e.status().0, http::error_body(&e.to_string())),
    }
}

fn render(value: Value) -> String {
    struct W(Value);
    impl serde::Serialize for W {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&W(value)).expect("serialiser is total")
}

// ---------------------------------------------------------------------------
// Binary protocol
// ---------------------------------------------------------------------------

fn serve_binary(stream: &TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    let mut out = stream;
    // The connection's authenticated tenant; every op except AUTH and PING
    // requires it. A follower's first fetch registers it as connected
    // until the connection closes.
    let mut tenant: Option<Arc<Tenant>> = None;
    let mut follower = None;
    loop {
        match wait_readable(&mut reader, shared) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let (tag, payload) =
            match wire::read_frame_limit(&mut reader, shared.config.max_frame_bytes) {
                Ok(Some(f)) => f,
                Ok(None) => return,
                Err(e) => {
                    if e.to_string().contains("exceeds cap") {
                        shared.metrics.oversized.fetch_add(1, Ordering::Relaxed);
                        let _ = wire::write_frame(
                            &mut out,
                            Status::BadRequest as u8,
                            b"frame too large",
                        );
                    } else {
                        shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                        let _ = wire::write_frame(&mut out, Status::BadRequest as u8, b"bad frame");
                    }
                    return;
                }
            };
        let Some(op) = Op::from_u8(tag) else {
            shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = wire::write_frame(&mut out, Status::BadRequest as u8, b"unknown op");
            return;
        };
        let (status, response) = handle_binary_op(op, &payload, &mut tenant, &mut follower, shared);
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
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
            wire::write_frame(out, Status::BadRequest as u8, e.to_string().as_bytes())
        }
        sent => sent,
    }
}

fn handle_binary_op(
    op: Op,
    payload: &[u8],
    tenant: &mut Option<Arc<Tenant>>,
    follower: &mut Option<FollowerLink>,
    shared: &Shared,
) -> (Status, Vec<u8>) {
    match op {
        Op::Ping => (Status::Ok, Vec::new()),
        Op::Auth => {
            let mut r = wire::PayloadReader::new(payload);
            let parsed = (|| {
                let name = r.str16()?;
                let token = r.str16()?;
                r.finish()?;
                Ok::<_, String>((name, token))
            })();
            match parsed {
                Ok((name, token)) => match shared.registry.authenticate(&name, &token) {
                    Some(t) => {
                        *tenant = Some(Arc::clone(t));
                        (Status::Ok, Vec::new())
                    }
                    None => {
                        if let Some(t) = shared.registry.by_name(&name) {
                            t.metrics.unauthorized.fetch_add(1, Ordering::Relaxed);
                        }
                        (Status::Unauthorized, b"invalid credentials".to_vec())
                    }
                },
                Err(m) => (Status::BadRequest, m.into_bytes()),
            }
        }
        Op::Query => {
            let Some(tenant) = tenant.as_ref() else {
                return (Status::Unauthorized, b"authenticate first".to_vec());
            };
            let Some(guard) = admit(shared) else {
                tenant.metrics.shed.fetch_add(1, Ordering::Relaxed);
                return (Status::Overloaded, b"server overloaded".to_vec());
            };
            let _guard = guard;
            let mut r = wire::PayloadReader::new(payload);
            let parsed = (|| {
                let k = r.u32()? as usize;
                let from = r.i64()?;
                let to = r.i64()?;
                let deadline_ms = r.u32()?;
                let dim = r.u32()? as usize;
                let query = r.f32s(dim)?;
                r.finish()?;
                if k == 0 {
                    return Err("k must be positive".into());
                }
                if from > to {
                    return Err(format!("window start {from} is after end {to}"));
                }
                Ok::<_, String>((k, TimeWindow::new(from, to), deadline_ms, query))
            })();
            let (k, window, deadline_ms, query) = match parsed {
                Ok(p) => p,
                Err(m) => return (Status::BadRequest, m.into_bytes()),
            };
            let deadline = (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
            match run_query(tenant, &query, k, window, deadline, shared) {
                Ok(done) => {
                    let flags = if done.timed_out { wire::FLAG_TIMED_OUT } else { 0 };
                    let body = wire::encode_results(&done.results, flags);
                    (if done.timed_out { Status::Timeout } else { Status::Ok }, body)
                }
                Err(m) => (Status::BadRequest, m.into_bytes()),
            }
        }
        Op::Insert => {
            let Some(tenant) = tenant.as_ref() else {
                return (Status::Unauthorized, b"authenticate first".to_vec());
            };
            let Some(guard) = admit(shared) else {
                tenant.metrics.shed.fetch_add(1, Ordering::Relaxed);
                return (Status::Overloaded, b"server overloaded".to_vec());
            };
            let _guard = guard;
            let mut r = wire::PayloadReader::new(payload);
            let parsed = (|| {
                let t = r.i64()?;
                let dim = r.u32()? as usize;
                let vector = r.f32s(dim)?;
                r.finish()?;
                Ok::<_, String>((t, vector))
            })();
            let (t, vector) = match parsed {
                Ok(p) => p,
                Err(m) => return (Status::BadRequest, m.into_bytes()),
            };
            match tenant.insert(&vector, t) {
                Ok(id) => {
                    tenant.metrics.inserts.fetch_add(1, Ordering::Relaxed);
                    (Status::Ok, id.to_le_bytes().to_vec())
                }
                Err(e) => (e.status().1, e.to_string().into_bytes()),
            }
        }
        Op::Stats => {
            let Some(tenant) = tenant.as_ref() else {
                return (Status::Unauthorized, b"authenticate first".to_vec());
            };
            (Status::Ok, render(stats_value(tenant, shared)).into_bytes())
        }
        Op::Health => {
            let Some(tenant) = tenant.as_ref() else {
                return (Status::Unauthorized, b"authenticate first".to_vec());
            };
            (Status::Ok, render(tenant.health_value()).into_bytes())
        }
        Op::ReplFetch => {
            let Some(tenant) = tenant.as_ref() else {
                return (Status::Unauthorized, b"authenticate first".to_vec());
            };
            replicate::serve_fetch(payload, tenant, follower)
        }
        Op::Promote => {
            let Some(tenant) = tenant.as_ref() else {
                return (Status::Unauthorized, b"authenticate first".to_vec());
            };
            match tenant.promote() {
                Ok(()) => (Status::Ok, Vec::new()),
                Err(e) => (e.status().1, e.to_string().into_bytes()),
            }
        }
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

    /// A query body and an insert body the parsers accept.
    const VALID_BODIES: [&str; 2] = [
        r#"{"vector":[0.1,-2e3,3],"k":5,"from":-7,"to":90,"deadline_ms":250}"#,
        r#"{"vector":[0.1,0.2,0.3,0.4],"timestamp":-12}"#,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        /// Hostile HTTP bodies — arbitrary bytes, and the valid bodies with
        /// bytes overwritten, then maybe cut and extended, each decoded
        /// lossily (the request reader refuses a body that is not UTF-8) —
        /// make the query and the insert body parsers answer `Ok` or an
        /// error, which the handlers send as a 400, never panic. An accepted
        /// query asks for at least one neighbour over an ordered window.
        #[test]
        fn arbitrary_http_bodies_never_panic(
            kind in 0..3usize,
            raw in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..160),
            writes in proptest::collection::vec(
                (proptest::arbitrary::any::<usize>(), proptest::arbitrary::any::<u8>()), 1..5),
            cut in proptest::arbitrary::any::<usize>(),
        ) {
            proptest::prop_assert!(parse_query_body(VALID_BODIES[0]).is_ok());
            proptest::prop_assert!(parse_insert_body(VALID_BODIES[1]).is_ok());
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
            if let Ok((_, k, window, _)) = parse_query_body(&body) {
                proptest::prop_assert!(k > 0 && window.start <= window.end, "{}", body);
            }
            let _ = parse_insert_body(&body);
        }
    }
}
