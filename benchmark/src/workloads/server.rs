//! `server_loopback`: `mbi-server` with one in-memory tenant seeded over the
//! wire, queried by two binary-protocol connections on bands `w01` + `w05`.
//!
//! Engine work on those bands is tens of microseconds, so framing, admission,
//! per-connection threads and syscalls are most of each request;
//! `hot_windows` bypasses all of it. Callers wait for replies, hence a closed
//! loop. Client and server share the machine: this measures the service
//! stack over loopback TCP, not a network.

use crate::common::{
    self, band_plan, close_trace, closed_loop, repeat_setup, time_each, Base, BaseRef, Ctx, Item,
    LoopSpec, Outcome, Tally,
};
use crate::harness::{median, p50_us, peak_rss_mb, Rounds};
use crate::layers::{self, Client, RawConn, ServerUnderTest};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const NAME: &str = "server_loopback";
/// Binary-protocol connections of the main phase, one client thread each.
const CONNECTIONS: usize = 2;

struct State<'a> {
    base: BaseRef<'a>,
    server: ServerUnderTest,
    seed_s: f64,
    clients: Vec<Client>,
}

/// Inserts every row over one binary connection, then polls `/stats` until
/// no build is queued. Returns the seconds until every row is graph-indexed.
fn seed_over_wire(server: &ServerUnderTest, base: &Base, rows: usize, tally: &mut Tally) -> f64 {
    let mut client = layers::connect(server.addr);
    let t = Instant::now();
    for i in 0..rows {
        let (v, ts) = layers::train_row(&base.dataset, i);
        match layers::client_insert(&mut client, v, ts) {
            Ok(_) => tally.ok(1),
            Err(e) => tally.fail(|| format!("seed insert {i}: {e}")),
        }
    }
    let give_up = Instant::now() + Duration::from_secs(120);
    loop {
        match layers::client_stats(&mut client) {
            Ok(s) if s.rows == rows as u64 && s.queued_builds == 0 => break,
            Ok(_) if Instant::now() < give_up => std::thread::sleep(Duration::from_millis(2)),
            Ok(s) => {
                tally.fail(|| format!("builds never drained: {s:?}"));
                break;
            }
            Err(e) => {
                tally.fail(|| format!("stats: {e}"));
                break;
            }
        }
    }
    t.elapsed().as_secs_f64()
}

fn setup<'a>(ctx: &Ctx, shared: Option<&'a Base>, coalesce: bool, tally: &mut Tally) -> State<'a> {
    let base = Base::obtain(ctx, shared, false);
    let server = layers::start_server(coalesce);
    let seed_s = seed_over_wire(&server, &base, ctx.scale.rows, tally);
    let clients = (0..CONNECTIONS).map(|_| layers::connect(server.addr)).collect();
    State { base, server, seed_s, clients }
}

/// One closed-loop client per connection, each warming up on a pass of the
/// plan and starting the clock together. Returns every client's rounds, each
/// round's qps scaled by the number of clients (they run side by side).
/// Errors and refused requests are tallied as failures.
fn load(
    clients: &mut [Client],
    base: &Base,
    plan: &[Item],
    spec: LoopSpec,
    tally: &mut Tally,
) -> Rounds {
    let start = Barrier::new(clients.len());
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let start = &start;
                scope.spawn(move || {
                    let (mut calls, mut errors) = (0u64, Vec::new());
                    let mut request = |i: usize| {
                        let it = &plan[i];
                        let q = layers::test_vector(&base.dataset, it.vector);
                        calls += 1;
                        match layers::client_query(client, q, it.window) {
                            Ok(results) => drop(std::hint::black_box(results)),
                            Err(e) => errors.push(e),
                        }
                    };
                    (0..plan.len()).for_each(&mut request);
                    start.wait();
                    let spec = LoopSpec { seed: spec.seed ^ (c as u64 + 1), ..spec };
                    let timed = closed_loop(plan.len(), spec, request);
                    (timed, calls, errors)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut all = Rounds::default();
    for (timed, calls, errors) in per_client {
        tally.ok(calls - errors.len() as u64);
        errors.into_iter().for_each(|e| tally.fail(|| format!("binary query: {e}")));
        all.merge(timed.rounds);
    }
    all.qps.iter_mut().for_each(|qps| *qps *= clients.len() as f64);
    all
}

pub fn run(ctx: &Ctx, shared: Option<&Base>) -> Outcome {
    let mut out = Outcome::new(NAME);
    let reps = if shared.is_some() { 1 } else { ctx.scale.setup_reps };
    let mut seed_s = Vec::new();
    let (st, setup_s) = repeat_setup(reps, || {
        let st = setup(ctx, shared, false, &mut out.tally);
        seed_s.push(st.seed_s);
        st
    });
    out.phase("seed", (reps * ctx.scale.rows) as u64);
    let State { base, server, mut clients, .. } = st;
    let base: &Base = &base;
    let rows = ctx.scale.rows;
    let plan = band_plan(&base.dataset, rows, &[0, 1], ctx.scale.per_band, ctx.seed);

    verify(&mut out, &server, &mut clients[0], base, &plan);

    // Main phase: two binary connections, closed loop.
    let rounds = load(&mut clients, base, &plan, ctx.main_loop(), &mut out.tally);
    out.phase("main", rounds.queries);
    out.end_to_end(
        setup_s,
        &rounds,
        rows as f64 / median(&seed_s),
        server.with_engine(layers::engine_bytes_ratio),
        peak_rss_mb(),
    );

    match layers::client_stats(&mut clients[0]) {
        Ok(s) => {
            out.layers.set("server.shed_share", s.shed as f64 / s.queries.max(1) as f64, "ratio");
            out.layers.set("server.reported_query_p50_us", s.reported_p50_us, "us");
        }
        Err(e) => out.tally.fail(|| format!("stats: {e}")),
    }

    if ctx.trace {
        traced_round(&mut out, &server, base, &plan);
        side_phases(&mut out, &server, &mut clients[0], base, &plan, ctx);
    }
    out
}

/// Untimed pass on one connection: every reply well-formed and bit-identical
/// to the tenant's engine queried in-process; recall against its exact scan.
fn verify(
    out: &mut Outcome,
    server: &ServerUnderTest,
    client: &mut Client,
    base: &Base,
    plan: &[Item],
) {
    let mut sum = 0.0;
    for it in plan {
        let q = layers::test_vector(&base.dataset, it.vector);
        match layers::client_query(client, q, it.window) {
            Ok(got) => {
                let (want, exact) = server.with_engine(|e| {
                    (
                        layers::engine_query(e, q, it.window).results,
                        layers::engine_exact(e, q, it.window),
                    )
                });
                out.tally.answer(&got, it.window, NAME);
                out.tally.same(&got, &want, "wire reply vs in-process engine");
                sum += layers::recall(&got, &exact);
            }
            Err(e) => out.tally.fail(|| format!("verify query: {e}")),
        }
    }
    out.phase("verify", 0);
    out.e2e.set("recall_at_10", sum / plan.len() as f64, "ratio");
}

/// One round on one otherwise idle connection with a span around each step
/// of a request — `request → {encode, socket, decode}` — next to the
/// in-process reference span. The untraced side of the round is the base of
/// `server.overhead_p50_us`.
fn traced_round(out: &mut Outcome, server: &ServerUnderTest, base: &Base, plan: &[Item]) {
    let mut conn = match RawConn::dial(server.addr) {
        Ok(c) => c,
        Err(e) => return out.tally.fail(|| format!("raw connection: {e}")),
    };
    let mut failures = Vec::new();
    let (mut plain, rec) = common::traced_round(plan.len(), |i, rec| {
        let it = &plan[i];
        let q = layers::test_vector(&base.dataset, it.vector);
        let results = match rec {
            None => {
                let payload = RawConn::encode_query(q, it.window);
                conn.query_round_trip(&payload).and_then(|body| RawConn::decode_results(&body))
            }
            Some((rec, n)) => {
                let request = rec.enter("request", n);
                let payload = rec.span("encode", n, || RawConn::encode_query(q, it.window));
                let body = rec.span("socket", n, || conn.query_round_trip(&payload));
                let results = rec.span("decode", n, || RawConn::decode_results(&body?));
                rec.exit(request);
                server.with_engine(|e| {
                    rec.span("reference.engine", n, || {
                        std::hint::black_box(layers::engine_query(e, q, it.window).results);
                    })
                });
                results
            }
        };
        match results {
            Ok(r) => drop(std::hint::black_box(r)),
            Err(e) => failures.push(e),
        }
    });
    failures.into_iter().for_each(|e| out.tally.fail(|| format!("traced query: {e}")));
    let in_process_p50 = p50_us(&mut rec.durations_ns("reference.engine"));
    out.layers.set("server.overhead_p50_us", p50_us(&mut plain) - in_process_p50, "us");
    close_trace(out, plain, rec);
}

/// PING, HTTP `POST /query`, a second server with the coalescer on, and
/// binary INSERT (last: it changes the tenant's rows).
fn side_phases(
    out: &mut Outcome,
    server: &ServerUnderTest,
    client: &mut Client,
    base: &Base,
    plan: &[Item],
    ctx: &Ctx,
) {
    let side = ctx.scale.side_queries;
    let timed = |n: usize, f: &mut dyn FnMut(usize) -> Result<(), String>, tally: &mut Tally| {
        let mut lat = time_each(n, |i| match f(i) {
            Ok(()) => tally.ok(1),
            Err(e) => tally.fail(|| e),
        });
        p50_us(&mut lat)
    };

    let ping = timed(8 * side, &mut |_| layers::client_ping(client), &mut out.tally);
    out.layers.set("server.ping_p50_us", ping, "us");

    let addr = server.addr;
    let t = Instant::now();
    let http = timed(
        2 * side,
        &mut |i| {
            let it = &plan[i * plan.len() / (2 * side)];
            let q = layers::test_vector(&base.dataset, it.vector);
            match layers::http_query(addr, q, it.window)? {
                200 => Ok(()),
                status => Err(format!("http status {status}")),
            }
        },
        &mut out.tally,
    );
    out.layers.set("server.http_query_p50_us", http, "us");
    out.layers.set("server.http_qps", (2 * side) as f64 / t.elapsed().as_secs_f64(), "1/s");

    // A coalesced query waits out the 2 ms window, so this phase runs on a
    // sample of the plan that keeps the band mix.
    let sample: Vec<Item> =
        plan.iter().step_by((plan.len() / side.max(1)).max(1)).copied().collect();
    let mut coalesced = setup(ctx, Some(base), true, &mut out.tally);
    let spec = LoopSpec { seconds: ctx.seconds.min(1.0), ..ctx.main_loop() };
    let (p50, _, qps) = load(&mut coalesced.clients, base, &sample, spec, &mut out.tally).medians();
    out.layers.set("server.coalesce_query_p50_us", p50, "us");
    out.layers.set("server.coalesce_qps", qps, "1/s");
    match layers::client_stats(&mut coalesced.clients[0]) {
        Ok(s) => out.layers.set("server.coalesce_ratio", s.coalesce_ratio, "ratio"),
        Err(e) => out.tally.fail(|| format!("coalesced stats: {e}")),
    }
    drop(coalesced);

    // Re-inserting the newest rows keeps timestamps non-decreasing.
    let rows = ctx.scale.rows;
    let newest = layers::train_row(&base.dataset, rows - 1).1;
    let insert = timed(
        4 * side,
        &mut |i| {
            let v = layers::train_row(&base.dataset, i % rows).0;
            layers::client_insert(client, v, newest).map(drop)
        },
        &mut out.tally,
    );
    out.layers.set("server.insert_p50_us", insert, "us");
    out.phase("side", (14 * side) as u64);
}
