//! `stream_ingest_query`: writes beside reads on a durable `StreamingMbi`.
//!
//! Phase A inserts most of the rows unpaced and flushes. Phase B inserts the
//! rest on an open-loop schedule (600 rows/s, each insert timed from when it
//! was due) while one reader issues closed-loop queries over recency-biased
//! windows. The builder thread uses the same kernels and
//! NNDescent code as queries and the reader's recent windows always hit the
//! unsealed tail and unpublished leaves — so a query gain that costs ingest,
//! a build gain that starves readers, or a WAL change that stalls inserts
//! shows here and nowhere else. Pacing keeps the reader's load constant when
//! insert speed changes.

use crate::common::{
    self, close_trace, closed_loop, repeat_setup, time_each, Base, BaseRef, Ctx, Outcome, Tally,
};
use crate::harness::{dir_bytes, median, p50_us, peak_rss_mb, percentile, Schedule};
use crate::layers::{self, Engine, TimeWindow, TknnResult};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const NAME: &str = "stream_ingest_query";
/// Rows per second of the open-loop writer, whatever the phase's length.
const PACED_ROWS_PER_S: f64 = 600.0;
/// Recency windows of the reader: newest 2 %, newest 20 %, all time.
const RECENCY: [f64; 3] = [0.02, 0.20, 1.0];

/// One planned query: test vector and recency window kind.
#[derive(Clone, Copy)]
struct Item {
    vector: usize,
    kind: usize,
}

struct State<'a> {
    base: BaseRef<'a>,
    dir: PathBuf,
    engine: Engine,
    setup_s: f64,
    /// Seconds Phase A took, flush included.
    phase_a_s: f64,
    queued_builds_max: usize,
}

/// Opens a fresh durable engine (the set-up), then runs Phase A on it: the
/// first `rows_a` rows unpaced, then a flush — the time until every row is
/// graph-indexed.
fn setup_and_phase_a<'a>(
    ctx: &Ctx,
    shared: Option<&'a Base>,
    rows_a: usize,
    tally: &mut Tally,
) -> State<'a> {
    let t = Instant::now();
    let base = Base::obtain(ctx, shared, false);
    let dir = ctx.work.join("stream");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = layers::open_engine(&dir);
    let setup_s = t.elapsed().as_secs_f64();

    let d = &base.dataset;
    let mut queued_builds_max = 0usize;
    let t = Instant::now();
    for i in 0..rows_a {
        let (v, ts) = layers::train_row(d, i);
        match layers::engine_insert(&engine, v, ts) {
            Ok(_) => tally.ok(1),
            Err(e) => tally.fail(|| format!("insert {i}: {e}")),
        }
        if (i + 1) % layers::LEAF == 0 {
            queued_builds_max = queued_builds_max.max(layers::engine_queued_builds(&engine));
        }
    }
    layers::engine_flush(&engine);
    let phase_a_s = t.elapsed().as_secs_f64();
    State { base, dir, engine, setup_s, phase_a_s, queued_builds_max }
}

pub fn run(ctx: &Ctx, shared: Option<&Base>) -> Outcome {
    let mut out = Outcome::new(NAME);
    let rows = ctx.scale.rows;
    // Phase B's schedule decides how many rows are left for Phase A.
    let rows_b = ((PACED_ROWS_PER_S * ctx.seconds) as usize).clamp(1, rows / 2);
    let rows_a = rows - rows_b;

    // Set-up and Phase A repeat together; both report their median.
    let reps = if shared.is_some() { 1 } else { ctx.scale.setup_reps };
    let (mut setup_s, mut phase_a_s) = (Vec::new(), Vec::new());
    let (st, _) = repeat_setup(reps, || {
        let st = setup_and_phase_a(ctx, shared, rows_a, &mut out.tally);
        setup_s.push(st.setup_s);
        phase_a_s.push(st.phase_a_s);
        st
    });
    out.phase("phase_a", (reps * rows_a) as u64);
    let (setup_s, phase_a_s) = (median(&setup_s), median(&phase_a_s));
    let queued_max = st.queued_builds_max;
    let base: &Base = &st.base;
    let d = &base.dataset;
    let vectors = layers::test_vectors(d);
    let plan: Vec<Item> = (0..RECENCY.len() * ctx.scale.per_band)
        .map(|i| Item { vector: i % vectors, kind: i / ctx.scale.per_band })
        .collect();
    let window = |it: &Item, len: usize| layers::newest_window(d, len, RECENCY[it.kind]);

    // Phase B: open-loop writer beside a closed-loop reader.
    let acked = AtomicUsize::new(rows_a);
    let start = Barrier::new(2);
    let mut tail_rows: Vec<u64> = Vec::new();
    let mut reader_calls = 0u64;
    let (timed, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            start.wait();
            let schedule =
                Schedule::new(Instant::now(), rows_b, Duration::from_secs_f64(ctx.seconds));
            let mut from_due = Vec::with_capacity(rows_b);
            let mut late = Vec::with_capacity(rows_b);
            let mut errors = Vec::new();
            for i in 0..rows_b {
                let (due, lateness) = schedule.wait(i);
                let (v, ts) = layers::train_row(d, rows_a + i);
                if let Err(e) = layers::engine_insert(&st.engine, v, ts) {
                    errors.push(format!("paced insert {i}: {e}"));
                }
                from_due.push(due.elapsed().as_nanos() as u64);
                late.push(lateness.as_nanos() as u64);
                // A statistic only: the reader sizes its windows from it.
                acked.store(rows_a + i + 1, Ordering::Relaxed);
            }
            (from_due, late, errors)
        });
        let mut read = |i: usize| {
            let it = &plan[i];
            let len = acked.load(Ordering::Relaxed);
            let q = layers::test_vector(d, it.vector);
            std::hint::black_box(layers::engine_query(&st.engine, q, window(it, len)).results);
            reader_calls += 1;
            if reader_calls.is_multiple_of(256) {
                tail_rows.push(layers::engine_tail_rows(&st.engine) as u64);
            }
        };
        (0..plan.len()).for_each(&mut read);
        start.wait();
        let timed = closed_loop(plan.len(), ctx.main_loop(), read);
        (timed, writer.join().expect("writer thread"))
    });
    let (mut from_due, mut late, insert_errors) = writer;
    out.tally.ok(reader_calls + rows_b as u64 - insert_errors.len() as u64);
    insert_errors.into_iter().for_each(|e| out.tally.fail(|| e));
    out.phase("phase_b", timed.rounds.queries + rows_b as u64);

    let t = Instant::now();
    layers::engine_flush(&st.engine);
    let flush_s = t.elapsed().as_secs_f64();
    let wal_dir = st.dir.join("wal");
    let wal_bytes = dir_bytes(&wal_dir);
    let wal_segments = std::fs::read_dir(&wal_dir).map_or(0, |entries| entries.count());
    let t = Instant::now();
    if let Err(e) = layers::engine_checkpoint(&st.engine) {
        out.tally.fail(|| format!("checkpoint: {e}"));
    }
    let checkpoint_s = t.elapsed().as_secs_f64();
    let raw_bytes = (rows * layers::DIM * 4) as f64;
    out.end_to_end(
        setup_s,
        &timed.rounds,
        rows_a as f64 / phase_a_s,
        dir_bytes(&st.dir) as f64 / raw_bytes,
        peak_rss_mb(),
    );

    let report = layers::engine_report(&st.engine);
    from_due.sort_unstable();
    late.sort_unstable();
    tail_rows.sort_unstable();
    let sorted = |mut v: Vec<u64>| {
        v.sort_unstable();
        v
    };
    let (inserts, builds, publishes) =
        (sorted(report.insert_nanos), sorted(report.build_nanos), sorted(report.publish_nanos));
    let l = &mut out.layers;
    l.set("engine.seals", report.seals as f64, "count");
    l.set("engine.published_leaves", report.published_leaves as f64, "count");
    l.set("engine.inline_builds", report.inline_builds as f64, "count");
    l.set("engine.queued_builds_max", queued_max as f64, "count");
    l.set("engine.build_p50_ms", percentile(&builds, 0.5) as f64 / 1e6, "ms");
    l.set("engine.build_busy_s", builds.iter().sum::<u64>() as f64 / 1e9, "s");
    l.set("engine.publish_p50_us", percentile(&publishes, 0.5) as f64 / 1e3, "us");
    l.set("engine.publish_max_us", publishes.last().copied().unwrap_or(0) as f64 / 1e3, "us");
    l.set("engine.tail_rows_p50", percentile(&tail_rows, 0.5) as f64, "count");
    l.set("engine.flush_s", flush_s, "s");
    l.set("engine.insert_p50_us", percentile(&inserts, 0.5) as f64 / 1e3, "us");
    l.set("engine.insert_max_us", inserts.last().copied().unwrap_or(0) as f64 / 1e3, "us");
    l.set("engine.insert_due_p99_us", percentile(&from_due, 0.99) as f64 / 1e3, "us");
    l.set("engine.generator_late_p99_us", percentile(&late, 0.99) as f64 / 1e3, "us");
    l.set("engine.busy_query_p50_us", timed.rounds.medians().0, "us");
    l.set("wal.bytes_per_row", wal_bytes as f64 / rows as f64, "bytes");
    l.set("wal.segments", wal_segments as f64, "count");
    l.set("wal.checkpoint_s", checkpoint_s, "s");
    l.set("wal.disk_bytes_per_user_byte", wal_bytes as f64 / raw_bytes, "ratio");

    // The fixed windows over the final state that recall, the idle pass, the
    // traced round and every equality check use.
    let fixed: Vec<TimeWindow> = plan.iter().map(|it| window(it, rows)).collect();
    if ctx.trace {
        idle_and_traced(&mut out, &st.engine, base, &plan, &fixed);
    }
    let before_drop = verify(&mut out, ctx, &st.engine, base, &plan, &fixed);

    // Drop the engine, recover it, and serve the same answers.
    drop(st.engine);
    let t = Instant::now();
    match layers::recover_engine(&st.dir) {
        Ok(recovered) => {
            let q = layers::test_vector(d, plan[0].vector);
            let first = layers::engine_query(&recovered, q, fixed[0]).results;
            out.layers.set("engine.recover_s", t.elapsed().as_secs_f64(), "s");
            if layers::engine_len(&recovered) == rows {
                out.tally.ok(1);
            } else {
                let got = layers::engine_len(&recovered);
                out.tally.fail(|| format!("recovered {got} rows, acked {rows}"));
            }
            out.tally.same(&first, &before_drop[0], "first query after recover");
            layers::engine_flush(&recovered);
            for ((it, w), want) in plan.iter().zip(&fixed).zip(&before_drop) {
                let q = layers::test_vector(d, it.vector);
                let got = layers::engine_query(&recovered, q, *w).results;
                out.tally.same(&got, want, "recovered vs pre-drop engine");
            }
        }
        Err(e) => {
            out.layers.set("engine.recover_s", t.elapsed().as_secs_f64(), "s");
            out.tally.fail(|| format!("recover: {e}"));
        }
    }
    out.phase("recover", 1);
    let _ = std::fs::remove_dir_all(&st.dir);
    out
}

/// The reader's plan with no ingest running (the idle-vs-busy base), then
/// one traced round: `request → engine`.
fn idle_and_traced(
    out: &mut Outcome,
    engine: &Engine,
    base: &Base,
    plan: &[Item],
    fixed: &[TimeWindow],
) {
    let d = &base.dataset;
    let mut idle = time_each(plan.len(), |i| {
        let q = layers::test_vector(d, plan[i].vector);
        std::hint::black_box(layers::engine_query(engine, q, fixed[i]).results);
    });
    out.layers.set("engine.idle_query_p50_us", p50_us(&mut idle), "us");
    out.tally.ok(plan.len() as u64);
    out.phase("idle", plan.len() as u64);

    let (plain, rec) = common::traced_round(plan.len(), |i, rec| {
        let q = layers::test_vector(d, plan[i].vector);
        let Some((rec, n)) = rec else {
            std::hint::black_box(layers::engine_query(engine, q, fixed[i]).results);
            return;
        };
        let request = rec.enter("request", n);
        let a = rec.span("engine", n, || layers::engine_query(engine, q, fixed[i]));
        rec.exit(request);
        std::hint::black_box(a.results);
    });
    close_trace(out, plain, rec);
}

/// Untimed pass after the final flush: every answer well-formed and equal to
/// a synchronously built `MbiIndex` over the same rows; recall against the
/// exact scan. Returns the answers, for the post-recover comparison.
fn verify(
    out: &mut Outcome,
    ctx: &Ctx,
    engine: &Engine,
    base: &Base,
    plan: &[Item],
    fixed: &[TimeWindow],
) -> Vec<Vec<TknnResult>> {
    let d = &base.dataset;
    let built;
    let sync = match &base.index {
        Some(idx) => idx,
        None => {
            built = layers::build_index(d, ctx.scale.rows);
            &built
        }
    };
    let mut sum = 0.0;
    let mut answers = Vec::with_capacity(plan.len());
    for (it, w) in plan.iter().zip(fixed) {
        let q = layers::test_vector(d, it.vector);
        let got = layers::engine_query(engine, q, *w).results;
        out.tally.answer(&got, *w, NAME);
        out.tally.same(&got, &layers::query(sync, q, *w).results, "engine vs synchronous index");
        sum += layers::recall(&got, &layers::engine_exact(engine, q, *w));
        answers.push(got);
    }
    out.phase("verify", 0);
    out.e2e.set("recall_at_10", sum / plan.len() as f64, "ratio");
    answers
}
