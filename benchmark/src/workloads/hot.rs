//! `hot_windows`: the data fits in RAM, one thread, five window bands.
//!
//! `math` kernels, `ann` graph/brute-force search and `core::select` + merge
//! do all the work; disk, WAL and sockets do none. The bands span the paper's
//! Fig 5 axis from scan-dominated (`w01`) to root-graph (`w95`).

use crate::common::{
    self, band_plan, close_trace, closed_loop, repeat_setup, time_each, Base, Ctx, Item, Outcome,
    BANDS,
};
use crate::harness::{median, p50_us, peak_rss_mb};
use crate::layers::{self, Work};

pub const NAME: &str = "hot_windows";

pub fn run(ctx: &Ctx, shared: Option<&Base>) -> Outcome {
    let mut out = Outcome::new(NAME);
    let rows = ctx.scale.rows;
    let mut build_s = Vec::new();
    let reps = if shared.is_some() { 1 } else { ctx.scale.setup_reps };
    let ((base, plan), setup_s) = repeat_setup(reps, || {
        let base = Base::obtain(ctx, shared, true);
        build_s.push(base.build_s);
        let per_band = ctx.scale.hot_per_band;
        let plan = band_plan(&base.dataset, rows, &[0, 1, 2, 3, 4], per_band, ctx.seed);
        (base, plan)
    });
    let (d, idx) = (&base.dataset, base.index());

    // The checking pass doubles as the warm-up round.
    verify(&mut out, &base, &plan);

    // Main phase: closed loop, one thread.
    let mut work = Work::default();
    let mut calls = 0u64;
    let timed = closed_loop(plan.len(), ctx.main_loop(), |i| {
        let it = &plan[i];
        let a = layers::query(idx, layers::test_vector(d, it.vector), it.window);
        work.add(a.work);
        calls += 1;
        std::hint::black_box(a.results);
    });
    out.tally.ok(calls);
    out.phase("main", timed.rounds.queries);
    out.end_to_end(
        setup_s,
        &timed.rounds,
        rows as f64 / median(&build_s),
        layers::index_bytes_ratio(idx),
        peak_rss_mb(),
    );

    let per = |x: u64| x as f64 / calls as f64;
    out.layers.set("index.dist_evals_per_query", per(work.dist_evals), "count");
    out.layers.set("index.visited_per_query", per(work.visited), "count");
    out.layers.set("index.scanned_per_query", per(work.scanned), "count");
    out.layers.set("index.blocks_searched_per_query", per(work.blocks_searched), "count");
    out.layers.set("index.blocks_bruteforced_per_query", per(work.blocks_bruteforced), "count");
    for (b, (band, _)) in BANDS.iter().enumerate() {
        let mut lat: Vec<u64> = plan
            .iter()
            .zip(&timed.last_by_item)
            .filter(|(it, _)| it.band == b)
            .map(|(_, &ns)| ns)
            .collect();
        out.layers.set(format!("index.query_p50_us.{band}"), p50_us(&mut lat), "us");
    }

    if ctx.trace {
        traced_round(&mut out, &base, &plan);
        side_phases(&mut out, &base, &plan, ctx);
    }
    out
}

/// One round with a span around each call into a layer:
/// `request → {select: block_selection, exec: query_on_selection}`.
fn traced_round(out: &mut Outcome, base: &Base, plan: &[Item]) {
    let (d, idx) = (&base.dataset, base.index());
    let (mut blocks, mut tails) = (0usize, 0usize);
    let (plain, rec) = common::traced_round(plan.len(), |i, rec| {
        let it = &plan[i];
        let q = layers::test_vector(d, it.vector);
        let Some((rec, n)) = rec else {
            std::hint::black_box(layers::query(idx, q, it.window).results);
            return;
        };
        let request = rec.enter("request", n);
        let sel = rec.span("select", n, || layers::select(idx, it.window));
        let a = rec.span("exec", n, || layers::exec(idx, q, it.window, &sel));
        rec.exit(request);
        let (b, tail) = layers::selection_shape(&sel);
        blocks += b;
        tails += tail as usize;
        std::hint::black_box(a.results);
    });

    let n = plan.len() as f64;
    let self_ns = rec.self_time_ns();
    let select_us = self_ns["select"] as f64 / n / 1e3;
    let exec_us = self_ns["exec"] as f64 / n / 1e3;
    let mean_untraced_us = plain.iter().sum::<u64>() as f64 / n / 1e3;
    out.layers.set("select.us", select_us, "us");
    out.layers.set("select.blocks_per_query", blocks as f64 / n, "count");
    out.layers.set("select.tail_share", tails as f64 / n, "ratio");
    out.layers.set("index.exec_us", exec_us, "us");
    out.layers.set("index.attributed_share", (select_us + exec_us) / mean_untraced_us, "ratio");
    close_trace(out, plain, rec);
}

/// The same queries through the neighbouring paths: the published-snapshot
/// view, the two-thread fan-out on `w95`, and the BSBF reference curve.
fn side_phases(out: &mut Outcome, base: &Base, plan: &[Item], ctx: &Ctx) {
    let (d, idx) = (&base.dataset, base.index());
    let vec_of = |it: &Item| layers::test_vector(d, it.vector);
    let in_band = |b: usize| plan.iter().filter(move |it| it.band == b);
    let mut ops = 0;

    let snap = layers::snapshot_of(idx);
    let mut lat = time_each(plan.len(), |i| {
        let it = &plan[i];
        std::hint::black_box(layers::snapshot_query(&snap, vec_of(it), it.window).results);
    });
    out.layers.set("snapshot.query_p50_us", p50_us(&mut lat), "us");
    ops += lat.len();
    drop(snap);

    let w95: Vec<&Item> = in_band(BANDS.len() - 1).collect();
    let mut lat = time_each(w95.len(), |i| {
        let it = w95[i];
        std::hint::black_box(layers::query_fanout(idx, vec_of(it), it.window, 2).results);
    });
    out.layers.set("index.fanout2_query_p50_us", p50_us(&mut lat), "us");
    ops += lat.len();

    let bsbf = layers::build_bsbf(d, ctx.scale.rows);
    for (b, (band, _)) in BANDS.iter().enumerate() {
        let items: Vec<&Item> = in_band(b).take(ctx.scale.side_queries).collect();
        let mut lat = time_each(items.len(), |i| {
            let it = items[i];
            std::hint::black_box(layers::bsbf_query(&bsbf, vec_of(it), it.window));
        });
        out.layers.set(format!("bsbf.query_p50_us.{band}"), p50_us(&mut lat), "us");
        ops += lat.len();
    }
    out.tally.ok(ops as u64);
    out.phase("side", ops as u64);
}

/// Untimed pass: every answer well-formed, recall against the exact scan.
fn verify(out: &mut Outcome, base: &Base, plan: &[Item]) {
    let (d, idx) = (&base.dataset, base.index());
    let mut by_band = [0.0f64; BANDS.len()];
    for it in plan {
        let q = layers::test_vector(d, it.vector);
        let a = layers::query(idx, q, it.window);
        out.tally.answer(&a.results, it.window, NAME);
        by_band[it.band] += layers::recall(&a.results, &layers::exact(idx, q, it.window));
    }
    out.phase("verify", 0);
    let per_band = (plan.len() / BANDS.len()) as f64;
    for (b, (band, _)) in BANDS.iter().enumerate() {
        out.layers.set(format!("index.recall_at_10.{band}"), by_band[b] / per_band, "ratio");
    }
    out.e2e.set("recall_at_10", by_band.iter().sum::<f64>() / plan.len() as f64, "ratio");
}
