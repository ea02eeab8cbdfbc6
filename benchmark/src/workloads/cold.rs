//! `cold_budget`: the same index saved as a v7 snapshot and served by
//! `ColdIndex` at 25 % of its full-resident bytes.
//!
//! The working set is 4× the program's own cache, so `core::tier` (CRC +
//! decode + LRU) dominates and kernels are a rounding error — the workload a
//! disk-native rewrite must move, and the one a kernel change must not.
//! "Cold" here is a block-cache miss on a warm OS page cache: the sandbox
//! cannot drop the page cache.
//!
//! The main phase runs with selection-driven prefetch **off**. With it on,
//! a scoped helper thread decodes half of each cover; on the 2-vCPU shared
//! host its scheduling makes the tail bimodal (p99 18–28 ms between runs of
//! one seed), which no regression bound survives. The helper's effect is the
//! traced runs' `tier.prefetch_on_query_p50_us`.

use crate::common::{
    self, band_plan, close_trace, closed_loop, repeat_setup, time_each, Base, BaseRef, Ctx, Item,
    Outcome,
};
use crate::harness::{median, p50_us, peak_rss_mb};
use crate::layers::{self, Cold, Snapshot, TierCounters, Work};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAME: &str = "cold_budget";
/// Share of the full-resident bytes the main phase may keep in its cache.
const BUDGET_SHARE: f64 = 0.25;

struct State<'a> {
    base: BaseRef<'a>,
    snapshot: Snapshot,
    plan: Vec<Item>,
    file: PathBuf,
    file_bytes: u64,
    save_s: f64,
    /// Bytes resident after every piece the plan touches has been loaded.
    full_bytes: u64,
    open_s: f64,
    cold: Cold,
}

fn query_all(cold: &Cold, base: &Base, items: &[Item]) -> Vec<u64> {
    time_each(items.len(), |i| {
        let q = layers::test_vector(&base.dataset, items[i].vector);
        let a = layers::cold_query(cold, q, items[i].window);
        std::hint::black_box(a.map(|a| a.results).ok());
    })
}

fn open_without_prefetch(file: &Path, budget: u64) -> Cold {
    let cold = layers::open_cold(file, budget);
    layers::cold_set_prefetch(&cold, false);
    cold
}

fn setup<'a>(ctx: &Ctx, shared: Option<&'a Base>) -> State<'a> {
    let base = Base::obtain(ctx, shared, true);
    let snapshot = layers::snapshot_of(base.index());
    let sealed = layers::snapshot_rows(&snapshot);
    // A traced run shares its time among four workloads: half the plan.
    let per_band = ctx.scale.cold_per_band / if ctx.trace { 2 } else { 1 };
    let plan = band_plan(&base.dataset, sealed, &[0, 1, 2, 3, 4], per_band, ctx.seed);
    let file = ctx.work.join("cold.mbi");
    let t = Instant::now();
    let file_bytes = layers::save_snapshot(&snapshot, &file);
    let save_s = t.elapsed().as_secs_f64();

    // The budget is a share of what the plan keeps resident with no limit.
    let full = layers::open_cold(&file, u64::MAX);
    query_all(&full, &base, &plan);
    let full_bytes = layers::cold_counters(&full).bytes_resident;
    drop(full);

    let t = Instant::now();
    let cold = open_without_prefetch(&file, (full_bytes as f64 * BUDGET_SHARE) as u64);
    let open_s = t.elapsed().as_secs_f64();
    State { base, snapshot, plan, file, file_bytes, save_s, full_bytes, open_s, cold }
}

pub fn run(ctx: &Ctx, shared: Option<&Base>) -> Outcome {
    let mut out = Outcome::new(NAME);
    let reps = if shared.is_some() { 1 } else { ctx.scale.setup_reps };
    let mut build_s = Vec::new();
    let (st, setup_s) = repeat_setup(reps, || {
        let st = setup(ctx, shared);
        build_s.push(st.base.build_s);
        st
    });
    let base: &Base = &st.base;
    let d = &base.dataset;
    let sealed = layers::snapshot_rows(&st.snapshot);

    // The checking pass doubles as the warm-up round: it leaves the block
    // cache in the state a steady stream of these queries keeps it in.
    verify(&mut out, &st);

    // Main phase: closed loop, one thread, 25 % budget.
    let mut work = Work::default();
    let (mut calls, mut errors) = (0u64, 0u64);
    let before = layers::cold_counters(&st.cold);
    let timed = closed_loop(st.plan.len(), ctx.main_loop(), |i| {
        let it = &st.plan[i];
        calls += 1;
        match layers::cold_query(&st.cold, layers::test_vector(d, it.vector), it.window) {
            Ok(a) => {
                work.add(a.work);
                std::hint::black_box(a.results);
            }
            Err(_) => errors += 1,
        }
    });
    let after = layers::cold_counters(&st.cold);
    out.tally.ok(calls - errors);
    (0..errors).for_each(|_| out.tally.fail(|| "cold query returned an error".into()));
    out.phase("main", timed.rounds.queries);
    out.end_to_end(
        setup_s,
        &timed.rounds,
        ctx.scale.rows as f64 / median(&build_s),
        st.file_bytes as f64 / (sealed * layers::DIM * 4) as f64,
        peak_rss_mb(),
    );

    let delta = |f: fn(&TierCounters) -> u64| (f(&after) - f(&before)) as f64;
    let (hits, misses) = (delta(|c| c.hits), delta(|c| c.misses));
    out.layers.set("persist.save_s", st.save_s, "s");
    out.layers.set("persist.file_bytes", st.file_bytes as f64, "bytes");
    out.layers.set("tier.open_s", st.open_s, "s");
    out.layers.set("tier.hit_rate", hits / (hits + misses).max(1.0), "ratio");
    out.layers.set("tier.misses_per_query", misses / calls as f64, "count");
    out.layers.set("tier.evictions_per_query", delta(|c| c.evictions) / calls as f64, "count");
    out.layers.set("tier.bytes_resident", after.bytes_resident as f64, "bytes");
    out.layers.set("tier.budget_bytes", after.budget_bytes as f64, "bytes");
    out.layers.set("tier.dist_evals_per_query", work.dist_evals as f64 / calls as f64, "count");
    out.layers.set("tier.query_p50_us.b025", timed.rounds.medians().0, "us");

    if ctx.trace {
        traced_round(&mut out, &st, ctx);
        side_phases(&mut out, &st, ctx);
    }
    let _ = std::fs::remove_file(&st.file);
    out
}

/// A sample of the plan that keeps the band mix (cold queries cost many
/// milliseconds, so the traced round and the side phases run on half a side
/// phase's worth).
fn sample(st: &State, ctx: &Ctx) -> Vec<Item> {
    let step = (2 * st.plan.len() / ctx.scale.side_queries.max(1)).max(1);
    st.plan.iter().step_by(step).copied().collect()
}

/// One pass with a span around the call into the tier, next to the same
/// query on the in-RAM snapshot the file was written from.
fn traced_round(out: &mut Outcome, st: &State, ctx: &Ctx) {
    let base: &Base = &st.base;
    let sample = sample(st, ctx);
    let (plain, rec) = common::traced_round(sample.len(), |i, rec| {
        let it = &sample[i];
        let q = layers::test_vector(&base.dataset, it.vector);
        let Some((rec, n)) = rec else {
            std::hint::black_box(
                layers::cold_query(&st.cold, q, it.window).map(|a| a.results).ok(),
            );
            return;
        };
        let request = rec.enter("request", n);
        let a = rec.span("tier", n, || layers::cold_query(&st.cold, q, it.window));
        rec.exit(request);
        let r = rec
            .span("reference.snapshot", n, || layers::snapshot_query(&st.snapshot, q, it.window));
        std::hint::black_box((a.map(|a| a.results).ok(), r.results));
    });
    close_trace(out, plain, rec);
}

/// Budget 0, budget 100 % and 25 % with prefetch on.
fn side_phases(out: &mut Outcome, st: &State, ctx: &Ctx) {
    let base: &Base = &st.base;
    let sample = sample(st, ctx);
    let timed = |cold: &Cold| {
        let t = Instant::now();
        let mut lat = query_all(cold, base, &sample);
        let qps = sample.len() as f64 / t.elapsed().as_secs_f64();
        (p50_us(&mut lat), qps)
    };

    let b000 = open_without_prefetch(&st.file, 0);
    let (p50_b000, qps_b000) = timed(&b000);
    let misses_b000 = layers::cold_counters(&b000).misses as f64 / sample.len() as f64;
    drop(b000);
    out.layers.set("tier.query_p50_us.b000", p50_b000, "us");
    out.layers.set("tier.qps.b000", qps_b000, "1/s");

    // Twice the footprint, so shard rounding cannot evict at "100 %".
    let b100 = open_without_prefetch(&st.file, st.full_bytes * 2);
    query_all(&b100, base, &st.plan);
    let (p50_b100, qps_b100) = timed(&b100);
    drop(b100);
    out.layers.set("tier.query_p50_us.b100", p50_b100, "us");
    out.layers.set("tier.qps.b100", qps_b100, "1/s");
    out.layers.set("tier.miss_penalty_us", (p50_b000 - p50_b100) / misses_b000.max(1e-9), "us");

    let prefetching = layers::open_cold(&st.file, (st.full_bytes as f64 * BUDGET_SHARE) as u64);
    out.layers.set("tier.prefetch_on_query_p50_us", timed(&prefetching).0, "us");
    let prefetches = layers::cold_counters(&prefetching).prefetches;
    out.layers.set("tier.prefetches_per_query", prefetches as f64 / sample.len() as f64, "count");

    let ops = (4 * sample.len() + st.plan.len()) as u64;
    out.tally.ok(ops);
    out.phase("side", ops);
}

/// Untimed pass: every reply well-formed and bit-identical to the in-RAM
/// snapshot's answer to the same query; recall against the exact scan.
fn verify(out: &mut Outcome, st: &State) {
    let base: &Base = &st.base;
    let mut sum = 0.0;
    for it in &st.plan {
        let q = layers::test_vector(&base.dataset, it.vector);
        let want = layers::snapshot_query(&st.snapshot, q, it.window);
        match layers::cold_query(&st.cold, q, it.window) {
            Ok(got) => {
                out.tally.answer(&got.results, it.window, NAME);
                out.tally.same(&got.results, &want.results, "cold vs in-RAM snapshot");
                if got.work != want.work {
                    out.tally
                        .fail(|| format!("cold work {:?} != snapshot {:?}", got.work, want.work));
                }
                sum += layers::recall(
                    &got.results,
                    &layers::snapshot_exact(&st.snapshot, q, it.window),
                );
            }
            Err(e) => out.tally.fail(|| format!("cold query failed: {e}")),
        }
    }
    out.phase("verify", 0);
    out.e2e.set("recall_at_10", sum / st.plan.len() as f64, "ratio");
}
