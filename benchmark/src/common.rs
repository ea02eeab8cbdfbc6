//! What the four workloads share: the run context, the dataset + index they
//! all start from, the query plan, the answer checks and the result record.

use crate::harness::{median, p50_us, Metrics, Recorder, Rounds, SplitMix};
use crate::layers::{self, Dataset, Index, TimeWindow, TknnResult, K};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The window-fraction bands of the paper's Fig 5 axis, scan-dominated
/// (`w01`) to root-graph (`w95`).
pub const BANDS: [(&str, f64); 5] =
    [("w01", 0.01), ("w05", 0.05), ("w20", 0.20), ("w50", 0.50), ("w95", 0.95)];

/// Sizes of one run. `full` is what `BENCHMARK.json` measures; `smoke` is
/// the self-test that keeps the harness from bit-rotting.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Train rows: 19 full leaves of 1024 plus a 544-row tail at full scale.
    pub rows: usize,
    /// Queries per band in a `hot_windows` round.
    pub hot_per_band: usize,
    /// Queries per band in a `cold_budget` round (cold queries cost
    /// milliseconds, so its rounds are short and two of them carry a p99).
    pub cold_per_band: usize,
    /// Queries per band in a `server_loopback` round (per connection) and per
    /// recency window in a `stream_ingest_query` round.
    pub per_band: usize,
    /// Queries of each side phase (traced runs only).
    pub side_queries: usize,
    /// How many times an untraced run sets up; `setup_s` is the median.
    pub setup_reps: usize,
}

impl Scale {
    pub const fn full() -> Scale {
        Scale {
            rows: 20_000,
            hot_per_band: 600,
            cold_per_band: 100,
            per_band: 600,
            side_queries: 250,
            setup_reps: 3,
        }
    }

    pub const fn smoke() -> Scale {
        Scale {
            rows: 2_000,
            hot_per_band: 200,
            cold_per_band: 100,
            per_band: 500,
            side_queries: 40,
            setup_reps: 1,
        }
    }
}

/// Everything a workload needs to know about this invocation.
pub struct Ctx {
    pub seed: u64,
    /// Length of the main timed phase.
    pub seconds: f64,
    /// Traced run: every workload runs once, briefly, with its side phases,
    /// and the per-layer metrics are reported.
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    /// How a workload's main closed loop runs: for `seconds`, and — unless
    /// this is a traced run, which reports no p99 — until the latencies can
    /// carry one.
    pub fn main_loop(&self) -> LoopSpec {
        LoopSpec { seed: self.seed, seconds: self.seconds, carry_p99: !self.trace }
    }
}

/// Order seed, length and p99 requirement of one closed loop.
#[derive(Clone, Copy)]
pub struct LoopSpec {
    pub seed: u64,
    pub seconds: f64,
    pub carry_p99: bool,
}

/// The dataset and (where a workload needs it) the synchronous index built
/// from it, with what the build cost.
pub struct Base {
    pub dataset: Dataset,
    pub index: Option<Index>,
    pub build_s: f64,
}

/// A workload's view of its [`Base`]: a traced run lends one to all four
/// workloads, an untraced run builds its own (once per set-up repetition).
pub enum BaseRef<'a> {
    Shared(&'a Base),
    Own(Box<Base>),
}

impl std::ops::Deref for BaseRef<'_> {
    type Target = Base;

    fn deref(&self) -> &Base {
        match self {
            BaseRef::Shared(base) => base,
            BaseRef::Own(base) => base,
        }
    }
}

impl Base {
    /// The lent base, or a freshly built one.
    pub fn obtain<'a>(ctx: &Ctx, shared: Option<&'a Base>, with_index: bool) -> BaseRef<'a> {
        shared.map_or_else(|| BaseRef::Own(Box::new(Base::build(ctx, with_index))), BaseRef::Shared)
    }

    pub fn build(ctx: &Ctx, with_index: bool) -> Base {
        let dataset = layers::generate(ctx.scale.rows, ctx.seed);
        let t = Instant::now();
        let index = with_index.then(|| layers::build_index(&dataset, ctx.scale.rows));
        let build_s = t.elapsed().as_secs_f64();
        Base { dataset, index, build_s }
    }

    pub fn index(&self) -> &Index {
        self.index.as_ref().expect("this workload asked for the index")
    }
}

/// Runs `setup` `reps` times, dropping each product before the next run so
/// peak memory is one set-up's; returns the last product and the median time.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// One planned query: which test vector, which band, which window.
#[derive(Clone, Copy, Debug)]
pub struct Item {
    pub vector: usize,
    pub band: usize,
    pub window: TimeWindow,
}

/// `per_band` queries for each of `bands`, windows placed by the seed over
/// the first `rows` rows; test vectors cycle.
pub fn band_plan(
    d: &Dataset,
    rows: usize,
    bands: &[usize],
    per_band: usize,
    seed: u64,
) -> Vec<Item> {
    let mut rng = SplitMix(seed ^ 0x77_69_6e_64_6f_77);
    let vectors = layers::test_vectors(d);
    let mut items = Vec::with_capacity(bands.len() * per_band);
    for &band in bands {
        for i in 0..per_band {
            let window = layers::window(d, rows, BANDS[band].1, rng.unit());
            items.push(Item { vector: i % vectors, band, window });
        }
    }
    items
}

/// Latency in nanoseconds of `op(i)` for each `i` in `0..n`, in order.
pub fn time_each(n: usize, mut op: impl FnMut(usize)) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let t = Instant::now();
            op(i);
            t.elapsed().as_nanos() as u64
        })
        .collect()
}

/// What a closed loop measured.
pub struct Timed {
    pub rounds: Rounds,
    /// The final round's latencies in nanoseconds, indexed by plan item.
    pub last_by_item: Vec<u64>,
}

/// One closed-loop client: whole rounds over the `items` of a plan, each in
/// a fresh seeded order, until the spec's seconds have passed. The next
/// operation starts when the previous one returns. Whole rounds keep every
/// per-query count an exact multiple of the plan's. The caller warms up first.
pub fn closed_loop(items: usize, spec: LoopSpec, mut op: impl FnMut(usize)) -> Timed {
    let mut rng = SplitMix(spec.seed ^ 0x6f_72_64_65_72);
    let mut order: Vec<usize> = (0..items).collect();
    let mut rounds = Rounds::default();
    let mut by_slot = vec![0u64; items];
    let mut last_by_item = vec![0u64; items];
    let deadline = Instant::now() + Duration::from_secs_f64(spec.seconds);
    loop {
        rng.shuffle(&mut order);
        let round = Instant::now();
        for (slot, &i) in order.iter().enumerate() {
            let t = Instant::now();
            op(i);
            by_slot[slot] = t.elapsed().as_nanos() as u64;
        }
        let wall = round.elapsed();
        for (slot, &i) in order.iter().enumerate() {
            last_by_item[i] = by_slot[slot];
        }
        rounds.push(&mut by_slot, wall);
        if Instant::now() >= deadline && !(spec.carry_p99 && rounds.p99_us.is_empty()) {
            break;
        }
    }
    Timed { rounds, last_by_item }
}

/// The traced round: every item of a plan once with spans (`op` gets the
/// recorder and the request id) and once without, alternating which goes
/// first so that neither side always finds the caches the other one warmed.
/// Returns the untraced latencies in nanoseconds and the recorder; the
/// difference between the two sides is the tracing overhead.
pub fn traced_round(
    items: usize,
    mut op: impl FnMut(usize, Option<(&mut Recorder, u64)>),
) -> (Vec<u64>, Recorder) {
    let mut rec = Recorder::new();
    let mut plain = Vec::with_capacity(items);
    for i in 0..items {
        if i % 2 == 1 {
            op(i, Some((&mut rec, i as u64)));
        }
        let t = Instant::now();
        op(i, None);
        plain.push(t.elapsed().as_nanos() as u64);
        if i % 2 == 0 {
            op(i, Some((&mut rec, i as u64)));
        }
    }
    (plain, rec)
}

/// Sets `trace.overhead_share` (traced ÷ untraced request p50 − 1) and
/// `trace.attributed_share`, and hands the recorder to the outcome.
pub fn close_trace(out: &mut Outcome, mut plain: Vec<u64>, rec: Recorder) {
    let traced_p50 = p50_us(&mut rec.durations_ns("request"));
    out.layers.set("trace.overhead_share", traced_p50 / p50_us(&mut plain) - 1.0, "ratio");
    out.layers.set("trace.attributed_share", rec.attributed_share(), "ratio");
    out.tally.ok(2 * plain.len() as u64);
    out.phase("traced", 2 * plain.len() as u64);
    out.recorder = Some(rec);
}

/// Counts operations and the ones that went wrong, keeping the first few
/// descriptions for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub examples: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what());
        }
    }

    /// Counts one answer, failed unless it is well-formed: at most `K`
    /// results, ascending by distance, distinct ids, every timestamp inside
    /// the window.
    pub fn answer(&mut self, results: &[TknnResult], window: TimeWindow, what: &str) {
        let ascending = results.windows(2).all(|p| p[0].dist <= p[1].dist);
        let inside = results.iter().all(|r| window.contains(r.timestamp));
        let mut ids: Vec<u32> = results.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if results.len() <= K && ascending && inside && ids.len() == results.len() {
            self.ok(1);
        } else {
            self.fail(|| format!("{what}: malformed answer {results:?} for {window:?}"));
        }
    }

    /// Counts one comparison, failed unless `got` equals `want` bit for bit.
    pub fn same(&mut self, got: &[TknnResult], want: &[TknnResult], what: &str) {
        let same = got.len() == want.len()
            && got.iter().zip(want).all(|(g, w)| {
                g.id == w.id && g.timestamp == w.timestamp && g.dist.to_bits() == w.dist.to_bits()
            });
        if same {
            self.ok(1);
        } else {
            self.fail(|| format!("{what}: got {got:?}, want {want:?}"));
        }
    }
}

/// Attempted / failed / timed-sample counts of one phase, for the report.
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub samples: u64,
}

/// What one workload hands back.
pub struct Outcome {
    pub workload: &'static str,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
    pub phases: Vec<Phase>,
    pub recorder: Option<Recorder>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            e2e: Metrics::default(),
            layers: Metrics::default(),
            tally: Tally::default(),
            phases: Vec::new(),
            recorder: None,
        }
    }

    /// Sets the end-to-end metrics every workload reports the same way
    /// (`recall_at_10` comes from the checking pass).
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        rounds: &Rounds,
        insert_rows_per_s: f64,
        index_bytes_per_data_byte: f64,
        peak_rss_mb: f64,
    ) {
        let (p50, p99, qps) = rounds.medians();
        self.e2e.set("setup_s", setup_s, "s");
        self.e2e.set("query_p50_us", p50, "us");
        self.e2e.set("query_p99_us", p99, "us");
        self.e2e.set("query_qps", qps, "1/s");
        self.e2e.set("insert_rows_per_s", insert_rows_per_s, "1/s");
        self.e2e.set("index_bytes_per_data_byte", index_bytes_per_data_byte, "ratio");
        self.e2e.set("peak_rss_mb", peak_rss_mb, "MiB");
    }

    /// Closes a phase: everything tallied since the previous phase closed.
    pub fn phase(&mut self, name: &'static str, samples: u64) {
        let (a, f) = self.phases.iter().fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
        self.phases.push(Phase {
            name,
            attempted: self.tally.attempted - a,
            failed: self.tally.failed - f,
            samples,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: u32, timestamp: i64, dist: f32) -> TknnResult {
        TknnResult { id, timestamp, dist }
    }

    #[test]
    fn tally_rejects_malformed_answers() {
        let w = TimeWindow::new(10, 20);
        let mut t = Tally::default();
        t.answer(&[hit(1, 10, 0.1), hit(2, 19, 0.2)], w, "ok");
        assert_eq!((t.attempted, t.failed), (1, 0));
        t.answer(&[hit(1, 10, 0.3), hit(2, 19, 0.2)], w, "descending");
        t.answer(&[hit(1, 20, 0.1)], w, "outside the window");
        t.answer(&[hit(1, 10, 0.1), hit(1, 11, 0.2)], w, "duplicate id");
        assert_eq!((t.attempted, t.failed), (4, 3));
        t.same(&[hit(1, 10, 0.1)], &[hit(1, 10, 0.1)], "same");
        t.same(&[hit(1, 10, 0.1)], &[hit(1, 10, 0.100_000_01)], "one ulp apart");
        assert_eq!((t.attempted, t.failed), (6, 4));
        assert_eq!(t.examples.len(), 4);
    }

    #[test]
    fn phases_partition_the_tally() {
        let mut o = Outcome::new("t");
        o.tally.ok(5);
        o.phase("a", 5);
        o.tally.ok(2);
        o.tally.fail(|| "x".into());
        o.phase("b", 0);
        assert_eq!((o.phases[0].attempted, o.phases[0].failed), (5, 0));
        assert_eq!((o.phases[1].attempted, o.phases[1].failed), (3, 1));
    }

    #[test]
    fn repeat_setup_reports_the_median_and_keeps_the_last() {
        let mut n = 0;
        let (last, s) = repeat_setup(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert!(s >= 0.0);
    }
}
