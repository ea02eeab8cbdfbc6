//! Measurement plumbing that knows nothing about the system under test:
//! percentiles, the span recorder, the open-loop schedule, the metric map
//! and its JSON rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest of p50/p90/p99/p99.9 that still has [`TAIL_SAMPLES`] samples
/// beyond it in a series of `n`; `None` below 20 samples.
pub fn highest_percentile(n: usize) -> Option<f64> {
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= TAIL_SAMPLES)
        .map(|per_mille| per_mille as f64 / 1000.0)
}

/// Nearest-rank percentile of an ascending series (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// p50 of a latency series in microseconds (any length ≥ 1).
pub fn p50_us(nanos: &mut [u64]) -> f64 {
    nanos.sort_unstable();
    percentile(nanos, 0.5) as f64 / 1e3
}

/// Median of unordered values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-round summaries of a timed phase; the phase reports their medians so
/// one noisy round (a scheduler hiccup on the shared host) cannot move it.
/// A p99 is taken over as many consecutive rounds as it takes to leave
/// [`TAIL_SAMPLES`] samples beyond it.
#[derive(Default)]
pub struct Rounds {
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub qps: Vec<f64>,
    pub queries: u64,
    pooled: Vec<u64>,
}

impl Rounds {
    /// Folds one round's latencies (sorted in place) and wall time in.
    pub fn push(&mut self, nanos: &mut [u64], wall: Duration) {
        self.p50_us.push(p50_us(nanos));
        self.qps.push(nanos.len() as f64 / wall.as_secs_f64());
        self.queries += nanos.len() as u64;
        self.pooled.extend_from_slice(nanos);
        if highest_percentile(self.pooled.len()).is_some_and(|q| q >= 0.99) {
            self.pooled.sort_unstable();
            self.p99_us.push(percentile(&self.pooled, 0.99) as f64 / 1e3);
            self.pooled.clear();
        }
    }

    /// Adds another client's rounds of the same phase.
    pub fn merge(&mut self, other: Rounds) {
        self.p50_us.extend(other.p50_us);
        self.p99_us.extend(other.p99_us);
        self.qps.extend(other.qps);
        self.queries += other.queries;
    }

    /// Median p50, p99 and qps over the rounds; the p99 is NaN when the
    /// phase was too short to carry one.
    pub fn medians(&self) -> (f64, f64, f64) {
        let p99 = if self.p99_us.is_empty() { f64::NAN } else { median(&self.p99_us) };
        (median(&self.p50_us), p99, median(&self.qps))
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded interval. `parent` indexes into the recorder's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for the traced round. Spans nest by call order:
/// `enter` makes the new span a child of the innermost open one.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, request, parent, start_ns: now, end_ns: now });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Per span, the time its direct children cover.
    fn covered_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        covered
    }

    /// Total self time per span name, in nanoseconds: a span's duration
    /// minus the part of it its direct children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(self.covered_ns()) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Share of the `request` spans' time that their children cover — 1.0
    /// means the layers explain the whole request.
    pub fn attributed_share(&self) -> f64 {
        let (mut root, mut explained) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(self.covered_ns()) {
            if s.parent.is_none() && s.name == "request" {
                root += s.end_ns - s.start_ns;
                explained += c.min(s.end_ns - s.start_ns);
            }
        }
        if root == 0 {
            return 0.0;
        }
        explained as f64 / root as f64
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, microsecond timestamps.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"request\":{},\"parent\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                if i + 1 == self.spans.len() { "\n" } else { ",\n" },
            );
        }
        out.push_str("]}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Open-loop schedule
// ---------------------------------------------------------------------------

/// A fixed-rate send schedule: operation `i` is due at `start + i·interval`
/// whatever happened to the operations before it.
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, ops: usize, over: Duration) -> Self {
        Schedule { start, interval: over / ops.max(1) as u32 }
    }

    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }

    /// Sleeps until operation `i` is due and returns `(due, lateness)`:
    /// lateness is how far past its due time the generator got to it.
    pub fn wait(&self, i: usize) -> (Instant, Duration) {
        let due = self.due(i);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        (due, Instant::now().saturating_duration_since(due))
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Named measurements with their units, in name order.
#[derive(Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.0)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks that `metrics` holds exactly the `declared` names, each legal and
/// finite. Returns every problem found.
pub fn check_declared(metrics: &Metrics, declared: &[&str]) -> Vec<String> {
    let mut problems = Vec::new();
    for name in declared {
        match metrics.get(name) {
            None => problems.push(format!("declared metric {name} was not measured")),
            Some(v) if !v.is_finite() => problems.push(format!("metric {name} is {v}")),
            Some(_) => {}
        }
        if !valid_metric_name(name) {
            problems.push(format!("metric name {name:?} is outside [A-Za-z0-9_.-]"));
        }
    }
    problems
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// The little JSON this benchmark writes: numbers keep every digit Rust's
/// shortest-roundtrip formatting gives them.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    it.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// `{"name": {"value": v, "unit": u}, …}` for the given names, in order.
pub fn metrics_json(metrics: &Metrics, names: &[&str]) -> Json {
    Json::Obj(
        names
            .iter()
            .filter_map(|n| {
                let (v, u) = metrics.0.get(*n)?;
                Some((
                    n.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str(u.to_string())),
                    ]),
                ))
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` does not offer it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Deterministic 64-bit generator (splitmix64) for shuffles and window
/// positions — the benchmark's inputs depend on `--seed` and nothing else.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_wants_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(99), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(9_999), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
    }

    #[test]
    fn percentiles_and_median() {
        let mut v: Vec<u64> = (1..=1000).rev().map(|x| x * 1000).collect();
        let mut rounds = Rounds::default();
        rounds.push(&mut v[..500], Duration::from_secs(1));
        assert!(rounds.p99_us.is_empty(), "500 samples carry no p99 yet");
        rounds.push(&mut v[500..], Duration::from_secs(1));
        let (p50, p99, qps) = rounds.medians();
        assert!((p50 - 500.0).abs() <= 1.0, "median of the two rounds' p50s: {p50}");
        assert!((p99 - 990.0).abs() <= 1.0, "pooled over both rounds: {p99}");
        assert_eq!((qps, rounds.queries), (500.0, 1000));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn short_phase_has_no_p99() {
        let mut rounds = Rounds::default();
        rounds.push(&mut [1u64; 999], Duration::from_secs(1));
        assert!(rounds.medians().1.is_nan());
    }

    #[test]
    fn span_self_time_subtracts_children() {
        let mut r = Recorder::new();
        r.spans = vec![
            Span { name: "request", request: 1, parent: None, start_ns: 0, end_ns: 100 },
            Span { name: "select", request: 1, parent: Some(0), start_ns: 5, end_ns: 25 },
            Span { name: "exec", request: 1, parent: Some(0), start_ns: 25, end_ns: 95 },
            Span { name: "merge", request: 1, parent: Some(2), start_ns: 80, end_ns: 90 },
            Span { name: "reference", request: 1, parent: None, start_ns: 100, end_ns: 150 },
        ];
        let st = r.self_time_ns();
        assert_eq!(st["request"], 10);
        assert_eq!(st["select"], 20);
        assert_eq!(st["exec"], 60);
        assert_eq!(st["merge"], 10);
        assert_eq!(st["reference"], 50);
        assert_eq!(st.values().sum::<u64>(), 150, "self times sum to the roots");
        assert!((r.attributed_share() - 0.9).abs() < 1e-12);
        assert_eq!(r.durations_ns("exec"), vec![70]);
        assert!(r.chrome_trace().contains("\"name\":\"merge\""));
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut r = Recorder::new();
        r.span("request", 7, || {});
        let outer = r.enter("request", 8);
        r.span("child", 8, || {});
        r.exit(outer);
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.spans[2].parent, Some(1));
        assert!(r.spans[1].end_ns >= r.spans[2].end_ns);
    }

    #[test]
    fn schedule_times_from_due_not_from_send() {
        let start = Instant::now();
        let s = Schedule::new(start, 1000, Duration::from_secs(1));
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(500), start + Duration::from_millis(500));
        // An operation reached after its due time is late by the difference,
        // and waiting for one already due does not sleep.
        let past = Schedule::new(start - Duration::from_secs(2), 1000, Duration::from_secs(1));
        let (due, late) = past.wait(999);
        assert_eq!(due, start - Duration::from_secs(2) + Duration::from_millis(999));
        assert!(late >= Duration::from_secs(1));
        // A future operation is waited for, then on time.
        let soon = Schedule::new(Instant::now(), 100, Duration::from_millis(200));
        let (due, late) = soon.wait(5);
        assert!(Instant::now() >= due);
        assert!(late < Duration::from_millis(150), "{late:?}");
    }

    #[test]
    fn metric_names_and_declared_check() {
        for ok in ["setup_s", "index.query_p50_us.w01", "a-b", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        let mut m = Metrics::default();
        m.set("a", 1.0, "s");
        m.set("b", f64::NAN, "s");
        let problems = check_declared(&m, &["a", "b", "c"]);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn json_renders_all_digits_and_escapes() {
        let j = Json::Obj(vec![
            ("x".into(), Json::Num(1.203_456_789_012_3)),
            ("s".into(), Json::Str("a\"b\n".into())),
            ("l".into(), Json::Arr(vec![Json::Int(3), Json::Bool(true)])),
        ]);
        assert_eq!(j.render(), "{\"x\":1.2034567890123,\"s\":\"a\\\"b\\n\",\"l\":[3,true]}");
    }

    #[test]
    fn splitmix_is_deterministic_and_shuffles() {
        let mut a = SplitMix(7);
        let mut b = SplitMix(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..100).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        let u = a.unit();
        assert!((0.0..1.0).contains(&u));
    }
}
