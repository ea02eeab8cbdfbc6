//! Lock-free serving metrics: a bounded-memory latency histogram plus
//! per-tenant and server-wide counters.
//!
//! Request threads record with plain atomic adds — no lock, no allocation —
//! and `/stats` reads a consistent-enough snapshot with relaxed loads.
//! Unlike [`mbi_eval::LatencyRecorder`] (which stores every observation for
//! exact offline percentiles), the histogram here must survive an unbounded
//! request stream, so it buckets instead: 16 sub-buckets per power of two
//! keeps every reported quantile within ~6% of exact.

use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sub-buckets per octave; 16 → worst-case quantile error 1/16 ≈ 6%.
const SUBS: u64 = 16;
/// log2(SUBS).
const SUB_BITS: u32 = 4;
/// Total buckets: values < 16 µs are exact, then 16 sub-buckets for each
/// octave up to 2^63 µs.
const BUCKETS: usize = (SUBS + (64 - SUB_BITS as u64) * SUBS) as usize;

/// A fixed-size exponential-bucket latency histogram in microseconds.
/// Record and read are both wait-free.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_of(us: u64) -> usize {
        if us < SUBS {
            return us as usize;
        }
        let oct = 63 - us.leading_zeros(); // ≥ SUB_BITS
        let sub = (us >> (oct - SUB_BITS)) & (SUBS - 1);
        ((oct - SUB_BITS) as u64 * SUBS + SUBS + sub) as usize
    }

    /// Lower bound of bucket `b` in microseconds (the value quantiles
    /// report — a one-sided error, so reported quantiles never exceed the
    /// true value by more than one sub-bucket width).
    fn bucket_floor(b: usize) -> u64 {
        let b = b as u64;
        if b < SUBS {
            return b;
        }
        let oct = (b - SUBS) / SUBS + SUB_BITS as u64;
        let sub = b & (SUBS - 1);
        (SUBS + sub) << (oct - SUB_BITS as u64)
    }

    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        self.record_micros(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one observation already in microseconds.
    pub fn record_micros(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate quantile (`q ∈ [0, 1]`) in microseconds; `0` when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        // Nearest-rank on the bucket cumulative counts.
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, c) in self.buckets.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_floor(b);
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// A frozen summary of the current counters.
    pub fn summary(&self) -> LatencySnapshot {
        let count = self.count();
        LatencySnapshot {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                self.sum_us.load(Ordering::Relaxed) as f64 / count as f64
            },
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`LatencyHistogram`] summary.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LatencySnapshot {
    /// Observations.
    pub count: u64,
    /// Mean in microseconds.
    pub mean_us: f64,
    /// Approximate median in microseconds.
    pub p50_us: u64,
    /// Approximate 99th percentile in microseconds.
    pub p99_us: u64,
    /// Exact maximum in microseconds.
    pub max_us: u64,
}

/// Per-tenant serving counters.
#[derive(Default)]
pub struct TenantMetrics {
    /// Query latency distribution (admission to response serialisation).
    pub query_latency: LatencyHistogram,
    /// Queries answered (success or partial).
    pub queries: AtomicU64,
    /// Inserts acked.
    pub inserts: AtomicU64,
    /// Requests rejected by the admission gate.
    pub shed: AtomicU64,
    /// Queries cut off by a deadline.
    pub timeouts: AtomicU64,
    /// Requests rejected for a bad or cross-tenant token.
    pub unauthorized: AtomicU64,
}

impl TenantMetrics {
    /// Renders the counters plus derived rates as a JSON value. `uptime`
    /// scales QPS.
    pub fn to_value(&self, uptime: Duration) -> Value {
        let queries = self.queries.load(Ordering::Relaxed);
        let secs = uptime.as_secs_f64().max(1e-9);
        let lat = self.query_latency.summary();
        Value::Map(vec![
            ("queries".into(), Value::UInt(queries)),
            ("inserts".into(), Value::UInt(self.inserts.load(Ordering::Relaxed))),
            ("shed".into(), Value::UInt(self.shed.load(Ordering::Relaxed))),
            ("timeouts".into(), Value::UInt(self.timeouts.load(Ordering::Relaxed))),
            ("unauthorized".into(), Value::UInt(self.unauthorized.load(Ordering::Relaxed))),
            ("qps".into(), Value::Float(queries as f64 / secs)),
            ("latency".into(), lat.to_value()),
        ])
    }
}

/// Server-wide gauges and counters.
pub struct ServerMetrics {
    /// Server start time (uptime / QPS base).
    pub started: Instant,
    /// Open connections right now.
    pub connections: AtomicUsize,
    /// Requests executing right now (the admission gate's gauge).
    pub inflight: AtomicUsize,
    /// Connections refused at the connection cap.
    pub connections_refused: AtomicU64,
    /// Requests shed at the in-flight cap (all tenants).
    pub shed: AtomicU64,
    /// Requests that failed to parse at all.
    pub bad_requests: AtomicU64,
    /// Connections dropped by the idle deadline (slow-loris guard).
    pub idle_dropped: AtomicU64,
    /// Frames / request heads rejected for exceeding the size cap.
    pub oversized: AtomicU64,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            started: Instant::now(),
            connections: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            connections_refused: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            idle_dropped: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
        }
    }
}

impl ServerMetrics {
    /// Renders the server-wide section of `/stats`.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("uptime_secs".into(), Value::Float(self.started.elapsed().as_secs_f64())),
            ("connections".into(), Value::UInt(self.connections.load(Ordering::Relaxed) as u64)),
            ("inflight".into(), Value::UInt(self.inflight.load(Ordering::Relaxed) as u64)),
            (
                "connections_refused".into(),
                Value::UInt(self.connections_refused.load(Ordering::Relaxed)),
            ),
            ("shed".into(), Value::UInt(self.shed.load(Ordering::Relaxed))),
            ("bad_requests".into(), Value::UInt(self.bad_requests.load(Ordering::Relaxed))),
            ("idle_dropped".into(), Value::UInt(self.idle_dropped.load(Ordering::Relaxed))),
            ("oversized".into(), Value::UInt(self.oversized.load(Ordering::Relaxed))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_invertible() {
        let mut prev = 0usize;
        for us in [0u64, 1, 5, 15, 16, 17, 31, 32, 100, 999, 1000, 65535, 1 << 20, u64::MAX / 2] {
            let b = LatencyHistogram::bucket_of(us);
            assert!(b >= prev, "bucket_of not monotone at {us}");
            prev = b;
            let floor = LatencyHistogram::bucket_floor(b);
            assert!(floor <= us, "floor {floor} exceeds value {us}");
            // The floor maps back to the same bucket.
            assert_eq!(LatencyHistogram::bucket_of(floor), b, "floor of bucket {b} not in it");
        }
    }

    #[test]
    fn quantiles_track_exact_within_a_sub_bucket() {
        let h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record_micros(us);
        }
        let p50 = h.quantile_us(0.5);
        let p99 = h.quantile_us(0.99);
        assert!((450..=500).contains(&p50), "p50 = {p50}");
        assert!((920..=990).contains(&p99), "p99 = {p99}");
        assert_eq!(h.summary().max_us, 1000);
        assert_eq!(h.count(), 1000);
        assert!((h.summary().mean_us - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.99), 0);
        let s = h.summary();
        assert_eq!((s.count, s.p50_us, s.max_us), (0, 0, 0));
        assert_eq!(s.mean_us, 0.0);
    }

    #[test]
    fn tenant_metrics_render_qps() {
        let m = TenantMetrics::default();
        m.queries.store(10, Ordering::Relaxed);
        let v = m.to_value(Duration::from_secs(2));
        assert_eq!(v.get("qps").unwrap().as_f64(), Some(5.0));
    }
}
