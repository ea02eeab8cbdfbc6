//! Per-query latency distributions.
//!
//! Mean QPS (what the paper reports) hides tail behaviour; production vector
//! stores care about p99. [`LatencyRecorder`] keeps every observation in
//! microsecond resolution (experiments run tens of thousands of queries at
//! most, so exact storage is cheaper than sketching) and reports exact
//! percentiles.

use mbi_math::OnlineStats;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Records per-query latencies and reports summary statistics.
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    micros: Vec<u64>,
    stats: OnlineStats,
    sorted: bool,
}

/// A frozen latency summary (serialisable for `results/*.json`).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Standard deviation in microseconds.
    pub stddev_us: f64,
    /// Minimum in microseconds.
    pub min_us: f64,
    /// Median (p50) in microseconds.
    pub p50_us: f64,
    /// 90th percentile in microseconds.
    pub p90_us: f64,
    /// 99th percentile in microseconds.
    pub p99_us: f64,
    /// Maximum in microseconds.
    pub max_us: f64,
    /// Implied queries per second (1e6 / mean_us).
    pub qps: f64,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder expecting about `n` observations.
    pub fn with_capacity(n: usize) -> Self {
        LatencyRecorder { micros: Vec::with_capacity(n), stats: OnlineStats::new(), sorted: true }
    }

    /// Records one latency observation.
    pub fn record(&mut self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        self.micros.push(us);
        self.stats.push(us as f64);
        self.sorted = false;
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.micros.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.micros.is_empty()
    }

    /// Exact percentile (nearest-rank); `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the recorder is empty or `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> f64 {
        assert!(!self.micros.is_empty(), "no latencies recorded");
        assert!((0.0..=1.0).contains(&q), "percentile {q} out of [0, 1]");
        if !self.sorted {
            self.micros.sort_unstable();
            self.sorted = true;
        }
        let rank = ((q * self.micros.len() as f64).ceil() as usize).clamp(1, self.micros.len());
        self.micros[rank - 1] as f64
    }

    /// Freezes into a serialisable summary.
    ///
    /// # Panics
    ///
    /// Panics if the recorder is empty.
    pub fn summary(&mut self) -> LatencySummary {
        let mean = self.stats.mean();
        LatencySummary {
            count: self.stats.count(),
            mean_us: mean,
            stddev_us: self.stats.stddev(),
            min_us: self.stats.min(),
            p50_us: self.percentile(0.50),
            p90_us: self.percentile(0.90),
            p99_us: self.percentile(0.99),
            max_us: self.stats.max(),
            qps: if mean > 0.0 { 1e6 / mean } else { f64::INFINITY },
        }
    }

    /// Times `f` and records the elapsed latency, returning `f`'s output.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = std::time::Instant::now();
        let r = f();
        self.record(t0.elapsed());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(values_us: &[u64]) -> LatencyRecorder {
        let mut r = LatencyRecorder::new();
        for &us in values_us {
            r.record(Duration::from_micros(us));
        }
        r
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = recorder_with(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(r.percentile(0.50), 50.0);
        assert_eq!(r.percentile(0.90), 90.0);
        assert_eq!(r.percentile(0.99), 100.0);
        assert_eq!(r.percentile(0.0), 10.0);
        assert_eq!(r.percentile(1.0), 100.0);
    }

    #[test]
    fn summary_fields_consistent() {
        let mut r = recorder_with(&[100, 200, 300, 400]);
        let s = r.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean_us, 250.0);
        assert_eq!(s.min_us, 100.0);
        assert_eq!(s.max_us, 400.0);
        assert_eq!(s.p50_us, 200.0);
        assert!((s.qps - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn single_observation() {
        let mut r = recorder_with(&[42]);
        let s = r.summary();
        assert_eq!(s.p50_us, 42.0);
        assert_eq!(s.p99_us, 42.0);
        assert_eq!(s.stddev_us, 0.0);
    }

    #[test]
    #[should_panic(expected = "no latencies")]
    fn empty_percentile_panics() {
        LatencyRecorder::new().percentile(0.5);
    }

    #[test]
    fn time_records_and_returns() {
        let mut r = LatencyRecorder::with_capacity(4);
        let out = r.time(|| 7 * 6);
        assert_eq!(out, 42);
        assert_eq!(r.count(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn interleaved_record_and_percentile() {
        // Percentile sorts lazily; recording afterwards must re-sort.
        let mut r = recorder_with(&[30, 10]);
        assert_eq!(r.percentile(1.0), 30.0);
        r.record(Duration::from_micros(5));
        assert_eq!(r.percentile(0.0), 5.0);
    }
}
