//! Ingest-side latency reporting for the streaming engine.
//!
//! [`mbi_core::StreamingMbi`] exposes raw per-insert and per-chain-build
//! nanosecond samples through [`mbi_core::EngineStats`]; this module folds
//! them into a serialisable [`IngestSummary`] (mean/p50/p99/max, plus seal
//! and inline-build counters) suitable for `results/*.json` next to the
//! query-side [`LatencySummary`].

use crate::latency::{LatencyRecorder, LatencySummary};
use mbi_core::EngineStats;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A frozen ingest report (serialisable for `results/*.json`).
///
/// The headline numbers are the insert-latency percentiles: with the
/// streaming engine the insert path only appends to the tail and enqueues
/// sealed chains, so `insert.p99_us` staying near `insert.p50_us` is the
/// evidence that merge-chain builds were kept off the ingest path.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IngestSummary {
    /// Per-insert wall-clock latency distribution, in microseconds.
    pub insert: LatencySummary,
    /// Per merge-chain graph-build latency distribution, in microseconds
    /// (`None` when no leaf sealed during the run).
    pub build: Option<LatencySummary>,
    /// Leaves sealed (= merge chains dispatched) over the run.
    pub seals: u64,
    /// Chains built inline on an inserting thread because the build queue
    /// was full (only non-zero under `Backpressure::BuildInline`).
    pub inline_builds: u64,
}

impl IngestSummary {
    /// Builds a summary (in microseconds) from raw nanosecond samples.
    ///
    /// # Panics
    ///
    /// Panics if `insert_nanos` is empty — an ingest run with zero inserts
    /// has nothing to report.
    pub fn from_nanos(
        insert_nanos: &[u64],
        build_nanos: &[u64],
        seals: u64,
        inline_builds: u64,
    ) -> Self {
        assert!(!insert_nanos.is_empty(), "no insert latencies recorded");
        let summarise = |nanos: &[u64]| {
            let mut rec = LatencyRecorder::with_capacity(nanos.len());
            for &ns in nanos {
                rec.record(Duration::from_nanos(ns));
            }
            rec.summary()
        };
        let build = (!build_nanos.is_empty()).then(|| summarise(build_nanos));
        IngestSummary { insert: summarise(insert_nanos), build, seals, inline_builds }
    }

    /// Builds a summary straight from a [`StreamingMbi`] stats snapshot.
    ///
    /// [`StreamingMbi`]: mbi_core::StreamingMbi
    ///
    /// # Panics
    ///
    /// Panics if the engine recorded no insert latencies (no inserts ran).
    pub fn from_engine_stats(stats: &EngineStats) -> Self {
        IngestSummary::from_nanos(
            &stats.insert_nanos,
            &stats.build_nanos,
            stats.seals as u64,
            stats.inline_builds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbi_core::{EngineConfig, MbiConfig, StreamingMbi};
    use mbi_math::Metric;

    #[test]
    fn from_nanos_summarises_both_distributions_in_micros() {
        let s = IngestSummary::from_nanos(
            &[10_000, 20_000, 30_000, 40_999],
            &[1_000_000, 3_000_000],
            2,
            1,
        );
        assert_eq!(s.insert.count, 4);
        assert_eq!(s.insert.mean_us, 25.0);
        assert_eq!(s.insert.max_us, 40.0);
        let build = s.build.expect("two build samples");
        assert_eq!(build.count, 2);
        assert_eq!(build.mean_us, 2000.0);
        assert_eq!(s.seals, 2);
        assert_eq!(s.inline_builds, 1);
    }

    #[test]
    fn no_builds_yields_none() {
        let s = IngestSummary::from_nanos(&[5_000, 7_000], &[], 0, 0);
        assert!(s.build.is_none());
        assert_eq!(s.seals, 0);
    }

    #[test]
    #[should_panic(expected = "no insert latencies")]
    fn empty_inserts_panic() {
        IngestSummary::from_nanos(&[], &[], 0, 0);
    }

    #[test]
    fn from_engine_stats_serialises_for_results_json() {
        let config = MbiConfig::new(2, Metric::Euclidean).with_leaf_size(16);
        let engine = StreamingMbi::with_engine_config(config, EngineConfig::default());
        for i in 0..40i64 {
            engine.insert(&[i as f32, -i as f32], i).unwrap();
        }
        engine.flush();
        let summary = IngestSummary::from_engine_stats(&engine.stats());
        assert_eq!(summary.insert.count, 40);
        assert_eq!(summary.seals, 2);
        assert_eq!(summary.build.as_ref().map(|b| b.count), Some(2));
        let json = serde_json::to_string(&summary).unwrap();
        for field in ["\"insert\"", "\"build\"", "\"seals\"", "\"p99_us\""] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }
}
