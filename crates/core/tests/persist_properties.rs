//! Property tests for binary persistence: roundtrip fidelity across
//! arbitrary index shapes (size, leaf size, metric, τ, timestamp stride) and
//! structural equality of the reloaded index, and the rejection of damaged
//! index-kind and snapshot-kind streams.

use std::sync::Arc;

use mbi_ann::{FileMap, NnDescentParams, SearchParams};
use mbi_core::{
    ColdIndex, GraphBackend, IndexSnapshot, MbiConfig, MbiError, MbiIndex, TimeWindow, TknnResult,
};
use mbi_math::Metric;
use proptest::prelude::*;

fn build(n: usize, leaf_size: usize, metric: Metric, tau: f64, ts_stride: i64) -> MbiIndex {
    let backend =
        GraphBackend::NnDescent(NnDescentParams { degree: 4, max_iters: 2, ..Default::default() });
    let mut idx = MbiIndex::new(
        MbiConfig::new(3, metric)
            .with_leaf_size(leaf_size)
            .with_tau(tau)
            .with_backend(backend)
            .with_search(SearchParams::new(24, 1.2)),
    );
    for i in 0..n {
        let x = i as f32;
        idx.insert(
            &[(x * 0.31).sin() + 1.5, (x * 0.17).cos() + 1.5, 0.1 * x],
            i as i64 * ts_stride,
        )
        .unwrap();
    }
    idx
}

/// The snapshot-kind stream of `leaves` whole leaves.
fn snapshot_stream(leaves: usize, leaf_size: usize) -> Vec<u8> {
    let idx = build(leaves * leaf_size, leaf_size, Metric::Euclidean, 0.5, 1);
    IndexSnapshot::from_index(&idx).expect("whole leaves only").to_bytes().to_vec()
}

/// One answer per query of [`cold_sweep`].
type Answers = Vec<Result<Vec<TknnResult>, MbiError>>;

/// Opens `bytes` cold at budget 0 and answers a fixed sweep of windows over
/// `rows` rows, graph search and exact scan: `None` if the open fails.
fn cold_sweep(bytes: Vec<u8>, rows: i64) -> Option<Answers> {
    let cold = ColdIndex::from_map_with_budget(Arc::new(FileMap::from_bytes(bytes)), 0).ok()?;
    let q = [1.0f32, 2.0, 0.5];
    let windows = [(0, rows), (0, rows / 3 + 1), (rows / 4, 3 * rows / 4 + 1), (rows - 3, rows)];
    let mut out = Vec::new();
    for (s, e) in windows {
        let w = TimeWindow::new(s.max(0), e);
        out.push(cold.query(&q, 5, w));
        out.push(cold.exact_query(&q, 5, w));
    }
    Some(out)
}

/// A damaged snapshot stream must fail the eager loader, and the cold tier
/// must refuse it at open or answer each query of the sweep with an error
/// or the clean stream's answer — never panic, never answer differently.
fn assert_snapshot_rejected(clean: &[u8], bad: Vec<u8>, rows: i64, what: &str) {
    assert!(
        IndexSnapshot::from_bytes(bytes::Bytes::from(bad.clone())).is_err(),
        "{what} accepted by the eager loader"
    );
    let reference = cold_sweep(clean.to_vec(), rows).expect("the clean stream opens cold");
    if let Some(answers) = cold_sweep(bad, rows) {
        for (i, (got, want)) in answers.iter().zip(&reference).enumerate() {
            if let Ok(got) = got {
                assert_eq!(got, want.as_ref().expect("clean answer"), "{what} query {i}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn roundtrip_preserves_structure_and_answers(
        n in 0usize..220,
        leaf_size in 1usize..40,
        metric_pick in 0u8..3,
        tau_pct in 1u32..=100,
        ts_stride in 1i64..5,
    ) {
        let metric = match metric_pick {
            0 => Metric::Euclidean,
            1 => Metric::Angular,
            _ => Metric::InnerProduct,
        };
        let idx = build(n, leaf_size, metric, tau_pct as f64 / 100.0, ts_stride);
        let loaded = MbiIndex::from_bytes(idx.to_bytes()).expect("roundtrip");

        prop_assert_eq!(loaded.len(), idx.len());
        prop_assert_eq!(loaded.num_leaves(), idx.num_leaves());
        prop_assert_eq!(loaded.blocks().len(), idx.blocks().len());
        prop_assert_eq!(loaded.timestamps(), idx.timestamps());
        prop_assert_eq!(loaded.store().as_flat(), idx.store().as_flat());
        prop_assert_eq!(loaded.validate(), Ok(()));

        // Identical answers on a few windows.
        let q = [1.0f32, 2.0, 0.5];
        let hi = n as i64 * ts_stride + 1;
        for (s, e) in [(0i64, hi), (hi / 4, hi / 2), (hi - 3, hi)] {
            let w = TimeWindow::new(s.min(e), e.max(s));
            prop_assert_eq!(idx.query(&q, 5, w), loaded.query(&q, 5, w));
        }

        // Re-serialisation is byte-identical (canonical encoding).
        prop_assert_eq!(idx.to_bytes(), loaded.to_bytes());
    }

    /// A reloaded index continues ingesting and stays valid.
    #[test]
    fn reloaded_index_keeps_growing(
        n in 1usize..120,
        leaf_size in 1usize..16,
        extra in 1usize..60,
    ) {
        let idx = build(n, leaf_size, Metric::Euclidean, 0.5, 1);
        let mut loaded = MbiIndex::from_bytes(idx.to_bytes()).expect("roundtrip");
        let last = *loaded.timestamps().last().unwrap_or(&-1);
        for j in 0..extra {
            loaded
                .insert(&[j as f32, -(j as f32), 0.0], last + 1 + j as i64)
                .unwrap();
        }
        prop_assert_eq!(loaded.len(), n + extra);
        prop_assert_eq!(loaded.validate(), Ok(()));
        // And the grown index still roundtrips.
        let again = MbiIndex::from_bytes(loaded.to_bytes()).expect("second roundtrip");
        prop_assert_eq!(again.len(), n + extra);
    }

    /// Any single-byte corruption of an index-kind stream is rejected —
    /// every byte of the stream is covered by a section CRC, the footer CRC,
    /// or a structural check, so no flip can load as a silently different
    /// index (and none may panic).
    #[test]
    fn any_single_byte_flip_is_rejected(
        n in 1usize..80,
        leaf_size in 1usize..16,
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let idx = build(n, leaf_size, Metric::Euclidean, 0.5, 1);
        let bytes = idx.to_bytes().to_vec();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut bad = bytes;
        bad[pos] ^= 1u8 << bit;
        let res = MbiIndex::from_bytes(bytes::Bytes::from(bad));
        prop_assert!(res.is_err(), "flip at byte {} bit {} accepted", pos, bit);
    }

    /// Any truncation of an index-kind stream is rejected (the footer pins
    /// the exact length).
    #[test]
    fn any_truncation_is_rejected(
        n in 1usize..80,
        leaf_size in 1usize..16,
        cut_seed in any::<u64>(),
    ) {
        let idx = build(n, leaf_size, Metric::Euclidean, 0.5, 1);
        let bytes = idx.to_bytes();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(MbiIndex::from_bytes(bytes.slice(0..cut)).is_err(),
            "truncation to {} bytes accepted", cut);
    }
}

proptest! {
    // A snapshot stream is mostly page padding and rows, so a random flip
    // rarely lands in a timestamp or a directory: run more cases. (At 24, a
    // reader that skips the timestamp CRC passes; at 512 it fails.)
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any single-bit flip of a snapshot-kind stream is rejected by the
    /// eager loader, and the cold tier refuses it or never answers from it
    /// differently (see [`assert_snapshot_rejected`]).
    #[test]
    fn any_snapshot_flip_is_rejected(
        leaves in 1usize..5,
        leaf_size in 1usize..16,
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let clean = snapshot_stream(leaves, leaf_size);
        let pos = (pos_seed % clean.len() as u64) as usize;
        let mut bad = clean.clone();
        bad[pos] ^= 1u8 << bit;
        let what = format!("flip at byte {pos} bit {bit} of {}", clean.len());
        assert_snapshot_rejected(&clean, bad, (leaves * leaf_size) as i64, &what);
    }

    /// Any truncation of a snapshot-kind stream is rejected the same way.
    #[test]
    fn any_snapshot_truncation_is_rejected(
        leaves in 1usize..5,
        leaf_size in 1usize..16,
        cut_seed in any::<u64>(),
    ) {
        let clean = snapshot_stream(leaves, leaf_size);
        let cut = (cut_seed % clean.len() as u64) as usize;
        let what = format!("truncation to {cut} of {} bytes", clean.len());
        assert_snapshot_rejected(&clean, clean[..cut].to_vec(), (leaves * leaf_size) as i64, &what);
    }
}
