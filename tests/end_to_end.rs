//! End-to-end pipeline tests: dataset generation → index construction →
//! TkNN queries → recall against exact ground truth, for all three methods.

use mbi::baselines::{BsbfIndex, SfConfig, SfIndex};
use mbi::data::{ground_truth, recall_vs_truth, windows_for_fraction, DriftingMixture};
use mbi::{GraphBackend, MbiConfig, MbiIndex, Metric, NnDescentParams, SearchParams, TimeWindow};

const K: usize = 10;

struct Fixture {
    dataset: mbi::data::Dataset,
    mbi: MbiIndex,
    bsbf: BsbfIndex,
    sf: SfIndex,
    search: SearchParams,
}

fn fixture(metric: Metric, backend: GraphBackend) -> Fixture {
    let dataset = DriftingMixture { drift: 0.8, ..DriftingMixture::new(24, 1234) }
        .generate("e2e", metric, 6_000, 20);

    let search = SearchParams::new(96, 1.25);
    let mut mbi = MbiIndex::new(
        MbiConfig::new(24, metric)
            .with_leaf_size(512)
            .with_tau(0.5)
            .with_backend(backend)
            .with_search(search)
            .with_parallel_build(true),
    );
    let mut bsbf = BsbfIndex::new(24, metric);
    let mut sf_cfg = SfConfig::new(24, metric);
    sf_cfg.graph = NnDescentParams { degree: 20, ..Default::default() };
    sf_cfg.search = search;
    let mut sf = SfIndex::new(sf_cfg);
    for (v, t) in dataset.iter() {
        mbi.insert(v, t).unwrap();
        bsbf.insert(v, t).unwrap();
        sf.insert(v, t).unwrap();
    }
    sf.rebuild();
    Fixture { dataset, mbi, bsbf, sf, search }
}

#[allow(clippy::type_complexity)]
fn workload(f: &Fixture, fraction: f64) -> (Vec<(Vec<f32>, TimeWindow)>, Vec<Vec<u32>>) {
    let windows = windows_for_fraction(&f.dataset.timestamps, fraction, 12, 99);
    let workload: Vec<(Vec<f32>, TimeWindow)> = windows
        .into_iter()
        .enumerate()
        .map(|(i, w)| (f.dataset.test.get(i % f.dataset.test.len()).to_vec(), w))
        .collect();
    let truth =
        ground_truth(&f.dataset.train, &f.dataset.timestamps, &workload, K, f.dataset.metric, 2);
    (workload, truth)
}

#[test]
fn mbi_reaches_high_recall_across_window_lengths() {
    let f = fixture(Metric::Euclidean, GraphBackend::default());
    for fraction in [0.02, 0.1, 0.3, 0.7, 0.95] {
        let (workload, truth) = workload(&f, fraction);
        let results: Vec<Vec<u32>> = workload
            .iter()
            .map(|(q, w)| {
                f.mbi
                    .query_with_params(q, K, *w, &f.search)
                    .results
                    .into_iter()
                    .map(|r| r.id)
                    .collect()
            })
            .collect();
        let recall = recall_vs_truth(&results, &truth, K);
        assert!(recall >= 0.9, "MBI recall {recall:.3} too low at fraction {fraction}");
    }
}

#[test]
fn angular_metric_end_to_end() {
    let f = fixture(Metric::Angular, GraphBackend::default());
    let (workload, truth) = workload(&f, 0.4);
    let results: Vec<Vec<u32>> = workload
        .iter()
        .map(|(q, w)| {
            f.mbi.query_with_params(q, K, *w, &f.search).results.into_iter().map(|r| r.id).collect()
        })
        .collect();
    let recall = recall_vs_truth(&results, &truth, K);
    assert!(recall >= 0.9, "angular recall {recall:.3}");
}

#[test]
fn bsbf_is_always_exact() {
    let f = fixture(Metric::Euclidean, GraphBackend::default());
    for fraction in [0.05, 0.5, 0.95] {
        let (workload, truth) = workload(&f, fraction);
        let results: Vec<Vec<u32>> = workload
            .iter()
            .map(|(q, w)| f.bsbf.query(q, K, *w).into_iter().map(|r| r.id).collect())
            .collect();
        assert_eq!(recall_vs_truth(&results, &truth, K), 1.0);
    }
}

#[test]
fn sf_reaches_high_recall_on_long_windows() {
    let f = fixture(Metric::Euclidean, GraphBackend::default());
    let (workload, truth) = workload(&f, 0.9);
    let results: Vec<Vec<u32>> = workload
        .iter()
        .map(|(q, w)| f.sf.query(q, K, *w).into_iter().map(|r| r.id).collect())
        .collect();
    let recall = recall_vs_truth(&results, &truth, K);
    assert!(recall >= 0.9, "SF long-window recall {recall:.3}");
}

#[test]
fn all_methods_return_only_in_window_results() {
    let f = fixture(Metric::Euclidean, GraphBackend::default());
    let w = TimeWindow::new(1_000, 2_500);
    let q = f.dataset.test.get(0);
    for ids in [
        f.mbi.query(q, K, w).iter().map(|r| r.timestamp).collect::<Vec<_>>(),
        f.bsbf.query(q, K, w).iter().map(|r| r.timestamp).collect::<Vec<_>>(),
        f.sf.query(q, K, w).iter().map(|r| r.timestamp).collect::<Vec<_>>(),
    ] {
        assert_eq!(ids.len(), K);
        for t in ids {
            assert!(w.contains(t), "timestamp {t} outside window");
        }
    }
}

#[test]
fn work_counters_reflect_regimes() {
    let f = fixture(Metric::Euclidean, GraphBackend::default());
    let q = f.dataset.test.get(1);

    // BSBF work grows with window length.
    let (_, short) = f.bsbf.query_with_stats(q, K, TimeWindow::new(0, 300));
    let (_, long) = f.bsbf.query_with_stats(q, K, TimeWindow::new(0, 5_700));
    assert!(long.scanned > 10 * short.scanned);

    // SF work shrinks with window length.
    let (_, sf_short) = f.sf.query_with_params(q, K, TimeWindow::new(0, 300), &f.search);
    let (_, sf_long) = f.sf.query_with_params(q, K, TimeWindow::new(0, 5_700), &f.search);
    assert!(
        sf_short.visited > sf_long.visited,
        "SF should visit more on short windows: {} vs {}",
        sf_short.visited,
        sf_long.visited
    );

    // MBI touches at most 2 blocks + tail when τ = 0.5 (Lemma 4.1).
    let out = f.mbi.query_with_params(q, K, TimeWindow::new(700, 4_200), &f.search);
    assert!(out.stats.blocks_searched <= 3, "{}", out.stats.blocks_searched);
}
