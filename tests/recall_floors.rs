//! Recall floors: the index's answer quality, band by band.
//!
//! The bit-identity suites pin *what* the search returns; this one pins how
//! *good* it is, so a change to the graph search, the entry policy, block
//! selection or the build may move answers but may not lose recall. One
//! seeded `sift1m` stand-in (d = 128, Euclidean, sequential timestamps) is
//! indexed with leaves of 256, then queried at `SearchParams(128, 1.2)` and
//! k = 10 over five window bands (1 % to 95 % of the rows, the paper's Fig 5
//! axis). Each band's mean recall@10 against the exact answer must stay at
//! or above its floor. The graphs have NNDescent degree 8, half the
//! benchmark's: at degree 16 this small index answers every graph band
//! almost perfectly, and a floor at 1.0 cannot tell a real loss from one
//! swapped neighbour. The two scan-served bands (`w01`, `w05`) are exact.
//!
//! A floor is the band's recall when it was committed, rounded down to
//! 0.005. Raise a floor when a change lifts recall for good; never lower one
//! to make a change pass.

use mbi::data::presets::SIFT1M;
use mbi::data::{recall_at_k, windows_for_fraction};
use mbi::{GraphBackend, MbiConfig, MbiIndex, NnDescentParams, SearchParams};

const ROWS: usize = 4_000;
const K: usize = 10;
const QUERIES_PER_BAND: usize = 100;

/// `(band, window fraction, recall@10 floor)`.
const FLOORS: [(&str, f64, f64); 5] = [
    ("w01", 0.01, 1.0),
    ("w05", 0.05, 1.0),
    ("w20", 0.20, 0.970),
    ("w50", 0.50, 0.960),
    ("w95", 0.95, 0.960),
];

#[test]
fn every_band_keeps_its_recall_floor() {
    let data = SIFT1M.generate((ROWS as f64 + 0.5) / SIFT1M.paper_train as f64, 1);
    assert_eq!(data.len(), ROWS);
    let config = MbiConfig::new(data.dim(), data.metric)
        .with_leaf_size(256)
        .with_backend(GraphBackend::NnDescent(NnDescentParams { degree: 8, ..Default::default() }))
        .with_parallel_build(true);
    let mut index = MbiIndex::new(config);
    for (i, &t) in data.timestamps.iter().enumerate() {
        index.insert(data.train.get(i), t).unwrap();
    }
    let params = SearchParams::new(128, 1.2);

    let mut report = Vec::new();
    let mut failed = false;
    for (band, fraction, floor) in FLOORS {
        let windows = windows_for_fraction(&data.timestamps, fraction, QUERIES_PER_BAND, 1);
        let mut sum = 0.0;
        for (qi, &window) in windows.iter().enumerate() {
            let query = data.test.get(qi % data.test.len());
            let ids = |r: &[mbi::TknnResult]| r.iter().map(|x| x.id).collect::<Vec<u32>>();
            let got = index.query_with_params(query, K, window, &params).results;
            let truth = index.exact_query(query, K, window);
            sum += recall_at_k(&ids(&got), &ids(&truth), K);
        }
        let recall = sum / QUERIES_PER_BAND as f64;
        failed |= recall < floor;
        report.push(format!("{band}: recall@10 {recall:.4} (floor {floor:.3})"));
    }
    // Printed on success too (`--nocapture`), for raising a floor.
    eprintln!("{}", report.join("\n"));
    assert!(!failed, "a band fell below its recall floor (per-band report above)");
}
