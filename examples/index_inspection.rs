//! Index inspection: the operational side of running MBI
//! in production — structure dumps, per-level size accounting (the
//! `O(|D| log |D|)` of §4.4.1 made visible), integrity validation, and a
//! timed query loop.
//!
//! Run with:
//! ```sh
//! cargo run --release --example index_inspection
//! ```

use mbi::{GraphBackend, MbiConfig, MbiIndex, Metric, NnDescentParams, SearchParams, TimeWindow};
use mbi_data::DriftingMixture;

fn main() {
    let dataset = DriftingMixture { drift: 1.0, ..DriftingMixture::new(32, 99) }.generate(
        "inspect",
        Metric::Euclidean,
        10_000,
        32,
    );

    let mut index = MbiIndex::new(
        MbiConfig::new(32, Metric::Euclidean)
            .with_leaf_size(1024)
            .with_backend(GraphBackend::NnDescent(NnDescentParams {
                degree: 16,
                ..Default::default()
            }))
            .with_search(SearchParams::new(64, 1.15)),
    );
    for (v, t) in dataset.iter() {
        index.insert(v, t).unwrap();
    }

    // 1. The block tree, as the postorder layout the paper's Figure 1 draws.
    println!("=== block tree ===\n{}", index.render_tree());

    // 2. Per-level accounting: every level stores (nearly) the same graph
    //    bytes — the log factor of the O(|D| log |D|) size bound.
    println!("=== per-level graph bytes ===");
    for l in index.level_stats() {
        println!(
            "height {}: {:>2} blocks covering {:>6} rows — {:>8.1} KiB",
            l.height,
            l.blocks,
            l.rows,
            l.graph_bytes as f64 / 1024.0
        );
    }
    println!(
        "total index: {:.2} MiB over {:.2} MiB of raw data",
        index.index_memory_bytes() as f64 / (1 << 20) as f64,
        index.data_bytes() as f64 / (1 << 20) as f64
    );

    // 3. Structural validation — the same check `from_bytes` runs on loads.
    index.validate().expect("freshly built index is consistent");
    println!("\nvalidate(): ok");

    // 4. A timed loop of queries.
    let batch: Vec<(Vec<f32>, usize, TimeWindow)> = (0..32)
        .map(|i| {
            let q = dataset.test.get(i % dataset.test.len()).to_vec();
            let s = (i as i64 * 200) % 8_000;
            (q, 10, TimeWindow::new(s, s + 2_000))
        })
        .collect();
    let t0 = std::time::Instant::now();
    let answers: Vec<_> = batch.iter().map(|(q, k, w)| index.query(q, *k, *w)).collect();
    let elapsed = t0.elapsed();
    let hits: usize = answers.iter().map(Vec::len).sum();
    println!(
        "\nloop: {} queries → {} results in {:.2?} ({:.0} qps)",
        batch.len(),
        hits,
        elapsed,
        batch.len() as f64 / elapsed.as_secs_f64()
    );
}
