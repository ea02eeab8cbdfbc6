//! Layer probes that need no workload around them: the `math` kernels, the
//! `ann` search and build primitives, the eager persist round trip, the
//! standalone WAL and the wire codec. Traced runs only.

use crate::common::{Base, Ctx};
use crate::harness::{p50_us, Metrics};
use crate::layers;

/// In-cache rows the kernel probe streams (4 096 × 128 × 4 B = 2 MiB).
const KERNEL_ROWS: usize = 4_096;

pub fn run(ctx: &Ctx, base: &Base) -> Metrics {
    let mut m = Metrics::default();
    let (d, idx) = (&base.dataset, base.index());
    let rows = ctx.scale.rows;

    let kernel_rows = KERNEL_ROWS.min(rows);
    let (se, angular, sq8) = layers::kernel_probe(d, kernel_rows, 64);
    m.set("math.se_batch_ns_per_row", se, "ns");
    m.set("math.angular_cached_ns_per_row", angular, "ns");
    m.set("math.sq8_code_dot_ns_per_row", sq8, "ns");
    m.set("math.topk_push_ns", layers::topk_probe(100_000), "ns");

    let (us, evals, visited) = layers::graph_search_probe(idx, d);
    m.set("ann.graph_search_us", us, "us");
    m.set("ann.graph_search_dist_evals", evals, "count");
    m.set("ann.graph_search_visited", visited, "count");
    let scan_rows = (8 * layers::LEAF).min(rows);
    let scan = layers::brute_force_probe(layers::index_store(idx), d, scan_rows);
    m.set("ann.brute_force_us_per_krow", scan, "us");
    // One leaf then one height-3 block's worth of rows, as one rate.
    let leaf = layers::LEAF.min(rows);
    let (leaf_rate, block_rate) =
        (layers::nndescent_probe(idx, leaf, 1), layers::nndescent_probe(idx, scan_rows, 1));
    let build_s = leaf as f64 / leaf_rate + scan_rows as f64 / block_rate;
    m.set("ann.nndescent_build_rows_per_s", (leaf + scan_rows) as f64 / build_s, "1/s");

    let (_, _, load_s) = layers::index_roundtrip(idx);
    m.set("persist.load_s", load_s, "s");

    let wal_dir = ctx.work.join("wal-probe");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (mut append, mut sync, _) = layers::wal_probe(&wal_dir, d, leaf, 20);
    let _ = std::fs::remove_dir_all(&wal_dir);
    m.set("wal.append_p50_us", p50_us(&mut append), "us");
    m.set("wal.sync_p50_us", p50_us(&mut sync), "us");

    let q = layers::test_vector(d, 0);
    let results = layers::exact(idx, q, layers::newest_window(d, rows, 1.0));
    let (encode, decode) = layers::wire_roundtrip(&results, 20_000);
    m.set("wire.encode_results_ns", encode, "ns");
    m.set("wire.decode_results_ns", decode, "ns");
    m
}
