//! Pinned outputs of Algorithm 2's beam loop and of the chunked exact scan.
//!
//! Every public entry point that runs one of the two loops — over a flat
//! store and over a three-segment store, under all three metrics, with the
//! default entry policy and with a fixed start —
//! answers fixed queries on fixed data, and each case folds its output into
//! one CRC-32: every returned `(id, dist bits)` followed by the five
//! `SearchStats` counters. Refactors of either loop must reproduce the table
//! bit for bit; a change meant to alter results updates it and says why.
//!
//! The `fixed` rows start every search at one vertex, so they pin the loop
//! apart from the entry policy: a change to how `QueryHash` seeds the search
//! moves only the `hash` rows' graph columns.
//!
//! Both loops score through the dispatched distance kernels, so the table
//! must hold on the SIMD and the forced-scalar backend alike.

use mbi_ann::{
    brute_force_prepared, greedy_search_prepared, EntryPolicy, KnnGraph, Metric, Neighbor,
    NnDescentParams, PreparedQuery, SearchParams, SearchScratch, SearchStats, Segment,
    SegmentStore, VectorStore, VectorView,
};
use mbi_math::crc32;
use std::ops::Range;
use std::sync::Arc;

const N: usize = 900;
const DIM: usize = 12;
/// Three segments of 300 rows: each is one full `SCAN_BATCH` plus a partial
/// batch, and the id window below straddles a segment seam.
const SEG_ROWS: usize = 300;
/// The id-range filter of the graph searches, and the row range of the
/// windowed scans.
const WINDOW: Range<usize> = 250..620;

/// Deterministic pseudo-random rows (LCG), with the angular norm cache.
fn lcg_rows(n: usize, seed: u32) -> VectorStore {
    let mut s = VectorStore::new(DIM);
    s.enable_norm_cache();
    let mut state = seed | 1;
    for _ in 0..n {
        let v: Vec<f32> = (0..DIM)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect();
        s.push(&v);
    }
    s
}

fn segmented(src: &VectorStore) -> SegmentStore {
    let mut store = SegmentStore::new(DIM, SEG_ROWS);
    for c in 0..src.len() / SEG_ROWS {
        let seg = Segment::from_view(src.slice(c * SEG_ROWS..(c + 1) * SEG_ROWS));
        store.push_segment(Arc::new(seg));
    }
    store
}

/// Bytes of one answer: every `(id, dist bits)`, then the five counters.
fn transcript(bytes: &mut Vec<u8>, out: &[Neighbor], stats: &SearchStats) {
    for n in out {
        bytes.extend(n.id.to_le_bytes());
        bytes.extend(n.dist.to_bits().to_le_bytes());
    }
    for c in [
        stats.dist_evals,
        stats.visited,
        stats.scanned,
        stats.blocks_searched,
        stats.blocks_bruteforced,
    ] {
        bytes.extend(c.to_le_bytes());
    }
}

/// The 8 case pins of one (metric, store, entry) triple, in the order
/// `filter ∈ {all, window}` × `k ∈ {1, 10}` × `{graph, scan}`. The graph
/// searches filter by id; the
/// scans, which take no filter, run over the window's rows instead.
fn pins(
    graph: &KnnGraph,
    whole: VectorView<'_>,
    window: VectorView<'_>,
    metric: Metric,
    queries: &VectorStore,
    entry: EntryPolicy,
) -> Vec<u32> {
    let params = SearchParams { entry, ..SearchParams::new(64, 1.2) };
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    let mut pins = Vec::new();
    for windowed in [false, true] {
        let scan_view = if windowed { window } else { whole };
        let accept = |id: u32| !windowed || WINDOW.contains(&(id as usize));
        for k in [1usize, 10] {
            for graph_case in [true, false] {
                let mut bytes = Vec::new();
                for qi in 0..queries.len() {
                    let pq = PreparedQuery::new(metric, queries.get(qi));
                    let mut stats = SearchStats::default();
                    let mut filter = accept;
                    if graph_case {
                        greedy_search_prepared(
                            graph,
                            whole,
                            &pq,
                            k,
                            &params,
                            &mut filter,
                            &mut stats,
                            &mut scratch,
                            &mut out,
                        );
                    } else {
                        out = brute_force_prepared(scan_view, &pq, k, &mut stats);
                    }
                    transcript(&mut bytes, &out, &stats);
                }
                pins.push(crc32(&bytes));
            }
        }
    }
    pins
}

/// The start of the `fixed` rows: a mid-store vertex, outside the id window.
const FIXED: EntryPolicy = EntryPolicy::Fixed(700);

/// One row per (metric, store, entry); two `(filter, k)` cases per line,
/// columns in the routine order of [`pins`]. A segmented row repeats its flat
/// row, since segment seams change neither loop's answers; the scans take no
/// entry, so their columns repeat between a `hash` row and its `fixed` row.
/// The `hash` rows' graph columns were re-recorded when `QueryHash` began
/// seeding `C` with the best of 64 strided pivots instead of one hashed
/// vertex; the `fixed` rows and every scan column held.
#[rustfmt::skip]
const PINNED: [(&str, &str, &str, [u32; 8]); 12] = [
    ("euclidean", "flat", "hash", [
        0x705c_f282, 0x43c9_bd02, 0xe875_f018, 0x9f87_b823,
        0x33c7_3740, 0xb5d1_a0ba, 0x7e44_5982, 0x806c_4ffe,
    ]),
    ("euclidean", "segmented", "hash", [
        0x705c_f282, 0x43c9_bd02, 0xe875_f018, 0x9f87_b823,
        0x33c7_3740, 0xb5d1_a0ba, 0x7e44_5982, 0x806c_4ffe,
    ]),
    ("euclidean", "flat", "fixed", [
        0x1cd6_5556, 0x43c9_bd02, 0xb9cf_df42, 0x9f87_b823,
        0xa666_b13a, 0xb5d1_a0ba, 0x2963_900d, 0x806c_4ffe,
    ]),
    ("euclidean", "segmented", "fixed", [
        0x1cd6_5556, 0x43c9_bd02, 0xb9cf_df42, 0x9f87_b823,
        0xa666_b13a, 0xb5d1_a0ba, 0x2963_900d, 0x806c_4ffe,
    ]),
    ("angular", "flat", "hash", [
        0x1337_5f44, 0x4bac_a59c, 0xe762_f7c8, 0x4834_bdf2,
        0xceb6_efae, 0x9e85_bcdb, 0xcb01_35e5, 0x5a5d_1234,
    ]),
    ("angular", "segmented", "hash", [
        0x1337_5f44, 0x4bac_a59c, 0xe762_f7c8, 0x4834_bdf2,
        0xceb6_efae, 0x9e85_bcdb, 0xcb01_35e5, 0x5a5d_1234,
    ]),
    ("angular", "flat", "fixed", [
        0x334d_1eba, 0x4bac_a59c, 0xecfc_28d8, 0x4834_bdf2,
        0x8d54_5a03, 0x9e85_bcdb, 0x3b50_249f, 0x5a5d_1234,
    ]),
    ("angular", "segmented", "fixed", [
        0x334d_1eba, 0x4bac_a59c, 0xecfc_28d8, 0x4834_bdf2,
        0x8d54_5a03, 0x9e85_bcdb, 0x3b50_249f, 0x5a5d_1234,
    ]),
    ("inner_product", "flat", "hash", [
        0xd4ea_053d, 0xa829_2636, 0x77aa_64f2, 0x12df_dc67,
        0x897c_1ec2, 0x437d_ee96, 0xe1c2_e95e, 0x272d_266d,
    ]),
    ("inner_product", "segmented", "hash", [
        0xd4ea_053d, 0xa829_2636, 0x77aa_64f2, 0x12df_dc67,
        0x897c_1ec2, 0x437d_ee96, 0xe1c2_e95e, 0x272d_266d,
    ]),
    ("inner_product", "flat", "fixed", [
        0xfaae_845f, 0xa829_2636, 0x275a_2008, 0x12df_dc67,
        0x38ef_4699, 0x437d_ee96, 0x75a2_3506, 0x272d_266d,
    ]),
    ("inner_product", "segmented", "fixed", [
        0xfaae_845f, 0xa829_2636, 0x275a_2008, 0x12df_dc67,
        0x38ef_4699, 0x437d_ee96, 0x75a2_3506, 0x272d_266d,
    ]),
];

#[test]
fn beam_loop_and_scan_outputs_are_pinned() {
    let flat = lcg_rows(N, 7);
    let segmented = segmented(&flat);
    assert_eq!(segmented.num_segments(), 3);
    let queries = lcg_rows(3, 555);

    let mut got = Vec::new();
    for metric in [Metric::Euclidean, Metric::Angular, Metric::InnerProduct] {
        let graph = NnDescentParams::with_degree(8).build(flat.view(), metric);
        for entry in [EntryPolicy::QueryHash, FIXED] {
            got.push(pins(&graph, flat.view(), flat.slice(WINDOW), metric, &queries, entry));
            let (whole, window) = (segmented.view(), segmented.slice(WINDOW));
            got.push(pins(&graph, whole, window, metric, &queries, entry));
        }
    }

    let table: Vec<String> = PINNED
        .iter()
        .zip(&got)
        .map(|((metric, store, entry, _), pins)| {
            let hex: Vec<String> = pins.iter().map(|p| format!("0x{p:08x}")).collect();
            format!("    (\"{metric}\", \"{store}\", \"{entry}\", [{}]),", hex.join(", "))
        })
        .collect();
    for ((metric, store, entry, want), got) in PINNED.iter().zip(&got) {
        assert_eq!(
            &want[..],
            &got[..],
            "{metric}/{store}/{entry} outputs drifted; observed table:\n{}",
            table.join("\n")
        );
    }
}

/// Deterministic pseudo-random `dim`-wide rows with the angular norm cache.
/// `tied` rows take only the values −1, 0 and 1, so many pairs share a
/// distance and list inserts meet exact ties.
fn lcg_rows_of(n: usize, dim: usize, seed: u32, tied: bool) -> VectorStore {
    let mut s = VectorStore::new(dim);
    s.enable_norm_cache();
    let mut state = seed | 1;
    for _ in 0..n {
        let v: Vec<f32> = (0..dim)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if tied {
                    ((state >> 8) % 3) as f32 - 1.0
                } else {
                    ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
                }
            })
            .collect();
        s.push(&v);
    }
    s
}

/// One CRC-32 over a graph's adjacency: its degree, then every slot.
fn graph_crc(graph: &KnnGraph) -> u32 {
    let mut bytes = (graph.degree() as u32).to_le_bytes().to_vec();
    for id in graph.as_flat() {
        bytes.extend(id.to_le_bytes());
    }
    crc32(&bytes)
}

const NND_DEGREE: usize = 16;

/// The adjacency CRC of the degree-16 NNDescent graph over `n` rows, built
/// from a contiguous view and from a view that straddles segment seams (the
/// two must agree).
fn nndescent_crc(metric: Metric, n: usize, dim: usize, tied: bool) -> u32 {
    let params = NnDescentParams::with_degree(NND_DEGREE);
    // Four segments, the view starting half a segment in, so it spans at
    // least three of them.
    let seg_rows = n / 3 + 1;
    let flat = lcg_rows_of(4 * seg_rows, dim, 11, tied);
    let mut segs = SegmentStore::new(dim, seg_rows);
    for c in 0..4 {
        let rows = c * seg_rows..(c + 1) * seg_rows;
        segs.push_segment(Arc::new(Segment::from_view(flat.slice(rows))));
    }
    let rows = seg_rows / 2..seg_rows / 2 + n;
    let contiguous = graph_crc(&params.build(flat.slice(rows.clone()), metric));
    let segmented_view = segs.slice(rows);
    assert!(!segmented_view.is_contiguous());
    let segmented = graph_crc(&params.build(segmented_view, metric));
    assert_eq!(contiguous, segmented, "{metric}/{n}/{dim}/tied={tied}: views disagree");
    contiguous
}

/// One row per (metric, rows, dim, tied). `degree + 2` rows is the smallest
/// input that runs the local join; d = 100 leaves an 8-lane and a scalar
/// tail after the 64-float strides, d = 128 none. The `tied` rows hold only
/// −1, 0 and 1, so distances tie and the `(dist, id)` order decides list
/// inserts and the pair prefilter.
#[rustfmt::skip]
const NND_PINNED: [(&str, usize, usize, bool, u32); 24] = [
    ("euclidean", 18, 100, false, 0xf7bcd730), ("euclidean", 18, 128, false, 0x479f4998),
    ("euclidean", 1024, 100, false, 0x8969e751), ("euclidean", 1024, 128, false, 0x32df3fe8),
    ("euclidean", 4096, 100, false, 0x836cfdcb), ("euclidean", 4096, 128, false, 0xd40af4a6),
    ("euclidean", 1024, 100, true, 0xd240da8c), ("euclidean", 4096, 100, true, 0xafd7941e),
    ("angular", 18, 100, false, 0x9c34b410), ("angular", 18, 128, false, 0xd93a32de),
    ("angular", 1024, 100, false, 0x05b71c89), ("angular", 1024, 128, false, 0x99b43ea7),
    ("angular", 4096, 100, false, 0x1052e059), ("angular", 4096, 128, false, 0xed5308a9),
    ("angular", 1024, 100, true, 0x6d2e3a09), ("angular", 4096, 100, true, 0x88f516ee),
    ("inner_product", 18, 100, false, 0x941b6cb4), ("inner_product", 18, 128, false, 0x6bc0712d),
    ("inner_product", 1024, 100, false, 0x081c6bbc), ("inner_product", 1024, 128, false, 0xef4d9e68),
    ("inner_product", 4096, 100, false, 0xaad16638), ("inner_product", 4096, 128, false, 0x70d32c24),
    ("inner_product", 1024, 100, true, 0xa3e1b70b), ("inner_product", 4096, 100, true, 0x3b3f3bd4),
];

#[test]
fn nndescent_graphs_are_pinned() {
    let mut got = Vec::new();
    for metric in [Metric::Euclidean, Metric::Angular, Metric::InnerProduct] {
        let cases = [NND_DEGREE + 2, 1024, 4096].into_iter().flat_map(|n| [(n, 100), (n, 128)]);
        let tied = [(1024, 100), (4096, 100)];
        for (n, dim, tied) in
            cases.map(|(n, d)| (n, d, false)).chain(tied.map(|(n, d)| (n, d, true)))
        {
            got.push((metric.name(), n, dim, tied, nndescent_crc(metric, n, dim, tied)));
        }
    }
    let table: Vec<String> = got
        .iter()
        .map(|(m, n, dim, tied, crc)| format!("    (\"{m}\", {n}, {dim}, {tied}, 0x{crc:08x}),"))
        .collect();
    for (want, got) in NND_PINNED.iter().zip(&got) {
        assert_eq!(want, got, "graph drifted; observed table:\n{}", table.join("\n"));
    }
}
