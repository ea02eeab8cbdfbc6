//! Pinned outputs of Algorithm 2's beam loop and of the chunked exact scan.
//!
//! Every public entry point that runs one of the two loops — exact and SQ8,
//! over a flat store and over a three-segment quantized store, under all
//! three metrics — answers fixed queries on fixed data, and each case folds
//! its output into one CRC-32: every returned `(id, dist bits)` followed by
//! the five `SearchStats` counters. Refactors of either loop must reproduce
//! the table bit for bit; a change meant to alter results updates it and
//! says why.
//!
//! The SQ8 scorer runs through the dispatched `sq8_code_dot` kernel, so the
//! table must hold on the SIMD and the forced-scalar backend alike.

use mbi_ann::{
    brute_force_prepared, brute_force_sq8_prepared, greedy_search_prepared,
    greedy_search_sq8_prepared, KnnGraph, Metric, Neighbor, NnDescentParams, PreparedQuery,
    SearchParams, SearchScratch, SearchStats, Segment, SegmentStore, VectorStore, VectorView,
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

fn quantized(src: &VectorStore) -> SegmentStore {
    let mut store = SegmentStore::new(DIM, SEG_ROWS);
    for c in 0..src.len() / SEG_ROWS {
        let mut seg = Segment::from_view(src.slice(c * SEG_ROWS..(c + 1) * SEG_ROWS));
        seg.build_sq8();
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

/// The 20 case pins of one (metric, store) pair, in the order
/// `filter ∈ {all, window}` × `k ∈ {1, 10}` × `{graph, graph sq8 ×1,
/// graph sq8 ×3, scan, scan sq8 ×3}`. The graph searches filter by id; the
/// scans, which take no filter, run over the window's rows instead.
fn pins(
    graph: &KnnGraph,
    whole: VectorView<'_>,
    window: VectorView<'_>,
    metric: Metric,
    queries: &VectorStore,
) -> Vec<u32> {
    let params = SearchParams::new(64, 1.2);
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    let mut pins = Vec::new();
    for windowed in [false, true] {
        let scan_view = if windowed { window } else { whole };
        let accept = |id: u32| !windowed || WINDOW.contains(&(id as usize));
        for k in [1usize, 10] {
            for case in 0..5 {
                let mut bytes = Vec::new();
                for qi in 0..queries.len() {
                    let pq = PreparedQuery::new(metric, queries.get(qi));
                    let mut stats = SearchStats::default();
                    let mut filter = accept;
                    match case {
                        0 => greedy_search_prepared(
                            graph,
                            whole,
                            &pq,
                            k,
                            &params,
                            &mut filter,
                            &mut stats,
                            &mut scratch,
                            &mut out,
                        ),
                        1 | 2 => greedy_search_sq8_prepared(
                            graph,
                            whole,
                            &pq,
                            k,
                            if case == 1 { 1.0 } else { 3.0 },
                            &params,
                            &mut filter,
                            &mut stats,
                            &mut scratch,
                            &mut out,
                        ),
                        3 => out = brute_force_prepared(scan_view, &pq, k, &mut stats),
                        _ => out = brute_force_sq8_prepared(scan_view, &pq, k, 3.0, &mut stats),
                    }
                    transcript(&mut bytes, &out, &stats);
                }
                pins.push(crc32(&bytes));
            }
        }
    }
    pins
}

/// One row per (metric, store); one line per (filter, k), columns in the
/// routine order of [`pins`]. On the flat store the SQ8 entry points fall
/// back to exact, so their columns repeat the exact ones.
#[rustfmt::skip]
const PINNED: [(&str, &str, [u32; 20]); 6] = [
    ("euclidean", "flat", [
        0x946d_fbee, 0x946d_fbee, 0x946d_fbee, 0x43c9_bd02, 0x43c9_bd02,
        0x17b6_9a0d, 0x17b6_9a0d, 0x17b6_9a0d, 0x9f87_b823, 0x9f87_b823,
        0x5076_f81c, 0x5076_f81c, 0x5076_f81c, 0xb5d1_a0ba, 0xb5d1_a0ba,
        0x91aa_4734, 0x91aa_4734, 0x91aa_4734, 0x806c_4ffe, 0x806c_4ffe,
    ]),
    ("euclidean", "sq8", [
        0x946d_fbee, 0x2d2f_593e, 0x4f45_25d3, 0x43c9_bd02, 0xd0f9_ad2f,
        0x17b6_9a0d, 0x0823_5b6b, 0x4481_f50e, 0x9f87_b823, 0xc663_96e3,
        0x5076_f81c, 0x97b6_0a38, 0x4bb8_68ad, 0xb5d1_a0ba, 0x8f00_7485,
        0x91aa_4734, 0xdc47_ca96, 0xac96_8b3e, 0x806c_4ffe, 0xbc1d_b29d,
    ]),
    ("angular", "flat", [
        0x5162_42d0, 0x5162_42d0, 0x5162_42d0, 0x4bac_a59c, 0x4bac_a59c,
        0xe435_3a44, 0xe435_3a44, 0xe435_3a44, 0x4834_bdf2, 0x4834_bdf2,
        0xf446_bf84, 0xf446_bf84, 0xf446_bf84, 0x9e85_bcdb, 0x9e85_bcdb,
        0x8cab_03d1, 0x8cab_03d1, 0x8cab_03d1, 0x5a5d_1234, 0x5a5d_1234,
    ]),
    ("angular", "sq8", [
        0x5162_42d0, 0xbf88_9b01, 0x8e6d_a54c, 0x4bac_a59c, 0xd89c_b5b1,
        0xe435_3a44, 0x40bb_30ff, 0xcbb3_4d24, 0x4834_bdf2, 0x11d0_9332,
        0xf446_bf84, 0xe2ab_42fb, 0x4325_a151, 0x9e85_bcdb, 0xa454_68e4,
        0x8cab_03d1, 0x4604_aa77, 0xc29c_5e3d, 0x5a5d_1234, 0x662c_ef57,
    ]),
    ("inner_product", "flat", [
        0xac58_d6fb, 0xac58_d6fb, 0xac58_d6fb, 0xa829_2636, 0xa829_2636,
        0xde87_e617, 0xde87_e617, 0xde87_e617, 0x12df_dc67, 0x12df_dc67,
        0x3799_eb1b, 0x3799_eb1b, 0x3799_eb1b, 0x437d_ee96, 0x437d_ee96,
        0x02af_b298, 0x02af_b298, 0x02af_b298, 0x272d_266d, 0x272d_266d,
    ]),
    ("inner_product", "sq8", [
        0xac58_d6fb, 0x6b98_24df, 0xddd5_bd45, 0xa829_2636, 0x3b19_361b,
        0xde87_e617, 0xef28_71ee, 0x72ab_f2ad, 0x12df_dc67, 0x4b3b_f2a7,
        0x3799_eb1b, 0x75a1_3bf0, 0xda29_11b8, 0x437d_ee96, 0x79ac_3aa9,
        0x02af_b298, 0xa1d3_dfa6, 0x2ef1_eda6, 0x272d_266d, 0x1b5c_db0e,
    ]),
];

#[test]
fn beam_loop_and_scan_outputs_are_pinned() {
    let flat = lcg_rows(N, 7);
    let segmented = quantized(&flat);
    assert_eq!(segmented.num_segments(), 3);
    assert!(segmented.has_sq8());
    let queries = lcg_rows(3, 555);

    let mut got = Vec::new();
    for metric in [Metric::Euclidean, Metric::Angular, Metric::InnerProduct] {
        let graph = NnDescentParams::with_degree(8).build(flat.view(), metric);
        got.push(pins(&graph, flat.view(), flat.slice(WINDOW), metric, &queries));
        got.push(pins(&graph, segmented.view(), segmented.slice(WINDOW), metric, &queries));
    }

    let table: Vec<String> = PINNED
        .iter()
        .zip(&got)
        .map(|((metric, store, _), pins)| {
            let hex: Vec<String> = pins.iter().map(|p| format!("0x{p:08x}")).collect();
            format!("    (\"{metric}\", \"{store}\", [{}]),", hex.join(", "))
        })
        .collect();
    for ((metric, store, want), got) in PINNED.iter().zip(&got) {
        assert_eq!(
            &want[..],
            &got[..],
            "{metric}/{store} outputs drifted; observed table:\n{}",
            table.join("\n")
        );
    }
}
