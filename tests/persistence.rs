//! Persistence integration tests: save/load roundtrips at realistic scale,
//! and fuzzing malformed inputs (truncations and bit flips must produce
//! errors, never panics or silently wrong indexes).

use mbi::{GraphBackend, MbiConfig, MbiIndex, Metric, NnDescentParams, SearchParams, TimeWindow};

fn build(backend: GraphBackend, n: usize) -> MbiIndex {
    let config = MbiConfig::new(8, Metric::Angular)
        .with_leaf_size(128)
        .with_tau(0.4)
        .with_backend(backend)
        .with_search(SearchParams::new(48, 1.2))
        .with_parallel_build(true);
    let mut idx = MbiIndex::new(config);
    for i in 0..n {
        let x = i as f32 * 0.05;
        let v = [
            x.sin(),
            x.cos(),
            (2.0 * x).sin(),
            (2.0 * x).cos(),
            (0.5 * x).sin(),
            (0.5 * x).cos(),
            1.0,
            x.fract() + 0.1,
        ];
        idx.insert(&v, (i as i64) * 3 + 1).unwrap();
    }
    idx
}

fn same_behaviour(a: &MbiIndex, b: &MbiIndex) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.num_leaves(), b.num_leaves());
    assert_eq!(a.blocks().len(), b.blocks().len());
    assert_eq!(a.index_memory_bytes() > 0, b.index_memory_bytes() > 0);
    let q = [0.3f32, -0.7, 0.2, 0.9, 0.5, -0.5, 1.0, 0.4];
    for (s, e) in [(0i64, 3000i64), (50, 500), (1200, 1300), (2900, 3100)] {
        let w = TimeWindow::new(s, e);
        assert_eq!(a.query(&q, 7, w), b.query(&q, 7, w), "window [{s},{e})");
        assert_eq!(a.exact_query(&q, 7, w), b.exact_query(&q, 7, w));
    }
}

#[test]
fn roundtrip_nndescent_1000() {
    let idx =
        build(GraphBackend::NnDescent(NnDescentParams { degree: 10, ..Default::default() }), 1000);
    let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
    same_behaviour(&idx, &loaded);
}

#[test]
fn roundtrip_with_tail_and_partial_tree() {
    // 777 rows with leaf 128 → 6 leaves (binary 110: two subtrees) + tail.
    let idx = build(GraphBackend::default(), 777);
    assert!(!idx.tail_rows().is_empty());
    let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
    same_behaviour(&idx, &loaded);
    // The loaded index keeps accepting inserts.
    let mut loaded = loaded;
    let last_ts = loaded.timestamps()[loaded.len() - 1];
    loaded.insert(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.5], last_ts + 1).unwrap();
    assert_eq!(loaded.len(), 778);
}

#[test]
fn truncation_fuzz_never_panics() {
    let idx = build(GraphBackend::default(), 300);
    let bytes = idx.to_bytes();
    // Deterministic pseudo-random cut points across the whole stream.
    let mut x = 0x12345678u64;
    for _ in 0..200 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let cut = (x % bytes.len() as u64) as usize;
        let res = MbiIndex::from_bytes(bytes.slice(0..cut));
        assert!(res.is_err(), "truncation at {cut} accepted");
    }
}

#[test]
fn bitflip_fuzz_never_panics() {
    let idx = build(GraphBackend::default(), 200);
    let bytes = idx.to_bytes().to_vec();
    let mut x = 0xDEADBEEFu64;
    for _ in 0..300 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pos = (x % bytes.len() as u64) as usize;
        let bit = 1u8 << (x >> 40 & 7);
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= bit;
        // v5 streams are section-checksummed: *every* flip — including one
        // in the vector payload, which pre-v5 loaded as a silently
        // different index — must surface as an error, never a panic.
        let res = MbiIndex::from_bytes(bytes::Bytes::from(corrupted));
        assert!(res.is_err(), "flip at byte {pos} (bit mask {bit:#04x}) accepted");
    }
}

#[test]
fn loaded_index_preserves_config() {
    let idx =
        build(GraphBackend::NnDescent(NnDescentParams { degree: 10, ..Default::default() }), 500);
    let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
    assert_eq!(loaded.config().leaf_size, 128);
    assert_eq!(loaded.config().tau, 0.4);
    assert_eq!(loaded.config().metric, Metric::Angular);
    assert_eq!(loaded.config().search.max_candidates, 48);
    assert!(loaded.config().parallel_build);
}
