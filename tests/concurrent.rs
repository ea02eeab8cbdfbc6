//! Concurrency integration tests for [`mbi::StreamingMbi`]: correctness of
//! historical queries while ingestion proceeds, convergence of the streaming
//! engine to the synchronous index, and clean builder-thread shutdown.

use mbi::{
    BlockGraph, EngineConfig, GraphBackend, MbiConfig, MbiIndex, Metric, NnDescentParams,
    StreamingMbi, TimeWindow,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn config() -> MbiConfig {
    MbiConfig::new(4, Metric::Euclidean)
        .with_leaf_size(64)
        .with_backend(GraphBackend::NnDescent(NnDescentParams {
            degree: 6,
            max_iters: 4,
            ..Default::default()
        }))
        .with_parallel_build(true)
}

fn vec_for(i: i64) -> [f32; 4] {
    let x = i as f32 * 0.01;
    [x.sin() * 10.0, x.cos() * 10.0, (3.0 * x).sin() * 10.0, x.fract()]
}

#[test]
fn historical_answers_are_stable_under_ingest() {
    let idx = StreamingMbi::new(config());
    for i in 0..512i64 {
        idx.insert(&vec_for(i), i).unwrap();
    }
    // Snapshot the exact answer for a frozen window.
    let frozen = TimeWindow::new(0, 512);
    let q = [5.0f32, -5.0, 2.0, 0.5];
    let baseline = idx.exact_query(&q, 10, frozen);

    let done = AtomicBool::new(false);
    let checks = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 512..3_000i64 {
                idx.insert(&vec_for(i), i).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..4 {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    // Exact answers over the frozen window never change,
                    // no matter how much newer data lands.
                    let now = idx.exact_query(&q, 10, frozen);
                    assert_eq!(now, baseline);
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert!(checks.load(Ordering::Relaxed) > 0);
    assert_eq!(idx.len(), 3_000);
}

#[test]
fn approximate_queries_stay_in_window_under_ingest() {
    let idx = StreamingMbi::new(config());
    for i in 0..256i64 {
        idx.insert(&vec_for(i), i).unwrap();
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 256..2_048i64 {
                idx.insert(&vec_for(i), i).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for worker in 0..3i64 {
            let idx = &idx;
            let done = &done;
            s.spawn(move || {
                let q = vec_for(worker * 37);
                let mut rounds = 0;
                while !done.load(Ordering::Acquire) || rounds < 3 {
                    let w = TimeWindow::new(worker * 10, 200 + worker * 10);
                    let res = idx.query(&q, 5, w);
                    assert_eq!(res.len(), 5);
                    for r in &res {
                        assert!(w.contains(r.timestamp));
                    }
                    rounds += 1;
                }
            });
        }
    });
}

/// Field-by-field equality of two indexes, down to the graph adjacency
/// lists — the "bit-identical" acceptance bar for the streaming engine.
fn assert_same_index(a: &MbiIndex, b: &MbiIndex) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.timestamps(), b.timestamps());
    assert_eq!(a.store().as_flat(), b.store().as_flat());
    assert_eq!(a.blocks().len(), b.blocks().len());
    for (x, y) in a.blocks().iter().zip(b.blocks()) {
        assert_eq!(x.rows, y.rows);
        assert_eq!(x.height, y.height);
        assert_eq!(x.start_ts, y.start_ts);
        assert_eq!(x.end_ts, y.end_ts);
        let (BlockGraph(g), BlockGraph(h)) = (&x.graph, &y.graph);
        assert_eq!(g.degree(), h.degree());
        assert_eq!(g.as_flat(), h.as_flat(), "graph differs in block {:?}", x.rows);
    }
}

#[test]
fn streaming_queries_stay_correct_during_root_level_merges() {
    // Leaf size 64: sealing leaf 8 (row 512), 16 (row 1024), … triggers
    // root-level merge chains (heights up to 3 and 4). Readers hammer a
    // frozen committed window throughout and must always see the exact
    // pre-merge answer.
    let engine = StreamingMbi::with_engine_config(
        config(),
        EngineConfig::default().with_builder_threads(2).with_queue_depth(4),
    );
    for i in 0..512i64 {
        engine.insert(&vec_for(i), i).unwrap();
    }
    engine.flush();
    let frozen = TimeWindow::new(0, 512);
    let q = [5.0f32, -5.0, 2.0, 0.5];
    let baseline_exact = engine.exact_query(&q, 10, frozen);
    let baseline_approx = engine.query(&q, 10, frozen);

    let done = AtomicBool::new(false);
    let checks = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 512..2_048i64 {
                engine.insert(&vec_for(i), i).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..3 {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    assert_eq!(engine.exact_query(&q, 10, frozen), baseline_exact);
                    // The frozen window's committed data never changes, so
                    // the approximate answer is stable too (same blocks,
                    // same graphs, deterministic search).
                    assert_eq!(engine.query(&q, 10, frozen), baseline_approx);
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert!(checks.load(Ordering::Relaxed) > 0);
    engine.flush();
    assert_eq!(engine.len(), 2_048);
    let stats = engine.stats();
    assert_eq!(stats.seals, 2_048 / 64);
    assert_eq!(stats.published_leaves, stats.seals);
    assert_eq!(stats.published_height, (2_048usize / 64).trailing_zeros());
}

#[test]
fn streaming_flush_converges_to_the_synchronous_index() {
    // 1000 rows = 15 sealed leaves + a 40-row tail; exercises out-of-order
    // background completion (multi-builder) and rendezvous channels. Every
    // configuration must converge to the same bits as the single-threaded
    // synchronous build.
    let mut sync = MbiIndex::new(config());
    for i in 0..1_000i64 {
        sync.insert(&vec_for(i), i).unwrap();
    }
    sync.validate().expect("sync index valid");

    let engine_configs = [
        EngineConfig::default(),
        EngineConfig::default().with_builder_threads(3).with_queue_depth(8),
        EngineConfig::default().with_builder_threads(2).with_queue_depth(0),
    ];
    for ec in engine_configs {
        let engine = StreamingMbi::with_engine_config(config(), ec);
        for i in 0..1_000i64 {
            engine.insert(&vec_for(i), i).unwrap();
        }
        let index = engine.to_index();
        index.validate().expect("converged index valid");
        assert_same_index(&index, &sync);
    }
}

#[test]
fn dropping_the_engine_mid_build_joins_all_builders() {
    // Seal a burst of leaves and drop immediately: Drop must drain/join the
    // builder threads without deadlock or panic, repeatedly.
    for round in 0..4 {
        let engine = StreamingMbi::with_engine_config(
            config(),
            EngineConfig::default().with_builder_threads(1 + round % 3).with_queue_depth(16),
        );
        for i in 0..640i64 {
            engine.insert(&vec_for(i), i).unwrap();
        }
        assert_eq!(engine.len(), 640);
        drop(engine); // builds for up to 10 chains may still be in flight
    }
}

#[test]
fn published_snapshots_share_storage_with_predecessors() {
    // The O(leaf) publication claim, asserted structurally: a later snapshot
    // holds the *same allocations* for its common prefix — segments,
    // timestamp chunks, and blocks — so publication (and the sealing insert
    // that triggers it) never copies the sealed prefix, no matter how large
    // it has grown.
    use std::sync::Arc;
    let engine = StreamingMbi::new(config());
    for i in 0..128i64 {
        engine.insert(&vec_for(i), i).unwrap();
    }
    engine.flush();
    let early = engine.snapshot();
    assert_eq!(early.num_leaves(), 2);
    for i in 128..1_024i64 {
        engine.insert(&vec_for(i), i).unwrap();
    }
    engine.flush();
    let late = engine.snapshot();
    assert_eq!(late.num_leaves(), 16);
    for (a, b) in early.store().segments().iter().zip(late.store().segments()) {
        assert!(Arc::ptr_eq(a, b), "a later publication copied a sealed segment");
    }
    for (a, b) in early.times().chunks().iter().zip(late.times().chunks()) {
        assert!(Arc::ptr_eq(a, b), "a later publication copied a timestamp chunk");
    }
    for (a, b) in early.blocks().iter().zip(late.blocks()) {
        assert!(Arc::ptr_eq(a, b), "a later publication copied a block");
    }
    // Every publication took its latency sample, and the snapshot is sound.
    assert!(!engine.stats().publish_nanos.is_empty());
    assert_eq!(late.validate(), Ok(()));
}

#[test]
fn streaming_snapshot_queries_match_the_synchronous_index() {
    // Bit-identical serving through the segmented snapshot path: after a
    // flush at a leaf boundary (empty tail), every query must return exactly
    // what the flat synchronous index returns — same ids, same distance
    // bits — across metrics of window, k, and query point.
    let mut sync = MbiIndex::new(config());
    let engine = StreamingMbi::with_engine_config(
        config(),
        EngineConfig::default().with_builder_threads(2).with_queue_depth(4),
    );
    for i in 0..1_024i64 {
        sync.insert(&vec_for(i), i).unwrap();
        engine.insert(&vec_for(i), i).unwrap();
    }
    engine.flush();
    for (qi, k, w) in [
        (3i64, 1usize, TimeWindow::all()),
        (100, 5, TimeWindow::new(0, 1_024)),
        (555, 10, TimeWindow::new(100, 900)),
        (901, 7, TimeWindow::new(512, 520)),
        (17, 3, TimeWindow::new(63, 65)),
    ] {
        let q = vec_for(qi * 13);
        assert_eq!(engine.query(&q, k, w), sync.query(&q, k, w), "q{qi} k{k}");
        assert_eq!(engine.exact_query(&q, k, w), sync.exact_query(&q, k, w), "exact q{qi} k{k}");
    }
}

#[test]
fn every_committed_row_is_served_exactly_once_across_seals() {
    // A seal publishes its leaf while it holds the tail lock, and a query
    // takes that lock before it loads the snapshot: every sealed leaf is in
    // exactly one of the two. An exact query for all rows must return each
    // committed id once — ids exactly `0..m` — for an `m` between the row
    // counts read before and after it.
    const N: i64 = 1_500;
    let engine = StreamingMbi::with_engine_config(
        config(),
        EngineConfig::default().with_builder_threads(1).with_queue_depth(1),
    );
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..N {
                engine.insert(&vec_for(i), i).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for reader in 0..3i64 {
            let (engine, done) = (&engine, &done);
            s.spawn(move || {
                let q = vec_for(reader * 500);
                let mut rounds = 0;
                while !done.load(Ordering::Acquire) || rounds < 3 {
                    let n0 = engine.len();
                    let hits = engine.exact_query(&q, N as usize, TimeWindow::all());
                    let n1 = engine.len();
                    let mut ids: Vec<usize> = hits.iter().map(|h| h.id as usize).collect();
                    ids.sort_unstable();
                    let m = ids.len();
                    assert!(n0 <= m && m <= n1, "{n0} ≤ {m} ≤ {n1}");
                    assert!(ids.iter().enumerate().all(|(i, &id)| i == id), "ids are not 0..{m}");
                    rounds += 1;
                }
            });
        }
    });
    assert_eq!(engine.len(), N as usize);
}
