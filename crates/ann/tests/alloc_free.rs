//! A warm graph search, and a warm scan into a caller's top-k, allocate
//! nothing.
//!
//! `SearchScratch` owns every buffer a beam search needs — the visited
//! marks, the candidate set, the result heap and the gather buffer — and the
//! scan's distance buffer, so once a scratch and an output vector (or top-k)
//! have served a set of queries, serving them again must not touch the
//! allocator. A counting global allocator (delegating to `System`) checks
//! that for the graph search over a three-segment store, under a time-style
//! filter and without one, and for the exact scan of a segmented and a
//! contiguous row range. It counts per thread, so the test harness's own
//! threads do not disturb it.

use mbi_ann::{
    brute_force_into, greedy_search_prepared, Metric, NnDescentParams, PreparedQuery, SearchParams,
    SearchScratch, SearchStats, Segment, SegmentStore, VectorStore,
};
use mbi_math::TopK;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation and reallocation of the calling thread.
struct Counting;

fn count() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const DIM: usize = 16;
const SEG_ROWS: usize = 200;

fn lcg_rows(n: usize, seed: u32) -> VectorStore {
    let mut s = VectorStore::new(DIM);
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

#[test]
fn warm_graph_searches_do_not_allocate() {
    let flat = lcg_rows(3 * SEG_ROWS, 7);
    let mut segmented = SegmentStore::new(DIM, SEG_ROWS);
    for c in 0..3 {
        let seg = Segment::from_view(flat.slice(c * SEG_ROWS..(c + 1) * SEG_ROWS));
        segmented.push_segment(Arc::new(seg));
    }
    let view = segmented.view();
    let graph = NnDescentParams::with_degree(8).build(flat.view(), Metric::Euclidean);
    let queries = lcg_rows(8, 555);
    let params = SearchParams::new(64, 1.2);
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    let mut stats = SearchStats::default();

    let mut run_all = |scratch: &mut SearchScratch, out: &mut Vec<_>| {
        for qi in 0..queries.len() {
            let pq = PreparedQuery::new(Metric::Euclidean, queries.get(qi));
            for windowed in [false, true] {
                let mut filter = |id: u32| !windowed || (150..420).contains(&id);
                for k in [1, 10] {
                    greedy_search_prepared(
                        &graph,
                        view,
                        &pq,
                        k,
                        &params,
                        &mut filter,
                        &mut stats,
                        scratch,
                        out,
                    );
                }
            }
        }
    };

    run_all(&mut scratch, &mut out);
    let before = allocations();
    run_all(&mut scratch, &mut out);
    let warm = allocations() - before;
    assert_eq!(warm, 0, "warm graph searches allocated {warm} times");
    assert!(stats.dist_evals > 0 && !out.is_empty(), "the searches ran");
}

#[test]
fn warm_scans_into_a_callers_topk_do_not_allocate() {
    let flat = lcg_rows(3 * SEG_ROWS, 11);
    let mut segmented = SegmentStore::new(DIM, SEG_ROWS);
    for c in 0..3 {
        let seg = Segment::from_view(flat.slice(c * SEG_ROWS..(c + 1) * SEG_ROWS));
        segmented.push_segment(Arc::new(seg));
    }
    let queries = lcg_rows(8, 909);
    let mut scratch = SearchScratch::new();
    let mut top = TopK::new(10);
    let mut stats = SearchStats::default();

    let mut run_all = |scratch: &mut SearchScratch, top: &mut TopK| {
        for qi in 0..queries.len() {
            let pq = PreparedQuery::new(Metric::Euclidean, queries.get(qi));
            for k in [1, 10] {
                top.reset(k);
                // A scan across two segment seams, then the query's other
                // rows from the flat store, into one merged top-k.
                brute_force_into(segmented.slice(150..520), &pq, 150, top, scratch, &mut stats);
                brute_force_into(flat.slice(520..600), &pq, 520, top, scratch, &mut stats);
            }
        }
    };

    run_all(&mut scratch, &mut top);
    let before = allocations();
    run_all(&mut scratch, &mut top);
    let warm = allocations() - before;
    assert_eq!(warm, 0, "warm scans allocated {warm} times");
    assert_eq!(stats.scanned, 2 * 8 * 2 * 450, "the scans ran");
    assert_eq!(top.len(), 10);
}
