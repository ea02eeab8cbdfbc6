//! Top-down block selection (§4.3, Algorithm 4 lines 11–20).
//!
//! Given a query time window, MBI picks a *search block set*: time-disjoint
//! blocks that together cover every vector in the window, preferring blocks
//! whose window is mostly covered (overlap ratio `r_o > τ`) so each per-block
//! graph search filters out little.
//!
//! The paper completes a partially built tree with *virtual blocks* whose
//! windows span `(−∞, ∞)`; these always fall into Case 3 (recurse) and are
//! never selected. Equivalently — and this is how it is implemented here —
//! the materialised blocks form a forest of maximal complete subtrees given
//! by the binary decomposition of the number of leaves under blocks, and
//! selection simply walks each maximal root. Selection reads only each
//! block's time span and height, through an accessor the caller supplies.
//! The rows no block covers are the *tail* — an index's partial leaf, or a
//! snapshot's sealed but unbuilt leaves; the executor scans them with BSBF,
//! exactly as Algorithm 4 line 6 prescribes for non-full leaf blocks.

use crate::layout;
use crate::Timestamp;
use serde::{Deserialize, Serialize};

/// A half-open query time window `[start, end)` — Definition 3.1 uses
/// `t_s ≤ t < t_e`.
///
/// ```
/// use mbi_core::TimeWindow;
///
/// let w = TimeWindow::new(10, 20);
/// assert!(w.contains(10) && !w.contains(20));
/// assert_eq!(w.len(), 10);
/// assert_eq!(w.overlap_with(15, 30), 5);
/// assert!(TimeWindow::all().contains(i64::MIN));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeWindow {
    /// Inclusive start timestamp `t_s`.
    pub start: Timestamp,
    /// Exclusive end timestamp `t_e`.
    pub end: Timestamp,
}

impl TimeWindow {
    /// Creates a window. An empty window (`start == end`) is allowed and
    /// matches nothing.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(start <= end, "window start {start} is after end {end}");
        TimeWindow { start, end }
    }

    /// Window covering every timestamp.
    pub fn all() -> Self {
        TimeWindow { start: Timestamp::MIN, end: Timestamp::MAX }
    }

    /// Whether `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// Length of the window in timestamp units.
    #[inline]
    pub fn len(&self) -> i64 {
        self.end - self.start
    }

    /// Whether the window matches nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Length of the intersection with `[bs, be)`, clamped at zero — the
    /// numerator of the overlap ratio.
    #[inline]
    pub fn overlap_with(&self, bs: Timestamp, be: Timestamp) -> i64 {
        (self.end.min(be) - self.start.max(bs)).max(0)
    }
}

/// The outcome of block selection for one query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchBlockSet {
    /// Postorder indices of the selected full blocks.
    pub blocks: Vec<usize>,
    /// Whether the tail — the rows no block covers — overlaps the window
    /// and must be scanned with BSBF.
    pub tail: bool,
}

impl SearchBlockSet {
    /// Total number of places (blocks + tail scan) the query will touch.
    pub fn places(&self) -> usize {
        self.blocks.len() + usize::from(self.tail)
    }
}

/// The overlap ratio `r_o(q, B_c)` of §4.3 for a block spanning
/// `[start_ts, end_ts)`:
/// `max(0, min(B.t_e, t_e) − max(B.t_s, t_s)) / (B.t_e − B.t_s)`.
///
/// Blocks built by [`crate::MbiIndex`] always have a positive span (`end_ts`
/// is exclusive, one past the last timestamp), but a caller's accessor can
/// present a zero-span block. The ratio's limit as the span shrinks to a
/// point is 1 when the window contains that instant and 0 otherwise, so a
/// degenerate block is treated as fully covered or disjoint instead of
/// dividing by zero (a panic in debug, NaN — which silently fails every
/// `> τ` comparison — in release).
pub fn overlap_ratio(window: TimeWindow, start_ts: Timestamp, end_ts: Timestamp) -> f64 {
    let num = window.overlap_with(start_ts, end_ts);
    let den = end_ts - start_ts;
    if den <= 0 {
        return if window.contains(start_ts) { 1.0 } else { 0.0 };
    }
    num as f64 / den as f64
}

/// Postorder indices of the roots of the maximal complete subtrees for
/// `num_leaves` full leaves, oldest first.
pub fn maximal_roots(num_leaves: usize) -> Vec<usize> {
    layout::roots(num_leaves).collect()
}

/// `BlockSelection` of Algorithm 4 applied to every maximal root. `meta(i)`
/// is the `(start_ts, end_ts, height)` of the block at postorder index `i`.
/// Returns postorder indices of the selected blocks, in increasing time
/// order.
pub fn select_blocks<F>(meta: F, num_leaves: usize, tau: f64, window: TimeWindow) -> Vec<usize>
where
    F: Fn(usize) -> (Timestamp, Timestamp, u32),
{
    let mut selected = Vec::new();
    for root in layout::roots(num_leaves) {
        select_rec(&meta, root, tau, window, &mut selected);
    }
    selected
}

fn select_rec<F>(meta: &F, c: usize, tau: f64, window: TimeWindow, out: &mut Vec<usize>)
where
    F: Fn(usize) -> (Timestamp, Timestamp, u32),
{
    let (start_ts, end_ts, h) = meta(c);
    let r_o = overlap_ratio(window, start_ts, end_ts);
    if r_o == 0.0 {
        // Case 1: disjoint from the window.
        return;
    }
    if h == 0 || r_o > tau {
        // Case 2: leaf, or the window covers enough of the block.
        out.push(c);
        return;
    }
    // Case 3: recurse into children.
    let (left, right) = layout::children(c, h);
    select_rec(meta, left, tau, window, out);
    select_rec(meta, right, tau, window, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lightweight block for selection tests.
    struct Meta {
        s: i64,
        e: i64,
        h: u32,
    }

    /// The selection accessor over a test block array.
    fn meta(blocks: &[Meta]) -> impl Fn(usize) -> (i64, i64, u32) + '_ {
        |i| (blocks[i].s, blocks[i].e, blocks[i].h)
    }

    /// Builds the postorder block array of a complete tree over `leaves`
    /// leaf windows of length `leaf_span`, starting at timestamp 0.
    fn complete_tree(leaves: usize, leaf_span: i64) -> Vec<Meta> {
        assert!(leaves.is_power_of_two());
        let mut out = Vec::new();
        build(0, leaves, leaf_span, &mut out);
        fn build(first_leaf: usize, leaves: usize, span: i64, out: &mut Vec<Meta>) {
            if leaves == 1 {
                let s = first_leaf as i64 * span;
                out.push(Meta { s, e: s + span, h: 0 });
                return;
            }
            build(first_leaf, leaves / 2, span, out);
            build(first_leaf + leaves / 2, leaves / 2, span, out);
            let s = first_leaf as i64 * span;
            out.push(Meta { s, e: s + leaves as i64 * span, h: leaves.trailing_zeros() });
        }
        out
    }

    #[test]
    fn window_basics() {
        let w = TimeWindow::new(10, 20);
        assert!(w.contains(10));
        assert!(!w.contains(20));
        assert_eq!(w.len(), 10);
        assert!(!w.is_empty());
        assert!(TimeWindow::new(5, 5).is_empty());
        assert_eq!(w.overlap_with(15, 30), 5);
        assert_eq!(w.overlap_with(25, 30), 0);
    }

    #[test]
    #[should_panic(expected = "after end")]
    fn reversed_window_rejected() {
        TimeWindow::new(10, 5);
    }

    #[test]
    fn maximal_roots_examples() {
        assert_eq!(maximal_roots(0), Vec::<usize>::new());
        assert_eq!(maximal_roots(1), vec![0]);
        assert_eq!(maximal_roots(2), vec![2]);
        // 3 = 2 + 1: tree of 2 leaves (3 blocks, root 2) then leaf at 3.
        assert_eq!(maximal_roots(3), vec![2, 3]);
        assert_eq!(maximal_roots(4), vec![6]);
        // 6 = 4 + 2: root 6, then 3-block subtree rooted at 9.
        assert_eq!(maximal_roots(6), vec![6, 9]);
        // 7 = 4 + 2 + 1.
        assert_eq!(maximal_roots(7), vec![6, 9, 10]);
    }

    #[test]
    fn overlap_ratio_values() {
        let b = Meta { s: 0, e: 100, h: 3 };
        assert_eq!(overlap_ratio(TimeWindow::new(0, 100), b.s, b.e), 1.0);
        assert_eq!(overlap_ratio(TimeWindow::new(0, 50), b.s, b.e), 0.5);
        assert_eq!(overlap_ratio(TimeWindow::new(100, 200), b.s, b.e), 0.0);
        assert_eq!(overlap_ratio(TimeWindow::new(-50, 25), b.s, b.e), 0.25);
    }

    #[test]
    fn overlap_ratio_zero_span_block() {
        let b = Meta { s: 50, e: 50, h: 0 };
        assert_eq!(overlap_ratio(TimeWindow::new(0, 100), b.s, b.e), 1.0);
        assert_eq!(overlap_ratio(TimeWindow::new(50, 51), b.s, b.e), 1.0);
        assert_eq!(overlap_ratio(TimeWindow::new(0, 50), b.s, b.e), 0.0);
        assert_eq!(overlap_ratio(TimeWindow::new(51, 100), b.s, b.e), 0.0);
        // And through selection: a zero-span leaf inside the window is
        // selected rather than panicking or vanishing behind a NaN ratio.
        let blocks = vec![Meta { s: 50, e: 50, h: 0 }];
        assert_eq!(select_blocks(meta(&blocks), 1, 0.5, TimeWindow::new(0, 100)), vec![0]);
        assert!(select_blocks(meta(&blocks), 1, 0.5, TimeWindow::new(0, 50)).is_empty());
    }

    #[test]
    fn full_window_selects_single_root_with_low_tau() {
        let blocks = complete_tree(8, 10); // 15 blocks, root = 14, span [0, 80)
        let sel = select_blocks(meta(&blocks), 8, 0.5, TimeWindow::new(0, 80));
        assert_eq!(sel, vec![14], "whole-database window should use the root");
    }

    #[test]
    fn disjoint_window_selects_nothing() {
        let blocks = complete_tree(8, 10);
        let sel = select_blocks(meta(&blocks), 8, 0.5, TimeWindow::new(1000, 2000));
        assert!(sel.is_empty());
        let sel = select_blocks(meta(&blocks), 8, 0.5, TimeWindow::new(40, 40));
        assert!(sel.is_empty(), "empty window matches nothing");
    }

    #[test]
    fn tau_one_prefers_leaves() {
        // With τ = 1 no internal block can satisfy r_o > τ, so only exactly
        // covered... no: even full cover gives r_o = 1 which is not > 1, so
        // selection descends to leaves.
        let blocks = complete_tree(4, 10); // spans [0,40)
        let sel = select_blocks(meta(&blocks), 4, 1.0, TimeWindow::new(0, 40));
        let heights: Vec<u32> = sel.iter().map(|&i| blocks[i].h).collect();
        assert_eq!(heights, vec![0, 0, 0, 0]);
    }

    #[test]
    fn tau_half_guarantees_at_most_two_blocks() {
        // Lemma 4.1: τ ≤ 0.5 on a complete tree ⇒ ≤ 2 blocks.
        let blocks = complete_tree(16, 5); // span [0, 80)
        for (s, e) in [(0, 80), (3, 41), (17, 22), (0, 1), (79, 80), (10, 70), (35, 45)] {
            let sel = select_blocks(meta(&blocks), 16, 0.5, TimeWindow::new(s, e));
            assert!(sel.len() <= 2, "window [{s},{e}) selected {} blocks: {:?}", sel.len(), sel);
        }
    }

    #[test]
    fn selection_covers_window_disjointly() {
        let blocks = complete_tree(16, 5);
        let w = TimeWindow::new(12, 63);
        for tau in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let sel = select_blocks(meta(&blocks), 16, tau, w);
            // Every selected block overlaps the window.
            for &i in &sel {
                assert!(overlap_ratio(w, blocks[i].s, blocks[i].e) > 0.0);
            }
            // Selected blocks are pairwise disjoint in time.
            for (ai, &a) in sel.iter().enumerate() {
                for &b in &sel[ai + 1..] {
                    let (ba, bb) = (&blocks[a], &blocks[b]);
                    let overlap = ba.e.min(bb.e) - ba.s.max(bb.s);
                    assert!(overlap <= 0, "blocks {a} and {b} overlap (tau {tau})");
                }
            }
            // Union of selected blocks covers the whole window.
            let covered: i64 = sel.iter().map(|&i| w.overlap_with(blocks[i].s, blocks[i].e)).sum();
            assert_eq!(covered, w.len(), "tau {tau} left part of the window uncovered");
        }
    }

    #[test]
    fn mid_tree_window_uses_mixed_levels() {
        // Window [5, 40) over leaves of span 10: leaf 0 is half covered,
        // leaves 1-3 fully. With τ = 0.5 the selection mixes levels.
        let blocks = complete_tree(4, 10);
        let sel = select_blocks(meta(&blocks), 4, 0.5, TimeWindow::new(5, 40));
        let covered: i64 = sel
            .iter()
            .map(|&i| TimeWindow::new(5, 40).overlap_with(blocks[i].s, blocks[i].e))
            .sum();
        assert_eq!(covered, 35);
        assert!(sel.len() <= 2, "Lemma 4.1 bound");
    }

    #[test]
    fn forest_of_maximal_roots_is_walked() {
        // 6 leaves: a 4-leaf tree [0,40) and a 2-leaf tree [40,60).
        let mut blocks = complete_tree(4, 10);
        let base = blocks.len() as i64; // 7 blocks
        assert_eq!(base, 7);
        blocks.push(Meta { s: 40, e: 50, h: 0 });
        blocks.push(Meta { s: 50, e: 60, h: 0 });
        blocks.push(Meta { s: 40, e: 60, h: 1 });
        let sel = select_blocks(meta(&blocks), 6, 0.4, TimeWindow::new(0, 60));
        // Both maximal roots are fully covered: r_o = 1 > 0.4 each.
        assert_eq!(sel, vec![6, 9]);
    }

    #[test]
    fn search_block_set_places() {
        let s = SearchBlockSet { blocks: vec![1, 2], tail: true };
        assert_eq!(s.places(), 3);
        let s = SearchBlockSet::default();
        assert_eq!(s.places(), 0);
    }
}
