//! Bounded top-k selection.
//!
//! §3.2.1 of the paper notes that BSBF's brute-force stage costs `O(m log k)`
//! when "a max-heap of size k is used". [`TopK`] is exactly that heap; it is
//! also used to merge per-block results in MBI's query process (Algorithm 4,
//! line 9) and to hold the result set `R` of the graph search (Algorithm 2).

use crate::OrderedF32;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// A candidate result: a vector id and its distance to the query.
///
/// Ordering is by distance, then by id (for deterministic tie-breaking —
/// §3.1 of the paper assigns ties an arbitrary but fixed order, and
/// deterministic output makes recall measurements reproducible).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Identifier of the data vector (position in its store).
    pub id: u32,
    /// Distance from the query under the active [`crate::Metric`].
    pub dist: f32,
}

impl Neighbor {
    /// Creates a new neighbor entry.
    #[inline]
    pub fn new(id: u32, dist: f32) -> Self {
        Neighbor { id, dist }
    }

    #[inline]
    fn key(&self) -> (OrderedF32, u32) {
        (OrderedF32(self.dist), self.id)
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Largest `k` whose heap [`TopK::new`] preallocates in full.
const PREALLOC_CAP: usize = 1024;

/// A bounded max-heap keeping the `k` smallest-distance [`Neighbor`]s seen.
///
/// `push` is `O(log k)`; `into_sorted_vec` yields ascending distance order.
/// With `k == 0` the structure accepts pushes but retains nothing, which lets
/// callers treat degenerate queries uniformly.
///
/// ```
/// use mbi_math::TopK;
///
/// let mut top = TopK::new(2);
/// for (id, dist) in [(0, 3.0), (1, 1.0), (2, 2.0), (3, 9.0)] {
///     top.offer(id, dist);
/// }
/// let best = top.into_sorted_vec();
/// assert_eq!(best.len(), 2);
/// assert_eq!((best[0].id, best[1].id), (1, 2));
/// ```
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates a collector for the `k` nearest entries. The preallocation
    /// is capped at 1 024 entries — `k` arrives from the network, and a
    /// hostile `k` must not reserve gigabytes up front; the heap still grows
    /// to `k` as entries arrive.
    pub fn new(k: usize) -> Self {
        TopK { k, heap: BinaryHeap::with_capacity(k.min(PREALLOC_CAP) + 1) }
    }

    /// Clears the collector and re-arms it for `k` entries, keeping the
    /// heap's allocation. This is what lets a reused search scratch run
    /// queries of varying `k` without touching the allocator.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// Capacity `k` this collector was created with.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently retained (`≤ k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `k` entries are retained (the heap is saturated).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The current worst (largest) retained distance, or `+∞` while the
    /// collector is not yet full. This is the pruning bound used by
    /// brute-force scans: a candidate can be skipped iff its distance is not
    /// below this value.
    #[inline]
    pub fn worst(&self) -> f32 {
        if self.is_full() {
            self.heap.peek().map_or(f32::INFINITY, |n| n.dist)
        } else {
            f32::INFINITY
        }
    }

    /// Offers a candidate; returns `true` if it was retained.
    #[inline]
    pub fn push(&mut self, n: Neighbor) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(n);
            return true;
        }
        // Full: replace the worst entry iff strictly better (distance, id).
        let worst = self.heap.peek().expect("heap is full and k > 0, so peek succeeds");
        if n < *worst {
            self.heap.pop();
            self.heap.push(n);
            true
        } else {
            false
        }
    }

    /// Offers `(id, dist)`; returns `true` if retained.
    #[inline]
    pub fn offer(&mut self, id: u32, dist: f32) -> bool {
        self.push(Neighbor::new(id, dist))
    }

    /// Consumes the collector, returning retained entries sorted by ascending
    /// distance (ties by ascending id).
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }

    /// Iterates over retained entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Neighbor> {
        self.heap.iter()
    }
}

/// Exact top-k via selection: partition the `k` smallest entries to the
/// front with `select_nth_unstable` (`O(n)` expected), then sort only those
/// `k` survivors. Hot in BSBF tail scans with large windows, where sorting
/// the full candidate list was pure waste.
pub fn topk_by_sort(mut items: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
    if k == 0 {
        items.clear();
        return items;
    }
    if items.len() > k {
        items.select_nth_unstable(k - 1);
        items.truncate(k);
    }
    items.sort_unstable();
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u32, d: f32) -> Neighbor {
        Neighbor::new(id, d)
    }

    #[test]
    fn keeps_k_smallest() {
        let mut t = TopK::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            t.offer(i as u32, *d);
        }
        let out = t.into_sorted_vec();
        assert_eq!(out, vec![n(1, 1.0), n(3, 2.0), n(4, 3.0)]);
    }

    #[test]
    fn fewer_than_k_returns_all() {
        let mut t = TopK::new(10);
        t.offer(0, 2.0);
        t.offer(1, 1.0);
        let out = t.into_sorted_vec();
        assert_eq!(out, vec![n(1, 1.0), n(0, 2.0)]);
    }

    #[test]
    fn zero_k_retains_nothing() {
        let mut t = TopK::new(0);
        assert!(!t.offer(0, 1.0));
        assert!(t.is_empty());
        assert!(t.into_sorted_vec().is_empty());
    }

    #[test]
    fn worst_tracks_pruning_bound() {
        let mut t = TopK::new(2);
        assert_eq!(t.worst(), f32::INFINITY);
        t.offer(0, 5.0);
        assert_eq!(t.worst(), f32::INFINITY, "not full yet");
        t.offer(1, 3.0);
        assert_eq!(t.worst(), 5.0);
        t.offer(2, 4.0);
        assert_eq!(t.worst(), 4.0);
    }

    #[test]
    fn ties_break_by_id() {
        let mut t = TopK::new(2);
        t.offer(7, 1.0);
        t.offer(3, 1.0);
        t.offer(5, 1.0);
        let out = t.into_sorted_vec();
        assert_eq!(out, vec![n(3, 1.0), n(5, 1.0)]);
    }

    #[test]
    fn equal_candidate_does_not_replace() {
        let mut t = TopK::new(1);
        t.offer(2, 1.0);
        assert!(!t.offer(5, 1.0), "same dist, larger id must not replace");
        assert!(t.offer(1, 1.0), "same dist, smaller id replaces");
        assert_eq!(t.into_sorted_vec(), vec![n(1, 1.0)]);
    }

    #[test]
    fn matches_sort_reference() {
        // Deterministic pseudo-random cross-check against topk_by_sort.
        let mut state = 0x9E3779B9u32;
        let mut items = Vec::new();
        for i in 0..500u32 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            items.push(n(i, (state >> 8) as f32 / 1e6));
        }
        for k in [0usize, 1, 7, 100, 499, 500, 600] {
            let mut t = TopK::new(k);
            for it in &items {
                t.push(*it);
            }
            assert_eq!(t.into_sorted_vec(), topk_by_sort(items.clone(), k), "k={k}");
        }
    }

    #[test]
    fn sort_reference_handles_ties_and_degenerate_k() {
        // Duplicated distances exercise the selection pivot on equal keys.
        let items: Vec<Neighbor> =
            [(9u32, 1.0f32), (2, 1.0), (5, 0.5), (7, 1.0), (0, 2.0), (3, 0.5)]
                .into_iter()
                .map(|(id, d)| n(id, d))
                .collect();
        assert_eq!(topk_by_sort(items.clone(), 0), vec![]);
        assert_eq!(topk_by_sort(items.clone(), 3), vec![n(3, 0.5), n(5, 0.5), n(2, 1.0)]);
        let mut all = items.clone();
        all.sort_unstable();
        assert_eq!(topk_by_sort(items.clone(), 6), all);
        assert_eq!(topk_by_sort(items, 100), all);
    }

    #[test]
    fn hostile_k_preallocates_little_and_still_keeps_everything() {
        for k in [usize::MAX, u32::MAX as usize] {
            let mut t = TopK::new(k);
            assert!(t.heap.capacity() <= PREALLOC_CAP + 1, "k = {k}");
            for i in 0..3000u32 {
                t.offer(i, (3000 - i) as f32);
            }
            assert_eq!(t.len(), 3000, "the heap grows past the preallocation");
            assert_eq!(t.into_sorted_vec()[0], n(2999, 1.0));
        }
        // Ordinary k still allocates exactly as before.
        assert!(TopK::new(10).heap.capacity() >= 11);
    }

    #[test]
    fn reset_reuses_allocation_across_k() {
        let mut t = TopK::new(3);
        for (i, d) in [5.0, 1.0, 4.0].iter().enumerate() {
            t.offer(i as u32, *d);
        }
        t.reset(2);
        assert!(t.is_empty());
        assert_eq!(t.k(), 2);
        for (i, d) in [9.0, 3.0, 6.0, 2.0].iter().enumerate() {
            t.offer(i as u32, *d);
        }
        assert_eq!(t.into_sorted_vec(), vec![n(3, 2.0), n(1, 3.0)]);
    }

    #[test]
    fn iter_exposes_retained() {
        let mut t = TopK::new(2);
        t.offer(0, 1.0);
        t.offer(1, 2.0);
        let mut ids: Vec<u32> = t.iter().map(|x| x.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }
}
