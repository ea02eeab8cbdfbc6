//! Reusable per-search working memory.
//!
//! Every beam search used to allocate its visited set, candidate set, and
//! result heap per call. [`SearchScratch`] owns all of them and is reused
//! across searches — the visited set clears in `O(1)` via an epoch counter
//! instead of a memset — so steady-state queries allocate nothing once the
//! buffers have grown to their working size (`tests/alloc_free.rs` counts).
//! [`with_thread_scratch`] hands out a thread-local instance, which is what
//! the query executor and the legacy non-prepared entry points use.

use mbi_math::{Neighbor, TopK};
use std::cell::RefCell;

/// Working memory for one graph beam search (Algorithm 2), reusable across
/// searches of any graph size and any `k`.
#[derive(Debug)]
pub struct SearchScratch {
    /// Current search's epoch; `visited[i] == epoch` means "seen".
    pub(crate) epoch: u32,
    /// Per-node epoch marks, grown (never shrunk) to one past the largest
    /// graph seen: the mark past a search's last node is always set, and
    /// the search counts every padding slot and id out of range as that
    /// node, so it skips them as already visited.
    pub(crate) visited: Vec<u32>,
    /// Candidate set `C`, each `(dist, id)` packed into one `u64` ordered
    /// as the pair is, kept sorted **descending** so the best candidate is
    /// `last()` (pop is `O(1)`) and pruning the worst entries is a front
    /// drain. Bounded by `SearchParams::max_candidates`, so the
    /// binary-search insert's memmove stays small.
    pub(crate) candidates: Vec<u64>,
    /// Result set `R` (bounded max-heap), re-armed per search via
    /// [`TopK::reset`].
    pub(crate) results: TopK,
    /// Unseen-neighbour gather buffer, one slot per adjacency slot.
    pub(crate) neighbor_ids: Vec<u32>,
    /// Distance buffer of the batched exact scan.
    pub(crate) distances: Vec<f32>,
}

impl SearchScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SearchScratch {
            epoch: 0,
            visited: Vec::new(),
            candidates: Vec::new(),
            results: TopK::new(0),
            neighbor_ids: Vec::new(),
            distances: Vec::new(),
        }
    }

    /// Re-arms the scratch for a search over `n` nodes of out-degree
    /// `degree` returning up to `k` results, and marks node `n` visited.
    /// `O(1)` except when a buffer must grow or the epoch counter wraps
    /// (once per 2³² searches, when marks are zero-filled).
    pub(crate) fn begin(&mut self, n: usize, degree: usize, k: usize) {
        if self.visited.len() <= n {
            self.visited.resize(n + 1, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.visited[n] = self.epoch;
        self.candidates.clear();
        self.neighbor_ids.resize(degree, 0);
        self.results.reset(k);
    }
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static SCRATCH: RefCell<(SearchScratch, Vec<Neighbor>)> =
        RefCell::new((SearchScratch::new(), Vec::new()));
}

/// Runs `f` with this thread's reusable scratch and result buffer.
///
/// The pair lives in a `thread_local`, so repeated queries on one thread
/// reuse the same allocations. Re-entrant calls — e.g. a
/// search filter that itself searches — fall back to a fresh scratch rather
/// than panicking on the nested borrow.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut SearchScratch, &mut Vec<Neighbor>) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut guard) => {
            let (scratch, out) = &mut *guard;
            f(scratch, out)
        }
        Err(_) => f(&mut SearchScratch::new(), &mut Vec::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_isolates_consecutive_searches() {
        let mut s = SearchScratch::new();
        s.begin(4, 8, 2);
        let e1 = s.epoch;
        s.visited[1] = e1;
        s.candidates.push(1);
        s.results.offer(1, 0.5);

        // A later, larger search sees none of the earlier marks.
        s.begin(6, 8, 3);
        assert_ne!(s.epoch, e1);
        assert!(s.visited[..6].iter().all(|&m| m != s.epoch));
        assert_eq!(s.visited[6], s.epoch, "the mark past the last node is set");
        assert!(s.candidates.is_empty());
        assert!(s.results.is_empty());
        assert_eq!(s.results.k(), 3);
        assert_eq!(s.neighbor_ids.len(), 8, "one gather slot per adjacency slot");
    }

    #[test]
    fn epoch_wrap_clears_marks() {
        let mut s = SearchScratch::new();
        s.begin(3, 8, 1);
        s.epoch = u32::MAX; // force the wrap on the next begin
        s.visited[0] = u32::MAX;
        s.begin(3, 8, 1);
        assert_eq!(s.epoch, 1);
        assert!(s.visited[..3].iter().all(|&m| m == 0), "wrap zero-fills stale marks");
        assert_eq!(s.visited[3], 1);
    }

    #[test]
    fn thread_scratch_reuses_and_reenters() {
        let first = with_thread_scratch(|s, _| {
            s.begin(8, 8, 1);
            s.epoch
        });
        let second = with_thread_scratch(|s, out| {
            out.push(Neighbor::new(0, 0.0));
            // Nested use gets a fresh scratch instead of a borrow panic.
            let nested = with_thread_scratch(|inner, _| {
                inner.begin(2, 8, 1);
                inner.epoch
            });
            assert_eq!(nested, 1, "re-entrant call sees a fresh scratch");
            s.begin(8, 8, 1);
            s.epoch
        });
        assert_eq!(second, first + 1, "same thread reuses the same scratch");
    }
}
