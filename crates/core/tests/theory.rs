//! Tests that validate the paper's *theoretical* claims against the
//! implementation: Lemma 4.1, Lemma 4.3, and the §4.4.1 index-size
//! structure.

use mbi_core::select::{maximal_roots, overlap_ratio, select_blocks};
use mbi_core::TimeWindow;
use proptest::prelude::*;

/// Lightweight block for pure selection tests.
#[derive(Debug)]
struct Meta {
    s: i64,
    e: i64,
    h: u32,
}

/// The selection accessor over a test block array.
fn meta(blocks: &[Meta]) -> impl Fn(usize) -> (i64, i64, u32) + '_ {
    |i| (blocks[i].s, blocks[i].e, blocks[i].h)
}

/// Postorder blocks of a complete tree over `leaves` unit-span leaves.
fn complete_tree(leaves: usize) -> Vec<Meta> {
    assert!(leaves.is_power_of_two());
    fn build(first: usize, leaves: usize, out: &mut Vec<Meta>) {
        if leaves > 1 {
            build(first, leaves / 2, out);
            build(first + leaves / 2, leaves / 2, out);
        }
        out.push(Meta { s: first as i64, e: (first + leaves) as i64, h: leaves.trailing_zeros() });
    }
    let mut out = Vec::new();
    build(0, leaves, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Lemma 4.1: τ ≤ 0.5 on a complete tree ⇒ at most 2 selected blocks,
    /// for *every* window.
    #[test]
    fn lemma_4_1(
        leaves_pow in 0u32..9,
        tau in 0.01f64..=0.5,
        s in 0i64..512,
        len in 0i64..512,
    ) {
        let leaves = 1usize << leaves_pow;
        let blocks = complete_tree(leaves);
        let hi = leaves as i64;
        let s = s.min(hi);
        let e = (s + len).min(hi);
        let sel = select_blocks(meta(&blocks), leaves, tau, TimeWindow::new(s, e));
        prop_assert!(sel.len() <= 2, "selected {:?}", sel);
    }

    /// Lemma 4.3 (structure behind the τ > 0.5 bound): for a query whose
    /// window is *left-aligned* with the root (an ILAQ block), selection
    /// uses at most one block per level, except at the leaf level where up
    /// to two are allowed.
    #[test]
    fn lemma_4_3_ilaq_one_block_per_level(
        leaves_pow in 1u32..9,
        tau in 0.51f64..0.99,
        len in 1i64..512,
    ) {
        let leaves = 1usize << leaves_pow;
        let blocks = complete_tree(leaves);
        let e = len.min(leaves as i64);
        let sel = select_blocks(meta(&blocks), leaves, tau, TimeWindow::new(0, e));
        let mut per_level = std::collections::HashMap::new();
        for &i in &sel {
            *per_level.entry(blocks[i].h).or_insert(0u32) += 1;
        }
        for (&h, &count) in &per_level {
            let cap = if h == 0 { 2 } else { 1 };
            prop_assert!(
                count <= cap,
                "level {} used {} blocks (selection {:?})",
                h, count, sel
            );
        }
    }

    /// Selection always covers the window exactly (no gap, no overlap) for
    /// any τ, any complete tree, any window.
    #[test]
    fn selection_partitions_window(
        leaves_pow in 0u32..8,
        tau in 0.01f64..=1.0,
        s in 0i64..256,
        len in 0i64..256,
    ) {
        let leaves = 1usize << leaves_pow;
        let blocks = complete_tree(leaves);
        let hi = leaves as i64;
        let s = s.min(hi);
        let e = (s + len).min(hi);
        let w = TimeWindow::new(s, e);
        let sel = select_blocks(meta(&blocks), leaves, tau, w);
        let covered: i64 = sel.iter().map(|&i| w.overlap_with(blocks[i].s, blocks[i].e)).sum();
        prop_assert_eq!(covered, w.len());
        // Pairwise disjoint.
        for (ai, &a) in sel.iter().enumerate() {
            for &b in &sel[ai + 1..] {
                let o = blocks[a].e.min(blocks[b].e) - blocks[a].s.max(blocks[b].s);
                prop_assert!(o <= 0, "blocks {} and {} overlap", a, b);
            }
        }
    }

    /// Every selected block (except pure leaves) satisfies r_o > τ, and no
    /// *ancestor* of a selected block does — i.e. selection is minimal in
    /// the top-down sense of Algorithm 4.
    #[test]
    fn selected_blocks_pass_threshold(
        leaves_pow in 1u32..8,
        tau in 0.05f64..0.95,
        s in 0i64..256,
        len in 1i64..256,
    ) {
        let leaves = 1usize << leaves_pow;
        let blocks = complete_tree(leaves);
        let hi = leaves as i64;
        let s = s.min(hi - 1);
        let e = (s + len).min(hi);
        let w = TimeWindow::new(s, e);
        for &i in &select_blocks(meta(&blocks), leaves, tau, w) {
            let r = overlap_ratio(w, blocks[i].s, blocks[i].e);
            prop_assert!(r > 0.0);
            if blocks[i].h > 0 {
                prop_assert!(r > tau, "internal block {} selected with r_o {} <= τ {}", i, r, tau);
            }
        }
    }

    /// `maximal_roots` covers each leaf exactly once and roots appear in
    /// descending subtree size.
    #[test]
    fn maximal_roots_partition_leaves(num_leaves in 0usize..500) {
        let roots = maximal_roots(num_leaves);
        prop_assert_eq!(roots.len(), num_leaves.count_ones() as usize);
        // Reconstruct subtree sizes from consecutive root positions.
        let mut covered_leaves = 0usize;
        let mut prev_end = 0usize;
        let mut prev_size = usize::MAX;
        for &r in &roots {
            let size = r + 1 - prev_end; // blocks in this subtree
            prop_assert!(size < prev_size, "subtree sizes must strictly decrease");
            prop_assert!((size + 1).is_power_of_two(), "2^(b+1)-1 blocks");
            covered_leaves += size.div_ceil(2);
            prev_end = r + 1;
            prev_size = size;
        }
        prop_assert_eq!(covered_leaves, num_leaves);
    }
}

/// §4.4.1: with a constant-degree graph per block, every level of the tree
/// holds (almost exactly) the same number of graph bytes, so total index
/// size is `O(|D| log |D|)`. Checked on a real built index.
#[test]
fn index_size_is_flat_per_level() {
    use mbi_ann::NnDescentParams;
    use mbi_core::{GraphBackend, MbiConfig, MbiIndex};
    use mbi_math::Metric;

    let mut idx =
        MbiIndex::new(MbiConfig::new(4, Metric::Euclidean).with_leaf_size(64).with_backend(
            GraphBackend::NnDescent(NnDescentParams {
                degree: 8,
                max_iters: 2,
                ..Default::default()
            }),
        ));
    for i in 0..(64 * 16) {
        let x = i as f32;
        idx.insert(&[x.sin(), x.cos(), x * 0.01, 1.0], i as i64).unwrap();
    }
    let levels = idx.level_stats();
    assert_eq!(levels.len(), 5, "16 leaves → heights 0..=4");
    let bytes: Vec<usize> = levels.iter().map(|l| l.graph_bytes).collect();
    let max = *bytes.iter().max().unwrap() as f64;
    let min = *bytes.iter().min().unwrap() as f64;
    assert!(max / min < 1.5, "levels should cost ~equal bytes (flat profile): {bytes:?}");
    // Total ≈ levels × one level's bytes — the log factor in O(|D| log |D|).
    let total: usize = bytes.iter().sum();
    assert!(total as f64 >= 4.0 * min, "log-many levels: {bytes:?}");
}
