//! The block tree's layout, the one owner of its binary postorder
//! arithmetic. The `j`-th seal (1-based) merges while `j` is even
//! (Algorithm 3), creating leaf `j − 1` plus one ancestor per trailing zero
//! bit of `j`. Blocks are numbered in creation order: the postorder of the
//! forest of maximal complete subtrees of the leaf count's binary
//! decomposition.

use std::ops::Range;

/// Number of blocks after `leaves` full leaves:
/// `Σ_j (1 + tz(j)) = 2·leaves − popcount(leaves)`. Because block ids (and
/// so graph seed salts) depend on the leaf count alone, the streaming engine
/// can build chains out of order yet publish bit-identical graphs.
#[inline]
pub(crate) fn blocks_for_leaves(leaves: usize) -> usize {
    2 * leaves - leaves.count_ones() as usize
}

/// Postorder index of (0-based) leaf `j`'s height-0 block: the first block
/// of the `(j + 1)`-th seal, after every block of the first `j` leaves.
#[inline]
pub(crate) fn leaf_block(j: usize) -> usize {
    blocks_for_leaves(j)
}

/// The `(left, right)` children of block `c` at height `h ≥ 1`: the right
/// child is at `c − 1` and the left at `c − 2^h` (Algorithm 4; the paper
/// writes the sibling of `B_i` as `B_{i+1−2^h}` with the parent at `i + 1`).
#[inline]
pub(crate) fn children(c: usize, h: u32) -> (usize, usize) {
    (c - (1usize << h), c - 1)
}

/// The merge chain `(rows, height)` of the `j`-th seal (1-based), lowest
/// first: the leaf itself plus one ancestor per trailing zero bit of `j`;
/// the ancestor of height `h` covers the last `2^h` leaves. Row ranges are
/// global.
#[inline]
fn chain(j: usize, leaf_size: usize) -> impl Iterator<Item = (Range<usize>, u32)> {
    let end = j * leaf_size;
    (0..=j.trailing_zeros()).map(move |h| (end - (leaf_size << h)..end, h))
}

/// [`chain`], collected: the blocks the `j`-th seal builds.
pub(crate) fn merge_chain(j: usize, leaf_size: usize) -> Vec<(Range<usize>, u32)> {
    chain(j, leaf_size).collect()
}

/// The `(rows, height)` of every block after `num_leaves` leaves, in
/// postorder — the concatenated merge chains of seals `1..=num_leaves`.
#[inline]
pub(crate) fn postorder(
    num_leaves: usize,
    leaf_size: usize,
) -> impl Iterator<Item = (Range<usize>, u32)> {
    (1..=num_leaves).flat_map(move |j| chain(j, leaf_size))
}

/// Postorder indices of the forest's roots, oldest first: one per set bit
/// `b` of `num_leaves`, the last block of the seal that completes the
/// subtree over the `2^b` leaves after the higher bits' leaves.
#[inline]
pub(crate) fn roots(num_leaves: usize) -> impl Iterator<Item = usize> {
    (0..usize::BITS - num_leaves.leading_zeros())
        .rev()
        .filter(move |&b| num_leaves >> b & 1 == 1)
        .map(move |b| blocks_for_leaves(num_leaves >> b << b) - 1)
}

/// The inverse of [`leaf_block`]: the leaf whose height-0 block is `c`, if
/// `c` is a leaf block. `leaf_block(j) = 2j − popcount(j)` puts `j` within
/// `usize::BITS / 2` of `c / 2`.
#[cfg(test)]
pub(crate) fn block_leaf(c: usize) -> Option<usize> {
    let j = (c / 2..).find(|&j| leaf_block(j) >= c)?;
    (leaf_block(j) == c).then_some(j)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference layout, built the way the tree is drawn: each maximal
    /// complete subtree of the binary decomposition, children before parent.
    fn reference(num_leaves: usize, leaf_size: usize) -> Vec<(Range<usize>, u32)> {
        fn push_subtree(
            first_leaf: usize,
            leaves: usize,
            leaf_size: usize,
            out: &mut Vec<(Range<usize>, u32)>,
        ) {
            if leaves > 1 {
                push_subtree(first_leaf, leaves / 2, leaf_size, out);
                push_subtree(first_leaf + leaves / 2, leaves / 2, leaf_size, out);
            }
            let start = first_leaf * leaf_size;
            out.push((start..start + leaves * leaf_size, leaves.trailing_zeros()));
        }
        let mut out = Vec::new();
        let mut first_leaf = 0;
        for b in (0..usize::BITS).rev() {
            if num_leaves & (1 << b) != 0 {
                push_subtree(first_leaf, 1 << b, leaf_size, &mut out);
                first_leaf += 1 << b;
            }
        }
        out
    }

    #[test]
    fn layout_matches_the_recursive_reference() {
        const S: usize = 3;
        for n in 0..=2048usize {
            let blocks = reference(n, S);
            assert_eq!(blocks_for_leaves(n), blocks.len(), "n = {n}");
            assert!(postorder(n, S).eq(blocks.iter().cloned()), "n = {n}");
            for j in 0..n {
                assert_eq!(blocks[leaf_block(j)], (j * S..(j + 1) * S, 0), "n = {n}, leaf {j}");
            }
            for (c, (rows, h)) in blocks.iter().enumerate().filter(|(_, (_, h))| *h > 0) {
                let (left, right) = children(c, *h);
                let mid = rows.start + rows.len() / 2;
                assert_eq!(blocks[left], (rows.start..mid, h - 1), "n = {n}, block {c}");
                assert_eq!(blocks[right], (mid..rows.end, h - 1), "n = {n}, block {c}");
            }
            // The roots partition the leaves, oldest first, one per set bit.
            assert_eq!(roots(n).count(), n.count_ones() as usize, "n = {n}");
            let mut end = 0;
            for root in roots(n) {
                let (rows, h) = &blocks[root];
                assert_eq!((rows.start, rows.len()), (end, S << h), "n = {n}, root {root}");
                end = rows.end;
            }
            assert_eq!(end, n * S, "n = {n}");
            if n > 0 {
                let tail = &blocks[blocks.len() - 1 - n.trailing_zeros() as usize..];
                assert_eq!(merge_chain(n, S), tail, "n = {n}");
            }
        }
        // The postorder of fewer leaves is a prefix, so the largest layout
        // checks the inverse for every smaller one.
        for (c, (rows, h)) in reference(2048, S).iter().enumerate() {
            let leaf = (*h == 0).then_some(rows.start / S);
            assert_eq!(block_leaf(c), leaf, "block {c}");
        }
    }
}
