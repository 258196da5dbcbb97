//! One cache-blocked tile of the all-pairs upper triangle.
//!
//! The all-pairs distance matrix is symmetric with a zero diagonal, so
//! the unit of work is the *unordered pair set* `{(i, j) : i < j}`.
//! A [`TilePlan`] partitions that set into `(row_block, col_block)`
//! [`Tile`]s of a configurable side length: exactly the blocks a
//! cache-aware kernel walks (both sketch blocks stay resident while the
//! tile's `tile²` pair estimates are produced), and exactly the work
//! items threads and remote workers take, because the tiles partition
//! the pair set — every pair lands in precisely one tile.
//!
//! Only blocks on or above the diagonal are emitted (`row_block ≤
//! col_block`); within a diagonal tile the kernel still skips `j ≤ i`.
//!
//! [`TilePlan`]: crate::TilePlan

use std::ops::Range;

/// One block of the pairwise matrix: half-open row and column ranges.
/// The tile owns the pairs `(i, j)` with `i` in rows, `j` in cols, and
/// `i < j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// First row index (inclusive).
    pub row_start: usize,
    /// Past-the-end row index.
    pub row_end: usize,
    /// First column index (inclusive).
    pub col_start: usize,
    /// Past-the-end column index.
    pub col_end: usize,
}

impl Tile {
    /// The row index range.
    #[must_use]
    pub fn rows(&self) -> Range<usize> {
        self.row_start..self.row_end
    }

    /// The column index range.
    #[must_use]
    pub fn cols(&self) -> Range<usize> {
        self.col_start..self.col_end
    }

    /// Whether this tile straddles the diagonal (its kernel must skip
    /// `j ≤ i`); off-diagonal tiles contain only `i < j` pairs.
    #[must_use]
    pub fn is_diagonal(&self) -> bool {
        self.row_start == self.col_start
    }

    /// Number of `(i, j)` pairs with `i < j` owned by this tile.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        let rows = self.row_end - self.row_start;
        let cols = self.col_end - self.col_start;
        if self.is_diagonal() {
            // Upper-triangular part of a square block.
            rows * rows.saturating_sub(1) / 2
        } else {
            rows * cols
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TilePlan;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Every `i < j` pair appears in exactly one tile, and pair_count
    /// agrees with an explicit enumeration.
    fn assert_exact_cover(n: usize, tile: usize) {
        let plan = TilePlan::new(n, tile);
        let mut seen = HashSet::new();
        let mut tiles = 0;
        for t in plan {
            tiles += 1;
            let mut pairs_here = 0;
            for i in t.rows() {
                for j in t.cols() {
                    if j <= i {
                        continue;
                    }
                    pairs_here += 1;
                    assert!(seen.insert((i, j)), "pair ({i},{j}) covered twice");
                }
            }
            assert_eq!(pairs_here, t.pair_count(), "{t:?}");
        }
        assert_eq!(tiles, plan.tile_count(), "n = {n}, tile = {tile}");
        assert_eq!(seen.len(), n * n.saturating_sub(1) / 2, "missing pairs");
    }

    #[test]
    fn exact_cover_on_awkward_shapes() {
        for n in [0usize, 1, 2, 3, 7, 16, 17] {
            for tile in [1usize, 2, 3, 5, 16, 64] {
                assert_exact_cover(n, tile);
            }
        }
    }

    #[test]
    fn tile_zero_is_clamped() {
        assert_eq!(TilePlan::new(8, 0).tile(), 1);
        assert_exact_cover(8, 0);
    }

    #[test]
    fn empty_matrix_yields_no_tiles() {
        assert_eq!(TilePlan::new(0, 4).into_iter().count(), 0);
        assert_eq!(TilePlan::new(0, 4).tile_count(), 0);
    }

    #[test]
    fn single_element_matrix_has_no_pairs() {
        let tiles: Vec<Tile> = TilePlan::new(1, 4).into_iter().collect();
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].pair_count(), 0);
        assert!(tiles[0].is_diagonal());
    }

    #[test]
    fn diagonal_detection() {
        let tiles: Vec<Tile> = TilePlan::new(8, 4).into_iter().collect();
        assert_eq!(tiles.len(), 3);
        assert!(tiles[0].is_diagonal());
        assert!(!tiles[1].is_diagonal());
        assert!(tiles[2].is_diagonal());
        assert_eq!(tiles[0].pair_count(), 6); // C(4,2)
        assert_eq!(tiles[1].pair_count(), 16); // 4 × 4
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn exact_cover_for_any_shape(n in 0usize..40, tile in 1usize..12) {
            assert_exact_cover(n, tile);
        }
    }
}
