//! Serializable tile plans: the pairwise computation as a first-class
//! object.
//!
//! A [`TilePlan`] is a pure `(n, tile)` pair under which every tile of
//! the all-pairs upper triangle has a **stable integer id**: its index
//! in row-major block order, the order the plan iterates its [`Tile`]s.
//! Because the plan is two integers, it serializes trivially (the wire
//! carries `(n, tile)` and lists of tile ids), and any two processes
//! holding equal plans agree on every tile's geometry without
//! exchanging geometry.
//!
//! The plan is the unit of *distribution*: [`TilePlan::split`] cuts a
//! list of tile ids into chunks balanced by pair count, one per remote
//! worker; executors return one [`TileSegment`] per tile (the tile's
//! pair estimates in row-major, `j > i` order), and a gatherer scatters
//! segments back into the full matrix by id. Tiles partition the pair
//! set exactly (proptested), so gathering needs no reconciliation.

use crate::tile::Tile;
use std::ops::Range;

/// A pure, serializable description of one all-pairs tiling: matrix side
/// `n`, tile side `tile`, and the induced id ↔ tile mapping.
///
/// Two plans are interchangeable iff they are equal; everything else
/// (tile geometry, ids, pair counts) is derived deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePlan {
    n: usize,
    tile: usize,
}

impl TilePlan {
    /// Plan an `n × n` all-pairs computation with tiles of side `tile`
    /// (clamped ≥ 1; edge tiles are smaller when `tile` ∤ `n`).
    #[must_use]
    pub fn new(n: usize, tile: usize) -> Self {
        Self {
            n,
            tile: tile.max(1),
        }
    }

    /// Matrix side length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile side length.
    #[must_use]
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Number of blocks along one axis.
    #[must_use]
    pub fn blocks_per_axis(&self) -> usize {
        self.n.div_ceil(self.tile)
    }

    /// Number of tiles in the plan (`b·(b+1)/2` for `b` blocks).
    ///
    /// Computed in 128-bit arithmetic and **saturated** at `usize::MAX`
    /// for plans too large to enumerate — a wire-supplied hostile `n`
    /// must never overflow into a small, wrong count. Use
    /// [`TilePlan::checked_tile_count`] to detect saturation.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.checked_tile_count().unwrap_or(usize::MAX)
    }

    /// [`TilePlan::tile_count`] as `None` when the count exceeds
    /// `usize` — the reject-with-`ERR_PLAN` signal for oversized plans.
    #[must_use]
    pub fn checked_tile_count(&self) -> Option<usize> {
        let b = self.blocks_per_axis() as u128;
        usize::try_from(b * (b + 1) / 2).ok()
    }

    /// Total `(i, j)`, `i < j` pairs the plan covers.
    ///
    /// Computed in 128-bit arithmetic and **saturated** at `usize::MAX`
    /// for adversarial `n` (`n·(n−1)/2` overflows `usize` long before
    /// `n` does). Use [`TilePlan::checked_pair_count`] to detect
    /// saturation.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.checked_pair_count().unwrap_or(usize::MAX)
    }

    /// [`TilePlan::pair_count`] as `None` when the count exceeds
    /// `usize` — the reject-with-`ERR_PLAN` signal for oversized plans.
    #[must_use]
    pub fn checked_pair_count(&self) -> Option<usize> {
        let n = self.n as u128;
        usize::try_from(n * n.saturating_sub(1) / 2).ok()
    }

    /// Whether every derived quantity (tile ids, pair counts, the `n²`
    /// gather matrix) fits `usize` — false for hostile wire-supplied
    /// plans, which callers reject with `ERR_PLAN` instead of executing.
    #[must_use]
    pub fn is_enumerable(&self) -> bool {
        let n = self.n as u128;
        self.checked_tile_count().is_some()
            && self.checked_pair_count().is_some()
            && usize::try_from(n * n).is_ok()
    }

    /// First tile id of block row `row_block` (ids are row-major over
    /// the upper-triangle blocks: block row `r` owns `b − r` tiles).
    /// 128-bit internally: `row_block · b` overflows `usize` for
    /// adversarial plans before any range guard sees the product.
    fn row_offset(&self, row_block: usize) -> usize {
        let b = self.blocks_per_axis() as u128;
        let r = row_block as u128;
        usize::try_from(r * b - r * r.saturating_sub(1) / 2).unwrap_or(usize::MAX)
    }

    /// The `(row_block, col_block)` a tile id names, if in range.
    #[must_use]
    pub fn block_of(&self, id: usize) -> Option<(usize, usize)> {
        if id >= self.tile_count() {
            return None;
        }
        let b = self.blocks_per_axis();
        // Binary search the block row: the largest r with offset(r) ≤ id.
        let (mut lo, mut hi) = (0usize, b - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.row_offset(mid) <= id {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some((lo, lo + (id - self.row_offset(lo))))
    }

    /// The stable id of block `(row_block, col_block)`, if the block is
    /// in range and on/above the diagonal.
    #[must_use]
    pub fn id_of(&self, row_block: usize, col_block: usize) -> Option<usize> {
        let b = self.blocks_per_axis();
        if row_block > col_block || col_block >= b {
            return None;
        }
        Some(self.row_offset(row_block) + (col_block - row_block))
    }

    /// The tile a stable id names, if in range.
    #[must_use]
    pub fn tile_at(&self, id: usize) -> Option<Tile> {
        let (row_block, col_block) = self.block_of(id)?;
        let (n, tile) = (self.n, self.tile);
        Some(Tile {
            row_start: row_block * tile,
            row_end: (row_block * tile + tile).min(n),
            col_start: col_block * tile,
            col_end: (col_block * tile + tile).min(n),
        })
    }

    /// Iterate `(id, tile)` in id order (row-major block order, the
    /// order the plan's [`IntoIterator`] yields tiles).
    pub fn tiles(&self) -> impl Iterator<Item = (usize, Tile)> {
        self.into_iter().enumerate()
    }

    /// Cut a list of this plan's tile ids into exactly `shards` chunks
    /// (`shards` clamped ≥ 1, some chunks possibly empty) balanced by
    /// pair count. The chunks concatenate back to `ids` in order, and
    /// none holds more than `⌈total / shards⌉` pairs plus one tile's.
    /// The list may be any subset: the whole id space for a cold pass,
    /// or a gather's sparse missing ids when a lost shard is
    /// re-dispatched. Deterministic: the cut depends only on the plan,
    /// the ids and `shards`.
    ///
    /// Balancing is by *pair* count, not tile count: diagonal tiles
    /// hold roughly half the pairs of off-diagonal ones, so tile-count
    /// balancing would skew. An id outside the plan weighs nothing.
    #[must_use]
    pub fn split(&self, ids: &[u64], shards: usize) -> Vec<Vec<u64>> {
        let shards = shards.max(1);
        let pairs_of = |id: u64| {
            usize::try_from(id)
                .ok()
                .and_then(|id| self.tile_at(id))
                .map_or(0, |t| t.pair_count())
        };
        let total: usize = ids.iter().map(|&id| pairs_of(id)).sum();
        let target = total.div_ceil(shards).max(1);
        let mut chunks: Vec<Vec<u64>> = vec![Vec::new()];
        let mut acc = 0usize;
        for &id in ids {
            if acc >= target * chunks.len() && chunks.len() < shards {
                chunks.push(Vec::new());
            }
            chunks.last_mut().expect("chunks start non-empty").push(id);
            acc += pairs_of(id);
        }
        chunks.resize_with(shards, Vec::new);
        chunks
    }

    /// The ids of every tile whose row **or** column span intersects
    /// `rows` — the exact re-execution frontier after rows
    /// `rows.start..rows.end` were appended to a store whose first
    /// `rows.start` rows already have a gathered matrix. The complement
    /// (tiles entirely inside `0..rows.start`) holds only pairs already
    /// present in the old matrix, so incremental growth re-executes
    /// `O(new·n)` pairs (rounded up to tile granularity) instead of all
    /// `n·(n−1)/2`.
    ///
    /// Ascending id order. An empty or out-of-range `rows` yields the
    /// tiles it actually intersects (possibly none).
    #[must_use]
    pub fn tiles_touching_rows(&self, rows: Range<usize>) -> Vec<usize> {
        let mut ids = Vec::new();
        if rows.start >= rows.end || rows.start >= self.n {
            return ids;
        }
        for (id, t) in self.tiles() {
            let row_hit = t.row_start < rows.end && t.row_end > rows.start;
            let col_hit = t.col_start < rows.end && t.col_end > rows.start;
            if row_hit || col_hit {
                ids.push(id);
            }
        }
        ids
    }
}

impl IntoIterator for TilePlan {
    type Item = Tile;
    type IntoIter = Tiles;

    fn into_iter(self) -> Tiles {
        Tiles {
            plan: self,
            row_block: 0,
            col_block: 0,
        }
    }
}

/// Iterator over a [`TilePlan`]'s tiles in id order.
#[derive(Debug, Clone)]
pub struct Tiles {
    plan: TilePlan,
    row_block: usize,
    col_block: usize,
}

impl Iterator for Tiles {
    type Item = Tile;

    fn next(&mut self) -> Option<Tile> {
        let TilePlan { n, tile } = self.plan;
        let row_start = self.row_block * tile;
        if row_start >= n {
            return None;
        }
        let col_start = self.col_block * tile;
        let out = Tile {
            row_start,
            row_end: (row_start + tile).min(n),
            col_start,
            col_end: (col_start + tile).min(n),
        };
        // Advance along the block row, then to the next diagonal start.
        self.col_block += 1;
        if self.col_block * tile >= n {
            self.row_block += 1;
            self.col_block = self.row_block;
        }
        Some(out)
    }
}

/// One executed tile's estimates: the pairs `(i, j)` with `i` in the
/// tile's rows, `j` in its cols, `i < j`, in row-major order — exactly
/// the order the local kernel walks them. Keyed by the plan's stable
/// tile id so segments can arrive (and scatter) in any order.
#[derive(Debug, Clone, PartialEq)]
pub struct TileSegment {
    /// The tile's stable id under the governing [`TilePlan`].
    pub tile_id: u64,
    /// The tile's pair estimates, length [`Tile::pair_count`].
    pub values: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_row_major_and_invertible() {
        let plan = TilePlan::new(17, 4); // b = 5, 15 tiles
        assert_eq!(plan.blocks_per_axis(), 5);
        assert_eq!(plan.tile_count(), 15);
        for (id, tile) in plan.tiles() {
            let (r, c) = plan.block_of(id).expect("in range");
            assert_eq!(plan.id_of(r, c), Some(id));
            assert_eq!(plan.tile_at(id), Some(tile));
        }
        assert_eq!(plan.block_of(15), None);
        assert_eq!(plan.tile_at(15), None);
        assert_eq!(plan.id_of(2, 1), None, "below the diagonal");
        assert_eq!(plan.id_of(0, 5), None, "column out of range");
    }

    /// Splitting the whole id space yields chunks that cover it exactly
    /// once, in order, and every pair is owned by exactly one chunk.
    fn assert_split_cover(n: usize, tile: usize, shards: usize) {
        let plan = TilePlan::new(n, tile);
        let all: Vec<u64> = (0..plan.tile_count() as u64).collect();
        let chunks = plan.split(&all, shards);
        assert_eq!(chunks.len(), shards.max(1));
        assert_eq!(chunks.concat(), all, "ids not covered in order");
        let mut pairs = HashSet::new();
        for &id in chunks.iter().flatten() {
            let t = plan.tile_at(id as usize).expect("in range");
            for i in t.rows() {
                for j in t.cols() {
                    if j > i {
                        assert!(pairs.insert((i, j)), "pair ({i},{j}) in two chunks");
                    }
                }
            }
        }
        assert_eq!(pairs.len(), plan.pair_count(), "missing pairs");
    }

    /// Pairs held by one chunk of a split.
    fn load(plan: &TilePlan, chunk: &[u64]) -> usize {
        chunk
            .iter()
            .map(|&id| plan.tile_at(id as usize).unwrap().pair_count())
            .sum()
    }

    #[test]
    fn sharding_covers_exactly_on_awkward_shapes() {
        for n in [0usize, 1, 2, 5, 16, 17] {
            for tile in [1usize, 3, 16] {
                for shards in [1usize, 2, 3, 7] {
                    assert_split_cover(n, tile, shards);
                }
            }
        }
    }

    #[test]
    fn sharding_balances_by_pair_count() {
        let plan = TilePlan::new(64, 4);
        let shards = 4;
        let all: Vec<u64> = (0..plan.tile_count() as u64).collect();
        let loads: Vec<usize> = plan
            .split(&all, shards)
            .iter()
            .map(|chunk| load(&plan, chunk))
            .collect();
        let target = plan.pair_count().div_ceil(shards);
        for (s, load) in loads.iter().enumerate() {
            // Greedy cuts at tile edges: a chunk overshoots by at most
            // one tile's pairs.
            assert!(*load <= target + 16 * 16, "chunk {s} holds {load}");
        }
        assert_eq!(loads.iter().sum::<usize>(), plan.pair_count());
    }

    #[test]
    fn split_balances_by_pair_count_and_pads() {
        let plan = TilePlan::new(32, 4);
        let all: Vec<u64> = (0..plan.tile_count() as u64).collect();
        let chunks = plan.split(&all, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.concat(), all, "chunks must cover the ids in order");
        // Non-contiguous re-dispatch sets split too.
        let sparse: Vec<u64> = all.iter().copied().step_by(3).collect();
        assert_eq!(plan.split(&sparse, 2).concat(), sparse);
        // More shards than ids: empty padding, never a panic.
        let chunks = plan.split(&[7], 4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0], vec![7]);
        assert!(chunks[1..].iter().all(Vec::is_empty));
        // No ids at all.
        let chunks = plan.split(&[], 2);
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(Vec::is_empty));
    }

    #[test]
    fn more_shards_than_tiles_pads_with_empty_chunks() {
        let chunks = TilePlan::new(4, 4).split(&[0], 5); // one tile
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks[0], vec![0]);
        assert!(chunks[1..].iter().all(Vec::is_empty));
    }

    /// The frontier ids after growing from `old` to `n` rows, checked
    /// pair-by-pair: frontier tiles hold every pair touching a new row,
    /// and the complement holds only old×old pairs.
    fn assert_frontier_exact(n: usize, tile: usize, old: usize) {
        let plan = TilePlan::new(n, tile);
        let frontier = plan.tiles_touching_rows(old..n);
        let set: HashSet<usize> = frontier.iter().copied().collect();
        assert_eq!(set.len(), frontier.len(), "frontier ids repeat");
        assert!(
            frontier.windows(2).all(|w| w[0] < w[1]),
            "frontier not ascending"
        );
        for (id, t) in plan.tiles() {
            for i in t.rows() {
                for j in t.cols() {
                    if j <= i {
                        continue;
                    }
                    if j >= old {
                        assert!(set.contains(&id), "new pair ({i},{j}) outside the frontier");
                    }
                }
            }
            if !set.contains(&id) {
                assert!(
                    t.row_end <= old && t.col_end <= old,
                    "seeded tile {id} touches rows ≥ {old}"
                );
            }
        }
    }

    #[test]
    fn frontier_covers_new_pairs_exactly() {
        for n in [2usize, 5, 16, 17, 33] {
            for tile in [1usize, 3, 8, 64] {
                for old in 0..=n {
                    assert_frontier_exact(n, tile, old);
                }
            }
        }
        // Degenerate ranges.
        let plan = TilePlan::new(12, 4);
        assert!(plan.tiles_touching_rows(5..5).is_empty());
        assert!(plan.tiles_touching_rows(12..20).is_empty());
        assert_eq!(
            plan.tiles_touching_rows(0..12).len(),
            plan.tile_count(),
            "growing from nothing touches every tile"
        );
    }

    #[test]
    fn hostile_plan_sizes_saturate_instead_of_overflowing() {
        // n·(n−1)/2 and row_block·b overflow usize for these; the plan
        // must saturate and report non-enumerability, never wrap.
        for (n, tile) in [
            (usize::MAX, 1usize),
            (usize::MAX, 64),
            (1usize << 40, 1),
            ((1usize << 33) + 3, 1),
        ] {
            let plan = TilePlan::new(n, tile);
            assert_eq!(plan.pair_count(), usize::MAX, "n = {n}");
            assert_eq!(plan.checked_pair_count(), None, "n = {n}");
            assert!(!plan.is_enumerable(), "n = {n}");
            // Derived id math must not panic either.
            let _ = plan.tile_count();
            let _ = plan.block_of(usize::MAX - 1);
        }
        // Boundary: the largest enumerable sides stay exact.
        let fine = TilePlan::new(1 << 16, 64);
        let n = 1usize << 16;
        assert_eq!(fine.pair_count(), n * (n - 1) / 2);
        assert_eq!(fine.checked_pair_count(), Some(n * (n - 1) / 2));
        assert!(fine.is_enumerable());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn any_plan_shards_into_an_exact_partition(
            n in 0usize..48,
            tile in 1usize..12,
            shards in 1usize..9,
        ) {
            assert_split_cover(n, tile, shards);
        }

        // The coordinator re-cuts a gather's missing ids after losing a
        // worker: a sparse, non-contiguous subset of the id space.
        #[test]
        fn any_id_subset_splits_in_order_within_the_bound(
            n in 0usize..48,
            tile in 1usize..12,
            keep in proptest::collection::vec(any::<bool>(), 1..64),
            shards in 0usize..9,
        ) {
            let plan = TilePlan::new(n, tile);
            let ids: Vec<u64> = (0..plan.tile_count())
                .filter(|&id| keep[id % keep.len()])
                .map(|id| id as u64)
                .collect();
            let chunks = plan.split(&ids, shards);
            prop_assert_eq!(chunks.len(), shards.max(1));
            prop_assert_eq!(chunks.concat(), ids.clone());
            let total = load(&plan, &ids);
            let largest = ids
                .iter()
                .map(|&id| load(&plan, &[id]))
                .max()
                .unwrap_or(0);
            let bound = total.div_ceil(shards.max(1)) + largest;
            for chunk in &chunks {
                prop_assert!(
                    load(&plan, chunk) <= bound,
                    "chunk holds {} pairs, bound {}", load(&plan, chunk), bound
                );
            }
        }

        #[test]
        fn any_frontier_is_exact(n in 2usize..40, tile in 1usize..10, old in 0usize..40) {
            assert_frontier_exact(n, tile, old.min(n));
        }

        #[test]
        fn id_inversion_holds_for_any_plan(n in 1usize..64, tile in 1usize..12) {
            let plan = TilePlan::new(n, tile);
            for id in 0..plan.tile_count() {
                let (r, c) = plan.block_of(id).expect("in range");
                prop_assert!(r <= c);
                prop_assert_eq!(plan.id_of(r, c), Some(id));
            }
            prop_assert!(plan.block_of(plan.tile_count()).is_none());
        }
    }
}
