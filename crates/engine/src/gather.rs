//! The gather half of the plan → execute → gather pipeline.
//!
//! A [`Gather`] is constructed over one [`TilePlan`] and accepts the
//! plan's executed [`TileSegment`]s **in any order** — from local
//! threads, from remote shards, interleaved, shuffled — scattering each
//! into its destination as it arrives: the flat row-major `n × n`
//! matrix (a client rebuilding a reply, [`Gather::new`]), or a growing
//! [`PairwiseMemo`] (the engine's memo and a coordinator's sharded pass,
//! [`Gather::grow`]). Because the plan's tiles partition the pair set
//! exactly (proptested in `dp-parallel`), a completed gather is
//! bit-identical to the sequential reference: no reconciliation, no
//! averaging, no ordering sensitivity.
//!
//! Everything that can go wrong is a typed [`GatherError`]: a segment
//! for a tile the plan doesn't contain, a second segment for a tile
//! already placed (the only way two segments could overlap under a
//! partition plan), a segment whose length doesn't match its tile's
//! pair count (a worker executing a *different* plan), and finishing
//! with tiles still missing (a shard that never reported). The
//! bookkeeping is one implementation for both destinations.

use crate::memo::{MemoGrowth, PairwiseMemo};
use dp_core::sketcher::scatter_tile_segment;
use dp_core::{PairwiseDistances, Tile, TilePlan, TileSegment};
use std::fmt;

/// A typed failure of the gather assembler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatherError {
    /// A segment named a tile id outside the plan.
    UnknownTile {
        /// The offending id.
        id: u64,
        /// The plan's tile count (valid ids are `0..tile_count`).
        tile_count: u64,
    },
    /// A second segment arrived for a tile already placed — under a
    /// partition plan, the only way two segments can overlap.
    DuplicateTile {
        /// The tile id placed twice.
        id: u64,
    },
    /// A segment's length does not match its tile's pair count (the
    /// executor ran a different plan than the gatherer holds).
    SegmentShape {
        /// The tile id.
        id: u64,
        /// The pair count the gatherer's plan dictates.
        expected: usize,
        /// The length the segment actually carried.
        actual: usize,
    },
    /// The plan's `n × n` buffer (or its tile bookkeeping) cannot be
    /// allocated — a receiver sized it from a peer's frame.
    TooLarge {
        /// The plan's matrix side.
        rows: usize,
    },
    /// [`Gather::finish`] was called with tiles still unplaced.
    Incomplete {
        /// Segments placed so far.
        received: usize,
        /// Segments the plan requires.
        expected: usize,
        /// The lowest missing tile id.
        first_missing: u64,
    },
}

impl fmt::Display for GatherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTile { id, tile_count } => {
                write!(f, "tile id {id} outside the plan ({tile_count} tiles)")
            }
            Self::DuplicateTile { id } => {
                write!(f, "tile id {id} delivered twice (overlapping segments)")
            }
            Self::SegmentShape {
                id,
                expected,
                actual,
            } => write!(
                f,
                "segment for tile {id} carries {actual} estimates, plan dictates {expected}"
            ),
            Self::TooLarge { rows } => {
                write!(f, "a {rows} × {rows} matrix cannot be allocated")
            }
            Self::Incomplete {
                received,
                expected,
                first_missing,
            } => write!(
                f,
                "gather incomplete: {received} of {expected} tiles placed \
                 (first missing id {first_missing})"
            ),
        }
    }
}

impl std::error::Error for GatherError {}

/// Where a [`Gather`] puts the pairs of each segment it accepts: the
/// dense `n × n` buffer (`Vec<f64>`, yielding [`PairwiseDistances`]) or
/// a growing memo ([`MemoGrowth`], yielding [`PairwiseMemo`]).
pub trait GatherSink {
    /// What a complete gather yields.
    type Output;

    /// Write one tile's row-major segment, whose length
    /// [`Gather::accept`] has checked against the tile, for a plan over
    /// `n` rows.
    fn scatter(&mut self, tile: &Tile, segment: &[f64], n: usize);

    /// The gathered result over `n` rows.
    fn assemble(self, n: usize) -> Self::Output;
}

impl GatherSink for Vec<f64> {
    type Output = PairwiseDistances;

    fn scatter(&mut self, tile: &Tile, segment: &[f64], n: usize) {
        scatter_tile_segment(tile, segment, n, self);
    }

    fn assemble(self, n: usize) -> PairwiseDistances {
        PairwiseDistances::from_flat(n, self)
    }
}

/// Assembles out-of-order [`TileSegment`]s of one [`TilePlan`] into a
/// [`GatherSink`]: the dense [`PairwiseDistances`] matrix by default,
/// or a grown [`PairwiseMemo`].
#[derive(Debug)]
pub struct Gather<S = Vec<f64>> {
    plan: TilePlan,
    sink: S,
    placed: Vec<bool>,
    received: usize,
}

impl Gather {
    /// An empty gather over a plan (allocates the `n × n` matrix once).
    #[must_use]
    pub fn new(plan: TilePlan) -> Self {
        let n = plan.n();
        Self::over(plan, vec![0.0; n * n], vec![false; plan.tile_count()], 0)
    }

    /// [`Gather::new`] for a plan that came off the wire: the buffers
    /// are reserved fallibly, so a plan too large for this process is
    /// a typed error rather than an abort. (`new` keeps its lazily
    /// zeroed allocation for the plans a process builds itself; this
    /// one zeroes the reserved buffer explicitly.)
    ///
    /// # Errors
    /// [`GatherError::TooLarge`] when the `n × n` matrix or the
    /// per-tile bookkeeping cannot be allocated.
    pub fn try_new(plan: TilePlan) -> Result<Self, GatherError> {
        let n = plan.n();
        let too_large = || GatherError::TooLarge { rows: n };
        let cells = n.checked_mul(n).ok_or_else(too_large)?;
        let tiles = plan.checked_tile_count().ok_or_else(too_large)?;
        let mut values = Vec::new();
        values.try_reserve_exact(cells).map_err(|_| too_large())?;
        let mut placed = Vec::new();
        placed.try_reserve_exact(tiles).map_err(|_| too_large())?;
        values.resize(cells, 0.0);
        placed.resize(tiles, false);
        Ok(Self::over(plan, values, placed, 0))
    }

    /// The **dense** incremental gather over a grown store: seed the
    /// matrix with the previous `old_rows × old_rows` result and
    /// pre-place every tile lying entirely inside the old rows — their
    /// pairs are all in `old`, copied bit-for-bit. What remains missing
    /// is exactly [`TilePlan::tiles_touching_rows`]`(old_rows..n)`. It
    /// copies the whole old matrix into a fresh `n × n` one, so no
    /// server path uses it: the engine and a coordinator grow their
    /// memo with [`Gather::grow`]. It stays for callers that hold a
    /// dense matrix, such as a replay of a coordinator's passes.
    ///
    /// `old_rows == 0` degenerates to [`Gather::new`].
    ///
    /// # Panics
    /// If `old.len() != old_rows²` or `old_rows > plan.n()` — the seed
    /// must be the previous gathered matrix of the same store.
    #[must_use]
    pub fn seeded(plan: TilePlan, old_rows: usize, old: &[f64]) -> Self {
        assert!(
            old_rows <= plan.n(),
            "seed of {old_rows} rows for a plan over {} rows",
            plan.n()
        );
        assert_eq!(
            old.len(),
            old_rows * old_rows,
            "seed matrix is not {old_rows}×{old_rows}"
        );
        let n = plan.n();
        let mut values = vec![0.0; n * n];
        for i in 0..old_rows {
            values[i * n..i * n + old_rows].copy_from_slice(&old[i * old_rows..(i + 1) * old_rows]);
        }
        Self::over(plan, values, vec![false; plan.tile_count()], old_rows)
    }
}

impl Gather<MemoGrowth> {
    /// Grow a memo to the plan's rows: every tile lying entirely inside
    /// `old`'s rows is pre-placed, so what remains missing is exactly
    /// [`TilePlan::tiles_touching_rows`]`(old.n()..n)`, the `O(new·n)`
    /// frontier. The finished memo shares every complete panel of
    /// `old` and copies at most its partial last panel; a completed
    /// growth is bit-identical to a cold gather because `old` was
    /// produced by the same kernel. An empty `old` makes a cold gather.
    ///
    /// # Panics
    /// If `old` covers more rows than the plan.
    #[must_use]
    pub fn grow(plan: TilePlan, old: &PairwiseMemo) -> Self {
        let sink = MemoGrowth::new(old, plan.n());
        Self::over(plan, sink, vec![false; plan.tile_count()], old.n())
    }
}

impl<S: GatherSink> Gather<S> {
    /// A gather into `sink` with every tile inside the first `old_rows`
    /// rows already placed (the sink holds their pairs).
    fn over(plan: TilePlan, sink: S, mut placed: Vec<bool>, old_rows: usize) -> Self {
        let mut received = 0;
        if old_rows > 0 {
            for (id, t) in plan.tiles() {
                if t.col_end <= old_rows {
                    placed[id] = true;
                    received += 1;
                }
            }
        }
        Self {
            plan,
            sink,
            placed,
            received,
        }
    }

    /// The governing plan.
    #[must_use]
    pub fn plan(&self) -> &TilePlan {
        &self.plan
    }

    /// Segments placed so far.
    #[must_use]
    pub fn received(&self) -> usize {
        self.received
    }

    /// Whether every tile of the plan has been placed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.received == self.plan.tile_count()
    }

    /// Tile ids not yet placed, ascending — what a coordinator would
    /// re-dispatch after a shard failure.
    #[must_use]
    pub fn missing_ids(&self) -> Vec<u64> {
        self.placed
            .iter()
            .enumerate()
            .filter(|(_, &p)| !p)
            .map(|(id, _)| id as u64)
            .collect()
    }

    /// Scatter one segment into the destination.
    ///
    /// # Errors
    /// [`GatherError::UnknownTile`], [`GatherError::DuplicateTile`], or
    /// [`GatherError::SegmentShape`]; the gather is unchanged on error,
    /// so a coordinator can reject one bad worker answer and keep the
    /// segments already placed.
    pub fn accept(&mut self, segment: &TileSegment) -> Result<(), GatherError> {
        let tile_count = self.plan.tile_count();
        let id = usize::try_from(segment.tile_id)
            .ok()
            .filter(|&id| id < tile_count)
            .ok_or(GatherError::UnknownTile {
                id: segment.tile_id,
                tile_count: tile_count as u64,
            })?;
        let tile = self.plan.tile_at(id).expect("id validated");
        if self.placed[id] {
            return Err(GatherError::DuplicateTile { id: id as u64 });
        }
        if segment.values.len() != tile.pair_count() {
            return Err(GatherError::SegmentShape {
                id: id as u64,
                expected: tile.pair_count(),
                actual: segment.values.len(),
            });
        }
        self.sink.scatter(&tile, &segment.values, self.plan.n());
        self.placed[id] = true;
        self.received += 1;
        Ok(())
    }

    /// Finish the gather, returning the assembled matrix or memo.
    ///
    /// # Errors
    /// [`GatherError::Incomplete`] if any tile is still missing.
    pub fn finish(self) -> Result<S::Output, GatherError> {
        if !self.is_complete() {
            let first_missing = self
                .placed
                .iter()
                .position(|&p| !p)
                .expect("incomplete implies a missing tile") as u64;
            return Err(GatherError::Incomplete {
                received: self.received,
                expected: self.plan.tile_count(),
                first_missing,
            });
        }
        Ok(self.sink.assemble(self.plan.n()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::sketcher::execute_tiles;
    use dp_core::Parallelism;

    /// Deterministic fake rows: enough structure for scatter checks.
    fn rows(n: usize, k: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..k).map(|j| ((i * k + j) % 5) as f64 - 2.0).collect())
            .collect()
    }

    fn segments_for(plan: &TilePlan, data: &[Vec<f64>], debias: &[f64]) -> Vec<TileSegment> {
        let ids: Vec<u64> = (0..plan.tile_count() as u64).collect();
        execute_tiles(
            plan,
            &ids,
            |i| data[i].as_slice(),
            debias,
            &Parallelism::sequential(),
        )
    }

    #[test]
    fn shuffled_segments_assemble_the_reference_matrix() {
        let n = 9;
        let data = rows(n, 6);
        let debias = vec![0.25; n];
        let plan = TilePlan::new(n, 4);
        let reference = dp_core::pairwise_sq_distances_rows(
            n,
            |i| data[i].as_slice(),
            &debias,
            &Parallelism::sequential(),
        );
        let mut segments = segments_for(&plan, &data, &debias);
        segments.reverse(); // out-of-order arrival
        let mut gather = Gather::new(plan);
        assert!(!gather.is_complete());
        for s in &segments {
            gather.accept(s).unwrap();
        }
        assert!(gather.is_complete());
        assert!(gather.missing_ids().is_empty());
        let got = gather.finish().unwrap();
        assert_eq!(got.n(), reference.n());
        for (a, b) in reference.as_flat().iter().zip(got.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn typed_errors_for_every_failure_mode() {
        let n = 9;
        let data = rows(n, 6);
        let debias = vec![0.0; n];
        let plan = TilePlan::new(n, 4);
        let segments = segments_for(&plan, &data, &debias);
        let mut gather = Gather::new(plan);

        // Unknown tile id.
        let alien = TileSegment {
            tile_id: plan.tile_count() as u64,
            values: vec![],
        };
        assert_eq!(
            gather.accept(&alien),
            Err(GatherError::UnknownTile {
                id: plan.tile_count() as u64,
                tile_count: plan.tile_count() as u64,
            })
        );

        // Wrong shape (a segment from a different plan).
        let misshapen = TileSegment {
            tile_id: 0,
            values: vec![1.0],
        };
        assert!(matches!(
            gather.accept(&misshapen),
            Err(GatherError::SegmentShape { id: 0, .. })
        ));

        // Duplicate (overlapping) tile.
        gather.accept(&segments[0]).unwrap();
        assert_eq!(
            gather.accept(&segments[0]),
            Err(GatherError::DuplicateTile { id: 0 })
        );

        // Incomplete finish names the first missing id.
        assert_eq!(gather.received(), 1);
        assert_eq!(gather.missing_ids().first(), Some(&1));
        assert!(matches!(
            gather.finish(),
            Err(GatherError::Incomplete {
                received: 1,
                first_missing: 1,
                ..
            })
        ));
    }

    #[test]
    fn seeded_gather_demands_exactly_the_frontier() {
        let (old_n, n, k, tile) = (7usize, 11usize, 6usize, 3usize);
        let data = rows(n, k);
        let debias = vec![0.125; n];

        // The "previous" matrix over the first old_n rows.
        let old = dp_core::pairwise_sq_distances_rows(
            old_n,
            |i| data[i].as_slice(),
            &debias[..old_n],
            &Parallelism::sequential(),
        );

        let plan = TilePlan::new(n, tile);
        let mut gather = Gather::seeded(plan, old_n, old.as_flat());
        let frontier: Vec<u64> = plan
            .tiles_touching_rows(old_n..n)
            .into_iter()
            .map(|id| id as u64)
            .collect();
        assert_eq!(gather.missing_ids(), frontier, "missing ≠ frontier");
        assert!(frontier.len() < plan.tile_count(), "seeding placed nothing");

        // Executing only the frontier completes the gather…
        let segments = execute_tiles(
            &plan,
            &frontier,
            |i| data[i].as_slice(),
            &debias,
            &Parallelism::sequential(),
        );
        for s in &segments {
            gather.accept(s).unwrap();
        }
        // …to a matrix bit-identical to a cold full computation.
        let reference = dp_core::pairwise_sq_distances_rows(
            n,
            |i| data[i].as_slice(),
            &debias,
            &Parallelism::sequential(),
        );
        let got = gather.finish().unwrap();
        for (a, b) in reference.as_flat().iter().zip(got.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn seeded_from_zero_rows_is_a_cold_gather() {
        let plan = TilePlan::new(6, 2);
        let gather = Gather::seeded(plan, 0, &[]);
        assert_eq!(gather.received(), 0);
        assert_eq!(gather.missing_ids().len(), plan.tile_count());
    }

    #[test]
    #[should_panic(expected = "seed matrix is not")]
    fn seeded_rejects_a_misshapen_seed() {
        let _ = Gather::seeded(TilePlan::new(6, 2), 3, &[0.0; 4]);
    }

    #[test]
    fn try_new_refuses_unallocatable_plans_with_a_typed_error() {
        // n² overflows usize; n² f64s overflow the address space.
        for n in [usize::MAX / 2, 1 << 31] {
            assert_eq!(
                Gather::try_new(TilePlan::new(n, 64)).err(),
                Some(GatherError::TooLarge { rows: n })
            );
        }
        // A plan that fits gathers exactly like `Gather::new`'s.
        let (n, data) = (5, rows(5, 3));
        let plan = TilePlan::new(n, 2);
        let mut gather = Gather::try_new(plan).unwrap();
        for s in &segments_for(&plan, &data, &[0.5; 5]) {
            gather.accept(s).unwrap();
        }
        let reference = dp_core::pairwise_sq_distances_rows(
            n,
            |i| data[i].as_slice(),
            &[0.5; 5],
            &Parallelism::sequential(),
        );
        assert_eq!(gather.finish().unwrap(), reference);
    }

    #[test]
    fn empty_plan_gathers_an_empty_matrix() {
        let gather = Gather::new(TilePlan::new(0, 8));
        assert!(gather.is_complete());
        assert_eq!(gather.finish().unwrap().n(), 0);
    }

    #[test]
    fn errors_leave_the_gather_usable() {
        let n = 5;
        let data = rows(n, 4);
        let debias = vec![0.0; n];
        let plan = TilePlan::new(n, 2);
        let segments = segments_for(&plan, &data, &debias);
        let mut gather = Gather::new(plan);
        for s in &segments[..2] {
            gather.accept(s).unwrap();
        }
        // A rejected duplicate must not disturb the placed segments.
        assert!(gather.accept(&segments[1]).is_err());
        for s in &segments[2..] {
            gather.accept(s).unwrap();
        }
        let got = gather.finish().unwrap();
        let reference = dp_core::pairwise_sq_distances_rows(
            n,
            |i| data[i].as_slice(),
            &debias,
            &Parallelism::sequential(),
        );
        for (a, b) in reference.as_flat().iter().zip(got.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
