//! The all-pairs memo: the upper triangle of the pairwise matrix in
//! `Arc`-shared column panels.
//!
//! The matrix is symmetric with an exact zero diagonal, so a
//! [`PairwiseMemo`] keeps only the pairs `(i, j)` with `i < j`: about
//! half the cells of the dense `n × n` [`PairwiseDistances`]. Panel `c`
//! holds the pairs whose column `j` lies in `[cW, (c+1)W)`, where `W` is
//! [`PAIRWISE_REPLY_TILE`], row-major with stride `W`: pair `(i, j)`
//! sits at `i·W + (j − cW)`, for the rows `0..min(n, (c+1)W) − 1` that
//! have a pair in the panel.
//!
//! A complete panel (all `W` columns present) never changes when rows
//! are appended, because a new row only adds pairs in new columns. So a
//! memo grown from `old` to `n` rows ([`crate::Gather::grow`]) shares
//! every complete panel with the memo it grew from, copies at most the
//! last partial panel (its stride is already `W`, so the old cells are a
//! prefix of the new ones), and allocates fresh panels for the columns
//! past it: `O(new·n)` cells, never an `n²` copy.
//!
//! The panels are the tiles of `TilePlan(n, W)`, the plan a `Pairwise`
//! reply streams: tile `(r, c)`'s segment is a run of rows of panel
//! `c`, and a full off-diagonal tile is one contiguous block of it.

use crate::gather::GatherSink;
use dp_core::{PairwiseDistances, Tile};
use std::ops::Range;
use std::sync::Arc;

/// The tile side of every `Pairwise` reply stream, and the memo's panel
/// width. A constant, not a knob: it fixes the reply's bytes, so both
/// serve modes and every engine configuration answer alike. Measured on
/// warm thread-mode reads over TCP loopback (2-CPU host), sides 64–256
/// were within a few percent of each other at 1,024–2,048 rows, 32 was
/// slower everywhere and 256 slower at 1,024 rows; 128 was never more
/// than 2% off the fastest side.
pub const PAIRWISE_REPLY_TILE: u32 = 128;

/// The panel width.
const W: usize = PAIRWISE_REPLY_TILE as usize;

/// Cells panel `c` holds in a memo over `n` rows (`c < n.div_ceil(W)`).
fn panel_len(c: usize, n: usize) -> usize {
    (n.min((c + 1) * W) - 1) * W
}

/// The upper triangle of an all-pairs matrix over the first `n` rows of
/// a store, as immutable `Arc`-shared column panels (see the module
/// docs for the layout). Cloning shares every panel.
#[derive(Debug, Clone, Default)]
pub struct PairwiseMemo {
    n: usize,
    panels: Vec<Arc<[f64]>>,
}

impl PairwiseMemo {
    /// Number of rows (the matrix side length).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The column panels, in column order. They hold at most
    /// `n(n−1)/2 + n·W/2` cells when `W` divides `n`, plus at most `n·W`
    /// for a partial last panel.
    #[must_use]
    pub fn panels(&self) -> &[Arc<[f64]>] {
        &self.panels
    }

    /// The estimate for pair `(i, j)`, bit-identical to the dense
    /// matrix's entry: the stored pair for either orientation, `0.0` on
    /// the diagonal.
    ///
    /// # Panics
    /// If `i` or `j` is out of range.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of {}",
            self.n
        );
        let (lo, hi) = (i.min(j), i.max(j));
        if lo == hi {
            return 0.0;
        }
        let c = hi / W;
        self.panels[c][lo * W + hi - c * W]
    }

    /// The stored pairs `(i, j)` of row `i` with `j` in `cols` (clamped
    /// to `i + 1..n`), as contiguous runs in column order: one per panel
    /// the columns cross.
    fn row_runs(&self, i: usize, cols: Range<usize>) -> impl Iterator<Item = &[f64]> {
        let (start, end) = (cols.start.max(i + 1), cols.end.min(self.n));
        let panels = if start < end {
            start / W..(end - 1) / W + 1
        } else {
            0..0
        };
        panels.map(move |c| {
            let base = c * W;
            let from = i * W + start.max(base) - base;
            let to = i * W + end.min(base + W) - base;
            &self.panels[c][from..to]
        })
    }

    /// Every stored pair as runs `(i, j, run)`, where `run` holds pairs
    /// `(i, j..j + run.len())`: row by row, then column by column (one
    /// run per panel a row crosses), the order of a row-major scan of
    /// the dense matrix's upper triangle.
    pub(crate) fn upper_runs(&self) -> impl Iterator<Item = (usize, usize, &[f64])> + '_ {
        (0..self.n).flat_map(move |i| {
            self.row_runs(i, 0..self.n).scan(i + 1, move |j, run| {
                let first = *j;
                *j += run.len();
                Some((i, first, run))
            })
        })
    }

    /// One tile's row-major segment (its pairs `(i, j)`, `i < j`), bit
    /// for bit what `slice_tile_segment` reads out of the dense matrix.
    ///
    /// # Panics
    /// If the tile reaches past the memo's rows.
    #[must_use]
    pub fn segment(&self, tile: &Tile) -> Vec<f64> {
        assert!(tile.col_end <= self.n, "tile outside the memo");
        let mut segment = Vec::with_capacity(tile.pair_count());
        for i in tile.rows() {
            for run in self.row_runs(i, tile.cols()) {
                segment.extend_from_slice(run);
            }
        }
        segment
    }

    /// The dense `n × n` matrix: the stored pairs, their mirror and the
    /// zero diagonal, bit-identical to a dense gather of the same
    /// segments.
    #[must_use]
    pub fn to_dense(&self) -> PairwiseDistances {
        let n = self.n;
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            let mut at = i * n + i + 1;
            for run in self.row_runs(i, 0..n) {
                values[at..at + run.len()].copy_from_slice(run);
                at += run.len();
            }
        }
        // The mirror row `j` is panel column `j`, read down its rows.
        for j in 1..n {
            let c = j / W;
            let column = self.panels[c][j - c * W..].iter().step_by(W);
            for (cell, &value) in values[j * n..j * n + j].iter_mut().zip(column) {
                *cell = value;
            }
        }
        PairwiseDistances::from_flat(n, values)
    }
}

/// A memo being grown to `n` rows, the destination of
/// [`crate::Gather::grow`]: the complete panels of the memo it grows
/// from, shared, then one panel per column block from the first column
/// the old memo did not complete — its partial last panel copied, the
/// rest fresh — each uniquely owned until the gather finishes.
#[derive(Debug)]
pub struct MemoGrowth {
    /// Rows of the memo grown from: only columns `old..n` are written.
    old: usize,
    panels: Vec<Arc<[f64]>>,
}

impl MemoGrowth {
    /// Start growing `old` to `n` rows.
    ///
    /// # Panics
    /// If `old` covers more than `n` rows.
    pub(crate) fn new(old: &PairwiseMemo, n: usize) -> Self {
        assert!(old.n <= n, "a memo of {} rows cannot grow to {n}", old.n);
        let first_open = old.n / W;
        let mut panels = old.panels[..first_open].to_vec();
        for c in first_open..n.div_ceil(W) {
            let kept: &[f64] = old.panels.get(c).map_or(&[], |p| p);
            let fresh = std::iter::repeat_n(0.0, panel_len(c, n) - kept.len());
            panels.push(kept.iter().copied().chain(fresh).collect());
        }
        Self { old: old.n, panels }
    }

    /// Write the pairs `(i, j..j + run.len())`, all in new columns.
    fn write(&mut self, i: usize, mut j: usize, mut run: &[f64]) {
        while !run.is_empty() {
            let c = j / W;
            let take = run.len().min((c + 1) * W - j);
            let panel = Arc::get_mut(&mut self.panels[c]).expect("new columns land in open panels");
            let at = i * W + j - c * W;
            panel[at..at + take].copy_from_slice(&run[..take]);
            j += take;
            run = &run[take..];
        }
    }
}

impl GatherSink for MemoGrowth {
    type Output = PairwiseMemo;

    /// Write the segment's pairs in columns past the old rows. A pair
    /// with both rows old is already in a kept panel, computed by the
    /// same kernel, so it is skipped rather than rewritten.
    fn scatter(&mut self, tile: &Tile, segment: &[f64], _n: usize) {
        let mut idx = 0usize;
        for i in tile.rows() {
            let from = tile.col_start.max(i + 1);
            let run = &segment[idx..idx + (tile.col_end - from)];
            idx += run.len();
            let skip = self.old.saturating_sub(from).min(run.len());
            self.write(i, from + skip, &run[skip..]);
        }
        debug_assert_eq!(idx, segment.len(), "segment length matches the tile");
    }

    fn assemble(self, n: usize) -> PairwiseMemo {
        debug_assert_eq!(
            self.panels.len(),
            n.div_ceil(W),
            "the plan sized the growth"
        );
        PairwiseMemo {
            n,
            panels: self.panels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gather, QueryEngine, SharedEngine, SketchStore};
    use dp_core::release::Release;
    use dp_core::sketcher::{pairwise_sq_distances_rows, slice_tile_segment};
    use dp_core::{NoisySketch, Parallelism, TilePlan};

    /// Growth steps crossing every kind of panel edge.
    const STEPS: [usize; 10] = [0, 1, 2, 100, 127, 128, 129, 255, 256, 300];

    /// Cheap 3-wide sketches under one debias constant; `copy_of` lets
    /// a row repeat another row's values (so their pair ties).
    fn release(i: usize, copy_of: impl Fn(usize) -> usize) -> Release {
        let v = copy_of(i) as u64;
        let values = (0..3u64)
            .map(|d| ((v * 7919 + d * 104_729) % 1013) as f64 / 17.0)
            .collect();
        Release {
            party_id: 1000 + i as u64,
            sketch: NoisySketch::new(values, "t", 0.5, 0.75),
        }
    }

    fn ingest_to(engine: &mut QueryEngine, n: usize) {
        for i in engine.store().n()..n {
            engine.ingest(&release(i, |i| i)).unwrap();
        }
    }

    /// The dense reference over the engine's rows: the tiled kernel and
    /// its dense scatter, no memo involved.
    fn dense(engine: &QueryEngine) -> PairwiseDistances {
        let store = engine.store();
        pairwise_sq_distances_rows(
            store.n(),
            |i| store.row_values(i),
            store.debias(),
            &engine.parallelism(),
        )
    }

    /// Every `TilePlan(n, W)` segment of the memo equals the dense
    /// reference's, bit for bit, and so does the memo's dense copy.
    fn assert_slices_match(memo: &PairwiseMemo, reference: &PairwiseDistances, what: &str) {
        let n = reference.n();
        assert_eq!(memo.n(), n, "{what}");
        for (id, tile) in TilePlan::new(n, W).tiles() {
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(memo.segment(&tile)),
                bits(slice_tile_segment(&tile, reference.as_flat(), n)),
                "{what}: tile {id} of {n} rows"
            );
        }
        let bits =
            |m: &PairwiseDistances| m.as_flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&memo.to_dense()), bits(reference), "{what}: dense");
    }

    /// A growth step shares every complete panel of `old`, copies at
    /// most its partial last panel, and allocates `O(new·n)` cells.
    fn assert_grown_from(old: &PairwiseMemo, new: &PairwiseMemo) {
        let (complete, n) = (old.n() / W, new.n());
        for c in 0..complete {
            assert!(
                Arc::ptr_eq(&old.panels()[c], &new.panels()[c]),
                "panel {c} copied growing {} → {n} rows",
                old.n()
            );
        }
        let copied = (complete..old.panels().len()).count();
        assert!(copied <= 1, "{copied} panels copied");
        for c in complete..new.panels().len() {
            if let Some(kept) = old.panels().get(c) {
                assert!(
                    !Arc::ptr_eq(kept, &new.panels()[c]),
                    "open panel {c} shared"
                );
            }
        }
        let allocated: usize = new.panels()[complete..].iter().map(|p| p.len()).sum();
        assert!(
            allocated <= (n - old.n() + W) * n,
            "{allocated} cells allocated growing {} → {n} rows",
            old.n()
        );
    }

    #[test]
    fn local_growth_slices_like_the_dense_matrix_across_panel_edges() {
        for par in [
            Parallelism::sequential().with_tile(7),
            Parallelism::new(2).with_tile(48),
        ] {
            let mut engine = QueryEngine::new(SketchStore::adopting()).with_parallelism(par);
            let mut previous = engine.memo();
            for n in STEPS {
                ingest_to(&mut engine, n);
                let memo = engine.pairwise_memo();
                assert_grown_from(&previous, &memo);
                assert_slices_match(&memo, &dense(&engine), &format!("local, {par:?}"));
                previous = memo;
            }
        }
    }

    /// The coordinator's path without sockets: a worker executes the
    /// missing tiles of a plan whose side is not the panel width, the
    /// gather grows the coordinator's memo from shuffled segments, and
    /// the coordinator adopts the result.
    #[test]
    fn adopted_growth_slices_like_the_dense_matrix_across_panel_edges() {
        let mut coordinator = QueryEngine::new(SketchStore::adopting());
        let mut worker = QueryEngine::new(SketchStore::adopting())
            .with_parallelism(coordinator.parallelism().with_tile(5));
        for n in STEPS {
            ingest_to(&mut coordinator, n);
            ingest_to(&mut worker, n);
            let previous = coordinator.memo();
            let plan = TilePlan::new(n, 9);
            let mut gather = Gather::grow(plan, &previous);
            let missing = gather.missing_ids();
            assert_eq!(
                missing,
                plan.tiles_touching_rows(previous.n()..n)
                    .into_iter()
                    .map(|id| id as u64)
                    .collect::<Vec<_>>()
            );
            let mut segments = worker.execute_tiles(n, 9, &missing).unwrap();
            segments.reverse();
            for segment in &segments {
                gather.accept(segment).unwrap();
            }
            let grown = Arc::new(gather.finish().unwrap());
            assert_eq!(coordinator.adopt_matrix(Arc::clone(&grown)), n > 0);
            assert_grown_from(&previous, &coordinator.memo());
            assert_slices_match(&coordinator.memo(), &dense(&coordinator), "adopted");
        }
    }

    #[test]
    fn the_memo_holds_half_the_matrix_at_2048_rows() {
        let n = 2048;
        let mut engine = QueryEngine::new(SketchStore::adopting());
        ingest_to(&mut engine, n - 64);
        let old = engine.pairwise_memo();
        ingest_to(&mut engine, n);
        let memo = engine.pairwise_memo();
        assert_grown_from(&old, &memo);
        let cells: usize = memo.panels().iter().map(|p| p.len()).sum();
        assert!(
            cells <= n * (n - 1) / 2 + n * W / 2,
            "{cells} cells at {n} rows"
        );
        // 17.0 MiB of panels against the dense matrix's 32 MiB.
        assert_eq!(cells, 2_226_176);
    }

    #[test]
    fn point_reads_and_subsets_match_the_dense_matrix() {
        let mut engine = QueryEngine::new(SketchStore::adopting());
        ingest_to(&mut engine, 300);
        let memo = engine.pairwise_memo();
        let reference = dense(&engine);
        for i in 0..300 {
            for j in 0..300 {
                assert_eq!(
                    memo.at(i, j).to_bits(),
                    reference.at(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
        // Subsets sliced from the memo (uniform debias, distinct rows),
        // in both orientations, with their diagonal.
        assert!(engine.store().debias_uniform());
        let rows = [299usize, 0, 128, 127, 5, 255, 256, 130];
        let reversed: Vec<usize> = rows.iter().rev().copied().collect();
        for picks in [&rows[..], &reversed[..]] {
            let ids: Vec<u64> = picks.iter().map(|&r| 1000 + r as u64).collect();
            let sub = engine.pairwise(&ids).unwrap();
            for (a, &ra) in picks.iter().enumerate() {
                for (b, &rb) in picks.iter().enumerate() {
                    assert_eq!(
                        sub.at(a, b).to_bits(),
                        reference.at(ra, rb).to_bits(),
                        "subset ({ra},{rb})"
                    );
                }
            }
        }
    }

    /// Ingest 300 rows, row `i` repeating row `copy_of(i)`'s sketch, and
    /// check `top_pairs(t)` on the engine and on a snapshot against the
    /// dense scan (the upper triangle row by row, stably sorted).
    fn assert_top_pairs_match_the_scan(
        copy_of: impl Fn(usize) -> usize,
        ts: &[usize],
    ) -> SharedEngine {
        let shared = SharedEngine::new(QueryEngine::new(SketchStore::adopting()));
        let reference = shared.mutate(|engine| {
            for i in 0..300 {
                engine.ingest(&release(i, &copy_of)).unwrap();
            }
            engine.pairwise_all()
        });
        let mut scan: Vec<(f64, (u64, u64))> = (0..300)
            .flat_map(|i| (i + 1..300).map(move |j| (i, j)))
            .map(|(i, j)| (reference.at(i, j), (1000 + i as u64, 1000 + j as u64)))
            .collect();
        scan.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite estimates"));
        let snapshot = shared.snapshot();
        let bits = |pairs: Vec<(u64, u64, f64)>| -> Vec<(u64, u64, u64)> {
            pairs
                .into_iter()
                .map(|(a, b, d)| (a, b, d.to_bits()))
                .collect()
        };
        for &t in ts {
            let want: Vec<(u64, u64, u64)> = scan
                .iter()
                .take(t)
                .map(|&(d, (a, b))| (a, b, d.to_bits()))
                .collect();
            assert_eq!(
                bits(shared.mutate(|e| e.top_pairs(t))),
                want,
                "engine, t = {t}"
            );
            assert_eq!(
                bits(snapshot.top_pairs(t).unwrap()),
                want,
                "snapshot, t = {t}"
            );
        }
        shared
    }

    #[test]
    fn top_pair_ties_across_panels_list_in_row_then_column_order() {
        // Two groups of repeated sketches spread over three panels: each
        // group's pairs tie at the smallest estimate (raw distance 0).
        let group = |i: usize| match i {
            3 | 100 | 127 | 128 | 200 | 256 | 299 => 3,
            50 | 129 | 255 => 50,
            i => i,
        };
        let shared = assert_top_pairs_match_the_scan(group, &[1, 5, 21, 24, 25, 400]);
        // The first tie crosses panel 0 into panels 1 and 2.
        let top = shared.mutate(|e| e.top_pairs(3));
        let ids: Vec<(u64, u64)> = top.iter().map(|&(a, b, _)| (a, b)).collect();
        assert_eq!(ids, [(1003, 1100), (1003, 1127), (1003, 1128)]);
    }

    /// Every sketch equal, so every pair ties: once `t` pairs are held,
    /// no later run is strictly below the `t`-th smallest, and the
    /// answer is the first `t` pairs of the row-major scan, for cuts
    /// inside, at and past panel edges.
    #[test]
    fn top_pairs_when_every_pair_ties_match_the_stable_sort() {
        let pairs = 300 * 299 / 2;
        assert_top_pairs_match_the_scan(|_| 0, &[0, 1, 127, 128, 129, pairs, pairs + 1]);
    }
}
