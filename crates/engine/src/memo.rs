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
//!
//! Beside each panel sits one minimum per panel row: the smallest
//! estimate of the row's run in that panel (NaN when the run holds
//! one), recorded as the cells land ([`MemoGrowth`]) and shared by
//! `Arc` wherever the panel is. A complete panel's minima never change,
//! a copied partial panel's are combined with each new run, and a
//! fresh panel's start at +∞. They add at most `8·n` bytes per panel
//! (17,392 minima, 136 KiB, at 2,048 rows), and let a `top_pairs` read
//! skip a run without reading it.
//!
//! Reads that return a part of the matrix walk it in this storage
//! order: a subset slice ([`PairwiseMemo::subset`]) reads panel by
//! panel, each subset row's run once, in ascending address order.

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
/// a store, as immutable `Arc`-shared column panels with their run
/// minima (see the module docs for the layout). Cloning shares every
/// panel.
#[derive(Debug, Clone, Default)]
pub struct PairwiseMemo {
    n: usize,
    panels: Vec<Arc<[f64]>>,
    /// `minima[c][i]`: the smallest estimate of row `i`'s run in panel
    /// `c`, NaN when the run holds one.
    minima: Vec<Arc<[f64]>>,
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

    /// Every stored pair as runs `(i, j, min, run)`, where `run` holds
    /// pairs `(i, j..j + run.len())` and `min` is its recorded minimum:
    /// row by row, then column by column (one run per panel a row
    /// crosses), the order of a row-major scan of the dense matrix's
    /// upper triangle. Yielding a run reads none of its cells.
    pub(crate) fn upper_runs(&self) -> impl Iterator<Item = (usize, usize, f64, &[f64])> + '_ {
        let n = self.n;
        (0..n.saturating_sub(1)).flat_map(move |i| {
            ((i + 1) / W..self.panels.len()).map(move |c| {
                let base = c * W;
                let (first, end) = ((i + 1).max(base), n.min(base + W));
                let run = &self.panels[c][i * W + first - base..i * W + end - base];
                (i, first, self.minima[c][i], run)
            })
        })
    }

    /// The dense matrix over the store rows `rows`, in request order:
    /// entry `(a, b)` is [`PairwiseMemo::at`]`(rows[a], rows[b])`, bit
    /// for bit, so the diagonal is `0.0`. `None` when a row repeats: a
    /// recompute scores a repeated row's pair as `−debias`, not as the
    /// diagonal's `0.0`, so the caller must recompute.
    ///
    /// The memo is read in storage order: the rows are sorted once,
    /// then panel by panel, each subset row below the panel's subset
    /// columns reads its run once, in ascending row order, and each
    /// value is written to both of its cells.
    ///
    /// # Panics
    /// If a row is out of range.
    #[must_use]
    pub fn subset(&self, rows: &[usize]) -> Option<PairwiseDistances> {
        let m = rows.len();
        // (store row, request position), ascending by row: a repeated
        // row sits next to itself, and each panel's columns are a run.
        let mut order: Vec<(usize, usize)> = rows.iter().copied().zip(0..).collect();
        order.sort_unstable();
        if order.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        if let Some(&(last, _)) = order.last() {
            assert!(last < self.n, "row {last} out of {}", self.n);
        }
        let mut flat = vec![0.0; m * m];
        let mut start = 0;
        while start < m {
            let base = order[start].0 / W * W;
            let end = start + order[start..].partition_point(|&(j, _)| j < base + W);
            let (panel, columns) = (&self.panels[base / W], &order[start..end]);
            // Rows below the panel pair with all its columns; a row
            // among them only with the columns past it.
            for (s, &(i, a)) in order[..end - 1].iter().enumerate() {
                let run = &panel[i * W..(i + 1) * W];
                for &(j, b) in &columns[(s + 1).saturating_sub(start)..] {
                    let estimate = run[j - base];
                    flat[a * m + b] = estimate;
                    flat[b * m + a] = estimate;
                }
            }
            start = end;
        }
        Some(PairwiseDistances::from_flat(m, flat))
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
/// from, shared with their minima, then one panel per column block
/// from the first column the old memo did not complete — its partial
/// last panel and minima copied, the rest fresh — each uniquely owned
/// until the gather finishes.
#[derive(Debug)]
pub struct MemoGrowth {
    /// Rows of the memo grown from: only columns `old..n` are written.
    old: usize,
    panels: Vec<Arc<[f64]>>,
    minima: Vec<Arc<[f64]>>,
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
        let mut minima = old.minima[..first_open].to_vec();
        for c in first_open..n.div_ceil(W) {
            let len = panel_len(c, n);
            panels.push(extended(old.panels.get(c), len, 0.0));
            minima.push(extended(old.minima.get(c), len / W, f64::INFINITY));
        }
        Self {
            old: old.n,
            panels,
            minima,
        }
    }

    /// Write the pairs `(i, j..j + run.len())`, all in new columns, and
    /// fold each panel's share into row `i`'s minimum there.
    fn write(&mut self, i: usize, mut j: usize, mut run: &[f64]) {
        while !run.is_empty() {
            let c = j / W;
            let (cells, rest) = run.split_at(run.len().min((c + 1) * W - j));
            let open = "new columns land in open panels";
            let panel = Arc::get_mut(&mut self.panels[c]).expect(open);
            let at = i * W + j - c * W;
            panel[at..at + cells.len()].copy_from_slice(cells);
            let min = &mut Arc::get_mut(&mut self.minima[c]).expect(open)[i];
            *min = run_min(*min, cells);
            j += cells.len();
            run = rest;
        }
    }
}

/// `kept` (absent for a fresh panel) extended with `fill` to `len`
/// values, uniquely owned.
fn extended(kept: Option<&Arc<[f64]>>, len: usize, fill: f64) -> Arc<[f64]> {
    let kept: &[f64] = kept.map_or(&[], |k| k);
    let fresh = std::iter::repeat_n(fill, len - kept.len());
    kept.iter().copied().chain(fresh).collect()
}

/// The smallest of `from` and a run's estimates, or NaN when either
/// holds one (a NaN sticks), so a NaN still reaches the selector's
/// comparison and its panic. Eight independent lanes keep the scan at
/// vector width: one running minimum is a serial chain, and a
/// `top_pairs(100)` that scanned every run of a 2,048-row memo read
/// 6.7–7.9 ms with it against 2.6–3.1 ms with the lanes
/// (`bench_engine --quick`, 2-CPU host).
fn run_min(from: f64, run: &[f64]) -> f64 {
    let keep_smaller = |min: f64, x: f64| if x < min || x.is_nan() { x } else { min };
    let (blocks, rest) = run.as_chunks::<8>();
    let mut lanes = [f64::INFINITY; 8];
    for block in blocks {
        for (lane, &x) in lanes.iter_mut().zip(block) {
            *lane = keep_smaller(*lane, x);
        }
    }
    lanes
        .into_iter()
        .chain(rest.iter().copied())
        .fold(from, keep_smaller)
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
            minima: self.minima,
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
    use dp_hashing::{Prng, Seed};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every `TilePlan(n, W)` segment of the memo equals the dense
    /// reference's, bit for bit, and so does the memo's dense copy.
    fn assert_slices_match(memo: &PairwiseMemo, reference: &PairwiseDistances, what: &str) {
        let n = reference.n();
        assert_eq!(memo.n(), n, "{what}");
        for (id, tile) in TilePlan::new(n, W).tiles() {
            assert_eq!(
                bits(&memo.segment(&tile)),
                bits(&slice_tile_segment(&tile, reference.as_flat(), n)),
                "{what}: tile {id} of {n} rows"
            );
        }
        assert_eq!(
            bits(memo.to_dense().as_flat()),
            bits(reference.as_flat()),
            "{what}: dense"
        );
    }

    /// A growth step shares every complete panel of `old` and its
    /// minima, copies at most its partial last panel, and allocates
    /// `O(new·n)` cells.
    fn assert_grown_from(old: &PairwiseMemo, new: &PairwiseMemo) {
        let (complete, n) = (old.n() / W, new.n());
        for c in 0..complete {
            assert!(
                Arc::ptr_eq(&old.panels()[c], &new.panels()[c]),
                "panel {c} copied growing {} → {n} rows",
                old.n()
            );
            assert!(
                Arc::ptr_eq(&old.minima[c], &new.minima[c]),
                "minima of panel {c} copied growing {} → {n} rows",
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

    /// Each recorded minimum is, bit for bit, `run_min` of its row's run
    /// recomputed from the panels: one per row the panel holds.
    fn assert_minima_recorded(memo: &PairwiseMemo) {
        assert_eq!(memo.minima.len(), memo.panels.len(), "one minima per panel");
        for (c, (panel, minima)) in memo.panels.iter().zip(&memo.minima).enumerate() {
            assert_eq!(minima.len() * W, panel.len(), "panel {c}: one per row");
            for (i, min) in minima.iter().enumerate() {
                let run = memo.row_runs(i, c * W..(c + 1) * W).next().expect("a run");
                assert_eq!(
                    min.to_bits(),
                    run_min(f64::INFINITY, run).to_bits(),
                    "row {i} of panel {c} at {} rows",
                    memo.n()
                );
            }
        }
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
                assert_minima_recorded(&memo);
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
            assert_minima_recorded(&coordinator.memo());
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
        // 17.0 MiB of panels against the dense matrix's 32 MiB, plus
        // 136 KiB of minima, one per panel row.
        assert_eq!(cells, 2_226_176);
        let minima: usize = memo.minima.iter().map(|m| m.len()).sum();
        assert_eq!(minima, cells / W);
    }

    /// A `Pairwise` subset over `rows` through the engine and straight
    /// from the memo, each bit-identical to the dense reference.
    fn assert_subset_matches(
        engine: &QueryEngine,
        memo: &PairwiseMemo,
        reference: &PairwiseDistances,
        rows: &[usize],
    ) {
        let ids: Vec<u64> = rows.iter().map(|&r| 1000 + r as u64).collect();
        let sliced = memo.subset(rows).expect("distinct rows slice the memo");
        let answered = engine.pairwise(&ids).unwrap();
        for sub in [&sliced, &answered] {
            assert_eq!(sub.n(), rows.len());
            for (a, &ra) in rows.iter().enumerate() {
                for (b, &rb) in rows.iter().enumerate() {
                    assert_eq!(
                        sub.at(a, b).to_bits(),
                        reference.at(ra, rb).to_bits(),
                        "subset ({ra},{rb}) of {} rows",
                        reference.n()
                    );
                }
            }
        }
    }

    #[test]
    fn subsets_of_random_permutations_slice_like_the_dense_matrix() {
        let mut rng = Seed::new(31).rng();
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for n in [1, 127, 128, 129, 300] {
            ingest_to(&mut engine, n);
            let memo = engine.pairwise_memo();
            let reference = dense(&engine);
            assert!(engine.store().debias_uniform());
            let mut shuffled = |mut rows: Vec<usize>| {
                for i in (1..rows.len()).rev() {
                    rows.swap(i, rng.next_range(i as u64 + 1) as usize);
                }
                rows
            };
            // Rows 0 and n − 1 and both sides of every panel edge.
            let mut edges = vec![0, n - 1];
            edges.extend((W..n).step_by(W).flat_map(|e| [e - 1, e]));
            edges.sort_unstable();
            edges.dedup();
            let edges = shuffled(edges);
            let everyone = shuffled((0..n).collect());
            let mut subsets = vec![vec![0], vec![n - 1], edges, everyone.clone()];
            subsets.extend([2, 17, n / 2].map(|m| everyone[..m.min(n)].to_vec()));
            for rows in &subsets {
                assert_subset_matches(&engine, &memo, &reference, rows);
            }
        }
    }

    #[test]
    fn subsets_repeating_a_row_take_the_recompute() {
        let mut engine = QueryEngine::new(SketchStore::adopting());
        ingest_to(&mut engine, 300);
        let memo = engine.pairwise_memo();
        let store = engine.store();
        for rows in [vec![5, 0, 5], vec![200, 3, 129, 200], vec![7, 7]] {
            assert!(memo.subset(&rows).is_none(), "{rows:?} sliced");
            let ids: Vec<u64> = rows.iter().map(|&r| 1000 + r as u64).collect();
            let debias: Vec<f64> = rows.iter().map(|&r| store.debias_at(r)).collect();
            let recompute = pairwise_sq_distances_rows(
                rows.len(),
                |i| store.row_values(rows[i]),
                &debias,
                &engine.parallelism(),
            );
            let answered = engine.pairwise(&ids).unwrap();
            assert_eq!(
                bits(answered.as_flat()),
                bits(recompute.as_flat()),
                "{rows:?}"
            );
            // The repeated row's pair is raw 0.0 minus the debias, not
            // the matrix diagonal's exact 0.0.
            let last = rows.len() - 1;
            assert_eq!(answered.at(0, last).to_bits(), (0.0 - debias[0]).to_bits());
        }
    }

    #[test]
    fn a_subset_longer_than_the_store_is_refused_before_it_is_sliced() {
        let mut engine = QueryEngine::new(SketchStore::adopting());
        assert!(matches!(
            engine.pairwise(&[1000]),
            Err(crate::EngineError::UnknownParty(1000))
        ));
        ingest_to(&mut engine, 3);
        let _ = engine.pairwise_memo();
        assert_eq!(engine.pairwise(&[1000, 1000, 1002]).unwrap().n(), 3);
        assert!(matches!(
            engine.pairwise(&[1000; 4]),
            Err(crate::EngineError::SubsetTooLarge {
                parties: 4,
                rows: 3
            })
        ));
        // An unknown party among the first n + 1 is named as such.
        assert!(matches!(
            engine.pairwise(&[1000, 1000, 9, 1000, 1000]),
            Err(crate::EngineError::UnknownParty(9))
        ));
    }

    /// A NaN in a kept partial panel keeps its row's minimum NaN
    /// through growth, so `top_pairs` still meets it and panics as the
    /// stable sort would, rather than skipping its run.
    #[test]
    fn a_nan_in_a_kept_partial_panel_still_panics_top_pairs() {
        let (old, n, nan_at) = (120, 300, (5, 100));
        let mut engine = QueryEngine::new(SketchStore::adopting());
        let mut worker = QueryEngine::new(SketchStore::adopting());
        ingest_to(&mut engine, old);
        ingest_to(&mut worker, old);
        // One tile: row i holds pairs (i, i + 1..old), row-major.
        let plan = TilePlan::new(old, W);
        let mut gather = Gather::grow(plan, &engine.memo());
        let mut segments = worker.execute_tiles(old, W, &gather.missing_ids()).unwrap();
        let (i, j) = nan_at;
        let at: usize = (0..i).map(|r| old - r - 1).sum::<usize>() + j - i - 1;
        assert_eq!(
            segments[0].values[at].to_bits(),
            dense(&worker).at(i, j).to_bits()
        );
        segments[0].values[at] = f64::NAN;
        gather.accept(&segments[0]).unwrap();
        assert!(engine.adopt_matrix(Arc::new(gather.finish().unwrap())));
        assert!(engine.memo().minima[0][i].is_nan());

        ingest_to(&mut engine, n);
        let grown = engine.pairwise_memo();
        assert_eq!(grown.n(), n);
        assert!(grown.at(i, j).is_nan(), "the NaN was kept");
        assert!(grown.minima[0][i].is_nan(), "the NaN's minimum stuck");
        let panic = catch_unwind(AssertUnwindSafe(|| engine.top_pairs(1))).unwrap_err();
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("finite estimates"), "{message}");
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
