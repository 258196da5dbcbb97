//! The incremental query surface over a [`SketchStore`].
//!
//! Every query is post-processing of already-private releases, so no
//! query costs privacy budget. Over the per-pair estimator the engine
//! adds **persistence** (the all-pairs matrix is memoized as its upper
//! triangle, a [`PairwiseMemo`], and only the pairs involving newly
//! ingested rows are computed on the next query) and **hoisting**
//! (compatibility and debias constants were resolved at ingest, so a
//! point query is a pure O(k) fused subtract-square-accumulate).
//!
//! ## Determinism
//!
//! All estimates run the one accumulator of [`dp_core::kernel`] — a raw
//! sum of squared differences minus a hoisted `2k·E[η²]` — so engine
//! answers are bit-identical to the per-pair reference
//! ([`dp_core::pairwise_sq_distances_reference`]) for every thread
//! count, tile size, and ingest/query interleaving: they reproduce
//! [`dp_core::NoisySketch::estimate_sq_distance`] exactly.
//! In the all-pairs matrix, pair `(i, j)` with `i < j` is debiased
//! with row `i`'s constant (exactly like the tiled kernel); a k-NN
//! query is debiased with the *query row's* constant (exactly like
//! `query.estimate_sq_distance(candidate)`).
//! The two agree bit-for-bit whenever the batch was released by one
//! sketcher, which is the only kind the workspace produces.
//!
//! ## Ranked reads
//!
//! `knn` and `top_pairs` rank through one bounded selector,
//! [`select_smallest`]: one pass over the candidates in O(t) memory,
//! never a full sort, with ties kept in input order (ingest order for
//! k-NN, row then column for pairs). Answers equal a stable sort by
//! estimate truncated to `t`, bit for bit.
//!
//! A `knn` over a store large enough to pay for the spawn splits across
//! the engine's workers: each ranks a contiguous share of the rows, and
//! the share lists are ranked once more. `top_pairs` skips every memo
//! run whose smallest estimate is not strictly below the current `t`-th
//! smallest, because no pair in it can place. It reads that smallest
//! estimate from the minima the memo recorded as it grew (one per row
//! per panel), so a skipped run is never read: a read touches the
//! runs that can place and the minima, not the memo's 17 MiB at 2,048
//! rows.

use crate::error::EngineError;
use crate::gather::Gather;
use crate::memo::PairwiseMemo;
use crate::store::{SketchStore, CHUNK_ROWS};
use dp_core::kernel::{sq_distance_run, v1_scalar};
use dp_core::release::Release;
use dp_core::sketcher::{effective_plan, execute_tiles, pairwise_sq_distances_rows};
use dp_core::{PairwiseDistances, Parallelism, TilePlan, TileSegment};
use dp_parallel::par_map;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Rows each worker must score before a `knn` splits across the
/// engine's workers: below that, a scoped spawn and the wake of an idle
/// core cost more than the share they take over. Measured on the 2-CPU
/// host (k = 208, median of 40 interleaved reads, each after a 20 ms
/// idle, as `online_point` spaces its reads), two workers against one:
/// 499 vs 454 µs at 2,048 rows, 563 vs 577 at 2,560, 602 vs 686 at
/// 3,072 and 832 vs 1,065 at 5,120; back to back, 220 vs 178 µs at
/// 2,048 and 291 vs 354 at 3,072.
pub(crate) const KNN_ROWS_PER_WORKER: usize = 1536;

/// A scored neighbor returned by [`QueryEngine::knn`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The party id of the neighbor.
    pub party_id: u64,
    /// Estimated squared distance (raw, may be negative at small
    /// distances — ranking is still meaningful because the debias term
    /// is shared).
    pub estimated_sq_distance: f64,
}

/// An incremental query engine owning a [`SketchStore`].
#[derive(Debug)]
pub struct QueryEngine {
    store: SketchStore,
    par: Parallelism,
    /// The all-pairs memo over the first `memo.n()` store rows, shared
    /// out cheaply (`Arc`) so a warm query copies nothing.
    memo: Arc<PairwiseMemo>,
    /// Bumped on every observable mutation (successful ingest, memo
    /// growth or adoption) — the signal [`crate::SharedEngine`] uses to
    /// decide whether a fresh [`crate::EngineSnapshot`] must be
    /// published.
    generation: u64,
}

impl Default for QueryEngine {
    fn default() -> Self {
        Self::new(SketchStore::adopting())
    }
}

impl QueryEngine {
    /// Wrap a store (queries run on the environment-default
    /// [`Parallelism`]).
    #[must_use]
    pub fn new(store: SketchStore) -> Self {
        Self {
            store,
            par: Parallelism::default(),
            memo: no_memo(),
            generation: 0,
        }
    }

    /// Replace the execution knob. Answers are bit-identical for every
    /// setting; only scheduling changes.
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// The execution knob in effect.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// The mutation generation: bumped on every successful ingest and
    /// every all-pairs memo growth or adoption. Two calls returning the
    /// same value bracket a window with no observable engine mutation —
    /// what [`crate::SharedEngine::mutate`] compares to skip
    /// republishing an unchanged snapshot.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &SketchStore {
        &self.store
    }

    /// Mutable access to the store (e.g. its interner). The engine's
    /// incremental memo stays valid under any store mutation because
    /// the store is append-only.
    pub fn store_mut(&mut self) -> &mut SketchStore {
        &mut self.store
    }

    /// Replace the store wholesale — a spec adoption, a disk recovery, a
    /// snapshot install — under the one rule every such swap follows:
    /// the execution knob stays, the memo empties (it covered other
    /// rows), and the generation moves past both its current value and
    /// `stamped_generation` (the generation the store was persisted at,
    /// `0` for a fresh store) — to `max(current, stamped) + 1` — so the
    /// next publish notices the swap and no later one reuses a
    /// generation.
    pub fn replace_store(&mut self, store: SketchStore, stamped_generation: u64) {
        self.store = store;
        self.memo = no_memo();
        self.generation = self.generation.max(stamped_generation) + 1;
    }

    /// Ingest a release (strict: duplicate party ids rejected).
    ///
    /// # Errors
    /// See [`SketchStore::ingest`].
    pub fn ingest(&mut self, release: &Release) -> Result<usize, EngineError> {
        let row = self.store.ingest(release)?;
        self.generation += 1;
        Ok(row)
    }

    /// Ingest a binary `DPRL` frame through the store's interner.
    ///
    /// # Errors
    /// See [`SketchStore::ingest_bytes`].
    pub fn ingest_bytes(&mut self, bytes: &[u8]) -> Result<usize, EngineError> {
        let row = self.store.ingest_bytes(bytes)?;
        self.generation += 1;
        Ok(row)
    }

    /// Ingest a batch of releases with **one** generation bump, so
    /// snapshot republication and memo invalidation cost once per bulk
    /// load instead of once per row. Row assignment and validation are
    /// bit-identical to one [`QueryEngine::ingest`] per release.
    ///
    /// # Errors
    /// See [`SketchStore::ingest_batch`]; on a mid-batch failure the
    /// accepted prefix stays ingested and the generation still bumps.
    pub fn ingest_batch(&mut self, releases: &[Release]) -> Result<Vec<usize>, EngineError> {
        let before = self.store.n();
        let result = self.store.ingest_batch(releases);
        if self.store.n() != before {
            self.generation += 1;
        }
        result
    }

    /// The debiased squared-distance estimate between two ingested
    /// parties: a pure O(k) pass, no validation, no allocation.
    /// Bit-identical to the corresponding [`QueryEngine::pairwise_all`]
    /// matrix entry.
    ///
    /// # Errors
    /// [`EngineError::UnknownParty`] if either id was never ingested.
    pub fn pair(&self, a: u64, b: u64) -> Result<f64, EngineError> {
        let i = self.store.row_of(a).ok_or(EngineError::UnknownParty(a))?;
        let j = self.store.row_of(b).ok_or(EngineError::UnknownParty(b))?;
        Ok(self.pair_rows(i, j))
    }

    /// [`QueryEngine::pair`] by row index: pair `(i, j)` is debiased
    /// with the **lower** row's constant, matching the all-pairs matrix.
    fn pair_rows(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        v1_scalar(self.store.row_values(lo), self.store.row_values(hi)) - self.store.debias_at(lo)
    }

    /// The all-pairs memo over every ingested row — **incremental**:
    /// only pairs touching rows ingested since the last call are
    /// computed, into a memo that shares every complete panel with the
    /// previous one ([`Gather::grow`]). A cold call runs the tiled
    /// kernel; a warm call with no new rows is O(1) — the returned
    /// handle shares the memo, copying nothing. Every serving path
    /// reads this, never [`QueryEngine::pairwise_all`].
    #[must_use]
    pub fn pairwise_memo(&mut self) -> Arc<PairwiseMemo> {
        let n = self.store.n();
        if self.memo.n() < n {
            self.grow_memo(n);
        }
        Arc::clone(&self.memo)
    }

    /// All pairwise estimates among every ingested row, as a dense flat
    /// row-major `n × n` matrix in ingest order, for in-process callers.
    /// It grows the memo exactly as [`QueryEngine::pairwise_memo`] does
    /// (the new pairs only), then builds the dense matrix from it, so
    /// even a warm call costs an `n × n` allocation and copy. A server
    /// streams the memo instead.
    #[must_use]
    pub fn pairwise_all(&mut self) -> Arc<PairwiseDistances> {
        Arc::new(self.pairwise_memo().to_dense())
    }

    /// The all-pairs memo, **iff** it covers every ingested row — what
    /// a published [`crate::EngineSnapshot`] carries, and what the
    /// subset fast path slices. Never computes anything. `None` means
    /// the memo is stale (or the store empty): a snapshot reader must
    /// fill it through the mutation path (a local
    /// [`QueryEngine::pairwise_memo`], or a coordinator's sharded pass
    /// handed to [`QueryEngine::adopt_matrix`]), which publishes a new
    /// snapshot carrying the memo.
    #[must_use]
    pub fn full_matrix(&self) -> Option<Arc<PairwiseMemo>> {
        (self.memo.n() == self.store.n() && self.store.n() > 0).then(|| Arc::clone(&self.memo))
    }

    /// The all-pairs memo as it stands, even when rows ingested since
    /// have made it stale: the upper triangle over the store's first
    /// `n()` rows (empty before any all-pairs pass). A coordinator grows
    /// its sharded gather from this ([`Gather::grow`]). Never computes
    /// anything.
    #[must_use]
    pub fn memo(&self) -> Arc<PairwiseMemo> {
        Arc::clone(&self.memo)
    }

    /// Adopt an all-pairs memo computed elsewhere — a coordinator's
    /// sharded gather — iff it covers more rows than the memo does and
    /// no more than the store holds. The store is append-only, so a
    /// memo over its first `matrix.n()` rows stays valid as it grows;
    /// later growth extends it incrementally like a locally computed
    /// one. Returns whether the memo was adopted (an adoption bumps the
    /// generation, so the next publish carries it).
    ///
    /// The caller vouches that the memo was computed over this store's
    /// rows.
    pub fn adopt_matrix(&mut self, matrix: Arc<PairwiseMemo>) -> bool {
        let rows = matrix.n();
        if rows <= self.memo.n() || rows > self.store.n() {
            return false;
        }
        self.memo = matrix;
        self.generation += 1;
        true
    }

    /// All pairwise estimates among an explicit subset of at most `n`
    /// parties (repeats allowed), in the given order. The answer is
    /// sliced out of the memo ([`PairwiseMemo::subset`], which walks
    /// the panels in storage order) only when that is **provably
    /// bit-identical** to a cold tiled recompute over the subset, which
    /// runs otherwise:
    ///
    /// * the memo covers every store row ([`QueryEngine::full_matrix`]),
    ///   and
    /// * the store's debias constant is bitwise uniform across rows — the
    ///   matrix debiases pair `(i, j)` with store-row `min(i, j)`'s
    ///   constant while a recompute uses the subset-order-first row's, and
    ///   those agree for every ordering only under one shared constant, and
    /// * the resolved rows are distinct — a duplicated row yields `0.0` on
    ///   the matrix diagonal but `-debias` from a recompute (the raw
    ///   distance of a row to itself is exactly `0.0` *before* debiasing).
    ///
    /// The raw kernel expression itself is orientation-proof: a zip-order
    /// sum of `(x − y)²` is bitwise symmetric in its arguments, so matrix
    /// entry `(a, b)` equals the subset's `(b, a)` exactly.
    ///
    /// # Errors
    /// [`EngineError::UnknownParty`] on an id that was never ingested;
    /// [`EngineError::SubsetTooLarge`] on more parties than the store
    /// holds rows (some party repeats), refused before anything is
    /// allocated. Only the first `n + 1` parties are resolved before
    /// that refusal, so an unknown one among them is named instead.
    pub fn pairwise(&self, parties: &[u64]) -> Result<PairwiseDistances, EngineError> {
        let store = &self.store;
        let n = store.n();
        let row_of = |&p: &u64| store.row_of(p).ok_or(EngineError::UnknownParty(p));
        if parties.len() > n {
            parties[..=n].iter().try_for_each(|p| row_of(p).map(drop))?;
            return Err(EngineError::SubsetTooLarge {
                parties: parties.len(),
                rows: n,
            });
        }
        let rows = parties.iter().map(row_of).collect::<Result<Vec<_>, _>>()?;
        if let Some(memo) = self.full_matrix().filter(|_| store.debias_uniform()) {
            if let Some(matrix) = memo.subset(&rows) {
                return Ok(matrix);
            }
        }
        let debias: Vec<f64> = rows.iter().map(|&r| store.debias_at(r)).collect();
        Ok(pairwise_sq_distances_rows(
            rows.len(),
            |i| store.row_values(rows[i]),
            &debias,
            &self.par,
        ))
    }

    /// The `k` nearest ingested parties to `party` (excluding every row
    /// sharing the query's party id), ascending by estimate, ties in
    /// ingest order. Estimates use the query row's debias constant,
    /// exactly like the per-query surface this engine replaced. One
    /// pass over the candidates in O(k) memory ([`select_smallest`]),
    /// scored in place by the run kernel
    /// ([`dp_core::kernel::sq_distance_run`], eight stored rows per
    /// pass), each estimate bit-identical to the per-pair one. With two
    /// or more workers, a store of 3,072 rows or more (1,536 per worker)
    /// is scored across them; the answer does not change.
    ///
    /// # Errors
    /// [`EngineError::UnknownParty`] if the id was never ingested.
    pub fn knn(&self, party: u64, k: usize) -> Result<Vec<Neighbor>, EngineError> {
        let row = self
            .store
            .row_of(party)
            .ok_or(EngineError::UnknownParty(party))?;
        Ok(self.knn_row(row, k))
    }

    /// [`QueryEngine::knn`] by row index: every candidate not sharing
    /// the query row's party id, scored with the **query row's** debias
    /// constant, ranked by [`select_smallest`] (ties in ingest order).
    /// The store's value runs are scored one at a time, in place, by
    /// [`sq_distance_run`] into a stack buffer, then fed to the selector
    /// in row order.
    ///
    /// With more than one worker due ([`Parallelism::workers_for`]),
    /// the runs are cut into contiguous shares, each ranked alone on
    /// its own worker, and the concatenated share lists are ranked once
    /// more. Each list is ordered by (estimate, row) and the shares
    /// ascend by row, so that is exactly the one-pass answer.
    fn knn_row(&self, row: usize, k: usize) -> Vec<Neighbor> {
        let store = &self.store;
        let party_ids = store.party_ids();
        let query_id = party_ids[row];
        let query = store.row_values(row);
        let debias = store.debias_at(row);
        let nearest = |share: &[(Range<usize>, &[f64])]| {
            let scored = share.iter().flat_map(|(rows, values)| {
                let mut sums = [0.0f64; CHUNK_ROWS];
                sq_distance_run(query, values, rows.len(), &mut sums);
                rows.clone().zip(sums).filter_map(move |(c, sum)| {
                    (party_ids[c] != query_id).then_some((sum - debias, party_ids[c]))
                })
            });
            select_smallest(k, scored)
        };
        let runs: Vec<_> = store.value_runs().collect();
        let workers = self.par.workers_for(store.n(), KNN_ROWS_PER_WORKER);
        let ranked = if workers == 1 {
            nearest(&runs)
        } else {
            let shares: Vec<_> = runs.chunks(runs.len().div_ceil(workers)).collect();
            let lists = par_map(&shares, workers, |_, share| nearest(share));
            select_smallest(k, lists.into_iter().flatten())
        };
        ranked
            .into_iter()
            .map(|(estimated_sq_distance, party_id)| Neighbor {
                party_id,
                estimated_sq_distance,
            })
            .collect()
    }

    /// The `t` globally closest pairs `(party a, party b, estimate)`,
    /// ascending by estimate, ties by row then column in ingest order.
    /// Runs on the incremental all-pairs memo: one pass over its run
    /// minima in O(t) memory, reading only the runs that can place.
    #[must_use]
    pub fn top_pairs(&mut self, t: usize) -> Vec<(u64, u64, f64)> {
        let memo = self.pairwise_memo();
        self.closest_pairs(&memo, t)
    }

    /// The `t` globally closest pairs over a memo of this store's rows,
    /// ranked by [`Smallest`] over its pairs row by row, then column by
    /// column (ties by row, then column, as a row-major scan of the
    /// dense matrix lists them). A run of a row's pairs whose minimum,
    /// recorded when the memo grew, is not strictly below the current
    /// `t`-th smallest estimate is skipped unread: an equal estimate
    /// never displaces an earlier candidate, so no pair in it can place.
    /// In a run that is read, each pair is first compared with that
    /// estimate, cached as [`Smallest::bar`], and only a pair below it,
    /// or a NaN on either side (whose comparison in
    /// [`Smallest::push`] panics, as the sort's would), is fed. Party
    /// ids are looked up only for the survivors.
    pub(crate) fn closest_pairs(&self, memo: &PairwiseMemo, t: usize) -> Vec<(u64, u64, f64)> {
        let n = memo.n();
        let mut closest = Smallest::new(t, n * n.saturating_sub(1) / 2);
        memo.upper_runs().for_each(|(i, first, min, run)| {
            if closest.places(min) {
                let mut bar = closest.bar();
                for (j, &estimate) in (first..).zip(run) {
                    if estimate < bar || estimate.is_nan() || bar.is_nan() {
                        closest.push(estimate, (i, j));
                        bar = closest.bar();
                    }
                }
            }
        });
        closest
            .into_sorted()
            .into_iter()
            .map(|(estimate, (i, j))| (self.store.party_at(i), self.store.party_at(j), estimate))
            .collect()
    }

    /// The [`TilePlan`] this engine's cold-start all-pairs pass executes
    /// — also what a coordinator shards across remote workers, so the
    /// local and distributed paths agree on every tile by construction.
    #[must_use]
    pub fn pairwise_plan(&self) -> TilePlan {
        effective_plan(self.store.n(), &self.par)
    }

    /// Execute an explicit set of plan tiles over this engine's store,
    /// returning one [`TileSegment`] per id — the worker half of the
    /// plan → execute → gather pipeline, and exactly the segments a
    /// server streams back for a protocol `ExecuteTilesStream` request.
    /// Bit-identical to the corresponding entries of
    /// [`QueryEngine::pairwise_all`].
    ///
    /// # Errors
    /// [`EngineError::PlanMismatch`] if `plan_rows` differs from the
    /// store's row count; [`EngineError::UnknownTile`] on an id outside
    /// the plan.
    pub fn execute_tiles(
        &self,
        plan_rows: usize,
        tile: usize,
        ids: &[u64],
    ) -> Result<Vec<TileSegment>, EngineError> {
        let plan = self.validate_tiles(plan_rows, tile, ids)?;
        Ok(self.run_tiles(&plan, ids))
    }

    /// The validation half of [`QueryEngine::execute_tiles`], without
    /// executing anything: check the plan against the store and every
    /// id against the plan, returning the plan on success. A streaming
    /// server validates once up front, then executes tile by tile.
    ///
    /// # Errors
    /// As [`QueryEngine::execute_tiles`].
    pub fn validate_tiles(
        &self,
        plan_rows: usize,
        tile: usize,
        ids: &[u64],
    ) -> Result<TilePlan, EngineError> {
        let n = self.store.n();
        if plan_rows != n {
            return Err(EngineError::PlanMismatch {
                store_rows: n,
                plan_rows,
            });
        }
        let plan = TilePlan::new(n, tile);
        let tile_count = plan.tile_count() as u64;
        if let Some(&id) = ids.iter().find(|&&id| id >= tile_count) {
            return Err(EngineError::UnknownTile { id, tile_count });
        }
        Ok(plan)
    }

    /// Execute tiles of an already validated plan against the store —
    /// the one call site of the tiled kernel, shared by memo growth,
    /// [`QueryEngine::execute_tiles`] and a snapshot's streamed tiles.
    pub(crate) fn run_tiles(&self, plan: &TilePlan, ids: &[u64]) -> Vec<TileSegment> {
        execute_tiles(
            plan,
            ids,
            |i| self.store.row_values(i),
            self.store.debias(),
            &self.par,
        )
    }

    /// A copy of this engine frozen for publication as a snapshot: the
    /// store clone (which shares every sealed chunk), the knob, the
    /// generation, and the memo only when it covers every row, so no
    /// snapshot keeps a stale memo alive.
    pub(crate) fn frozen(&self) -> Self {
        Self {
            store: self.store.clone(),
            par: self.par,
            memo: self.full_matrix().unwrap_or_else(no_memo),
            generation: self.generation,
        }
    }

    /// Grow the memo from `memo.n()` to `n` rows through one pipeline:
    /// plan → execute → gather. The gather grows the memo
    /// ([`Gather::grow`]), so cold start (`memo.n() == 0`) executes
    /// every tile and warm growth only the tiles touching the new rows
    /// ([`TilePlan::tiles_touching_rows`]) — the same frontier logic a
    /// coordinator runs across sockets, so local and distributed growth
    /// are literally one code path. Every tile runs the kernel's exact
    /// per-pair expression, so the memo is bit-identical to a
    /// from-scratch computation for any growth step sequence.
    fn grow_memo(&mut self, n: usize) {
        let plan = effective_plan(n, &self.par);
        let mut gather = Gather::grow(plan, &self.memo);
        for segment in &self.run_tiles(&plan, &gather.missing_ids()) {
            gather
                .accept(segment)
                .expect("locally executed segments always fit their plan");
        }
        self.memo = Arc::new(
            gather
                .finish()
                .expect("the frontier covers every missing tile"),
        );
        self.generation += 1;
    }
}

/// The memo of an engine with no all-pairs pass over its rows: one
/// process-wide empty memo, so emptying a memo (a fresh engine, a
/// replaced store, a snapshot of a stale memo) allocates nothing.
fn no_memo() -> Arc<PairwiseMemo> {
    static EMPTY: OnceLock<Arc<PairwiseMemo>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(Arc::default))
}

/// The `t` candidates with the smallest estimates, ascending — the one
/// ranking rule behind every k-NN and closest-pairs answer.
///
/// The answer is exactly what a stable `sort_by(partial_cmp)` followed
/// by `truncate(t)` returns: the same items in the same order with the
/// same estimate bits. Estimates compare with `partial_cmp`, so `-0.0`
/// and `+0.0` tie, and ties keep input order: an equal estimate never
/// displaces an earlier candidate.
///
/// Cost: one pass over the candidates, holding at most `t` of them in
/// a max-heap keyed by (estimate, input position); a candidate not
/// strictly below the current worst is skipped. Memory is
/// O(min(t, candidates)) whatever `t` is, so a `t` read off the wire
/// cannot size an allocation.
///
/// # Panics
/// `"finite estimates"` when a comparison meets a NaN estimate, as the
/// sort's would.
pub fn select_smallest<T>(
    t: usize,
    candidates: impl IntoIterator<Item = (f64, T)>,
) -> Vec<(f64, T)> {
    let candidates = candidates.into_iter();
    let mut smallest = Smallest::new(t, candidates.size_hint().0);
    // Internal iteration: a nested candidate iterator (a k-NN share's
    // scored runs) runs as plain loops.
    candidates.for_each(|(estimate, item)| smallest.push(estimate, item));
    smallest.into_sorted()
}

/// The bounded selector behind [`select_smallest`], fed one candidate
/// at a time in input order, which also tells a caller whether a
/// candidate could place before it is scored or fed
/// ([`Smallest::places`]).
pub(crate) struct Smallest<T> {
    t: usize,
    fed: usize,
    heap: BinaryHeap<Ranked<T>>,
}

impl<T> Smallest<T> {
    /// Keep the `t` smallest of about `expected` candidates: the heap
    /// starts at `min(t, expected)` entries, never at `t` alone.
    pub(crate) fn new(t: usize, expected: usize) -> Self {
        Self {
            t,
            fed: 0,
            heap: BinaryHeap::with_capacity(t.min(expected)),
        }
    }

    /// Whether a candidate with this estimate would be kept if fed now:
    /// fewer than `t` are held, or it is strictly below the current
    /// `t`-th smallest estimate.
    ///
    /// # Panics
    /// `"finite estimates"` when a NaN meets that comparison.
    pub(crate) fn places(&self, estimate: f64) -> bool {
        self.heap.len() < self.t
            || self.heap.peek().is_some_and(|worst| {
                estimate
                    .partial_cmp(&worst.estimate)
                    .expect("finite estimates")
                    .is_lt()
            })
    }

    /// The estimate a candidate must be strictly below to place, for a
    /// caller that compares before it feeds: the current `t`-th
    /// smallest estimate once `t` are held, and NaN while fewer are
    /// held, when every candidate places. The caller feeds a candidate
    /// when it is below the bar or either is NaN; skipping any other
    /// changes nothing: [`Smallest::push`] would drop it, and input
    /// positions only order the candidates that are fed.
    pub(crate) fn bar(&self) -> f64 {
        match self.heap.peek() {
            Some(worst) if self.heap.len() >= self.t => worst.estimate,
            _ => f64::NAN,
        }
    }

    /// Feed the next candidate in input order.
    pub(crate) fn push(&mut self, estimate: f64, item: T) {
        let ranked = Ranked {
            estimate,
            position: self.fed,
            item,
        };
        self.fed += 1;
        if self.heap.len() < self.t {
            self.heap.push(ranked);
        } else if self.places(estimate) {
            *self
                .heap
                .peek_mut()
                .expect("a candidate places over a held one") = ranked;
        }
    }

    /// The kept candidates, ascending by estimate, ties in input order.
    pub(crate) fn into_sorted(self) -> Vec<(f64, T)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|r| (r.estimate, r.item))
            .collect()
    }
}

/// A [`Smallest`] heap entry, ordered by (estimate, position).
struct Ranked<T> {
    estimate: f64,
    position: usize,
    item: T,
}

impl<T> Ord for Ranked<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.estimate
            .partial_cmp(&other.estimate)
            .expect("finite estimates")
            .then(self.position.cmp(&other.position))
    }
}

impl<T> PartialOrd for Ranked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Ranked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for Ranked<T> {}
