//! The incremental query surface over a [`SketchStore`].
//!
//! Every query is post-processing of already-private releases, so no
//! query costs privacy budget. The engine adds what the slice-based
//! free functions could not: **persistence** (the all-pairs matrix is
//! cached and only the pairs involving newly ingested rows are
//! computed on the next query) and **hoisting** (compatibility and
//! debias constants were resolved at ingest, so a point query is a pure
//! O(k) fused subtract-square-accumulate).
//!
//! ## Determinism
//!
//! All estimates run the versioned accumulator of [`dp_core::kernel`]
//! under one [`KernelId`] per engine — a raw sum of squared
//! differences minus a hoisted `2k·E[η²]` — so engine answers are
//! bit-identical to the slice-based reference for every thread count,
//! tile size, and ingest/query interleaving *within a kernel version*
//! (the default `V1Scalar` reproduces
//! [`dp_core::NoisySketch::estimate_sq_distance`] exactly). Point
//! queries and the all-pairs matrix share the engine's kernel, so they
//! agree bit-for-bit under `V2Simd` too. In the all-pairs matrix, pair
//! `(i, j)` with `i < j` is debiased with row `i`'s constant (exactly
//! like the tiled kernel); a k-NN query is debiased with the *query
//! row's* constant (exactly like the old per-query `top_k`). The two
//! agree bit-for-bit whenever the batch was released by one sketcher,
//! which is the only kind the workspace produces.
//!
//! ## Ranked reads
//!
//! `knn` and `top_pairs` rank through one bounded selector,
//! [`select_smallest`]: one pass over the candidates in O(t) memory,
//! never a full sort, with ties kept in input order (ingest order for
//! k-NN, row then column for pairs). Answers equal a stable sort by
//! estimate truncated to `t`, bit for bit.

use crate::error::EngineError;
use crate::gather::Gather;
use crate::store::SketchStore;
use dp_core::release::Release;
use dp_core::sketcher::{effective_plan, execute_tiles, pairwise_sq_distances_rows};
use dp_core::PrivateSketcher;
use dp_core::{KernelId, PairwiseDistances, Parallelism, TilePlan, TileSegment};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

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
    /// The all-pairs matrix over the first `cache.n()` store rows,
    /// shared out cheaply (`Arc`) so a warm query copies nothing.
    cache: Arc<PairwiseDistances>,
    /// Bumped on every observable mutation (successful ingest, cache
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
    /// [`Parallelism`]). A spec-carrying store pins the engine's kernel
    /// to the spec's [`KernelId`] — the spec is the negotiated identity
    /// a fleet agrees on, so the executing kernel must follow it, not
    /// the local environment.
    #[must_use]
    pub fn new(store: SketchStore) -> Self {
        let mut par = Parallelism::default();
        if let Some(spec) = store.spec() {
            par = par.with_kernel(spec.kernel());
        }
        Self {
            store,
            par,
            cache: Arc::new(PairwiseDistances::from_flat(0, Vec::new())),
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
    /// every all-pairs cache growth or adoption. Two calls returning the
    /// same value bracket a window with no observable engine mutation —
    /// what [`crate::SharedEngine::mutate`] compares to skip
    /// republishing an unchanged snapshot.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Override the mutation generation — for callers that *replace* an
    /// engine wholesale (the server's `Hello` spec adoption builds a
    /// fresh engine) and must keep the generation moving forward so
    /// snapshot publication notices the swap.
    #[must_use]
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &SketchStore {
        &self.store
    }

    /// Mutable access to the store (e.g. its interner). The engine's
    /// incremental cache stays valid under any store mutation because
    /// the store is append-only.
    pub fn store_mut(&mut self) -> &mut SketchStore {
        &mut self.store
    }

    /// Consume the engine, returning the store.
    #[must_use]
    pub fn into_store(self) -> SketchStore {
        self.store
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
    /// snapshot republication and cache invalidation cost once per bulk
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

    /// Server-side bulk load: sketch raw rows under the store's spec —
    /// the negotiated kernel rides the spec, so the batch projection
    /// kernels of [`dp_core::kernel`] do the work — then ingest the
    /// releases under the given party ids. Per-row noise seeds are
    /// `noise_seed.index(row)`, exactly the `sketch_batch` contract, so
    /// the ingested bytes are bit-identical to sketching each row alone
    /// and ingesting one at a time.
    ///
    /// # Errors
    /// [`EngineError::Core`] if the store has no spec, the id/row
    /// counts differ, or sketching fails; ingest errors as for
    /// [`QueryEngine::ingest_batch`].
    pub fn sketch_and_ingest_batch(
        &mut self,
        party_ids: &[u64],
        xs: &[Vec<f64>],
        noise_seed: dp_hashing::Seed,
    ) -> Result<Vec<usize>, EngineError> {
        if party_ids.len() != xs.len() {
            return Err(EngineError::Core(dp_core::CoreError::Unsupported(
                "sketch_and_ingest_batch needs one party id per row",
            )));
        }
        let spec = self
            .store
            .spec()
            .ok_or(EngineError::Core(dp_core::CoreError::Unsupported(
                "sketch_and_ingest_batch needs a store built with a spec",
            )))?
            .clone();
        let sketcher = spec.build_with(self.par)?;
        let sketches = sketcher.sketch_batch(xs, noise_seed)?;
        let releases: Vec<Release> = party_ids
            .iter()
            .zip(sketches)
            .map(|(&party_id, sketch)| Release { party_id, sketch })
            .collect();
        self.ingest_batch(&releases)
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

    /// [`QueryEngine::pair`] by row index. The pair `(i, j)` is debiased
    /// with the lower row's constant, matching the all-pairs matrix.
    ///
    /// # Panics
    /// If a row is out of range.
    #[must_use]
    pub fn pair_rows(&self, i: usize, j: usize) -> f64 {
        pair_rows_over(&self.store, i, j, self.par.kernel())
    }

    /// All pairwise estimates among every ingested row, as a flat
    /// row-major matrix in ingest order — **incremental**: the matrix
    /// over previously queried rows is cached, and only pairs touching
    /// rows ingested since the last call are computed (each new row is
    /// one data-parallel task). A cold call runs the tiled kernel; a
    /// warm call with no new rows is O(1) — the returned handle shares
    /// the cache, copying nothing.
    #[must_use]
    pub fn pairwise_all(&mut self) -> Arc<PairwiseDistances> {
        let n = self.store.n();
        if self.cache.n() < n {
            self.extend_cache(n);
        }
        Arc::clone(&self.cache)
    }

    /// The cached all-pairs matrix, **iff** it currently covers every
    /// ingested row — the memo a published [`crate::EngineSnapshot`]
    /// carries, and what the subset fast path slices. Never computes
    /// anything; a stale cache yields `None`.
    #[must_use]
    pub fn cached_matrix(&self) -> Option<Arc<PairwiseDistances>> {
        (self.cache.n() == self.store.n() && self.store.n() > 0).then(|| Arc::clone(&self.cache))
    }

    /// The all-pairs memo as it stands, even when rows ingested since
    /// have made it stale: the matrix over the store's first `n()` rows
    /// (empty before any all-pairs pass). A coordinator seeds its
    /// sharded gather from this ([`Gather::seeded`]). Never computes
    /// anything.
    #[must_use]
    pub fn memo(&self) -> Arc<PairwiseDistances> {
        Arc::clone(&self.cache)
    }

    /// Adopt an all-pairs matrix computed elsewhere — a coordinator's
    /// sharded gather — as the memo, iff it covers more rows than the
    /// memo does and no more than the store holds. The store is
    /// append-only, so a matrix over its first `matrix.n()` rows stays
    /// valid as it grows; later growth extends it incrementally like a
    /// locally computed one. Returns whether the matrix was adopted (an
    /// adoption bumps the generation, so the next publish carries it).
    ///
    /// The caller vouches that the matrix was computed over this
    /// store's rows under this engine's kernel.
    pub fn adopt_matrix(&mut self, matrix: Arc<PairwiseDistances>) -> bool {
        let rows = matrix.n();
        if rows <= self.cache.n() || rows > self.store.n() {
            return false;
        }
        self.cache = matrix;
        self.generation += 1;
        true
    }

    /// All pairwise estimates among an explicit subset of parties, in
    /// the given order. When the full-matrix memo is warm and slicing
    /// it is provably bit-identical to recomputing (uniform debias
    /// constant, distinct rows — see `subset_pairwise`), the answer
    /// is sliced out of the cache in O(|subset|²); otherwise it is
    /// computed fresh via the tiled kernel.
    ///
    /// # Errors
    /// [`EngineError::UnknownParty`] on an id that was never ingested.
    pub fn pairwise(&self, parties: &[u64]) -> Result<PairwiseDistances, EngineError> {
        let rows = resolve_rows(&self.store, parties)?;
        let memo = self.cached_matrix();
        Ok(subset_pairwise(
            &self.store,
            &rows,
            memo.as_deref(),
            &self.par,
        ))
    }

    /// The `k` nearest ingested parties to `party` (excluding every row
    /// sharing the query's party id), ascending by estimate, ties in
    /// ingest order. Estimates use the query row's debias constant,
    /// exactly like the per-query surface this engine replaced. One
    /// pass over the candidates in O(k) memory ([`select_smallest`]).
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

    /// [`QueryEngine::knn`] by row index (candidates sharing the query
    /// row's party id are excluded).
    ///
    /// # Panics
    /// If `row` is out of range.
    #[must_use]
    pub fn knn_row(&self, row: usize, k: usize) -> Vec<Neighbor> {
        knn_over(&self.store, row, k, self.par.kernel())
    }

    /// The `t` globally closest pairs `(party a, party b, estimate)`,
    /// ascending by estimate, ties by row then column in ingest order.
    /// Runs on the incremental all-pairs cache: one pass over its upper
    /// triangle in O(t) memory ([`select_smallest`]).
    #[must_use]
    pub fn top_pairs(&mut self, t: usize) -> Vec<(u64, u64, f64)> {
        let matrix = self.pairwise_all();
        top_pairs_over(&self.store, &matrix, t)
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
        Ok(execute_tiles_over(&self.store, &plan, ids, &self.par))
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
        validate_tiles_over(&self.store, plan_rows, tile, ids)
    }

    /// Grow the cached all-pairs matrix from `cache.n()` to `n` rows
    /// through one pipeline: plan → execute → gather. Cold start
    /// (`cache.n() == 0`) executes every tile; warm growth seeds the
    /// gather from the previous matrix ([`Gather::seeded`]) and
    /// executes only the tiles touching the new rows
    /// ([`TilePlan::tiles_touching_rows`]) — the same frontier logic a
    /// coordinator runs across sockets, so local and distributed growth
    /// are literally one code path. Every tile runs the kernel's exact
    /// per-pair expression, so the matrix is bit-identical to a
    /// from-scratch computation for any growth step sequence.
    fn extend_cache(&mut self, n: usize) {
        let old = self.cache.n();
        let plan = effective_plan(n, &self.par);
        let ids: Vec<u64> = if old == 0 {
            (0..plan.tile_count() as u64).collect()
        } else {
            plan.tiles_touching_rows(old..n)
                .into_iter()
                .map(|id| id as u64)
                .collect()
        };
        let segments = execute_tiles_over(&self.store, &plan, &ids, &self.par);
        let mut gather = Gather::seeded(plan, old, self.cache.as_flat());
        for segment in &segments {
            gather
                .accept(segment)
                .expect("locally executed segments always fit their plan");
        }
        self.cache = Arc::new(
            gather
                .finish()
                .expect("the frontier covers every missing tile"),
        );
        self.generation += 1;
    }
}

/// Resolve party ids to store rows, in the caller's order.
///
/// # Errors
/// [`EngineError::UnknownParty`] on an id that was never ingested.
pub(crate) fn resolve_rows(
    store: &SketchStore,
    parties: &[u64],
) -> Result<Vec<usize>, EngineError> {
    parties
        .iter()
        .map(|&p| store.row_of(p).ok_or(EngineError::UnknownParty(p)))
        .collect()
}

/// The per-pair estimate between two store rows: pair `(i, j)` is
/// debiased with the **lower** row's constant, matching the all-pairs
/// matrix. The single expression behind [`QueryEngine::pair`] and
/// [`crate::EngineSnapshot::pair`] — one body, so the locked and the
/// snapshot read paths cannot drift.
pub(crate) fn pair_rows_over(store: &SketchStore, i: usize, j: usize, kernel: KernelId) -> f64 {
    if i == j {
        return 0.0;
    }
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    let raw = raw_sq_distance(kernel, store.row_values(lo), store.row_values(hi));
    raw - store.debias_at(lo)
}

/// Subset pairwise with the memo fast path. Slicing the full matrix is
/// used only when it is **provably bit-identical** to a cold tiled
/// recompute over the subset:
///
/// * `memo` covers every store row (the caller checked), and
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
pub(crate) fn subset_pairwise(
    store: &SketchStore,
    rows: &[usize],
    memo: Option<&PairwiseDistances>,
    par: &Parallelism,
) -> PairwiseDistances {
    if let Some(matrix) = memo {
        if store.debias_uniform() && rows_distinct(rows, store.n()) {
            let m = rows.len();
            let mut flat = Vec::with_capacity(m * m);
            for &a in rows {
                for &b in rows {
                    flat.push(matrix.at(a, b));
                }
            }
            return PairwiseDistances::from_flat(m, flat);
        }
    }
    let debias: Vec<f64> = rows.iter().map(|&r| store.debias_at(r)).collect();
    pairwise_sq_distances_rows(rows.len(), |i| store.row_values(rows[i]), &debias, par)
}

/// Whether every row index appears at most once (`n` = store rows, for
/// a one-pass bitmap instead of a hash set).
fn rows_distinct(rows: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    rows.iter().all(|&r| !std::mem::replace(&mut seen[r], true))
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
    let mut heap = BinaryHeap::with_capacity(t.min(candidates.size_hint().0));
    for (position, (estimate, item)) in candidates.enumerate() {
        let ranked = Ranked {
            estimate,
            position,
            item,
        };
        if heap.len() < t {
            heap.push(ranked);
        } else if let Some(mut worst) = heap.peek_mut() {
            if estimate
                .partial_cmp(&worst.estimate)
                .expect("finite estimates")
                .is_lt()
            {
                *worst = ranked;
            }
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|r| (r.estimate, r.item))
        .collect()
}

/// A [`select_smallest`] heap entry, ordered by (estimate, position).
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

/// The k-NN scan behind [`QueryEngine::knn_row`] and
/// [`crate::EngineSnapshot::knn`]: every candidate not sharing the
/// query row's party id, scored with the **query row's** debias
/// constant, ranked by [`select_smallest`] (ties in ingest order).
pub(crate) fn knn_over(
    store: &SketchStore,
    row: usize,
    k: usize,
    kernel: KernelId,
) -> Vec<Neighbor> {
    let query_id = store.party_at(row);
    let query = store.row_values(row);
    let debias = store.debias_at(row);
    let scored = (0..store.n())
        .filter(|&c| store.party_at(c) != query_id)
        .map(|c| {
            let estimate = raw_sq_distance(kernel, query, store.row_values(c)) - debias;
            (estimate, store.party_at(c))
        });
    select_smallest(k, scored)
        .into_iter()
        .map(|(estimated_sq_distance, party_id)| Neighbor {
            party_id,
            estimated_sq_distance,
        })
        .collect()
}

/// The `t` globally closest pairs over an already-materialized matrix,
/// ranked by [`select_smallest`] over the upper triangle in row-major
/// order (ties by row, then column). Party ids are looked up only for
/// the survivors.
pub(crate) fn top_pairs_over(
    store: &SketchStore,
    matrix: &PairwiseDistances,
    t: usize,
) -> Vec<(u64, u64, f64)> {
    let n = matrix.n();
    let flat = matrix.as_flat();
    let upper = (0..n).flat_map(|i| {
        flat[i * n + i + 1..(i + 1) * n]
            .iter()
            .zip(i + 1..)
            .map(move |(&estimate, j)| (estimate, (i, j)))
    });
    select_smallest(t, upper)
        .into_iter()
        .map(|(estimate, (i, j))| (store.party_at(i), store.party_at(j), estimate))
        .collect()
}

/// The plan-vs-store and id-vs-plan validation behind
/// [`QueryEngine::validate_tiles`] and the snapshot's tile surface.
///
/// # Errors
/// [`EngineError::PlanMismatch`] / [`EngineError::UnknownTile`].
pub(crate) fn validate_tiles_over(
    store: &SketchStore,
    plan_rows: usize,
    tile: usize,
    ids: &[u64],
) -> Result<TilePlan, EngineError> {
    let n = store.n();
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

/// Execute plan tiles against a store — the one call site of the tiled
/// kernel shared by the engine's cache growth, its tile surface, and
/// the snapshot's.
pub(crate) fn execute_tiles_over(
    store: &SketchStore,
    plan: &TilePlan,
    ids: &[u64],
    par: &Parallelism,
) -> Vec<TileSegment> {
    execute_tiles(plan, ids, |i| store.row_values(i), store.debias(), par)
}

/// The kernel's inner expression: the versioned accumulator from
/// [`dp_core::kernel`]. `V1Scalar` is the historic zip-order sum of
/// squared differences, bit for bit.
#[inline]
fn raw_sq_distance(kernel: KernelId, a: &[f64], b: &[f64]) -> f64 {
    dp_core::kernel::sq_distance(kernel, a, b)
}
