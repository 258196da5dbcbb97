//! Snapshot-isolated, lock-free reads over a shared [`QueryEngine`].
//!
//! The server's original concurrency story was one `Mutex<QueryEngine>`
//! around *everything*: a slow full-matrix query stalled every point
//! query behind it. But the workload is overwhelmingly read-dominated —
//! every query is post-processing of already-released sketches, costs
//! no privacy budget, and mutates nothing — so reads should scale with
//! cores while only ingest serializes.
//!
//! [`SharedEngine`] splits the two worlds:
//!
//! * **Mutations** ([`SharedEngine::mutate`]) lock the engine, run, and
//!   — iff the engine's [`QueryEngine::generation`] moved — **publish**
//!   a fresh [`EngineSnapshot`]: a frozen copy of the engine (its store,
//!   execution knob and generation, plus the all-pairs memo
//!   ([`crate::PairwiseMemo`]) only when it covers every row), stamped
//!   with a monotonically increasing *epoch*. The store copy shares
//!   every sealed chunk of sketch values (and the interned tags) with
//!   the engine and with older snapshots, so a publish costs the
//!   store's open tail plus 8 B per row for each flat per-row column
//!   and the party index — never a copy of the `n × k` values. It is
//!   built before the snapshot slot is locked, and the snapshot it
//!   replaces is freed after the slot is unlocked.
//! * **Reads** run against a published snapshot. The hot path
//!   ([`SharedEngine::refresh`]) is one atomic epoch load: when the
//!   caller's cached `Arc<EngineSnapshot>` is still current, no lock is
//!   touched at all; only on an epoch change does the reader take a
//!   brief lock to clone the new `Arc` (a pointer copy, never a data
//!   copy).
//!
//! A snapshot is immutable forever: readers holding an old epoch keep
//! computing against it unharmed while newer epochs are published — the
//! "no torn reads" contract the concurrent chaos suite asserts is that
//! every answer equals the answer of *some* published snapshot.
//!
//! ## Determinism
//!
//! A snapshot derefs to its frozen [`QueryEngine`] (never mutably), so
//! every snapshot read — `pair`, `pairwise`, `knn`, `pairwise_plan`,
//! `validate_tiles` — *is* the engine's method: the locked and the
//! lock-free surfaces run one code path, bit-identical by construction
//! for any interleaving of reads and publishes. The snapshot defines
//! only what a frozen engine answers differently: `top_pairs` yields
//! `None` instead of growing a stale memo, and `execute_tile` runs one
//! tile of an already validated plan. Ranked reads (`knn`,
//! `top_pairs`) share the engine's bounded selector,
//! [`crate::select_smallest`]: one pass over the candidates in O(t)
//! memory, ties in input order.

use crate::engine::QueryEngine;
use dp_core::{TilePlan, TileSegment};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// An immutable point-in-time [`QueryEngine`], stamped with its publish
/// epoch: the store's rows, the execution knob, the generation, and the
/// all-pairs memo when it covered every row at publish time. It derefs
/// to the frozen engine (never mutably), so every engine read is a
/// snapshot read — pure, no lock, no interior mutability — and any
/// number of readers run concurrently with each other and with ingest.
#[derive(Debug)]
pub struct EngineSnapshot {
    engine: QueryEngine,
    epoch: u64,
}

impl Deref for EngineSnapshot {
    type Target = QueryEngine;

    fn deref(&self) -> &QueryEngine {
        &self.engine
    }
}

impl EngineSnapshot {
    fn of(engine: &QueryEngine, epoch: u64) -> Self {
        Self {
            engine: engine.frozen(),
            epoch,
        }
    }

    /// The publish epoch: strictly increasing across published
    /// snapshots of one [`SharedEngine`].
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of rows in this snapshot.
    #[must_use]
    pub fn n(&self) -> usize {
        self.store().n()
    }

    /// The `t` globally closest pairs, when the snapshot carries the
    /// memo — bit-identical to [`QueryEngine::top_pairs`]: ascending,
    /// ties by row then column, one pass over the memo's upper triangle
    /// in O(t) memory. `None` signals the stale-memo fallback, exactly
    /// like [`QueryEngine::full_matrix`]: a frozen engine never grows
    /// its memo.
    #[must_use]
    pub fn top_pairs(&self, t: usize) -> Option<Vec<(u64, u64, f64)>> {
        self.full_matrix()
            .map(|memo| self.engine.closest_pairs(&memo, t))
    }

    /// Execute one tile of an **already validated** plan — bit-identical
    /// to the matching segment of [`QueryEngine::execute_tiles`], and
    /// safe to run tile by tile over a long stream: the snapshot cannot
    /// change underneath the stream, so a streamed answer is internally
    /// consistent by construction.
    #[must_use]
    pub fn execute_tile(&self, plan: &TilePlan, id: u64) -> Vec<TileSegment> {
        self.engine.run_tiles(plan, &[id])
    }
}

/// A [`QueryEngine`] shared between one serialized mutation path and
/// any number of lock-free readers, via published [`EngineSnapshot`]s.
/// See the module docs for the protocol.
#[derive(Debug)]
pub struct SharedEngine {
    /// The epoch of the latest published snapshot. Readers compare
    /// this (one `Acquire` load) against their cached snapshot's epoch;
    /// the snapshot is stored into `current` *before* the epoch is
    /// bumped (`Release`), so a reader observing the new epoch always
    /// finds a snapshot at least that new under the lock.
    epoch: AtomicU64,
    /// The latest published snapshot. Locked only to read, swap or
    /// clone the `Arc` — never while building or freeing a snapshot.
    current: Mutex<Arc<EngineSnapshot>>,
    /// The single mutable engine. Lock order: `engine` before
    /// `current` (a publish swaps the slot under both).
    engine: Mutex<QueryEngine>,
}

/// Recover a poisoned lock: both guarded values uphold their
/// invariants across panics (the store is append-only and validates
/// before mutating; the snapshot slot holds a complete `Arc` or the
/// previous one), mirroring the server's poison-recovery discipline.
fn recover<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl SharedEngine {
    /// Wrap an engine, publishing its current state as epoch 1.
    #[must_use]
    pub fn new(engine: QueryEngine) -> Self {
        let first = Arc::new(EngineSnapshot::of(&engine, 1));
        Self {
            epoch: AtomicU64::new(1),
            current: Mutex::new(first),
            engine: Mutex::new(engine),
        }
    }

    /// The epoch of the latest published snapshot (one atomic load).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The latest published snapshot (brief lock, clones the `Arc`).
    #[must_use]
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        let current = recover(self.current.lock());
        Arc::clone(&current)
    }

    /// The hot-path read: keep `cached` current. When the epoch hasn't
    /// moved since `cached` was published this is **one atomic load and
    /// no lock**; on an epoch change the new snapshot is cloned out
    /// under the brief `current` lock.
    pub fn refresh(&self, cached: &mut Arc<EngineSnapshot>) {
        if cached.epoch() != self.epoch.load(Ordering::Acquire) {
            *cached = self.snapshot();
        }
    }

    /// Run a mutation under the engine lock, then publish a fresh
    /// snapshot iff the engine's generation moved (a failed ingest
    /// publishes nothing). Returns `f`'s result.
    ///
    /// This is the **only** writer of the epoch, so epochs increase
    /// strictly and a snapshot's `(epoch, generation)` pair is unique.
    pub fn mutate<T>(&self, f: impl FnOnce(&mut QueryEngine) -> T) -> T {
        let mut engine = recover(self.engine.lock());
        let out = f(&mut engine);
        let generation = engine.generation();
        // Only this method writes the slot, and it holds the engine
        // lock, so the slot cannot change between the two brief locks:
        // the snapshot is built before the second and the replaced one
        // freed after it, and a reader whose epoch moved waits on
        // neither.
        if recover(self.current.lock()).generation() != generation {
            let epoch = self.epoch.load(Ordering::Relaxed) + 1;
            let fresh = Arc::new(EngineSnapshot::of(&engine, epoch));
            let replaced = std::mem::replace(&mut *recover(self.current.lock()), fresh);
            self.epoch.store(epoch, Ordering::Release);
            drop(replaced);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CHUNK_ROWS;
    use dp_core::config::SketchConfig;
    use dp_core::release::Release;
    use dp_core::sketcher::{Construction, PrivateSketcher, SketcherSpec};
    use dp_hashing::Seed;

    fn spec(d: usize) -> SketcherSpec {
        let config = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.5)
            .build()
            .unwrap();
        SketcherSpec::new(Construction::SjltAuto, config, Seed::new(7))
    }

    fn releases(n: usize, d: usize) -> Vec<Release> {
        let sk = spec(d).build().unwrap();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| ((i * d + j) % 7) as f64 - 3.0).collect())
            .collect();
        sk.sketch_batch(&rows, Seed::new(500))
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, sketch)| Release {
                party_id: 100 + i as u64,
                sketch,
            })
            .collect()
    }

    #[test]
    fn publish_on_ingest_only() {
        let shared = SharedEngine::new(QueryEngine::default());
        assert_eq!(shared.epoch(), 1);
        let rels = releases(3, 12);
        shared.mutate(|e| e.ingest(&rels[0]).unwrap());
        assert_eq!(shared.epoch(), 2);
        // A failed mutation (duplicate party) publishes nothing.
        shared.mutate(|e| assert!(e.ingest(&rels[0]).is_err()));
        assert_eq!(shared.epoch(), 2);
        // A pure read inside mutate publishes nothing either.
        shared.mutate(|e| {
            let _ = e.pair(100, 100);
        });
        assert_eq!(shared.epoch(), 2);
    }

    #[test]
    fn old_snapshots_survive_new_publishes() {
        // The second input grows the engine across two chunk seals, the
        // first of which seals the rows the old snapshot holds in its
        // open tail.
        for grown in [4, 2 * CHUNK_ROWS + 1] {
            let shared = SharedEngine::new(QueryEngine::default());
            let rels = releases(grown, 12);
            for r in &rels[..2] {
                shared.mutate(|e| e.ingest(r).unwrap());
            }
            let old = shared.snapshot();
            assert_eq!(old.n(), 2);
            let before = old.pair(100, 101).unwrap();
            for r in &rels[2..] {
                shared.mutate(|e| e.ingest(r).unwrap());
            }
            assert_eq!(shared.snapshot().n(), grown);
            // The old view is frozen: same rows, bitwise-same answer.
            assert_eq!(old.n(), 2);
            assert_eq!(old.pair(100, 101).unwrap().to_bits(), before.to_bits());
            assert_eq!(old.store().row_values(1), rels[1].sketch.values());
        }
    }

    #[test]
    fn snapshots_share_sealed_rows() {
        let shared = SharedEngine::new(QueryEngine::default());
        let rels = releases(CHUNK_ROWS + 2, 12);
        for r in &rels[..=CHUNK_ROWS] {
            shared.mutate(|e| e.ingest(r).unwrap());
        }
        let first = shared.snapshot();
        shared.mutate(|e| e.ingest(&rels[CHUNK_ROWS + 1]).unwrap());
        let second = shared.snapshot();
        assert_ne!(first.epoch(), second.epoch());
        // Row 0 sits in a sealed chunk: both snapshots (and the engine)
        // point at the same storage instead of each holding a copy.
        let row0 = first.store().row_values(0).as_ptr();
        assert_eq!(second.store().row_values(0).as_ptr(), row0);
        assert_eq!(shared.mutate(|e| e.store().row_values(0).as_ptr()), row0);
    }

    #[test]
    fn refresh_is_a_noop_on_an_unchanged_epoch() {
        let shared = SharedEngine::new(QueryEngine::default());
        let rels = releases(2, 12);
        shared.mutate(|e| e.ingest(&rels[0]).unwrap());
        let mut cached = shared.snapshot();
        let ptr = Arc::as_ptr(&cached);
        shared.refresh(&mut cached);
        assert_eq!(Arc::as_ptr(&cached), ptr, "no republish, same Arc");
        shared.mutate(|e| e.ingest(&rels[1]).unwrap());
        shared.refresh(&mut cached);
        assert_ne!(Arc::as_ptr(&cached), ptr);
        assert_eq!(cached.n(), 2);
    }

    #[test]
    fn snapshot_queries_match_engine_queries_bitwise() {
        let shared = SharedEngine::new(QueryEngine::default());
        let rels = releases(6, 16);
        for r in &rels {
            shared.mutate(|e| e.ingest(r).unwrap());
        }
        // Warm the memo through the mutation path; the publish carries
        // the matrix into the next snapshot.
        let full = shared.mutate(|e| e.pairwise_all());
        let snap = shared.snapshot();
        let snap_full = snap.full_matrix().expect("memo published");
        assert_eq!(snap_full.to_dense().as_flat(), full.as_flat());
        let engine_knn = shared.mutate(|e| e.knn(102, 3).unwrap());
        let snap_knn = snap.knn(102, 3).unwrap();
        assert_eq!(engine_knn.len(), snap_knn.len());
        for (a, b) in engine_knn.iter().zip(&snap_knn) {
            assert_eq!(a.party_id, b.party_id);
            assert_eq!(
                a.estimated_sq_distance.to_bits(),
                b.estimated_sq_distance.to_bits()
            );
        }
        let ids = [104u64, 100, 103];
        let engine_sub = shared.mutate(|e| e.pairwise(&ids).unwrap());
        let snap_sub = snap.pairwise(&ids).unwrap();
        assert_eq!(engine_sub.as_flat(), snap_sub.as_flat());
        let engine_top = shared.mutate(|e| e.top_pairs(4));
        let snap_top = snap.top_pairs(4).expect("memo published");
        assert_eq!(engine_top, snap_top);
        // Tile execution over the snapshot, one id at a time, matches
        // the engine's batch execution.
        let plan = snap.pairwise_plan();
        let ids: Vec<u64> = (0..plan.tile_count() as u64).collect();
        let engine_tiles = shared.mutate(|e| e.execute_tiles(plan.n(), plan.tile(), &ids).unwrap());
        let snap_tiles: Vec<TileSegment> = ids
            .iter()
            .flat_map(|&id| snap.execute_tile(&plan, id))
            .collect();
        assert_eq!(engine_tiles, snap_tiles);
    }

    #[test]
    fn stale_memo_not_published() {
        let shared = SharedEngine::new(QueryEngine::default());
        let rels = releases(3, 12);
        for r in &rels[..2] {
            shared.mutate(|e| e.ingest(r).unwrap());
        }
        shared.mutate(|e| {
            let _ = e.pairwise_all();
        });
        assert!(shared.snapshot().full_matrix().is_some());
        // New row: the memo is stale again, so the fresh snapshot must
        // not carry a matrix that is missing the row.
        shared.mutate(|e| e.ingest(&rels[2]).unwrap());
        let snap = shared.snapshot();
        assert_eq!(snap.n(), 3);
        assert!(snap.full_matrix().is_none());
        assert!(snap.top_pairs(1).is_none());
    }

    #[test]
    fn concurrent_readers_and_writer_smoke() {
        let shared = SharedEngine::new(QueryEngine::default());
        let rels = releases(8, 12);
        shared.mutate(|e| e.ingest(&rels[0]).unwrap());
        shared.mutate(|e| e.ingest(&rels[1]).unwrap());
        std::thread::scope(|scope| {
            let shared = &shared;
            let rels = &rels;
            scope.spawn(move || {
                for r in &rels[2..] {
                    shared.mutate(|e| e.ingest(r).unwrap());
                }
            });
            for _ in 0..3 {
                scope.spawn(move || {
                    let mut cached = shared.snapshot();
                    for _ in 0..200 {
                        shared.refresh(&mut cached);
                        // Any published snapshot answers coherently:
                        // the first two rows are always present.
                        let d = cached.pair(100, 101).unwrap();
                        assert!(d.is_finite());
                        assert!(cached.n() >= 2 && cached.n() <= 8);
                    }
                });
            }
        });
        assert_eq!(shared.snapshot().n(), 8);
    }
}
