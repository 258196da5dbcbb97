//! # dp-engine — the persistent query layer over released sketches
//!
//! The paper's sketches exist to be *queried*: estimate `‖x − y‖²`
//! between any pair of released parties, rank neighbors, find close
//! pairs. The rest of the workspace produces and transports releases;
//! this crate is their long-lived home:
//!
//! * [`SketchStore`] — owns the shared [`dp_core::SketcherSpec`], one
//!   [`dp_core::wire::TagInterner`], and every ingested sketch in a
//!   chunked `n × k` arena whose sealed chunks every clone shares
//!   (each row is still one contiguous slice). Ingest accepts decoded
//!   [`dp_core::release::Release`] frames or raw `DPRL` bytes, and
//!   rejects incompatible sketches and duplicate party ids with typed
//!   [`EngineError`]s. All validation happens once, at ingest.
//! * [`QueryEngine`] — `pair`, `pairwise`, `knn`, `top_pairs` over the
//!   store, reusing the tiled `dp_parallel` kernel with its hoisted
//!   debias constants, plus an **incremental** all-pairs memo: after
//!   new rows arrive, the next query computes only the new pairs. The
//!   cold all-pairs pass runs the plan → execute → gather pipeline
//!   ([`QueryEngine::execute_tiles`] is the worker half a server
//!   streams over protocol v7), and a memo gathered across sockets
//!   can be adopted ([`QueryEngine::adopt_matrix`]).
//! * [`PairwiseMemo`] — the memo's layout: only the upper triangle
//!   (`i < j`), in immutable `Arc`-shared column panels of
//!   [`PAIRWISE_REPLY_TILE`] = 128 columns, each row-major with stride
//!   128. About `n²/2` cells instead of `n²` (17.0 MiB at 2,048 rows
//!   against 32 MiB dense). A complete panel never changes as rows
//!   arrive, so growth shares every complete panel with the previous
//!   memo (and every snapshot holding it), copies at most the last
//!   partial panel, and costs `O(new·n)`. A `Pairwise` reply tile of
//!   `TilePlan(n, 128)` is a run of rows of one panel.
//! * [`Gather`] — assembles out-of-order executed [`dp_core::TileSegment`]s
//!   with typed [`GatherError`]s for missing/duplicate/misshapen tiles,
//!   into either the dense matrix (what a client rebuilds a streamed
//!   `Pairwise` reply with) or a growing memo (what the engine and a
//!   sharding coordinator run over executed tiles, [`Gather::grow`]).
//! * [`SharedEngine`] / [`EngineSnapshot`] — snapshot isolation for
//!   read-heavy serving: mutations serialize through one lock and
//!   publish immutable epoch-stamped snapshots, each a frozen
//!   [`QueryEngine`] carrying the memo when it covers every row;
//!   readers run `pair` / `pairwise` / `knn` / `top_pairs` against a
//!   snapshot with **zero locks** on the hot path (one atomic epoch
//!   load), concurrently with each other and with ingest. A snapshot
//!   derefs to its frozen engine, so its reads are the engine's own
//!   methods: one code path, bit-identical to the locked surface by
//!   construction.
//!
//! One engine backs the library surface, the `dp-server` protocol-v7
//! service, and the bench harness — per the repo's determinism
//! contract, all of them bit-identical to the naive per-pair
//! reference.

pub mod engine;
pub mod error;
pub mod gather;
pub mod memo;
pub mod snapshot;
pub mod store;

pub use engine::{select_smallest, Neighbor, QueryEngine};
pub use error::EngineError;
pub use gather::{Gather, GatherError, GatherSink};
pub use memo::{MemoGrowth, PairwiseMemo, PAIRWISE_REPLY_TILE};
pub use snapshot::{EngineSnapshot, SharedEngine};
pub use store::SketchStore;

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::config::SketchConfig;
    use dp_core::release::Release;
    use dp_core::sketcher::{
        pairwise_sq_distances_reference, Construction, PrivateSketcher, SketcherSpec,
    };
    use dp_core::{KernelId, NoisySketch, Parallelism};
    use dp_hashing::{Prng, Seed};
    use std::sync::Arc;

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

    fn releases(n: usize, d: usize) -> (SketcherSpec, Vec<Release>) {
        let spec = spec(d);
        let sk = spec.build().unwrap();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| ((i * d + j) % 7) as f64 - 3.0).collect())
            .collect();
        let sketches = sk.sketch_batch(&rows, Seed::new(500)).unwrap();
        let releases = sketches
            .into_iter()
            .enumerate()
            .map(|(i, sketch)| Release {
                party_id: 100 + i as u64,
                sketch,
            })
            .collect();
        (spec, releases)
    }

    #[test]
    fn spec_store_pins_identity() {
        let (spec, rs) = releases(3, 48);
        let mut store = SketchStore::with_spec(spec.clone()).unwrap();
        assert_eq!(store.k(), Some(spec.build().unwrap().k()));
        assert!(store.tag().is_some());
        for r in &rs {
            store.ingest(r).unwrap();
        }
        assert_eq!(store.n(), 3);
        assert_eq!(store.spec(), Some(&spec));
        // A sketch under a different tag is refused with a typed error.
        let alien = Release {
            party_id: 999,
            sketch: NoisySketch::new(vec![0.0; rs[0].sketch.k()], "alien-tag", 0.5, 0.75),
        };
        assert!(matches!(
            store.ingest(&alien),
            Err(EngineError::Incompatible { party_id: 999, .. })
        ));
    }

    #[test]
    fn duplicate_party_ids_rejected_strictly_tolerated_positionally() {
        let (_, rs) = releases(2, 48);
        let mut store = SketchStore::adopting();
        store.ingest(&rs[0]).unwrap();
        assert_eq!(
            store.ingest(&rs[0]),
            Err(EngineError::DuplicateParty(rs[0].party_id))
        );
        // The lenient row path accepts it; the id still maps to row 0.
        let row = store.ingest_row(&rs[0]).unwrap();
        assert_eq!(row, 1);
        assert_eq!(store.row_of(rs[0].party_id), Some(0));
    }

    #[test]
    fn ingest_bytes_shares_one_interner() {
        let (spec, rs) = releases(5, 48);
        let mut store = SketchStore::with_spec(spec).unwrap();
        for r in &rs {
            store.ingest_bytes(&r.to_bytes().unwrap()).unwrap();
        }
        assert_eq!(store.n(), 5);
        // Regression: repeated ingest must never grow the interner.
        assert_eq!(store.interner_len(), 1);
        // Rows rebuild as sketches sharing the interned tag.
        let a = store.sketch_at(0);
        let b = store.sketch_at(4);
        assert!(Arc::ptr_eq(&a.shared_tag(), &b.shared_tag()));
    }

    #[test]
    fn rejected_releases_leave_no_trace_in_the_interner() {
        let (spec, rs) = releases(2, 48);
        let mut store = SketchStore::with_spec(spec).unwrap();
        store.ingest_bytes(&rs[0].to_bytes().unwrap()).unwrap();
        assert_eq!(store.interner_len(), 1);
        // A flood of validly framed releases carrying novel tags is
        // rejected — and must not grow the store's interner.
        for i in 0..32u64 {
            let alien = Release {
                party_id: 1000 + i,
                sketch: NoisySketch::new(vec![0.0; 4], format!("alien-{i}"), 0.5, 0.75),
            };
            assert!(store.ingest(&alien).is_err());
            assert!(store.ingest_bytes(&alien.to_bytes().unwrap()).is_err());
            assert_eq!(store.interner_len(), 1, "tag alien-{i} was interned");
        }
        // The store still works after the flood.
        store.ingest(&rs[1]).unwrap();
        assert_eq!(store.n(), 2);
    }

    #[test]
    fn pairwise_all_matches_reference_bit_for_bit() {
        let (_, rs) = releases(9, 48);
        let sketches: Vec<NoisySketch> = rs.iter().map(|r| r.sketch.clone()).collect();
        let reference = pairwise_sq_distances_reference(&sketches).unwrap();
        for threads in [1usize, 3] {
            let mut engine = QueryEngine::new(SketchStore::adopting())
                .with_parallelism(Parallelism::new(threads).with_tile(4));
            for r in &rs {
                engine.ingest(r).unwrap();
            }
            let got = engine.pairwise_all();
            assert_eq!(got.n(), reference.n());
            for (a, b) in reference.as_flat().iter().zip(got.as_flat()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn incremental_growth_is_bit_identical_to_cold_start() {
        let (_, rs) = releases(11, 48);
        // Engine A: ingest everything, one cold all-pairs pass.
        let mut cold = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            cold.ingest(r).unwrap();
        }
        let cold_matrix = cold.pairwise_all();
        // Engine B: interleave ingest and queries (1 row, 4 rows, all).
        // Same kernel as the cold engine (which runs the env default),
        // so the comparison is within one kernel version.
        let mut warm = QueryEngine::new(SketchStore::adopting()).with_parallelism(
            Parallelism::new(2)
                .with_tile(3)
                .with_kernel(cold.parallelism().kernel()),
        );
        for r in &rs[..1] {
            warm.ingest(r).unwrap();
        }
        let _ = warm.pairwise_all();
        for r in &rs[1..4] {
            warm.ingest(r).unwrap();
        }
        let _ = warm.pairwise_all();
        for r in &rs[4..] {
            warm.ingest(r).unwrap();
        }
        let warm_matrix = warm.pairwise_all();
        assert_eq!(cold_matrix.n(), warm_matrix.n());
        for (a, b) in cold_matrix.as_flat().iter().zip(warm_matrix.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn adopted_matrix_is_published_and_grows_like_a_local_one() {
        let (_, rs) = releases(9, 48);
        // The memo a coordinator gathers elsewhere over the first six
        // rows, while its own engine has already ingested a seventh.
        let mut elsewhere = QueryEngine::new(SketchStore::adopting());
        for r in &rs[..6] {
            elsewhere.ingest(r).unwrap();
        }
        let gathered = elsewhere.pairwise_memo();
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &rs[..7] {
            engine.ingest(r).unwrap();
        }
        assert_eq!(engine.memo().n(), 0);
        let generation = engine.generation();
        assert!(engine.adopt_matrix(Arc::clone(&gathered)));
        assert_eq!(engine.generation(), generation + 1);
        assert!(Arc::ptr_eq(&engine.memo(), &gathered));
        // Stale against the seventh row, so not a full-matrix memo; and
        // never replaced by a matrix covering no more rows, nor by one
        // covering rows the store does not hold.
        assert!(engine.full_matrix().is_none());
        assert!(!engine.adopt_matrix(Arc::clone(&gathered)));
        for r in &rs[6..] {
            elsewhere.ingest(r).unwrap();
        }
        assert!(!engine.adopt_matrix(elsewhere.pairwise_memo()));
        assert_eq!(engine.generation(), generation + 1);

        // A full-coverage adoption is what the next publish carries.
        let shared = SharedEngine::new(engine);
        let mut seven = QueryEngine::new(SketchStore::adopting());
        for r in &rs[..7] {
            seven.ingest(r).unwrap();
        }
        let full = seven.pairwise_memo();
        let epoch = shared.epoch();
        assert!(shared.mutate(|e| e.adopt_matrix(Arc::clone(&full))));
        assert_eq!(shared.epoch(), epoch + 1);
        let published = shared
            .snapshot()
            .full_matrix()
            .expect("adopted memo published");
        assert!(Arc::ptr_eq(&published, &full));

        // Growth extends the adopted memo bit-identically to a cold pass.
        let grown = shared.mutate(|e| {
            for r in &rs[7..] {
                e.ingest(r).unwrap();
            }
            e.pairwise_all()
        });
        let cold = elsewhere.pairwise_all();
        assert_eq!(grown.n(), 9);
        for (a, b) in cold.as_flat().iter().zip(grown.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn replacing_the_store_keeps_the_knob_and_moves_the_generation_past_both() {
        let (spec, rs) = releases(4, 48);
        let spec = spec.with_kernel(KernelId::V1Scalar);
        let par = Parallelism::new(3)
            .with_tile(5)
            .with_kernel(KernelId::V2Simd);
        let warm = || {
            let mut engine = QueryEngine::new(SketchStore::adopting()).with_parallelism(par);
            for r in &rs {
                engine.ingest(r).unwrap();
            }
            let _ = engine.pairwise_memo();
            engine
        };

        // A spec-carrying store stamped behind the engine: threads and
        // tile stay, the spec pins the kernel, the memo empties, and the
        // generation moves one past the engine's own.
        let mut engine = warm();
        let generation = engine.generation();
        let mut store = SketchStore::with_spec(spec.clone()).unwrap();
        store.ingest(&rs[0]).unwrap();
        engine.replace_store(store, generation - 1);
        assert_eq!(engine.parallelism(), par.with_kernel(KernelId::V1Scalar));
        assert_eq!(engine.generation(), generation + 1);
        assert_eq!(engine.store().spec(), Some(&spec));
        assert_eq!(engine.store().n(), 1);
        assert_eq!(engine.memo().n(), 0);
        assert!(engine.full_matrix().is_none());

        // A spec-less store stamped ahead of the engine: the whole knob
        // stays, and the generation moves one past the stamp.
        let mut engine = warm();
        let stamped = engine.generation() + 10;
        let mut store = SketchStore::adopting();
        store.ingest(&rs[1]).unwrap();
        engine.replace_store(store, stamped);
        assert_eq!(engine.parallelism(), par);
        assert_eq!(engine.generation(), stamped + 1);
        assert_eq!(engine.store().party_ids(), [rs[1].party_id]);
        assert_eq!(engine.memo().n(), 0);
        // The replaced store answers from scratch.
        assert_eq!(engine.pairwise_all().n(), 1);
    }

    #[test]
    fn pair_matches_matrix_and_estimator() {
        let (_, rs) = releases(6, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        let matrix = engine.pairwise_all();
        for i in 0..rs.len() {
            for j in 0..rs.len() {
                let via_pair = engine.pair(rs[i].party_id, rs[j].party_id).unwrap();
                assert_eq!(via_pair.to_bits(), matrix.at(i, j).to_bits(), "({i},{j})");
            }
        }
        // Single-sketcher batches: pair() equals the per-pair estimator
        // run under the engine's kernel.
        let direct = rs[0]
            .sketch
            .estimate_sq_distance_with(&rs[3].sketch, engine.parallelism().kernel())
            .unwrap();
        assert_eq!(
            engine
                .pair(rs[0].party_id, rs[3].party_id)
                .unwrap()
                .to_bits(),
            direct.to_bits()
        );
        assert!(matches!(
            engine.pair(rs[0].party_id, 424_242),
            Err(EngineError::UnknownParty(424_242))
        ));
    }

    #[test]
    fn subset_pairwise_matches_slicing() {
        let (_, rs) = releases(7, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        let ids: Vec<u64> = [6usize, 2, 4].iter().map(|&i| rs[i].party_id).collect();
        let sub = engine.pairwise(&ids).unwrap();
        assert_eq!(sub.n(), 3);
        let picked: Vec<NoisySketch> = [6usize, 2, 4]
            .iter()
            .map(|&i| rs[i].sketch.clone())
            .collect();
        // Per-pair reference under the engine's kernel: symmetric,
        // zero diagonal — exactly what the subset recompute produces.
        let kernel = engine.parallelism().kernel();
        for i in 0..picked.len() {
            for j in 0..picked.len() {
                let expected = if i == j {
                    0.0
                } else {
                    picked[i.min(j)]
                        .estimate_sq_distance_with(&picked[i.max(j)], kernel)
                        .unwrap()
                };
                assert_eq!(expected.to_bits(), sub.at(i, j).to_bits(), "({i},{j})");
            }
        }
        assert!(engine.pairwise(&[rs[0].party_id, 777]).is_err());
        assert_eq!(engine.pairwise(&[]).unwrap().n(), 0);
    }

    #[test]
    fn warm_subset_slices_the_memo_bit_identically() {
        let (_, rs) = releases(9, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting())
            .with_parallelism(Parallelism::new(2).with_tile(3));
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        assert!(engine.store().debias_uniform());
        let picks = [8usize, 0, 5, 3];
        let ids: Vec<u64> = picks.iter().map(|&i| rs[i].party_id).collect();
        // Cold: no memo yet, so this runs the tiled kernel.
        assert!(engine.full_matrix().is_none());
        let cold = engine.pairwise(&ids).unwrap();
        // Warm the memo; the same subset must now slice it — and the
        // slice must be bitwise the cold answer, in the same order.
        let _ = engine.pairwise_all();
        assert!(engine.full_matrix().is_some());
        let warm = engine.pairwise(&ids).unwrap();
        assert_eq!(cold.as_flat(), warm.as_flat());
        for (a, b) in cold.as_flat().iter().zip(warm.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Orientation: a reversed subset is the transpose, also bitwise.
        let rev: Vec<u64> = ids.iter().rev().copied().collect();
        let warm_rev = engine.pairwise(&rev).unwrap();
        for i in 0..ids.len() {
            for j in 0..ids.len() {
                let m = ids.len() - 1;
                assert_eq!(warm.at(i, j).to_bits(), warm_rev.at(m - i, m - j).to_bits());
            }
        }
    }

    #[test]
    fn duplicate_subset_rows_bypass_the_memo() {
        let (_, rs) = releases(4, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        let _ = engine.pairwise_all();
        // A subset naming the same party twice: the cold kernel scores
        // the duplicated pair as raw 0.0 minus the debias constant —
        // NOT the matrix diagonal's exact 0.0 — so slicing the memo
        // here would be wrong. The gate must fall back to recompute.
        let a = rs[1].party_id;
        let dup = engine.pairwise(&[a, a]).unwrap();
        let expected = 0.0 - engine.store().debias_at(1);
        assert_eq!(dup.at(0, 1).to_bits(), expected.to_bits());
        assert_eq!(dup.at(1, 0).to_bits(), expected.to_bits());
        assert_eq!(dup.at(0, 0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn nonuniform_debias_bypasses_the_memo() {
        // Two moments inside the kernel's 1e-12 tolerance but with
        // different bit patterns: the matrix debiases pair (0, 1) with
        // row 0's constant, while the reversed subset's recompute uses
        // row 1's — so the memo may only be sliced under a bitwise
        // uniform constant, which this store does not have.
        let m2 = 0.5;
        let mk = |id: u64, m2: f64| Release {
            party_id: id,
            sketch: NoisySketch::new(vec![1.0 + id as f64, 2.0], "t", m2, 0.75),
        };
        let mut engine = QueryEngine::new(SketchStore::adopting());
        engine.ingest(&mk(0, m2)).unwrap();
        engine.ingest(&mk(1, m2 + 1e-13)).unwrap();
        assert!(!engine.store().debias_uniform());
        let _ = engine.pairwise_all();
        let sub = engine.pairwise(&[1, 0]).unwrap();
        let picked = vec![mk(1, m2 + 1e-13).sketch, mk(0, m2).sketch];
        let reference = pairwise_sq_distances_reference(&picked).unwrap();
        for (a, b) in reference.as_flat().iter().zip(sub.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And the reversed-order answer really does differ from the
        // matrix slice here, proving the gate is load-bearing.
        let matrix = engine.pairwise_all();
        assert_ne!(sub.at(0, 1).to_bits(), matrix.at(1, 0).to_bits());
    }

    /// `knn` against an independent reference: every candidate release
    /// not sharing the query's party id, scored by
    /// `NoisySketch::estimate_sq_distance_with`, stable-sorted and
    /// truncated. The stores cover whole and ragged blocks, sealed
    /// chunks and the tail. Lenient duplicates of row 0's party id sit
    /// inside the first block, on both sides of the first chunk
    /// boundary and in the ragged tail, and every third row repeats an
    /// earlier row's sketch, so estimates tie.
    #[test]
    fn knn_matches_the_independent_reference() {
        let (_, base) = releases(130, 48);
        let dup_id = base[0].party_id;
        for n in [1usize, 7, 8, 9, 63, 64, 65, 130] {
            let rows: Vec<Release> = (0..n)
                .map(|i| {
                    let duplicate = matches!(i, 3 | 63 | 64) || (i == n - 1 && n % 8 != 0);
                    Release {
                        party_id: if i > 0 && duplicate {
                            dup_id
                        } else {
                            base[i].party_id
                        },
                        sketch: base[if i % 3 == 2 { i % 5 } else { i }].sketch.clone(),
                    }
                })
                .collect();
            for kernel in [KernelId::V1Scalar, KernelId::V2Simd] {
                let mut store = SketchStore::adopting();
                for r in &rows {
                    store.ingest_row(r).unwrap();
                }
                let engine = QueryEngine::new(store)
                    .with_parallelism(Parallelism::sequential().with_kernel(kernel));
                for q in [0, 1.min(n - 1), n / 2, n - 1] {
                    let query_id = rows[q].party_id;
                    let query = rows.iter().find(|r| r.party_id == query_id).unwrap();
                    let mut scored: Vec<(u64, f64)> = rows
                        .iter()
                        .filter(|c| c.party_id != query_id)
                        .map(|c| {
                            let d = query
                                .sketch
                                .estimate_sq_distance_with(&c.sketch, kernel)
                                .unwrap();
                            (c.party_id, d)
                        })
                        .collect();
                    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite estimates"));
                    for t in [1, 3, 10, n + 1] {
                        let want: Vec<(u64, u64)> = scored
                            .iter()
                            .take(t)
                            .map(|&(id, d)| (id, d.to_bits()))
                            .collect();
                        let got: Vec<(u64, u64)> = engine
                            .knn(query_id, t)
                            .unwrap()
                            .iter()
                            .map(|nb| (nb.party_id, nb.estimated_sq_distance.to_bits()))
                            .collect();
                        assert_eq!(got, want, "{kernel:?} n = {n}, query row {q}, t = {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn top_pairs_are_ascending_and_consistent() {
        let (_, rs) = releases(6, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        let top = engine.top_pairs(4);
        assert_eq!(top.len(), 4);
        for w in top.windows(2) {
            assert!(w[0].2 <= w[1].2);
        }
        // Every reported estimate equals the matrix entry.
        let matrix = engine.pairwise_all();
        for &(a, b, d) in &top {
            let i = rs.iter().position(|r| r.party_id == a).unwrap();
            let j = rs.iter().position(|r| r.party_id == b).unwrap();
            assert_eq!(d.to_bits(), matrix.at(i, j).to_bits());
        }
        // Asking for more pairs than exist returns them all.
        assert_eq!(engine.top_pairs(1000).len(), 15);
    }

    /// The ranking contract: `select_smallest` returns exactly what a
    /// stable `sort_by(partial_cmp)` + `truncate(t)` returns, kept here
    /// as the reference.
    #[test]
    fn selection_matches_the_stable_sort_reference() {
        // Few distinct values, so most estimates tie, with -0.0 and
        // +0.0 mixed (they tie under partial_cmp but differ in bits).
        const VALUES: [f64; 6] = [-1.5, -0.0, 0.0, 0.25, 0.25, 3.0];
        let mut rng = Seed::new(0x5eed).rng();
        for case in 0..400 {
            let n = case % 37;
            let input: Vec<(f64, usize)> = (0..n)
                .map(|i| (VALUES[rng.next_range(VALUES.len() as u64) as usize], i))
                .collect();
            for t in [0, 1, n.saturating_sub(1), n, n + 1, u32::MAX as usize] {
                let mut reference = input.clone();
                reference.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite estimates"));
                reference.truncate(t);
                let got = select_smallest(t, input.iter().copied());
                let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
                    v.iter().map(|&(d, i)| (d.to_bits(), i)).collect()
                };
                assert_eq!(bits(&got), bits(&reference), "case {case}, n {n}, t {t}");
            }
        }
    }

    #[test]
    fn ranked_reads_list_ties_in_ingest_order() {
        // Rows 0, 2, 4 share one sketch and rows 1, 3 another, so
        // every pair within a group ties at the smallest estimate.
        // Party ids fall with ingest order, so id order would differ.
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, -1.0, 0.5];
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for (id, values) in [(50, a), (40, b), (30, a), (20, b), (10, a)] {
            let sketch = NoisySketch::new(values.to_vec(), "t", 0.5, 0.75);
            engine
                .ingest(&Release {
                    party_id: id,
                    sketch,
                })
                .unwrap();
        }
        let tied = -engine.store().debias_at(0);
        let top = engine.top_pairs(5);
        let ids: Vec<(u64, u64)> = top.iter().map(|&(p, q, _)| (p, q)).collect();
        // Rows (0, 2), (0, 4), (1, 3), (2, 4): row-major order.
        assert_eq!(ids[..4], [(50, 30), (50, 10), (40, 20), (30, 10)]);
        assert!(top[..4].iter().all(|p| p.2.to_bits() == tied.to_bits()));
        assert!(top[4].2 > tied);
        // A cut through the tie keeps the earliest pairs.
        let cut: Vec<(u64, u64)> = engine
            .top_pairs(2)
            .iter()
            .map(|&(p, q, _)| (p, q))
            .collect();
        assert_eq!(cut, [(50, 30), (50, 10)]);
        // knn: the two identical-sketch neighbours in ingest order.
        let nn = engine.knn(50, 3).unwrap();
        assert_eq!(nn[0].party_id, 30);
        assert_eq!(nn[1].party_id, 10);
        assert_eq!(nn[0].estimated_sq_distance.to_bits(), tied.to_bits());
        assert_eq!(nn[1].estimated_sq_distance.to_bits(), tied.to_bits());
        assert_eq!(engine.knn(20, 1).unwrap()[0].party_id, 40);
    }

    #[test]
    fn executed_tiles_match_the_all_pairs_matrix() {
        let (_, rs) = releases(10, 48);
        let mut engine = QueryEngine::new(SketchStore::adopting())
            .with_parallelism(Parallelism::new(2).with_tile(3));
        for r in &rs {
            engine.ingest(r).unwrap();
        }
        let matrix = engine.pairwise_all();
        let plan = engine.pairwise_plan();
        assert_eq!(plan.n(), 10);
        // Execute every tile explicitly (shuffled order) and gather.
        let mut ids: Vec<u64> = (0..plan.tile_count() as u64).collect();
        ids.reverse();
        let segments = engine
            .execute_tiles(plan.n(), plan.tile(), &ids)
            .expect("valid plan");
        let mut gather = Gather::new(plan);
        for s in &segments {
            gather.accept(s).unwrap();
        }
        let gathered = gather.finish().unwrap();
        for (a, b) in matrix.as_flat().iter().zip(gathered.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Typed plan errors.
        assert!(matches!(
            engine.execute_tiles(9, plan.tile(), &[0]),
            Err(EngineError::PlanMismatch {
                store_rows: 10,
                plan_rows: 9,
            })
        ));
        assert!(matches!(
            engine.execute_tiles(10, plan.tile(), &[u64::MAX]),
            Err(EngineError::UnknownTile { .. })
        ));
    }

    #[test]
    fn batch_ingest_matches_per_row_with_one_generation_bump() {
        let (spec, rs) = releases(9, 48);
        let mut per_row = QueryEngine::new(SketchStore::with_spec(spec.clone()).unwrap());
        for r in &rs {
            per_row.ingest(r).unwrap();
        }
        let mut batched = QueryEngine::new(SketchStore::with_spec(spec).unwrap());
        let gen0 = batched.generation();
        let rows = batched.ingest_batch(&rs).unwrap();
        assert_eq!(rows, (0..9usize).collect::<Vec<_>>());
        assert_eq!(batched.generation(), gen0 + 1);
        let a = per_row.pairwise_all();
        let b = batched.pairwise_all();
        for (x, y) in a.as_flat().iter().zip(b.as_flat()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Fail-fast on a duplicate mid-batch: prefix stays, typed error.
        let mut extra = releases(2, 48).1;
        extra[0].party_id = 700;
        extra[1].party_id = 701;
        let mixed = vec![extra[0].clone(), rs[0].clone(), extra[1].clone()];
        let n_before = batched.store().n();
        assert!(matches!(
            batched.ingest_batch(&mixed),
            Err(EngineError::DuplicateParty(_))
        ));
        assert_eq!(batched.store().n(), n_before + 1);
    }

    #[test]
    fn bulk_sketch_and_ingest_rides_the_spec_kernel() {
        let (spec, _) = releases(0, 48);
        let raw: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..48).map(|j| ((i * 48 + j) % 5) as f64 - 2.0).collect())
            .collect();
        let ids: Vec<u64> = (900..905).collect();
        let mut bulk = QueryEngine::new(SketchStore::with_spec(spec.clone()).unwrap());
        bulk.sketch_and_ingest_batch(&ids, &raw, Seed::new(77))
            .unwrap();
        // Bit-identical to the client-side sketch_batch + ingest path
        // under the same spec (kernel id included).
        let sk = spec.build().unwrap();
        let expect = sk.sketch_batch(&raw, Seed::new(77)).unwrap();
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(&bulk.store().sketch_at(i), want);
            assert_eq!(bulk.store().row_of(900 + i as u64), Some(i));
        }
        // Mismatched id/row counts and spec-less stores are typed errors.
        assert!(bulk
            .sketch_and_ingest_batch(&[1], &raw, Seed::new(1))
            .is_err());
        let mut specless = QueryEngine::new(SketchStore::adopting());
        assert!(specless
            .sketch_and_ingest_batch(&[1], &raw[..1], Seed::new(1))
            .is_err());
    }

    #[test]
    fn empty_store_answers_empty() {
        let mut engine = QueryEngine::new(SketchStore::adopting());
        assert_eq!(engine.pairwise_all().n(), 0);
        assert!(engine.top_pairs(3).is_empty());
        assert!(matches!(
            engine.knn(1, 3),
            Err(EngineError::UnknownParty(1))
        ));
    }

    #[test]
    fn moment_span_rejected_like_the_kernel() {
        let m2 = 0.5;
        let mk = |id: u64, m2: f64| Release {
            party_id: id,
            sketch: NoisySketch::new(vec![1.0, 2.0], "t", m2, 0.75),
        };
        let mut store = SketchStore::adopting();
        store.ingest(&mk(0, m2)).unwrap();
        store.ingest(&mk(1, m2 + 1.2e-12)).unwrap();
        // Passes the vs-anchor check but blows the batch span, exactly
        // like the tiled kernel's rejection.
        assert!(matches!(
            store.ingest(&mk(2, m2 - 1.2e-12)),
            Err(EngineError::Incompatible { party_id: 2, .. })
        ));
    }
}
