//! Property tests of the plan → execute → gather pipeline.
//!
//! Two laws carry the whole sharded-pairwise design, and both are
//! checked here across arbitrary shapes:
//!
//! 1. **Exact partition** — a [`TilePlan`]'s tiles cover every `(i, j)`,
//!    `i < j` pair of the upper triangle exactly once, and
//!    [`TilePlan::split`] puts every tile in exactly one shard, for any
//!    `n`, tile side, and shard count (so sharded execution never needs
//!    reconciliation).
//! 2. **Order-free gather** — gathering a plan's executed
//!    [`dp_euclid::core::TileSegment`]s in *any* order (any shard
//!    count, shuffled arrival) reassembles a matrix **bit-identical**
//!    to `pairwise_sq_distances_reference` over real releases.
//! 3. **Incremental growth** — seeding a gather from a previous matrix
//!    and executing only the frontier tiles
//!    ([`TilePlan::tiles_touching_rows`]), through any sequence of
//!    growth steps, is bit-identical to a cold full recompute — the law
//!    the coordinator's ingest-then-requery path rests on.

use dp_euclid::core::release::Release;
use dp_euclid::core::TilePlan;
use dp_euclid::engine::Gather;
use dp_euclid::hashing::{Prng, Seed};
use dp_euclid::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

/// The bit-identity anchor: the ambient kernel (what an adopting
/// [`QueryEngine`] executes, V2 in the `DP_KERNEL=simd` CI lane), run
/// sequentially. In the scalar lane this is bit-identical to
/// `pairwise_sq_distances_reference`.
fn reference_matrix(sketches: &[NoisySketch]) -> PairwiseDistances {
    pairwise_sq_distances_with_par(
        sketches,
        |s| s,
        &Parallelism::sequential().with_kernel(Parallelism::from_env().kernel()),
    )
    .expect("reference")
}

/// A pool of real releases the gather cases slice from (built once:
/// sketching under proptest's case count would dominate the run).
fn release_pool() -> &'static Vec<Release> {
    use std::sync::OnceLock;
    static POOL: OnceLock<Vec<Release>> = OnceLock::new();
    POOL.get_or_init(|| {
        let d = 96;
        let config = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.5)
            .build()
            .expect("config");
        let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(99));
        let sketcher = spec.build().expect("sketcher");
        let rows: Vec<Vec<f64>> = (0..24)
            .map(|i| (0..d).map(|j| ((i * 13 + j) % 8) as f64 - 3.5).collect())
            .collect();
        sketcher
            .sketch_batch(&rows, Seed::new(2024))
            .expect("batch")
            .into_iter()
            .enumerate()
            .map(|(i, sketch)| Release {
                party_id: i as u64,
                sketch,
            })
            .collect()
    })
}

/// Deterministic Fisher–Yates shuffle from a seed (no global RNG in
/// tests: every failing case must replay exactly).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Seed::new(seed).child("shuffle").rng();
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Law 1: every pair in exactly one tile, every tile in exactly one
    // shard, for arbitrary (n, tile, shards).
    #[test]
    fn tile_plan_partitions_the_upper_triangle_exactly_once(
        n in 0usize..64,
        tile in 1usize..17,
        shards in 1usize..9,
    ) {
        let plan = TilePlan::new(n, tile);
        let all: Vec<u64> = (0..plan.tile_count() as u64).collect();
        let chunks = plan.split(&all, shards);
        prop_assert_eq!(chunks.len(), shards);
        let mut covered_ids = 0usize;
        let mut pairs = HashSet::new();
        for chunk in &chunks {
            for &id in chunk {
                covered_ids += 1;
                let t = plan.tile_at(id as usize).expect("shard ids lie in the plan");
                let mut in_tile = 0usize;
                for i in t.rows() {
                    for j in t.cols() {
                        if j > i {
                            in_tile += 1;
                            prop_assert!(
                                pairs.insert((i, j)),
                                "pair ({}, {}) covered twice", i, j
                            );
                        }
                    }
                }
                prop_assert_eq!(in_tile, t.pair_count());
            }
        }
        prop_assert_eq!(covered_ids, plan.tile_count(), "tile ids not covered exactly");
        prop_assert_eq!(pairs.len(), n * n.saturating_sub(1) / 2, "pairs missing");
    }

    // Law 2: split + execute + shuffled gather is bit-identical to the
    // naive per-pair reference, for arbitrary store sizes, tile sides,
    // shard counts, and arrival orders.
    #[test]
    fn shuffled_gather_is_bit_identical_to_the_reference(
        n in 2usize..24,
        tile in 1usize..9,
        shards in 1usize..6,
        order_seed in 0u64..1_000_000,
    ) {
        let releases = &release_pool()[..n];
        let sketches: Vec<NoisySketch> =
            releases.iter().map(|r| r.sketch.clone()).collect();
        let reference = reference_matrix(&sketches);

        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in releases {
            engine.ingest(r).expect("ingest");
        }
        let plan = TilePlan::new(n, tile);

        // Execute shard by shard (as N workers would), pool the
        // segments, then deliver them in a shuffled order.
        let all: Vec<u64> = (0..plan.tile_count() as u64).collect();
        let mut segments = Vec::new();
        for ids in plan.split(&all, shards) {
            segments.extend(
                engine.execute_tiles(n, tile, &ids).expect("valid plan"),
            );
        }
        shuffle(&mut segments, order_seed);

        let mut gather = Gather::new(plan);
        for segment in &segments {
            gather.accept(segment).expect("plan segments fit");
        }
        let gathered = gather.finish().expect("complete");
        prop_assert_eq!(gathered.n(), reference.n());
        for (idx, (a, b)) in reference
            .as_flat()
            .iter()
            .zip(gathered.as_flat())
            .enumerate()
        {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "cell {} differs (n = {}, tile = {}, shards = {})",
                idx, n, tile, shards
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Law 3, gather side: a seeded gather demands exactly the frontier,
    // and completing it over real releases is bit-identical to a cold
    // full recompute — for arbitrary growth splits, tile sides, shard
    // counts, and arrival orders of the frontier segments.
    #[test]
    fn seeded_gather_growth_is_bit_identical_to_cold(
        n in 3usize..24,
        old_frac in 0usize..100,
        tile in 1usize..9,
        shards in 1usize..6,
        order_seed in 0u64..1_000_000,
    ) {
        let old = 2 + old_frac * (n - 2) / 100; // 2..=n
        let releases = &release_pool()[..n];
        let sketches: Vec<NoisySketch> =
            releases.iter().map(|r| r.sketch.clone()).collect();
        let reference = reference_matrix(&sketches);

        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in &releases[..old] {
            engine.ingest(r).expect("ingest");
        }
        // The "previous" matrix, exactly as a coordinator would have
        // cached it.
        let previous = engine.pairwise_all().as_flat().to_vec();
        for r in &releases[old..] {
            engine.ingest(r).expect("ingest");
        }

        let plan = TilePlan::new(n, tile);
        let mut gather = Gather::seeded(plan, old, &previous);
        let frontier: Vec<u64> = plan
            .tiles_touching_rows(old..n)
            .into_iter()
            .map(|id| id as u64)
            .collect();
        prop_assert_eq!(&gather.missing_ids(), &frontier);

        // Execute only the frontier, sharded and shuffled.
        let mut segments = Vec::new();
        for chunk_ids in frontier.chunks(frontier.len().div_ceil(shards).max(1)) {
            segments.extend(engine.execute_tiles(n, tile, chunk_ids).expect("valid"));
        }
        shuffle(&mut segments, order_seed);
        for segment in &segments {
            gather.accept(segment).expect("frontier segments fit");
        }
        let grown = gather.finish().expect("frontier completes the gather");
        for (idx, (a, b)) in reference.as_flat().iter().zip(grown.as_flat()).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "cell {} differs (n = {}, old = {}, tile = {})",
                idx, n, old, tile
            );
        }
    }

    // Law 3, engine side: ingest-query interleavings never change a
    // bit. Grow the store through an arbitrary sequence of steps,
    // querying between each, and compare against one cold engine that
    // ingested everything first.
    #[test]
    fn stepwise_engine_growth_is_bit_identical_to_cold(
        steps in proptest::collection::vec(1usize..7, 1..5),
        tile in 1usize..9,
    ) {
        let pool = release_pool();
        let total: usize = steps.iter().sum::<usize>().min(pool.len());
        let releases = &pool[..total];

        let par = dp_euclid::core::Parallelism::sequential().with_tile(tile);
        let mut warm = QueryEngine::new(SketchStore::adopting()).with_parallelism(par);
        let mut taken = 0usize;
        for &step in &steps {
            let end = (taken + step).min(total);
            for r in &releases[taken..end] {
                warm.ingest(r).expect("ingest");
            }
            taken = end;
            let _ = warm.pairwise_all(); // grow the cache incrementally
        }
        let warm_matrix = warm.pairwise_all();

        let mut cold = QueryEngine::new(SketchStore::adopting()).with_parallelism(par);
        for r in releases {
            cold.ingest(r).expect("ingest");
        }
        let cold_matrix = cold.pairwise_all();

        prop_assert_eq!(warm_matrix.n(), cold_matrix.n());
        for (idx, (a, b)) in cold_matrix
            .as_flat()
            .iter()
            .zip(warm_matrix.as_flat())
            .enumerate()
        {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "cell {} differs (steps {:?}, tile {})",
                idx, &steps, tile
            );
        }
    }
}

#[test]
fn gather_reports_missing_tiles_per_shard() {
    // Drop one whole shard's segments: finish() must name the loss.
    let n = 12;
    let releases = &release_pool()[..n];
    let mut engine = QueryEngine::new(SketchStore::adopting());
    for r in releases {
        engine.ingest(r).expect("ingest");
    }
    let plan = TilePlan::new(n, 4);
    let all: Vec<u64> = (0..plan.tile_count() as u64).collect();
    let chunks = plan.split(&all, 3);
    let mut gather = Gather::new(plan);
    for ids in &chunks[..2] {
        for segment in engine.execute_tiles(n, 4, ids).expect("valid plan") {
            gather.accept(&segment).expect("fits");
        }
    }
    assert!(!chunks[2].is_empty(), "third shard must own tiles");
    assert_eq!(gather.missing_ids(), chunks[2]);
    assert!(matches!(
        gather.finish(),
        Err(dp_euclid::engine::GatherError::Incomplete { .. })
    ));
}
