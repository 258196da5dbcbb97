//! Property tests for the parallel execution layer's determinism
//! contract: data-parallel `sketch_batch` and the engine's tiled
//! all-pairs matrix (`QueryEngine::pairwise_all`) must be
//! **bit-identical** to their sequential references for every thread
//! count and tile size — including empty and single-row batches and
//! tile/row sizes that do not divide evenly.

use dp_euclid::core::sketcher::{
    pairwise_sq_distances_reference, sketch_batch_par, sketch_batch_sequential,
};
use dp_euclid::hashing::Prng;
use dp_euclid::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn sketcher(transform_seed: u64) -> AnySketcher {
    let config = SketchConfig::builder()
        .input_dim(32)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(2.0)
        .build()
        .expect("config");
    AnySketcher::new(Construction::SjltAuto, &config, Seed::new(transform_seed)).expect("sketcher")
}

fn rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Seed::new(seed).rng();
    (0..n)
        .map(|_| (0..d).map(|_| rng.next_f64() * 6.0 - 3.0).collect())
        .collect()
}

/// The all-pairs matrix of a batch, ingested in order into an engine
/// running on `par`.
fn engine_matrix(sketches: &[NoisySketch], par: Parallelism) -> Arc<PairwiseDistances> {
    let mut engine = QueryEngine::new(SketchStore::adopting()).with_parallelism(par);
    for (party_id, sketch) in (0u64..).zip(sketches) {
        let release = Release {
            party_id,
            sketch: sketch.clone(),
        };
        engine.ingest(&release).unwrap();
    }
    engine.pairwise_all()
}

fn assert_sketches_bit_identical(a: &[NoisySketch], b: &[NoisySketch]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.transform_tag(), y.transform_tag());
        for (u, v) in x.values().iter().zip(y.values()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn sketch_batch_is_bit_identical_across_thread_counts(
        // Up to five workers' minimum of rows, so batches both stay on
        // the calling thread and split.
        n in 0usize..40,
        threads in 1usize..9,
        noise_seed in any::<u64>(),
    ) {
        let sk = sketcher(3);
        let xs = rows(n, 32, noise_seed ^ 0x5eed);
        let seq = sketch_batch_sequential(&sk, &xs, Seed::new(noise_seed)).unwrap();
        let par = sketch_batch_par(
            &sk,
            &xs,
            Seed::new(noise_seed),
            &Parallelism::new(threads),
        )
        .unwrap();
        assert_sketches_bit_identical(&seq, &par);
        // The trait path (AnySketcher's override) agrees too.
        let via_trait = sk
            .clone()
            .with_parallelism(Parallelism::new(threads))
            .sketch_batch(&xs, Seed::new(noise_seed))
            .unwrap();
        assert_sketches_bit_identical(&seq, &via_trait);
    }

    #[test]
    fn tiled_pairwise_is_bit_identical_for_any_tile_and_thread_count(
        n in 0usize..41,
        threads in 1usize..9,
        tile in 1usize..21,
        seed in any::<u64>(),
    ) {
        let sk = sketcher(9);
        let sketches = sk
            .sketch_batch(&rows(n, 32, seed), Seed::new(seed.wrapping_add(1)))
            .unwrap();
        // The gather/scatter layout (threads × tile) must never move a
        // bit relative to the historic naive estimator, which runs none
        // of the tiled code. Tiles of up to 20 columns cover diagonal
        // tiles, zero-padded ragged groups and rows that span several
        // groups of the blocked kernel.
        let reference = pairwise_sq_distances_reference(&sketches).unwrap();
        let tiled = engine_matrix(&sketches, Parallelism::new(threads).with_tile(tile));
        prop_assert_eq!(tiled.n(), n);
        for (a, b) in reference.as_flat().iter().zip(tiled.as_flat()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn empty_and_singleton_batches() {
    let sk = sketcher(1);
    for n in [0usize, 1] {
        let xs = rows(n, 32, 5);
        for threads in [1usize, 4] {
            let par = Parallelism::new(threads).with_tile(3);
            let batch = sketch_batch_par(&sk, &xs, Seed::new(2), &par).unwrap();
            assert_eq!(batch.len(), n);
            let m = engine_matrix(&batch, par);
            assert_eq!(m.n(), n);
            assert_eq!(m.as_flat().len(), n * n);
            if n == 1 {
                assert_eq!(m.at(0, 0), 0.0);
            }
        }
    }
}

/// `DP_KERNEL` selected the retired V2 kernel. A value left in an
/// operator's environment must change nothing: the environment knob is
/// the thread count alone, and a spec built without naming a kernel
/// names `v1-scalar`.
#[test]
fn dp_kernel_env_contract_is_exercised() {
    let par = Parallelism::from_env();
    assert_eq!(par, Parallelism::new(par.threads()));
    let spec = sketcher(5).spec();
    assert_eq!(spec.kernel(), KernelId::V1Scalar);
    assert!(
        spec.to_json().ends_with(r#","kernel":"v1-scalar"}"#),
        "{}",
        spec.to_json()
    );
}

#[test]
fn dp_threads_env_contract_is_exercised() {
    // CI runs the whole suite under DP_THREADS=1 and under the default;
    // this test pins what the variable means so both lanes check it.
    let par = Parallelism::from_env();
    match std::env::var("DP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        // Literal counts are honored up to the MAX_THREADS safety clamp.
        Some(n) if n >= 1 => assert_eq!(par.threads(), n.min(dp_euclid::parallel::MAX_THREADS)),
        _ => assert!(par.threads() >= 1),
    }
    let sk = sketcher(4);
    let xs = rows(6, 32, 8);
    // Whatever the environment says, results match the sequential path.
    let seq = sketch_batch_sequential(&sk, &xs, Seed::new(3)).unwrap();
    let env_batch = sketch_batch_par(&sk, &xs, Seed::new(3), &par).unwrap();
    assert_sketches_bit_identical(&seq, &env_batch);
}
