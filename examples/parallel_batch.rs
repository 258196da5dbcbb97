//! The parallel execution layer, end to end: data-parallel batch
//! sketching and the tiled all-pairs kernel on the `Parallelism` knob.
//!
//! One sketcher releases a batch of rows, first on the sequential
//! fallback and then on every hardware thread, and the example verifies
//! the determinism contract: released sketches and the all-pairs
//! distance matrix are *bit-identical* for every thread count and tile
//! size, because per-row noise seeds derive from the row index and each
//! pair is computed exactly once with the same floating-point
//! expression. The worker count is also readable from the environment:
//! `DP_THREADS=8 cargo run --release --example parallel_batch`
//!
//! Run with: `cargo run --release --example parallel_batch`

use dp_euclid::prelude::*;
use std::time::Instant;

fn main() -> Result<(), dp_euclid::core::CoreError> {
    let d = 1 << 10;
    let n = 256;
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()?;
    let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(7));

    // Deterministic pseudo-random rows.
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|r| {
            use dp_euclid::hashing::Prng;
            let mut rng = Seed::new(1000 + r).rng();
            (0..d).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
        })
        .collect();

    // The knob is an execution-side concern: same spec, same releases,
    // different scheduling. `build_with` attaches it at build time.
    let sequential = spec.build_with(Parallelism::sequential())?;
    let parallel = spec.build_with(Parallelism::from_env())?;
    println!(
        "sketcher: k = {}, sequential vs {} worker(s), tile = {}",
        sequential.k(),
        parallel.parallelism().threads(),
        parallel.parallelism().tile()
    );

    let t0 = Instant::now();
    let batch_seq = sequential.sketch_batch(&rows, Seed::new(42))?;
    let t_seq = t0.elapsed();
    let t0 = Instant::now();
    let batch_par = parallel.sketch_batch(&rows, Seed::new(42))?;
    let t_par = t0.elapsed();
    assert_eq!(batch_seq, batch_par, "determinism contract violated");
    println!(
        "sketch_batch({n} rows): sequential {:.1} ms, parallel {:.1} ms — bit-identical",
        t_seq.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3
    );

    // The all-pairs surface: tiled kernel, any thread count, any tile
    // size — one matrix.
    let reference = pairwise_sq_distances(&batch_seq)?;
    for (threads, tile) in [(1, 64), (2, 64), (4, 16), (8, 7)] {
        let m = pairwise_sq_distances_with_par(
            &batch_par,
            |s| s,
            &Parallelism::new(threads).with_tile(tile),
        )?;
        let identical = m
            .as_flat()
            .iter()
            .zip(reference.as_flat())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "threads = {threads}, tile = {tile}");
        println!("pairwise {n}x{n}: threads = {threads}, tile = {tile:2} — bit-identical");
    }

    // The estimates are live: row 0 vs row 1 true distance vs estimate.
    let true_d2: f64 = rows[0]
        .iter()
        .zip(&rows[1])
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    // Single-shot estimates are unbiased but noisy; print the paper's
    // predicted stddev so the deviation has context.
    println!(
        "pair (0,1): true distance² = {:.1}, estimate = {:.1} (predicted stddev {:.1})",
        true_d2,
        reference.at(0, 1),
        sequential.predicted_variance(true_d2).predicted_stddev()
    );
    Ok(())
}
