//! Distributed private similarity search — the paper's motivating setting.
//!
//! Ten parties each hold a user-profile vector. They agree on public
//! parameters (a `SketcherSpec`: construction + config + transform seed),
//! each releases one noisy sketch over the binary wire, and a
//! coordinator — who never sees any raw vector — answers similarity
//! queries from the released sketches alone. Privacy for every party
//! follows from Theorem 3 plus post-processing.
//!
//! The coordinator side is the `dp-engine` query layer: a persistent
//! `SketchStore` ingests the wire frames (validating compatibility and
//! interning the transform tag once), and the `QueryEngine` answers
//! all-pairs, closest-pair, and nearest-neighbor queries incrementally.
//!
//! The whole protocol is construction-agnostic: the same code below runs
//! once with the SJLT+Laplace headline construction and once with the
//! Kenthapadi baseline, switching only the spec.
//!
//! Run with: `cargo run --release --example distributed_similarity`

use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;

fn profile(d: usize, group: usize, idx: u64) -> Vec<f64> {
    // Group members share a base pattern plus individual variation.
    let base = Seed::new(5000 + group as u64);
    let personal = base.index(idx);
    dp_euclid::linalg::SparseVector::new(
        d,
        (0..64)
            .map(|t| {
                let j = (base.index(t).value() % d as u64) as usize;
                let jitter = (personal.index(t).value() % 100) as f64 / 200.0;
                // Scaled so inter-cluster distances clear the eps = 2
                // noise floor (single-shot estimates; see the variance
                // bound printed below).
                (j, 25.0 * (1.0 + jitter))
            })
            .collect(),
    )
    .expect("indices in range")
    .to_dense()
}

fn run_protocol(params: &PublicParams) {
    let d = params.config().input_dim();
    println!(
        "\n== construction: {} ==",
        params.spec().construction().name()
    );

    // Two clusters of five parties each.
    let parties: Vec<Party> = (0..10)
        .map(|i| Party::new(i, profile(d, (i / 5) as usize, i), Seed::new(900 + i)))
        .collect();

    // Each party serializes its release over the compact binary wire.
    let wire: Vec<Vec<u8>> = parties
        .iter()
        .map(|p| p.release_bytes(params).expect("release"))
        .collect();
    println!(
        "released {} sketches, {} bytes each (k = {})",
        wire.len(),
        wire[0].len(),
        params.sketcher().expect("sketcher").k()
    );

    // Coordinator: one persistent store owns the spec, the tag
    // interner, and every ingested sketch; the engine answers queries.
    // The all-pairs kernel runs on the env-driven Parallelism knob
    // (DP_THREADS); estimates are bit-identical for every thread count.
    let par = Parallelism::from_env();
    let store = SketchStore::with_spec(params.spec().clone()).expect("store");
    let mut engine = QueryEngine::new(store).with_parallelism(par);
    for bytes in &wire {
        engine.ingest_bytes(bytes).expect("ingest");
    }
    println!(
        "store: {} rows, {} distinct transform tag(s) interned",
        engine.store().n(),
        engine.store().interner_len()
    );
    println!(
        "pairwise kernel: {} worker(s), tile {}",
        par.threads(),
        par.tile()
    );

    // Coordinator-side analytics on released data only.
    let ids = engine.store().party_ids().to_vec();
    let dist = engine.pairwise_all();
    let mut intra = Vec::new();
    let mut inter = Vec::new();
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            if ids[i] / 5 == ids[j] / 5 {
                intra.push(dist.at(i, j));
            } else {
                inter.push(dist.at(i, j));
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "mean intra-cluster est. distance² = {:.1}, inter-cluster = {:.1}",
        mean(&intra),
        mean(&inter)
    );
    assert!(
        mean(&intra) < mean(&inter),
        "clusters should be separable from private sketches"
    );
    let (a, b, closest) = engine.top_pairs(1)[0];
    println!("closest pair: parties {a} and {b} (est. distance² = {closest:.1})");

    // Nearest-neighbor query for party 0, straight off the engine.
    let nn = engine.knn(0, 1).expect("knn");
    println!(
        "nearest neighbor of party 0: {} (est. distance² = {:.1})",
        nn[0].party_id, nn[0].estimated_sq_distance
    );
    assert!(nn[0].party_id < 5, "should stay in cluster 0");
}

fn main() {
    let d = 1 << 10;

    // Headline construction: private SJLT, pure ε-DP (no δ budgeted).
    let pure_config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.15)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("valid configuration");
    run_protocol(&PublicParams::new(pure_config, Seed::new(77)));

    // The Kenthapadi baseline, selected purely by the spec — identical
    // protocol code, (ε, δ) guarantee.
    let approx_config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.15)
        .beta(0.05)
        .epsilon(2.0)
        .delta(1e-6)
        .build()
        .expect("valid configuration");
    run_protocol(&PublicParams::with_construction(
        Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
        approx_config,
        Seed::new(78),
    ));
}
