//! Integration tests of the `dp-engine` query layer over protocol
//! releases: repeated ingest must never grow the tag interner, and
//! incremental queries must be bit-identical to cold ones.

use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;

fn spec(d: usize) -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(31))
}

fn releases(spec: &SketcherSpec, n: usize) -> Vec<Release> {
    let sketcher = spec.build().expect("sketcher");
    let d = spec.config().input_dim();
    (0..n as u64)
        .map(|party_id| {
            let data: Vec<f64> = (0..d)
                .map(|j| ((party_id as usize + j) % 5) as f64)
                .collect();
            let sketch = sketcher
                .sketch(&data, Seed::new(600 + party_id))
                .expect("sketch");
            Release { party_id, sketch }
        })
        .collect()
}

#[test]
fn repeated_ingest_never_grows_the_interner() {
    let spec = spec(64);
    let rs = releases(&spec, 12);
    let wire: Vec<Vec<u8>> = rs.iter().map(|r| r.to_bytes().expect("bytes")).collect();
    let mut engine = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    // The spec itself interned the tag once; ingesting any number of
    // frames through the store's decode path must not add to that.
    assert_eq!(engine.store().interner_len(), 1);
    for bytes in &wire {
        engine.ingest_bytes(bytes).expect("ingest");
        assert_eq!(engine.store().interner_len(), 1);
    }
    assert_eq!(engine.store().n(), 12);
    // Decoding adjacent payloads through the store's shared interner
    // (instead of a private one) keeps the count at one too.
    let extra = releases(&spec, 1);
    let extra_bytes = extra[0].to_bytes().expect("bytes");
    let parsed = dp_euclid::core::release::parse_release_bytes(
        &extra_bytes,
        engine.store_mut().interner_mut(),
    )
    .expect("parse");
    assert_eq!(parsed.party_id, 0);
    assert_eq!(engine.store().interner_len(), 1);
}

#[test]
fn engine_is_incremental_across_wrapper_sized_batches() {
    // Ingest in three waves with queries in between; the final matrix
    // must equal a one-shot cold engine's over every release, bit for
    // bit.
    let rs = releases(&spec(96), 10);
    let mut cold = QueryEngine::new(SketchStore::adopting());
    for r in &rs {
        cold.ingest(r).expect("ingest");
    }
    let oneshot = cold.pairwise_all();
    let mut engine = QueryEngine::new(SketchStore::adopting());
    for r in &rs[..2] {
        engine.ingest(r).expect("ingest");
    }
    let first = engine.pairwise_all();
    assert_eq!(first.n(), 2);
    for r in &rs[2..6] {
        engine.ingest(r).expect("ingest");
    }
    assert_eq!(engine.pairwise_all().n(), 6);
    for r in &rs[6..] {
        engine.ingest(r).expect("ingest");
    }
    let full = engine.pairwise_all();
    for (a, b) in oneshot.as_flat().iter().zip(full.as_flat()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // The early 2×2 block is literally a sub-block of the final matrix.
    for i in 0..2 {
        for j in 0..2 {
            assert_eq!(first.at(i, j).to_bits(), full.at(i, j).to_bits());
        }
    }
}

#[test]
fn knn_and_top_pairs_agree_with_the_matrix() {
    let rs = releases(&spec(64), 7);
    let mut engine = QueryEngine::new(SketchStore::adopting());
    for r in &rs {
        engine.ingest(r).expect("ingest");
    }
    let matrix = engine.pairwise_all();
    // top_pairs reports matrix entries, ascending.
    let top = engine.top_pairs(21);
    assert_eq!(top.len(), 21);
    for w in top.windows(2) {
        assert!(w[0].2 <= w[1].2);
    }
    // knn's neighbor set for party 0 is everyone else.
    let nn = engine.knn(0, 100).expect("knn");
    assert_eq!(nn.len(), 6);
    assert_eq!(matrix.n(), 7);
}
