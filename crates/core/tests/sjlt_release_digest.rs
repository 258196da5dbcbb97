//! A golden digest over every SJLT release path.
//!
//! The freeze lint pins the projection source text; this digest pins
//! the bits the releases carry. `SjltLaplace` and `SjltGaussian`
//! release through per-row `sketch`, `sketch_batch` at batch 1 and 8
//! with one and two threads, `sketch_sparse`, and a turnstile stream
//! (`streaming_sketch` + `release_via`). The sparse and streaming
//! releases run twice on each fresh sketcher: once before any dense
//! application (hashed entries) and once after (the resolved column
//! table), so both sources of a column's entries are pinned to one bit
//! pattern. The constant was computed on the tree before the V2 kernel
//! was retired, with this loop restricted to V1: the same 76 releases,
//! so retiring V2 moved no V1 release bit. (The pin before that folded
//! the V2 releases in too; it was taken when every release still hashed
//! its entries.)

use dp_core::config::SketchConfig;
use dp_core::sketcher::{AnySketcher, Construction, SketcherSpec};
use dp_core::wire::{encode_sketch, fnv1a64_update, FNV1A64_INIT};
use dp_core::{NoisySketch, Parallelism, PrivateSketcher};
use dp_hashing::Seed;
use dp_linalg::SparseVector;
use dp_stream::StreamingSketcher;

const D: usize = 203;

/// Deterministic rows with zeros, a negative zero and mixed magnitudes,
/// so the `w != 0.0` skip and the accumulation order both show.
fn rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|b| {
            (0..D)
                .map(|i| match (i * 7 + b * 5) % 9 {
                    0 | 4 => 0.0,
                    6 => -0.0,
                    r => ((i * 31 + b * 17) % 23) as f64 / 7.0 - 1.5 + r as f64 * 1e-3,
                })
                .collect()
        })
        .collect()
}

/// A turnstile stream: repeated columns, a cancellation and the last
/// column.
const UPDATES: [(usize, f64); 7] = [
    (3, 1.25),
    (77, -2.5),
    (3, -0.75),
    (150, 3.0),
    (77, 2.5),
    (D - 1, 0.5),
    (0, -1.0),
];

/// The sparse and streaming releases of one sketcher.
fn sparse_and_streamed(sk: &AnySketcher, out: &mut Vec<NoisySketch>) {
    let x = SparseVector::from_dense(&rows(3)[2]);
    out.push(sk.sketch_sparse(&x, Seed::new(41)).unwrap());
    let mut stream = sk.streaming_sketch().unwrap();
    for (j, w) in UPDATES {
        stream.update(j, w).unwrap();
    }
    out.push(stream.release_via(sk, Seed::new(43)).unwrap());
}

fn releases(construction: Construction) -> Vec<NoisySketch> {
    let cfg = SketchConfig::builder()
        .input_dim(D)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0)
        .delta(1e-6)
        .build()
        .unwrap();
    let spec = SketcherSpec::new(construction, cfg, Seed::new(2024));
    let xs = rows(8);
    let mut out = Vec::new();

    // A fresh sketcher: sparse and streaming first, then the dense
    // paths, then sparse and streaming again.
    let sk = spec.build_with(Parallelism::sequential()).unwrap();
    sparse_and_streamed(&sk, &mut out);
    for (i, x) in xs.iter().enumerate() {
        out.push(sk.sketch(x, Seed::new(100 + i as u64)).unwrap());
    }
    sparse_and_streamed(&sk, &mut out);

    // Batches on fresh sketchers, so the first dense application is a
    // batch (and, with two threads, a concurrent one).
    for threads in [1, 2] {
        for batch in [1, 8] {
            let sk = spec.build_with(Parallelism::new(threads)).unwrap();
            out.extend(sk.sketch_batch(&xs[..batch], Seed::new(7)).unwrap());
            sparse_and_streamed(&sk, &mut out);
        }
    }
    out
}

#[test]
fn sjlt_releases_match_the_golden_digest() {
    let mut h = FNV1A64_INIT;
    let mut count = 0;
    for construction in [Construction::SjltLaplace, Construction::SjltGaussian] {
        for sketch in releases(construction) {
            h = fnv1a64_update(h, &encode_sketch(&sketch).unwrap());
            count += 1;
        }
    }
    assert_eq!(count, 2 * (2 + 8 + 2 + 2 * (1 + 2 + 8 + 2)));
    assert_eq!(h, 0x852c_ce40_18ab_dc6d, "digest {h:#018x}");
}
