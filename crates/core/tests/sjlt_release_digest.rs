//! Golden digests over every release path of every construction.
//!
//! The freeze lint pins the projection source text; these digests pin
//! the bits the releases carry. Each spec releases through per-row
//! `sketch`, `sketch_batch` at batch 1 and 8 with one and two threads,
//! `sketch_sparse`, and, where its transform streams, a turnstile stream
//! (`streaming_sketch` + `release_via`). The sparse and streaming
//! releases run twice on each fresh sketcher: once before any dense
//! application (for the SJLT, hashed entries) and once after (the
//! resolved column table), so both sources of a column's entries are
//! pinned to one bit pattern.
//!
//! The SJLT constant was computed on the tree before the V2 kernel was
//! retired, with this loop restricted to V1: the same 76 releases, so
//! retiring V2 moved no V1 release bit. (The pin before that folded the
//! V2 releases in too; it was taken when every release still hashed its
//! entries.) The every-construction constant was computed on the tree
//! whose five per-construction sketcher types `AnySketcher` wrapped,
//! before they folded into it; it also folds each spec's `k()`,
//! `debias_constant()`, `guarantee()` and `predicted_variance(1.0)`.

use dp_core::config::SketchConfig;
use dp_core::sketcher::{AnySketcher, Construction, SketcherSpec};
use dp_core::wire::{encode_sketch, fnv1a64_update, FNV1A64_INIT};
use dp_core::{CoreError, NoisySketch, Parallelism, PrivateSketcher};
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

/// The sparse and, where the transform streams, streaming releases of
/// one sketcher. The FJLT constructions refuse the stream, typed.
fn sparse_and_streamed(sk: &AnySketcher, out: &mut Vec<NoisySketch>) {
    let x = SparseVector::from_dense(&rows(3)[2]);
    out.push(sk.sketch_sparse(&x, Seed::new(41)).unwrap());
    let mut stream = match sk.streaming_sketch() {
        Ok(stream) => stream,
        Err(CoreError::Unsupported(_)) if sk.tag().starts_with("fjlt") => return,
        Err(e) => panic!("{}: {e:?}", sk.tag()),
    };
    for (j, w) in UPDATES {
        stream.update(j, w).unwrap();
    }
    out.push(stream.release_via(sk, Seed::new(43)).unwrap());
}

fn spec(construction: Construction, delta: Option<f64>) -> SketcherSpec {
    let mut cfg = SketchConfig::builder()
        .input_dim(D)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0);
    if let Some(delta) = delta {
        cfg = cfg.delta(delta);
    }
    SketcherSpec::new(construction, cfg.build().unwrap(), Seed::new(2024))
}

fn releases(spec: &SketcherSpec) -> Vec<NoisySketch> {
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
        for sketch in releases(&spec(construction, Some(1e-6))) {
            h = fnv1a64_update(h, &encode_sketch(&sketch).unwrap());
            count += 1;
        }
    }
    assert_eq!(count, 2 * (2 + 8 + 2 + 2 * (1 + 2 + 8 + 2)));
    assert_eq!(h, 0x852c_ce40_18ab_dc6d, "digest {h:#018x}");
}

/// Every construction by its wire name, each Kenthapadi calibration
/// included.
const NAMES: [&str; 9] = [
    "sjlt-auto",
    "sjlt-laplace",
    "sjlt-gaussian",
    "fjlt-output",
    "fjlt-input",
    "kenthapadi-exact",
    "kenthapadi-theorem1",
    "kenthapadi-assumed-unit",
    "achlioptas",
];

#[test]
fn every_construction_matches_the_golden_digest() {
    let mut h = FNV1A64_INIT;
    let (mut specs, mut count) = (0, 0);
    for name in NAMES {
        let construction = Construction::from_name(name).unwrap();
        for delta in [None, Some(1e-6)] {
            let spec = spec(construction, delta);
            match spec.identity() {
                Err(CoreError::MissingField("delta")) if delta.is_none() => continue,
                refusal => assert!(refusal.is_ok(), "{name}: {refusal:?}"),
            }
            let sk = spec.build().unwrap();
            let guarantee = sk.guarantee();
            for scalar in [
                sk.k() as u64,
                sk.debias_constant().to_bits(),
                guarantee.epsilon().to_bits(),
                guarantee.delta().to_bits(),
                u64::from(guarantee.is_pure()),
                sk.predicted_variance(1.0).predicted_variance.to_bits(),
            ] {
                h = fnv1a64_update(h, &scalar.to_le_bytes());
            }
            for sketch in releases(&spec) {
                h = fnv1a64_update(h, &encode_sketch(&sketch).unwrap());
                count += 1;
            }
            specs += 1;
        }
    }
    // With δ, all nine; without, the SJLTs that allow it (auto and
    // Laplace) and Achlioptas. Streams: seven of nine constructions.
    assert_eq!(specs, 12);
    let streamed = 2 + 8 + 2 + 2 * (1 + 2 + 8 + 2);
    let unstreamed = 1 + 8 + 1 + 2 * (1 + 1 + 8 + 1);
    assert_eq!(count, 10 * streamed + 2 * unstreamed);
    assert_eq!(h, 0x9e72_5cdc_f8c4_4709, "digest {h:#018x}");
}
