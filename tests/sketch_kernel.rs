//! Kernel-contract tests for the batch sketching path. There is one
//! projection accumulation order, the historic per-row one, and this
//! suite pins it on the ingest side:
//!
//! * **batch is per-row** — batch sketching is bit- *and*
//!   wire-byte-identical to the historic per-row path, for every
//!   construction and for ragged batch sizes (0, 1, and sizes that do
//!   not divide the internal block).
//! * **no ambient kernel** — a spec built without naming its kernel
//!   sketches exactly like one pinned to `v1-scalar`, whatever the
//!   environment holds (the retired `DP_KERNEL` knob included).
#![recursion_limit = "256"]

use dp_euclid::core::wire::encode_sketch;
use dp_euclid::hashing::Prng;
use dp_euclid::prelude::*;
use proptest::prelude::*;

const D: usize = 32;

const CONSTRUCTIONS: [Construction; 5] = [
    Construction::SjltAuto,
    Construction::Achlioptas,
    Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
    Construction::FjltOutput,
    Construction::FjltInput,
];

fn config(d: usize) -> SketchConfig {
    SketchConfig::builder()
        .input_dim(d)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.5)
        .delta(1e-6)
        .build()
        .expect("config")
}

fn spec(c: Construction) -> SketcherSpec {
    SketcherSpec::new(c, config(D), Seed::new(7))
}

fn rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Seed::new(seed).rng();
    (0..n)
        .map(|_| (0..d).map(|_| rng.next_f64() * 6.0 - 3.0).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Batch sketches encode to wire bytes identical to the per-row path
    // (which the freeze lint pins to the pre-batch bit patterns), across
    // all five constructions and ragged batch sizes — 0, 1, and sizes
    // that do not divide the sketcher's internal block of 8.
    #[test]
    fn v1_batch_sketches_are_wire_byte_identical_to_per_row(
        n in 0usize..12,
        seed in any::<u64>(),
    ) {
        for c in CONSTRUCTIONS {
            let sk = spec(c).build().unwrap();
            let xs = rows(n, D, seed ^ 0x5eed);
            let noise = Seed::new(seed);
            let batch = sk.sketch_batch(&xs, noise).unwrap();
            prop_assert_eq!(batch.len(), n);
            for (i, got) in batch.iter().enumerate() {
                let want = sk.sketch(&xs[i], noise.index(i as u64)).unwrap();
                prop_assert_eq!(
                    encode_sketch(got).unwrap(),
                    encode_sketch(&want).unwrap(),
                    "construction {} row {}",
                    c.name(),
                    i
                );
            }
        }
    }
}

/// A spec built without naming its kernel is the spec pinned to
/// `v1-scalar`, and sketches exactly like it, byte for byte, in batch
/// and per row: no environment variable reaches the sketch path.
#[test]
fn dp_kernel_env_contract_extends_to_sketch_path() {
    let ambient = spec(Construction::SjltAuto);
    let pinned = spec(Construction::SjltAuto).with_kernel(KernelId::V1Scalar);
    assert_eq!(ambient, pinned);
    assert_eq!(ambient.to_json(), pinned.to_json());
    let (ambient, pinned) = (ambient.build().unwrap(), pinned.build().unwrap());
    let xs = rows(7, D, 77);
    let a = ambient.sketch_batch(&xs, Seed::new(9)).unwrap();
    let b = pinned.sketch_batch(&xs, Seed::new(9)).unwrap();
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(encode_sketch(x).unwrap(), encode_sketch(y).unwrap());
        let per_row = ambient
            .sketch(&xs[i], Seed::new(9).index(i as u64))
            .unwrap();
        assert_eq!(encode_sketch(x).unwrap(), encode_sketch(&per_row).unwrap());
    }
}
