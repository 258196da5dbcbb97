//! Integration tests of the multi-party protocol over the binary wire,
//! including construction selection purely via `SketcherSpec`,
//! streaming parties, and privacy accounting across releases. Every
//! party builds the shared sketcher from the public spec, sketches its
//! own vector under its private noise seed and sends a `DPRL` frame;
//! the observer estimates every pair by ingesting the received releases
//! into a `QueryEngine`.

use dp_euclid::core::release::parse_release_bytes;
use dp_euclid::core::wire::TagInterner;
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;
use dp_euclid::stats::Summary;
use std::sync::Arc;

/// The observer's view: every received release ingested into one
/// engine, all pairs estimated in arrival order.
fn observe(releases: &[Release]) -> Arc<PairwiseDistances> {
    let mut engine = QueryEngine::new(SketchStore::adopting());
    for r in releases {
        engine.ingest(r).expect("compatible release");
    }
    engine.pairwise_all()
}

fn spec(d: usize) -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.2)
        .beta(0.05)
        .epsilon(1.0)
        .build()
        .expect("config");
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(1234))
}

/// Party `party_id`'s wire frame: its vector sketched by the shared
/// sketcher under the party's private noise seed.
fn release_bytes(sketcher: &AnySketcher, party_id: u64, x: &[f64], noise_seed: Seed) -> Vec<u8> {
    let sketch = sketcher.sketch(x, noise_seed).expect("sketch");
    Release { party_id, sketch }.to_bytes().expect("bytes")
}

#[test]
fn full_protocol_over_the_wire() {
    let d = 256;
    let sketcher = spec(d).build().expect("sketcher");
    let vectors: Vec<Vec<f64>> = (0..4)
        .map(|i| {
            (0..d)
                .map(|j| f64::from(u8::from(j % (i + 2) == 0)))
                .collect()
        })
        .collect();

    // Wire roundtrip for every party (binary path with tag interning).
    let mut interner = TagInterner::new();
    let releases: Vec<Release> = (0u64..)
        .zip(&vectors)
        .map(|(i, v)| {
            let bytes = release_bytes(&sketcher, i, v, Seed::new(500 + i));
            parse_release_bytes(&bytes, &mut interner).expect("parse")
        })
        .collect();
    assert_eq!(interner.len(), 1, "one shared transform tag");

    let est = observe(&releases);
    // Single-shot estimates: gate on the construction's own predicted
    // standard deviation (noise dominates at eps = 1 and small dists).
    for i in 0..4 {
        for j in 0..4 {
            if i == j {
                assert_eq!(est.at(i, j), 0.0);
            } else {
                let true_d = dp_euclid::linalg::vector::sq_distance(&vectors[i], &vectors[j]);
                let sd = sketcher.predicted_variance(true_d).predicted_stddev();
                assert!(
                    (est.at(i, j) - true_d).abs() < 6.0 * sd,
                    "({i},{j}): est {} vs true {true_d} (sd {sd})",
                    est.at(i, j)
                );
            }
        }
    }
}

#[test]
fn pairwise_estimates_track_true_distances() {
    // Averaged over protocol repetitions with fresh public seeds, the
    // observer's estimates are unbiased.
    let d = 64;
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    let x0 = vec![0.0; d];
    let x1 = vec![1.0; d]; // ‖x0−x1‖² = 64
    let mut x2 = vec![0.0; d];
    x2[0] = 1.0; // ‖x0−x2‖² = 1, ‖x1−x2‖² = 63
    let mut d01 = Summary::new();
    let mut d02 = Summary::new();
    for rep in 0..400u64 {
        let spec = SketcherSpec::new(Construction::SjltAuto, config.clone(), Seed::new(rep));
        let sketcher = spec.build().expect("sketcher");
        let releases: Vec<Release> = (0u64..)
            .zip([&x0, &x1, &x2])
            .map(|(party_id, x)| Release {
                party_id,
                sketch: sketcher
                    .sketch(x, Seed::new(rep).child("party-noise").index(party_id))
                    .expect("sketch"),
            })
            .collect();
        let m = observe(&releases);
        d01.push(m.at(0, 1));
        d02.push(m.at(0, 2));
        assert_eq!(m.at(0, 1), m.at(1, 0), "symmetry");
        assert_eq!(m.at(0, 0), 0.0, "diagonal untouched");
    }
    assert!(
        (d01.mean() - 64.0).abs() / d01.stderr() < 4.0,
        "{}",
        d01.mean()
    );
    assert!(
        (d02.mean() - 1.0).abs() / d02.stderr() < 4.0,
        "{}",
        d02.mean()
    );
}

#[test]
fn releases_are_noisy() {
    let sketcher = spec(64).build().expect("sketcher");
    let ones = vec![1.0; 64];
    let release = sketcher.sketch(&ones, Seed::new(5)).expect("sketch");
    let raw = sketcher.project(&ones).expect("noiseless projection");
    assert_ne!(release.values(), raw.as_slice(), "noise must be present");
}

#[test]
fn protocol_runs_multiple_constructions_selected_by_spec() {
    // Acceptance: the identical multi-party protocol code runs both the
    // SJLT+Laplace headline construction and the Kenthapadi baseline,
    // selected PURELY via `SketcherSpec` (distributed as JSON), and the
    // binary codec round-trips releases byte-identically.
    let d = 128;
    let pure_config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    let approx_config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .delta(1e-6)
        .build()
        .expect("config");
    let specs = [
        SketcherSpec::new(Construction::SjltLaplace, pure_config, Seed::new(31)),
        SketcherSpec::new(
            Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
            approx_config,
            Seed::new(32),
        ),
    ];

    let x0 = vec![0.0; d];
    let x1 = vec![2.0; d]; // ‖x0−x1‖² = 4d
    for spec in &specs {
        // The spec travels to every party as JSON; each party rebuilds
        // its own sketcher from the received text.
        let wire_spec = spec.to_json();
        let sketcher = SketcherSpec::from_json(&wire_spec)
            .expect("spec parses")
            .build()
            .expect("sketcher");
        let blobs = [
            release_bytes(&sketcher, 0, &x0, Seed::new(700)),
            release_bytes(&sketcher, 1, &x1, Seed::new(701)),
        ];
        let mut interner = TagInterner::new();
        let releases: Vec<Release> = blobs
            .iter()
            .map(|b| parse_release_bytes(b, &mut interner).expect("parse"))
            .collect();
        // Byte-identical binary round-trip.
        for (release, blob) in releases.iter().zip(&blobs) {
            assert_eq!(&release.to_bytes().expect("re-encode"), blob);
        }
        // The observer estimates from releases alone, gated on the
        // construction's own predicted deviation.
        let m = observe(&releases);
        let true_d = 4.0 * d as f64;
        let sd = sketcher.predicted_variance(true_d).predicted_stddev();
        assert!(
            (m.at(0, 1) - true_d).abs() < 6.0 * sd,
            "{}: est {} vs true {true_d} (sd {sd})",
            spec.construction().name(),
            m.at(0, 1)
        );
    }

    // The two constructions' guarantees differ as the paper says.
    let sjlt = specs[0].build().expect("sjlt");
    let baseline = specs[1].build().expect("baseline");
    assert!(sjlt.guarantee().is_pure());
    assert!(!baseline.guarantee().is_pure());

    // Releases from different constructions must never combine.
    let a = sjlt.sketch(&x0, Seed::new(800)).expect("sketch");
    let b = baseline.sketch(&x1, Seed::new(801)).expect("sketch");
    assert!(a.estimate_sq_distance(&b).is_err());
}

#[test]
fn streaming_party_interoperates_with_batch_party() {
    // One party maintains its vector as a turnstile stream, the other
    // sketches in batch; both build the sketcher from the same public
    // spec, so their releases interoperate.
    let d = 512;
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.2)
        .beta(0.05)
        .epsilon(1.0)
        .build()
        .expect("config");
    let sketcher = SketcherSpec::new(Construction::SjltLaplace, config, Seed::new(9))
        .build()
        .expect("sketcher");

    let x: Vec<f64> = (0..d).map(|j| f64::from(u8::from(j % 3 == 0))).collect();
    let y: Vec<f64> = (0..d).map(|j| f64::from(u8::from(j % 4 == 0))).collect();

    // Streaming side.
    let mut stream = sketcher.streaming_sketch().expect("stream");
    for (j, &v) in x.iter().enumerate() {
        if v != 0.0 {
            stream.update(j, v).expect("update");
        }
    }
    let rel_stream = stream
        .release_via(&sketcher, Seed::new(11))
        .expect("release");

    // Batch side (same sketcher, own noise seed).
    let rel_batch = sketcher.sketch(&y, Seed::new(22)).expect("sketch");

    let est = rel_stream
        .estimate_sq_distance(&rel_batch)
        .expect("compatible");
    let true_d = dp_euclid::linalg::vector::sq_distance(&x, &y);
    let sd = sketcher.predicted_variance(true_d).predicted_stddev();
    assert!(
        (est - true_d).abs() < 6.0 * sd,
        "est {est} vs true {true_d} (sd {sd})"
    );
}

#[test]
fn streaming_party_releases_through_the_trait() {
    // A streaming party can also release via the shared sketcher itself,
    // producing sketches that combine with ordinary batch releases.
    let d = 128;
    let sketcher = spec(d).build().expect("sketcher");
    let Some(Projection::Sjlt(transform)) = sketcher.general().map(GenSketcher::transform) else {
        panic!("the headline construction projects through its SJLT");
    };

    let x: Vec<f64> = (0..d).map(|j| f64::from(u8::from(j % 5 == 0))).collect();
    let mut stream = StreamingSketch::new(transform.clone(), sketcher.tag().to_string());
    stream.absorb_dense(&x).expect("absorb");
    let streamed = stream
        .release_via(&sketcher, Seed::new(41))
        .expect("release");

    let batch = sketcher
        .sketch(&vec![0.0; d], Seed::new(42))
        .expect("sketch");
    let est = streamed
        .estimate_sq_distance(&batch)
        .expect("same spec, combinable");
    assert!(est.is_finite());
}

#[test]
fn releases_compose_for_accounting() {
    let sketcher = spec(64).build().expect("sketcher");
    // Two releases of the same data consume 2ε under basic composition.
    let g1 = sketcher.guarantee();
    let total = g1.compose(&g1);
    assert!((total.epsilon() - 2.0 * g1.epsilon()).abs() < 1e-12);
    assert!(total.is_pure(), "pure DP composes to pure DP");
    // Advanced composition beats basic for many releases of a SMALL-eps
    // mechanism (for eps ~ 1 the e^eps - 1 term makes basic win).
    let small = dp_euclid::noise::PrivacyGuarantee::pure(0.05).expect("guarantee");
    let many_basic = small.compose_n(200);
    let many_adv = small.compose_advanced(200, 1e-9).expect("advanced");
    assert!(many_adv.epsilon() < many_basic.epsilon());
}

#[test]
fn malicious_wire_inputs_rejected() {
    let mut interner = TagInterner::new();
    assert!(parse_release_bytes(b"", &mut interner).is_err());
    assert!(parse_release_bytes(b"DPRL", &mut interner).is_err());
    assert!(
        parse_release_bytes(b"DPNS\x01\x00\x00\x00\x00\x00\x00\x00\x00", &mut interner).is_err()
    );
    // A real frame cut anywhere, down to one byte short of its
    // checksum trailer, is refused.
    let sketcher = spec(64).build().expect("sketcher");
    let good = release_bytes(&sketcher, 0, &[0.25; 64], Seed::new(1));
    assert!(parse_release_bytes(&good, &mut interner).is_ok());
    for cut in 0..good.len() {
        assert!(
            parse_release_bytes(&good[..cut], &mut interner).is_err(),
            "frame cut to {cut} of {} bytes parsed",
            good.len()
        );
    }
}
