//! The release identity a spec derives without building its transform.
//!
//! Every tag is pinned as a literal, and each equals the built
//! sketcher's tag and its releases' tag, so deriving the identity moved
//! no byte a store or a peer compares. Over a grid of budgets, shapes
//! and one ε that breaks Theorem 1, the identity refuses exactly the
//! specs a build refuses, with the same error.

use dp_core::config::SketchConfig;
use dp_core::kenthapadi::SigmaCalibration;
use dp_core::sketcher::{AnySketcher, Construction, SketcherSpec};
use dp_core::{CoreError, PrivateSketcher};
use dp_hashing::Seed;
use dp_noise::mechanism::NoiseMechanism;
use dp_transforms::TransformError;

/// Every construction, each Kenthapadi calibration included.
const CONSTRUCTIONS: [Construction; 9] = [
    Construction::SjltAuto,
    Construction::SjltLaplace,
    Construction::SjltGaussian,
    Construction::FjltOutput,
    Construction::FjltInput,
    Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
    Construction::Kenthapadi(SigmaCalibration::Theorem1),
    Construction::Kenthapadi(SigmaCalibration::AssumedUnit),
    Construction::Achlioptas,
];

fn spec(
    construction: Construction,
    d: usize,
    alpha: f64,
    epsilon: f64,
    delta: Option<f64>,
) -> SketcherSpec {
    let mut config = SketchConfig::builder()
        .input_dim(d)
        .alpha(alpha)
        .beta(0.1)
        .epsilon(epsilon);
    if let Some(delta) = delta {
        config = config.delta(delta);
    }
    SketcherSpec::new(construction, config.build().expect("config"), Seed::new(7))
}

/// The noise family the built mechanism itself reports, where a tag
/// names one.
fn built_noise(sketcher: &AnySketcher) -> Option<&'static str> {
    match (sketcher.as_sjlt(), sketcher.as_achlioptas()) {
        (Some(s), _) => Some(s.general().mechanism().name()),
        (_, Some(a)) => Some(a.general().mechanism().name()),
        _ => None,
    }
}

#[test]
fn every_tag_is_pinned_and_is_the_built_and_released_tag() {
    let approx = Some(1e-5);
    let pinned = [
        (
            Construction::SjltAuto,
            None,
            "sjlt(k=208,s=16,seed=7,noise=laplace)",
        ),
        (
            Construction::SjltAuto,
            approx,
            "sjlt(k=208,s=16,seed=7,noise=gaussian)",
        ),
        (
            Construction::SjltLaplace,
            approx,
            "sjlt(k=208,s=16,seed=7,noise=laplace)",
        ),
        (
            Construction::SjltGaussian,
            approx,
            "sjlt(k=208,s=16,seed=7,noise=gaussian)",
        ),
        (Construction::FjltOutput, approx, "fjlt-out(k=205,seed=7)"),
        (Construction::FjltInput, approx, "fjlt-in(k=205,seed=7)"),
        (
            Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
            approx,
            "kenthapadi(k=205,seed=7,cal=ExactSensitivity)",
        ),
        (
            Construction::Kenthapadi(SigmaCalibration::Theorem1),
            approx,
            "kenthapadi(k=205,seed=7,cal=Theorem1)",
        ),
        (
            Construction::Kenthapadi(SigmaCalibration::AssumedUnit),
            approx,
            "kenthapadi(k=205,seed=7,cal=AssumedUnit)",
        ),
        (
            Construction::Achlioptas,
            None,
            "achlioptas(k=205,seed=7,noise=laplace)",
        ),
        (
            Construction::Achlioptas,
            approx,
            "achlioptas(k=205,seed=7,noise=gaussian)",
        ),
    ];
    let d = 96;
    let x: Vec<f64> = (0..d).map(|i| (i % 5) as f64 - 2.0).collect();
    for (construction, delta, tag) in pinned {
        let spec = spec(construction, d, 0.3, 1.0, delta);
        let identity = spec.identity().expect("identity");
        assert_eq!(identity.tag, tag, "{construction:?}");
        let sketcher = spec.build().expect("build");
        assert_eq!(sketcher.tag(), tag, "{construction:?}");
        assert_eq!(identity.k, sketcher.k(), "{construction:?}");
        if let Some(noise) = built_noise(&sketcher) {
            assert_eq!(identity.noise, noise, "{construction:?}");
            assert!(tag.ends_with(&format!("noise={noise})")), "{tag}");
        }
        let release = sketcher.sketch(&x, Seed::new(11)).expect("sketch");
        assert_eq!(release.transform_tag(), tag, "{construction:?}");
        assert_eq!(release.k(), identity.k, "{construction:?}");
    }
}

#[test]
fn identity_refuses_exactly_what_build_refuses() {
    let mut refused = 0;
    for construction in CONSTRUCTIONS {
        for delta in [None, Some(1e-5)] {
            for (d, alpha) in [(48, 0.3), (200, 0.2)] {
                // ε = 16 ≥ ln(1/δ) ≈ 11.5 breaks Theorem 1's precondition.
                for epsilon in [1.0, 16.0] {
                    let spec = spec(construction, d, alpha, epsilon, delta);
                    match (spec.identity(), spec.build()) {
                        (Ok(identity), Ok(sketcher)) => {
                            assert_eq!(identity.tag, sketcher.tag(), "{spec:?}");
                            assert_eq!(identity.k, sketcher.k(), "{spec:?}");
                        }
                        (Err(a), Err(b)) => {
                            assert_eq!(a, b, "{spec:?}");
                            refused += 1;
                        }
                        (a, b) => panic!(
                            "{spec:?}: identity {:?} but build {:?}",
                            a.map(|i| i.tag),
                            b.map(|s| s.tag().to_string())
                        ),
                    }
                }
            }
        }
    }
    // Without δ: sjlt-gaussian, both FJLT variants and the three
    // Kenthapadi calibrations, at both shapes and both ε (24); with δ,
    // Theorem 1 at ε = 16, at both shapes (2).
    assert_eq!(refused, 26);

    // The SJLT's column table caps k at 2³¹; α = 1e-5 asks for k ≈ 1.8·10¹¹.
    let huge = spec(Construction::SjltAuto, 64, 1e-5, 1.0, None);
    let refusal = huge.identity().expect_err("k past 2^31");
    assert!(
        matches!(
            refusal,
            CoreError::Transform(TransformError::InvalidDimensions { .. })
        ),
        "{refusal:?}"
    );
    assert_eq!(Some(refusal), huge.build().err());
}
