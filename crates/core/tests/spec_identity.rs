//! The release identity a spec derives without building its transform.
//!
//! Every tag is pinned as a literal, and each equals the built
//! sketcher's tag and its releases' tag, so deriving the identity moved
//! no byte a store or a peer compares. Over a grid of budgets, shapes
//! and one ε that breaks Theorem 1, the identity refuses exactly the
//! specs a build refuses, with the same error, and it refuses the
//! noise scales that need no realized transform as the build does.

use dp_core::config::SketchConfig;
use dp_core::sketcher::{Construction, SigmaCalibration, SketcherSpec};
use dp_core::{CoreError, PrivateSketcher};
use dp_hashing::Seed;
use dp_noise::mechanism::NoiseMechanism;
use dp_noise::NoiseError;
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
        // The noise family the built mechanism itself reports, and the
        // one the SJLT and Achlioptas tags name.
        if let Some(general) = sketcher.general() {
            assert_eq!(
                identity.noise,
                general.mechanism().name(),
                "{construction:?}"
            );
        }
        if tag.contains("noise=") {
            assert!(
                tag.ends_with(&format!("noise={})", identity.noise)),
                "{tag}"
            );
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

/// ε = 1e-310 is a subnormal a config accepts, and every noise scale
/// over it overflows to infinity. The six constructions whose scale
/// needs no realized transform are refused by the identity with the
/// build's own error, so no store adopts a spec no party can build.
/// (Achlioptas, `kenthapadi-exact` and `fjlt-output` scale with the
/// realized sensitivity; only their build refuses.)
#[test]
fn identity_refuses_the_noise_scales_that_need_no_transform() {
    let a_priori = [
        ("sjlt-auto", None),
        ("sjlt-laplace", None),
        ("sjlt-gaussian", Some(1e-5)),
        ("fjlt-input", Some(1e-5)),
        ("kenthapadi-theorem1", Some(1e-5)),
        ("kenthapadi-assumed-unit", Some(1e-5)),
    ];
    for (name, delta) in a_priori {
        let construction = Construction::from_name(name).expect("name");
        let spec = spec(construction, 96, 0.3, 1e-310, delta);
        let refusal = spec.identity().expect_err(name);
        assert_eq!(
            refusal,
            CoreError::Noise(NoiseError::InvalidScale(f64::INFINITY)),
            "{name}"
        );
        assert_eq!(spec.build().err(), Some(refusal), "{name}");
    }
}
