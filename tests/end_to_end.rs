//! End-to-end integration tests spanning every crate: configuration →
//! transforms → noise → sketches → distributed estimation.

use dp_euclid::hashing::Seed;
use dp_euclid::linalg::vector::sq_distance;
use dp_euclid::prelude::*;
use dp_euclid::stats::Summary;

fn config(d: usize, delta: Option<f64>) -> SketchConfig {
    let mut b = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(1.5);
    if let Some(dl) = delta {
        b = b.delta(dl);
    }
    b.build().expect("valid config")
}

#[test]
fn every_construction_estimates_the_same_pair() {
    let d = 128;
    let x: Vec<f64> = (0..d).map(|i| ((i * 13) % 7) as f64 / 3.0).collect();
    let y: Vec<f64> = (0..d).map(|i| ((i * 5) % 11) as f64 / 4.0).collect();
    let true_d = sq_distance(&x, &y);
    let cfg = config(d, Some(1e-7));
    let cfg_pure = config(d, None);
    let reps = 400u64;

    let cases = [
        ("sjlt+laplace", Construction::SjltLaplace, &cfg_pure),
        (
            "kenthapadi",
            Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
            &cfg,
        ),
        ("fjlt-input", Construction::FjltInput, &cfg),
        ("fjlt-output", Construction::FjltOutput, &cfg),
    ];
    for (name, construction, cfg) in cases {
        let mut s = Summary::new();
        for rep in 0..reps {
            let sk = AnySketcher::new(construction, cfg, Seed::new(rep)).expect("construct");
            let a = sk.sketch(&x, Seed::new(rep * 4 + 1)).expect("sketch");
            let b = sk.sketch(&y, Seed::new(rep * 4 + 2)).expect("sketch");
            s.push(sk.estimate_sq_distance(&a, &b).expect("estimate"));
        }
        let z = (s.mean() - true_d).abs() / s.stderr();
        assert!(
            z < 5.0,
            "{name}: bias z = {z} (mean {}, true {true_d})",
            s.mean()
        );
    }
}

#[test]
fn cross_construction_sketches_do_not_mix() {
    let d = 64;
    let cfg = config(d, Some(1e-6));
    let x = vec![1.0; d];
    let sj = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(1)).expect("sjlt");
    let exact = Construction::Kenthapadi(SigmaCalibration::ExactSensitivity);
    let ken = AnySketcher::new(exact, &cfg, Seed::new(1)).expect("ken");
    let a = sj.sketch(&x, Seed::new(2)).expect("sketch");
    let b = ken.sketch(&x, Seed::new(3)).expect("sketch");
    assert!(a.estimate_sq_distance(&b).is_err());
}

#[test]
fn cross_construction_and_cross_seed_estimates_are_incompatible() {
    use dp_euclid::core::CoreError;
    let d = 64;
    let cfg = config(d, Some(1e-6));
    let x = vec![1.0; d];

    // Different constructions under one config: every cross pair refused
    // with the typed error.
    let sketchers: Vec<AnySketcher> = Construction::all()
        .into_iter()
        .map(|c| AnySketcher::new(c, &cfg, Seed::new(4)).expect("construct"))
        .collect();
    let sketches: Vec<NoisySketch> = sketchers
        .iter()
        .map(|s| s.sketch(&x, Seed::new(5)).expect("sketch"))
        .collect();
    for (i, a) in sketches.iter().enumerate() {
        for (j, b) in sketches.iter().enumerate() {
            if sketchers[i].tag() != sketchers[j].tag() {
                assert!(
                    matches!(
                        a.estimate_sq_distance(b),
                        Err(CoreError::IncompatibleSketches(_))
                    ),
                    "({i},{j}) should not combine"
                );
            }
        }
    }

    // Same construction, different public transform seeds: also refused.
    let s1 = AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(1)).expect("construct");
    let s2 = AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(2)).expect("construct");
    let a = s1.sketch(&x, Seed::new(6)).expect("sketch");
    let b = s2.sketch(&x, Seed::new(7)).expect("sketch");
    assert!(matches!(
        a.estimate_sq_distance(&b),
        Err(CoreError::IncompatibleSketches(_))
    ));
}

#[test]
fn trait_surface_is_uniform_across_constructions() {
    // The same generic estimation routine runs every construction.
    fn mean_estimate(sk: &dyn PrivateSketcher, x: &[f64], y: &[f64], reps: u64) -> f64 {
        let mut s = Summary::new();
        for rep in 0..reps {
            let a = sk.sketch(x, Seed::new(rep * 2 + 1)).expect("sketch");
            let b = sk.sketch(y, Seed::new(rep * 2 + 2)).expect("sketch");
            s.push(sk.estimate_sq_distance(&a, &b).expect("estimate"));
        }
        s.mean()
    }
    let d = 64;
    let cfg = config(d, Some(1e-6));
    let x = vec![1.0; d];
    let y = vec![0.0; d];
    for construction in Construction::all() {
        let sk = AnySketcher::new(construction, &cfg, Seed::new(1)).expect("construct");
        let mean = mean_estimate(&sk, &x, &y, 60);
        // Loose sanity band (few reps): the estimator is unbiased for
        // ‖x−y‖² = 64 under every construction.
        let sd = sk.predicted_variance(d as f64).predicted_stddev();
        assert!(
            (mean - d as f64).abs() < sd,
            "{construction:?}: mean {mean} vs {d} (per-release sd {sd})"
        );
    }
}

#[test]
fn guarantee_surface_matches_configuration() {
    let d = 32;
    // Pure DP without delta.
    let sk =
        AnySketcher::new(Construction::SjltAuto, &config(d, None), Seed::new(1)).expect("sjlt");
    assert!(sk.guarantee().is_pure());
    assert!((sk.guarantee().epsilon() - 1.5).abs() < 1e-12);
    // Moderate delta flips to Gaussian / approximate DP.
    let sk = AnySketcher::new(Construction::SjltAuto, &config(d, Some(1e-4)), Seed::new(1))
        .expect("sjlt");
    assert!(!sk.guarantee().is_pure());
    // Composition across two releases (basic).
    let two = sk.guarantee().compose(&sk.guarantee());
    assert!((two.epsilon() - 3.0).abs() < 1e-12);
    assert!((two.delta() - 2e-4).abs() < 1e-12);
}

#[test]
fn norm_and_inner_product_estimates() {
    let d = 256;
    let cfg = config(d, None);
    let x = vec![1.0; d];
    let y: Vec<f64> = (0..d).map(|i| f64::from(u8::from(i < 128))).collect();
    let mut s_norm = Summary::new();
    let mut s_ip = Summary::new();
    for rep in 0..500u64 {
        let sk = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(rep)).expect("sjlt");
        let a = sk.sketch(&x, Seed::new(rep * 2 + 1)).expect("sketch");
        let b = sk.sketch(&y, Seed::new(rep * 2 + 2)).expect("sketch");
        s_norm.push(a.estimate_sq_norm());
        s_ip.push(a.estimate_inner_product(&b).expect("compatible"));
    }
    let z_norm = (s_norm.mean() - d as f64).abs() / s_norm.stderr();
    let z_ip = (s_ip.mean() - 128.0).abs() / s_ip.stderr();
    assert!(z_norm < 5.0, "norm bias z {z_norm}");
    assert!(z_ip < 5.0, "inner product bias z {z_ip}");
}

#[test]
fn sparse_dense_release_equivalence() {
    let d = 512;
    let cfg = config(d, None);
    let sk = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(42)).expect("sjlt");
    let mut x = vec![0.0; d];
    x[10] = 3.0;
    x[100] = -2.0;
    let sv = dp_euclid::linalg::SparseVector::from_dense(&x);
    let a = sk.sketch(&x, Seed::new(5)).expect("sketch");
    let b = sk.sketch_sparse(&sv, Seed::new(5)).expect("sketch");
    assert_eq!(a, b, "same noise seed, same vector → identical release");
}
