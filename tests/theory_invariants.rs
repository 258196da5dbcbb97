//! Property-style integration tests of the paper's invariants across
//! crates: LPP, sensitivity exactness, debias-constant correctness, and
//! the Note 5 selection rule, swept over deterministic parameter grids.
//! (The offline build has no `proptest`; the grids below cover the same
//! ranges with fixed seeds, which also makes failures reproducible.)

use dp_euclid::core::variance::{var_sjlt_gaussian, var_sjlt_laplace};
use dp_euclid::hashing::Seed;
use dp_euclid::noise::mechanism::{select_mechanism, MechanismChoice};
use dp_euclid::prelude::*;
use dp_euclid::transforms::{materialize, sjlt::Sjlt};

#[test]
fn sjlt_sensitivities_exact_for_random_shapes() {
    for seed in [0u64, 17, 313, 999] {
        for s_pow in 0u32..4 {
            for (blocks, d) in [(2usize, 8usize), (5, 40), (11, 95)] {
                let s = 1usize << s_pow;
                let k = s * blocks;
                let t = Sjlt::new(d, k, s, 5, Seed::new(seed)).expect("sjlt");
                let m = materialize(&t).expect("materialize");
                assert!(
                    (m.l1_sensitivity() - (s as f64).sqrt()).abs() < 1e-9,
                    "seed {seed}, s {s}, k {k}, d {d}"
                );
                assert!(
                    (m.l2_sensitivity() - 1.0).abs() < 1e-9,
                    "seed {seed}, s {s}, k {k}, d {d}"
                );
            }
        }
    }
}

#[test]
fn debias_constant_is_twice_k_second_moment() {
    for seed in [0u64, 42, 511] {
        for eps_scaled in [1u32, 5, 10, 25, 39] {
            let eps = f64::from(eps_scaled) / 10.0;
            let cfg = SketchConfig::builder()
                .input_dim(32)
                .alpha(0.3)
                .beta(0.1)
                .epsilon(eps)
                .build()
                .expect("config");
            let sk =
                AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(seed)).expect("sjlt");
            // Lap(√s/ε): E[η²] = 2s/ε².
            let want = 2.0 * sk.k() as f64 * 2.0 * cfg.s() as f64 / (eps * eps);
            assert!(
                (sk.debias_constant() - want).abs() < 1e-6 * want,
                "seed {seed}, eps {eps}"
            );
        }
    }
}

#[test]
fn note5_rule_is_threshold_in_delta() {
    for s in [1usize, 2, 5, 13, 26, 39] {
        for offset in -5i32..5 {
            if offset == 0 {
                continue;
            }
            let l1 = (s as f64).sqrt();
            let threshold = (-(s as f64)).exp();
            let delta = threshold * 10f64.powi(offset);
            let choice = select_mechanism(l1, 1.0, Some(delta.min(0.49)));
            if offset < 0 {
                assert_eq!(choice, MechanismChoice::Laplace, "s {s}, offset {offset}");
            }
            if offset > 0 && delta < 0.49 {
                assert_eq!(choice, MechanismChoice::Gaussian, "s {s}, offset {offset}");
            }
        }
    }
}

#[test]
fn variance_formulas_monotone_in_epsilon() {
    // Less privacy budget (smaller ε) must never reduce variance.
    for k_blocks in [4usize, 9, 21, 39] {
        for s in [1usize, 3, 7] {
            for dist in [1u32, 9, 49] {
                let k = k_blocks * s;
                let dist_sq = f64::from(dist);
                let v_tight = var_sjlt_laplace(k, s, 0.5, dist_sq, 0.0);
                let v_loose = var_sjlt_laplace(k, s, 2.0, dist_sq, 0.0);
                assert!(v_tight > v_loose, "k {k}, s {s}, dist² {dist_sq}");
                let g_tight = var_sjlt_gaussian(k, 0.5, 1e-6, dist_sq, 0.0);
                let g_loose = var_sjlt_gaussian(k, 2.0, 1e-6, dist_sq, 0.0);
                assert!(g_tight > g_loose, "k {k}, s {s}, dist² {dist_sq}");
            }
        }
    }
}

#[test]
fn estimator_symmetry() {
    for seed in [0u64, 7, 99, 256, 433] {
        let d = 48;
        let cfg = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.0)
            .build()
            .expect("config");
        let sk = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(seed)).expect("sjlt");
        let x: Vec<f64> = (0..d).map(|i| (i % 3) as f64).collect();
        let y: Vec<f64> = (0..d).map(|i| (i % 4) as f64).collect();
        let a = sk.sketch(&x, Seed::new(seed + 1)).expect("sketch");
        let b = sk.sketch(&y, Seed::new(seed + 2)).expect("sketch");
        let ab = sk.estimate_sq_distance(&a, &b).expect("estimate");
        let ba = sk.estimate_sq_distance(&b, &a).expect("estimate");
        assert!((ab - ba).abs() < 1e-9, "seed {seed}");
        // Self-distance estimates the noise-only quantity: debiased to ~0
        // in expectation, and exactly 0 against an identical release.
        let a2 = sk.sketch(&x, Seed::new(seed + 1)).expect("sketch");
        let self_d = sk.estimate_sq_distance(&a, &a2).expect("estimate");
        assert!((self_d + sk.debias_constant()).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn trait_debias_matches_construction_debias() {
    // The trait's debias constant agrees with each construction's own
    // bookkeeping: estimating between two identical releases returns
    // exactly −debias_constant.
    let d = 48;
    let cfg = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0)
        .delta(1e-6)
        .build()
        .expect("config");
    let x = vec![1.0; d];
    for construction in Construction::all() {
        let sk = AnySketcher::new(construction, &cfg, Seed::new(3)).expect("construct");
        let a = sk.sketch(&x, Seed::new(8)).expect("sketch");
        let b = sk.sketch(&x, Seed::new(8)).expect("sketch");
        let self_d = sk.estimate_sq_distance(&a, &b).expect("estimate");
        assert!(
            (self_d + sk.debias_constant()).abs() < 1e-6 * (1.0 + sk.debias_constant()),
            "{construction:?}: self estimate {self_d} vs −{}",
            sk.debias_constant()
        );
    }
}
