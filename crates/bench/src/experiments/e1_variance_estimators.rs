//! E1/E2/E3 — unbiasedness and variance of every estimator
//! (Theorems 2 and 3, Corollaries 1–2, Lemma 8).
//!
//! For each construction we Monte-Carlo the estimator over fresh public
//! seeds and noise seeds, then gate:
//! * the empirical mean against the true `‖x − y‖²` (bias z-score),
//! * the empirical variance against the paper's closed form (exact forms
//!   within 20%; bounds must not be exceeded by more than MC slack).

use crate::experiments::scaled;
use crate::runner::{mc_summary, CheckList};
use crate::workload::pair_at_distance;
use dp_core::config::SketchConfig;
use dp_core::sketcher::{AnySketcher, Construction, PrivateSketcher, SigmaCalibration};
use dp_core::variance::{var_sjlt_gaussian, var_sjlt_laplace};
use dp_hashing::Seed;
use dp_linalg::vector::{l4_norm, sq_distance};
use dp_stats::table::fmt_g;
use dp_stats::Table;

/// Run the experiment; returns overall pass.
pub fn run(scale: f64) -> bool {
    println!("== E1/E2/E3: estimator unbiasedness and variance ==");
    let mut checks = CheckList::new();
    let d = 64;
    let dist_sq = 9.0;
    let (x, y) = pair_at_distance(d, dist_sq, Seed::new(0xE1));
    let true_d = sq_distance(&x, &y);
    let z: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a - b).collect();
    let l4 = l4_norm(&z);
    let reps = scaled(3000, scale);

    let cfg = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(1.0)
        .delta(1e-6)
        .build()
        .expect("valid config");
    let cfg_pure = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(1.0)
        .build()
        .expect("valid config");

    let mut table = Table::new(vec![
        "estimator",
        "mean",
        "true",
        "bias-z",
        "emp-var",
        "pred-var",
        "ratio",
    ]);

    let gate = |name: &str,
                table: &mut Table,
                checks: &mut CheckList,
                summary: dp_stats::Summary,
                predicted: f64,
                exact: bool| {
        let bias_z = (summary.mean() - true_d).abs() / summary.stderr();
        let ratio = summary.variance() / predicted;
        table.row(vec![
            name.to_string(),
            fmt_g(summary.mean()),
            fmt_g(true_d),
            format!("{bias_z:.2}"),
            fmt_g(summary.variance()),
            fmt_g(predicted),
            format!("{ratio:.3}"),
        ]);
        checks.check(
            &format!("{name}: unbiased (|z| = {bias_z:.2} < 5)"),
            bias_z < 5.0,
        );
        if exact {
            checks.check(
                &format!("{name}: variance matches closed form (ratio {ratio:.3})"),
                (0.75..=1.25).contains(&ratio),
            );
        } else {
            checks.check(
                &format!("{name}: variance within bound (ratio {ratio:.3} <= 1.15)"),
                ratio <= 1.15,
            );
        }
    };

    // E1: Kenthapadi baseline (Theorem 2, exact variance).
    let kenthapadi = Construction::Kenthapadi(SigmaCalibration::ExactSensitivity);
    let v_ken = AnySketcher::new(kenthapadi, &cfg, Seed::new(0))
        .expect("baseline")
        .predicted_variance(true_d)
        .predicted_variance;
    let s_ken = mc_summary(reps, |rep| {
        let b = AnySketcher::new(kenthapadi, &cfg, Seed::new(rep)).expect("baseline");
        let a = b.sketch(&x, Seed::new(1_000_000 + rep)).expect("sketch");
        let c = b.sketch(&y, Seed::new(2_000_000 + rep)).expect("sketch");
        b.estimate_sq_distance(&a, &c).expect("estimate")
    });
    gate(
        "kenthapadi(exact)",
        &mut table,
        &mut checks,
        s_ken,
        v_ken,
        true,
    );

    // E2: SJLT + Laplace (Theorem 3, exact Lemma 3 variance).
    let (k_sj, s_sj) = (cfg_pure.k_sjlt(), cfg_pure.s());
    let s_lap = mc_summary(reps, |rep| {
        let s =
            AnySketcher::new(Construction::SjltLaplace, &cfg_pure, Seed::new(rep)).expect("sjlt");
        let a = s.sketch(&x, Seed::new(3_000_000 + rep)).expect("sketch");
        let b = s.sketch(&y, Seed::new(4_000_000 + rep)).expect("sketch");
        s.estimate_sq_distance(&a, &b).expect("estimate")
    });
    gate(
        "sjlt+laplace",
        &mut table,
        &mut checks,
        s_lap,
        var_sjlt_laplace(k_sj, s_sj, 1.0, true_d, l4),
        true,
    );

    // E2b: SJLT + Gaussian (§6.2.3 variant, exact Lemma 3 variance).
    let s_gau = mc_summary(reps, |rep| {
        let s = AnySketcher::new(Construction::SjltGaussian, &cfg, Seed::new(rep)).expect("sjlt");
        let a = s.sketch(&x, Seed::new(5_000_000 + rep)).expect("sketch");
        let b = s.sketch(&y, Seed::new(6_000_000 + rep)).expect("sketch");
        s.estimate_sq_distance(&a, &b).expect("estimate")
    });
    gate(
        "sjlt+gaussian",
        &mut table,
        &mut checks,
        s_gau,
        var_sjlt_gaussian(cfg.k_sjlt(), 1.0, 1e-6, true_d, l4),
        true,
    );

    // E3: FJLT input perturbation (Lemma 8, bound).
    let fjlt_in_bound = AnySketcher::new(Construction::FjltInput, &cfg, Seed::new(0))
        .expect("fjlt")
        .predicted_variance(true_d)
        .predicted_variance;
    let s_fin = mc_summary(reps.min(1500), |rep| {
        let f = AnySketcher::new(Construction::FjltInput, &cfg, Seed::new(rep)).expect("fjlt");
        let a = f.sketch(&x, Seed::new(7_000_000 + rep)).expect("sketch");
        let b = f.sketch(&y, Seed::new(8_000_000 + rep)).expect("sketch");
        f.estimate_sq_distance(&a, &b).expect("estimate")
    });
    gate(
        "fjlt-input",
        &mut table,
        &mut checks,
        s_fin,
        fjlt_in_bound,
        false,
    );

    // E3b: FJLT output perturbation (Corollary 1, bound).
    let fjlt_out_bound = AnySketcher::new(Construction::FjltOutput, &cfg, Seed::new(0))
        .expect("fjlt")
        .predicted_variance(true_d)
        .predicted_variance;
    let s_fout = mc_summary(reps.min(1500), |rep| {
        let f = AnySketcher::new(Construction::FjltOutput, &cfg, Seed::new(rep)).expect("fjlt");
        let a = f.sketch(&x, Seed::new(9_000_000 + rep)).expect("sketch");
        let b = f.sketch(&y, Seed::new(10_000_000 + rep)).expect("sketch");
        f.estimate_sq_distance(&a, &b).expect("estimate")
    });
    gate(
        "fjlt-output",
        &mut table,
        &mut checks,
        s_fout,
        fjlt_out_bound,
        false,
    );

    println!("{table}");

    // §7 ordering at δ = 1e-6 > e^{-s}: Gaussian-noise SJLT should beat
    // Laplace-noise SJLT; and the iid baseline always beats fjlt-input.
    checks.check(
        "ordering: sjlt+gaussian var < sjlt+laplace var at moderate delta",
        s_gau.variance() < s_lap.variance(),
    );
    // The paper's "Kenthapadi always beats fjlt-input" assumes k < d
    // (§7); our d = 64 < k here, so check the claim where it applies —
    // predicted variances at d = 4096 with the same (ε, δ).
    {
        use dp_core::variance::var_fjlt_input_bound;
        let big_d = 4096;
        let sigma = dp_core::variance::gaussian_sigma(1.0, 1.0, 1e-6);
        let q = cfg.jl().fjlt_q(big_d);
        let v_fjlt = var_fjlt_input_bound(cfg.k(), big_d, q, sigma, true_d);
        checks.check(
            "ordering (k < d regime): kenthapadi var < fjlt-input var",
            v_ken < v_fjlt,
        );
    }

    checks.finish("E1/E2/E3")
}
