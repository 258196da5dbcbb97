//! E4 — the §7/Note 5 δ-crossover between Laplace and Gaussian noise.
//!
//! The paper: the SJLT-Laplace estimator has lower variance than the
//! Gaussian-noise alternatives exactly when `δ < e^{−Θ(s)}` (for the
//! baseline comparison, `δ < e^{−s} = β^{O(1/α)}`). We sweep δ, print
//! both predicted variances, locate the crossover δ*, verify
//! `ln(1/δ*) = Θ(s)`, and confirm the ordering empirically at one δ on
//! each side.

use crate::experiments::scaled;
use crate::runner::{mc_summary, CheckList};
use crate::workload::pair_at_distance;
use dp_core::config::SketchConfig;
use dp_core::sketcher::{AnySketcher, Construction, PrivateSketcher};
use dp_core::variance::{delta_crossover, var_sjlt_gaussian, var_sjlt_laplace};
use dp_hashing::Seed;
use dp_linalg::vector::{l4_norm, sq_distance};
use dp_stats::table::fmt_g;
use dp_stats::Table;

/// Run the experiment; returns overall pass.
pub fn run(scale: f64) -> bool {
    println!("== E4: delta crossover (Laplace vs Gaussian noise) ==");
    let mut checks = CheckList::new();
    let d = 64;
    let (x, y) = pair_at_distance(d, 4.0, Seed::new(0xE4));
    let true_d = sq_distance(&x, &y);
    let z: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a - b).collect();
    let l4 = l4_norm(&z);
    let eps = 1.0;

    let cfg = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(eps)
        .build()
        .expect("config");
    let (k, s) = (cfg.k_sjlt(), cfg.s());
    println!("k = {k}, s = {s}, e^(-s) = {:.3e}", (-(s as f64)).exp());

    // Predicted variance sweep.
    let mut table = Table::new(vec!["delta", "var(laplace)", "var(gaussian)", "winner"]);
    let lap = var_sjlt_laplace(k, s, eps, true_d, l4);
    for exp10 in [1i32, 2, 4, 8, 12, 16, 20, 28, 36, 44, 52, 60] {
        let delta = 10f64.powi(-exp10);
        let gau = var_sjlt_gaussian(k, eps, delta, true_d, l4);
        table.row(vec![
            format!("1e-{exp10}"),
            fmt_g(lap),
            fmt_g(gau),
            if lap < gau { "laplace" } else { "gaussian" }.to_string(),
        ]);
    }
    println!("{table}");

    let dstar = delta_crossover(k, s, eps, true_d, l4);
    let ln_inv = -dstar.ln();
    println!("predicted crossover delta* = {dstar:.3e} (ln(1/delta*) = {ln_inv:.2}, s = {s})");
    // Θ(s) with generous constants: the exact constant depends on the
    // moment ratios (Laplace E[η⁴]/E[η²]² = 6 vs Gaussian 3).
    checks.check(
        &format!(
            "crossover shape: ln(1/delta*)/s = {:.2} in [0.3, 12]",
            ln_inv / s as f64
        ),
        (0.3..=12.0).contains(&(ln_inv / s as f64)),
    );

    // Empirical confirmation on both sides of δ*.
    let reps = scaled(2500, scale);
    let below = (dstar.ln() * 3.0).exp().max(1e-300); // δ = δ*³ ≪ δ*
    let above = dstar.sqrt().min(0.4); // δ = √δ* ≫ δ*
    let emp = |delta: Option<f64>, noise_tag: &str| {
        let cfg = {
            let mut b = SketchConfig::builder()
                .input_dim(d)
                .alpha(0.25)
                .beta(0.05)
                .epsilon(eps);
            if let Some(dl) = delta {
                b = b.delta(dl);
            }
            b.build().expect("config")
        };
        mc_summary(reps, |rep| {
            let construction = if noise_tag == "laplace" {
                Construction::SjltLaplace
            } else {
                Construction::SjltGaussian
            };
            let sk = AnySketcher::new(construction, &cfg, Seed::new(rep)).expect("sjlt");
            let a = sk.sketch(&x, Seed::new(11_000_000 + rep)).expect("sketch");
            let b = sk.sketch(&y, Seed::new(12_000_000 + rep)).expect("sketch");
            sk.estimate_sq_distance(&a, &b).expect("estimate")
        })
    };
    let v_lap = emp(None, "laplace").variance();
    let v_gau_below = emp(Some(below), "gaussian").variance();
    let v_gau_above = emp(Some(above), "gaussian").variance();
    println!(
        "empirical: var(lap) = {}, var(gau, delta={below:.1e}) = {}, var(gau, delta={above:.1e}) = {}",
        fmt_g(v_lap),
        fmt_g(v_gau_below),
        fmt_g(v_gau_above)
    );
    checks.check(
        "empirical: laplace wins below the crossover",
        v_lap < v_gau_below,
    );
    checks.check(
        "empirical: gaussian wins above the crossover",
        v_gau_above < v_lap,
    );

    // Note 5 agreement: the config rule flips exactly at e^{-s}.
    let thresh = cfg.laplace_delta_threshold();
    let choice_below = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(eps)
        .delta(thresh * 0.5)
        .build()
        .expect("config")
        .sjlt_noise_choice();
    let choice_above = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(eps)
        .delta((thresh * 2.0).min(0.4))
        .build()
        .expect("config")
        .sjlt_noise_choice();
    checks.check(
        "Note 5 rule flips at e^(-s)",
        format!("{choice_below:?}") == "Laplace" && format!("{choice_above:?}") == "Gaussian",
    );

    checks.finish("E4")
}
