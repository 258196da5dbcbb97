//! E7 — empirical privacy-loss audit (Lemmas 1–2, Theorem 3 item 3).
//!
//! On the worst-case neighboring pair `x′ = x + e_j` we sample releases
//! and compute the exact privacy-loss random variable (the noise
//! densities are known). Gates:
//!
//! * SJLT + Laplace: the loss is **surely** ≤ ε (pure DP) — max over all
//!   samples must not exceed ε;
//! * SJLT/iid + Gaussian: `P[loss > ε]` must match the analytic tail and
//!   stay ≤ δ;
//! * the unsound `AssumedUnit` calibration (§2.1.1's criticism): its loss
//!   tail, computed analytically from the realized ∆₂, exceeds δ whenever
//!   `∆₂ > 1` — we report how often that happens across seeds.

use crate::experiments::scaled;
use crate::runner::{mc_summary, CheckList};
use crate::workload::neighboring_pair;
use dp_core::config::SketchConfig;
use dp_core::sketcher::{AnySketcher, Construction, SigmaCalibration};
use dp_hashing::Seed;
use dp_noise::gaussian::Gaussian;
use dp_noise::laplace::Laplace;
use dp_stats::audit::{gaussian_loss_tail, LossAudit};

/// Run the experiment; returns overall pass.
pub fn run(scale: f64) -> bool {
    println!("== E7: privacy-loss audit on worst-case neighbors ==");
    let mut checks = CheckList::new();
    let d = 64;
    let eps = 0.8;
    let delta = 1e-4;
    let trials = scaled(60_000, scale);
    let (x, xp) = neighboring_pair(d, 7, Seed::new(0xE7));

    // --- SJLT + Laplace: pure ε-DP, loss surely ≤ ε. ---
    let cfg_pure = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(eps)
        .build()
        .expect("config");
    let sk = AnySketcher::new(Construction::SjltLaplace, &cfg_pure, Seed::new(1)).expect("sjlt");
    let (sx, sxp) = (
        sk.project(&x).expect("apply"),
        sk.project(&xp).expect("apply"),
    );
    let b = (cfg_pure.s() as f64).sqrt() / eps; // Lap scale ∆₁/ε
    let lap = Laplace::new(b).expect("scale");
    let mut audit = LossAudit::new();
    let mut rng = Seed::new(0xA1).rng();
    let mut out = vec![0.0; sx.len()];
    for _ in 0..trials {
        for (o, &v) in out.iter_mut().zip(&sx) {
            *o = v + lap.sample(&mut rng);
        }
        audit.push_output(&out, &sx, &sxp, |v| lap.ln_pdf(v));
    }
    println!(
        "sjlt+laplace: max loss {:.4} (eps = {eps}), P[loss > eps] = {:.1e}",
        audit.max_loss(),
        audit.fraction_exceeding(eps)
    );
    checks.check(
        &format!("pure DP: max loss {:.4} <= eps {eps}", audit.max_loss()),
        audit.max_loss() <= eps + 1e-9,
    );
    checks.check(
        "pure DP: no sample exceeds eps",
        audit.fraction_exceeding(eps) == 0.0,
    );

    // --- SJLT + Gaussian: tail matches the analytic form and ≤ δ. ---
    let cfg_apx = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(eps)
        .delta(delta)
        .build()
        .expect("config");
    let skg = AnySketcher::new(Construction::SjltGaussian, &cfg_apx, Seed::new(2)).expect("sjlt");
    let (gx, gxp) = (
        skg.project(&x).expect("apply"),
        skg.project(&xp).expect("apply"),
    );
    let sigma = eps.recip() * (2.0 * (1.25f64 / delta).ln()).sqrt(); // ∆₂ = 1
    let gauss = Gaussian::new(sigma).expect("sigma");
    let mut audit_g = LossAudit::new();
    let mut rng = Seed::new(0xA2).rng();
    let mut out = vec![0.0; gx.len()];
    for _ in 0..trials {
        for (o, &v) in out.iter_mut().zip(&gx) {
            *o = v + gauss.sample(&mut rng);
        }
        audit_g.push_output(&out, &gx, &gxp, |v| gauss.ln_pdf(v));
    }
    let diff_norm = dp_linalg::vector::l2_distance(&gx, &gxp);
    let analytic = gaussian_loss_tail(diff_norm, sigma, eps);
    let measured = audit_g.fraction_exceeding(eps);
    println!(
        "sjlt+gaussian: P[loss > eps] measured {measured:.2e}, analytic {analytic:.2e}, delta {delta:.1e} (||S(x-x')|| = {diff_norm:.3})"
    );
    checks.check(
        &format!("approx DP: measured tail {measured:.2e} <= delta {delta:.1e}"),
        measured <= delta * 10.0 + 5.0 / trials as f64, // MC slack on a tiny tail
    );
    checks.check(
        "approx DP: tail within 10x of the analytic value (or both ~ 0)",
        measured <= analytic * 10.0 + 5.0 / trials as f64,
    );

    // --- AssumedUnit calibration: unsound whenever realized ∆₂ > 1. ---
    let unsound_frac = mc_summary(scaled(200, scale), |rep| {
        let assumed_unit = Construction::Kenthapadi(SigmaCalibration::AssumedUnit);
        let b = AnySketcher::new(assumed_unit, &cfg_apx, Seed::new(rep)).expect("baseline");
        f64::from(u8::from(!b.calibration_is_sound()))
    });
    println!(
        "assumed-unit calibration unsound for {:.1}% of seeds (realized Delta2 > 1)",
        100.0 * unsound_frac.mean()
    );
    checks.check(
        "the Section 2.1.1 criticism is observable: AssumedUnit fails for some seeds",
        unsound_frac.mean() > 0.0,
    );
    // Exact-sensitivity calibration is always sound.
    let sound_frac = mc_summary(scaled(100, scale), |rep| {
        let exact = Construction::Kenthapadi(SigmaCalibration::ExactSensitivity);
        let b = AnySketcher::new(exact, &cfg_apx, Seed::new(rep)).expect("baseline");
        f64::from(u8::from(b.calibration_is_sound()))
    });
    checks.check(
        "exact-sensitivity calibration is always sound",
        (sound_frac.mean() - 1.0).abs() < 1e-12,
    );

    checks.finish("E7")
}
