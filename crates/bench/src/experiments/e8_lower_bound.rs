//! E8 — the §2.4 lower-bound landscape on binary vectors.
//!
//! McGregor et al.: any two-party DP protocol for Hamming distance incurs
//! additive error `Ω̃(√k)` (k the sketch/communication size); randomized
//! response achieves `O(√d)`. For binary vectors Hamming distance equals
//! squared Euclidean distance, so our sketches play in the same arena.
//! We measure additive error (RMSE) of (a) randomized response and (b)
//! the private SJLT across `d`, and check the scalings: RR error ~ √d;
//! sketch noise-floor error ≥ c·√k/ε²-scale (the lower bound's shape).

use crate::experiments::scaled;
use crate::runner::{mc_summary, CheckList};
use crate::workload::{binary_vec, flip_bits};
use dp_core::config::SketchConfig;
use dp_core::sketcher::{AnySketcher, Construction, PrivateSketcher};
use dp_hashing::Seed;
use dp_noise::randomized_response::RandomizedResponse;
use dp_stats::{loglog_slope, Table};

/// Run the experiment; returns overall pass.
pub fn run(scale: f64) -> bool {
    println!("== E8: binary-vector additive error vs the lower bounds ==");
    let mut checks = CheckList::new();
    let eps = 1.0;
    let reps = scaled(800, scale);

    let mut table = Table::new(vec![
        "d",
        "hamming",
        "rr rmse",
        "0.5*sqrt(d)/(1-2p)^2",
        "sjlt rmse",
        "k",
        "sqrt(k)",
    ]);
    let rr = RandomizedResponse::new(eps).expect("rr");
    let ds = [256usize, 1024, 4096];
    let (mut rr_err, mut sk_err, mut sk_k) = (Vec::new(), Vec::new(), Vec::new());
    for &d in &ds {
        let h = d / 8;
        let x = binary_vec(d, d / 4, Seed::new(d as u64));
        let y = flip_bits(&x, h, Seed::new(d as u64 + 1));

        // Randomized response RMSE.
        let rr_sq = mc_summary(reps, |rep| {
            let mut rng = Seed::new(0xE8).index(rep).rng();
            let rx = rr.randomize(&x, &mut rng);
            let ry = rr.randomize(&y, &mut rng);
            let e = rr.estimate_hamming(&rx, &ry) - h as f64;
            e * e
        });
        let rr_rmse = rr_sq.mean().sqrt();

        // Private SJLT RMSE.
        let cfg = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.25)
            .beta(0.05)
            .epsilon(eps)
            .build()
            .expect("config");
        let k = cfg.k_sjlt();
        let sk_sq = mc_summary(reps, |rep| {
            let s =
                AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(rep)).expect("sjlt");
            let a = s.sketch(&x, Seed::new(21_000_000 + rep)).expect("sketch");
            let b = s.sketch(&y, Seed::new(22_000_000 + rep)).expect("sketch");
            let e = s.estimate_sq_distance(&a, &b).expect("estimate") - h as f64;
            e * e
        });
        let sk_rmse = sk_sq.mean().sqrt();
        table.row(vec![
            d.to_string(),
            h.to_string(),
            format!("{rr_rmse:.1}"),
            format!("{:.1}", rr.error_stddev_bound(d)),
            format!("{sk_rmse:.1}"),
            k.to_string(),
            format!("{:.1}", (k as f64).sqrt()),
        ]);
        rr_err.push(rr_rmse);
        sk_err.push(sk_rmse);
        sk_k.push(k as f64);
    }
    println!("{table}");

    let dsf: Vec<f64> = ds.iter().map(|&d| d as f64).collect();
    let rr_slope = loglog_slope(&dsf, &rr_err);
    println!("RR error slope in d: {rr_slope:.2} (theory 0.5)");
    checks.check(
        &format!("RR additive error ~ sqrt(d) (slope {rr_slope:.2} in [0.35, 0.65])"),
        (0.35..=0.65).contains(&rr_slope),
    );
    // RR error within its analytic bound.
    for (i, &d) in ds.iter().enumerate() {
        checks.check(
            &format!("RR rmse at d={d} within 1.5x of the 0.5*sqrt(d)/(1-2p)^2 bound"),
            rr_err[i] <= 1.5 * rr.error_stddev_bound(d),
        );
    }
    // Lower-bound shape: sketch error must be Ω(√k) — the noise floor
    // 2k·E[η²] fluctuates with stddev ≥ √(2k·(E[η⁴]+E[η²]²)) ≥ √k·2s/ε².
    // With k constant in d here (α, β fixed), the sketch error should be
    // roughly flat in d, and at least √k in magnitude.
    for (i, _) in ds.iter().enumerate() {
        checks.check(
            &format!(
                "sketch additive error {:.1} >= sqrt(k) = {:.1} (McGregor shape)",
                sk_err[i],
                sk_k[i].sqrt()
            ),
            sk_err[i] >= sk_k[i].sqrt(),
        );
    }
    // RR (error √d) loses to the sketch when h is large but wins on raw
    // additive error for moderate d — the documented trade-off: check
    // the sketch error is flat in d while RR's grows.
    let sk_slope = loglog_slope(&dsf, &sk_err);
    println!("sketch error slope in d: {sk_slope:.2} (theory ~ distance-driven, sub-0.5 here)");
    checks.check(
        &format!(
            "sketch error grows slower with d than RR error ({sk_slope:.2} < {rr_slope:.2} + 0.1)"
        ),
        sk_slope < rr_slope + 0.1,
    );

    checks.finish("E8")
}
