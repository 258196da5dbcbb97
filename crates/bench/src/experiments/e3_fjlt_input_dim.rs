//! E3 (extended) — the d-dependence of the input-perturbed FJLT and the
//! q-density ablation.
//!
//! §7's key structural point: perturbing the *input* (Lemma 8) costs
//! noise variance that grows with `d` (`O(dσ²‖z‖² + d²σ⁴/k)`), while
//! output-perturbed constructions (SJLT, Corollary 1, Kenthapadi) are
//! d-free. We sweep `d` at fixed `k` and fit the growth exponent, then
//! ablate the FJLT density constant `q` to show the Lemma 11 floor
//! matters for variance but the paper's `q = Θ(ln²(1/β)/d)` keeps `P`
//! sparse.

use crate::experiments::scaled;
use crate::runner::{mc_summary, CheckList};
use crate::workload::pair_at_distance;
use dp_core::config::SketchConfig;
use dp_core::sketcher::{AnySketcher, Construction, PrivateSketcher};
use dp_hashing::Seed;
use dp_linalg::vector::sq_distance;
use dp_stats::table::fmt_g;
use dp_stats::{loglog_slope, Table};
use dp_transforms::fjlt::Fjlt;
use dp_transforms::JlParams;

/// Run the experiment; returns overall pass.
pub fn run(scale: f64) -> bool {
    println!("== E3x: input-perturbed FJLT d-dependence + q ablation ==");
    let mut checks = CheckList::new();
    let reps = scaled(600, scale);
    let dist_sq = 16.0;

    // --- d sweep at fixed (alpha, beta) hence fixed k. ---
    let ds = [64usize, 256, 1024, 4096];
    let mut table = Table::new(vec![
        "d",
        "fjlt-input emp var",
        "fjlt-input bound",
        "sjlt+laplace emp var",
    ]);
    let (mut v_fin, mut v_sj) = (Vec::new(), Vec::new());
    for &d in &ds {
        let cfg = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(2.0)
            .delta(1e-6)
            .build()
            .expect("config");
        let (x, y) = pair_at_distance(d, dist_sq, Seed::new(d as u64));
        let true_d = sq_distance(&x, &y);
        let fin = mc_summary(reps, |rep| {
            let f = AnySketcher::new(Construction::FjltInput, &cfg, Seed::new(rep)).expect("fjlt");
            let a = f.sketch(&x, Seed::new(41_000_000 + rep)).expect("sketch");
            let b = f.sketch(&y, Seed::new(42_000_000 + rep)).expect("sketch");
            f.estimate_sq_distance(&a, &b).expect("estimate")
        });
        let sj = mc_summary(reps, |rep| {
            let s =
                AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(rep)).expect("sjlt");
            let a = s.sketch(&x, Seed::new(43_000_000 + rep)).expect("sketch");
            let b = s.sketch(&y, Seed::new(44_000_000 + rep)).expect("sketch");
            s.estimate_sq_distance(&a, &b).expect("estimate")
        });
        let bound = AnySketcher::new(Construction::FjltInput, &cfg, Seed::new(0))
            .expect("fjlt")
            .predicted_variance(true_d)
            .predicted_variance;
        table.row(vec![
            d.to_string(),
            fmt_g(fin.variance()),
            fmt_g(bound),
            fmt_g(sj.variance()),
        ]);
        checks.check(
            &format!("d={d}: fjlt-input variance within its Lemma 8 bound"),
            fin.variance() <= bound * 1.3,
        );
        v_fin.push(fin.variance());
        v_sj.push(sj.variance());
    }
    println!("{table}");
    let dsf: Vec<f64> = ds.iter().map(|&d| d as f64).collect();
    let slope_fin = loglog_slope(&dsf, &v_fin);
    let slope_sj = loglog_slope(&dsf, &v_sj);
    println!("variance slopes in d: fjlt-input {slope_fin:.2}, sjlt {slope_sj:.2}");
    checks.check(
        &format!("fjlt-input variance grows ~ d^2/k-to-d (slope {slope_fin:.2} in [0.8, 2.4])"),
        (0.8..=2.4).contains(&slope_fin),
    );
    checks.check(
        &format!("sjlt variance is d-free (slope {slope_sj:.2} in [-0.4, 0.4])"),
        slope_sj.abs() <= 0.4,
    );
    checks.check(
        "at d = 4096 the sjlt variance beats fjlt-input by > 10x (Section 7 ordering)",
        v_sj.last().expect("nonempty") * 10.0 < *v_fin.last().expect("nonempty"),
    );

    // --- q ablation: density of P vs run-time cost structure. ---
    let d = 4096usize;
    let params = JlParams::new(0.3, 0.1).expect("params");
    let k = params.k();
    let q_paper = params.fjlt_q(d);
    let mut table2 = Table::new(vec!["q", "nnz(P)", "nnz frac"]);
    for q in [q_paper, (q_paper * 8.0).min(1.0), 1.0] {
        let f = Fjlt::with_density(d, k, q, Seed::new(5)).expect("fjlt");
        table2.row(vec![
            format!("{q:.4}"),
            f.p_nnz().to_string(),
            format!("{:.4}", f.p_nnz() as f64 / (k * d) as f64),
        ]);
    }
    println!("{table2}");
    let f_paper = Fjlt::with_density(d, k, q_paper, Seed::new(5)).expect("fjlt");
    checks.check(
        &format!(
            "paper q = {:.4} keeps P sparse (density {:.4} < 0.2)",
            q_paper,
            f_paper.p_nnz() as f64 / (k * d) as f64
        ),
        (f_paper.p_nnz() as f64 / (k * d) as f64) < 0.2,
    );
    checks.check(
        "q respects the Lemma 11 floor",
        q_paper + 1e-12 >= 9.0 / (d as f64 + 9.0),
    );

    checks.finish("E3x")
}
