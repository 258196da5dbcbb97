//! E5 — sketching-time comparison and the §7 Eq. (5) window.
//!
//! Claims reproduced:
//! * SJLT sketches dense input in `O(s·d + k)` → log-log slope ≈ 1 in d;
//! * FJLT sketches in `O(d log d + nnz(P))` → slope slightly above 1;
//! * the i.i.d. dense transform costs `O(k·d)` → slope ≈ 1 but with a
//!   `k×` larger constant, making it the slowest for JL-sized k;
//! * sparse input: SJLT's `O(s·‖x‖₀ + k)` beats all dense paths;
//! * Eq. (5): FJLT is faster than SJLT for
//!   `ln²(1/β)/α < d < e^s` — we check the measured crossover direction
//!   at the window edges that fit in memory.

use crate::runner::{time_per_op, CheckList};
use crate::workload::{gaussian_vec, sparse_vec};
use dp_core::config::SketchConfig;
use dp_core::sketcher::{sketch_batch_par, AnySketcher, Construction};
use dp_core::variance::fjlt_faster_window;
use dp_core::Parallelism;
use dp_hashing::Seed;
use dp_stats::loglog_slope;
use dp_stats::Table;
use dp_transforms::fjlt::Fjlt;
use dp_transforms::gaussian_iid::GaussianIid;
use dp_transforms::sjlt::Sjlt;
use dp_transforms::LinearTransform;

/// Run the experiment; returns overall pass.
pub fn run(scale: f64) -> bool {
    println!("== E5: sketch timing (iid vs FJLT vs SJLT) ==");
    let mut checks = CheckList::new();
    let cfg = SketchConfig::builder()
        .input_dim(1024) // placeholder; d varies below
        .alpha(0.25)
        .beta(0.05)
        .epsilon(1.0)
        .build()
        .expect("config");
    let (k, s, t_indep) = (cfg.k_sjlt(), cfg.s(), cfg.jl().independence());
    println!("k = {k}, s = {s}");
    let (win_lo, win_hi) = fjlt_faster_window(cfg.jl());
    println!("Eq.(5) predicted FJLT-faster window: ({win_lo:.1}, {win_hi:.3e})");

    let iters = |d: usize| -> u32 {
        let base = (2e7 / d as f64).clamp(3.0, 200.0) * scale.max(0.1);
        base as u32
    };

    let ds = [1usize << 10, 1 << 12, 1 << 14, 1 << 16];
    let mut table = Table::new(vec![
        "d",
        "iid ns/op",
        "fjlt ns/op",
        "sjlt ns/op",
        "sjlt(first) ns/op",
        "sjlt-sparse(nnz=64) ns/op",
    ]);
    let (mut t_sjlt, mut t_fjlt, mut t_iid) = (Vec::new(), Vec::new(), Vec::new());
    for &d in &ds {
        let x = gaussian_vec(d, Seed::new(d as u64));
        let xs = sparse_vec(d, 64, Seed::new(d as u64 + 1));
        let sjlt = Sjlt::new(d, k, s, t_indep, Seed::new(7)).expect("sjlt");
        let fjlt = Fjlt::new(d, k, cfg.jl(), Seed::new(7)).expect("fjlt");
        let mut out = vec![0.0; k];
        // Warm: the column table is resolved by the warm-up applies.
        let ts = time_per_op(iters(d), || {
            sjlt.apply_into(&x, &mut out).expect("apply");
        });
        // First use: a fresh transform's first dense apply, which
        // hashes all d·s entries into its column table.
        let tsh = time_per_op(iters(d).min(40), || {
            let fresh = Sjlt::new(d, k, s, t_indep, Seed::new(7)).expect("sjlt");
            fresh.apply_into(&x, &mut out).expect("apply");
        });
        let tf = time_per_op(iters(d), || {
            fjlt.apply_into(&x, &mut out).expect("apply");
        });
        let tsp = time_per_op(iters(d).saturating_mul(4).max(8), || {
            let _ = sjlt.apply_sparse(&xs).expect("apply");
        });
        // The dense iid transform needs O(dk) memory; cap its sweep.
        let ti = if d <= 1 << 14 {
            let iid = GaussianIid::new(d, k, Seed::new(7)).expect("iid");
            time_per_op(iters(d).min(20), || {
                iid.apply_into(&x, &mut out).expect("apply");
            })
        } else {
            f64::NAN
        };
        table.row(vec![
            d.to_string(),
            if ti.is_nan() {
                "(skipped: O(dk) memory)".to_string()
            } else {
                format!("{ti:.0}")
            },
            format!("{tf:.0}"),
            format!("{ts:.0}"),
            format!("{tsh:.0}"),
            format!("{tsp:.0}"),
        ]);
        t_sjlt.push(ts);
        t_fjlt.push(tf);
        if !ti.is_nan() {
            t_iid.push(ti);
        }
    }
    println!("{table}");

    let dsf: Vec<f64> = ds.iter().map(|&d| d as f64).collect();
    let slope_sjlt = loglog_slope(&dsf, &t_sjlt);
    let slope_fjlt = loglog_slope(&dsf, &t_fjlt);
    let slope_iid = loglog_slope(&dsf[..t_iid.len()], &t_iid);
    println!("log-log slopes in d: sjlt {slope_sjlt:.2}, fjlt {slope_fjlt:.2}, iid {slope_iid:.2}");
    checks.check(
        &format!("sjlt time ~ linear in d (slope {slope_sjlt:.2} in [0.6, 1.35])"),
        (0.6..=1.35).contains(&slope_sjlt),
    );
    checks.check(
        &format!("fjlt time ~ d log d (slope {slope_fjlt:.2} in [0.7, 1.6])"),
        (0.7..=1.6).contains(&slope_fjlt),
    );
    checks.check(
        &format!("iid time ~ linear in d (slope {slope_iid:.2} in [0.6, 1.5])"),
        (0.6..=1.5).contains(&slope_iid),
    );
    // Constant-factor ordering at the largest common d: iid (O(kd)) must
    // be slowest; with s ≪ k the SJLT beats it by roughly k/s.
    checks.check(
        "iid is the slowest dense path at d = 2^14",
        t_iid.last().expect("measured") > t_sjlt.get(2).expect("measured")
            && t_iid.last().expect("measured") > t_fjlt.get(2).expect("measured"),
    );
    // Sparse path: at the largest d, the sparse SJLT apply (nnz = 64)
    // must be much cheaper than the dense SJLT apply.
    checks.check("sjlt sparse path wins for sparse inputs", {
        let d = *ds.last().expect("nonempty");
        let xs = sparse_vec(d, 64, Seed::new(d as u64 + 1));
        let sjlt = Sjlt::new(d, k, s, t_indep, Seed::new(7)).expect("sjlt");
        let x = gaussian_vec(d, Seed::new(d as u64));
        let mut out = vec![0.0; k];
        let tsp = time_per_op(32, || {
            let _ = sjlt.apply_sparse(&xs).expect("apply");
        });
        let ts = time_per_op(4, || {
            sjlt.apply_into(&x, &mut out).expect("apply");
        });
        tsp < ts
    });
    // Eq. (5) direction: inside the window (d = 2^14 < e^s for our s)
    // the FJLT should not be dramatically slower than the SJLT; below the
    // lower edge (d small) the SJLT wins. We check the *trend*: the
    // fjlt/sjlt time ratio must decrease as d grows into the window.
    let ratio_small = t_fjlt[0] / t_sjlt[0];
    let ratio_large = t_fjlt[t_fjlt.len() - 1] / t_sjlt[t_sjlt.len() - 1];
    println!("fjlt/sjlt time ratio: d=2^10 -> {ratio_small:.2}, d=2^16 -> {ratio_large:.2}");
    checks.check(
        "Eq.(5) trend: fjlt/sjlt ratio shrinks as d grows into the window",
        ratio_large < ratio_small,
    );

    // Batch-parallel sketching through the Parallelism knob: the
    // data-parallel sketch_batch must be bit-identical to the sequential
    // reference, and on multi-core hosts it should not lose time.
    let par = Parallelism::from_env();
    println!(
        "-- sketch_batch parallelism: {} worker(s) (DP_THREADS) --",
        par.threads()
    );
    {
        let d = 1 << 12;
        let batch_cfg = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.25)
            .beta(0.05)
            .epsilon(1.0)
            .build()
            .expect("config");
        let sk =
            AnySketcher::new(Construction::SjltAuto, &batch_cfg, Seed::new(7)).expect("sketcher");
        let rows_n = (64.0 * scale.max(0.1)).max(8.0) as usize;
        let rows: Vec<Vec<f64>> = (0..rows_n)
            .map(|r| gaussian_vec(d, Seed::new(4000 + r as u64)))
            .collect();
        let seq =
            sketch_batch_par(&sk, &rows, Seed::new(5), &Parallelism::sequential()).expect("batch");
        let par_batch = sketch_batch_par(&sk, &rows, Seed::new(5), &par).expect("batch");
        checks.check(
            "parallel sketch_batch is bit-identical to sequential",
            seq == par_batch,
        );
        let t_seq = time_per_op(3, || {
            let _ = sketch_batch_par(&sk, &rows, Seed::new(5), &Parallelism::sequential())
                .expect("batch");
        });
        let t_par = time_per_op(3, || {
            let _ = sketch_batch_par(&sk, &rows, Seed::new(5), &par).expect("batch");
        });
        println!(
            "sketch_batch ({rows_n} rows, d = {d}): sequential {:.2e} ns, {} threads {:.2e} ns \
             (speedup {:.2}x)",
            t_seq,
            par.threads(),
            t_par,
            t_seq / t_par
        );
        // The speedup is informational only: a pass/fail wall-clock gate
        // would flake on loaded or oversubscribed hosts. Correctness
        // (bit-identity above) is the gated property; the perf
        // trajectory is tracked by bench_pairwise / BENCH_pairwise.json.
    }

    checks.finish("E5")
}
