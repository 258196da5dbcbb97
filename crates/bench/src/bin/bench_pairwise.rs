//! Benchmark the tiled all-pairs kernel and record the perf trajectory.
//!
//! Measures `pairwise_sq_distances` over released sketches for a sweep
//! of matrix sizes, thread counts, tile sizes, and **kernel versions**
//! (`v1-scalar` / `v2-simd`), verifies every configuration is
//! bit-identical to its kernel's per-pair reference, and writes a
//! machine-readable `BENCH_pairwise.json` so successive PRs can track
//! ns/pair.
//!
//! Usage: `bench_pairwise [--quick] [--out <path>]`
//!
//! Two acceptance checks gate the exit code on any host:
//!
//! * bit identity within each kernel version, and
//! * the SIMD kernel beating the scalar one: single-thread `v2-simd`
//!   must run at ≤ 0.75× the `v1-scalar` ns/pair at the largest n. This
//!   check times the tile executor alone — `execute_tiles` over every
//!   id of the one-thread plan, on row slices extracted beforehand, the
//!   median of interleaved rounds — because a whole
//!   `pairwise_sq_distances_with_par` call adds a compatibility sweep,
//!   an `n × n` allocation and a scatter that both kernels pay alike.
//!   It is **thread-count independent** — it measures vectorization,
//!   not parallelism — so it runs (and gates) even on 1-CPU containers
//!   where the multi-thread speedup check below is skipped. The
//!   whole-call ns/pair of every configuration stays in the JSON.
//!
//! The thread speedup check (≥2× at 4 threads for n ≥ 512) still only
//! runs when the host actually has ≥ 4 hardware threads; single-core
//! hosts record the measurement and mark that check skipped.
//!
//! The run also records the **f32 wire quantization experiment**: every
//! sketch is round-tripped through the v3 (`f32` values) wire frame and
//! the quantized pairwise estimates are compared against the
//! full-precision ones and against the true squared distances — the
//! observed quantization shift is set against the rounding-model
//! prediction, and the relative estimation error is set against the
//! configured `alpha` (the paper's `(1±α)` multiplicative bound).

use dp_bench::runner::time_per_op;
use dp_bench::workload::gaussian_vec;
use dp_core::config::SketchConfig;
use dp_core::json::JsonValue;
use dp_core::kernel;
use dp_core::sketcher::{
    effective_plan, execute_tiles, pairwise_sq_distances_reference, pairwise_sq_distances_with_par,
    AnySketcher, Construction, PrivateSketcher,
};
use dp_core::{wire, KernelId, NoisySketch, Parallelism};
use dp_hashing::Seed;
use std::hint::black_box;
use std::time::Instant;

struct Measurement {
    rows: usize,
    threads: usize,
    tile: usize,
    kernel: KernelId,
    ns_per_pair: f64,
    speedup_vs_single: f64,
}

/// One N(0,1) row per index, from the shared workload generator e5 also
/// uses, so benches stay comparable across the harness.
fn gaussian_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|r| gaussian_vec(d, Seed::new(seed + r as u64)))
        .collect()
}

/// The flat `n × n` matrix of per-pair estimates under `kernel`: each
/// pair is [`kernel::sq_distance`] minus row i's debias constant,
/// mirrored, with a zero diagonal.
fn per_pair_matrix(sketches: &[NoisySketch], kernel: KernelId) -> Vec<f64> {
    let n = sketches.len();
    let mut values = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let est = sketches[i]
                .estimate_sq_distance_with(&sketches[j], kernel)
                .expect("compatible");
            values[i * n + j] = est;
            values[j * n + i] = est;
        }
    }
    values
}

/// Quartiles `(q1, median, q3)` of ns/pair for `execute_tiles` over
/// every tile of the one-thread plan, per kernel in `kernels`: one
/// warm-up, then `rounds` rounds that alternate the kernels, so host
/// drift lands on both alike.
fn tile_executor_ns_per_pair(
    sketches: &[NoisySketch],
    tile: usize,
    kernels: &[KernelId],
    rounds: usize,
) -> Vec<(f64, f64, f64)> {
    let n = sketches.len();
    let rows: Vec<&[f64]> = sketches.iter().map(NoisySketch::values).collect();
    let debias: Vec<f64> = sketches
        .iter()
        .map(|s| 2.0 * s.k() as f64 * s.noise_second_moment())
        .collect();
    let pars: Vec<Parallelism> = kernels
        .iter()
        .map(|&kid| Parallelism::new(1).with_tile(tile).with_kernel(kid))
        .collect();
    let plan = effective_plan(n, &pars[0]);
    let ids: Vec<u64> = (0..plan.tile_count() as u64).collect();
    let pairs = (n * (n - 1) / 2) as f64;
    let run = |par: &Parallelism| {
        let t0 = Instant::now();
        black_box(execute_tiles(&plan, &ids, |i| rows[i], &debias, par));
        t0.elapsed().as_nanos() as f64 / pairs
    };
    for par in &pars {
        run(par);
    }
    let mut samples = vec![Vec::with_capacity(rounds); pars.len()];
    for _ in 0..rounds {
        for (par, out) in pars.iter().zip(&mut samples) {
            out.push(run(par));
        }
    }
    samples
        .into_iter()
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            let at = |q: usize| v[(v.len() - 1) * q / 4];
            (at(1), at(2), at(3))
        })
        .collect()
}

/// The f32 wire round-trip: what a sketch's values look like after v3
/// framing (each coordinate rounded to the nearest `f32`, widened back).
fn quantize(s: &NoisySketch) -> NoisySketch {
    let values: Vec<f64> = s.values().iter().map(|&v| f64::from(v as f32)).collect();
    NoisySketch::new(
        values,
        s.transform_tag().to_string(),
        s.noise_second_moment(),
        s.noise_fourth_moment(),
    )
}

/// The f32 quantization variance experiment over `rows.len()` original
/// vectors and their released sketches. Returns the JSON record.
fn quantization_experiment(rows: &[Vec<f64>], sketches: &[NoisySketch], alpha: f64) -> JsonValue {
    let n = rows.len().min(sketches.len());
    let quantized: Vec<NoisySketch> = sketches[..n].iter().map(quantize).collect();
    // Rounding model: round-to-nearest f32 has relative error within
    // u = 2^-24, modeled uniform — per-coordinate variance u²v²/3. The
    // estimate shift Σ(a−b+δ)² − Σ(a−b)² linearizes to Σ 2(a−b)(δa−δb),
    // predicted variance Σ 4d²·u²(a² + b²)/3.
    let u = 2.0f64.powi(-24);
    let mut sum_sq_shift = 0.0f64;
    let mut sum_pred_var = 0.0f64;
    let mut rel_err_full = 0.0f64;
    let mut rel_err_quant = 0.0f64;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let true_sq: f64 = rows[i]
                .iter()
                .zip(&rows[j])
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            let full = sketches[i]
                .estimate_sq_distance(&sketches[j])
                .expect("compatible");
            let quant = quantized[i]
                .estimate_sq_distance(&quantized[j])
                .expect("compatible");
            sum_sq_shift += (quant - full) * (quant - full);
            let pred: f64 = sketches[i]
                .values()
                .iter()
                .zip(sketches[j].values())
                .map(|(a, b)| {
                    let d = a - b;
                    4.0 * d * d * u * u * (a * a + b * b) / 3.0
                })
                .sum();
            sum_pred_var += pred;
            rel_err_full += ((full - true_sq) / true_sq).abs();
            rel_err_quant += ((quant - true_sq) / true_sq).abs();
            pairs += 1;
        }
    }
    let p = pairs as f64;
    let observed_rms = (sum_sq_shift / p).sqrt();
    let predicted_rms = (sum_pred_var / p).sqrt();
    let mean_rel_full = rel_err_full / p;
    let mean_rel_quant = rel_err_quant / p;
    println!(
        "quantization: {pairs} pairs  shift rms observed {observed_rms:.3e}  \
         predicted {predicted_rms:.3e}  (ratio {:.2})",
        observed_rms / predicted_rms
    );
    println!(
        "quantization: mean |rel err| vs true distance: full {mean_rel_full:.4}  \
         f32 {mean_rel_quant:.4}  (paper alpha = {alpha})"
    );
    JsonValue::Object(vec![
        ("pairs".to_string(), JsonValue::UInt(pairs as u64)),
        ("alpha".to_string(), JsonValue::Number(alpha)),
        (
            "shift_rms_observed".to_string(),
            JsonValue::Number(observed_rms),
        ),
        (
            "shift_rms_predicted".to_string(),
            JsonValue::Number(predicted_rms),
        ),
        (
            "mean_rel_err_full".to_string(),
            JsonValue::Number(mean_rel_full),
        ),
        (
            "mean_rel_err_f32".to_string(),
            JsonValue::Number(mean_rel_quant),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_pairwise.json", String::as_str);

    let d = 256;
    let alpha = 0.3;
    let cfg = SketchConfig::builder()
        .input_dim(d)
        .alpha(alpha)
        .beta(0.1)
        .epsilon(1.0)
        .build()
        .expect("config");
    let sketcher = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(7)).expect("sketcher");
    let k = sketcher.k();
    let tag_len = sketcher.tag().len();
    let hardware = Parallelism::new(0).threads();
    println!("== bench_pairwise: tiled all-pairs kernel ==");
    println!(
        "d = {d}, k = {k}, hardware threads = {hardware}, v2 backend = {}",
        kernel::v2_backend()
    );

    let row_counts: &[usize] = if quick { &[64, 128] } else { &[128, 512] };
    let mut thread_sweep = vec![1usize, 2, 4, hardware];
    thread_sweep.sort_unstable();
    thread_sweep.dedup();
    let tile = Parallelism::from_env().tile();
    let kernels = [KernelId::V1Scalar, KernelId::V2Simd];

    let max_rows = *row_counts.iter().max().expect("nonempty");
    let rows = gaussian_rows(max_rows, d, 42);
    let sketches = sketcher.sketch_batch(&rows, Seed::new(99)).expect("batch");

    let mut measurements: Vec<Measurement> = Vec::new();
    let mut all_identical = true;
    // Whole-call single-thread ns/pair per kernel at the largest n,
    // recorded beside the kernel check.
    let mut t1_by_kernel = [f64::NAN; 2];
    for &n in row_counts {
        let subset = &sketches[..n];
        let pairs = (n * (n - 1) / 2) as f64;
        let reference = pairwise_sq_distances_reference(subset).expect("reference");
        // Hoisting gain: the tiled single-thread kernel vs the naive
        // per-pair estimator (which re-checks compatibility and
        // recomputes the debias constant for every pair).
        let iters = if quick { 2 } else { 3 };
        let t_naive = time_per_op(iters, || {
            let _ = pairwise_sq_distances_reference(subset).expect("reference");
        });
        let mut t_single_v1 = f64::NAN;
        for (ki, &kid) in kernels.iter().enumerate() {
            // Within-kernel reference: V1 is pinned to the historic
            // naive estimator bits, V2 to a per-pair loop over its
            // kernel, which runs none of the tiled group code.
            let kernel_reference = if kid == KernelId::V1Scalar {
                reference.as_flat().to_vec()
            } else {
                per_pair_matrix(subset, kid)
            };
            let mut t_single = f64::NAN;
            for &threads in &thread_sweep {
                let par = Parallelism::new(threads).with_tile(tile).with_kernel(kid);
                let got = pairwise_sq_distances_with_par(subset, |s| s, &par).expect("pairwise");
                let identical = got
                    .as_flat()
                    .iter()
                    .zip(&kernel_reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                all_identical &= identical;
                let t = time_per_op(iters, || {
                    let _ = pairwise_sq_distances_with_par(subset, |s| s, &par).expect("pairwise");
                });
                if threads == 1 {
                    t_single = t;
                    if kid == KernelId::V1Scalar {
                        t_single_v1 = t;
                    }
                    if n == max_rows {
                        t1_by_kernel[ki] = t;
                    }
                }
                measurements.push(Measurement {
                    rows: n,
                    threads,
                    tile,
                    kernel: kid,
                    ns_per_pair: t / pairs,
                    speedup_vs_single: t_single / t,
                });
                println!(
                    "n = {n:5}  kernel = {:9}  threads = {threads:2}  tile = {tile:3}  \
                     {:9.1} ns/pair  speedup {:4.2}x  bit-identical: {identical}",
                    kid.name(),
                    t / pairs,
                    t_single / t
                );
            }
        }
        println!(
            "n = {n:5}  naive reference (per-pair estimator): {:9.1} ns/pair  \
             (tiled 1-thread hoisting gain {:4.2}x)",
            t_naive / pairs,
            t_naive / t_single_v1
        );
    }

    // Acceptance 1 (any host): the SIMD kernel must actually be faster —
    // single-thread v2-simd at ≤ 0.75× the v1-scalar ns/pair on the
    // largest matrix, timed in the tile executor alone. Vectorization,
    // not parallelism, so no core-count gate: this check cannot be
    // "skipped (available_parallelism = 1)". Rounds: on a loaded 2-CPU
    // host the per-round quartiles sit up to 30% apart, which puts the
    // standard error of a 31-round median near 4% (7% for 11), so a
    // 25% difference between the kernels' medians stands clear of it.
    let rounds = if quick { 11 } else { 31 };
    let executor = tile_executor_ns_per_pair(&sketches[..max_rows], tile, &kernels, rounds);
    for (kid, (q1, med, q3)) in kernels.iter().zip(&executor) {
        println!(
            "n = {max_rows:5}  kernel = {:9}  execute_tiles, 1 thread: median {med:7.1} ns/pair  \
             (quartiles {q1:.1}-{q3:.1}, {rounds} rounds)",
            kid.name()
        );
    }
    let kernel_ratio = executor[1].1 / executor[0].1;
    let whole_call_ratio = t1_by_kernel[1] / t1_by_kernel[0];
    let kernel_check = if kernel_ratio <= 0.75 {
        println!(
            "CHECK [PASS] v2-simd <= 0.75x v1-scalar ns/pair at 1 thread ({kernel_ratio:.3}x)"
        );
        "pass".to_string()
    } else {
        println!(
            "CHECK [FAIL] v2-simd <= 0.75x v1-scalar ns/pair at 1 thread ({kernel_ratio:.3}x)"
        );
        "fail".to_string()
    };

    // Acceptance 2: ≥2× speedup on ≥4 threads for n ≥ 512 — only
    // meaningful when the hardware can actually run 4 workers.
    let target = measurements
        .iter()
        .filter(|m| m.threads >= 4 && m.rows >= 512 && m.kernel == KernelId::V1Scalar)
        .map(|m| m.speedup_vs_single)
        .fold(f64::NAN, f64::max);
    let speedup_check = if hardware < 4 {
        println!(
            "CHECK [SKIP] >=2x speedup on >=4 threads (host has {hardware} hardware thread(s))"
        );
        format!("skipped (available_parallelism = {hardware})")
    } else if target.is_nan() {
        println!("CHECK [SKIP] >=2x speedup on >=4 threads (no n >= 512 in this sweep)");
        "skipped (no n >= 512 measured; run without --quick)".to_string()
    } else if target >= 2.0 {
        println!("CHECK [PASS] >=2x speedup on >=4 threads for n >= 512 ({target:.2}x)");
        "pass".to_string()
    } else {
        println!("CHECK [FAIL] >=2x speedup on >=4 threads for n >= 512 ({target:.2}x)");
        "fail".to_string()
    };
    println!(
        "CHECK [{}] all configurations bit-identical to their kernel's per-pair reference",
        if all_identical { "PASS" } else { "FAIL" }
    );

    let experiment_rows = 64.min(max_rows);
    let experiment = quantization_experiment(&rows[..experiment_rows], &sketches, alpha);

    let json = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("pairwise_sq_distances".to_string()),
        ),
        (
            "construction".to_string(),
            JsonValue::String(Construction::SjltAuto.name().to_string()),
        ),
        ("d".to_string(), JsonValue::UInt(d as u64)),
        ("k".to_string(), JsonValue::UInt(k as u64)),
        (
            "available_parallelism".to_string(),
            JsonValue::UInt(hardware as u64),
        ),
        (
            "v2_backend".to_string(),
            JsonValue::String(kernel::v2_backend().to_string()),
        ),
        (
            "bytes_per_sketch_f64".to_string(),
            JsonValue::UInt(wire::encoded_len(tag_len, k) as u64),
        ),
        (
            "bytes_per_sketch_f32".to_string(),
            JsonValue::UInt(wire::encoded_len_f32(tag_len, k) as u64),
        ),
        ("bit_identical".to_string(), JsonValue::Bool(all_identical)),
        (
            "kernel_check".to_string(),
            JsonValue::String(kernel_check.clone()),
        ),
        (
            "kernel_ns_per_pair_ratio_v2_over_v1".to_string(),
            JsonValue::Number(kernel_ratio),
        ),
        (
            "kernel_execute_tiles_ns_per_pair".to_string(),
            JsonValue::Object(
                kernels
                    .iter()
                    .zip(&executor)
                    .map(|(kid, &(q1, med, q3))| {
                        (
                            kid.name().to_string(),
                            JsonValue::Object(vec![
                                ("q1".to_string(), JsonValue::Number(q1)),
                                ("median".to_string(), JsonValue::Number(med)),
                                ("q3".to_string(), JsonValue::Number(q3)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("kernel_rounds".to_string(), JsonValue::UInt(rounds as u64)),
        (
            "whole_call_ns_per_pair_ratio_v2_over_v1".to_string(),
            JsonValue::Number(whole_call_ratio),
        ),
        (
            "speedup_check".to_string(),
            JsonValue::String(speedup_check.clone()),
        ),
        ("quantization_experiment".to_string(), experiment),
        (
            "results".to_string(),
            JsonValue::Array(
                measurements
                    .iter()
                    .map(|m| {
                        JsonValue::Object(vec![
                            ("rows".to_string(), JsonValue::UInt(m.rows as u64)),
                            ("k".to_string(), JsonValue::UInt(k as u64)),
                            (
                                "kernel".to_string(),
                                JsonValue::String(m.kernel.name().to_string()),
                            ),
                            ("threads".to_string(), JsonValue::UInt(m.threads as u64)),
                            ("tile".to_string(), JsonValue::UInt(m.tile as u64)),
                            ("ns_per_pair".to_string(), JsonValue::Number(m.ns_per_pair)),
                            (
                                "speedup_vs_single".to_string(),
                                JsonValue::Number(m.speedup_vs_single),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(out_path, json.to_string() + "\n").expect("write BENCH_pairwise.json");
    println!("wrote {out_path}");

    if !all_identical || speedup_check == "fail" || kernel_check == "fail" {
        std::process::exit(1);
    }
}
