//! Benchmark the tiled all-pairs kernel and record the perf trajectory.
//!
//! Measures the engine's cold all-pairs memo (`QueryEngine::pairwise_memo`
//! on a fresh engine over a store of released sketches) for a sweep of
//! matrix sizes, thread counts and tile sizes, verifies every
//! configuration's `pairwise_all` is bit-identical to the per-pair
//! reference (`pairwise_sq_distances_reference`, which runs none of the
//! tiled code), and writes a machine-readable `BENCH_pairwise.json` so
//! successive PRs can track ns/pair.
//!
//! Usage: `bench_pairwise [--quick] [--out <path>]`
//!
//! Every timing at one n — the per-pair reference, `execute_tiles`
//! alone, and the cold memo at each thread count — is a side of the
//! same interleaved rounds (`dp_bench::runner::interleaved`), recorded
//! as the median and IQR of its rounds, because one mean per process
//! says which mode a small shared host was in, not the code's speed.
//!
//! Two acceptance checks gate the exit code on any host:
//!
//! * bit identity with the per-pair reference, and
//! * the blocked tile kernel paying for itself: the median
//!   single-thread `execute_tiles` must run at ≤ 0.5× the per-pair
//!   reference's median ns/pair at the largest n. The check times the
//!   tile executor alone — `execute_tiles` over every id of the
//!   one-thread plan, on row slices extracted beforehand — because a
//!   cold `pairwise_memo` adds the gather of every segment into the
//!   memo's panels. It is
//!   **thread-count independent** — it measures the eight-pair group
//!   kernel and the hoisted per-row constants, not parallelism — so it
//!   runs (and gates) even on 1-CPU containers where the multi-thread
//!   speedup check below is skipped. The whole-call ns/pair of every
//!   configuration stays in the JSON.
//!
//! The thread speedup check (≥2× at 4 threads for n ≥ 512, on medians)
//! still only runs when the host actually has ≥ 4 hardware threads;
//! single-core hosts record the measurement and mark that check
//! skipped.
//!
//! The run also records the **f32 wire quantization experiment**: every
//! sketch is round-tripped through the v3 (`f32` values) wire frame and
//! the quantized pairwise estimates are compared against the
//! full-precision ones and against the true squared distances — the
//! observed quantization shift is set against the rounding-model
//! prediction, and the relative estimation error is set against the
//! configured `alpha` (the paper's `(1±α)` multiplicative bound).

use dp_bench::runner::{interleaved, Spread};
use dp_bench::workload::gaussian_vec;
use dp_core::config::SketchConfig;
use dp_core::json::JsonValue;
use dp_core::kernel;
use dp_core::sketcher::{
    effective_plan, execute_tiles, pairwise_sq_distances_reference, AnySketcher, Construction,
    PrivateSketcher,
};
use dp_core::{wire, KernelId, NoisySketch, Parallelism, Release};
use dp_engine::{QueryEngine, SketchStore};
use dp_hashing::Seed;
use std::hint::black_box;

struct Measurement {
    rows: usize,
    threads: usize,
    tile: usize,
    ns_per_pair: Spread,
    speedup_vs_single: f64,
}

/// One N(0,1) row per index, from the shared workload generator e5 also
/// uses, so benches stay comparable across the harness.
fn gaussian_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|r| gaussian_vec(d, Seed::new(seed + r as u64)))
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
        "d = {d}, k = {k}, hardware threads = {hardware}, kernel = {}, block backend = {}",
        KernelId::V1Scalar.name(),
        kernel::v2_backend()
    );

    let row_counts: &[usize] = if quick { &[64, 128] } else { &[128, 512] };
    let mut thread_sweep = vec![1usize, 2, 4, hardware];
    thread_sweep.sort_unstable();
    thread_sweep.dedup();
    let tile = Parallelism::from_env().tile();

    let max_rows = *row_counts.iter().max().expect("nonempty");
    let rows = gaussian_rows(max_rows, d, 42);
    let sketches = sketcher.sketch_batch(&rows, Seed::new(99)).expect("batch");

    let rounds = if quick { 11 } else { 31 };
    let mut measurements: Vec<Measurement> = Vec::new();
    let mut all_identical = true;
    // The naive reference and `execute_tiles` at the largest n, the
    // two sides of the executor check.
    let mut naive = None;
    let mut executor = None;
    for &n in row_counts {
        let subset = &sketches[..n];
        let pairs = (n * (n - 1) / 2) as f64;
        let mut store = SketchStore::adopting();
        for (party_id, sketch) in (0u64..).zip(subset) {
            let release = Release {
                party_id,
                sketch: sketch.clone(),
            };
            store.ingest(&release).expect("ingest");
        }
        let reference = pairwise_sq_distances_reference(subset).expect("reference");
        let cold = |threads: usize| {
            QueryEngine::new(store.clone())
                .with_parallelism(Parallelism::new(threads).with_tile(tile))
        };
        // The tile executor alone, over row slices extracted beforehand.
        let rows: Vec<&[f64]> = subset.iter().map(NoisySketch::values).collect();
        let debias: Vec<f64> = subset
            .iter()
            .map(|s| 2.0 * s.k() as f64 * s.noise_second_moment())
            .collect();
        let one = Parallelism::new(1).with_tile(tile);
        let plan = effective_plan(n, &one);
        let ids: Vec<u64> = (0..plan.tile_count() as u64).collect();
        let mut naive_side = || {
            black_box(pairwise_sq_distances_reference(subset).expect("reference"));
        };
        let mut executor_side = || {
            black_box(execute_tiles(&plan, &ids, |i| rows[i], &debias, &one));
        };
        let mut memo_sides: Vec<_> = thread_sweep
            .iter()
            .map(|&threads| {
                move || {
                    black_box(cold(threads).pairwise_memo());
                }
            })
            .collect();
        let mut sides: Vec<&mut dyn FnMut()> = vec![&mut naive_side, &mut executor_side];
        sides.extend(memo_sides.iter_mut().map(|side| side as &mut dyn FnMut()));
        let mut samples = interleaved(rounds, &mut sides).into_iter();
        let mut next = || Spread::of(&samples.next().expect("one sample set per side"), pairs);
        let (naive_n, executor_n) = (next(), next());
        let memo: Vec<Spread> = thread_sweep.iter().map(|_| next()).collect();
        let single = memo[0].median;
        for (&threads, spread) in thread_sweep.iter().zip(memo) {
            let identical = cold(threads)
                .pairwise_all()
                .as_flat()
                .iter()
                .zip(reference.as_flat())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            all_identical &= identical;
            let speedup = single / spread.median;
            println!(
                "n = {n:5}  threads = {threads:2}  tile = {tile:3}  {:9.1} ns/pair \
                 (IQR {:5.1})  speedup {speedup:4.2}x  bit-identical: {identical}",
                spread.median, spread.iqr
            );
            measurements.push(Measurement {
                rows: n,
                threads,
                tile,
                ns_per_pair: spread,
                speedup_vs_single: speedup,
            });
        }
        println!(
            "n = {n:5}  naive reference (per-pair estimator): {:9.1} ns/pair (IQR {:5.1})  \
             (tiled 1-thread hoisting gain {:4.2}x)",
            naive_n.median,
            naive_n.iqr,
            naive_n.median / single
        );
        println!(
            "n = {n:5}  execute_tiles, 1 thread: {:9.1} ns/pair (IQR {:5.1})",
            executor_n.median, executor_n.iqr
        );
        if n == max_rows {
            naive = Some(naive_n);
            executor = Some(executor_n);
        }
    }
    let naive = naive.expect("the largest n was timed");
    let executor = executor.expect("the largest n was timed");

    // Acceptance 1 (any host): the blocked tile kernel must pay for
    // itself — single-thread `execute_tiles` at ≤ 0.5× the naive
    // per-pair reference's ns/pair on the largest matrix, medians of
    // the same interleaved rounds. No core-count gate: this check
    // cannot be "skipped (available_parallelism = 1)". It read about
    // 0.2x on a 2-CPU AVX2 host, so host noise of the size a small
    // shared VM shows does not decide it.
    let executor_ratio = executor.median / naive.median;
    let executor_pass = executor_ratio <= 0.5;
    println!(
        "CHECK [{}] execute_tiles <= 0.5x the per-pair reference ns/pair at 1 thread \
         ({executor_ratio:.3}x, medians of {rounds} rounds at n = {max_rows})",
        if executor_pass { "PASS" } else { "FAIL" }
    );
    let executor_check = if executor_pass { "pass" } else { "fail" };

    // Acceptance 2: ≥2× speedup on ≥4 threads for n ≥ 512 — only
    // meaningful when the hardware can actually run 4 workers.
    let target = measurements
        .iter()
        .filter(|m| m.threads >= 4 && m.rows >= 512)
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
        "CHECK [{}] all configurations bit-identical to the per-pair reference",
        if all_identical { "PASS" } else { "FAIL" }
    );

    let experiment_rows = 64.min(max_rows);
    let experiment = quantization_experiment(&rows[..experiment_rows], &sketches, alpha);

    let json = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("tiled_pairwise".to_string()),
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
            "kernel".to_string(),
            JsonValue::String(KernelId::V1Scalar.name().to_string()),
        ),
        (
            "block_backend".to_string(),
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
            "executor_check".to_string(),
            JsonValue::String(executor_check.to_string()),
        ),
        (
            "executor_over_naive_ratio".to_string(),
            JsonValue::Number(executor_ratio),
        ),
        ("execute_tiles_ns_per_pair".to_string(), executor.json()),
        ("naive_ns_per_pair".to_string(), naive.json()),
        ("rounds".to_string(), JsonValue::UInt(rounds as u64)),
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
                            ("threads".to_string(), JsonValue::UInt(m.threads as u64)),
                            ("tile".to_string(), JsonValue::UInt(m.tile as u64)),
                            ("ns_per_pair".to_string(), m.ns_per_pair.json()),
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

    if !all_identical || speedup_check == "fail" || !executor_pass {
        std::process::exit(1);
    }
}
