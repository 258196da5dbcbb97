//! Benchmark the batch sketching kernels and record the perf trajectory.
//!
//! Two sections, mirroring the layering the versioned-kernel split
//! introduced:
//!
//! * **kernel** — `dp_core::kernel::apply_batch` over the raw transform
//!   structures (SJLT column scatter, Achlioptas column scatter, dense
//!   i.i.d. Gaussian matvec), sweeping kernel version × batch size and
//!   comparing against the pre-PR per-row `apply_into` baseline. This
//!   is where the ns/element gate lives.
//! * **sketcher** — end-to-end releases (projection plus noise) for
//!   each construction × kernel: per-row `AnySketcher::sketch` (batch
//!   0; the call a party makes), timed after warm-up, and
//!   `sketch_batch` at each batch size, so the ingest-path cost model
//!   stays visible even though noise sampling dilutes the kernel-only
//!   speedup. **sketcher-first** records the first `sketch` of a
//!   freshly built sketcher (median over fresh builds), which pays any
//!   one-off set-up such as resolving the SJLT's column table.
//!
//! Every result carries `us_per_row` (`ns_per_element · d / 1000`).
//!
//! Usage: `bench_sketch [--quick] [--out <path>]`
//!
//! The run exits 1 when a per-row `sketch` differs from the same row of
//! `sketch_batch` in any bit, for any construction × kernel.
//!
//! The acceptance gate follows the bench_pairwise convention: on hosts
//! whose runtime-detected V2 backend is AVX2+FMA, the V2 batch apply
//! must run at ≤ 0.75× the V1 per-row ns/element on the dense
//! construction (where vectorization is the mechanism; the sparse
//! scatters win by hash/column amortization instead and are recorded
//! informationally). On portable-backend hosts the gate is recorded as
//! skipped with the backend noted.

use dp_bench::runner::time_per_op;
use dp_bench::workload::gaussian_vec;
use dp_core::config::SketchConfig;
use dp_core::json::JsonValue;
use dp_core::kenthapadi::SigmaCalibration;
use dp_core::kernel::{self, BatchProjection};
use dp_core::sketcher::{Construction, SketcherSpec};
use dp_core::{wire, KernelId, NoisySketch, PrivateSketcher};
use dp_hashing::Seed;
use dp_transforms::achlioptas::Achlioptas;
use dp_transforms::gaussian_iid::GaussianIid;
use dp_transforms::sjlt::Sjlt;
use std::time::Instant;

struct Measurement {
    section: &'static str,
    construction: String,
    kernel: KernelId,
    /// 0 encodes the per-row baseline (one `apply_into` or one `sketch`
    /// per vector).
    batch: usize,
    ns_per_element: f64,
}

fn gaussian_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|r| gaussian_vec(d, Seed::new(seed + r as u64)))
        .collect()
}

/// Time one full pass over `rows` through `apply_batch` in blocks of
/// `batch` (0 = per-row singleton calls), returning ns/element where an
/// element is one input coordinate.
fn time_apply(
    id: KernelId,
    p: &BatchProjection<'_>,
    rows: &[&[f64]],
    k: usize,
    batch: usize,
    iters: u32,
) -> f64 {
    let d = rows[0].len();
    let mut out = vec![0.0f64; rows.len().max(1) * k];
    let t = if batch == 0 {
        time_per_op(iters, || {
            for (row, dst) in rows.iter().zip(out.chunks_exact_mut(k)) {
                kernel::apply_batch(id, p, std::slice::from_ref(row), dst).expect("apply");
            }
        })
    } else {
        time_per_op(iters, || {
            for (chunk, dst) in rows.chunks(batch).zip(out.chunks_mut(batch * k)) {
                kernel::apply_batch(id, p, chunk, &mut dst[..chunk.len() * k]).expect("apply");
            }
        })
    };
    t / (rows.len() * d) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_sketch.json", String::as_str);

    let d = 256;
    let n = if quick { 32 } else { 64 };
    let iters = if quick { 3 } else { 5 };
    let kernels = [KernelId::V1Scalar, KernelId::V2Simd];
    let batches: &[usize] = if quick { &[1, 16] } else { &[1, 8, 64] };
    let max_batch = *batches.iter().max().expect("nonempty");
    let backend = kernel::v2_backend();
    let on_avx2 = backend == "avx2+fma";
    println!("== bench_sketch: batch sketching kernels ==");
    println!("d = {d}, rows = {n}, v2 backend = {backend}");

    let rows = gaussian_rows(n, d, 42);
    let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let mut measurements: Vec<Measurement> = Vec::new();

    // -- Section 1: the raw batch-apply kernels ------------------------
    let k = 128;
    let sjlt = Sjlt::new(d, k, 8, 4, Seed::new(11)).expect("sjlt");
    let achlioptas = Achlioptas::new(d, k, Seed::new(12)).expect("achlioptas");
    let gaussian = GaussianIid::new(d, k, Seed::new(13)).expect("gaussian");
    let projections: Vec<(&str, BatchProjection<'_>)> = vec![
        ("sjlt", BatchProjection::Columns(&sjlt)),
        ("achlioptas", BatchProjection::Columns(&achlioptas)),
        (
            "gaussian-iid",
            BatchProjection::Dense {
                matrix: gaussian.matrix(),
                transform: &gaussian,
            },
        ),
    ];
    // ns/element for (transform, kernel, per-row baseline) and the V2
    // largest-batch figure — the inputs to the gate.
    let mut gate_ratios: Vec<(String, f64)> = Vec::new();
    for (name, p) in &projections {
        let mut t_perrow_v1 = f64::NAN;
        for &kid in &kernels {
            let t_perrow = time_apply(kid, p, &row_refs, k, 0, iters);
            if kid == KernelId::V1Scalar {
                t_perrow_v1 = t_perrow;
            }
            measurements.push(Measurement {
                section: "kernel",
                construction: (*name).to_string(),
                kernel: kid,
                batch: 0,
                ns_per_element: t_perrow,
            });
            println!(
                "kernel    {name:14} {:9} per-row    {t_perrow:7.2} ns/element",
                kid.name()
            );
            for &b in batches {
                let t = time_apply(kid, p, &row_refs, k, b, iters);
                measurements.push(Measurement {
                    section: "kernel",
                    construction: (*name).to_string(),
                    kernel: kid,
                    batch: b,
                    ns_per_element: t,
                });
                println!(
                    "kernel    {name:14} {:9} batch={b:<3}  {t:7.2} ns/element  \
                     ({:4.2}x vs v1 per-row)",
                    kid.name(),
                    t / t_perrow_v1
                );
                if kid == KernelId::V2Simd && b == max_batch {
                    gate_ratios.push(((*name).to_string(), t / t_perrow_v1));
                }
            }
        }
    }

    // -- Section 2: end-to-end sketching per construction --------------
    let cfg = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0)
        .delta(1e-6)
        .build()
        .expect("config");
    let constructions = [
        Construction::SjltAuto,
        Construction::Achlioptas,
        Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
        Construction::FjltOutput,
    ];
    let noise = Seed::new(99);
    let encoded = |sketches: &[NoisySketch]| -> Vec<Vec<u8>> {
        sketches
            .iter()
            .map(|s| wire::encode_sketch(s).expect("encode"))
            .collect()
    };
    let mut mismatches: Vec<String> = Vec::new();
    for &c in &constructions {
        for &kid in &kernels {
            let spec = SketcherSpec::new(c, cfg.clone(), Seed::new(7)).with_kernel(kid);
            let mut firsts: Vec<f64> = (0..iters * 2 + 1)
                .map(|_| {
                    let sk = spec.build().expect("sketcher");
                    let t0 = Instant::now();
                    let _ = sk.sketch(&rows[0], noise).expect("sketch");
                    t0.elapsed().as_nanos() as f64
                })
                .collect();
            firsts.sort_by(f64::total_cmp);
            let first = firsts[firsts.len() / 2] / d as f64;
            measurements.push(Measurement {
                section: "sketcher-first",
                construction: c.name().to_string(),
                kernel: kid,
                batch: 0,
                ns_per_element: first,
            });
            println!(
                "sketcher  {:14} {:9} first      {:7.2} us/sketch",
                c.name(),
                kid.name(),
                first * d as f64 / 1e3
            );

            let sk = spec.build().expect("sketcher");
            let per_row: Vec<NoisySketch> = rows
                .iter()
                .enumerate()
                .map(|(i, x)| sk.sketch(x, noise.index(i as u64)))
                .collect::<Result<_, _>>()
                .expect("sketch");
            let batched = sk.sketch_batch(&rows, noise).expect("batch");
            if encoded(&per_row) != encoded(&batched) {
                mismatches.push(format!("{}/{}", c.name(), kid.name()));
            }
            let t = time_per_op(iters, || {
                for (i, x) in rows.iter().enumerate() {
                    let _ = sk.sketch(x, noise.index(i as u64)).expect("sketch");
                }
            });
            let ns = t / (n * d) as f64;
            measurements.push(Measurement {
                section: "sketcher",
                construction: c.name().to_string(),
                kernel: kid,
                batch: 0,
                ns_per_element: ns,
            });
            println!(
                "sketcher  {:14} {:9} per-row    {ns:7.2} ns/element  ({:7.2} us/sketch)",
                c.name(),
                kid.name(),
                ns * d as f64 / 1e3
            );
            for &b in batches {
                let t = time_per_op(iters, || {
                    for chunk in rows.chunks(b) {
                        let _ = sk.sketch_batch(chunk, noise).expect("batch");
                    }
                });
                let ns = t / (n * d) as f64;
                measurements.push(Measurement {
                    section: "sketcher",
                    construction: c.name().to_string(),
                    kernel: kid,
                    batch: b,
                    ns_per_element: ns,
                });
                println!(
                    "sketcher  {:14} {:9} batch={b:<3}  {ns:7.2} ns/element",
                    c.name(),
                    kid.name()
                );
            }
        }
    }

    // Acceptance gate: vectorization must pay on the dense kernel when
    // the host actually has the AVX2+FMA backend. The sparse scatters'
    // batch wins come from column/hash amortization (visible above in
    // both kernel lanes) and are not SIMD claims, so they inform but do
    // not gate.
    let dense_ratio = gate_ratios
        .iter()
        .find(|(name, _)| name == "gaussian-iid")
        .map_or(f64::NAN, |&(_, r)| r);
    let gate_check = if !on_avx2 {
        println!("CHECK [SKIP] v2 batch <= 0.75x v1 per-row ns/element (backend = {backend})");
        format!("skipped (v2 backend = {backend})")
    } else if dense_ratio <= 0.75 {
        println!("CHECK [PASS] dense v2 batch <= 0.75x v1 per-row ns/element ({dense_ratio:.3}x)");
        "pass".to_string()
    } else {
        println!("CHECK [FAIL] dense v2 batch <= 0.75x v1 per-row ns/element ({dense_ratio:.3}x)");
        "fail".to_string()
    };

    let bits_check = if mismatches.is_empty() {
        println!("CHECK [PASS] per-row sketch is bit-identical to sketch_batch");
        "pass".to_string()
    } else {
        println!(
            "CHECK [FAIL] per-row sketch is bit-identical to sketch_batch ({})",
            mismatches.join(", ")
        );
        format!("fail ({})", mismatches.join(", "))
    };

    let json = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("sketch_batch".to_string()),
        ),
        ("d".to_string(), JsonValue::UInt(d as u64)),
        ("k".to_string(), JsonValue::UInt(k as u64)),
        ("rows".to_string(), JsonValue::UInt(n as u64)),
        (
            "v2_backend".to_string(),
            JsonValue::String(backend.to_string()),
        ),
        (
            "gate_check".to_string(),
            JsonValue::String(gate_check.clone()),
        ),
        (
            "sketch_bit_identity".to_string(),
            JsonValue::String(bits_check),
        ),
        (
            "gate_ns_per_element_ratio_v2_batch_over_v1_per_row".to_string(),
            JsonValue::Number(dense_ratio),
        ),
        (
            "batch_over_per_row_ratios_v2".to_string(),
            JsonValue::Object(
                gate_ratios
                    .iter()
                    .map(|(name, r)| (name.clone(), JsonValue::Number(*r)))
                    .collect(),
            ),
        ),
        (
            "results".to_string(),
            JsonValue::Array(
                measurements
                    .iter()
                    .map(|m| {
                        JsonValue::Object(vec![
                            (
                                "section".to_string(),
                                JsonValue::String(m.section.to_string()),
                            ),
                            (
                                "construction".to_string(),
                                JsonValue::String(m.construction.clone()),
                            ),
                            (
                                "kernel".to_string(),
                                JsonValue::String(m.kernel.name().to_string()),
                            ),
                            ("batch".to_string(), JsonValue::UInt(m.batch as u64)),
                            (
                                "ns_per_element".to_string(),
                                JsonValue::Number(m.ns_per_element),
                            ),
                            (
                                "us_per_row".to_string(),
                                JsonValue::Number(m.ns_per_element * d as f64 / 1e3),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(out_path, json.to_string() + "\n").expect("write BENCH_sketch.json");
    println!("wrote {out_path}");

    if gate_check == "fail" || !mismatches.is_empty() {
        std::process::exit(1);
    }
}
