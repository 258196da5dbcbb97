//! Benchmark the batch sketching path and record the perf trajectory.
//!
//! Two sections:
//!
//! * **transform** — `LinearTransform::apply_batch_into` over the raw
//!   transform structures (SJLT column scatter, Achlioptas column
//!   scatter, dense i.i.d. Gaussian matvec) at each batch size, against
//!   the per-row `apply_into` baseline (batch 0).
//! * **sketcher** — end-to-end releases (projection plus noise) for
//!   each construction: per-row `AnySketcher::sketch` (batch 0; the
//!   call a party makes), timed after warm-up, and `sketch_batch` at
//!   each batch size, so the ingest-path cost model stays visible even
//!   though noise sampling dilutes the projection-only speedup.
//!   **sketcher-first** records the first `sketch` of a freshly built
//!   sketcher (median over fresh builds), which pays any one-off set-up
//!   such as resolving the SJLT's column table.
//!
//! Every result carries `us_per_row` (`ns_per_element · d / 1000`).
//!
//! Usage: `bench_sketch [--quick] [--out <path>]`
//!
//! The run exits 1 when a per-row `sketch` differs from the same row of
//! `sketch_batch` in any bit, for any construction. The timings are a
//! record, not a gate.

use dp_bench::runner::time_per_op;
use dp_bench::workload::gaussian_vec;
use dp_core::config::SketchConfig;
use dp_core::json::JsonValue;
use dp_core::sketcher::SigmaCalibration;
use dp_core::sketcher::{Construction, SketcherSpec};
use dp_core::{wire, KernelId, NoisySketch, PrivateSketcher};
use dp_hashing::Seed;
use dp_transforms::achlioptas::Achlioptas;
use dp_transforms::gaussian_iid::GaussianIid;
use dp_transforms::sjlt::Sjlt;
use dp_transforms::LinearTransform;
use std::time::Instant;

struct Measurement {
    section: &'static str,
    construction: String,
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

/// Time one full pass over `rows` through `apply_batch_into` in blocks
/// of `batch` (0 = one `apply_into` per row), returning ns/element
/// where an element is one input coordinate.
fn time_apply(t: &dyn LinearTransform, rows: &[&[f64]], batch: usize, iters: u32) -> f64 {
    let (d, k) = (rows[0].len(), t.output_dim());
    let mut out = vec![0.0f64; rows.len().max(1) * k];
    let ns = if batch == 0 {
        time_per_op(iters, || {
            for (row, dst) in rows.iter().zip(out.chunks_exact_mut(k)) {
                t.apply_into(row, dst).expect("apply");
            }
        })
    } else {
        time_per_op(iters, || {
            for (chunk, dst) in rows.chunks(batch).zip(out.chunks_mut(batch * k)) {
                t.apply_batch_into(chunk, &mut dst[..chunk.len() * k])
                    .expect("apply");
            }
        })
    };
    ns / (rows.len() * d) as f64
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
    let batches: &[usize] = if quick { &[1, 16] } else { &[1, 8, 64] };
    let kernel = KernelId::V1Scalar.name();
    println!("== bench_sketch: batch sketching ==");
    println!("d = {d}, rows = {n}, kernel = {kernel}");

    let rows = gaussian_rows(n, d, 42);
    let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let mut measurements: Vec<Measurement> = Vec::new();

    // -- Section 1: the raw transforms' batch apply --------------------
    let k = 128;
    let sjlt = Sjlt::new(d, k, 8, 4, Seed::new(11)).expect("sjlt");
    let achlioptas = Achlioptas::new(d, k, Seed::new(12)).expect("achlioptas");
    let gaussian = GaussianIid::new(d, k, Seed::new(13)).expect("gaussian");
    let transforms: [(&str, &dyn LinearTransform); 3] = [
        ("sjlt", &sjlt),
        ("achlioptas", &achlioptas),
        ("gaussian-iid", &gaussian),
    ];
    for (name, t) in transforms {
        let t_perrow = time_apply(t, &row_refs, 0, iters);
        measurements.push(Measurement {
            section: "transform",
            construction: name.to_string(),
            batch: 0,
            ns_per_element: t_perrow,
        });
        println!("transform {name:14} per-row    {t_perrow:7.2} ns/element");
        for &b in batches {
            let ns = time_apply(t, &row_refs, b, iters);
            measurements.push(Measurement {
                section: "transform",
                construction: name.to_string(),
                batch: b,
                ns_per_element: ns,
            });
            println!(
                "transform {name:14} batch={b:<3}  {ns:7.2} ns/element  ({:4.2}x vs per-row)",
                ns / t_perrow
            );
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
        let spec = SketcherSpec::new(c, cfg.clone(), Seed::new(7));
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
            batch: 0,
            ns_per_element: first,
        });
        println!(
            "sketcher  {:14} first      {:7.2} us/sketch",
            c.name(),
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
            mismatches.push(c.name().to_string());
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
            batch: 0,
            ns_per_element: ns,
        });
        println!(
            "sketcher  {:14} per-row    {ns:7.2} ns/element  ({:7.2} us/sketch)",
            c.name(),
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
                batch: b,
                ns_per_element: ns,
            });
            println!(
                "sketcher  {:14} batch={b:<3}  {ns:7.2} ns/element",
                c.name()
            );
        }
    }

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
        ("kernel".to_string(), JsonValue::String(kernel.to_string())),
        (
            "sketch_bit_identity".to_string(),
            JsonValue::String(bits_check),
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

    if !mismatches.is_empty() {
        std::process::exit(1);
    }
}
