//! Benchmark the `dp-engine` query surface against the slice-based path
//! it replaced, and record the perf trajectory.
//!
//! Two measurements per store size:
//!
//! * **pair query**: `QueryEngine::pair` (ingest-time validation, flat
//!   arena, hoisted debias) versus the old per-call
//!   `NoisySketch::estimate_sq_distance` over a `&[Release]` slice
//!   (which re-checks compatibility and re-derives the debias constant
//!   on every call).
//! * **incremental all-pairs**: one new row into a warm engine versus
//!   recomputing the whole matrix the way the slice-based surface had
//!   to.
//!
//! Plus one measurement of **ranked reads** on a 2,048-row store (the
//! size of the benchmark of record's `analyst_matrix` workload):
//! `top_pairs(100)` over the warm matrix memo and `knn(10)`, each
//! versus scoring every candidate, stable-sorting and truncating.
//!
//! And one **k-NN scan** record on a 5,120-row store (`online_point`'s
//! store mid-run): `knn(10)` in µs and ns per scored pair under a V1
//! and a V2 engine, and their V1/V2 ratio. The ratio is recorded, not
//! gated: timing ratios on a small shared host are noisy.
//!
//! Every engine answer is verified bit-identical to the slice path
//! (pairs, under the engine's kernel) or to the stable-sort reference
//! (ranked reads and both k-NN scans) before timing; any mismatch
//! exits 1. Writes machine-readable `BENCH_engine.json`.
//!
//! Usage: `bench_engine [--quick] [--out <path>]`

use dp_bench::runner::time_per_op;
use dp_bench::workload::gaussian_vec;
use dp_core::config::SketchConfig;
use dp_core::json::JsonValue;
use dp_core::release::Release;
use dp_core::sketcher::{AnySketcher, Construction, PrivateSketcher};
use dp_core::KernelId;
use dp_engine::{QueryEngine, SketchStore};
use dp_hashing::Seed;

/// Rows in the ranked-read store: `analyst_matrix`'s full matrix.
const RANKED_ROWS: usize = 2048;
/// Pairs per `top_pairs` read, as `analyst_matrix` asks.
const TOP_T: usize = 100;
/// Neighbours per `knn` read, as `online_point` asks.
const KNN_K: usize = 10;
/// Rows in the k-NN scan store: `online_point`'s store mid-run.
const SCAN_ROWS: usize = 5120;

struct Measurement {
    rows: usize,
    ns_engine_pair: f64,
    ns_slice_pair: f64,
    pair_speedup: f64,
    ns_incremental_row: f64,
    ns_recompute_row: f64,
    incremental_speedup: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_engine.json", String::as_str);

    let d = 256;
    let cfg = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0)
        .build()
        .expect("config");
    let sketcher = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(7)).expect("sketcher");
    let k = sketcher.k();
    println!("== bench_engine: SketchStore/QueryEngine vs the slice-based path ==");
    println!("d = {d}, k = {k}");

    let row_counts: &[usize] = if quick { &[64] } else { &[64, 256] };
    // One extra row beyond the largest sweep: the incremental bench
    // grows each store by one release.
    let max_rows = (*row_counts.iter().max().expect("nonempty") + 1)
        .max(RANKED_ROWS)
        .max(SCAN_ROWS);
    let rows: Vec<Vec<f64>> = (0..max_rows)
        .map(|r| gaussian_vec(d, Seed::new(1000 + r as u64)))
        .collect();
    let releases: Vec<Release> = sketcher
        .sketch_batch(&rows, Seed::new(99))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: i as u64,
            sketch,
        })
        .collect();

    let mut measurements = Vec::new();
    let mut all_identical = true;
    for &n in row_counts {
        let slice = &releases[..n];
        let mut engine = QueryEngine::new(SketchStore::adopting());
        for r in slice {
            engine.ingest(r).expect("ingest");
        }

        // Verify: every engine pair answer equals the slice path's
        // under the engine's kernel.
        let kernel = engine.parallelism().kernel();
        for i in 0..n.min(16) {
            for j in 0..n.min(16) {
                let via_engine = engine.pair(i as u64, j as u64).expect("pair");
                let via_slice = if i == j {
                    0.0
                } else {
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    slice[lo]
                        .sketch
                        .estimate_sq_distance_with(&slice[hi].sketch, kernel)
                        .expect("estimate")
                };
                all_identical &= via_engine.to_bits() == via_slice.to_bits();
            }
        }

        // Point queries over a fixed pseudo-random id schedule.
        let queries: Vec<(u64, u64)> = (0..1024u64)
            .map(|q| ((q * 37) % n as u64, (q * 61 + 13) % n as u64))
            .collect();
        let iters = if quick { 3 } else { 10 };
        let t_engine = time_per_op(iters, || {
            let mut acc = 0.0;
            for &(a, b) in &queries {
                acc += engine.pair(a, b).expect("pair");
            }
            std::hint::black_box(acc);
        }) / queries.len() as f64;
        let t_slice = time_per_op(iters, || {
            let mut acc = 0.0;
            for &(a, b) in &queries {
                if a != b {
                    acc += slice[a as usize]
                        .sketch
                        .estimate_sq_distance(&slice[b as usize].sketch)
                        .expect("estimate");
                }
            }
            std::hint::black_box(acc);
        }) / queries.len() as f64;

        // Incremental growth: a warm engine absorbing one more row vs
        // recomputing the whole (n+1)-row matrix from the slice.
        let grown = &releases[..n + 1];
        let iters_inc = if quick { 2 } else { 5 };
        let t_incremental = time_per_op(iters_inc, || {
            let mut warm = QueryEngine::new(SketchStore::adopting());
            for r in slice {
                warm.ingest(r).expect("ingest");
            }
            let _ = warm.pairwise_all();
            warm.ingest(&grown[n]).expect("ingest");
            let _ = warm.pairwise_all();
        });
        let t_warmup = time_per_op(iters_inc, || {
            let mut warm = QueryEngine::new(SketchStore::adopting());
            for r in slice {
                warm.ingest(r).expect("ingest");
            }
            let _ = warm.pairwise_all();
        });
        let t_new_row = (t_incremental - t_warmup).max(1.0);
        let t_recompute = time_per_op(iters_inc, || {
            let mut cold = QueryEngine::new(SketchStore::adopting());
            for r in grown {
                cold.ingest(r).expect("ingest");
            }
            let _ = cold.pairwise_all();
        });

        println!(
            "n = {n:5}  pair: engine {t_engine:8.1} ns vs slice {t_slice:8.1} ns ({:4.2}x)  \
             +1 row: incremental {:10.0} ns vs recompute {:10.0} ns ({:5.2}x)",
            t_slice / t_engine,
            t_new_row,
            t_recompute,
            t_recompute / t_new_row,
        );
        measurements.push(Measurement {
            rows: n,
            ns_engine_pair: t_engine,
            ns_slice_pair: t_slice,
            pair_speedup: t_slice / t_engine,
            ns_incremental_row: t_new_row,
            ns_recompute_row: t_recompute,
            incremental_speedup: t_recompute / t_new_row,
        });
    }

    println!(
        "CHECK [{}] engine pair answers bit-identical to the slice path",
        if all_identical { "PASS" } else { "FAIL" }
    );

    let ranked = ranked_reads(&releases[..RANKED_ROWS], quick);
    println!(
        "n = {RANKED_ROWS}  top_pairs({TOP_T}): engine {:8.2} ms vs sort {:8.2} ms ({:5.1}x)  \
         knn({KNN_K}): engine {:7.1} us vs sort {:7.1} us ({:4.2}x)",
        ranked.ms_top_pairs,
        ranked.ms_top_pairs_sort,
        ranked.ms_top_pairs_sort / ranked.ms_top_pairs,
        ranked.us_knn,
        ranked.us_knn_sort,
        ranked.us_knn_sort / ranked.us_knn,
    );
    println!(
        "CHECK [{}] ranked reads bit-identical to the stable-sort reference",
        if ranked.identical { "PASS" } else { "FAIL" }
    );
    all_identical &= ranked.identical;

    let scan = knn_scan(&releases[..SCAN_ROWS], quick);
    let v1_over_v2 = scan.v1.us_knn / scan.v2.us_knn;
    for (name, lane) in [("V1", &scan.v1), ("V2", &scan.v2)] {
        println!(
            "n = {SCAN_ROWS}  knn({KNN_K}) {name}: {:7.1} us ({:5.1} ns/pair)",
            lane.us_knn, lane.ns_per_pair
        );
    }
    println!(
        "knn({KNN_K}) V1/V2 at {SCAN_ROWS} rows: {v1_over_v2:.2}x (target <= 1.2x; recorded, not gated)"
    );
    println!(
        "CHECK [{}] k-NN scans under V1 and V2 bit-identical to the stable-sort reference",
        if scan.identical { "PASS" } else { "FAIL" }
    );
    all_identical &= scan.identical;

    let json = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("engine_queries".to_string()),
        ),
        (
            "construction".to_string(),
            JsonValue::String("sjlt-auto".to_string()),
        ),
        ("d".to_string(), JsonValue::UInt(d as u64)),
        ("k".to_string(), JsonValue::UInt(k as u64)),
        ("bit_identical".to_string(), JsonValue::Bool(all_identical)),
        (
            "ranked".to_string(),
            JsonValue::Object(vec![
                ("rows".to_string(), JsonValue::UInt(RANKED_ROWS as u64)),
                ("t".to_string(), JsonValue::UInt(TOP_T as u64)),
                ("k".to_string(), JsonValue::UInt(KNN_K as u64)),
                (
                    "ms_top_pairs".to_string(),
                    JsonValue::Number(ranked.ms_top_pairs),
                ),
                (
                    "ms_top_pairs_sort".to_string(),
                    JsonValue::Number(ranked.ms_top_pairs_sort),
                ),
                ("us_knn".to_string(), JsonValue::Number(ranked.us_knn)),
                (
                    "us_knn_sort".to_string(),
                    JsonValue::Number(ranked.us_knn_sort),
                ),
            ]),
        ),
        (
            "knn_scan".to_string(),
            JsonValue::Object(vec![
                ("rows".to_string(), JsonValue::UInt(SCAN_ROWS as u64)),
                ("k".to_string(), JsonValue::UInt(KNN_K as u64)),
                ("us_knn_v1".to_string(), JsonValue::Number(scan.v1.us_knn)),
                (
                    "ns_per_pair_v1".to_string(),
                    JsonValue::Number(scan.v1.ns_per_pair),
                ),
                ("us_knn_v2".to_string(), JsonValue::Number(scan.v2.us_knn)),
                (
                    "ns_per_pair_v2".to_string(),
                    JsonValue::Number(scan.v2.ns_per_pair),
                ),
                ("v1_over_v2".to_string(), JsonValue::Number(v1_over_v2)),
            ]),
        ),
        (
            "measurements".to_string(),
            JsonValue::Array(
                measurements
                    .iter()
                    .map(|m| {
                        JsonValue::Object(vec![
                            ("rows".to_string(), JsonValue::UInt(m.rows as u64)),
                            (
                                "ns_engine_pair".to_string(),
                                JsonValue::Number(m.ns_engine_pair),
                            ),
                            (
                                "ns_slice_pair".to_string(),
                                JsonValue::Number(m.ns_slice_pair),
                            ),
                            (
                                "pair_speedup".to_string(),
                                JsonValue::Number(m.pair_speedup),
                            ),
                            (
                                "ns_incremental_row".to_string(),
                                JsonValue::Number(m.ns_incremental_row),
                            ),
                            (
                                "ns_recompute_row".to_string(),
                                JsonValue::Number(m.ns_recompute_row),
                            ),
                            (
                                "incremental_speedup".to_string(),
                                JsonValue::Number(m.incremental_speedup),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(out_path, json.to_string()).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
    if !all_identical {
        std::process::exit(1);
    }
}

struct RankedReads {
    identical: bool,
    ms_top_pairs: f64,
    ms_top_pairs_sort: f64,
    us_knn: f64,
    us_knn_sort: f64,
}

/// Time `top_pairs(TOP_T)` over a warm matrix memo and `knn(KNN_K)` on
/// a store of `releases` (party id = row), each checked bit-identical
/// to, and timed against, scoring every candidate, stable-sorting and
/// truncating.
fn ranked_reads(releases: &[Release], quick: bool) -> RankedReads {
    let mut engine = QueryEngine::new(SketchStore::adopting());
    for r in releases {
        engine.ingest(r).expect("ingest");
    }
    let kernel = engine.parallelism().kernel();
    let matrix = engine.pairwise_all();
    let n = matrix.n();
    let top_pairs_reference = || {
        let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in i + 1..n {
                pairs.push((i as u64, j as u64, matrix.at(i, j)));
            }
        }
        pairs.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite estimates"));
        pairs.truncate(TOP_T);
        pairs
    };
    let queries = knn_queries(n);

    let top = engine.top_pairs(TOP_T);
    let mut identical = top.len() == TOP_T.min(n * (n - 1) / 2)
        && top
            .iter()
            .zip(top_pairs_reference())
            .all(|(a, b)| (a.0, a.1, a.2.to_bits()) == (b.0, b.1, b.2.to_bits()));
    identical &= knn_matches_reference(&engine, releases, &queries);

    let iters = if quick { 2 } else { 5 };
    let ns_top_pairs = time_per_op(iters, || {
        std::hint::black_box(engine.top_pairs(TOP_T));
    });
    let ns_top_pairs_sort = time_per_op(iters, || {
        std::hint::black_box(top_pairs_reference());
    });
    let ns_knn = time_per_op(iters, || {
        for &q in &queries {
            std::hint::black_box(knn(&engine, q));
        }
    }) / queries.len() as f64;
    let ns_knn_sort = time_per_op(iters, || {
        for &q in &queries {
            std::hint::black_box(knn_reference(releases, q, kernel));
        }
    }) / queries.len() as f64;
    RankedReads {
        identical,
        ms_top_pairs: ns_top_pairs / 1e6,
        ms_top_pairs_sort: ns_top_pairs_sort / 1e6,
        us_knn: ns_knn / 1e3,
        us_knn_sort: ns_knn_sort / 1e3,
    }
}

/// The query rows every k-NN read in this bench asks about.
fn knn_queries(n: usize) -> Vec<usize> {
    (0..16).map(|q| (q * 131 + 7) % n).collect()
}

/// `knn(KNN_K)` of row `q`'s party (party id = row) as `(id, estimate)`.
fn knn(engine: &QueryEngine, q: usize) -> Vec<(u64, f64)> {
    engine
        .knn(q as u64, KNN_K)
        .expect("knn")
        .into_iter()
        .map(|nb| (nb.party_id, nb.estimated_sq_distance))
        .collect()
}

/// The k-NN reference: every other release scored with
/// `estimate_sq_distance_with` under `kernel`, stable-sorted and
/// truncated to `KNN_K`.
fn knn_reference(releases: &[Release], q: usize, kernel: KernelId) -> Vec<(u64, f64)> {
    let query = &releases[q];
    let mut scored: Vec<(u64, f64)> = releases
        .iter()
        .filter(|c| c.party_id != query.party_id)
        .map(|c| {
            let d = query
                .sketch
                .estimate_sq_distance_with(&c.sketch, kernel)
                .expect("estimate");
            (c.party_id, d)
        })
        .collect();
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite estimates"));
    scored.truncate(KNN_K);
    scored
}

/// Whether the engine's `knn` answers every query with the reference's
/// ids and estimate bits, under the engine's kernel.
fn knn_matches_reference(engine: &QueryEngine, releases: &[Release], queries: &[usize]) -> bool {
    let kernel = engine.parallelism().kernel();
    queries.iter().all(|&q| {
        let got = knn(engine, q);
        let want = knn_reference(releases, q, kernel);
        got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(a, b)| (a.0, a.1.to_bits()) == (b.0, b.1.to_bits()))
    })
}

struct ScanLane {
    us_knn: f64,
    ns_per_pair: f64,
}

struct KnnScan {
    identical: bool,
    v1: ScanLane,
    v2: ScanLane,
}

/// Time `knn(KNN_K)` on a store of `releases` (party id = row) under a
/// V1 and a V2 engine, each checked bit-identical to the reference
/// first. A query scores `n − 1` pairs.
fn knn_scan(releases: &[Release], quick: bool) -> KnnScan {
    let n = releases.len();
    let queries = knn_queries(n);
    let iters = if quick { 2 } else { 10 };
    let mut identical = true;
    let mut lane = |kernel: KernelId| {
        let engine = QueryEngine::new(SketchStore::adopting());
        let par = engine.parallelism().with_kernel(kernel);
        let mut engine = engine.with_parallelism(par);
        for r in releases {
            engine.ingest(r).expect("ingest");
        }
        identical &= knn_matches_reference(&engine, releases, &queries);
        let ns_knn = time_per_op(iters, || {
            for &q in &queries {
                std::hint::black_box(knn(&engine, q));
            }
        }) / queries.len() as f64;
        ScanLane {
            us_knn: ns_knn / 1e3,
            ns_per_pair: ns_knn / (n - 1) as f64,
        }
    };
    let (v1, v2) = (lane(KernelId::V1Scalar), lane(KernelId::V2Simd));
    KnnScan { identical, v1, v2 }
}
