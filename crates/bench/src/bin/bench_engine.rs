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
//! Plus **ranked reads** on a 2,048-row store (the size of the
//! benchmark of record's `analyst_matrix` workload): `top_pairs(100)`
//! over the warm matrix memo and `knn(10)`, each versus scoring every
//! candidate, stable-sorting and truncating.
//!
//! And the **k-NN scan**: `knn(10)` at 2,048, 3,072 and 5,120 rows
//! (`online_point`'s store mid-run), under `Parallelism::sequential()`
//! and under the default, which splits a large enough store across its
//! workers.
//!
//! Ranked reads and the scan are recorded as the median and IQR of
//! interleaved rounds (each round runs every side once, in rotating
//! order), because one mean per process says which mode a small shared
//! host was in, not the code's speed. They are a record, not a gate.
//!
//! Every engine answer is verified bit-identical to the slice path
//! (pairs) or to the stable-sort reference (ranked reads, and the scan
//! under both settings) before timing; any mismatch exits 1. Writes
//! machine-readable `BENCH_engine.json`.
//!
//! Usage: `bench_engine [--quick] [--out <path>]`

use dp_bench::runner::time_per_op;
use dp_bench::workload::gaussian_vec;
use dp_core::config::SketchConfig;
use dp_core::json::JsonValue;
use dp_core::release::Release;
use dp_core::sketcher::{AnySketcher, Construction, PrivateSketcher};
use dp_core::Parallelism;
use dp_engine::{QueryEngine, SketchStore};
use dp_hashing::Seed;
use dp_stats::quantile;
use std::time::Instant;

/// Rows in the ranked-read store: `analyst_matrix`'s full matrix.
const RANKED_ROWS: usize = 2048;
/// Pairs per `top_pairs` read, as `analyst_matrix` asks.
const TOP_T: usize = 100;
/// Neighbours per `knn` read, as `online_point` asks.
const KNN_K: usize = 10;
/// Rows in the k-NN scan stores: below, at and past the size from
/// which a two-worker `knn` splits, up to `online_point`'s store
/// mid-run.
const SCAN_ROWS: [usize; 3] = [2048, 3072, 5120];
/// Interleaved rounds per ranked-read and k-NN scan timing.
const ROUNDS_QUICK: usize = 7;
const ROUNDS_FULL: usize = 15;

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
        .max(SCAN_ROWS[2]);
    let rounds = if quick { ROUNDS_QUICK } else { ROUNDS_FULL };
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

        // Verify: every engine pair answer equals the slice path's.
        for i in 0..n.min(16) {
            for j in 0..n.min(16) {
                let via_engine = engine.pair(i as u64, j as u64).expect("pair");
                let via_slice = if i == j {
                    0.0
                } else {
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    slice[lo]
                        .sketch
                        .estimate_sq_distance(&slice[hi].sketch)
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

    let ranked = ranked_reads(&releases[..RANKED_ROWS], rounds);
    println!(
        "n = {RANKED_ROWS}  top_pairs({TOP_T}): engine {:8.2} ms (IQR {:.2}) vs sort {:8.2} ms ({:5.1}x)  \
         knn({KNN_K}): engine {:7.1} us (IQR {:.1}) vs sort {:7.1} us ({:4.2}x)",
        ranked.top_pairs.median,
        ranked.top_pairs.iqr(),
        ranked.top_pairs_sort.median,
        ranked.top_pairs_sort.median / ranked.top_pairs.median,
        ranked.knn.median,
        ranked.knn.iqr(),
        ranked.knn_sort.median,
        ranked.knn_sort.median / ranked.knn.median,
    );
    println!(
        "CHECK [{}] ranked reads bit-identical to the stable-sort reference",
        if ranked.identical { "PASS" } else { "FAIL" }
    );
    all_identical &= ranked.identical;

    let threads = Parallelism::default().threads();
    let mut scans = Vec::new();
    for n in SCAN_ROWS {
        let scan = knn_scan(&releases[..n], rounds);
        println!(
            "n = {n}  knn({KNN_K}): sequential {:7.1} us (IQR {:5.1})  default, {threads} threads \
             {:7.1} us (IQR {:5.1})  ({:4.2}x)",
            scan.sequential.median,
            scan.sequential.iqr(),
            scan.default.median,
            scan.default.iqr(),
            scan.sequential.median / scan.default.median,
        );
        all_identical &= scan.identical;
        scans.push((n, scan));
    }
    println!(
        "CHECK [{}] k-NN scans bit-identical to the stable-sort reference",
        if scans.iter().all(|(_, s)| s.identical) {
            "PASS"
        } else {
            "FAIL"
        }
    );

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
                ("rounds".to_string(), JsonValue::UInt(rounds as u64)),
                ("ms_top_pairs".to_string(), ranked.top_pairs.json()),
                (
                    "ms_top_pairs_sort".to_string(),
                    ranked.top_pairs_sort.json(),
                ),
                ("us_knn".to_string(), ranked.knn.json()),
                ("us_knn_sort".to_string(), ranked.knn_sort.json()),
            ]),
        ),
        (
            "knn_scan".to_string(),
            JsonValue::Object(vec![
                ("k".to_string(), JsonValue::UInt(KNN_K as u64)),
                ("threads".to_string(), JsonValue::UInt(threads as u64)),
                ("rounds".to_string(), JsonValue::UInt(rounds as u64)),
                (
                    "stores".to_string(),
                    JsonValue::Array(
                        scans
                            .iter()
                            .map(|(n, scan)| {
                                JsonValue::Object(vec![
                                    ("rows".to_string(), JsonValue::UInt(*n as u64)),
                                    ("us_sequential".to_string(), scan.sequential.json()),
                                    ("us_default".to_string(), scan.default.json()),
                                ])
                            })
                            .collect(),
                    ),
                ),
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

/// The median and quartiles of one timing's rounds.
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    /// Quartiles of `samples`, each divided by `scale`.
    fn of(samples: Vec<f64>, scale: f64) -> Self {
        let at = |q: f64| quantile(&samples, q) / scale;
        Self {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    fn json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("median".to_string(), JsonValue::Number(self.median)),
            ("iqr".to_string(), JsonValue::Number(self.iqr())),
        ])
    }
}

/// Wall-clock nanoseconds of each side, one sample per round: after one
/// warm-up call of every side, each round runs every side once,
/// starting one side later than the round before, so a host that
/// drifts during the run shifts every side alike.
fn interleaved(rounds: usize, sides: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    for side in sides.iter_mut() {
        side();
    }
    let count = sides.len();
    let mut samples = vec![Vec::with_capacity(rounds); count];
    for round in 0..rounds {
        for s in (0..count).map(|s| (s + round) % count) {
            let t0 = Instant::now();
            sides[s]();
            samples[s].push(t0.elapsed().as_nanos() as f64);
        }
    }
    samples
}

struct RankedReads {
    identical: bool,
    /// Milliseconds per `top_pairs` read.
    top_pairs: Spread,
    top_pairs_sort: Spread,
    /// Microseconds per `knn` read.
    knn: Spread,
    knn_sort: Spread,
}

/// Time `top_pairs(TOP_T)` over a warm matrix memo and `knn(KNN_K)` on
/// a store of `releases` (party id = row), each checked bit-identical
/// to, and timed against, scoring every candidate, stable-sorting and
/// truncating, over `rounds` interleaved rounds.
fn ranked_reads(releases: &[Release], rounds: usize) -> RankedReads {
    let mut engine = QueryEngine::new(SketchStore::adopting());
    for r in releases {
        engine.ingest(r).expect("ingest");
    }
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
    // `top_pairs` takes the engine mutably (it may grow the memo), so
    // the k-NN reads run on a second engine over the same store.
    let reader = QueryEngine::new(engine.store().clone());

    let top = engine.top_pairs(TOP_T);
    let mut identical = top.len() == TOP_T.min(n * (n - 1) / 2)
        && top
            .iter()
            .zip(top_pairs_reference())
            .all(|(a, b)| (a.0, a.1, a.2.to_bits()) == (b.0, b.1, b.2.to_bits()));
    identical &= knn_matches_reference(&reader, releases, &queries);

    let samples = interleaved(
        rounds,
        &mut [
            &mut || {
                std::hint::black_box(engine.top_pairs(TOP_T));
            },
            &mut || {
                std::hint::black_box(top_pairs_reference());
            },
            &mut || {
                for &q in &queries {
                    std::hint::black_box(knn(&reader, q));
                }
            },
            &mut || {
                for &q in &queries {
                    std::hint::black_box(knn_reference(releases, q));
                }
            },
        ],
    );
    let [top_pairs, top_pairs_sort, knn, knn_sort] = samples.try_into().expect("four sides");
    let per_knn = 1e3 * queries.len() as f64;
    RankedReads {
        identical,
        top_pairs: Spread::of(top_pairs, 1e6),
        top_pairs_sort: Spread::of(top_pairs_sort, 1e6),
        knn: Spread::of(knn, per_knn),
        knn_sort: Spread::of(knn_sort, per_knn),
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
/// `estimate_sq_distance`, stable-sorted and truncated to `KNN_K`.
fn knn_reference(releases: &[Release], q: usize) -> Vec<(u64, f64)> {
    let query = &releases[q];
    let mut scored: Vec<(u64, f64)> = releases
        .iter()
        .filter(|c| c.party_id != query.party_id)
        .map(|c| {
            let d = query
                .sketch
                .estimate_sq_distance(&c.sketch)
                .expect("estimate");
            (c.party_id, d)
        })
        .collect();
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite estimates"));
    scored.truncate(KNN_K);
    scored
}

/// Whether the engine's `knn` answers every query with the reference's
/// ids and estimate bits.
fn knn_matches_reference(engine: &QueryEngine, releases: &[Release], queries: &[usize]) -> bool {
    queries.iter().all(|&q| {
        let got = knn(engine, q);
        let want = knn_reference(releases, q);
        got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(a, b)| (a.0, a.1.to_bits()) == (b.0, b.1.to_bits()))
    })
}

struct KnnScan {
    identical: bool,
    /// Microseconds per `knn` read on one thread.
    sequential: Spread,
    /// Microseconds per `knn` read under the default parallelism.
    default: Spread,
}

/// Time `knn(KNN_K)` on a store of `releases` (party id = row) on one
/// thread and under the default parallelism, over `rounds` interleaved
/// rounds, each engine checked bit-identical to the reference first.
fn knn_scan(releases: &[Release], rounds: usize) -> KnnScan {
    let queries = knn_queries(releases.len());
    let mut store = SketchStore::adopting();
    for r in releases {
        store.ingest(r).expect("ingest");
    }
    let sequential = QueryEngine::new(store.clone()).with_parallelism(Parallelism::sequential());
    let default = QueryEngine::new(store);
    let identical = knn_matches_reference(&sequential, releases, &queries)
        && knn_matches_reference(&default, releases, &queries);
    let read_all = |engine: &QueryEngine| {
        for &q in &queries {
            std::hint::black_box(knn(engine, q));
        }
    };
    let samples = interleaved(
        rounds,
        &mut [&mut || read_all(&sequential), &mut || read_all(&default)],
    );
    let [on_one, on_default] = samples.try_into().expect("two sides");
    let per_knn = 1e3 * queries.len() as f64;
    KnnScan {
        identical,
        sequential: Spread::of(on_one, per_knn),
        default: Spread::of(on_default, per_knn),
    }
}
