//! Benchmark the two serve modes under concurrent clients.
//!
//! Spins up a `dp-server` on a loopback TCP socket in each serve mode
//! (`threads` — one blocking thread per connection; `evloop` — the
//! `dp-net` poll reactor), ingests one batch of releases, then drives
//! 1/2/4/8 concurrent clients issuing point queries (knn) and records
//! throughput plus p50/p99 per-request latency.
//!
//! Before any timing is trusted, one knn answer per mode is verified
//! **bit-identical** to the in-process engine — the transport must
//! never touch the numbers.
//!
//! Single-host record: all clients, all serve threads/loops, and the
//! engine share this machine's CPUs (CI pins one), so the numbers
//! measure protocol + scheduling overhead, not scale-out. The
//! trajectory to watch is evloop holding throughput as clients exceed
//! serving threads, where thread mode must queue at accept.
//!
//! A second probe times the bulk read: a thread-mode server over TCP
//! loopback answers `Pairwise([])` over 1,024 and 1,824 rows (1,024
//! only under `--quick`) once cold, then 11 times (5 quick) off its
//! warm matrix memo, recording p50 and IQR per size. A third probe
//! times the grown read at the same sizes: a server whose memo covers
//! all but the last 64 rows ingests them, then answers `Pairwise([])`,
//! growing its memo first; each of the 11 reads (5 quick) runs on a
//! fresh server, so every one grows the memo by the same step. Every
//! read — cold, warm and grown — must equal the in-process engine's
//! matrix bit for bit, or the run exits 1.
//!
//! Usage: `bench_server [--quick] [--out <path>]`

use dp_bench::workload::gaussian_vec;
use dp_core::config::SketchConfig;
use dp_core::json::JsonValue;
use dp_core::release::Release;
use dp_core::sketcher::{Construction, PrivateSketcher, SketcherSpec};
use dp_engine::{QueryEngine, SketchStore};
use dp_hashing::Seed;
use dp_server::{Client, Endpoint, ServeMode, Server};
use std::sync::Barrier;
use std::time::Instant;

struct Measurement {
    mode: &'static str,
    clients: usize,
    throughput_qps: f64,
    p50_ns: f64,
    p99_ns: f64,
}

/// Rows the grown-read probe ingests before each read.
const GROWTH: usize = 64;

/// One grown-read probe: `Pairwise([])` over `rows` rows right after the
/// last [`GROWTH`] of them were ingested.
struct GrownReads {
    rows: usize,
    p50_ms: f64,
    iqr_ms: f64,
    identical: bool,
}

/// One warm-read probe: a full-matrix `Pairwise([])` over `rows` rows.
struct WarmReads {
    rows: usize,
    cold_ms: f64,
    p50_ms: f64,
    iqr_ms: f64,
    identical: bool,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Whether two matrices hold the same values, bit for bit.
fn same_bits(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Serve `mode`, ingest the batch, then drive `clients` concurrent
/// connections each issuing `queries` knn requests. Returns the wall
/// time of the measured phase plus every per-request latency (ns).
fn run_mode(
    mode: ServeMode,
    spec: &SketcherSpec,
    releases: &[Release],
    clients: usize,
    queries: usize,
    expected_knn: &[(u64, f64)],
) -> (f64, Vec<f64>, bool) {
    let server = Server::bind(
        Endpoint::Tcp("127.0.0.1:0".to_string()),
        QueryEngine::new(SketchStore::adopting()),
    )
    .expect("bind");
    let endpoint = server.local_endpoint();
    // Thread mode needs a thread per concurrent client; the reactor
    // serves any number of connections on a fixed two loops.
    let workers = match mode {
        ServeMode::Threads => clients + 1,
        ServeMode::EvLoop => 2,
    };
    let probe_party = releases[0].party_id;
    let barrier = Barrier::new(clients + 1);

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve_mode(mode, workers));

        let mut setup = Client::connect(&endpoint).expect("connect setup");
        setup.hello(spec).expect("hello");
        for r in releases {
            setup.ingest(r).expect("ingest");
        }
        // Bit-identity gate before timing.
        let knn = setup.knn(probe_party, 4).expect("knn");
        let identical = knn.len() == expected_knn.len()
            && knn
                .iter()
                .zip(expected_knn)
                .all(|((pa, da), (pb, db))| pa == pb && da.to_bits() == db.to_bits());

        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let endpoint = endpoint.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(&endpoint).expect("connect");
                    let mut latencies = Vec::with_capacity(queries);
                    barrier.wait();
                    for _ in 0..queries {
                        let started = Instant::now();
                        std::hint::black_box(client.knn(probe_party, 4).expect("knn"));
                        latencies.push(started.elapsed().as_nanos() as f64);
                    }
                    latencies
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let mut latencies: Vec<f64> = Vec::with_capacity(clients * queries);
        for handle in workers {
            latencies.extend(handle.join().expect("client thread"));
        }
        let wall = started.elapsed().as_secs_f64();

        setup.shutdown().expect("shutdown");
        serve.join().expect("server thread");
        (wall, latencies, identical)
    })
}

/// Serve `releases` in thread mode over TCP loopback, read the whole
/// matrix once cold (the server fills its memo), then `warm` more times
/// off the memo. Each read is timed end to end through
/// `Client::pairwise` and then checked bit for bit against the
/// in-process engine's matrix.
fn warm_reads(spec: &SketcherSpec, releases: &[Release], warm: usize) -> WarmReads {
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in releases {
        reference.ingest(r).expect("ingest");
    }
    let expected = reference.pairwise_all();
    let expected_ids = reference.store().party_ids();
    let server = Server::bind(
        Endpoint::Tcp("127.0.0.1:0".to_string()),
        QueryEngine::new(SketchStore::adopting()),
    )
    .expect("bind");
    let endpoint = server.local_endpoint();
    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve_mode(ServeMode::Threads, 2));
        let mut client = Client::connect(&endpoint).expect("connect");
        client.hello(spec).expect("hello");
        for r in releases {
            client.ingest(r).expect("ingest");
        }
        let mut identical = true;
        let mut read = || {
            let started = Instant::now();
            let (ids, values) = client.pairwise(&[]).expect("pairwise");
            let ms = started.elapsed().as_secs_f64() * 1e3;
            identical &= ids == expected_ids && same_bits(&values, expected.as_flat());
            ms
        };
        let cold_ms = read();
        let mut warm_ms: Vec<f64> = (0..warm).map(|_| read()).collect();
        client.shutdown().expect("shutdown");
        serve.join().expect("server thread");
        warm_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        WarmReads {
            rows: releases.len(),
            cold_ms,
            p50_ms: percentile(&warm_ms, 0.50),
            iqr_ms: percentile(&warm_ms, 0.75) - percentile(&warm_ms, 0.25),
            identical,
        }
    })
}

/// Time `reads` grown reads over `releases`, each on a fresh thread-mode
/// server over TCP loopback whose engine already holds the memo over
/// all but the last [`GROWTH`] rows: the client ingests those rows and
/// reads the whole matrix, so the server grows its memo before it
/// streams. Each read is checked bit for bit against the in-process
/// engine's matrix.
fn grown_reads(spec: &SketcherSpec, releases: &[Release], reads: usize) -> GrownReads {
    let base = releases.len() - GROWTH;
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in releases {
        reference.ingest(r).expect("ingest");
    }
    let expected = reference.pairwise_all();
    let expected_ids = reference.store().party_ids();
    let mut identical = true;
    let mut grown_ms = Vec::with_capacity(reads);
    for _ in 0..reads {
        let mut engine = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
        for r in &releases[..base] {
            engine.ingest(r).expect("ingest");
        }
        let _ = engine.pairwise_all();
        let server = Server::bind(Endpoint::Tcp("127.0.0.1:0".to_string()), engine).expect("bind");
        let endpoint = server.local_endpoint();
        std::thread::scope(|scope| {
            let serve = scope.spawn(|| server.serve_mode(ServeMode::Threads, 2));
            let mut client = Client::connect(&endpoint).expect("connect");
            client.hello(spec).expect("hello");
            for r in &releases[base..] {
                client.ingest(r).expect("ingest");
            }
            let started = Instant::now();
            let (ids, values) = client.pairwise(&[]).expect("pairwise");
            grown_ms.push(started.elapsed().as_secs_f64() * 1e3);
            identical &= ids == expected_ids && same_bits(&values, expected.as_flat());
            client.shutdown().expect("shutdown");
            serve.join().expect("server thread");
        });
    }
    grown_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    GrownReads {
        rows: releases.len(),
        p50_ms: percentile(&grown_ms, 0.50),
        iqr_ms: percentile(&grown_ms, 0.75) - percentile(&grown_ms, 0.25),
        identical,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_server.json", String::as_str);

    let d = 128;
    let rows = 32;
    let queries = if quick { 100 } else { 400 };
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0)
        .build()
        .expect("config");
    let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(23));
    let sketcher = spec.build().expect("sketcher");
    let k = sketcher.k();
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|r| gaussian_vec(d, Seed::new(5000 + r as u64)))
        .collect();
    let releases: Vec<Release> = sketcher
        .sketch_batch(&data, Seed::new(91))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: i as u64,
            sketch,
        })
        .collect();

    // The in-process reference answer every transport must reproduce
    // bit for bit.
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &releases {
        reference.ingest(r).expect("ingest");
    }
    let expected_knn: Vec<(u64, f64)> = reference
        .knn(releases[0].party_id, 4)
        .expect("knn")
        .into_iter()
        .map(|n| (n.party_id, n.estimated_sq_distance))
        .collect();

    println!("== bench_server: serve-mode throughput under concurrent clients ==");
    println!("d = {d}, k = {k}, rows = {rows}, {queries} knn queries per client");

    let mut measurements = Vec::new();
    let mut all_identical = true;
    for (mode, name) in [
        (ServeMode::Threads, "threads"),
        (ServeMode::EvLoop, "evloop"),
    ] {
        for clients in [1usize, 2, 4, 8] {
            let (wall, mut latencies, identical) =
                run_mode(mode, &spec, &releases, clients, queries, &expected_knn);
            all_identical &= identical;
            latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let throughput = (clients * queries) as f64 / wall;
            let p50 = percentile(&latencies, 0.50);
            let p99 = percentile(&latencies, 0.99);
            println!(
                "{name:7}  clients = {clients}  {throughput:9.0} req/s  \
                 p50 {:8.1} µs  p99 {:8.1} µs  bit-identical: {identical}",
                p50 / 1e3,
                p99 / 1e3,
            );
            measurements.push(Measurement {
                mode: name,
                clients,
                throughput_qps: throughput,
                p50_ns: p50,
                p99_ns: p99,
            });
        }
    }

    println!(
        "CHECK [{}] every transport knn answer bit-identical to the in-process engine",
        if all_identical { "PASS" } else { "FAIL" }
    );

    // The bulk read: the full matrix streamed off a warm memo.
    let sizes: &[usize] = if quick { &[1024] } else { &[1024, 1824] };
    let warm = if quick { 5 } else { 11 };
    let max_rows = sizes.iter().copied().max().unwrap_or(0);
    let bulk_data: Vec<Vec<f64>> = (0..max_rows)
        .map(|r| gaussian_vec(d, Seed::new(9000 + r as u64)))
        .collect();
    let bulk: Vec<Release> = sketcher
        .sketch_batch(&bulk_data, Seed::new(92))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: i as u64,
            sketch,
        })
        .collect();
    let mut probes = Vec::new();
    for &rows in sizes {
        let probe = warm_reads(&spec, &bulk[..rows], warm);
        println!(
            "pairwise  rows = {rows:5}  cold {:7.1} ms  warm p50 {:7.1} ms  IQR {:5.1} ms \
             ({warm} reads)  bit-identical: {}",
            probe.cold_ms, probe.p50_ms, probe.iqr_ms, probe.identical,
        );
        probes.push(probe);
    }
    let mut grown = Vec::new();
    for &rows in sizes {
        let probe = grown_reads(&spec, &bulk[..rows], warm);
        println!(
            "pairwise  rows = {rows:5}  grown by {GROWTH} rows  p50 {:7.1} ms  IQR {:5.1} ms \
             ({warm} reads)  bit-identical: {}",
            probe.p50_ms, probe.iqr_ms, probe.identical,
        );
        grown.push(probe);
    }
    let reads_identical = probes.iter().all(|p| p.identical) && grown.iter().all(|p| p.identical);
    println!(
        "CHECK [{}] every cold, warm and grown Pairwise([]) read bit-identical to the \
         in-process engine",
        if reads_identical { "PASS" } else { "FAIL" }
    );
    all_identical &= reads_identical;
    println!(
        "NOTE single-host record: clients and server share one CPU budget, so req/s \
         measures protocol + scheduling overhead, not scale-out"
    );

    let json = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("server_concurrency".to_string()),
        ),
        (
            "workload".to_string(),
            JsonValue::String(
                "knn(k=4) point queries over loopback TCP; warm_reads: full-matrix \
                 Pairwise([]) reads off a warm memo, thread mode over loopback TCP; \
                 grown_reads: the same read right after 64 rows were ingested, so the \
                 server grows its memo first (a fresh server per read)"
                    .to_string(),
            ),
        ),
        (
            "note".to_string(),
            JsonValue::String(
                "single-host record (CI pins 1 CPU): protocol + scheduling overhead, \
                 not scale-out"
                    .to_string(),
            ),
        ),
        ("d".to_string(), JsonValue::UInt(d as u64)),
        ("k".to_string(), JsonValue::UInt(k as u64)),
        ("rows".to_string(), JsonValue::UInt(rows as u64)),
        (
            "queries_per_client".to_string(),
            JsonValue::UInt(queries as u64),
        ),
        ("bit_identical".to_string(), JsonValue::Bool(all_identical)),
        (
            "warm_reads".to_string(),
            JsonValue::Array(
                probes
                    .iter()
                    .map(|p| {
                        JsonValue::Object(vec![
                            ("rows".to_string(), JsonValue::UInt(p.rows as u64)),
                            ("cold_ms".to_string(), JsonValue::Number(p.cold_ms)),
                            ("reads".to_string(), JsonValue::UInt(warm as u64)),
                            ("p50_ms".to_string(), JsonValue::Number(p.p50_ms)),
                            ("iqr_ms".to_string(), JsonValue::Number(p.iqr_ms)),
                            ("bit_identical".to_string(), JsonValue::Bool(p.identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "grown_reads".to_string(),
            JsonValue::Array(
                grown
                    .iter()
                    .map(|p| {
                        JsonValue::Object(vec![
                            ("rows".to_string(), JsonValue::UInt(p.rows as u64)),
                            ("grown_by".to_string(), JsonValue::UInt(GROWTH as u64)),
                            ("reads".to_string(), JsonValue::UInt(warm as u64)),
                            ("p50_ms".to_string(), JsonValue::Number(p.p50_ms)),
                            ("iqr_ms".to_string(), JsonValue::Number(p.iqr_ms)),
                            ("bit_identical".to_string(), JsonValue::Bool(p.identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "measurements".to_string(),
            JsonValue::Array(
                measurements
                    .iter()
                    .map(|m| {
                        JsonValue::Object(vec![
                            ("mode".to_string(), JsonValue::String(m.mode.to_string())),
                            ("clients".to_string(), JsonValue::UInt(m.clients as u64)),
                            (
                                "throughput_qps".to_string(),
                                JsonValue::Number(m.throughput_qps),
                            ),
                            ("p50_ns".to_string(), JsonValue::Number(m.p50_ns)),
                            ("p99_ns".to_string(), JsonValue::Number(m.p99_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(out_path, json.to_string()).expect("write BENCH_server.json");
    println!("wrote {out_path}");
    if !all_identical {
        std::process::exit(1);
    }
}
