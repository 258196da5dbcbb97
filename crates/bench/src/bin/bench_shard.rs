//! Benchmark the sharded all-pairs pipeline against the local kernel.
//!
//! Spins up 1/2/4 worker `dp-server`s plus a coordinator over unix
//! sockets (in-process threads — the protocol and gather costs are
//! real, the network is a loopback socket), ingests one batch of
//! releases through the coordinator, and times the full all-pairs
//! matrix three ways per shard count:
//!
//! * **local** — the in-process tiled kernel (`QueryEngine::pairwise_all`
//!   on a cold engine, so no memo answers).
//! * **coordinator, cold** — `Pairwise([])` against the coordinator:
//!   shard the plan, one `ExecuteTilesStream` per worker, gather the
//!   streamed parts by tile id, one response frame back.
//! * **coordinator, warm** — the same query repeated: the coordinator's
//!   engine adopted the gathered matrix as its all-pairs memo, so the
//!   published snapshot answers with no worker I/O.
//!
//! Each shard count also records the coordinator's ingest round trip
//! (local ingest, journal, and one overlapped broadcast to every
//! worker) as the median and IQR of the ingests that fill its store: a
//! timing, not a gate.
//!
//! Every coordinator answer is verified **bit-identical** to the local
//! matrix before timing. On a single-core host the sharded path is
//! expected to *lose* (same arithmetic plus framing and scatter); the
//! point of the record is the trajectory — per-shard overhead now,
//! multi-host speedup when real hardware is behind the sockets. Writes
//! machine-readable `BENCH_shard.json`.
//!
//! Usage: `bench_shard [--quick] [--out <path>]`

use dp_bench::runner::{time_per_op, Spread};
use dp_bench::workload::gaussian_vec;
use dp_core::config::SketchConfig;
use dp_core::json::JsonValue;
use dp_core::release::Release;
use dp_core::sketcher::{Construction, PrivateSketcher, SketcherSpec};
use dp_core::wire;
use dp_engine::{QueryEngine, SketchStore};
use dp_hashing::Seed;
use dp_server::{Client, CoordinatorConfig, Endpoint, Server, WorkerEntry};
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Measurement {
    shards: usize,
    ns_per_pair_local: f64,
    /// The cold sharded query: plan, fan-out, gather, one response.
    ns_per_pair_sharded: f64,
    /// A repeated query on the unchanged store (the engine memo the
    /// cold pass was adopted into answers; no worker I/O).
    ns_per_pair_warm: f64,
    sharded_over_local: f64,
    /// The ingests that fill the store, µs each: the client's round
    /// trip through the coordinator's replicated mutation.
    ingest_us: Spread,
}

struct GrowthMeasurement {
    rows_before: usize,
    rows_after: usize,
    frontier_tiles: u64,
    plan_tiles: u64,
    ns_per_pair_incremental: f64,
    ns_per_pair_full: f64,
    incremental_over_full: f64,
}

struct ResyncMeasurement {
    /// Rows the revived replica had to recover.
    rows: usize,
    /// Journal frames replayed row-by-row during the revival.
    replayed_frames: u64,
    /// Streamed snapshot installs during the revival (0 = cold replay).
    snapshot_installs: u64,
    /// Wall time of the reviving query, µs (one shot — includes the
    /// reconnect, the resync, and the full gather).
    us_reviving_query: f64,
}

fn scratch_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dp-bench-shard-{tag}-{}.sock", std::process::id()))
}

/// Spin up `shards` workers plus a coordinator, run `body` against the
/// coordinator endpoint, wind everything down.
fn with_coordinator<T>(
    tag: &str,
    shards: usize,
    shard_tile: usize,
    body: impl FnOnce(&mut Client, &Server) -> T,
) -> T {
    let workers: Vec<(Server, Endpoint, PathBuf)> = (0..shards)
        .map(|w| {
            let socket = scratch_socket(&format!("{tag}-w{w}"));
            let endpoint = Endpoint::Unix(socket.clone());
            let server = Server::bind(endpoint.clone(), QueryEngine::new(SketchStore::adopting()))
                .expect("bind worker");
            (server, endpoint, socket)
        })
        .collect();
    let coord_socket = scratch_socket(&format!("{tag}-coord"));
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());
    let timeout = Duration::from_secs(120);
    let pool: Vec<WorkerEntry> = workers
        .iter()
        .map(|(_, endpoint, _)| {
            let client = Client::connect(endpoint).expect("connect worker");
            WorkerEntry::reconnectable(client, endpoint.clone(), Some(timeout))
        })
        .collect();
    let coordinator = Server::bind_coordinator(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        pool,
        shard_tile,
    )
    .expect("bind coordinator");

    let out = std::thread::scope(|scope| {
        for (worker, _, _) in &workers {
            scope.spawn(|| worker.serve(1));
        }
        let hc = scope.spawn(|| coordinator.serve(1));
        let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
        let out = body(&mut client, &coordinator);
        client.shutdown().expect("shutdown");
        hc.join().expect("coordinator joined");
        out
    });
    for (_, _, socket) in &workers {
        let _ = std::fs::remove_file(socket);
    }
    let _ = std::fs::remove_file(&coord_socket);
    out
}

/// Measure what a worker restart costs under a given compaction
/// threshold: ingest `releases`, cleanly stop worker 0, restart it
/// empty on the same socket, and time the query that revives it —
/// with `compact_threshold` 0 the revival replays the whole journal,
/// with a threshold it installs the compaction snapshot and replays
/// only the suffix. The reviving matrix is verified bit-identical to
/// `expected` before the measurement is trusted.
fn resync_cost(
    tag: &str,
    spec: &SketcherSpec,
    releases: &[Release],
    shard_tile: usize,
    compact_threshold: usize,
    expected: &[f64],
) -> ResyncMeasurement {
    let sock_a = scratch_socket(&format!("{tag}-resync-wa"));
    let sock_b = scratch_socket(&format!("{tag}-resync-wb"));
    let coord_socket = scratch_socket(&format!("{tag}-resync-coord"));
    for s in [&sock_a, &sock_b, &coord_socket] {
        let _ = std::fs::remove_file(s);
    }
    let ep_a = Endpoint::Unix(sock_a.clone());
    let ep_b = Endpoint::Unix(sock_b.clone());
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());
    // Worker A's serve loop polls the shutdown flag on a short conn
    // timeout so the in-process "kill" (a direct Shutdown) completes.
    let worker_a = Server::bind(ep_a.clone(), QueryEngine::new(SketchStore::adopting()))
        .expect("bind worker a")
        .with_conn_timeout(Some(Duration::from_millis(200)));
    let worker_b = Server::bind(ep_b.clone(), QueryEngine::new(SketchStore::adopting()))
        .expect("bind worker b");
    let timeout = Duration::from_secs(120);
    let pool: Vec<WorkerEntry> = [&ep_a, &ep_b]
        .iter()
        .map(|ep| {
            let client = Client::connect(ep).expect("connect worker");
            WorkerEntry::reconnectable(client, (*ep).clone(), Some(timeout))
        })
        .collect();
    let coordinator = Server::bind_coordinator_with(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        pool,
        CoordinatorConfig {
            tile: shard_tile,
            compact_threshold,
            data_dir: None,
        },
    )
    .expect("bind coordinator");

    let out = std::thread::scope(|scope| {
        let ha = scope.spawn(|| worker_a.serve(2));
        scope.spawn(|| worker_b.serve(2));
        let hc = scope.spawn(|| coordinator.serve(1));
        let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
        client.hello(spec).expect("hello");
        for r in releases {
            client.ingest(r).expect("ingest");
        }
        let direct = Client::connect(&ep_a).expect("connect worker a");
        direct.shutdown().expect("stop worker a");
        ha.join().expect("worker a joined");
        let _ = std::fs::remove_file(&sock_a);
        let worker_a2 = Server::bind(ep_a.clone(), QueryEngine::new(SketchStore::adopting()))
            .expect("rebind worker a");
        let ha2 = scope.spawn(move || worker_a2.serve(2));

        let started = Instant::now();
        let (_, values) = client.pairwise(&[]).expect("reviving pairwise");
        let us = started.elapsed().as_nanos() as f64 / 1_000.0;
        let mut identical = values.len() == expected.len();
        for (a, b) in values.iter().zip(expected) {
            identical &= a.to_bits() == b.to_bits();
        }
        assert!(identical, "reviving query diverged from the local kernel");
        let stats = coordinator.coordinator_stats().expect("coordinator");
        client.shutdown().expect("shutdown");
        hc.join().expect("coordinator joined");
        ha2.join().expect("revived worker joined");
        ResyncMeasurement {
            rows: releases.len(),
            replayed_frames: stats.replayed_frames,
            snapshot_installs: stats.snapshot_installs,
            us_reviving_query: us,
        }
    });
    for s in [&sock_a, &sock_b, &coord_socket] {
        let _ = std::fs::remove_file(s);
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_shard.json", String::as_str);

    let d = 256;
    let rows = if quick { 48 } else { 96 };
    let grow = if quick { 8 } else { 16 };
    let shard_tile = 8;
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0)
        .build()
        .expect("config");
    let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(17));
    let sketcher = spec.build().expect("sketcher");
    let k = sketcher.k();
    let data: Vec<Vec<f64>> = (0..rows + grow)
        .map(|r| gaussian_vec(d, Seed::new(3000 + r as u64)))
        .collect();
    let all_releases: Vec<Release> = sketcher
        .sketch_batch(&data, Seed::new(77))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: i as u64,
            sketch,
        })
        .collect();
    let releases = &all_releases[..rows];
    let pairs = rows * (rows - 1) / 2;
    println!("== bench_shard: coordinator-sharded vs local all-pairs ==");
    println!(
        "d = {d}, k = {k}, rows = {rows} ({pairs} pairs), shard tile = {shard_tile}, \
         kernel = {}",
        spec.kernel().name()
    );

    // Local reference + baseline timing: every call runs the full tiled
    // kernel on a cold engine over a clone of the store, which shares
    // the store's sealed rows and so costs little next to the kernel.
    let mut local_engine = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in releases {
        local_engine.ingest(r).expect("ingest");
    }
    let local_matrix = local_engine.pairwise_all();
    let iters = if quick { 3 } else { 8 };
    let ns_local = time_per_op(iters, || {
        std::hint::black_box(QueryEngine::new(local_engine.store().clone()).pairwise_all());
    }) / pairs as f64;

    let mut measurements = Vec::new();
    let mut all_identical = true;
    for shards in [1usize, 2, 4] {
        let (ns_sharded, ns_warm, identical, ingest_us) =
            with_coordinator(&format!("s{shards}"), shards, shard_tile, |client, _| {
                client.hello(&spec).expect("hello");
                let ingests: Vec<f64> = releases
                    .iter()
                    .map(|r| {
                        let started = Instant::now();
                        client.ingest(r).expect("ingest");
                        started.elapsed().as_nanos() as f64
                    })
                    .collect();
                // The cold query (plan → fan-out → gather) is what a
                // growing deployment pays; it also verifies
                // bit-identity against the local engine before any
                // timing is trusted.
                let started = Instant::now();
                let (_, values) = client.pairwise(&[]).expect("sharded pairwise");
                let ns_cold = started.elapsed().as_nanos() as f64 / pairs as f64;
                let mut identical = values.len() == local_matrix.as_flat().len();
                for (a, b) in values.iter().zip(local_matrix.as_flat()) {
                    identical &= a.to_bits() == b.to_bits();
                }
                // Repeats answer from the engine memo the cold pass was
                // adopted into, off the published snapshot.
                let ns_warm = time_per_op(iters, || {
                    std::hint::black_box(client.pairwise(&[]).expect("warm pairwise"));
                }) / pairs as f64;
                (ns_cold, ns_warm, identical, Spread::of(&ingests, 1e3))
            });

        all_identical &= identical;
        println!(
            "shards = {shards}  local {ns_local:8.1} ns/pair  sharded cold {ns_sharded:8.1} \
             ns/pair ({:5.2}x local)  warm {ns_warm:8.1} ns/pair  ingest {:7.1} µs \
             (IQR {:5.1})  bit-identical: {identical}",
            ns_sharded / ns_local,
            ingest_us.median,
            ingest_us.iqr,
        );
        measurements.push(Measurement {
            shards,
            ns_per_pair_local: ns_local,
            ns_per_pair_sharded: ns_sharded,
            ns_per_pair_warm: ns_warm,
            sharded_over_local: ns_sharded / ns_local,
            ingest_us,
        });
    }

    // Growth scenario: ingest-then-requery. The incremental path seeds
    // the coordinator's gather from its engine memo and re-executes
    // only the frontier tiles; "full" is a cold coordinator computing
    // the same final matrix from scratch. Both verified bit-identical
    // to a local engine over all rows before timing.
    let rows_after = rows + grow;
    let pairs_after = rows_after * (rows_after - 1) / 2;
    let mut grown_engine = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &all_releases {
        grown_engine.ingest(r).expect("ingest");
    }
    let grown_matrix = grown_engine.pairwise_all();
    let verify = |values: &[f64]| {
        let mut identical = values.len() == grown_matrix.as_flat().len();
        for (a, b) in values.iter().zip(grown_matrix.as_flat()) {
            identical &= a.to_bits() == b.to_bits();
        }
        identical
    };

    let (ns_inc, frontier_tiles, inc_identical) =
        with_coordinator("g-inc", 2, shard_tile, |client, coordinator| {
            client.hello(&spec).expect("hello");
            for r in releases {
                client.ingest(r).expect("ingest");
            }
            // Prime the engine memo at the pre-growth row count.
            client.pairwise(&[]).expect("prime");
            for r in &all_releases[rows..] {
                client.ingest(r).expect("ingest growth");
            }
            let started = Instant::now();
            let (_, values) = client.pairwise(&[]).expect("incremental requery");
            let ns = started.elapsed().as_nanos() as f64 / pairs_after as f64;
            let stats = coordinator.coordinator_stats().expect("coordinator");
            (ns, stats.last_query_tiles, verify(&values))
        });
    let (ns_full, plan_tiles, full_identical) =
        with_coordinator("g-full", 2, shard_tile, |client, coordinator| {
            client.hello(&spec).expect("hello");
            for r in &all_releases {
                client.ingest(r).expect("ingest");
            }
            let started = Instant::now();
            let (_, values) = client.pairwise(&[]).expect("cold full query");
            let ns = started.elapsed().as_nanos() as f64 / pairs_after as f64;
            let stats = coordinator.coordinator_stats().expect("coordinator");
            (ns, stats.last_query_tiles, verify(&values))
        });
    all_identical &= inc_identical && full_identical;
    let growth = GrowthMeasurement {
        rows_before: rows,
        rows_after,
        frontier_tiles,
        plan_tiles,
        ns_per_pair_incremental: ns_inc,
        ns_per_pair_full: ns_full,
        incremental_over_full: ns_inc / ns_full,
    };
    println!(
        "growth +{grow} rows: incremental {ns_inc:8.1} ns/pair ({frontier_tiles} frontier tiles) \
         vs full {ns_full:8.1} ns/pair ({plan_tiles} tiles) — {:.2}x",
        growth.incremental_over_full
    );

    // Resync scenario: what does a worker restart cost? Cold = replay
    // the whole journal row by row; snapshot = install the compacted
    // store snapshot and replay only the suffix. Both revivals verify
    // bit-identity before timing. The snapshot threshold folds the
    // journal exactly at the ingest count, leaving an empty suffix —
    // the best case the compactor aims for.
    let cold = resync_cost(
        "cold",
        &spec,
        releases,
        shard_tile,
        0,
        local_matrix.as_flat(),
    );
    let snap = resync_cost(
        "snap",
        &spec,
        releases,
        shard_tile,
        rows / 3,
        local_matrix.as_flat(),
    );
    println!(
        "resync {rows} rows: cold replay {} frames in {:9.1} µs vs snapshot install \
         ({} install(s), {} suffix frames) in {:9.1} µs",
        cold.replayed_frames,
        cold.us_reviving_query,
        snap.snapshot_installs,
        snap.replayed_frames,
        snap.us_reviving_query,
    );
    let snapshot_resync_wins = snap.snapshot_installs >= 1
        && cold.snapshot_installs == 0
        && snap.replayed_frames < cold.replayed_frames;
    println!(
        "CHECK [{}] snapshot resync replays strictly fewer frames than cold replay",
        if snapshot_resync_wins { "PASS" } else { "FAIL" }
    );

    println!(
        "CHECK [{}] every sharded matrix bit-identical to the local kernel",
        if all_identical { "PASS" } else { "FAIL" }
    );
    let growth_wins = growth.incremental_over_full < 1.0;
    println!(
        "CHECK [{}] incremental growth beats full re-execution on ns/pair",
        if growth_wins { "PASS" } else { "FAIL" }
    );
    println!(
        "NOTE single-host record: shards share one CPU here, so ns/pair measures \
         protocol + gather overhead, not scale-out"
    );

    let json = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("sharded_pairwise".to_string()),
        ),
        (
            "construction".to_string(),
            JsonValue::String("sjlt-auto".to_string()),
        ),
        ("d".to_string(), JsonValue::UInt(d as u64)),
        ("k".to_string(), JsonValue::UInt(k as u64)),
        ("rows".to_string(), JsonValue::UInt(rows as u64)),
        ("pairs".to_string(), JsonValue::UInt(pairs as u64)),
        ("shard_tile".to_string(), JsonValue::UInt(shard_tile as u64)),
        (
            "kernel".to_string(),
            JsonValue::String(spec.kernel().name().to_string()),
        ),
        (
            "bytes_per_sketch_f64".to_string(),
            JsonValue::UInt(wire::encoded_len(sketcher.tag().len(), k) as u64),
        ),
        (
            "bytes_per_sketch_f32".to_string(),
            JsonValue::UInt(wire::encoded_len_f32(sketcher.tag().len(), k) as u64),
        ),
        ("bit_identical".to_string(), JsonValue::Bool(all_identical)),
        (
            "growth".to_string(),
            JsonValue::Object(vec![
                (
                    "rows_before".to_string(),
                    JsonValue::UInt(growth.rows_before as u64),
                ),
                (
                    "rows_after".to_string(),
                    JsonValue::UInt(growth.rows_after as u64),
                ),
                (
                    "frontier_tiles".to_string(),
                    JsonValue::UInt(growth.frontier_tiles),
                ),
                ("plan_tiles".to_string(), JsonValue::UInt(growth.plan_tiles)),
                (
                    "ns_per_pair_incremental".to_string(),
                    JsonValue::Number(growth.ns_per_pair_incremental),
                ),
                (
                    "ns_per_pair_full".to_string(),
                    JsonValue::Number(growth.ns_per_pair_full),
                ),
                (
                    "incremental_over_full".to_string(),
                    JsonValue::Number(growth.incremental_over_full),
                ),
            ]),
        ),
        (
            "resync".to_string(),
            JsonValue::Object(vec![
                ("rows".to_string(), JsonValue::UInt(cold.rows as u64)),
                (
                    "cold_replayed_frames".to_string(),
                    JsonValue::UInt(cold.replayed_frames),
                ),
                (
                    "us_cold_resync".to_string(),
                    JsonValue::Number(cold.us_reviving_query),
                ),
                (
                    "snapshot_installs".to_string(),
                    JsonValue::UInt(snap.snapshot_installs),
                ),
                (
                    "snapshot_suffix_frames".to_string(),
                    JsonValue::UInt(snap.replayed_frames),
                ),
                (
                    "us_snapshot_resync".to_string(),
                    JsonValue::Number(snap.us_reviving_query),
                ),
                (
                    "snapshot_over_cold".to_string(),
                    JsonValue::Number(snap.us_reviving_query / cold.us_reviving_query),
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
                            ("shards".to_string(), JsonValue::UInt(m.shards as u64)),
                            (
                                "ns_per_pair_local".to_string(),
                                JsonValue::Number(m.ns_per_pair_local),
                            ),
                            (
                                "ns_per_pair_sharded".to_string(),
                                JsonValue::Number(m.ns_per_pair_sharded),
                            ),
                            (
                                "ns_per_pair_warm".to_string(),
                                JsonValue::Number(m.ns_per_pair_warm),
                            ),
                            (
                                "sharded_over_local".to_string(),
                                JsonValue::Number(m.sharded_over_local),
                            ),
                            ("ingest_us".to_string(), m.ingest_us.json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(out_path, json.to_string()).expect("write BENCH_shard.json");
    println!("wrote {out_path}");
    if !all_identical {
        std::process::exit(1);
    }
}
