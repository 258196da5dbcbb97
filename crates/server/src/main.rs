//! The `dp-server` binary: a protocol-v7 sketch service.
//!
//! ```text
//! dp-server [--listen tcp:HOST:PORT | --listen unix:PATH]
//!           [--spec PATH.json] [--workers N] [--serve-mode threads|evloop]
//!           [--worker ENDPOINT]... [--shard-tile T] [--worker-timeout SECS]
//!           [--data-dir PATH] [--compact-threshold N]
//!           [--standby PRIMARY-ENDPOINT]
//! ```
//!
//! Without `--spec` the store adopts the spec proposed by the first
//! client `Hello`. The engine's all-pairs kernel runs on the usual
//! `DP_THREADS` environment knob; `--workers` sets how
//! many connections (threads mode) or event loops (evloop mode) are
//! served concurrently. The server exits cleanly when a client sends
//! the protocol `Shutdown` request.
//!
//! `--serve-mode threads` (the default) serves one blocking thread per
//! connection, with read/write timeouts from `--worker-timeout` so a
//! wedged client cannot pin a thread forever. `--serve-mode evloop`
//! serves on `dp-net`'s poll-driven nonblocking reactor: slow clients
//! cost a buffer, overload answers a typed `ERR_BUSY`.
//!
//! Passing one or more `--worker` endpoints switches the server into
//! **coordinator mode**: ingests are broadcast to every worker server,
//! and full all-pairs queries are answered by sharding the tile plan
//! (`--shard-tile` tiles, default 64) across the pool and gathering the
//! scattered segments. Each worker connection carries a read timeout
//! (`--worker-timeout`, default 30 s) so a dead worker fails a query
//! with a typed error instead of hanging the coordinator. Worker
//! servers are plain `dp-server` instances — start them first, or
//! within the coordinator's connect-retry window (~5 s).
//!
//! `--data-dir` makes the coordinator **durable**: every accepted
//! ingest is appended to an on-disk journal, snapshots are written on
//! compaction (`--compact-threshold` journal frames, 0 = never), and a
//! restart with the same directory recovers the full store before
//! accepting connections. `--standby PRIMARY` runs a **warm standby**
//! instead of serving: it tails the primary's replication log over the
//! wire and, once the primary stays unreachable, binds `--listen`
//! itself, reconnects the `--worker` pool, and serves as the new
//! coordinator — same store, bit-identical answers.

use dp_core::protocol::SNAPSHOT_LAYER_STORE;
use dp_core::sketcher::SketcherSpec;
use dp_core::Parallelism;
use dp_engine::{QueryEngine, SketchStore};
use dp_server::{Client, ClientError, CoordinatorConfig, Endpoint, ServeMode, Server, WorkerEntry};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn fail(message: &str) -> ExitCode {
    eprintln!("dp-server: {message}");
    ExitCode::FAILURE
}

/// How many consecutive failed probes of the primary a synced standby
/// tolerates before promoting itself. At the default 100 ms tail
/// cadence this is ~half a second of silence — long enough to ride out
/// a restart-level blip, short enough that takeover is prompt.
const STANDBY_PROMOTE_AFTER: u32 = 5;

/// The pause between standby tail rounds.
const STANDBY_TICK: Duration = Duration::from_millis(100);

/// Tail the primary's replication log into a local engine until the
/// primary stays dead, then promote: bind `listen`, reconnect the
/// worker pool, and serve as the coordinator. The standby does **not**
/// bind its listen endpoint until promotion — there is exactly one
/// coordinator at a time.
///
/// Failed probes count toward promotion only once a `FetchSnapshot`
/// has succeeded (a zero-part answer counts): a standby that never
/// synced holds nothing, and promoting it would serve an empty store
/// while the workers hold every row. Until then it keeps probing.
#[allow(clippy::too_many_arguments)]
fn run_standby(
    primary: Endpoint,
    listen: Endpoint,
    worker_endpoints: &[String],
    config: CoordinatorConfig,
    worker_timeout: Duration,
    serve_mode: ServeMode,
    loops: usize,
) -> ExitCode {
    let mut engine = QueryEngine::new(SketchStore::adopting());
    let mut conn: Option<Client> = None;
    let mut synced = false;
    let mut failures = 0u32;
    println!("dp-server: standby tailing {primary}");
    while failures < STANDBY_PROMOTE_AFTER {
        std::thread::sleep(STANDBY_TICK);
        let client = match conn.as_mut() {
            Some(client) => client,
            None => match Client::connect(&primary) {
                Ok(client) => {
                    if client.set_read_timeout(Some(worker_timeout)).is_err() {
                        if synced {
                            failures += 1;
                        }
                        continue;
                    }
                    conn.insert(client)
                }
                Err(_) => {
                    if synced {
                        failures += 1;
                    }
                    continue;
                }
            },
        };
        let have = engine.store().n() as u64;
        let mut store_bytes: Vec<u8> = Vec::new();
        let mut journal_frames: Vec<Vec<u8>> = Vec::new();
        match client.fetch_snapshot(have, 0, &mut |layer, chunk| {
            if layer == SNAPSHOT_LAYER_STORE {
                store_bytes.extend_from_slice(&chunk);
            } else {
                journal_frames.push(chunk);
            }
        }) {
            Ok(_) => {
                failures = 0;
                if !store_bytes.is_empty() {
                    match SketchStore::decode_snapshot(&store_bytes) {
                        Ok((store, generation)) => engine.replace_store(store, generation),
                        Err(e) => {
                            eprintln!("dp-server: standby snapshot decode failed: {e}");
                            continue;
                        }
                    }
                }
                for frame in &journal_frames {
                    if let Err(e) = engine.ingest_bytes(frame) {
                        eprintln!("dp-server: standby journal frame refused: {e}");
                        break;
                    }
                }
                synced = true;
            }
            Err(ClientError::Remote { message, .. }) => {
                // The primary is alive but refused the tail — the
                // standby diverged ahead (a primary restart from an
                // older snapshot). Drop local state and refetch from 0.
                eprintln!("dp-server: standby diverged ({message}); refetching from scratch");
                failures = 0;
                synced = false;
                engine = QueryEngine::new(SketchStore::adopting());
            }
            Err(_) => {
                if synced {
                    failures += 1;
                }
                conn = None;
            }
        }
    }

    println!(
        "dp-server: primary {primary} unreachable after {failures} probe(s) — promoting standby \
         holding {} row(s)",
        engine.store().n()
    );
    let worker_clients = match connect_workers(worker_endpoints, worker_timeout) {
        Ok(w) => w,
        Err(e) => return fail(&e),
    };
    let server = match Server::bind_coordinator_with(listen, engine, worker_clients, config) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot bind after promotion: {e}")),
    };
    let server = server.with_conn_timeout(Some(worker_timeout));
    println!(
        "dp-server: promoted standby serving on {} ({} worker(s))",
        server.local_endpoint(),
        server.worker_count()
    );
    server.serve_mode(serve_mode, loops);
    println!("dp-server: clean shutdown");
    ExitCode::SUCCESS
}

/// Connect to a worker endpoint, retrying briefly: coordinator and
/// workers are typically launched together, and the workers may not be
/// listening yet.
fn connect_worker(endpoint: &Endpoint, timeout: Duration) -> std::io::Result<Client> {
    let mut last_err = None;
    for _ in 0..20 {
        match Client::connect(endpoint) {
            Ok(client) => {
                client.set_read_timeout(Some(timeout))?;
                return Ok(client);
            }
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(250));
            }
        }
    }
    Err(last_err.expect("at least one attempt"))
}

/// Connect the `--worker` pool. Keeping each endpoint makes its slot
/// revivable: after a failure the coordinator reconnects and replays
/// its ingest journal instead of requiring a restart.
fn connect_workers(endpoints: &[String], timeout: Duration) -> Result<Vec<WorkerEntry>, String> {
    endpoints
        .iter()
        .map(|text| {
            let endpoint = Endpoint::parse(text)?;
            let client = connect_worker(&endpoint, timeout)
                .map_err(|e| format!("cannot reach worker {endpoint}: {e}"))?;
            Ok(WorkerEntry::reconnectable(client, endpoint, Some(timeout)))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "tcp:127.0.0.1:7878".to_string();
    let mut spec_path: Option<String> = None;
    let mut workers = Parallelism::default().threads();
    let mut worker_endpoints: Vec<String> = Vec::new();
    let mut shard_tile = dp_parallel::DEFAULT_TILE;
    let mut worker_timeout = Duration::from_secs(30);
    let mut serve_mode = ServeMode::Threads;
    let mut data_dir: Option<PathBuf> = None;
    let mut compact_threshold = 0usize;
    let mut standby: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned();
        match args[i].as_str() {
            "--listen" => match value(i) {
                Some(v) => {
                    listen = v;
                    i += 2;
                }
                None => return fail("--listen needs a value"),
            },
            "--spec" => match value(i) {
                Some(v) => {
                    spec_path = Some(v);
                    i += 2;
                }
                None => return fail("--spec needs a value"),
            },
            "--workers" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => {
                    workers = v.max(1);
                    i += 2;
                }
                None => return fail("--workers needs an integer"),
            },
            "--worker" => match value(i) {
                Some(v) => {
                    worker_endpoints.push(v);
                    i += 2;
                }
                None => return fail("--worker needs an endpoint"),
            },
            "--shard-tile" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => {
                    shard_tile = v.max(1);
                    i += 2;
                }
                None => return fail("--shard-tile needs an integer"),
            },
            "--worker-timeout" => match value(i).and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => {
                    worker_timeout = Duration::from_secs(v.max(1));
                    i += 2;
                }
                None => return fail("--worker-timeout needs seconds"),
            },
            "--data-dir" => match value(i) {
                Some(v) => {
                    data_dir = Some(PathBuf::from(v));
                    i += 2;
                }
                None => return fail("--data-dir needs a path"),
            },
            "--compact-threshold" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => {
                    compact_threshold = v;
                    i += 2;
                }
                None => return fail("--compact-threshold needs an integer"),
            },
            "--standby" => match value(i) {
                Some(v) => {
                    standby = Some(v);
                    i += 2;
                }
                None => return fail("--standby needs the primary's endpoint"),
            },
            "--serve-mode" => match value(i).as_deref().map(ServeMode::parse) {
                Some(Ok(mode)) => {
                    serve_mode = mode;
                    i += 2;
                }
                Some(Err(e)) => return fail(&e),
                None => return fail("--serve-mode needs threads or evloop"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: dp-server [--listen tcp:HOST:PORT|unix:PATH] \
                     [--spec PATH.json] [--workers N] [--serve-mode threads|evloop] \
                     [--worker ENDPOINT]... [--shard-tile T] [--worker-timeout SECS] \
                     [--data-dir PATH] [--compact-threshold N] [--standby ENDPOINT]"
                );
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument '{other}'")),
        }
    }

    let endpoint = match Endpoint::parse(&listen) {
        Ok(e) => e,
        Err(e) => return fail(&e),
    };
    let config = CoordinatorConfig {
        tile: shard_tile,
        compact_threshold,
        data_dir,
    };
    if let Some(primary) = standby {
        let primary = match Endpoint::parse(&primary) {
            Ok(e) => e,
            Err(e) => return fail(&e),
        };
        return run_standby(
            primary,
            endpoint,
            &worker_endpoints,
            config,
            worker_timeout,
            serve_mode,
            workers,
        );
    }
    let store = match &spec_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            };
            let spec = match SketcherSpec::from_json(&text) {
                Ok(s) => s,
                Err(e) => return fail(&format!("bad spec in {path}: {e}")),
            };
            match SketchStore::with_spec(spec) {
                Ok(s) => s,
                Err(e) => return fail(&format!("spec cannot build a sketcher: {e}")),
            }
        }
        None => SketchStore::adopting(),
    };
    let engine = QueryEngine::new(store);

    let worker_clients = match connect_workers(&worker_endpoints, worker_timeout) {
        Ok(w) => w,
        Err(e) => return fail(&e),
    };

    let coordinator =
        !worker_clients.is_empty() || config.data_dir.is_some() || config.compact_threshold > 0;
    let server = if coordinator {
        Server::bind_coordinator_with(endpoint, engine, worker_clients, config)
    } else {
        Server::bind(endpoint, engine)
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot bind {listen}: {e}")),
    };
    // The wedged-client guard: thread-mode accepted sockets share the
    // worker-timeout knob, so a half-open peer frees its thread within
    // the deadline instead of pinning it forever.
    let server = server.with_conn_timeout(Some(worker_timeout));
    let mode_name = match serve_mode {
        ServeMode::Threads => "threads",
        ServeMode::EvLoop => "evloop",
    };
    if coordinator {
        println!(
            "dp-server: coordinating {} worker server(s) on {} ({} {mode_name} loop(s), shard tile {})",
            server.worker_count(),
            server.local_endpoint(),
            workers,
            shard_tile
        );
    } else {
        println!(
            "dp-server: serving protocol v{} on {} ({} worker(s), {mode_name} mode)",
            dp_core::protocol::PROTOCOL_VERSION,
            server.local_endpoint(),
            workers
        );
    }
    server.serve_mode(serve_mode, workers);
    println!("dp-server: clean shutdown");
    ExitCode::SUCCESS
}
