//! End-to-end tests of the fault-tolerant sharded pairwise pipeline: a
//! coordinator `dp-server` fanning ingests and tile executions out to
//! real worker servers over unix sockets. The acceptance bar is the
//! workspace's determinism contract: the gathered matrix must be
//! **bit-identical** to the spec's kernel run sequentially over the
//! same releases (for `v1-scalar`, that is exactly
//! `pairwise_sq_distances_reference`) — including when a worker dies
//! mid-query (re-dispatch), when rows are ingested between queries
//! (incremental frontier re-execution), and when a killed worker is
//! restarted and resynced from the coordinator's ingest journal.

use dp_euclid::core::release::Release;
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;
use dp_server::{Client, ClientError, Endpoint, Server, WorkerEntry};
use std::path::PathBuf;
use std::time::Duration;

mod common;
use common::ShutdownOnPanic;

fn spec(d: usize) -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(777))
}

fn releases(spec: &SketcherSpec, n: usize) -> Vec<Release> {
    let sketcher = spec.build().expect("sketcher");
    let d = sketcher.input_dim();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| ((7 * i + j) % 9) as f64 - 4.0).collect())
        .collect();
    sketcher
        .sketch_batch(&rows, Seed::new(555))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: 900 + i as u64,
            sketch,
        })
        .collect()
}

/// The bit-identity anchor: the historic per-pair estimator, which
/// runs none of the tiled code.
fn reference_matrix(sketches: &[NoisySketch]) -> PairwiseDistances {
    dp_euclid::core::pairwise_sq_distances_reference(sketches).expect("reference")
}

fn scratch_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dp-coord-{tag}-{}.sock", std::process::id()))
}

fn bind_worker(tag: &str) -> (Server, Endpoint, PathBuf) {
    let socket = scratch_socket(tag);
    let endpoint = Endpoint::Unix(socket.clone());
    let server =
        Server::bind(endpoint.clone(), QueryEngine::new(SketchStore::adopting())).expect("bind");
    (server, endpoint, socket)
}

fn reconnectable_pool(endpoints: &[&Endpoint], timeout: Duration) -> Vec<WorkerEntry> {
    endpoints
        .iter()
        .map(|ep| {
            let client = Client::connect(ep).expect("connect worker");
            WorkerEntry::reconnectable(client, (*ep).clone(), Some(timeout))
        })
        .collect()
}

fn assert_bits(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn sharded_pairwise_is_bit_identical_to_the_reference() {
    let spec = spec(160);
    let all = releases(&spec, 18);
    let (rs, held_back) = all.split_at(17);
    let sketches: Vec<_> = rs.iter().map(|r| r.sketch.clone()).collect();
    let reference = reference_matrix(&sketches);

    let (worker_a, ep_a, sock_a) = bind_worker("wa");
    let (worker_b, ep_b, sock_b) = bind_worker("wb");
    let coord_socket = scratch_socket("coord");
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());

    // The coordinator's worker pool: one timed connection each (the
    // listeners are bound, so connecting before the accept loops start
    // just parks the connections in the backlog).
    let pool = reconnectable_pool(&[&ep_a, &ep_b], Duration::from_secs(30));
    // A small shard tile forces many tiles per worker, exercising
    // out-of-order gather paths.
    let coordinator = Server::bind_coordinator(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        pool,
        5,
    )
    .expect("bind coordinator");
    assert_eq!(coordinator.worker_count(), 2);

    std::thread::scope(|scope| {
        // Two accept loops per worker: one serves the coordinator's
        // long-lived pool connection, the other the direct probes below.
        let ha = scope.spawn(|| worker_a.serve(2));
        let hb = scope.spawn(|| worker_b.serve(2));
        let hc = scope.spawn(|| coordinator.serve(1));
        let _guard = ShutdownOnPanic::new(&[&coord_endpoint, &ep_a, &ep_b]);

        let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
        let (_, rows, _) = client.hello(&spec).expect("hello relayed to workers");
        assert_eq!(rows, 0);
        for (i, r) in rs.iter().enumerate() {
            let (row, n) = client.ingest(r).expect("broadcast ingest");
            assert_eq!((row as usize, n as usize), (i, i + 1));
        }

        // The workers really hold replicas: ask one directly.
        let mut direct = Client::connect(&ep_a).expect("connect worker directly");
        let (planned_rows, planned_tile, tile_count, pair_count) =
            direct.plan_pairwise(5).expect("plan");
        assert_eq!(planned_rows, 17);
        assert_eq!(planned_tile, 5);
        assert_eq!(tile_count, 10); // b = 4 blocks → 4·5/2
        assert_eq!(pair_count, 17 * 16 / 2);

        // Acceptance: the sharded full matrix over 2 workers — every
        // shard streamed back as TileResultPart frames — is
        // bit-identical to the naive per-pair reference.
        let (ids, values) = client.pairwise(&[]).expect("sharded pairwise");
        assert_eq!(ids.len(), 17);
        assert_bits(&values, reference.as_flat());
        let stats = coordinator.coordinator_stats().expect("coordinator role");
        assert_eq!(stats.last_query_tiles, tile_count, "cold query = full plan");
        assert_eq!(stats.last_query_rounds, 1, "no failures, one round");

        // The pass handed its matrix to the coordinator's engine and
        // the publish carried it: a repeat, TopPairs, and a subset read
        // are lock-free memo hits — bit-identical to a local engine,
        // and publishing nothing, so the snapshot epoch stays put.
        let mut local = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
        for r in rs {
            local.ingest(r).expect("ingest");
        }
        let epoch = coordinator.stats().snapshot_epoch;
        let (_, warm) = client.pairwise(&[]).expect("warm pairwise");
        assert_bits(&warm, &values);
        let top = client.top_pairs(5).expect("top pairs");
        let local_top = local.top_pairs(5);
        assert_eq!(top.len(), local_top.len());
        for (r, l) in top.iter().zip(&local_top) {
            assert_eq!((r.0, r.1), (l.0, l.1));
            assert_eq!(r.2.to_bits(), l.2.to_bits());
        }
        let subset = [rs[9].party_id, rs[2].party_id, rs[14].party_id];
        let (subset_ids, subset_values) = client.pairwise(&subset).expect("subset pairwise");
        assert_eq!(subset_ids, subset);
        assert_bits(
            &subset_values,
            local.pairwise(&subset).expect("subset").as_flat(),
        );
        assert_eq!(
            coordinator.stats().snapshot_epoch,
            epoch,
            "memo hits must not recompute or republish"
        );

        // A further ingest grows the store; the regathered 18-row
        // matrix matches the reference again, and — the incremental
        // contract — only the tiles touching the new row were
        // re-executed, not the whole plan.
        client.ingest(&held_back[0]).expect("ingest");
        let grown: Vec<_> = all.iter().map(|r| r.sketch.clone()).collect();
        let grown_reference = reference_matrix(&grown);
        let (grown_ids, grown_values) = client.pairwise(&[]).expect("regather");
        assert_eq!(grown_ids.len(), 18);
        assert_bits(&grown_values, grown_reference.as_flat());
        let frontier = dp_euclid::core::TilePlan::new(18, 5)
            .tiles_touching_rows(17..18)
            .len() as u64;
        let grown_tile_count = dp_euclid::core::TilePlan::new(18, 5).tile_count() as u64;
        let stats = coordinator.coordinator_stats().expect("coordinator role");
        assert_eq!(
            stats.last_query_tiles, frontier,
            "growth must re-execute exactly the frontier"
        );
        assert!(
            frontier < grown_tile_count,
            "frontier ({frontier}) must be a strict subset of the plan ({grown_tile_count})"
        );

        // A stale plan and an alien tile id are each answered with a
        // single typed ERR_PLAN frame, leaving the connection usable.
        for (rows, bad_ids) in [(16, vec![0]), (18, vec![grown_tile_count])] {
            let err = direct
                .execute_tiles_streamed(rows, 5, &bad_ids, &mut |_| {})
                .expect_err("refused plan");
            assert!(
                matches!(err, ClientError::Remote { code, .. } if code == dp_euclid::core::protocol::ERR_PLAN),
                "{err:?}"
            );
        }
        // The worker streams exactly the in-process engine's tiles.
        local.ingest(&held_back[0]).expect("ingest");
        let all_ids: Vec<u64> = (0..grown_tile_count).collect();
        let mut streamed = Vec::new();
        let parts = direct
            .execute_tiles_streamed(18, 5, &all_ids, &mut |segment| streamed.push(segment))
            .expect("streamed tiles");
        assert_eq!(parts, grown_tile_count);
        let expected = local.execute_tiles(18, 5, &all_ids).expect("valid plan");
        assert_eq!(expected.len(), streamed.len());
        for (e, s) in expected.iter().zip(&streamed) {
            assert_eq!(e.tile_id, s.tile_id);
            assert_bits(&s.values, &e.values);
        }
        drop(direct);

        // Non-pairwise queries stay local on the coordinator and still
        // answer bit-identically to an in-process engine (over all 18
        // ingested rows).
        let remote_knn = client.knn(rs[3].party_id, 4).expect("knn");
        let local_knn = local.knn(rs[3].party_id, 4).expect("knn");
        for (r, l) in remote_knn.iter().zip(&local_knn) {
            assert_eq!(r.0, l.party_id);
            assert_eq!(r.1.to_bits(), l.estimated_sq_distance.to_bits());
        }

        // One shutdown winds down the coordinator AND both workers.
        client.shutdown().expect("shutdown");
        hc.join().expect("coordinator joined");
        ha.join().expect("worker a joined");
        hb.join().expect("worker b joined");
    });
    for socket in [sock_a, sock_b, coord_socket] {
        let _ = std::fs::remove_file(socket);
    }
}

/// What a fake worker does with a request it has read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Act {
    /// Answer as a healthy replica would.
    Answer,
    /// Answer nothing, like a wedged process.
    Swallow,
    /// Answer an `Ingest` with a row count one past the replica's.
    WrongRows,
    /// Close the connection without answering.
    HangUp,
    /// Answer, then never read again, like a process that stopped
    /// draining its socket: a large enough frame then blocks its
    /// writer. After [`DEAF_WATCHDOG`] the fake closes the connection,
    /// so a writer with no write timeout fails instead of hanging.
    AnswerThenDeaf,
}

/// How long a deaf fake worker keeps its connection open.
const DEAF_WATCHDOG: Duration = Duration::from_secs(10);

/// A protocol-speaking fake worker: it answers `Hello`/`Ingest`/
/// `Shutdown` well enough to join a pool, and `act` decides, request by
/// request, whether it answers, swallows, misanswers, hangs up or stops
/// reading. It exits after answering `Shutdown`, and promptly on `stop`
/// via a short socket read timeout.
fn fake_worker(
    listener: std::os::unix::net::UnixListener,
    stop: &std::sync::atomic::AtomicBool,
    mut act: impl FnMut(&dp_euclid::core::protocol::Request) -> Act,
) {
    use dp_euclid::core::protocol::{
        decode_request, encode_response, read_frame, write_frame, Request, Response,
    };
    use std::sync::atomic::Ordering;

    let Ok((mut conn, _)) = listener.accept() else {
        return;
    };
    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    let mut rows = 0u64;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame(&mut conn) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        };
        let Ok(request) = decode_request(&payload) else {
            return;
        };
        let step = act(&request);
        let response = match (&request, step) {
            (_, Act::Swallow) => continue,
            (_, Act::HangUp) => return,
            (Request::Hello { .. }, _) => Response::Hello {
                k: 0,
                rows,
                tag: String::new(),
                caps: 0,
            },
            (Request::Ingest { .. }, _) => {
                rows += 1;
                Response::Ingested {
                    row: rows - 1,
                    rows: rows + u64::from(step == Act::WrongRows),
                }
            }
            _ => Response::Bye,
        };
        let bytes = encode_response(&response).expect("encode");
        if write_frame(&mut conn, &bytes).is_err() || matches!(request, Request::Shutdown) {
            return;
        }
        if step == Act::AnswerThenDeaf {
            let deaf = std::time::Instant::now();
            while !stop.load(Ordering::SeqCst) && deaf.elapsed() < DEAF_WATCHDOG {
                std::thread::sleep(Duration::from_millis(10));
            }
            return;
        }
    }
}

/// Healthy until `silent` flips, then reads requests and never answers.
fn answer_until(
    silent: &std::sync::atomic::AtomicBool,
) -> impl FnMut(&dp_euclid::core::protocol::Request) -> Act + '_ {
    |_| {
        if silent.load(std::sync::atomic::Ordering::SeqCst) {
            Act::Swallow
        } else {
            Act::Answer
        }
    }
}

#[test]
fn dead_worker_is_redispatched_to_the_survivor() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let spec = spec(96);
    let rs = releases(&spec, 6);
    let sketches: Vec<_> = rs.iter().map(|r| r.sketch.clone()).collect();
    let reference = reference_matrix(&sketches);

    let (worker_a, ep_a, sock_a) = bind_worker("da");
    // Worker B is the fake: healthy during setup, silent at query time.
    let sock_b = scratch_socket("db");
    let _ = std::fs::remove_file(&sock_b);
    let listener_b = std::os::unix::net::UnixListener::bind(&sock_b).expect("bind fake");
    let ep_b = Endpoint::Unix(sock_b.clone());
    let silent = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let coord_socket = scratch_socket("dcoord");
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());

    let timeout = Duration::from_millis(500);
    let pool: Vec<WorkerEntry> = [&ep_a, &ep_b]
        .iter()
        .enumerate()
        .map(|(i, ep)| {
            let client = Client::connect(ep).expect("connect worker");
            client.set_read_timeout(Some(timeout)).expect("timeout");
            if i == 0 {
                // Only the real worker is revivable; the fake poisons
                // for good, so re-dispatch (not revival) is what this
                // test exercises.
                WorkerEntry::reconnectable(client, (*ep).clone(), Some(timeout))
            } else {
                WorkerEntry::new(client)
            }
        })
        .collect();
    let coordinator = Server::bind_coordinator(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        pool,
        4,
    )
    .expect("bind coordinator");

    std::thread::scope(|scope| {
        let ha = scope.spawn(|| worker_a.serve(1));
        let hb = scope.spawn(|| fake_worker(listener_b, &stop, answer_until(&silent)));
        let hc = scope.spawn(|| coordinator.serve(1));
        let _guard = ShutdownOnPanic::new(&[&coord_endpoint, &ep_a]).raising(&stop);

        let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }

        // Worker B wedges: from here on it reads and never answers.
        silent.store(true, Ordering::SeqCst);

        // The sharded query must still SUCCEED: B's shard times out, B
        // is poisoned, and its missing tiles are re-dispatched to the
        // surviving worker A — bit-identically to the reference.
        let started = std::time::Instant::now();
        let (ids, values) = client.pairwise(&[]).expect("re-dispatched pairwise");
        assert_eq!(ids.len(), 6);
        assert_bits(&values, reference.as_flat());
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "timeout did not bound the failed shard"
        );
        let stats = coordinator.coordinator_stats().expect("coordinator role");
        assert!(
            stats.last_query_rounds >= 2,
            "survivor re-dispatch must take extra rounds: {stats:?}"
        );
        assert!(stats.redispatches >= 1, "{stats:?}");

        // A repeat answers from the memo the pass published — no worker
        // I/O, so it is fast and identical even with B gone.
        let started = std::time::Instant::now();
        let (_, warm) = client.pairwise(&[]).expect("warm pairwise");
        assert_bits(&warm, &values);
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "warm repeat must not wait on the dead worker"
        );

        // The coordinator connection itself stays healthy: local
        // queries still answer.
        assert_eq!(client.knn(rs[0].party_id, 2).expect("knn").len(), 2);

        stop.store(true, Ordering::SeqCst);
        client.shutdown().expect("shutdown");
        hc.join().expect("coordinator joined");
        ha.join().expect("worker a joined");
        hb.join().expect("fake worker joined");
    });
    for socket in [sock_a, sock_b, coord_socket] {
        let _ = std::fs::remove_file(socket);
    }
}

#[test]
fn killed_worker_restarts_and_resyncs_from_the_journal() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let spec = spec(128);
    let all = releases(&spec, 12);
    let (rs, later) = all.split_at(10);

    let (worker_a, ep_a, sock_a) = bind_worker("ra");
    // Worker B starts as a fake: it acks the setup mutations, then goes
    // silent — the in-process stand-in for a SIGKILLed process (the
    // chaos smoke kills a real one). It is later replaced by a real
    // server on the same endpoint, which is what revival resyncs.
    let sock_b = scratch_socket("rb");
    let _ = std::fs::remove_file(&sock_b);
    let listener_b = std::os::unix::net::UnixListener::bind(&sock_b).expect("bind fake");
    let ep_b = Endpoint::Unix(sock_b.clone());
    let silent = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let coord_socket = scratch_socket("rcoord");
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());
    let pool = reconnectable_pool(&[&ep_a, &ep_b], Duration::from_millis(700));
    let coordinator = Server::bind_coordinator(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        pool,
        4,
    )
    .expect("bind coordinator");

    std::thread::scope(|scope| {
        let ha = scope.spawn(|| worker_a.serve(2));
        let hb1 = scope.spawn(|| fake_worker(listener_b, &stop, answer_until(&silent)));
        let hc = scope.spawn(|| coordinator.serve(1));
        let _guard = ShutdownOnPanic::new(&[&coord_endpoint, &ep_a, &ep_b]).raising(&stop);

        let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
        client.hello(&spec).expect("hello");
        for r in rs {
            client.ingest(r).expect("ingest");
        }

        // Kill worker B: from here on it never answers again.
        silent.store(true, Ordering::SeqCst);

        // Mid-query discovery: the cold sharded query finds B dead on
        // the first exchange, poisons it (revival times out — nothing
        // answers), and re-dispatches to A. Bit-identity holds.
        let sketches: Vec<_> = rs.iter().map(|r| r.sketch.clone()).collect();
        let reference = reference_matrix(&sketches);
        let (ids, values) = client.pairwise(&[]).expect("pairwise with dead worker");
        assert_eq!(ids.len(), 10);
        assert_bits(&values, reference.as_flat());
        let stats = coordinator.coordinator_stats().expect("coordinator role");
        assert!(stats.redispatches >= 1, "{stats:?}");
        assert_eq!(stats.resyncs, 0, "{stats:?}");

        // Ingests keep succeeding while B is down — journaled for its
        // eventual catch-up, broadcast only to A.
        for r in later {
            client.ingest(r).expect("ingest with dead worker");
        }

        // "Restart" B: the dead process goes away for good, and a real
        // server with a fresh empty store binds the same endpoint.
        stop.store(true, Ordering::SeqCst);
        hb1.join().expect("dead worker reaped");
        let worker_b2 = Server::bind(ep_b.clone(), QueryEngine::new(SketchStore::adopting()))
            .expect("rebind worker b");
        let hb2 = scope.spawn(move || {
            worker_b2.serve(2);
        });

        // The next sharded query revives B: reconnect, replay the
        // journaled Hello, catch up all 12 ingests — without restarting
        // the coordinator — then shards the frontier across A and B.
        let grown: Vec<_> = all.iter().map(|r| r.sketch.clone()).collect();
        let grown_reference = reference_matrix(&grown);
        let (ids, values) = client.pairwise(&[]).expect("pairwise after restart");
        assert_eq!(ids.len(), 12);
        assert_bits(&values, grown_reference.as_flat());
        let stats = coordinator.coordinator_stats().expect("coordinator role");
        assert_eq!(stats.revives, 1, "{stats:?}");
        assert_eq!(stats.resyncs, 1, "{stats:?}");
        let frontier = dp_euclid::core::TilePlan::new(12, 4)
            .tiles_touching_rows(10..12)
            .len() as u64;
        assert_eq!(
            stats.last_query_tiles, frontier,
            "growth re-executes only the frontier even across a resync"
        );

        // The restarted replica really holds all 12 rows: ask directly.
        let mut direct = Client::connect(&ep_b).expect("connect restarted worker");
        let (rows, _, _, _) = direct.plan_pairwise(4).expect("plan");
        assert_eq!(rows, 12, "replica not caught up");
        drop(direct);

        client.shutdown().expect("shutdown");
        hc.join().expect("coordinator joined");
        ha.join().expect("worker a joined");
        hb2.join().expect("worker b2 joined");
    });
    for socket in [sock_a, sock_b, coord_socket] {
        let _ = std::fs::remove_file(socket);
    }
}

#[test]
fn wedged_worker_poisons_without_failing_the_mutation() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // A worker that is silent from the very first request.
    let hole_socket = scratch_socket("hole");
    let _ = std::fs::remove_file(&hole_socket);
    let hole = std::os::unix::net::UnixListener::bind(&hole_socket).expect("bind black hole");
    let silent = AtomicBool::new(true);
    let stop = AtomicBool::new(false);

    let spec = spec(64);
    let pool_client = Client::connect(&Endpoint::Unix(hole_socket.clone())).expect("connect");
    pool_client
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("timeout");
    let coord_socket = scratch_socket("hcoord");
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());
    let coordinator = Server::bind_coordinator(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        // No endpoint: the wedged worker must not be revived, so the
        // sharded query below exercises the no-live-workers path.
        vec![WorkerEntry::new(pool_client)],
        8,
    )
    .expect("bind coordinator");

    std::thread::scope(|scope| {
        let hw = scope.spawn(|| fake_worker(hole, &stop, answer_until(&silent)));
        let hc = scope.spawn(|| coordinator.serve(1));
        let _guard = ShutdownOnPanic::new(&[&coord_endpoint]).raising(&stop);

        // The relayed Hello hits the silent worker; the read timeout
        // bounds the wait, the worker is poisoned — and the client's
        // Hello still SUCCEEDS (the coordinator's local engine is the
        // source of truth; the journal would catch the replica up).
        let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
        let started = std::time::Instant::now();
        let (_, rows, _) = client.hello(&spec).expect("hello survives a wedged worker");
        assert_eq!(rows, 0);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "timeout did not bound the wait"
        );

        // Ingests succeed likewise (journaled; the poisoned slot is
        // skipped, so no further timeout is paid).
        let r = releases(&spec, 2);
        let started = std::time::Instant::now();
        client.ingest(&r[0]).expect("ingest");
        client.ingest(&r[1]).expect("ingest");
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "poisoned worker was waited on again"
        );

        // A sharded query, though, has no live worker to serve it and
        // no endpoint to revive — typed ERR_WORKER, promptly.
        let started = std::time::Instant::now();
        let err = client.pairwise(&[]).expect_err("no live workers");
        assert!(
            matches!(err, ClientError::Remote { code, .. } if code == dp_euclid::core::protocol::ERR_WORKER),
            "{err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no-live-workers must fail fast"
        );

        stop.store(true, Ordering::SeqCst);
        client.shutdown().expect("shutdown");
        hc.join().expect("coordinator joined");
        hw.join().expect("fake worker joined");
        let _ = std::fs::remove_file(&coord_socket);
    });
    let _ = std::fs::remove_file(&hole_socket);
}

/// A fake worker's socket, removed first in case a crashed run left it.
fn fake_listener(tag: &str) -> (std::os::unix::net::UnixListener, Endpoint, PathBuf) {
    let socket = scratch_socket(tag);
    let _ = std::fs::remove_file(&socket);
    let listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind fake");
    (listener, Endpoint::Unix(socket.clone()), socket)
}

#[test]
fn a_broadcast_writes_every_worker_before_it_waits_for_an_ack() {
    use dp_euclid::core::protocol::Request;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let spec = spec(64);
    let rs = releases(&spec, 2);
    let (listener_0, ep_0, sock_0) = fake_listener("ov0");
    let (listener_1, ep_1, sock_1) = fake_listener("ov1");
    let stop = AtomicBool::new(false);
    // Worker 1 reports each ingest copy it reads on `copied`; worker 0
    // counts the ingests whose report came while it held back its ack.
    // Each worker counts the Shutdown it gets in `byes`.
    let (copied, copies) = std::sync::mpsc::channel::<()>();
    let overlapped = AtomicU64::new(0);
    let byes = AtomicU64::new(0);
    let coord_socket = scratch_socket("ovcoord");
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());
    // The read timeout outlasts worker 0's fallback below, so a serial
    // broadcast is seen as "no overlap", not as a timed-out worker.
    let pool = reconnectable_pool(&[&ep_0, &ep_1], Duration::from_secs(30));
    let coordinator = Server::bind_coordinator(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        pool,
        4,
    )
    .expect("bind coordinator");

    std::thread::scope(|scope| {
        let (stop, overlapped, byes) = (&stop, &overlapped, &byes);
        // Worker 0 holds back each `Ingested` until worker 1 has read
        // its copy of the same frame; after 5 s it answers anyway and
        // records no overlap.
        let h0 = scope.spawn(move || {
            fake_worker(listener_0, stop, |request| {
                match request {
                    Request::Ingest { .. } => {
                        let copy = copies.recv_timeout(Duration::from_secs(5));
                        overlapped.fetch_add(u64::from(copy.is_ok()), Ordering::SeqCst);
                    }
                    Request::Shutdown => {
                        byes.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => {}
                }
                Act::Answer
            });
        });
        let h1 = scope.spawn(move || {
            fake_worker(listener_1, stop, |request| {
                match request {
                    Request::Ingest { .. } => {
                        let _ = copied.send(());
                    }
                    Request::Shutdown => {
                        byes.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => {}
                }
                Act::Answer
            });
        });
        let hc = scope.spawn(|| coordinator.serve(1));
        let _guard = ShutdownOnPanic::new(&[&coord_endpoint]).raising(stop);

        let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
        client.hello(&spec).expect("hello");
        for (i, r) in rs.iter().enumerate() {
            let (row, rows) = client.ingest(r).expect("ingest");
            assert_eq!((row, rows), (i as u64, i as u64 + 1));
        }
        client.shutdown().expect("shutdown");
        hc.join().expect("coordinator joined");
        h0.join().expect("worker 0 joined");
        h1.join().expect("worker 1 joined");

        assert_eq!(
            overlapped.load(Ordering::SeqCst),
            2,
            "worker 1 got no copy while worker 0 held back its ack"
        );
        // Only a live slot gets the Shutdown: both workers' row echoes
        // were accepted at every ingest.
        assert_eq!(byes.load(Ordering::SeqCst), 2, "a worker was poisoned");
    });
    for socket in [sock_0, sock_1, coord_socket] {
        let _ = std::fs::remove_file(socket);
    }
}

#[test]
fn a_failing_worker_is_poisoned_alone_and_revives_bit_identically() {
    let spec = spec(96);
    let rs = releases(&spec, 6);
    let mut local = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &rs {
        local.ingest(r).expect("ingest");
    }
    let expected = local.pairwise_all();

    // Each failure during the fourth ingest's broadcast, once from each
    // pool slot.
    for (failing, failure) in [(0, Act::HangUp), (1, Act::WrongRows)] {
        let (worker, ep_real, sock_real) = bind_worker(&format!("mr{failing}"));
        let (listener, ep_fake, sock_fake) = fake_listener(&format!("mf{failing}"));
        let stop = std::sync::atomic::AtomicBool::new(false);
        let coord_socket = scratch_socket(&format!("mcoord{failing}"));
        let coord_endpoint = Endpoint::Unix(coord_socket.clone());
        let order = if failing == 0 {
            [&ep_fake, &ep_real]
        } else {
            [&ep_real, &ep_fake]
        };
        let pool = reconnectable_pool(&order, Duration::from_secs(30));
        let coordinator = Server::bind_coordinator(
            coord_endpoint.clone(),
            QueryEngine::new(SketchStore::adopting()),
            pool,
            4,
        )
        .expect("bind coordinator");

        std::thread::scope(|scope| {
            let hr = scope.spawn(|| worker.serve(2));
            let hf = scope.spawn(|| {
                let mut ingests = 0;
                fake_worker(listener, &stop, |request| {
                    if matches!(request, dp_euclid::core::protocol::Request::Ingest { .. }) {
                        ingests += 1;
                        if ingests == 4 {
                            return failure;
                        }
                    }
                    Act::Answer
                });
            });
            let hc = scope.spawn(|| coordinator.serve(1));
            let _guard =
                ShutdownOnPanic::new(&[&coord_endpoint, &ep_real, &ep_fake]).raising(&stop);

            let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
            client.hello(&spec).expect("hello");
            for (i, r) in rs.iter().enumerate() {
                let (row, rows) = client.ingest(r).expect("ingest survives the failure");
                assert_eq!((row, rows), (i as u64, i as u64 + 1));
            }
            // The fake left on its failure (a hang-up) or when the
            // coordinator dropped its poisoned connection.
            hf.join().expect("fake worker joined");

            // The healthy worker got and acked every row, the failing
            // broadcast's included, and stayed live for the rest.
            let mut direct = Client::connect(&ep_real).expect("connect worker");
            assert_eq!(direct.plan_pairwise(4).expect("plan").0, 6);
            drop(direct);

            // A real server takes the failed worker's endpoint; the next
            // sharded query revives that slot alone and answers
            // bit-identically to the local engine.
            let restarted =
                Server::bind(ep_fake.clone(), QueryEngine::new(SketchStore::adopting()))
                    .expect("rebind the failed worker");
            let hb = scope.spawn(move || restarted.serve(2));
            let (ids, values) = client.pairwise(&[]).expect("sharded pairwise");
            assert_eq!(ids, rs.iter().map(|r| r.party_id).collect::<Vec<_>>());
            assert_bits(&values, expected.as_flat());
            let stats = coordinator.coordinator_stats().expect("coordinator role");
            assert_eq!(
                stats.revives, 1,
                "only the failing slot was poisoned: {stats:?}"
            );
            assert_eq!(stats.resyncs, 1, "{stats:?}");
            let mut direct = Client::connect(&ep_fake).expect("connect revived worker");
            assert_eq!(direct.plan_pairwise(4).expect("plan").0, 6);
            drop(direct);

            client.shutdown().expect("shutdown");
            hc.join().expect("coordinator joined");
            hr.join().expect("worker joined");
            hb.join().expect("revived worker joined");
        });
        for socket in [sock_real, sock_fake, coord_socket] {
            let _ = std::fs::remove_file(socket);
        }
    }
}

#[test]
fn a_worker_that_stops_reading_is_poisoned_within_the_write_timeout() {
    use dp_euclid::core::protocol::Request;

    // A release far larger than a socket buffer (k ≈ 60,000, ~480 KB):
    // a write of it to a worker that stops reading blocks until the
    // write timeout fires. Without one it blocks until the deaf
    // worker's watchdog closes the socket, past the bound below.
    let config = SketchConfig::builder()
        .input_dim(16)
        .alpha(0.02)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(778));
    let rs = releases(&spec, 2);
    assert!(rs[0].to_bytes().expect("encode").len() > 400_000);

    let (worker, ep_real, sock_real) = bind_worker("dr");
    let (listener, ep_deaf, sock_deaf) = fake_listener("dd");
    let stop = std::sync::atomic::AtomicBool::new(false);
    let coord_socket = scratch_socket("dcoord2");
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());
    let timeout = Duration::from_secs(1);
    // The deaf worker holds slot 0, so its copy is written first. It
    // has a timeout but no endpoint: once poisoned it stays out.
    let deaf_entry = WorkerEntry {
        client: Client::connect(&ep_deaf).expect("connect deaf worker"),
        endpoint: None,
        timeout: Some(timeout),
    };
    let mut pool = vec![deaf_entry];
    pool.extend(reconnectable_pool(&[&ep_real], timeout));
    let coordinator = Server::bind_coordinator(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        pool,
        4,
    )
    .expect("bind coordinator");

    std::thread::scope(|scope| {
        let hr = scope.spawn(|| worker.serve(2));
        let hd = scope.spawn(|| {
            fake_worker(listener, &stop, |request| {
                if matches!(request, Request::Hello { .. }) {
                    Act::AnswerThenDeaf
                } else {
                    Act::Answer
                }
            });
        });
        let hc = scope.spawn(|| coordinator.serve(1));
        let _guard = ShutdownOnPanic::new(&[&coord_endpoint, &ep_real]).raising(&stop);

        let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
        client.hello(&spec).expect("hello");
        let started = std::time::Instant::now();
        client
            .ingest(&rs[0])
            .expect("ingest survives a deaf worker");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the write to the deaf worker was not bounded by the timeout ({:?})",
            started.elapsed()
        );
        // Poisoned: the next mutation skips the deaf worker, paying no
        // second timeout.
        let started = std::time::Instant::now();
        client.ingest(&rs[1]).expect("ingest");
        assert!(
            started.elapsed() < timeout,
            "the poisoned worker was written to again ({:?})",
            started.elapsed()
        );
        let mut direct = Client::connect(&ep_real).expect("connect worker");
        assert_eq!(direct.plan_pairwise(4).expect("plan").0, 2);
        drop(direct);

        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        client.shutdown().expect("shutdown");
        hc.join().expect("coordinator joined");
        hr.join().expect("worker joined");
        hd.join().expect("deaf worker joined");
    });
    for socket in [sock_real, sock_deaf, coord_socket] {
        let _ = std::fs::remove_file(socket);
    }
}
