//! End-to-end tests of the event-loop serve mode: the reactor must
//! answer every protocol-v5 frame **byte-identically** to thread mode
//! (and hence to the in-process engine, which `server_e2e.rs` pins
//! thread mode against), including the streamed tile path; overload
//! must surface as the typed `ERR_BUSY` frame; and the thread-mode
//! wedged-client regression (no socket timeouts) must stay fixed.

use dp_euclid::core::protocol::{
    decode_request, decode_response, encode_request, read_frame, write_frame, Request, Response,
    CAP_TILE_STREAM, ERR_BUSY, ERR_MALFORMED,
};
use dp_euclid::core::release::Release;
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;
use dp_server::{connect, Client, ClientError, Endpoint, NetConfig, ServeMode, Server};
use std::io::Write;
use std::time::{Duration, Instant};

fn spec(d: usize) -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(987))
}

fn releases(spec: &SketcherSpec, n: usize) -> Vec<Release> {
    let sketcher = spec.build().expect("sketcher");
    let d = sketcher.input_dim();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| ((5 * i + j) % 11) as f64 - 5.0).collect())
        .collect();
    sketcher
        .sketch_batch(&rows, Seed::new(321))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: 40 + i as u64,
            sketch,
        })
        .collect()
}

/// One scripted exchange: a raw request payload plus how many response
/// frames it is answered with (only the tile stream answers several).
enum Step {
    /// A well-formed request answered by `1 + extra_frames` frames.
    Request(Request, usize),
    /// A garbage payload (not a protocol frame); one error frame back.
    Garbage(Vec<u8>),
}

/// Run the script against a fresh server in `mode`, returning every
/// raw response payload in order.
fn run_script(mode: ServeMode, steps: &[Step]) -> Vec<Vec<u8>> {
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting())).expect("bind");
    let endpoint = server.local_endpoint();
    let mut replies = Vec::new();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_mode(mode, 2));
        let mut conn = connect(&endpoint).expect("connect");
        for step in steps {
            let frames = match step {
                Step::Request(request, extra) => {
                    let payload = encode_request(request).expect("encode");
                    write_frame(&mut conn, &payload).expect("write");
                    1 + extra
                }
                Step::Garbage(payload) => {
                    write_frame(&mut conn, payload).expect("write");
                    1
                }
            };
            for _ in 0..frames {
                let reply = read_frame(&mut conn).expect("read").expect("frame");
                replies.push(reply);
            }
        }
        // Wind the server down so the scope joins.
        let payload = encode_request(&Request::Shutdown).expect("encode");
        write_frame(&mut conn, &payload).expect("write");
        replies.push(read_frame(&mut conn).expect("read").expect("bye"));
        handle.join().expect("server thread");
    });
    replies
}

#[test]
fn evloop_frames_are_byte_identical_to_thread_mode() {
    let spec = spec(96);
    let rs = releases(&spec, 6);
    let subset = [rs[3].party_id, rs[0].party_id, rs[5].party_id];

    // The scripted conversation covers every request kind: negotiation,
    // ingest (including a duplicate → error frame), full + subset
    // pairwise, knn (plus an unknown id), top pairs, plan + streamed
    // tile execution, and a garbage payload.
    let plan = dp_euclid::core::TilePlan::new(rs.len(), 2);
    let all_ids: Vec<u64> = (0..plan.tile_count() as u64).collect();
    let mut steps = vec![Step::Request(
        Request::Hello {
            spec_json: spec.to_json(),
            caps: CAP_TILE_STREAM,
        },
        0,
    )];
    for r in &rs {
        steps.push(Step::Request(
            Request::Ingest {
                release_frame: r.to_bytes().expect("release bytes"),
            },
            0,
        ));
    }
    steps.push(Step::Request(
        Request::Ingest {
            release_frame: rs[0].to_bytes().expect("release bytes"),
        },
        0,
    ));
    steps.push(Step::Request(Request::Pairwise { parties: vec![] }, 0));
    steps.push(Step::Request(
        Request::Pairwise {
            parties: subset.to_vec(),
        },
        0,
    ));
    steps.push(Step::Request(
        Request::Knn {
            party: rs[2].party_id,
            k: 3,
        },
        0,
    ));
    steps.push(Step::Request(Request::Knn { party: 9999, k: 2 }, 0));
    steps.push(Step::Request(Request::TopPairs { t: 4 }, 0));
    steps.push(Step::Request(Request::PlanPairwise { tile: 2 }, 0));
    // The stream answers one part frame per tile plus the summary.
    steps.push(Step::Request(
        Request::ExecuteTilesStream {
            rows: rs.len() as u64,
            tile: 2,
            tile_ids: all_ids.clone(),
        },
        all_ids.len(),
    ));
    steps.push(Step::Garbage(b"not a protocol frame".to_vec()));

    let threads = run_script(ServeMode::Threads, &steps);
    let evloop = run_script(ServeMode::EvLoop, &steps);
    assert_eq!(threads.len(), evloop.len());
    for (i, (a, b)) in threads.iter().zip(&evloop).enumerate() {
        assert_eq!(a, b, "response frame {i} differs between serve modes");
    }

    // Belt and braces: the full-pairwise frame decodes to the exact
    // bits the in-process engine computes.
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &rs {
        reference.ingest(r).expect("ingest");
    }
    let full = reference.pairwise_all();
    let pairwise_frame = &evloop[rs.len() + 2]; // hello + 6 ingests + dup error
    match decode_response(pairwise_frame).expect("decode") {
        Response::Pairwise { parties, values } => {
            assert_eq!(parties, reference.store().party_ids());
            assert_eq!(values.len(), full.as_flat().len());
            for (a, b) in values.iter().zip(full.as_flat()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        other => panic!("expected the full pairwise frame, got {other:?}"),
    }
    // And the garbage payload was answered with the typed error (last
    // frame before the bye).
    match decode_response(&evloop[evloop.len() - 2]).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, ERR_MALFORMED),
        other => panic!("expected ERR_MALFORMED, got {other:?}"),
    }
}

#[test]
fn evloop_client_surface_works_end_to_end() {
    // The blocking Client speaks to the reactor exactly as it does to
    // thread mode — including the streamed tile exchange with its
    // digest verification, whose segments are the in-process engine's.
    let spec = spec(64);
    let rs = releases(&spec, 5);
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting())).expect("bind");
    let endpoint = server.local_endpoint();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_mode(ServeMode::EvLoop, 3));
        let mut client = Client::connect(&endpoint).expect("connect");
        let (_, rows, _) = client.hello(&spec).expect("hello");
        assert_eq!(rows, 0);
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        let (rows, tile, tile_count, _) = client.plan_pairwise(2).expect("plan");
        let ids: Vec<u64> = (0..tile_count).collect();
        let mut segments = Vec::new();
        let parts = client
            .execute_tiles_streamed(rows, tile, &ids, &mut |s| segments.push(s))
            .expect("stream");
        assert_eq!(parts, tile_count);
        let mut local = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
        for r in &rs {
            local.ingest(r).expect("ingest");
        }
        let expected = local
            .execute_tiles(rows as usize, tile as usize, &ids)
            .expect("valid plan");
        assert_eq!(segments, expected);
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
}

#[test]
fn oversized_reply_answers_err_busy_and_connection_survives() {
    let spec = spec(64);
    let rs = releases(&spec, 8);
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    // A write budget far below the full 8×8 matrix reply (but above
    // every control/point reply).
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting()))
        .expect("bind")
        .with_net_config(NetConfig {
            write_budget: 300,
            ..NetConfig::default()
        });
    let endpoint = server.local_endpoint();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_mode(ServeMode::EvLoop, 1));
        let mut client = Client::connect(&endpoint).expect("connect");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        // The full matrix cannot fit the budget: typed overload, not a
        // hangup and not an unbounded buffer.
        match client.pairwise(&[]) {
            Err(ClientError::Remote { code, .. }) => assert_eq!(code, ERR_BUSY),
            other => panic!("expected ERR_BUSY, got {other:?}"),
        }
        // The same connection keeps serving answers that do fit.
        let (ids, values) = client
            .pairwise(&[rs[1].party_id, rs[6].party_id])
            .expect("subset still served");
        assert_eq!(ids.len(), 2);
        assert_eq!(values.len(), 4);
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        let stats = server.stats();
        assert!(
            stats.reactor.busy_rejections >= 1,
            "busy rejection not counted: {stats:?}"
        );
    });
}

#[test]
fn stats_expose_epoch_and_frame_counters() {
    let spec = spec(64);
    let rs = releases(&spec, 3);
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting())).expect("bind");
    let endpoint = server.local_endpoint();
    assert_eq!(server.stats().snapshot_epoch, 1, "bind publishes epoch 1");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_mode(ServeMode::EvLoop, 2));
        let mut client = Client::connect(&endpoint).expect("connect");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        client.knn(rs[0].party_id, 2).expect("knn");
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
    let stats = server.stats();
    // Hello (spec adoption) + 3 ingests, each an effective mutation.
    assert_eq!(stats.snapshot_epoch, 5, "{stats:?}");
    // Hello + 3 ingests + knn + shutdown, one reply frame each.
    assert_eq!(stats.reactor.frames_in, 6, "{stats:?}");
    assert_eq!(stats.reactor.frames_out, 6, "{stats:?}");
    assert_eq!(stats.reactor.open_connections, 0, "{stats:?}");
    assert_eq!(stats.reactor.accepted, 1, "{stats:?}");
    assert!(stats.coordinator.is_none());
}

#[test]
fn thread_mode_frees_wedged_connections_via_conn_timeout() {
    // Regression (pre-PR-6): thread-mode accepted sockets had no
    // read/write timeouts, so a half-open client pinned its serving
    // thread forever — with a single worker, the server was dead.
    let spec = spec(64);
    let rs = releases(&spec, 2);
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting()))
        .expect("bind")
        .with_conn_timeout(Some(Duration::from_millis(250)));
    let endpoint = server.local_endpoint();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_mode(ServeMode::Threads, 1));
        // The wedge: a partial frame header, then silence. The single
        // serving thread blocks reading the rest of the header.
        let mut wedged = connect(&endpoint).expect("connect wedged");
        wedged.write_all(&[7, 0]).expect("partial header");
        // A healthy client queued behind the wedge must get served once
        // the read timeout frees the thread.
        let started = Instant::now();
        let mut client = Client::connect(&endpoint).expect("connect healthy");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "wedged client still pins the serving thread: {:?}",
            started.elapsed()
        );
        drop(wedged);
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
}

#[test]
fn serve_mode_parses_the_cli_values() {
    assert_eq!(ServeMode::parse("threads").unwrap(), ServeMode::Threads);
    assert_eq!(ServeMode::parse("evloop").unwrap(), ServeMode::EvLoop);
    assert!(ServeMode::parse("fibers").is_err());
    // A decoded request round-trips through the same codec both modes
    // share (sanity that the script driver above is well-formed).
    let payload = encode_request(&Request::TopPairs { t: 2 }).unwrap();
    assert!(matches!(
        decode_request(&payload),
        Ok(Request::TopPairs { t: 2 })
    ));
}
