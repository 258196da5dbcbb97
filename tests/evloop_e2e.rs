//! End-to-end tests of the event-loop serve mode: the reactor must
//! answer every protocol-v7 frame **byte-identically** to thread mode
//! (and hence to the in-process engine, which `server_e2e.rs` pins
//! thread mode against), including the streamed tile and snapshot
//! paths; push-install staging must belong to one connection in both
//! modes; overload must surface as the typed `ERR_BUSY` frame; and the
//! thread-mode wedged-client regression (no socket timeouts) must stay
//! fixed.

use dp_euclid::core::protocol::{
    decode_request, decode_response, encode_request, read_frame, stream_checksum, write_frame,
    Request, Response, CAP_TILE_STREAM, ERR_BUSY, ERR_MALFORMED, SNAPSHOT_LAYER_JOURNAL,
    SNAPSHOT_LAYER_STORE,
};
use dp_euclid::core::release::Release;
use dp_euclid::core::wire::FNV1A64_INIT;
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;
use dp_server::{connect, Client, ClientError, Conn, Endpoint, NetConfig, ServeMode, Server};
use std::io::Write;
use std::time::{Duration, Instant};

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
/// frames it is answered with (streams answer several, push-install
/// parts none).
enum Step {
    /// A well-formed request answered by `1 + extra_frames` frames.
    Request(Request, usize),
    /// A `Pairwise` request, answered by a head, tile parts and one
    /// closing summary (or by one error frame).
    Stream(Request),
    /// A well-formed request answered by no frame at all.
    Unanswered(Request),
    /// A payload the server must refuse — garbage, or a frame of
    /// another protocol version; one error frame back.
    Garbage(Vec<u8>),
}

/// Run the script against a fresh server in `mode`, returning the raw
/// response payloads of each step in order, then the shutdown's `Bye`.
fn run_script(mode: ServeMode, steps: &[Step]) -> Vec<Vec<Vec<u8>>> {
    let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(requested, QueryEngine::new(SketchStore::adopting())).expect("bind");
    let endpoint = server.local_endpoint();
    let mut replies = Vec::new();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_mode(mode, 2));
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
        let mut conn = connect(&endpoint).expect("connect");
        for step in steps {
            let (payload, counted) = match step {
                Step::Request(request, extra) => {
                    (encode_request(request).expect("encode"), 1 + extra)
                }
                Step::Stream(request) => (encode_request(request).expect("encode"), 0),
                Step::Unanswered(request) => (encode_request(request).expect("encode"), 0),
                Step::Garbage(payload) => (payload.clone(), 1),
            };
            write_frame(&mut conn, &payload).expect("write");
            let mut frames: Vec<Vec<u8>> = (0..counted)
                .map(|_| read_frame(&mut conn).expect("read").expect("frame"))
                .collect();
            if matches!(step, Step::Stream(_)) {
                loop {
                    let frame = read_frame(&mut conn).expect("read").expect("frame");
                    let closed = matches!(
                        decode_response(&frame).expect("decode"),
                        Response::TileResultSummary { .. } | Response::Error { .. }
                    );
                    frames.push(frame);
                    if closed {
                        break;
                    }
                }
            }
            replies.push(frames);
        }
        // Wind the server down so the scope joins.
        let payload = encode_request(&Request::Shutdown).expect("encode");
        write_frame(&mut conn, &payload).expect("write");
        replies.push(vec![read_frame(&mut conn).expect("read").expect("bye")]);
        handle.join().expect("server thread");
    });
    replies
}

/// Rebuild a `Pairwise` reply stream: the head's party ids, and the
/// `n × n` matrix its parts and their mirrors fill (zero diagonal).
fn rebuild(frames: &[Vec<u8>]) -> (Vec<u64>, Vec<f64>) {
    let Response::PairwiseHead { parties, tile } = decode_response(&frames[0]).expect("decode")
    else {
        panic!("a pairwise reply opens with its head");
    };
    let n = parties.len();
    let plan = dp_euclid::core::TilePlan::new(n, tile as usize);
    assert_eq!(
        frames.len(),
        plan.tile_count() + 2,
        "head, one part per tile, summary"
    );
    let mut values = vec![0.0; n * n];
    for frame in &frames[1..=plan.tile_count()] {
        let Response::TileResultPart { segment, .. } = decode_response(frame).expect("decode")
        else {
            panic!("expected a tile part");
        };
        let tile = plan
            .tile_at(segment.tile_id as usize)
            .expect("tile in plan");
        dp_euclid::core::sketcher::scatter_tile_segment(&tile, &segment.values, n, &mut values);
    }
    assert!(matches!(
        decode_response(frames.last().expect("summary")).expect("decode"),
        Response::TileResultSummary { .. }
    ));
    (parties, values)
}

/// Decode a reply that must be a typed `ERR_MALFORMED` refusal.
fn assert_malformed(frame: &[u8], what: &str) {
    match decode_response(frame).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, ERR_MALFORMED, "{what}"),
        other => panic!("{what}: expected ERR_MALFORMED, got {other:?}"),
    }
}

#[test]
fn evloop_frames_are_byte_identical_to_thread_mode() {
    let spec = spec(96);
    let rs = releases(&spec, 6);
    let subset = [rs[3].party_id, rs[0].party_id, rs[5].party_id];
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &rs {
        reference.ingest(r).expect("ingest");
    }

    // The scripted conversation covers every request kind: negotiation,
    // ingest (including a duplicate → error frame), full + subset
    // pairwise, knn (plus an unknown id), top pairs, plan + streamed
    // tile execution, the snapshot fetch and push-install exchanges
    // (with their refusals), and a garbage payload.
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
    let pairwise = steps.len();
    steps.push(Step::Stream(Request::Pairwise { parties: vec![] }));
    let subset_pairwise = steps.len();
    steps.push(Step::Stream(Request::Pairwise {
        parties: subset.to_vec(),
    }));
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
    // A multi-part fetch of the whole store: one part per `part_len`
    // bytes of the store image (whose length does not depend on the
    // generation stamped into it), then the summary.
    let part_len = 512u32;
    let parts = reference
        .store()
        .encode_snapshot(0)
        .len()
        .div_ceil(part_len as usize);
    assert!(parts >= 2, "the fetch must stream several parts");
    let fetch = steps.len();
    steps.push(Step::Request(
        Request::FetchSnapshot {
            have_rows: 0,
            part_len,
        },
        parts,
    ));

    // The rest of the script pushes the fetched image back, so learn it
    // first: the conversation so far is deterministic, so this run
    // fetches the very bytes the two full runs below fetch.
    let probe = run_script(ServeMode::Threads, &steps);
    let mut image = Vec::new();
    for frame in &probe[fetch][..parts] {
        match decode_response(frame).expect("decode") {
            Response::SnapshotPart { layer, chunk, .. } => {
                assert_eq!(layer, SNAPSHOT_LAYER_STORE);
                image.extend_from_slice(&chunk);
            }
            other => panic!("expected a snapshot part, got {other:?}"),
        }
    }
    let (generation, rows, count, total_len) =
        match decode_response(&probe[fetch][parts]).expect("decode") {
            Response::SnapshotSummary {
                generation,
                rows,
                count,
                total_len,
                ..
            } => (generation, rows, count, total_len),
            other => panic!("expected the snapshot summary, got {other:?}"),
        };
    assert_eq!(rows, rs.len() as u64);
    assert_eq!(count, parts as u64);
    let part = |seq: usize, layer: u8| Request::SnapshotPart {
        seq: seq as u64,
        layer,
        chunk: image
            .chunks(part_len as usize)
            .nth(seq)
            .expect("part")
            .to_vec(),
    };
    // The push's digest folds the trailers of the request frames it
    // sends, not the fetched response frames.
    let checksum = (0..parts).fold(FNV1A64_INIT, |digest, seq| {
        let frame = encode_request(&part(seq, SNAPSHOT_LAYER_STORE)).expect("encode");
        stream_checksum(digest, &frame)
    });
    let summary = |count: u64| Request::SnapshotSummary {
        generation,
        rows,
        count,
        total_len,
        checksum,
    };

    // A replica already holding every row gets an empty stream: the
    // summary alone.
    let empty_fetch = steps.len();
    steps.push(Step::Request(
        Request::FetchSnapshot {
            have_rows: rows,
            part_len,
        },
        0,
    ));
    // Three refused installs: a journal-layer part, a part out of
    // order, and a summary whose count disagrees with the parts staged.
    let journal_part = steps.len();
    steps.push(Step::Request(part(0, SNAPSHOT_LAYER_JOURNAL), 0));
    let out_of_order = steps.len();
    steps.push(Step::Request(part(1, SNAPSHOT_LAYER_STORE), 0));
    for seq in 0..parts {
        steps.push(Step::Unanswered(part(seq, SNAPSHOT_LAYER_STORE)));
    }
    let miscounted = steps.len();
    steps.push(Step::Request(summary(count + 1), 0));
    // Then the valid push-install of the fetched image: unacknowledged
    // parts, one `Hello` ack.
    for seq in 0..parts {
        steps.push(Step::Unanswered(part(seq, SNAPSHOT_LAYER_STORE)));
    }
    let installed = steps.len();
    steps.push(Step::Request(summary(count), 0));
    let garbage = steps.len();
    steps.push(Step::Garbage(b"not a protocol frame".to_vec()));

    let threads = run_script(ServeMode::Threads, &steps);
    let evloop = run_script(ServeMode::EvLoop, &steps);
    assert_eq!(threads.len(), evloop.len());
    for (i, (a, b)) in threads.iter().zip(&evloop).enumerate() {
        assert_eq!(a, b, "the replies to step {i} differ between serve modes");
    }
    assert_eq!(evloop[fetch], probe[fetch], "the fetch is deterministic");

    // Belt and braces: the full and subset pairwise streams rebuild to
    // the exact bits the in-process engine computes.
    let full = reference.pairwise_all();
    let sub = reference.pairwise(&subset).expect("subset");
    for (step, ids, matrix) in [
        (pairwise, reference.store().party_ids(), full.as_flat()),
        (subset_pairwise, &subset[..], sub.as_flat()),
    ] {
        let (parties, values) = rebuild(&evloop[step]);
        assert_eq!(parties, ids);
        assert_eq!(values.len(), matrix.len());
        for (a, b) in values.iter().zip(matrix) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    match decode_response(&evloop[empty_fetch][0]).expect("decode") {
        Response::SnapshotSummary {
            rows: got, count, ..
        } => assert_eq!((got, count), (rows, 0)),
        other => panic!("expected an empty snapshot stream, got {other:?}"),
    }
    assert_malformed(&evloop[journal_part][0], "journal-layer push part");
    assert_malformed(&evloop[out_of_order][0], "part 1 sent first");
    assert_malformed(&evloop[miscounted][0], "summary count mismatch");
    match decode_response(&evloop[installed][0]).expect("decode") {
        Response::Hello { rows: got, .. } => assert_eq!(got, rows),
        other => panic!("expected the install's Hello ack, got {other:?}"),
    }
    assert_malformed(&evloop[garbage][0], "garbage payload");
}

/// Push-install staging belongs to the connection that sent the parts:
/// a summary on another connection finds nothing staged there, and a
/// connection that hangs up mid-install leaves nothing behind.
#[test]
fn install_staging_is_per_connection() {
    let spec = spec(64);
    let rs = releases(&spec, 5);
    let mut source = QueryEngine::new(SketchStore::with_spec(spec).expect("store"));
    for r in &rs {
        source.ingest(r).expect("ingest");
    }
    let generation = 9;
    let image = source.store().encode_snapshot(generation);
    let part_len = 256;
    let parts: Vec<Request> = image
        .chunks(part_len)
        .enumerate()
        .map(|(seq, chunk)| Request::SnapshotPart {
            seq: seq as u64,
            layer: SNAPSHOT_LAYER_STORE,
            chunk: chunk.to_vec(),
        })
        .collect();
    assert!(parts.len() >= 2, "the install must span several parts");
    let checksum = parts.iter().fold(FNV1A64_INIT, |digest, part| {
        stream_checksum(digest, &encode_request(part).expect("encode"))
    });
    let summary = Request::SnapshotSummary {
        generation,
        rows: rs.len() as u64,
        count: parts.len() as u64,
        total_len: image.len() as u64,
        checksum,
    };
    let send = |conn: &mut Conn, request: &Request| {
        write_frame(conn, &encode_request(request).expect("encode")).expect("write");
    };
    for mode in [ServeMode::Threads, ServeMode::EvLoop] {
        let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
        let server =
            Server::bind(requested, QueryEngine::new(SketchStore::adopting())).expect("bind");
        let endpoint = server.local_endpoint();
        // Answers are checked after the server is down: a failed check
        // inside the scope would leave the server thread serving.
        let (refusal, installed) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_mode(mode, 2));
            let _guard = ShutdownOnPanic::new(&[&endpoint]);
            // Connection A stages every part; the answer to a request
            // sent after them proves they were all handled.
            let mut a = connect(&endpoint).expect("connect a");
            for part in &parts {
                send(&mut a, part);
            }
            send(&mut a, &Request::PlanPairwise { tile: 1 });
            read_frame(&mut a).expect("read").expect("plan");
            // Connection B's summary finds nothing staged on B.
            let mut b = connect(&endpoint).expect("connect b");
            send(&mut b, &summary);
            let refusal = read_frame(&mut b).expect("read").expect("refusal");
            drop(b);
            // A hangs up mid-install; a full install on a fresh
            // connection still succeeds.
            drop(a);
            let mut client = Client::connect(&endpoint).expect("connect c");
            let installed = client.install_snapshot(&image, rs.len() as u64, generation, part_len);
            client.shutdown().expect("shutdown");
            handle.join().expect("server thread");
            (refusal, installed)
        });
        assert_malformed(
            &refusal,
            &format!("{mode:?}: summary on another connection"),
        );
        assert_eq!(installed.expect("install"), rs.len() as u64, "{mode:?}");
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
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
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

/// A protocol-v6 peer fails at its first frame in both serve modes:
/// its `Hello` (version byte 6, sealed with the v6 FNV-1a-64 trailer)
/// is answered with the typed version refusal, and the same connection
/// then negotiates over v7.
#[test]
fn a_v6_hello_is_refused_and_the_connection_then_serves_v7() {
    let hello = Request::Hello {
        spec_json: spec(64).to_json(),
        caps: CAP_TILE_STREAM,
    };
    let v7 = encode_request(&hello).expect("encode");
    let mut v6 = v7[..v7.len() - 8].to_vec();
    v6[4] = 6;
    let trailer = dp_euclid::core::wire::fnv1a64(&v6);
    v6.extend_from_slice(&trailer.to_le_bytes());
    let steps = [Step::Garbage(v6), Step::Request(hello, 0)];
    for mode in [ServeMode::Threads, ServeMode::EvLoop] {
        let replies = run_script(mode, &steps);
        match decode_response(&replies[0][0]).expect("decode") {
            Response::Error { code, message } => {
                assert_eq!(code, ERR_MALFORMED, "{mode:?}");
                assert!(
                    message.contains("unsupported protocol version 6"),
                    "{mode:?}: {message}"
                );
            }
            other => panic!("{mode:?}: expected the version refusal, got {other:?}"),
        }
        match decode_response(&replies[1][0]).expect("decode") {
            Response::Hello { rows, .. } => assert_eq!(rows, 0, "{mode:?}"),
            other => panic!("{mode:?}: expected the v7 Hello answer, got {other:?}"),
        }
    }
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
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
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
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
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
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
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
