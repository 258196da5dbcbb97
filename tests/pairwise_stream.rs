//! End-to-end tests of the streamed `Pairwise` reply (since protocol v6): a
//! server answers a full or subset matrix with one `PairwiseHead`, the
//! upper triangle as `TileResultPart` frames, and one closing
//! `TileResultSummary`; `Client::pairwise` rebuilds the `n × n` matrix.
//!
//! The bar is bit identity with the in-process engine on every matrix
//! path (warm memo, cold fill, coordinator gather, subset slice, subset
//! recompute) and every awkward size, in both serve modes wherever the
//! reply fits the reactor's write budget; a matrix no single frame can
//! hold; and a typed client error for every malformed stream.

use dp_euclid::core::error::CoreError;
use dp_euclid::core::protocol::{
    decode_request, encode_response, read_frame, stream_checksum, write_frame, Request, Response,
    ERR_BUSY, ERR_MALFORMED, ERR_UNKNOWN_PARTY, MAX_FRAME_LEN,
};
use dp_euclid::core::release::Release;
use dp_euclid::core::sketcher::slice_tile_segment;
use dp_euclid::core::wire::FNV1A64_INIT;
use dp_euclid::core::{TilePlan, TileSegment};
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;
use dp_server::{
    Client, ClientError, Endpoint, ServeMode, Server, WorkerEntry, PAIRWISE_REPLY_TILE,
};
use std::net::TcpListener;

mod common;
use common::ShutdownOnPanic;

/// A spec whose sketch dimension `k` shrinks as `alpha` and `beta`
/// approach their bound of 1/2.
fn spec(d: usize, alpha: f64, beta: f64) -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(alpha)
        .beta(beta)
        .epsilon(2.0)
        .build()
        .expect("config");
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(4711))
}

fn releases(spec: &SketcherSpec, n: usize) -> Vec<Release> {
    let sketcher = spec.build().expect("sketcher");
    let d = sketcher.input_dim();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((7 * i + 3 * j) % 13) as f64 - 6.0)
                .collect()
        })
        .collect();
    sketcher
        .sketch_batch(&rows, Seed::new(99))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: 500 + i as u64,
            sketch,
        })
        .collect()
}

fn engine_over(rs: &[Release], store: SketchStore) -> QueryEngine {
    let mut engine = QueryEngine::new(store);
    for r in rs {
        engine.ingest(r).expect("ingest");
    }
    engine
}

fn tcp() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
}

/// Serve `server` in `mode`, run `session` on one client, shut down.
/// `session` only collects answers: they are checked after the server
/// is down, because a failed check inside the scope would leave the
/// server thread serving.
fn serve<T>(server: &Server, mode: ServeMode, session: impl FnOnce(&mut Client) -> T) -> T {
    let endpoint = server.local_endpoint();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_mode(mode, 2));
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
        let mut client = Client::connect(&endpoint).expect("connect");
        let out = session(&mut client);
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        out
    })
}

type Matrix = Result<(Vec<u64>, Vec<f64>), ClientError>;

fn assert_matrix(got: &Matrix, ids: &[u64], want: &PairwiseDistances, what: &str) {
    let (got_ids, values) = got.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(got_ids, ids, "{what}");
    assert_eq!(values.len(), want.as_flat().len(), "{what}");
    for (a, b) in values.iter().zip(want.as_flat()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}");
    }
}

/// As one `n × n` frame this reply would be 72 MB, past the 64 MiB
/// frame limit, so the monolithic answer was `ERR_INTERNAL` — after the
/// server had computed and encoded it. The stream carries it in thread
/// mode. The reactor still judges a reply as a whole against its 8 MiB
/// write budget, so evloop keeps refusing it with `ERR_BUSY`.
#[test]
fn a_matrix_past_the_frame_limit_streams_in_thread_mode() {
    let n = 3000;
    let spec = spec(8, 0.49, 0.45);
    let rs = releases(&spec, n);
    let engine = engine_over(&rs, SketchStore::with_spec(spec).expect("store"));
    assert!(8 * n * n > MAX_FRAME_LEN, "the single frame must not fit");
    let image = engine.store().encode_snapshot(1);
    let ids = engine.store().party_ids().to_vec();
    let mut reference = engine;
    let want = reference.pairwise_all();

    let read = |mode: ServeMode| {
        let server = Server::bind(tcp(), QueryEngine::new(SketchStore::adopting())).expect("bind");
        serve(&server, mode, |client| {
            client.install_snapshot(&image, n as u64, 1, 0)?;
            client.pairwise(&[])
        })
    };
    assert_matrix(
        &read(ServeMode::Threads),
        &ids,
        &want,
        "3,000 rows, threads",
    );
    match read(ServeMode::EvLoop) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ERR_BUSY),
        other => panic!("evloop must refuse a reply over its write budget, got {other:?}"),
    }
}

/// Every local matrix path, read through `Client::pairwise`, equals
/// the engine bit for bit: the cold fill, the warm memo, a subset
/// sliced from the memo, and a subset recomputed because it repeats a
/// party — at sizes with no pairs, one tile, and a ragged last tile.
/// A subset naming an unknown party, or more parties than the store
/// holds rows, is refused with one error frame in place of the stream,
/// and the connection keeps answering.
#[test]
fn every_local_matrix_path_is_bit_identical_in_both_serve_modes() {
    let tile = PAIRWISE_REPLY_TILE as usize;
    let ragged = 2 * tile + 3;
    let spec = spec(24, 0.45, 0.2);
    let all = releases(&spec, ragged);
    for n in [0, 1, 2, ragged] {
        let rs = &all[..n];
        let mut reference = engine_over(rs, SketchStore::with_spec(spec.clone()).expect("store"));
        let ids = reference.store().party_ids().to_vec();
        let full = reference.pairwise_all();
        let subset: Vec<u64> = ids.iter().rev().step_by(2).copied().collect();
        // At most n parties (a longer subset is refused), the first
        // named twice from two rows up.
        let repeated: Vec<u64> = ids
            .first()
            .into_iter()
            .chain(&ids)
            .take(n)
            .copied()
            .collect();
        let oversized: Vec<u64> = ids.first().map_or(vec![], |&id| vec![id; n + 1]);
        let want_subset = reference.pairwise(&subset).expect("subset");
        let want_repeated = reference.pairwise(&repeated).expect("repeated");
        for mode in [ServeMode::Threads, ServeMode::EvLoop] {
            let server =
                Server::bind(tcp(), QueryEngine::new(SketchStore::adopting())).expect("bind");
            let answers = serve(&server, mode, |client| {
                client.hello(&spec).expect("hello");
                for r in rs {
                    client.ingest(r).expect("ingest");
                }
                [
                    client.pairwise(&[]),
                    client.pairwise(&[]),
                    client.pairwise(&subset),
                    client.pairwise(&repeated),
                    client.pairwise(&[1]),
                    client.pairwise(&oversized),
                    client.pairwise(&[]),
                ]
            });
            let [cold, warm, sliced, recomputed, unknown, too_long, after] = &answers;
            let what = |path: &str| format!("{path}, n = {n}, {mode:?}");
            assert_matrix(cold, &ids, &full, &what("cold fill"));
            assert_matrix(warm, &ids, &full, &what("warm memo"));
            assert_matrix(sliced, &subset, &want_subset, &what("subset slice"));
            assert_matrix(
                recomputed,
                &repeated,
                &want_repeated,
                &what("subset recompute"),
            );
            assert!(
                matches!(unknown, Err(ClientError::Remote { code, .. }) if *code == ERR_UNKNOWN_PARTY),
                "{}: {unknown:?}",
                what("unknown party")
            );
            if oversized.is_empty() {
                assert_matrix(too_long, &ids, &full, &what("no parties"));
            } else {
                assert!(
                    matches!(too_long, Err(ClientError::Remote { code, .. }) if *code == ERR_MALFORMED),
                    "{}: {too_long:?}",
                    what("n + 1 parties")
                );
            }
            assert_matrix(after, &ids, &full, &what("after a refusal"));
        }
    }
}

/// A store whose debias constants differ by bit pattern never slices
/// its memo for a subset: the recompute, with a repeated party, comes
/// back bit-identical to the engine's.
#[test]
fn nonuniform_debias_subsets_recompute_bit_identically() {
    let m2 = 0.5;
    let mk = |id: u64, m2: f64| Release {
        party_id: id,
        sketch: NoisySketch::new(vec![1.0 + id as f64, 2.0, -0.5 * id as f64], "t", m2, 0.75),
    };
    // Four rows, so the four-party subset is within the store's size.
    let rs = vec![mk(0, m2), mk(1, m2 + 1e-13), mk(2, m2), mk(3, m2)];
    let mut reference = engine_over(&rs, SketchStore::adopting());
    assert!(!reference.store().debias_uniform());
    let _ = reference.pairwise_all();
    let parties = [1, 0, 2, 1];
    let want = reference.pairwise(&parties).expect("subset");
    for mode in [ServeMode::Threads, ServeMode::EvLoop] {
        let server = Server::bind(tcp(), QueryEngine::new(SketchStore::adopting())).expect("bind");
        let got = serve(&server, mode, |client| {
            for r in &rs {
                client.ingest(r).expect("ingest");
            }
            client.pairwise(&[]).expect("warm the memo");
            client.pairwise(&parties)
        });
        assert_matrix(&got, &parties, &want, &format!("{mode:?}"));
    }
}

/// The coordinator's gather answers through the same stream: a cold
/// sharded pass over two workers, then the adopted memo, equal the
/// local engine bit for bit with the coordinator in either serve mode.
#[test]
fn the_coordinator_gather_streams_bit_identically_in_both_serve_modes() {
    let n = PAIRWISE_REPLY_TILE as usize + 5;
    let spec = spec(24, 0.45, 0.2);
    let rs = releases(&spec, n);
    let mut reference = engine_over(&rs, SketchStore::with_spec(spec.clone()).expect("store"));
    let ids = reference.store().party_ids().to_vec();
    let full = reference.pairwise_all();
    for mode in [ServeMode::Threads, ServeMode::EvLoop] {
        let worker =
            || Server::bind(tcp(), QueryEngine::new(SketchStore::adopting())).expect("bind");
        let (a, b) = (worker(), worker());
        let pool = [&a, &b]
            .iter()
            .map(|w| WorkerEntry::new(Client::connect(&w.local_endpoint()).expect("connect")))
            .collect();
        let coordinator =
            Server::bind_coordinator(tcp(), QueryEngine::new(SketchStore::adopting()), pool, 8)
                .expect("bind coordinator");
        let (answers, stats) = std::thread::scope(|scope| {
            let ha = scope.spawn(|| a.serve_mode(mode, 1));
            let hb = scope.spawn(|| b.serve_mode(mode, 1));
            let _guard = ShutdownOnPanic::new(&[&a.local_endpoint(), &b.local_endpoint()]);
            let answers = serve(&coordinator, mode, |client| {
                client.hello(&spec).expect("hello");
                for r in &rs {
                    client.ingest(r).expect("ingest");
                }
                [client.pairwise(&[]), client.pairwise(&[])]
            });
            ha.join().expect("worker a");
            hb.join().expect("worker b");
            (answers, coordinator.coordinator_stats())
        });
        let stats = stats.expect("coordinator role");
        assert!(
            stats.last_query_tiles > 0,
            "the pass was sharded: {stats:?}"
        );
        assert_matrix(&answers[0], &ids, &full, &format!("gather, {mode:?}"));
        assert_matrix(&answers[1], &ids, &full, &format!("adopted memo, {mode:?}"));
    }
}

/// A coordinator grows its memo through the sharded gather across
/// every kind of panel edge (the reply tile is the memo's panel width;
/// the shard tile is not), and each grown `Pairwise([])` equals a cold
/// local engine bit for bit.
#[test]
fn the_coordinator_grows_its_memo_across_panel_edges_bit_identically() {
    let steps = [0, 1, 2, 100, 127, 128, 129, 255, 256, 300];
    let spec = spec(24, 0.45, 0.2);
    let rs = releases(&spec, 300);
    let worker = || Server::bind(tcp(), QueryEngine::new(SketchStore::adopting())).expect("bind");
    let (a, b) = (worker(), worker());
    let pool = [&a, &b]
        .iter()
        .map(|w| WorkerEntry::new(Client::connect(&w.local_endpoint()).expect("connect")))
        .collect();
    let coordinator =
        Server::bind_coordinator(tcp(), QueryEngine::new(SketchStore::adopting()), pool, 9)
            .expect("bind coordinator");
    let (answers, stats) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| a.serve_mode(ServeMode::Threads, 1));
        let hb = scope.spawn(|| b.serve_mode(ServeMode::Threads, 1));
        let _guard = ShutdownOnPanic::new(&[&a.local_endpoint(), &b.local_endpoint()]);
        let answers = serve(&coordinator, ServeMode::Threads, |client| {
            client.hello(&spec).expect("hello");
            let mut ingested = 0;
            steps.map(|n| {
                for r in &rs[ingested..n] {
                    client.ingest(r).expect("ingest");
                }
                ingested = n;
                client.pairwise(&[])
            })
        });
        ha.join().expect("worker a");
        hb.join().expect("worker b");
        (answers, coordinator.coordinator_stats())
    });
    let stats = stats.expect("coordinator role");
    assert!(
        stats.last_query_tiles > 0,
        "the growth was sharded: {stats:?}"
    );
    for (n, got) in steps.into_iter().zip(&answers) {
        let mut reference = engine_over(
            &rs[..n],
            SketchStore::with_spec(spec.clone()).expect("store"),
        );
        let ids = reference.store().party_ids().to_vec();
        let want = reference.pairwise_all();
        assert_matrix(got, &ids, &want, &format!("grown to {n} rows"));
    }
}

/// A well-formed reply stream over `values` (row-major `n × n`).
fn stream_of(parties: &[u64], tile: u32, values: &[f64]) -> Vec<Response> {
    let n = parties.len();
    let plan = TilePlan::new(n, tile as usize);
    let mut frames = vec![Response::PairwiseHead {
        parties: parties.to_vec(),
        tile,
    }];
    for (id, t) in plan.tiles() {
        frames.push(Response::TileResultPart {
            rows: n as u64,
            tile,
            segment: TileSegment {
                tile_id: id as u64,
                values: slice_tile_segment(&t, values, n),
            },
        });
    }
    frames.push(honest_summary(n as u64, tile, &frames[1..]));
    frames
}

/// The summary an honest server sends after `parts`: their count and
/// the stream digest folded over their encoded trailers.
fn honest_summary(rows: u64, tile: u32, parts: &[Response]) -> Response {
    Response::TileResultSummary {
        rows,
        tile,
        count: parts.len() as u64,
        checksum: encoded(parts)
            .iter()
            .fold(FNV1A64_INIT, |h, frame| stream_checksum(h, frame)),
    }
}

/// What `Client::pairwise(parties)` makes of a fake server answering
/// with exactly `frames` (each already encoded).
fn against(parties: &[u64], frames: Vec<Vec<u8>>) -> Matrix {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    std::thread::scope(|scope| {
        let fake = scope.spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let request = read_frame(&mut sock).expect("read").expect("request");
            let asked = matches!(decode_request(&request), Ok(Request::Pairwise { .. }));
            for frame in &frames {
                if write_frame(&mut sock, frame).is_err() {
                    break; // the client gave up reading
                }
            }
            // Hold the socket until the client hangs up.
            let _ = read_frame(&mut sock);
            asked
        });
        let mut client = Client::connect(&endpoint).expect("connect");
        let got = client.pairwise(parties);
        drop(client);
        assert!(fake.join().expect("fake server"), "a pairwise request");
        got
    })
}

fn encoded(frames: &[Response]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|f| encode_response(f).expect("encode"))
        .collect()
}

#[test]
fn the_client_rejects_malformed_streams_with_typed_errors() {
    let parties = [7u64, 3, 9];
    let values = [0.0, 1.5, -2.0, 1.5, 0.0, 4.25, -2.0, 4.25, 0.0];
    let good = stream_of(&parties, 2, &values);
    assert_eq!(good.len(), 5, "head, 3 tiles, summary");
    let (ids, got) = against(&parties, encoded(&good)).expect("a well-formed stream");
    assert_eq!(ids, parties);
    assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), {
        values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });

    // A subset head that does not echo the request.
    let mut wrong_head = good.clone();
    wrong_head[0] = Response::PairwiseHead {
        parties: vec![7, 3, 8],
        tile: 2,
    };
    assert!(matches!(
        against(&parties, encoded(&wrong_head)),
        Err(ClientError::UnexpectedResponse)
    ));

    // A part beyond the plan: one more than its tile count…
    let mut runaway = good.clone();
    runaway.insert(4, good[1].clone());
    assert!(matches!(
        against(&parties, encoded(&runaway)),
        Err(ClientError::UnexpectedResponse)
    ));
    // …or a tile id the plan does not hold.
    let mut alien = good.clone();
    alien[3] = Response::TileResultPart {
        rows: 3,
        tile: 2,
        segment: TileSegment {
            tile_id: 3,
            values: vec![],
        },
    };
    assert!(matches!(
        against(&parties, encoded(&alien)),
        Err(ClientError::Codec(CoreError::Wire(_)))
    ));

    // Summaries whose count or digest disagree with the parts read.
    for (count, bump) in [(2, 0), (3, 1)] {
        let mut lying = good.clone();
        let Response::TileResultSummary { checksum, .. } = good[4] else {
            panic!("the stream closes with its summary");
        };
        lying[4] = Response::TileResultSummary {
            rows: 3,
            tile: 2,
            count,
            checksum: checksum ^ bump,
        };
        assert!(matches!(
            against(&parties, encoded(&lying)),
            Err(ClientError::Codec(CoreError::ChecksumMismatch { .. }))
        ));
    }

    // An honest summary over a stream that skipped a tile.
    let mut short = good[..3].to_vec();
    short.push(honest_summary(3, 2, &good[1..3]));
    assert!(matches!(
        against(&parties, encoded(&short)),
        Err(ClientError::Codec(CoreError::Wire(_)))
    ));

    // Under the honest summary of the good stream: two parts swapped,
    // which the gather accepts in any order, so only the digest can
    // catch it…
    let mut swapped = good.clone();
    swapped.swap(1, 2);
    assert!(matches!(
        against(&parties, encoded(&swapped)),
        Err(ClientError::Codec(CoreError::ChecksumMismatch { .. }))
    ));
    // …and one correctly sealed part whose values changed.
    let mut altered = good.clone();
    let Response::TileResultPart { segment, .. } = &mut altered[2] else {
        panic!("a part");
    };
    segment.values[0] += 1.0;
    assert!(matches!(
        against(&parties, encoded(&altered)),
        Err(ClientError::Codec(CoreError::ChecksumMismatch { .. }))
    ));
}

/// A head announcing more rows than any `n × n` buffer this process
/// could hold (5·10⁶ rows: 200 TB of estimates) is a typed error, not
/// an allocation abort.
#[test]
fn an_unallocatable_head_is_a_typed_error() {
    let head = Response::PairwiseHead {
        parties: (0..5_000_000u64).collect(),
        tile: PAIRWISE_REPLY_TILE,
    };
    let frame = encode_response(&head).expect("encode");
    drop(head);
    match against(&[], vec![frame]) {
        Err(ClientError::Codec(CoreError::Wire(why))) => {
            assert!(why.contains("cannot be allocated"), "{why}");
        }
        other => panic!("expected a typed allocation refusal, got {other:?}"),
    }
}
