//! End-to-end test of the protocol-v7 sketch service: spawn a
//! `dp-server` on a unix socket, ingest releases through the blocking
//! client, and assert that every socket answer is **bit-identical** to
//! the in-process `SketchStore`/`QueryEngine` answers for the same
//! ingested releases — the server must be a pure transport shell.

use dp_euclid::core::protocol::CAP_SKETCH_F32;
use dp_euclid::core::release::Release;
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;
use dp_server::{Client, ClientError, Endpoint, Server};
use std::path::PathBuf;

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
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(4242))
}

fn releases(spec: &SketcherSpec, n: usize) -> Vec<Release> {
    let sketcher = spec.build().expect("sketcher");
    let d = sketcher.input_dim();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| ((3 * i + j) % 7) as f64 - 3.0).collect())
        .collect();
    sketcher
        .sketch_batch(&rows, Seed::new(777))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: 10 + i as u64,
            sketch,
        })
        .collect()
}

fn scratch_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dp-e2e-{tag}-{}.sock", std::process::id()))
}

/// Both sketch framings a client may ingest with: the full `f64` wire,
/// and the quantized `f32` one every server advertises
/// ([`CAP_SKETCH_F32`]). The reference engine ingests the very frames
/// the client sends, so the `f32` lane is pinned to the quantized bits.
#[test]
fn socket_answers_are_bit_identical_to_the_engine() {
    let spec = spec(192);
    let rs = releases(&spec, 8);
    for f32_wire in [false, true] {
        // The in-process reference engine.
        let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
        for r in &rs {
            if f32_wire {
                reference.ingest_bytes(&r.to_bytes_f32().expect("f32 frame"))
            } else {
                reference.ingest(r)
            }
            .expect("ingest");
        }

        let socket = scratch_socket(if f32_wire { "main-f32" } else { "main" });
        let endpoint = Endpoint::Unix(socket.clone());
        let server = Server::bind(endpoint.clone(), QueryEngine::new(SketchStore::adopting()))
            .expect("bind");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve(2));
            let _guard = ShutdownOnPanic::new(&[&endpoint]);

            let mut client = Client::connect(&endpoint).expect("connect");

            // Spec negotiation: fresh store adopts; re-Hello with the same
            // spec is idempotent; a different spec is refused.
            let (k, rows, tag, caps) = client.hello_caps(&spec).expect("hello");
            assert_ne!(caps & CAP_SKETCH_F32, 0);
            assert_eq!(rows, 0);
            assert_eq!(k as usize, reference.store().k().expect("k"));
            assert_eq!(tag, reference.store().tag().expect("tag"));
            let (_, _, tag_again) = client.hello(&spec).expect("re-hello");
            assert_eq!(tag_again, tag);
            let other = SketcherSpec::new(
                Construction::SjltLaplace,
                spec.config().clone(),
                Seed::new(1),
            );
            assert!(matches!(
                client.hello(&other),
                Err(ClientError::Remote { .. })
            ));

            // Ingest through the socket.
            let ingest = |client: &mut Client, r: &Release| {
                if f32_wire {
                    client.ingest_f32(r)
                } else {
                    client.ingest(r)
                }
            };
            for (i, r) in rs.iter().enumerate() {
                let (row, n) = ingest(&mut client, r).expect("ingest");
                assert_eq!(row as usize, i);
                assert_eq!(n as usize, i + 1);
            }
            // Duplicate ids and unknown queries surface as typed remote
            // errors without poisoning the connection.
            assert!(matches!(
                ingest(&mut client, &rs[0]),
                Err(ClientError::Remote { .. })
            ));
            assert!(matches!(
                client.knn(999, 2),
                Err(ClientError::Remote { .. })
            ));

            // Full pairwise: bit-identical to the engine, ids in ingest order.
            let (ids, values) = client.pairwise(&[]).expect("pairwise");
            assert_eq!(ids, reference.store().party_ids());
            let local = reference.pairwise_all();
            assert_eq!(values.len(), local.as_flat().len());
            for (a, b) in values.iter().zip(local.as_flat()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }

            // Subset pairwise, in requested order.
            let subset = [rs[5].party_id, rs[1].party_id, rs[2].party_id];
            let (sub_ids, sub_values) = client.pairwise(&subset).expect("subset");
            assert_eq!(sub_ids, subset);
            let local_sub = reference.pairwise(&subset).expect("subset");
            for (a, b) in sub_values.iter().zip(local_sub.as_flat()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }

            // knn: same neighbors, same bits.
            for &party in &[rs[0].party_id, rs[7].party_id] {
                let remote = client.knn(party, 4).expect("knn");
                let local = reference.knn(party, 4).expect("knn");
                assert_eq!(remote.len(), local.len());
                for (r, l) in remote.iter().zip(&local) {
                    assert_eq!(r.0, l.party_id);
                    assert_eq!(r.1.to_bits(), l.estimated_sq_distance.to_bits());
                }
            }

            // top_pairs: same pairs, same bits.
            let remote_top = client.top_pairs(5).expect("top");
            let local_top = reference.top_pairs(5);
            assert_eq!(remote_top.len(), local_top.len());
            for (r, l) in remote_top.iter().zip(&local_top) {
                assert_eq!((r.0, r.1), (l.0, l.1));
                assert_eq!(r.2.to_bits(), l.2.to_bits());
            }

            // Clean shutdown: server thread joins.
            client.shutdown().expect("shutdown");
            handle.join().expect("server thread");
        });
        let _ = std::fs::remove_file(&socket);
    }
}

#[test]
fn ingest_before_hello_adopts_and_serves() {
    // A client may skip negotiation entirely: the adopting store takes
    // the identity of the first release.
    let spec = spec(96);
    let rs = releases(&spec, 4);
    let mut reference = QueryEngine::new(SketchStore::adopting());
    for r in &rs {
        reference.ingest(r).expect("ingest");
    }

    let socket = scratch_socket("adopt");
    let endpoint = Endpoint::Unix(socket.clone());
    let server =
        Server::bind(endpoint.clone(), QueryEngine::new(SketchStore::adopting())).expect("bind");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
        let mut client = Client::connect(&endpoint).expect("connect");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        let (ids, values) = client.pairwise(&[]).expect("pairwise");
        assert_eq!(ids, reference.store().party_ids());
        for (a, b) in values.iter().zip(reference.pairwise_all().as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
    let _ = std::fs::remove_file(&socket);
}

/// A `Hello` whose spec names the retired `v2-simd` kernel is answered
/// with the typed `ERR_KERNEL` naming both kernels, by an empty server
/// too, and adopts nothing: the connection keeps serving, and the next
/// `Hello`, with different parameters under `v1-scalar`, is adopted.
/// Were the name read as `v1-scalar`, the first `Hello` would adopt
/// and the second would be refused as a spec mismatch.
#[test]
fn a_retired_kernel_hello_is_refused_typed_and_adopts_nothing() {
    use dp_euclid::core::protocol::{Request, Response, ERR_KERNEL};

    let stamped = spec(64).to_json().replace("v1-scalar", "v2-simd");
    let socket = scratch_socket("retired-kernel");
    let endpoint = Endpoint::Unix(socket.clone());
    let server =
        Server::bind(endpoint.clone(), QueryEngine::new(SketchStore::adopting())).expect("bind");
    let (refusal, adopted) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
        let mut client = Client::connect(&endpoint).expect("connect");
        let refusal = client
            .call(&Request::Hello {
                spec_json: stamped,
                caps: 0,
            })
            .expect("exchange");
        let adopted = client.hello(&spec(96));
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        (refusal, adopted)
    });
    let _ = std::fs::remove_file(&socket);
    match refusal {
        Response::Error { code, message } => {
            assert_eq!(code, ERR_KERNEL, "{message}");
            assert!(message.contains("v2-simd"), "{message}");
            assert!(message.contains("v1-scalar"), "{message}");
        }
        other => panic!("expected ERR_KERNEL, got {other:?}"),
    }
    let (_, rows, _) = adopted.expect("the store adopted nothing from the refused Hello");
    assert_eq!(rows, 0);
}

/// A `Hello` whose spec's identity refuses it (an `fjlt-output` spec
/// without δ, Kenthapadi's Theorem 1 at ε = 16 ≥ ln(1/δ) with
/// δ = 1e-5, or an `sjlt-laplace` spec at ε = 1e-310, whose noise scale
/// overflows) gets `ERR_SPEC` naming the refusal, from a plain server and
/// from a coordinator, and adopts nothing: both then adopt a buildable
/// spec, which the coordinator relays to its worker.
#[test]
fn an_unbuildable_spec_hello_is_refused_err_spec_by_server_and_coordinator() {
    use dp_euclid::core::protocol::{Request, Response, ERR_SPEC, ERR_SPEC_MISMATCH};
    use dp_server::WorkerEntry;
    use std::time::Duration;

    let unbuildable = |construction, epsilon, delta: Option<f64>| {
        let mut config = SketchConfig::builder()
            .input_dim(64)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(epsilon);
        if let Some(delta) = delta {
            config = config.delta(delta);
        }
        let config = config.build().expect("config");
        SketcherSpec::new(construction, config, Seed::new(7)).to_json()
    };
    let refusals = [
        (unbuildable(Construction::FjltOutput, 1.0, None), "delta"),
        (
            unbuildable(
                Construction::Kenthapadi(SigmaCalibration::Theorem1),
                16.0,
                Some(1e-5),
            ),
            "Theorem 1",
        ),
        (
            unbuildable(Construction::SjltLaplace, 1e-310, None),
            "scale",
        ),
    ];
    let assert_refused = |client: &mut Client| {
        for (spec_json, named) in &refusals {
            let hello = Request::Hello {
                spec_json: spec_json.clone(),
                caps: 0,
            };
            match client.call(&hello).expect("exchange") {
                Response::Error { code, message } => {
                    assert_eq!(code, ERR_SPEC, "{message}");
                    assert!(message.contains(named), "{message}");
                }
                other => panic!("expected ERR_SPEC, got {other:?}"),
            }
        }
    };

    let worker_socket = scratch_socket("unbuildable-worker");
    let coord_socket = scratch_socket("unbuildable-coord");
    let worker_endpoint = Endpoint::Unix(worker_socket.clone());
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());
    let worker = Server::bind(
        worker_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
    )
    .expect("bind worker");
    let timeout = Some(Duration::from_secs(30));
    let pooled = Client::connect(&worker_endpoint).expect("connect worker");
    let coordinator = Server::bind_coordinator(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        vec![WorkerEntry::reconnectable(
            pooled,
            worker_endpoint.clone(),
            timeout,
        )],
        8,
    )
    .expect("bind coordinator");
    std::thread::scope(|scope| {
        // Two accept loops on the worker: the coordinator's pooled
        // connection and the direct probe.
        let hw = scope.spawn(|| worker.serve(2));
        let hc = scope.spawn(|| coordinator.serve(1));
        let _guard = ShutdownOnPanic::new(&[&coord_endpoint, &worker_endpoint]);
        let mut direct = Client::connect(&worker_endpoint).expect("connect worker");
        assert_refused(&mut direct);
        let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
        assert_refused(&mut client);

        let served = spec(64);
        let (_, rows, _) = client.hello(&served).expect("coordinator adopts");
        assert_eq!(rows, 0);
        let (_, rows, _) = direct.hello(&served).expect("the relayed spec");
        assert_eq!(rows, 0);
        match direct.hello(&spec(96)) {
            Err(ClientError::Remote { code, .. }) => assert_eq!(code, ERR_SPEC_MISMATCH),
            other => panic!("the worker adopted no relayed spec: {other:?}"),
        }
        client.shutdown().expect("shutdown coordinator");
        hc.join().expect("coordinator thread");
        direct.shutdown().expect("shutdown worker");
        hw.join().expect("worker thread");
    });
    let _ = std::fs::remove_file(&worker_socket);
    let _ = std::fs::remove_file(&coord_socket);
}

/// A `Pairwise` subset naming more parties than the store holds rows
/// (so some party repeats) is refused `ERR_MALFORMED` before its matrix
/// is allocated, by a plain server and by a coordinator; a subset of up
/// to `n` parties, repeats included, answers as the engine does, and
/// the connection keeps serving after the refusal.
#[test]
fn a_subset_longer_than_the_store_is_refused_err_malformed_by_server_and_coordinator() {
    use dp_euclid::core::protocol::ERR_MALFORMED;
    use dp_server::WorkerEntry;
    use std::time::Duration;

    let spec = spec(64);
    let rs = releases(&spec, 3);
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &rs {
        reference.ingest(r).expect("reference ingest");
    }
    let ids: Vec<u64> = rs.iter().map(|r| r.party_id).collect();
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    // Subsets of up to n parties, each with the ids and values it must
    // answer: the engine's subset, or for `[]` the full matrix.
    let answered: Vec<(Vec<u64>, Vec<u64>, Vec<u64>)> =
        [vec![ids[0], ids[0], ids[1]], vec![ids[2], ids[0]], vec![]]
            .into_iter()
            .map(|parties| {
                let (want_ids, want) = if parties.is_empty() {
                    (ids.clone(), reference.pairwise_all().as_flat().to_vec())
                } else {
                    let sub = reference.pairwise(&parties).expect("reference");
                    (parties.clone(), sub.as_flat().to_vec())
                };
                (parties, want_ids, bits(&want))
            })
            .collect();
    let check = |client: &mut Client| {
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        for parties in [vec![ids[0]; 1024], vec![ids[0], ids[0], ids[1], ids[2]]] {
            match client.pairwise(&parties) {
                Err(ClientError::Remote { code, message }) => {
                    assert_eq!(code, ERR_MALFORMED, "{message}");
                    assert!(message.contains(&format!("{} parties", parties.len())));
                }
                other => panic!(
                    "{} parties over 3 rows: {:?}",
                    parties.len(),
                    other.map(|(ids, values)| (ids.len(), values.len()))
                ),
            }
        }
        for (parties, want_ids, want) in &answered {
            let (got_ids, values) = client.pairwise(parties).expect("a subset of n parties");
            assert_eq!(&got_ids, want_ids, "{parties:?}");
            assert_eq!(&bits(&values), want, "{parties:?}");
        }
    };

    let worker_socket = scratch_socket("oversized-worker");
    let coord_socket = scratch_socket("oversized-coord");
    let worker_endpoint = Endpoint::Unix(worker_socket.clone());
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());
    let worker = Server::bind(
        worker_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
    )
    .expect("bind worker");
    let timeout = Some(Duration::from_secs(30));
    let pooled = Client::connect(&worker_endpoint).expect("connect worker");
    pooled.set_read_timeout(timeout).expect("timeout");
    let coordinator = Server::bind_coordinator(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        vec![WorkerEntry::new(pooled)],
        8,
    )
    .expect("bind coordinator");
    let plain_socket = scratch_socket("oversized-plain");
    let plain_endpoint = Endpoint::Unix(plain_socket.clone());
    let plain = Server::bind(
        plain_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
    )
    .expect("bind plain server");
    std::thread::scope(|scope| {
        let hw = scope.spawn(|| worker.serve(1));
        let hc = scope.spawn(|| coordinator.serve(1));
        let hp = scope.spawn(|| plain.serve(1));
        let _guard = ShutdownOnPanic::new(&[&plain_endpoint, &coord_endpoint, &worker_endpoint]);
        for (endpoint, handle) in [(&plain_endpoint, hp), (&coord_endpoint, hc)] {
            let mut client = Client::connect(endpoint).expect("connect");
            check(&mut client);
            client.shutdown().expect("shutdown");
            handle.join().expect("server thread");
        }
        // The coordinator's shutdown winds its worker down with it.
        hw.join().expect("worker thread");
    });
    for socket in [worker_socket, coord_socket, plain_socket] {
        let _ = std::fs::remove_file(socket);
    }
}

#[test]
fn shutdown_unblocks_every_worker() {
    // Regression: with more accept loops than the wake-up default, a
    // single Shutdown must still unblock all of them and let serve()
    // return (each idle worker sits blocked in accept until woken).
    let socket = scratch_socket("manyworkers");
    let endpoint = Endpoint::Unix(socket.clone());
    let server =
        Server::bind(endpoint.clone(), QueryEngine::new(SketchStore::adopting())).expect("bind");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(7));
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
        let client = Client::connect(&endpoint).expect("connect");
        client.shutdown().expect("shutdown");
        handle.join().expect("all 7 workers unblocked and joined");
    });
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn malformed_frames_get_error_responses_not_hangups() {
    use dp_euclid::core::protocol::{
        decode_response, read_frame, write_frame, Request, Response, ERR_MALFORMED,
    };

    let socket = scratch_socket("malformed");
    let endpoint = Endpoint::Unix(socket.clone());
    let server =
        Server::bind(endpoint.clone(), QueryEngine::new(SketchStore::adopting())).expect("bind");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
        let mut client = Client::connect(&endpoint).expect("connect");
        // A garbage payload (not a v3 frame at all).
        let garbage = b"this is not a protocol frame".to_vec();
        {
            // Reach the raw exchange through the public call API:
            // Client::call sends well-formed frames, so drive the frame
            // layer directly for this case.
            let conn = client.conn_mut();
            write_frame(conn, &garbage).expect("write");
            let reply = read_frame(conn).expect("read").expect("frame");
            match decode_response(&reply).expect("decode") {
                Response::Error { code, .. } => assert_eq!(code, ERR_MALFORMED),
                other => panic!("expected an error frame, got {other:?}"),
            }
        }
        // The connection is still healthy afterwards.
        let reply = client
            .call(&Request::TopPairs { t: 1 })
            .expect("still alive");
        assert!(matches!(reply, Response::TopPairs { .. }));
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn wire_sized_ranked_reads_answer_every_candidate() {
    // `TopPairs.t` and `Knn.k` arrive as u32 straight off the wire:
    // the largest must return every pair / every other party, sizing
    // nothing by the request, and leave the connection serving.
    let spec = spec(96);
    let rs = releases(&spec, 6);
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &rs {
        reference.ingest(r).expect("ingest");
    }

    let socket = scratch_socket("maxrank");
    let endpoint = Endpoint::Unix(socket.clone());
    let server =
        Server::bind(endpoint.clone(), QueryEngine::new(SketchStore::adopting())).expect("bind");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
        let mut client = Client::connect(&endpoint).expect("connect");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }

        let remote_top = client.top_pairs(u32::MAX).expect("top");
        let local_top = reference.top_pairs(usize::MAX);
        assert_eq!(remote_top.len(), 15);
        assert_eq!(local_top.len(), 15);
        for (r, l) in remote_top.iter().zip(&local_top) {
            assert_eq!((r.0, r.1, r.2.to_bits()), (l.0, l.1, l.2.to_bits()));
        }

        let party = rs[2].party_id;
        let remote_nn = client.knn(party, u32::MAX).expect("knn");
        let local_nn = reference.knn(party, usize::MAX).expect("knn");
        assert_eq!(remote_nn.len(), 5);
        assert_eq!(local_nn.len(), 5);
        for (r, l) in remote_nn.iter().zip(&local_nn) {
            assert_eq!(
                (r.0, r.1.to_bits()),
                (l.party_id, l.estimated_sq_distance.to_bits())
            );
        }

        // The same connection still answers an ordinary query.
        let (ids, _) = client.pairwise(&[]).expect("pairwise after u32::MAX reads");
        assert_eq!(ids, reference.store().party_ids());

        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
    let _ = std::fs::remove_file(&socket);
}
