//! End-to-end tests of the durable replication spine: the layered
//! snapshot + suffix-log `ReplicationLog` behind the coordinator role.
//!
//! Two contracts, both measured in bits:
//!
//! * **snapshot resync** — once the journal compacts, a restarted
//!   (empty) worker is brought back by a streamed snapshot install plus
//!   a short suffix replay, *not* full-history replay; the stats
//!   counters prove which path ran, the gathered matrix proves it was
//!   bit-perfect;
//! * **disk recovery** — a coordinator bound on a `--data-dir` journals
//!   every ingest, and a fresh coordinator bound on the same directory
//!   recovers the identical store before accepting a single connection.

use dp_euclid::core::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, ERR_PLAN,
};
use dp_euclid::core::release::Release;
use dp_euclid::core::CoreError;
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;
use dp_server::{connect, Client, Conn, CoordinatorConfig, Endpoint, Server, WorkerEntry};
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
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(313))
}

fn releases(spec: &SketcherSpec, n: usize) -> Vec<Release> {
    let sketcher = spec.build().expect("sketcher");
    let d = sketcher.input_dim();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| ((11 * i + j) % 7) as f64 - 3.0).collect())
        .collect();
    sketcher
        .sketch_batch(&rows, Seed::new(222))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: 300 + i as u64,
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
    std::env::temp_dir().join(format!("dp-repl-{tag}-{}.sock", std::process::id()))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dp-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn assert_bits(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// After compaction folds the journal prefix into a snapshot, reviving
/// an empty worker must go snapshot-install + suffix-replay: the
/// replayed frame count stays strictly below the total ingest count,
/// and the re-gathered matrix is still bit-identical to the sequential
/// reference.
#[test]
fn a_restarted_worker_resyncs_via_snapshot_plus_suffix_after_compaction() {
    let spec = spec(96);
    let rs = releases(&spec, 10);
    let sketches: Vec<_> = rs.iter().map(|r| r.sketch.clone()).collect();
    let reference = reference_matrix(&sketches);

    let sock_a = scratch_socket("snap-wa");
    let sock_b = scratch_socket("snap-wb");
    let coord_socket = scratch_socket("snap-coord");
    for s in [&sock_a, &sock_b, &coord_socket] {
        let _ = std::fs::remove_file(s);
    }
    let ep_a = Endpoint::Unix(sock_a.clone());
    let ep_b = Endpoint::Unix(sock_b.clone());
    let coord_endpoint = Endpoint::Unix(coord_socket.clone());

    // Worker A gets a short conn timeout so its pooled-connection
    // thread notices the shutdown flag promptly — the in-process stand-
    // in for SIGKILL.
    let worker_a = Server::bind(ep_a.clone(), QueryEngine::new(SketchStore::adopting()))
        .expect("bind worker a")
        .with_conn_timeout(Some(Duration::from_millis(200)));
    let worker_b = Server::bind(ep_b.clone(), QueryEngine::new(SketchStore::adopting()))
        .expect("bind worker b");

    let timeout = Duration::from_secs(30);
    let pool: Vec<WorkerEntry> = [&ep_a, &ep_b]
        .iter()
        .map(|ep| {
            let client = Client::connect(ep).expect("connect worker");
            WorkerEntry::reconnectable(client, (*ep).clone(), Some(timeout))
        })
        .collect();
    // Compaction threshold 4: ten ingests fold the journal twice
    // (base 4, then base 8), leaving a two-frame suffix.
    let coordinator = Server::bind_coordinator_with(
        coord_endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        pool,
        CoordinatorConfig {
            tile: 5,
            compact_threshold: 4,
            data_dir: None,
        },
    )
    .expect("bind coordinator");

    std::thread::scope(|scope| {
        let ha = scope.spawn(|| worker_a.serve(2));
        let hb = scope.spawn(|| worker_b.serve(2));
        let hc = scope.spawn(|| coordinator.serve(1));
        let _guard = ShutdownOnPanic::new(&[&coord_endpoint, &ep_a, &ep_b]);

        let mut client = Client::connect(&coord_endpoint).expect("connect coordinator");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("broadcast ingest");
        }
        let stats = coordinator.coordinator_stats().expect("coordinator role");
        assert_eq!(
            stats.compactions, 2,
            "threshold 4 over 10 ingests folds twice"
        );
        assert_eq!(
            stats.journal_len, 2,
            "suffix holds the post-compaction frames"
        );
        assert!(stats.snapshot_generation > 0);

        // "Kill" worker A: a direct shutdown stops its serve loops and
        // closes the pooled connection, poisoning the coordinator's
        // slot on the next broadcast.
        let direct = Client::connect(&ep_a).expect("connect worker a");
        direct.set_read_timeout(Some(timeout)).expect("timeout");
        direct.shutdown().expect("shutdown worker a");
        ha.join().expect("worker a joined");
        let _ = std::fs::remove_file(&sock_a);

        // Restart it empty on the same socket. The revival query must
        // install the compaction snapshot (8 rows) and replay only the
        // two-frame suffix — never the full ten-frame history.
        let worker_a2 = Server::bind(ep_a.clone(), QueryEngine::new(SketchStore::adopting()))
            .expect("rebind worker a");
        let ha2 = scope.spawn(move || worker_a2.serve(2));
        let (_, values) = client.pairwise(&[]).expect("pairwise after restart");
        assert_bits(&values, reference.as_flat());

        let stats = coordinator.coordinator_stats().expect("coordinator role");
        assert_eq!(
            stats.snapshot_installs, 1,
            "revival must go through the snapshot"
        );
        assert!(stats.resyncs >= 1);
        assert!(
            stats.replayed_frames < rs.len() as u64,
            "replayed {} frames — that is full-history replay, not a suffix",
            stats.replayed_frames
        );

        // The revived replica itself proves it holds every row.
        let mut probe = Client::connect(&ep_a).expect("probe revived worker");
        let (rows, _, _, _) = probe.plan_pairwise(5).expect("plan");
        assert_eq!(rows, rs.len() as u64);
        drop(probe);

        client.shutdown().expect("shutdown");
        hc.join().expect("coordinator joined");
        hb.join().expect("worker b joined");
        ha2.join().expect("revived worker joined");
    });
    for s in [&sock_a, &sock_b, &coord_socket] {
        let _ = std::fs::remove_file(s);
    }
}

/// A worker-less durable coordinator journals every ingest to disk; a
/// fresh bind on the same directory recovers the identical store —
/// same rows, bit-identical matrix — and says so in its stats.
#[test]
fn a_durable_coordinator_recovers_its_store_from_disk() {
    let spec = spec(64);
    let rs = releases(&spec, 8);
    let sketches: Vec<_> = rs.iter().map(|r| r.sketch.clone()).collect();
    let reference = reference_matrix(&sketches);

    let socket = scratch_socket("disk-coord");
    let _ = std::fs::remove_file(&socket);
    let endpoint = Endpoint::Unix(socket.clone());
    let data_dir = scratch_dir("disk");
    let config = CoordinatorConfig {
        tile: 4,
        compact_threshold: 3,
        data_dir: Some(data_dir.clone()),
    };

    // First life: ingest, answer, shut down cleanly.
    let server = Server::bind_coordinator_with(
        endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        Vec::new(),
        config.clone(),
    )
    .expect("bind durable coordinator");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
        let mut client = Client::connect(&endpoint).expect("connect");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        let (_, values) = client.pairwise(&[]).expect("pairwise");
        assert_bits(&values, reference.as_flat());
        client.shutdown().expect("shutdown");
        handle.join().expect("joined");
    });
    let _ = std::fs::remove_file(&socket);

    // Second life: a fresh empty engine on the same directory. The
    // disk image must win over the caller's engine.
    let server = Server::bind_coordinator_with(
        endpoint.clone(),
        QueryEngine::new(SketchStore::adopting()),
        Vec::new(),
        config,
    )
    .expect("rebind durable coordinator");
    let stats = server.coordinator_stats().expect("coordinator role");
    assert_eq!(stats.recoveries, 1, "the rebind must count as a recovery");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
        let mut client = Client::connect(&endpoint).expect("connect");
        // No Hello needed: the spec was recovered from disk too.
        let (_, values) = client.pairwise(&[]).expect("pairwise after recovery");
        assert_bits(&values, reference.as_flat());
        let (rows, _, _, _) = client.plan_pairwise(4).expect("plan");
        assert_eq!(rows, rs.len() as u64);
        client.shutdown().expect("shutdown");
        handle.join().expect("joined");
    });
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// The spec JSON embedded in a persisted file — a `u32` LE length at
/// `len_at`, then the JSON, right after a spec flag of 1 — rewritten to
/// name kernel `to` instead of `from`, with the FNV-1a-64 checksum at
/// `sum_at(end, len)` recomputed over everything before it (`end` is
/// where the rewritten JSON ends, `len` the file length). The layouts
/// are the on-disk ones of the replication log and the DPSS snapshot.
fn restamp_kernel(
    bytes: &[u8],
    len_at: usize,
    (from, to): (&str, &str),
    sum_at: impl Fn(usize, usize) -> usize,
) -> Vec<u8> {
    assert_eq!(bytes[len_at - 1], 1, "a spec follows");
    let len = u32::from_le_bytes(bytes[len_at..len_at + 4].try_into().expect("4 bytes")) as usize;
    let json = std::str::from_utf8(&bytes[len_at + 4..len_at + 4 + len]).expect("UTF-8");
    let named = format!(r#""kernel":"{from}""#);
    assert!(json.contains(&named), "{json}");
    let json = json.replace(&named, &format!(r#""kernel":"{to}""#));
    let mut out = bytes[..len_at].to_vec();
    out.extend_from_slice(&(json.len() as u32).to_le_bytes());
    out.extend_from_slice(json.as_bytes());
    let end = out.len();
    out.extend_from_slice(&bytes[len_at + 4 + len..]);
    let at = sum_at(end, out.len());
    let sum = dp_euclid::core::wire::fnv1a64(&out[..at]);
    out[at..at + 8].copy_from_slice(&sum.to_le_bytes());
    out
}

/// A data directory stamped with the retired `v2-simd` kernel, in its
/// snapshot or in its journal header, is refused at bind with the typed
/// `CoreError::UnknownKernel`, and no file is rewritten: not degraded
/// to a dropped snapshot (losing acked rows) nor replayed into a store
/// answering under `v1-scalar`. Were the name read as `v1-scalar`, the
/// bind would recover the directory and rewrite it; restamped back, it
/// does exactly that.
#[test]
fn a_data_dir_stamped_with_a_retired_kernel_is_refused_typed_and_untouched() {
    let spec = spec(64);
    let rs = releases(&spec, 3);
    let socket = scratch_socket("retired-kernel");
    let _ = std::fs::remove_file(&socket);
    let endpoint = Endpoint::Unix(socket.clone());
    let config = |dir: &PathBuf| CoordinatorConfig {
        tile: 4,
        compact_threshold: 0,
        data_dir: Some(dir.clone()),
    };
    // Every bind clears the socket path first: a refused bind never
    // reaches the listener, a successful one leaves the path behind.
    let bind = |dir: &PathBuf, engine: QueryEngine| {
        let _ = std::fs::remove_file(&socket);
        Server::bind_coordinator_with(endpoint.clone(), engine, Vec::new(), config(dir))
    };
    let fresh = || QueryEngine::new(SketchStore::adopting());

    // A snapshot: binding a seeded engine writes `snapshot.bin` over
    // its three rows (and a journal header at base 3).
    let snap_dir = scratch_dir("retired-snap");
    let mut seeded = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in &rs {
        seeded.ingest(r).expect("ingest");
    }
    drop(bind(&snap_dir, seeded).expect("bind seeded"));

    // A journal alone: a durable coordinator over an empty engine
    // journals the Hello's spec in its header and one frame per ingest.
    let journal_dir = scratch_dir("retired-journal");
    let server = bind(&journal_dir, fresh()).expect("bind durable coordinator");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(1));
        let _guard = ShutdownOnPanic::new(&[&endpoint]);
        let mut client = Client::connect(&endpoint).expect("connect");
        client.hello(&spec).expect("hello");
        for r in &rs {
            client.ingest(r).expect("ingest");
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("joined");
    });
    assert!(!journal_dir.join("snapshot.bin").exists());

    let files = |dir: &PathBuf| -> Vec<Option<Vec<u8>>> {
        ["snapshot.bin", "journal.log"]
            .iter()
            .map(|f| std::fs::read(dir.join(f)).ok())
            .collect()
    };
    // DPSS: magic 4 | version 1 | spec flag 1 | len u32 | JSON | ... |
    // FNV-1a-64 trailer over everything before it. DPJL header: magic
    // 4 | version 1 | base u64 | spec flag 1 | len u32 | JSON | FNV-1a-64
    // of the header so far; then the records.
    let cases = [
        (&snap_dir, "snapshot.bin", 6, true),
        (&journal_dir, "journal.log", 14, false),
    ];
    for (dir, file, len_at, trailer) in cases {
        let stamp = |kernels: (&str, &str)| {
            let path = dir.join(file);
            let bytes = std::fs::read(&path).expect(file);
            let sum_at = |end: usize, len: usize| if trailer { len - 8 } else { end };
            std::fs::write(&path, restamp_kernel(&bytes, len_at, kernels, sum_at)).expect(file);
        };
        stamp(("v1-scalar", "v2-simd"));
        let stamped = files(dir);
        let err = match bind(dir, fresh()) {
            Err(e) => e,
            Ok(_) => panic!("{}: a v2-simd data dir was recovered", dir.display()),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let typed = err.get_ref().and_then(|e| e.downcast_ref::<CoreError>());
        assert_eq!(
            typed,
            Some(&CoreError::UnknownKernel("v2-simd".to_string())),
            "{err}"
        );
        assert_eq!(
            files(dir),
            stamped,
            "{}: a file was rewritten",
            dir.display()
        );

        // The control: restamped back to v1-scalar, the directory
        // recovers.
        stamp(("v2-simd", "v1-scalar"));
        let server = bind(dir, fresh()).expect("a v1-scalar data dir recovers");
        let stats = server.coordinator_stats().expect("coordinator role");
        assert_eq!(stats.recoveries, 1, "{}", dir.display());
    }
    let _ = std::fs::remove_file(&socket);
    for dir in [&snap_dir, &journal_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Send one request on a raw connection and decode the next frame.
fn exchange(conn: &mut Conn, request: &Request) -> Response {
    write_frame(conn, &encode_request(request).expect("encode")).expect("write");
    decode_response(&read_frame(conn).expect("read").expect("frame")).expect("decode")
}

/// A replica claiming more rows than the server holds has diverged
/// (the server restarted from an older image, say). In both roles the
/// fetch is refused with exactly one typed `ERR_PLAN` frame, never the
/// empty stream that would tell a standby it is synced, and the
/// connection keeps serving.
#[test]
fn a_replica_ahead_of_the_server_is_refused_in_both_roles() {
    let spec = spec(64);
    let rs = releases(&spec, 3);
    let n = rs.len() as u64;
    let data_dir = scratch_dir("ahead");
    for coordinator in [false, true] {
        let mut engine = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
        for r in &rs {
            engine.ingest(r).expect("ingest");
        }
        let socket = scratch_socket(if coordinator {
            "ahead-coord"
        } else {
            "ahead-plain"
        });
        let _ = std::fs::remove_file(&socket);
        let endpoint = Endpoint::Unix(socket.clone());
        let server = if coordinator {
            let config = CoordinatorConfig {
                tile: 4,
                compact_threshold: 0,
                data_dir: Some(data_dir.clone()),
            };
            Server::bind_coordinator_with(endpoint.clone(), engine, Vec::new(), config)
        } else {
            Server::bind(endpoint.clone(), engine)
        }
        .expect("bind");
        assert_eq!(server.coordinator_stats().is_some(), coordinator);
        let fetch = |have_rows| Request::FetchSnapshot {
            have_rows,
            part_len: 0,
        };
        // Shut the server down before asserting, so a wrong answer
        // fails the test instead of leaving the scope waiting on it.
        let (ahead, synced) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve(1));
            let _guard = ShutdownOnPanic::new(&[&endpoint]);
            let mut conn = connect(&endpoint).expect("connect");
            let replies = (
                exchange(&mut conn, &fetch(n + 1)),
                exchange(&mut conn, &fetch(n)),
            );
            write_frame(
                &mut conn,
                &encode_request(&Request::Shutdown).expect("encode"),
            )
            .expect("write");
            handle.join().expect("joined");
            replies
        });
        let _ = std::fs::remove_file(&socket);
        assert!(
            matches!(ahead, Response::Error { code: ERR_PLAN, .. }),
            "coordinator {coordinator}: expected ERR_PLAN, got {ahead:?}"
        );
        // The very next frame answers the next request: a synced
        // replica's empty stream, the summary alone.
        assert!(
            matches!(synced, Response::SnapshotSummary { rows, count: 0, .. } if rows == n),
            "coordinator {coordinator}: expected an empty stream, got {synced:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&data_dir);
}
