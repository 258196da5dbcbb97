//! Multi-process chaos smoke: SIGKILL workers *and the coordinator*,
//! assert nothing ever answers wrong by a single bit.
//!
//! Drives real `dp-server` *processes* (path to the binary as the first
//! argument, serve mode — `threads` or `evloop` — as the optional
//! second) through the full fault-tolerance story:
//!
//! 1. two workers + a durable coordinator (`--data-dir`, compaction
//!    threshold 8) come up; releases are ingested and the sharded
//!    all-pairs answer is **bit-identical** to a local in-process
//!    engine;
//! 2. worker 1 is SIGKILLed; the next `Pairwise([])` discovers the
//!    death mid-query, re-dispatches the lost shard to the survivor,
//!    and still answers bit-identically;
//! 3. worker 1 is restarted (fresh, empty) on the same socket; after
//!    one more ingest the next query revives it — reconnect, `Hello`
//!    replay, and (because the journal compacted past its history) a
//!    **snapshot install + suffix replay** instead of full-history
//!    catch-up — and the restarted replica is asked directly to prove
//!    it now holds every row;
//! 4. the coordinator itself is SIGKILLed; a new coordinator on the
//!    same `--data-dir` recovers the store from the snapshot + journal
//!    files and answers the same matrix bit-identically;
//! 5. a `--standby` peer tails the recovered coordinator, the
//!    coordinator is SIGKILLed again, and the standby promotes itself:
//!    binds its own socket, reconnects the worker pool, and serves the
//!    same matrix bit-identically.
//!
//! ```text
//! cargo build --release -p dp-server
//! cargo run --release -p dp-server --example chaos_smoke -- \
//!     ./target/release/dp-server threads
//! ```

use dp_core::config::SketchConfig;
use dp_core::release::Release;
use dp_core::sketcher::{Construction, PrivateSketcher, SketcherSpec};
use dp_engine::{QueryEngine, SketchStore};
use dp_hashing::Seed;
use dp_server::{Client, Endpoint};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::Duration;

fn scratch_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dp-chaos-{tag}-{}.sock", std::process::id()))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dp-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spawn_worker(bin: &str, socket: &Path, mode: &str) -> Child {
    // Two accept loops: one for the coordinator's pooled connection,
    // one for this harness's direct verification probes.
    Command::new(bin)
        .args(["--listen", &format!("unix:{}", socket.display())])
        .args(["--workers", "2"])
        .args(["--serve-mode", mode])
        .spawn()
        .expect("spawn worker dp-server")
}

fn spawn_coordinator(
    bin: &str,
    socket: &Path,
    worker_sockets: &[&Path],
    mode: &str,
    data_dir: &Path,
) -> Child {
    let mut command = Command::new(bin);
    command
        .args(["--listen", &format!("unix:{}", socket.display())])
        .args(["--workers", "1"])
        .args(["--shard-tile", "4"])
        .args(["--worker-timeout", "2"])
        .args(["--serve-mode", mode])
        .args(["--data-dir", &data_dir.display().to_string()])
        .args(["--compact-threshold", "8"]);
    for socket in worker_sockets {
        command.args(["--worker", &format!("unix:{}", socket.display())]);
    }
    command.spawn().expect("spawn coordinator dp-server")
}

fn connect_retry(endpoint: &Endpoint, what: &str) -> Client {
    for attempt in 0..60 {
        match Client::connect(endpoint) {
            Ok(client) => return client,
            Err(e) if attempt == 59 => panic!("connect to {what}: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(250)),
        }
    }
    unreachable!()
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: shape differs");
    let mut identical = true;
    for (a, b) in got.iter().zip(want) {
        identical &= a.to_bits() == b.to_bits();
    }
    assert!(identical, "{what}: matrix differs from the local reference");
}

/// `Pairwise([])` with a few retries: a freshly recovered or promoted
/// coordinator may still be reconnecting its worker pool.
fn pairwise_retry(client: &mut Client, what: &str) -> Vec<f64> {
    let mut last = String::new();
    for _ in 0..20 {
        match client.pairwise(&[]) {
            Ok((_, values)) => return values,
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(250));
            }
        }
    }
    panic!("{what}: {last}");
}

fn main() {
    let bin = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "./target/release/dp-server".to_string());
    let mode = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "threads".to_string());

    let sock_w1 = scratch_socket("w1");
    let sock_w2 = scratch_socket("w2");
    let sock_coord = scratch_socket("coord");
    let sock_standby = scratch_socket("standby");
    for s in [&sock_w1, &sock_w2, &sock_coord, &sock_standby] {
        let _ = std::fs::remove_file(s);
    }
    let data_dir = scratch_dir("data");
    let standby_dir = scratch_dir("standby-data");

    let d = 160;
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(4242));
    let sketcher = spec.build().expect("sketcher");
    let rows: Vec<Vec<f64>> = (0..17)
        .map(|i| (0..d).map(|j| ((3 * i + j) % 13) as f64 - 6.0).collect())
        .collect();
    let releases: Vec<Release> = sketcher
        .sketch_batch(&rows, Seed::new(99))
        .expect("batch")
        .into_iter()
        .enumerate()
        .map(|(i, sketch)| Release {
            party_id: 700 + i as u64,
            sketch,
        })
        .collect();
    let (first, last) = releases.split_at(15);

    // Local references at every store size the phases query.
    let mut reference = QueryEngine::new(SketchStore::with_spec(spec.clone()).expect("store"));
    for r in first {
        reference.ingest(r).expect("ingest");
    }
    let local_15 = reference.pairwise_all().as_flat().to_vec();
    reference.ingest(&last[0]).expect("ingest");
    let local_16 = reference.pairwise_all().as_flat().to_vec();
    reference.ingest(&last[1]).expect("ingest");
    let local_17 = reference.pairwise_all().as_flat().to_vec();

    // Phase 0: two worker processes + a durable coordinator process.
    let mut w1 = spawn_worker(&bin, &sock_w1, &mode);
    let mut w2 = spawn_worker(&bin, &sock_w2, &mode);
    let mut coord = spawn_coordinator(&bin, &sock_coord, &[&sock_w1, &sock_w2], &mode, &data_dir);

    let coord_endpoint = Endpoint::Unix(sock_coord.clone());
    let mut client = connect_retry(&coord_endpoint, "coordinator");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let (_, rows_before, _) = client.hello(&spec).expect("hello");
    assert_eq!(rows_before, 0, "coordinator store not fresh");
    for r in first {
        client.ingest(r).expect("ingest");
    }
    let (_, values) = client.pairwise(&[]).expect("healthy pairwise");
    assert_bits(&values, &local_15, "healthy 2-worker query");
    println!("chaos_smoke: healthy 15x15 sharded matrix bit-identical");

    // Phase 1: SIGKILL worker 1, grow the store by one row (the ingest
    // is journaled; the broadcast discovers the death and poisons the
    // slot without failing the client), then query. The incremental
    // frontier execution finds one worker gone mid-query, revival fails
    // (nothing listens on its socket), and the lost shard is
    // re-dispatched to the survivor. The answer must not change by one
    // bit.
    w1.kill().expect("SIGKILL worker 1");
    w1.wait().expect("reap worker 1");
    client.ingest(&last[0]).expect("ingest with a dead worker");
    let (_, values) = client.pairwise(&[]).expect("re-dispatched pairwise");
    assert_bits(&values, &local_16, "re-dispatched query after SIGKILL");
    println!("chaos_smoke: re-dispatch answered 16x16 bit-identically with one worker dead");

    // Phase 2: restart worker 1 (fresh, empty store, same socket) and
    // wait until it listens; then one more ingest (the poisoned slot is
    // skipped) and the query that revives it. By now the journal has
    // compacted twice (threshold 8, 16 ingests), so revival is a
    // snapshot install to the compaction base plus a short suffix
    // replay — not full-history catch-up. Ask the restarted replica
    // directly to prove it holds every row.
    let _ = std::fs::remove_file(&sock_w1);
    let mut w1b = spawn_worker(&bin, &sock_w1, &mode);
    let probe = connect_retry(&Endpoint::Unix(sock_w1.clone()), "restarted worker 1");
    drop(probe); // frees the accept slot for the coordinator's revival
    client.ingest(&last[1]).expect("ingest before revival");
    let (_, values) = client.pairwise(&[]).expect("pairwise after restart");
    assert_bits(&values, &local_17, "query after restart + resync");
    let mut direct = connect_retry(&Endpoint::Unix(sock_w1.clone()), "restarted worker 1");
    let (rows, _, _, _) = direct.plan_pairwise(4).expect("plan on restarted worker");
    assert_eq!(rows, 17, "restarted worker never resynced");
    drop(direct);
    println!("chaos_smoke: restarted worker resynced to 17 rows via snapshot + journal suffix");

    // Phase 3: SIGKILL the coordinator itself. A new coordinator on the
    // same --data-dir must recover the store from the snapshot +
    // journal files at bind and answer the same matrix bit-identically.
    drop(client);
    coord.kill().expect("SIGKILL coordinator");
    coord.wait().expect("reap coordinator");
    let _ = std::fs::remove_file(&sock_coord);
    let mut coord2 = spawn_coordinator(&bin, &sock_coord, &[&sock_w1, &sock_w2], &mode, &data_dir);
    let mut client = connect_retry(&coord_endpoint, "recovered coordinator");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let values = pairwise_retry(&mut client, "pairwise after coordinator restart");
    assert_bits(
        &values,
        &local_17,
        "query after coordinator restart from disk",
    );
    println!("chaos_smoke: coordinator recovered 17 rows from disk, matrix bit-identical");

    // Phase 4: warm standby. A --standby peer tails the recovered
    // coordinator's replication log over the wire; when the coordinator
    // is SIGKILLed, the standby notices the silence, binds its own
    // socket, reconnects the worker pool, and answers the same matrix.
    // The phase-3 client hangs up first: in threads mode an idle
    // connection pins the coordinator's only serving thread (--workers
    // 1), and the standby's tail must be answered to catch up.
    drop(client);
    let mut standby = Command::new(&bin)
        .args(["--listen", &format!("unix:{}", sock_standby.display())])
        .args(["--standby", &format!("unix:{}", sock_coord.display())])
        .args(["--worker", &format!("unix:{}", sock_w1.display())])
        .args(["--worker", &format!("unix:{}", sock_w2.display())])
        .args(["--workers", "1"])
        .args(["--shard-tile", "4"])
        .args(["--worker-timeout", "2"])
        .args(["--serve-mode", &mode])
        .args(["--data-dir", &standby_dir.display().to_string()])
        .args(["--compact-threshold", "8"])
        .spawn()
        .expect("spawn standby dp-server");
    // Let the standby catch up on the full log before the murder.
    std::thread::sleep(Duration::from_secs(1));
    coord2.kill().expect("SIGKILL recovered coordinator");
    coord2.wait().expect("reap recovered coordinator");
    let mut client = connect_retry(&Endpoint::Unix(sock_standby.clone()), "promoted standby");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let values = pairwise_retry(&mut client, "pairwise after standby promotion");
    assert_bits(&values, &local_17, "query after standby takeover");
    println!("chaos_smoke: standby promoted itself and answered 17x17 bit-identically");

    client.shutdown().expect("shutdown");
    let standby_status = standby.wait().expect("standby exit");
    assert!(
        standby_status.success(),
        "promoted standby exited uncleanly"
    );
    w2.wait().expect("worker 2 exit");
    w1b.wait().expect("restarted worker 1 exit");
    for s in [&sock_w1, &sock_w2, &sock_coord, &sock_standby] {
        let _ = std::fs::remove_file(s);
    }
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
    println!("chaos_smoke: PASS ({mode} mode)");
}
