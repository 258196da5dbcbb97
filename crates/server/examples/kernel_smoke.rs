//! Multi-process kernel and spec smoke: the one kernel a `dp-server`
//! runs is `v1-scalar`, state naming the retired `v2-simd` is refused,
//! typed, and so is a spec whose identity refuses it — and a
//! coordinator over a worker that refuses its relayed `Hello` degrades
//! to typed errors instead of hanging.
//!
//! Drives real `dp-server` *processes* (path to the binary as the
//! first argument):
//!
//! 1. a `--spec` file naming `v2-simd` makes `dp-server` exit non-zero,
//!    naming the kernel on stderr, and a `--spec` file for
//!    `fjlt-output` without δ exits non-zero naming the missing δ;
//! 2. an empty `dp-server` answers a raw `Hello` with that `fjlt-output`
//!    spec with `ERR_SPEC` and adopts nothing;
//! 3. a worker preloaded via `--spec` with a `v1-scalar` spec answers a
//!    raw `v2-simd` `Hello` with `ERR_KERNEL` naming both kernels;
//! 4. a coordinator pooled over that worker adopts a *different* spec
//!    from its client, the worker refuses the relayed `Hello` (it
//!    serves another spec), poisoning its slot — the subsequent sharded
//!    query answers the typed `ERR_WORKER` within the read timeout,
//!    never a hang.
//!
//! ```text
//! cargo build --release -p dp-server
//! cargo run --release -p dp-server --example kernel_smoke -- \
//!     ./target/release/dp-server
//! ```

use dp_core::config::SketchConfig;
use dp_core::protocol::{Request, Response, ERR_KERNEL, ERR_SPEC, ERR_WORKER};
use dp_core::release::Release;
use dp_core::sketcher::{Construction, PrivateSketcher, SketcherSpec};
use dp_hashing::Seed;
use dp_server::{Client, ClientError, Endpoint};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn scratch_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dp-kernel-{tag}-{}.{ext}", std::process::id()))
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

fn main() {
    let bin = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "./target/release/dp-server".to_string());

    let sock_worker = scratch_path("worker", "sock");
    let sock_coord = scratch_path("coord", "sock");
    let sock_refused = scratch_path("refused", "sock");
    let sock_empty = scratch_path("empty", "sock");
    let spec_file = scratch_path("spec", "json");
    let spec_v2_file = scratch_path("spec-v2", "json");
    let spec_no_delta_file = scratch_path("spec-no-delta", "json");
    let scratch = [
        &sock_worker,
        &sock_coord,
        &sock_refused,
        &sock_empty,
        &spec_file,
        &spec_v2_file,
        &spec_no_delta_file,
    ];
    for s in scratch {
        let _ = std::fs::remove_file(s);
    }

    let d = 128;
    let config = SketchConfig::builder()
        .input_dim(d)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(2.0)
        .build()
        .expect("config");
    let served = SketcherSpec::new(Construction::SjltAuto, config.clone(), Seed::new(1717));
    let other = SketcherSpec::new(Construction::SjltAuto, config.clone(), Seed::new(1718));
    // Pure ε only, so the Gaussian FJLT's identity refuses it.
    let no_delta = SketcherSpec::new(Construction::FjltOutput, config, Seed::new(1719));
    let stamped = served.to_json().replace("v1-scalar", "v2-simd");
    std::fs::write(&spec_file, served.to_json()).expect("write spec file");
    std::fs::write(&spec_v2_file, &stamped).expect("write v2 spec file");
    std::fs::write(&spec_no_delta_file, no_delta.to_json()).expect("write no-delta spec file");

    // Check 1: a v2-simd spec file and an fjlt-output spec file without
    // δ are refused at start-up, non-zero, with the refusal named.
    for (file, named) in [(&spec_v2_file, "v2-simd"), (&spec_no_delta_file, "delta")] {
        let refused = Command::new(&bin)
            .args(["--listen", &format!("unix:{}", sock_refused.display())])
            .args(["--spec", &file.display().to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .expect("run dp-server with a refused spec");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(
            !refused.status.success(),
            "a refused spec was served: {stderr}"
        );
        assert!(stderr.contains(named), "refusal unnamed: {stderr}");
    }
    println!(
        "kernel_smoke: --spec naming v2-simd or fjlt-output without delta refused at start-up"
    );

    // Check 2: an empty server answers a raw Hello with the fjlt-output
    // spec without δ with ERR_SPEC, and adopts nothing.
    let mut empty = Command::new(&bin)
        .args(["--listen", &format!("unix:{}", sock_empty.display())])
        .args(["--workers", "1"])
        .spawn()
        .expect("spawn empty dp-server");
    let mut probe = connect_retry(&Endpoint::Unix(sock_empty.clone()), "empty server");
    probe
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let hello = Request::Hello {
        spec_json: no_delta.to_json(),
        caps: 0,
    };
    match probe.call(&hello).expect("hello exchange") {
        Response::Error { code, message } => {
            assert_eq!(code, ERR_SPEC, "wrong error code: {message}");
            assert!(message.contains("delta"), "refusal unnamed: {message}");
        }
        other => panic!("expected ERR_SPEC, got {other:?}"),
    }
    let (_, rows, _) = probe.hello(&served).expect("hello after the refusal");
    assert_eq!(rows, 0, "empty store not fresh");
    probe.shutdown().expect("shutdown empty server");
    assert!(empty.wait().expect("empty server exit").success());
    println!("kernel_smoke: raw fjlt-output hello without delta refused with ERR_SPEC");

    // Check 3: a worker preloaded with the v1-scalar spec answers a raw
    // v2-simd Hello with the dedicated code naming both kernels, then
    // accepts its own spec. Two accept loops: one for the coordinator's
    // pooled connection, one for this harness's direct probes.
    let mut worker = Command::new(&bin)
        .args(["--listen", &format!("unix:{}", sock_worker.display())])
        .args(["--spec", &spec_file.display().to_string()])
        .args(["--workers", "2"])
        .spawn()
        .expect("spawn worker dp-server");
    let worker_endpoint = Endpoint::Unix(sock_worker.clone());
    let mut probe = connect_retry(&worker_endpoint, "worker");
    probe
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let hello = Request::Hello {
        spec_json: stamped,
        caps: 0,
    };
    match probe.call(&hello).expect("hello exchange") {
        Response::Error { code, message } => {
            assert_eq!(code, ERR_KERNEL, "wrong error code: {message}");
            assert!(
                message.contains("v2-simd"),
                "proposed kernel unnamed: {message}"
            );
            assert!(
                message.contains("v1-scalar"),
                "served kernel unnamed: {message}"
            );
        }
        other => panic!("expected ERR_KERNEL, got {other:?}"),
    }
    let (_, rows, _) = probe.hello(&served).expect("matching hello");
    assert_eq!(rows, 0, "worker store not fresh");
    drop(probe); // frees the accept slot for the coordinator's pool
    println!("kernel_smoke: raw v2-simd hello refused with ERR_KERNEL");

    // Check 4: a coordinator over that worker, spoken to with another
    // spec. The local Hello adopts it; the relay to the worker is
    // refused, poisoning the only slot. The sharded query must then
    // fail *typed* — ERR_WORKER, not a hang.
    let mut coord = Command::new(&bin)
        .args(["--listen", &format!("unix:{}", sock_coord.display())])
        .args(["--worker", &format!("unix:{}", sock_worker.display())])
        .args(["--workers", "1"])
        .args(["--shard-tile", "4"])
        .args(["--worker-timeout", "2"])
        .spawn()
        .expect("spawn coordinator dp-server");

    let mut client = connect_retry(&Endpoint::Unix(sock_coord.clone()), "coordinator");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let (_, rows, _) = client.hello(&other).expect("coordinator hello");
    assert_eq!(rows, 0, "coordinator store not fresh");

    let rows_data: Vec<Vec<f64>> = (0..6)
        .map(|i| (0..d).map(|j| ((2 * i + j) % 7) as f64 - 3.0).collect())
        .collect();
    let sketcher = other.build().expect("sketcher");
    for (i, sketch) in sketcher
        .sketch_batch(&rows_data, Seed::new(5))
        .expect("batch")
        .into_iter()
        .enumerate()
    {
        let release = Release {
            party_id: i as u64,
            sketch,
        };
        client
            .ingest(&release)
            .expect("ingest past a poisoned slot");
    }

    let started = Instant::now();
    match client.pairwise(&[]) {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ERR_WORKER, "wrong error code: {message}");
        }
        other => panic!("expected ERR_WORKER, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "query over the refusing worker was not bounded: {:?}",
        started.elapsed()
    );
    println!("kernel_smoke: sharded query over the refusing worker failed typed, no hang");

    client.shutdown().expect("shutdown coordinator");
    let coord_status = coord.wait().expect("coordinator exit");
    assert!(coord_status.success(), "coordinator exited uncleanly");
    let direct = connect_retry(&worker_endpoint, "worker for shutdown");
    direct.shutdown().expect("shutdown worker");
    worker.wait().expect("worker exit");
    for s in scratch {
        let _ = std::fs::remove_file(s);
    }
    println!("kernel_smoke: PASS");
}
