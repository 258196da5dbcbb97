//! # e2ebench — the benchmark of record
//!
//! Drives real `dp-server` processes, started from the release binary
//! with the shipped defaults (threads serve mode, `--workers` = CPU
//! count, the V1 scalar kernel, no `DP_*` tuning variables), and checks
//! every reply. One load-generator process uses at most two threads and
//! two client connections. Every input — vectors, releases, party and
//! subset choices — derives from `--seed`. The spec is `SjltAuto` with
//! d = 256, α = 0.3, β = 0.1, ε = 1, so k = 208.
//!
//! ```text
//! bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bash e2ebench/run.sh --self-test        # analyst_matrix against --serve-mode evloop
//! ```
//!
//! `run.sh` builds `dp-server` and this program from source (into
//! `$CARGO_TARGET_DIR`, default `.bench_build`), unsets `DP_THREADS`,
//! `DP_TILE` and `DP_KERNEL`, and runs the benchmark. The last stdout line
//! is the result: `{"correct", "attempted", "failed", "metrics"}`. Lines
//! before it starting with `#` carry the run header (host, CPU count,
//! SIMD backend, kernel, serve mode, git revision, seed, flush policy),
//! per-kind operation counts (attempted, succeeded, failed by cause)
//! and workload-specific figures. Scratch files live in `.bench_tmp`
//! and are removed on every exit path; traced runs write their spans to
//! `.bench_out/trace-<workload>-seed<n>.jsonl`.
//!
//! ## Workloads and why each exists
//!
//! | workload | loop | exercises | expected to move under |
//! |---|---|---|---|
//! | `online_point` | open, fixed schedule, 2 connections | live client sketching; writes beside lock-free reads on a 4,096 → 6,144-row store | the store clone on every ingest publish (`snapshot.rs`) |
//! | `analyst_matrix` | closed, 1 connection | kernel, tile pool, memo, 32 MiB replies | the `TopPairs` full sort; the 32 MiB matrix reply through one transport |
//! | `durable_shard` | closed, 1 connection to a coordinator + 2 workers | journal, compaction, broadcast, tile streaming, gather | fsync and group commit (today: write + flush, no fsync) |
//!
//! The module docs of [`online`], [`analyst`] and [`durable`] give the
//! exact operation mix.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! Every workload reports the same four names; each fills them from
//! its own operations:
//!
//! | metric | `online_point` | `analyst_matrix` | `durable_shard` |
//! |---|---|---|---|
//! | `setup_s` | spawn + `Hello` + 4,096-row install, median of 5 | spawn + `Hello` + 1,536-row install, median over repetitions (≥ 5) | spawn 2 workers + coordinator + `Hello`, median over passes (≥ 5) |
//! | `server_rss_peak_mb` | `VmHWM` of the server | mean over repetitions (one repetition's peak lands on one of a few levels between about 135 and 195 MiB, with where the allocator places the 32 MiB buffers) | sum over the 3 processes, highest over passes |
//! | `ingest_p50_us` | submit: sketch + encode + ack, from the due time | ingest round trip | durable ingest round trip |
//! | `query_p50_ms` | `knn(10)` from the due time | one round's reads: grown matrix + `TopPairs(100)` + 8 subsets (rounds whose reads all succeeded) | sharded full matrix |
//!
//! The `# detail` line adds the per-operation figures
//! (`matrix_cold_p50_ms`, `top_pairs_p50_ms`, `subset_p50_ms`,
//! `ingest_rows_per_s`, the calibration ratio, …) and every latency's
//! p75/p90/p95/p99 and mean (`submit_us_p99`, `knn_us_p99`, …).
//!
//! ## Correctness gate
//!
//! A run prints `"correct": false` and no numbers when any reply
//! disagrees with an in-process mirror that applied the same ingests in
//! the same order: every acked row must equal its position in the
//! ingest order; every knn reply (ids and distance bits) must equal the
//! mirror's `knn` over a store the server could have answered from, one
//! with every submit acked before the query and at most those acked by
//! its reply plus the one in flight; every full, grown, sharded and
//! subset matrix and every top-pairs list must be bit-identical to the
//! mirror's. The
//! realized MSE of `analyst_matrix`'s final matrix against the true
//! distances, over the sketcher's `predicted_variance`, must stay in
//! [`analyst::CALIBRATION_BAND`]: less noise than the paper calibrates
//! is a privacy bug, not a speed-up. The cold matrix must be a memo miss
//! and every read labelled warm a memo hit. Typed errors (`ERR_BUSY`
//! included), timeouts and disconnects are counted as failed operations
//! of their kind; nothing is retried.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! A traced run first makes an untraced pass, then a traced one; the
//! `trace.overhead_*_pct` metrics are the difference of their
//! `ingest_p50_us` and `query_p50_ms`. Live spans time the benchmark's
//! own calls (sketch, round trips, schedule lateness). Server layers
//! are attributed by replay: after the timed phase an in-process
//! `SharedEngine` mirror applies the same ingests in the same order and
//! re-runs each logged operation through the public calls the server
//! makes, so replay never disturbs the open-loop schedule. A layer's
//! self time is its span minus its children.
//!
//! | layer metric | should move | on |
//! |---|---|---|
//! | `sketcher.sketch_us` (`AnySketcher::sketch`) | `ingest_p50_us` | online_point (live; the others sketch before timing) |
//! | `wire.release_bytes` | `ingest_p50_us` | all three |
//! | `engine.ingest_us` (`QueryEngine::ingest_bytes`) | `ingest_p50_us` | online_point, analyst_matrix |
//! | `engine.publish_us` (`SharedEngine::mutate` self time) | `ingest_p50_us` (tails in `# detail`) | online_point / durable_shard |
//! | `engine.query_us`: knn / grown-matrix fill / gather (`execute_tile` + `Gather`) | `query_p50_ms` | online_point / analyst_matrix / durable_shard |
//! | `engine.memo_hit_ratio` (base in `# detail`) | `query_p50_ms` | analyst_matrix |
//! | `kernel.pairs.query`, `kernel.ns_per_pair` (analyst: the cold matrix) | `query_p50_ms`, `matrix_cold_p50_ms` | all three |
//! | `parallel.frontier_tiles` (`TilePlan::tiles_touching_rows`) | `query_p50_ms` | analyst_matrix, durable_shard |
//! | `protocol.reply_bytes.query`, `protocol.decode_us.query` | `query_p50_ms` | analyst_matrix |
//! | `transport.self_us.ingest` / `.query` (round trip − replayed server layers − client codec: dp-net + dispatch; on durable_shard the coordinator's fan-out) | `ingest_p50_us` / `query_p50_ms` | all three |
//! | `replication.write_amp` (bytes written under the data dir ÷ ingest frame bytes), `replication.compactions` | `durable_ingest_us_p95` (detail) | durable_shard |
//! | `loadgen.late_p99_us` (open loop: send − due; closed loop: gap between reply and next send) | validity of the loop | all three |
//!
//! Layers a workload never exercises report 0 (only counts and ratios);
//! `# detail` adds `engine.top_pairs_us`, `engine.subset_us` and the
//! cold kernel time for analyst_matrix.

mod analyst;
mod durable;
mod inputs;
mod online;
mod procs;
mod replay;
mod report;
mod trace;
mod util;

use inputs::Ctx;
use report::{metrics_json, PassResult, E2E, LAYERS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use util::JsonObj;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::new(),
        self_test: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).cloned();
        let need = |v: Option<String>| v.ok_or_else(|| format!("{} needs a value", argv[i]));
        match argv[i].as_str() {
            "--workload" => args.workload = need(value)?,
            "--seed" => args.seed = need(value)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = need(value)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = need(value)? == "1",
            "--server-bin" => args.server_bin = PathBuf::from(need(value)?),
            "--self-test" => {
                args.self_test = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    if !args.server_bin.is_file() {
        return Err(format!(
            "no dp-server binary at '{}'",
            args.server_bin.display()
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Run one workload; a traced run makes an untraced pass first so the
/// tracing overhead can be reported.
fn run_workload(ctx: &Ctx, workload: &str, traced: bool) -> Result<PassResult, String> {
    let run = |pass: &dyn Fn(bool) -> Result<PassResult, String>| -> Result<PassResult, String> {
        if !traced {
            return pass(false);
        }
        let plain = pass(false)?;
        let mut out = pass(true)?;
        for (layer, metric) in [
            ("trace.overhead_ingest_pct", "ingest_p50_us"),
            ("trace.overhead_query_pct", "query_p50_ms"),
        ] {
            let (a, b) = (plain.e2e_value(metric), out.e2e_value(metric));
            let pct = match (a, b) {
                (Some(a), Some(b)) => 100.0 * (b / a - 1.0),
                _ => f64::NAN,
            };
            out.layer(layer, pct);
        }
        out.ops.merge(&plain.ops);
        out.mismatches.extend(plain.mismatches);
        Ok(out)
    };
    match workload {
        "online_point" => {
            let inp = online::inputs(ctx.seed);
            run(&|t| online::pass(ctx, &inp, t))
        }
        "analyst_matrix" => {
            let inp = analyst::inputs(ctx.seed);
            run(&|t| analyst::pass(ctx, &inp, t))
        }
        "durable_shard" => {
            let inp = durable::inputs(ctx.seed);
            run(&|t| durable::pass(ctx, &inp, t))
        }
        other => Err(format!(
            "unknown workload '{other}' (online_point, analyst_matrix, durable_shard)"
        )),
    }
}

/// The git revision of the checkout, read from `.git` without running
/// git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn header(ctx: &Ctx, args: &Args) -> String {
    let mut h = JsonObj::new();
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    h.str("host", host.trim());
    h.int("nproc", ctx.workers as u64);
    h.str("simd_backend", dp_core::kernel::v2_backend());
    h.str("kernel", dp_core::KernelId::V1Scalar.name());
    h.str("serve_mode", &ctx.serve_mode);
    h.int("server_workers", ctx.workers as u64);
    h.str("git_rev", &git_rev());
    h.str("workload", &args.workload);
    h.int("seed", args.seed);
    h.num("seconds", args.seconds);
    h.bool("trace", args.trace);
    h.str("flush_policy", "journal write + flush, no fsync");
    h.finish()
}

/// Removes the run's scratch root on every exit path, panics included.
struct ScratchRoot(PathBuf);

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    // Before anything reads the environment: the engine caches its
    // tuning knobs on first use, and children inherit what is left.
    for var in procs::TUNING_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = ScratchRoot(Path::new(".bench_tmp").join(format!("run-{}", std::process::id())));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        server_bin: args.server_bin.clone(),
        serve_mode: if args.self_test { "evloop" } else { "threads" }.into(),
        workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        tmp: scratch.0.clone(),
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if args.self_test {
            self_test(&ctx)
        } else {
            report(&ctx, &args)
        }
    }));
    drop(scratch);
    match outcome {
        Ok(code) => code,
        Err(_) => {
            eprintln!("e2ebench: panicked; every server was stopped");
            ExitCode::from(3)
        }
    }
}

fn report(ctx: &Ctx, args: &Args) -> ExitCode {
    println!("# header {}", header(ctx, args));
    let out = match run_workload(ctx, &args.workload, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# ops {}", out.ops.to_json());
    println!("# detail {}", out.detail_json());
    if let Some(trace) = &out.trace {
        let path = PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match trace.write(&path) {
            Ok(()) => println!("# trace {}", path.display()),
            Err(e) => eprintln!("e2ebench: writing {}: {e}", path.display()),
        }
    }
    let mut result = JsonObj::new();
    let correct = out.mismatches.is_empty();
    for m in &out.mismatches {
        eprintln!("e2ebench: MISMATCH {m}");
    }
    let metrics = match (correct, args.trace) {
        (false, _) => Ok("{}".to_string()),
        (true, false) => metrics_json(&E2E, &out.e2e),
        (true, true) => metrics_json(&LAYERS, &out.layers),
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    result.bool("correct", correct);
    result.int("attempted", out.ops.attempted());
    result.int("failed", out.ops.failed());
    result.raw("metrics", &metrics);
    println!("{}", result.finish());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `analyst_matrix` against `--serve-mode evloop`: the reactor refuses
/// any reply over its 8 MiB write budget with `ERR_BUSY`, so every
/// full-matrix operation must be counted as failed — and nothing else.
fn self_test(ctx: &Ctx) -> ExitCode {
    let ctx = Ctx {
        seconds: 1.0,
        ..ctx.clone()
    };
    let inp = analyst::inputs(ctx.seed);
    let out = match analyst::pass(&ctx, &inp, false) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench self-test: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("# ops {}", out.ops.to_json());
    let kinds = &out.ops.0;
    let full = ["matrix_cold", "matrix_grow"];
    let all_busy = full.iter().all(|k| {
        kinds.get(k).is_some_and(|c| {
            c.attempted > 0
                && c.failed == c.attempted
                && c.causes.keys().all(|cause| cause == "err_busy")
        })
    });
    let others_clean = kinds
        .iter()
        .filter(|(k, _)| !full.contains(k))
        .all(|(_, c)| c.failed == 0);
    let pass = all_busy && others_clean && out.mismatches.is_empty();
    for m in &out.mismatches {
        eprintln!("e2ebench self-test: MISMATCH {m}");
    }
    println!(
        "self-test {}: full-matrix ops counted failed with ERR_BUSY under evloop: {all_busy}; \
         other ops clean: {others_clean}",
        if pass { "PASS" } else { "FAIL" }
    );
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
