//! `durable_shard`: ingest through a durable sharding coordinator, as a
//! closed loop on one TCP connection.
//!
//! Each pass starts two worker processes on unix sockets and a
//! coordinator over them with `--data-dir` (a fresh scratch directory)
//! and `--compact-threshold 256`. The loop ingests 1,024 pre-sketched
//! releases and sends a sharded `Pairwise([])` after every 128. Only
//! this workload exercises the journal, compaction, the mutation
//! broadcast, tile streaming and the gather; the local engine stays
//! small. Passes run until the time budget is spent.

use crate::inputs::{Corpus, Ctx};
use crate::procs::{connect, matrix, Call, Conn, Fleet, Matrix};
use crate::replay::{full_request_encode, ingest_layers, pairwise_reply, Mirror};
use crate::report::PassResult;
use crate::trace::{timed, Layers, Trace};
use crate::util::{digest, median, micros, millis, quantile, Ops};
use dp_core::TilePlan;
use dp_engine::{Gather, QueryEngine};
use std::path::Path;
use std::time::{Duration, Instant};

const INGESTS: usize = 1024;
const QUERY_EVERY: usize = 128;
const COMPACT_THRESHOLD: usize = 256;
const WORKERS: usize = 2;
/// The coordinator's shard tile: the shipped default.
const SHARD_TILE: usize = dp_parallel::DEFAULT_TILE;
/// At least this many set-ups per pass feed `setup_s`.
const MIN_SETUPS: usize = 5;

pub struct Inputs {
    corpus: Corpus,
}

pub fn inputs(seed: u64) -> Inputs {
    Inputs {
        corpus: Corpus::new(seed, INGESTS, INGESTS),
    }
}

/// Bytes written under the data directory, inferred from file sizes
/// after every ingest: journal growth is appended bytes, a shrunken
/// journal was rewritten whole, and a changed snapshot is a compaction
/// that wrote the whole image.
#[derive(Default)]
struct DiskWrites {
    journal: u64,
    snapshot: u64,
    written: u64,
    compactions: u32,
}

impl DiskWrites {
    fn observe(&mut self, data: &Path) {
        let size = |name: &str| std::fs::metadata(data.join(name)).map_or(0, |m| m.len());
        let (journal, snapshot) = (size("journal.log"), size("snapshot.bin"));
        self.written += if journal >= self.journal {
            journal - self.journal
        } else {
            journal
        };
        if snapshot != self.snapshot {
            self.written += snapshot;
            self.compactions += 1;
        }
        self.journal = journal;
        self.snapshot = snapshot;
    }
}

struct Pass {
    setup: f64,
    rss: f64,
    ingests: Vec<Call<(u64, u64)>>,
    queries: Vec<Call<Matrix>>,
    disk: Option<DiskWrites>,
    ops: Ops,
}

/// Set-up: two workers, then the durable coordinator over them (started
/// only once both listen, so its first connect succeeds), then `Hello`.
fn start(ctx: &Ctx, inp: &Inputs, index: usize) -> Result<(Fleet, Conn, Duration), String> {
    let started = Instant::now();
    let mut fleet = Fleet::new(
        &ctx.server_bin,
        ctx.dir(&format!("durable{index}")),
        &inp.corpus.spec,
    )?;
    let spec = fleet.spec_path().display().to_string();
    let common = |listen: String| {
        vec![
            "--listen".to_string(),
            listen,
            "--spec".into(),
            spec.clone(),
            "--workers".into(),
            ctx.workers.to_string(),
            "--serve-mode".into(),
            ctx.serve_mode.clone(),
        ]
    };
    let mut coordinator = common("tcp:127.0.0.1:0".into());
    for w in 0..WORKERS {
        let socket = format!("unix:{}", fleet.path(&format!("w{w}.sock")).display());
        fleet.spawn(&common(socket.clone()))?;
        coordinator.extend(["--worker".to_string(), socket]);
    }
    coordinator.extend([
        "--data-dir".to_string(),
        fleet.path("data").display().to_string(),
        "--compact-threshold".into(),
        COMPACT_THRESHOLD.to_string(),
    ]);
    let endpoint = fleet.spawn(&coordinator)?;
    let mut client = connect(&endpoint)?;
    client
        .hello(&inp.corpus.spec)
        .map_err(|e| format!("hello: {e}"))?;
    Ok((fleet, Conn::new(endpoint, client), started.elapsed()))
}

fn run_pass(ctx: &Ctx, inp: &Inputs, index: usize, traced: bool) -> Result<Pass, String> {
    let (fleet, mut conn, took) = start(ctx, inp, index)?;
    let data = fleet.path("data");
    let mut disk = traced.then(DiskWrites::default);
    if let Some(d) = disk.as_mut() {
        d.observe(&data);
    }
    let mut ops = Ops::default();
    let mut ingests = Vec::with_capacity(INGESTS);
    let mut queries = Vec::with_capacity(INGESTS / QUERY_EVERY);
    for (i, release) in inp.corpus.releases.iter().enumerate() {
        ingests.push(Call::run(
            &mut conn,
            &mut ops,
            "ingest",
            |c| c.ingest(release),
            |a| a,
        ));
        if let Some(d) = disk.as_mut() {
            d.observe(&data);
        }
        if (i + 1) % QUERY_EVERY == 0 {
            queries.push(Call::run(
                &mut conn,
                &mut ops,
                "sharded_matrix",
                |c| c.pairwise(&[]),
                matrix,
            ));
        }
    }
    let rss = fleet.rss_peak_mb();
    conn.shutdown(fleet);
    Ok(Pass {
        setup: took.as_secs_f64(),
        rss,
        ingests,
        queries,
        disk,
        ops,
    })
}

pub fn pass(ctx: &Ctx, inp: &Inputs, traced: bool) -> Result<PassResult, String> {
    let mut out = PassResult::default();
    let passes = ctx.repeat(|i| run_pass(ctx, inp, i, traced))?;
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup).collect();
    while setups.len() < MIN_SETUPS {
        let (fleet, conn, took) = start(ctx, inp, setups.len())?;
        setups.push(took.as_secs_f64());
        conn.shutdown(fleet);
    }
    for p in &passes {
        out.ops.merge(&p.ops);
    }
    let ingest_us: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ingests.iter())
        .filter(|c| c.reply.is_some())
        .map(|c| micros(c.took()))
        .collect();
    let query_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.queries.iter())
        .filter(|c| c.reply.is_some())
        .map(|c| millis(c.took()))
        .collect();
    if ingest_us.is_empty() || query_ms.is_empty() {
        return Err("no ingest or no sharded query succeeded".into());
    }
    out.e2e("setup_s", median(&setups));
    out.e2e(
        "server_rss_peak_mb",
        passes.iter().map(|p| p.rss).fold(0.0, f64::max),
    );
    out.e2e("ingest_p50_us", quantile(&ingest_us, 0.5));
    out.e2e("query_p50_ms", median(&query_ms));
    out.distribution("durable_ingest_us", &ingest_us);
    out.distribution("sharded_matrix_ms", &query_ms);
    out.detail("passes", passes.len() as f64);

    replay(inp, &passes, traced, &mut out);
    Ok(out)
}

/// Check every pass against the mirror and, with `traced`, time the
/// server-side layers: the ingest path on a `SharedEngine` mirror, and
/// each sharded query's gather (`execute_tile` on a snapshot plus
/// `Gather::seeded`/`accept`/`finish`, as the coordinator runs it).
fn replay(inp: &Inputs, passes: &[Pass], traced: bool, out: &mut PassResult) {
    let corpus = &inp.corpus;
    let spec_store = || corpus.store(0);
    let mut reference = QueryEngine::new(spec_store());
    let mut expected = Vec::with_capacity(INGESTS / QUERY_EVERY);
    for (i, release) in corpus.releases.iter().enumerate() {
        reference
            .ingest_bytes(&release.to_bytes().expect("encode"))
            .expect("reference ingest");
        if (i + 1) % QUERY_EVERY == 0 {
            let m = reference.pairwise_all();
            expected.push((reference.store().party_ids().to_vec(), digest(m.as_flat())));
        }
    }
    for (p, pass) in passes.iter().enumerate() {
        for (i, call) in pass.ingests.iter().enumerate() {
            let row = i as u64;
            if matches!(call.reply, Some(ack) if ack != (row, row + 1)) {
                out.mismatch(format!("pass {p}: ingest {i} acked as {:?}", call.reply));
            }
        }
        for (q, call) in pass.queries.iter().enumerate() {
            if matches!(&call.reply, Some(got) if *got != expected[q]) {
                out.mismatch(format!(
                    "pass {p}: sharded matrix {q} differs from the mirror"
                ));
            }
        }
    }
    if !traced {
        return;
    }

    let mirror = Mirror::new(spec_store());
    let full_enc = full_request_encode();
    let mut ingest_layers_of = Vec::with_capacity(INGESTS);
    let mut query_layers = Vec::new();
    let (mut frontier, mut pairs, mut ns_per_pair, mut reply_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut gathered: Option<(usize, Vec<f64>)> = None;
    for (i, release) in corpus.releases.iter().enumerate() {
        ingest_layers_of.push(ingest_layers(&mirror, release));
        if (i + 1) % QUERY_EVERY != 0 {
            continue;
        }
        let snap = mirror.shared.snapshot();
        let n = snap.n();
        let plan = TilePlan::new(n, SHARD_TILE);
        let mut kernel = Duration::ZERO;
        let mut tiles = 0usize;
        let (values, gather_time) = timed(|| {
            let mut gather = match &gathered {
                Some((rows, values)) => Gather::seeded(plan, *rows, values),
                None => Gather::new(plan),
            };
            let ids = gather.missing_ids();
            tiles = ids.len();
            for id in ids {
                let (segments, took) = timed(|| snap.execute_tile(&plan, id));
                kernel += took;
                for segment in &segments {
                    gather
                        .accept(segment)
                        .expect("mirror segment fits its plan");
                }
            }
            gather.finish().expect("every tile gathered").into_flat()
        });
        let tile_pairs: usize = if gathered.is_some() {
            let old = n - QUERY_EVERY;
            plan.tiles_touching_rows(old..n)
                .iter()
                .filter_map(|&id| plan.tile_at(id))
                .map(|t| t.pair_count())
                .sum()
        } else {
            plan.pair_count()
        };
        if digest(&values) != expected[query_layers.len()].1 {
            out.mismatch(format!(
                "gather replay at {n} rows differs from pairwise_all"
            ));
        }
        frontier.push(tiles as f64);
        pairs.push(tile_pairs as f64);
        ns_per_pair.push(kernel.as_nanos() as f64 / tile_pairs as f64);
        let mut layers = Layers::default();
        layers.add("protocol.encode", full_enc);
        layers.add("engine.query", gather_time);
        let (bytes, dec) = pairwise_reply(snap.store().party_ids().to_vec(), values.clone());
        reply_bytes.push(bytes as f64);
        layers.add("protocol.decode.query", dec);
        query_layers.push(layers);
        gathered = Some((n, values));
    }

    let mut trace = Trace::new();
    let mut gaps = Vec::new();
    for (p, pass) in passes.iter().enumerate() {
        let mut last_end: Option<Instant> = None;
        let mut q = 0usize;
        for (i, call) in pass.ingests.iter().enumerate() {
            let op = (p * 10_000 + i) as u64;
            if let Some(end) = last_end {
                gaps.push(micros(call.start.saturating_duration_since(end)));
            }
            let rtt = trace.push("rtt.ingest", op, None, call.start, call.end);
            trace.attach(rtt, &ingest_layers_of[i]);
            last_end = Some(call.end);
            if (i + 1) % QUERY_EVERY == 0 {
                let call = &pass.queries[q];
                gaps.push(micros(
                    call.start.saturating_duration_since(last_end.expect("set")),
                ));
                let rtt = trace.push("rtt.query", op + 5_000, None, call.start, call.end);
                trace.attach(rtt, &query_layers[q]);
                last_end = Some(call.end);
                q += 1;
            }
        }
    }
    let disks: Vec<&DiskWrites> = passes.iter().filter_map(|p| p.disk.as_ref()).collect();
    let frame_bytes: Vec<f64> = corpus
        .releases
        .iter()
        .map(|r| r.to_bytes().expect("encode").len() as f64)
        .collect();
    let total_frames: f64 = frame_bytes.iter().sum();
    let write_amp: Vec<f64> = disks
        .iter()
        .map(|d| d.written as f64 / total_frames)
        .collect();
    let compactions: Vec<f64> = disks.iter().map(|d| f64::from(d.compactions)).collect();
    out.layer("sketcher.sketch_us", median(&corpus.sketch_us));
    out.layer("wire.release_bytes", median(&frame_bytes));
    out.layer(
        "engine.ingest_us",
        median(&trace.durations_us("engine.ingest")),
    );
    out.layer(
        "engine.publish_us",
        median(&trace.self_us("engine.publish")),
    );
    out.layer(
        "engine.query_us",
        median(&trace.durations_us("engine.query")),
    );
    // A grown store seeds each gather from the cached matrix: never a
    // full memo hit.
    out.layer("engine.memo_hit_ratio", 0.0);
    out.detail("memo_eligible_ops", (INGESTS / QUERY_EVERY) as f64);
    out.layer("kernel.pairs.query", median(&pairs));
    out.layer("kernel.ns_per_pair", median(&ns_per_pair));
    out.layer("parallel.frontier_tiles", median(&frontier));
    out.layer("protocol.reply_bytes.query", median(&reply_bytes));
    out.layer(
        "protocol.decode_us.query",
        median(&trace.durations_us("protocol.decode.query")),
    );
    out.layer(
        "transport.self_us.ingest",
        median(&trace.self_us("rtt.ingest")),
    );
    out.layer(
        "transport.self_us.query",
        median(&trace.self_us("rtt.query")),
    );
    out.layer("replication.write_amp", median(&write_amp));
    out.layer("replication.compactions", median(&compactions));
    out.layer("loadgen.late_p99_us", quantile(&gaps, 0.99));
    out.trace = Some(trace);
}
