//! `online_point`: parties submitting live sketches beside analysts'
//! point queries, as an open loop on a fixed arrival schedule.
//!
//! Two TCP connections to one server. Connection A is the parties:
//! each submit sketches a fresh vector with `AnySketcher::sketch` and
//! calls `Client::ingest`, growing the store from 4,096 rows (preloaded)
//! towards 6,144. Connection B is the analysts: `knn(k = 10)` on seeded
//! random preloaded parties. Latency counts from each operation's due
//! time, so a stall also charges the operations queued behind it.
//!
//! The arrival rates are fixed and do not depend on `--seconds`: 70
//! submits/s and 50 knn/s. They are chosen for a steady submit median,
//! not taken from measured traffic; no traffic figures exist for this
//! system. At in-process costs on a 4,096-row store (publish + ingest
//! about 0.95 ms, knn about 1.0 ms) they offer roughly 7% and 5% of one
//! core, a light load well short of saturation. At 70/s the 2,048
//! submits take 29.3 s; a shorter `--seconds` ends the schedule early
//! (the store grows less), a longer one does not extend it.
//!
//! Past about 8 MiB of sketch values (about 5,040 rows) the server's
//! ingest round trip steps from about 2 ms to about 6 ms while the
//! in-process publish barely moves. The submit median sits only a few
//! percent of the submits above that step, so a run in which the step
//! comes late reads about half as high.

use crate::inputs::{start_plain, Corpus, Ctx, Started};
use crate::procs::{connect, Conn};
use crate::replay::{ingest_layers, Mirror};
use crate::report::PassResult;
use crate::trace::{timed, Layers, Trace};
use crate::util::{median, micros, quantile, wait_until, Ops};
use dp_core::protocol::{decode_response, encode_request, encode_response, Request, Response};
use dp_core::release::Release;
use dp_engine::QueryEngine;
use dp_hashing::{Prng, Seed};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const PRELOAD: usize = 4096;
const GROW: usize = 2048;
const SUBMIT_PER_S: f64 = 70.0;
const KNN_PER_S: f64 = 50.0;
const KNN_K: u32 = 10;
/// Set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Inputs {
    corpus: Corpus,
    image: Vec<u8>,
}

pub fn inputs(seed: u64) -> Inputs {
    let corpus = Corpus::new(seed, PRELOAD + GROW, PRELOAD);
    let image = corpus.preload_image(PRELOAD);
    Inputs { corpus, image }
}

struct Submit {
    due: Instant,
    sent: Instant,
    /// Sketch done; the ingest round trip starts here.
    sketched: Instant,
    done: Instant,
    release: Release,
    ack: Option<(u64, u64)>,
}

struct KnnOp {
    due: Instant,
    sent: Instant,
    done: Instant,
    /// Submits acknowledged when this query was sent: where the replay
    /// places it in the ingest order.
    acked_before: usize,
    /// Submits acknowledged once the reply was in. The server answered
    /// from a store holding between `acked_before` and `acked_after + 1`
    /// of them: at most one submit is in flight at a time.
    acked_after: usize,
    party: u64,
    reply: Option<Vec<(u64, f64)>>,
}

pub fn pass(ctx: &Ctx, inp: &Inputs, traced: bool) -> Result<PassResult, String> {
    let corpus = &inp.corpus;
    let mut out = PassResult::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 1..SETUPS {
        let s = start_plain(
            ctx,
            &format!("online-setup{i}"),
            corpus,
            &inp.image,
            PRELOAD,
        )?;
        setups.push(s.took.as_secs_f64());
        s.fleet.shutdown(s.client);
    }
    let Started {
        fleet,
        client,
        endpoint,
        took,
    } = start_plain(ctx, "online", corpus, &inp.image, PRELOAD)?;
    setups.push(took.as_secs_f64());
    let conn_a = Conn::new(endpoint.clone(), client);
    let conn_b = Conn::new(endpoint.clone(), connect(&endpoint)?);

    let span = ctx.seconds.min(GROW as f64 / SUBMIT_PER_S);
    let submit_count = ((span * SUBMIT_PER_S) as usize).max(1);
    let submit_every = Duration::from_secs_f64(1.0 / SUBMIT_PER_S);
    let knn_count = ((span * KNN_PER_S) as usize).max(1);
    let knn_every = Duration::from_secs_f64(1.0 / KNN_PER_S);
    let mut rng = Seed::new(ctx.seed).child("knn").rng();
    let knn_parties: Vec<u64> = (0..knn_count)
        .map(|_| rng.next_range(PRELOAD as u64))
        .collect();
    let acked = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);

    let ((conn_a, submits, ops_a), (conn_b, knns, ops_b)) = std::thread::scope(|s| {
        let parties = s.spawn(|| {
            let mut conn = conn_a;
            let mut ops = Ops::default();
            let mut log = Vec::with_capacity(submit_count);
            for i in 0..submit_count {
                let due = start + submit_every * i as u32;
                wait_until(due);
                let sent = Instant::now();
                let release = corpus.release(PRELOAD + i);
                let sketched = Instant::now();
                let result = conn.call(|c| c.ingest(&release));
                let done = Instant::now();
                let ack = ops.record("submit", result);
                if ack.is_some() {
                    acked.fetch_add(1, Ordering::SeqCst);
                }
                log.push(Submit {
                    due,
                    sent,
                    sketched,
                    done,
                    release,
                    ack,
                });
            }
            (conn, log, ops)
        });
        let analysts = s.spawn(|| {
            let mut conn = conn_b;
            let mut ops = Ops::default();
            let mut log = Vec::with_capacity(knn_count);
            for (j, &party) in knn_parties.iter().enumerate() {
                let due = start + knn_every * j as u32;
                wait_until(due);
                let acked_before = acked.load(Ordering::SeqCst);
                let sent = Instant::now();
                let result = conn.call(|c| c.knn(party, KNN_K));
                let done = Instant::now();
                let acked_after = acked.load(Ordering::SeqCst);
                let reply = ops.record("knn", result);
                log.push(KnnOp {
                    due,
                    sent,
                    done,
                    acked_before,
                    acked_after,
                    party,
                    reply,
                });
            }
            (conn, log, ops)
        });
        (
            parties.join().expect("party thread"),
            analysts.join().expect("analyst thread"),
        )
    });
    let rss = fleet.rss_peak_mb();
    drop(conn_b);
    conn_a.shutdown(fleet);
    out.ops.merge(&ops_a);
    out.ops.merge(&ops_b);

    let submit_us: Vec<f64> = submits
        .iter()
        .filter(|s| s.ack.is_some())
        .map(|s| micros(s.done - s.due))
        .collect();
    let knn_us: Vec<f64> = knns
        .iter()
        .filter(|k| k.reply.is_some())
        .map(|k| micros(k.done - k.due))
        .collect();
    if submit_us.is_empty() || knn_us.is_empty() {
        return Err("no submit or no knn succeeded".into());
    }
    out.e2e("setup_s", median(&setups));
    out.e2e("server_rss_peak_mb", rss);
    out.e2e("ingest_p50_us", quantile(&submit_us, 0.5));
    out.e2e("query_p50_ms", quantile(&knn_us, 0.5) / 1e3);
    out.distribution("submit_us", &submit_us);
    out.distribution("knn_us", &knn_us);
    out.detail("submit_per_s", SUBMIT_PER_S);
    out.detail("knn_per_s", KNN_PER_S);
    out.detail("rows_at_end", (PRELOAD + submit_count) as f64);

    verify(corpus, &submits, &knns, &mut out);
    if traced {
        replay(corpus, &submits, &knns, &mut out);
    }
    Ok(out)
}

/// Acked rows follow the fixed ingest order, and every knn reply is
/// bit-identical to the mirror's `knn` over a store the server could
/// have answered from: the mirror applies the submits in order up to
/// `acked_before`, and a reply that disagrees there is tried against
/// each later store up to `acked_after + 1` rows.
fn verify(corpus: &Corpus, submits: &[Submit], knns: &[KnnOp], out: &mut PassResult) {
    for (i, s) in submits.iter().enumerate() {
        let row = (PRELOAD + i) as u64;
        if let Some(ack) = s.ack {
            if ack != (row, row + 1) {
                out.mismatch(format!(
                    "submit {i} acked as {ack:?}, expected ({row}, {})",
                    row + 1
                ));
            }
        }
    }
    let frames: Vec<Vec<u8>> = submits
        .iter()
        .map(|s| s.release.to_bytes().expect("encode release"))
        .collect();
    let mut mirror = QueryEngine::new(corpus.store(PRELOAD));
    let mut applied = 0usize;
    for (j, q) in knns.iter().enumerate() {
        let Some(reply) = &q.reply else { continue };
        while applied < q.acked_before.min(frames.len()) {
            mirror
                .ingest_bytes(&frames[applied])
                .expect("mirror ingest");
            applied += 1;
        }
        let in_flight = &frames[applied..(q.acked_after + 1).min(frames.len())];
        if !same_knn(&mirror, q.party, reply) && !matches_later(&mirror, in_flight, q.party, reply)
        {
            out.mismatch(format!(
                "knn {j} on party {} matches the mirror at none of rows {}..={}",
                q.party,
                PRELOAD + applied,
                PRELOAD + applied + in_flight.len()
            ));
        }
    }
}

/// Does `reply` equal `mirror.knn(party, 10)`, ids and distance bits?
fn same_knn(mirror: &QueryEngine, party: u64, reply: &[(u64, f64)]) -> bool {
    let want = mirror.knn(party, KNN_K as usize).expect("known party");
    want.len() == reply.len()
        && want.iter().zip(reply).all(|(w, &(id, d))| {
            w.party_id == id && w.estimated_sq_distance.to_bits() == d.to_bits()
        })
}

/// Does `reply` match the mirror after some prefix (one or more) of
/// `frames` is applied? Runs on a copy, so `mirror` stays put.
fn matches_later(
    mirror: &QueryEngine,
    frames: &[Vec<u8>],
    party: u64,
    reply: &[(u64, f64)],
) -> bool {
    if frames.is_empty() {
        return false;
    }
    let mut later = QueryEngine::new(mirror.store().clone());
    frames.iter().any(|frame| {
        later.ingest_bytes(frame).expect("mirror ingest");
        same_knn(&later, party, reply)
    })
}

/// Replay every operation on the in-process mirror, in the order the
/// server saw them, and attribute each server-side layer to the live
/// round trip it belongs to.
fn replay(corpus: &Corpus, submits: &[Submit], knns: &[KnnOp], out: &mut PassResult) {
    let mirror = Mirror::new(corpus.store(PRELOAD));
    let mut ingest_layers_of = Vec::with_capacity(submits.len());
    let mut next = 0usize;
    let mut knn_layers = Vec::with_capacity(knns.len());
    let (mut pairs, mut ns_per_pair, mut reply_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for q in knns {
        while next < q.acked_before.min(submits.len()) {
            ingest_layers_of.push(ingest_layers(&mirror, &submits[next].release));
            next += 1;
        }
        let snap = mirror.shared.snapshot();
        let mut layers = Layers::default();
        let request = Request::Knn {
            party: q.party,
            k: KNN_K,
        };
        let (_, enc) = timed(|| encode_request(&request).expect("encode knn"));
        layers.add("protocol.encode", enc);
        let (neighbors, took) = timed(|| snap.knn(q.party, KNN_K as usize).expect("known party"));
        layers.add("engine.query", took);
        let n_pairs = snap.n() - 1;
        pairs.push(n_pairs as f64);
        ns_per_pair.push(took.as_nanos() as f64 / n_pairs as f64);
        let bytes = encode_response(&Response::Knn {
            neighbors: neighbors
                .iter()
                .map(|n| (n.party_id, n.estimated_sq_distance))
                .collect(),
        })
        .expect("encode knn reply");
        reply_bytes.push((bytes.len() + 4) as f64);
        let (_, dec) = timed(|| decode_response(&bytes).expect("decode knn reply"));
        layers.add("protocol.decode.query", dec);
        knn_layers.push(layers);
    }
    while next < submits.len() {
        ingest_layers_of.push(ingest_layers(&mirror, &submits[next].release));
        next += 1;
    }

    let mut trace = Trace::new();
    for (i, s) in submits.iter().enumerate() {
        let op = trace.push("op.submit", i as u64, None, s.due, s.done);
        trace.push("loadgen.late", i as u64, Some(op), s.due, s.sent);
        trace.push("sketcher.sketch", i as u64, Some(op), s.sent, s.sketched);
        let rtt = trace.push("rtt.ingest", i as u64, Some(op), s.sketched, s.done);
        trace.attach(rtt, &ingest_layers_of[i]);
    }
    for (j, q) in knns.iter().enumerate() {
        let id = (submits.len() + j) as u64;
        let op = trace.push("op.knn", id, None, q.due, q.done);
        trace.push("loadgen.late", id, Some(op), q.due, q.sent);
        let rtt = trace.push("rtt.query", id, Some(op), q.sent, q.done);
        trace.attach(rtt, &knn_layers[j]);
    }

    let frame_bytes: Vec<f64> = submits
        .iter()
        .map(|s| s.release.to_bytes().expect("encode").len() as f64)
        .collect();
    out.layer(
        "sketcher.sketch_us",
        median(&trace.durations_us("sketcher.sketch")),
    );
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
    // knn never reads the all-pairs memo.
    out.layer("engine.memo_hit_ratio", 0.0);
    out.detail("memo_eligible_ops", 0.0);
    out.layer("kernel.pairs.query", median(&pairs));
    out.layer("kernel.ns_per_pair", median(&ns_per_pair));
    out.layer("parallel.frontier_tiles", 0.0);
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
    out.layer("replication.write_amp", 0.0);
    out.layer("replication.compactions", 0.0);
    out.layer(
        "loadgen.late_p99_us",
        quantile(&trace.durations_us("loadgen.late"), 0.99),
    );
    out.trace = Some(trace);
}
