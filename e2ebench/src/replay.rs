//! The in-process mirror the traced run replays operations on.
//!
//! After the timed phase the benchmark rebuilds the server's state in a
//! `SharedEngine`, applies the same ingests in the same order, and
//! re-runs each logged operation through the same public calls the
//! server makes, timing each layer. The live schedule never pays for
//! this, and the mirror's answers are also what replies are checked
//! against.

use crate::trace::{timed, Layers};
use dp_core::protocol::{decode_response, encode_request, encode_response, Request, Response};
use dp_core::release::Release;
use dp_engine::{QueryEngine, SharedEngine, SketchStore};
use std::time::Duration;

pub struct Mirror {
    pub shared: SharedEngine,
}

impl Mirror {
    pub fn new(store: SketchStore) -> Self {
        Self {
            shared: SharedEngine::new(QueryEngine::new(store)),
        }
    }

    /// The server's cold or grown `Pairwise([])` path: fill the memo
    /// under `SharedEngine::mutate` and copy the matrix out. Returns the
    /// party ids, the matrix, the whole call's time and the
    /// `pairwise_all` (kernel) part of it.
    pub fn full_matrix(&self) -> (Vec<u64>, Vec<f64>, Duration, Duration) {
        let ((ids, values, kernel), total) = timed(|| {
            self.shared.mutate(|engine| {
                let (matrix, kernel) = timed(|| engine.pairwise_all());
                (
                    engine.store().party_ids().to_vec(),
                    matrix.as_flat().to_vec(),
                    kernel,
                )
            })
        });
        (ids, values, total, kernel)
    }
}

/// Replay one ingest as client and server run it: the release encode
/// (`wire.encode`), the request encode, `SharedEngine::mutate` around
/// `QueryEngine::ingest_bytes` (the mutate's self time is the snapshot
/// publish), and the client's decode of the ack.
pub fn ingest_layers(mirror: &Mirror, release: &Release) -> Layers {
    let mut layers = Layers::default();
    let (release_frame, enc) = timed(|| release.to_bytes().expect("encode release"));
    layers.add("wire.encode", enc);
    let request = Request::Ingest { release_frame };
    let (_, req) = timed(|| encode_request(&request).expect("encode ingest"));
    layers.add("protocol.encode", req);
    let Request::Ingest { release_frame } = request else {
        unreachable!("built above")
    };
    let mut ingest = Duration::ZERO;
    let ((row, rows), publish) = timed(|| {
        mirror.shared.mutate(|engine| {
            let (row, took) = timed(|| engine.ingest_bytes(&release_frame).expect("mirror ingest"));
            ingest = took;
            (row as u64, engine.store().n() as u64)
        })
    });
    let publish_id = layers.add("engine.publish", publish);
    layers.nest("engine.ingest", ingest, publish_id);
    let ack = encode_response(&Response::Ingested { row, rows }).expect("encode ack");
    let (_, dec) = timed(|| decode_response(&ack).expect("decode ack"));
    layers.add("protocol.decode.ingest", dec);
    layers
}

/// Encode a `Pairwise` reply as the server would and time the client's
/// decode of it: `(frame bytes, decode time)`.
pub fn pairwise_reply(parties: Vec<u64>, values: Vec<f64>) -> (usize, Duration) {
    let bytes = encode_response(&Response::Pairwise { parties, values }).expect("encode pairwise");
    let (_, dec) = timed(|| decode_response(&bytes).expect("decode pairwise"));
    (bytes.len() + 4, dec)
}

/// Time the client's encode of a full-matrix request.
pub fn full_request_encode() -> Duration {
    timed(|| {
        encode_request(&Request::Pairwise {
            parties: Vec::new(),
        })
        .expect("encode")
    })
    .1
}
