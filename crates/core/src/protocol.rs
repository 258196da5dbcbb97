//! Wire codec v7: the request/response protocol of the sketch service.
//!
//! Versions 1–2 of the wire codec defined *payload* frames — sketches
//! (`DPNS`, [`crate::wire`]) and releases (`DPRL`, [`crate::release`]).
//! Version 3 added the *conversation* layer on top: typed,
//! length-prefixed request and response frames that a `dp-server`
//! speaks over a TCP or unix-socket byte stream and that a
//! `SketchStore` answers. Version 4 adds capability negotiation on
//! `Hello` and the streamed tile-result mode; version 5 makes the
//! kernel id part of the negotiated spec; version 6 answers `Pairwise`
//! with a part stream of the matrix's upper triangle; version 7 seals
//! every frame with an XXH64 trailer and folds part trailers, not part
//! contents, into the stream digests. Sketch and release payloads stay
//! at v2 and travel embedded inside v7 frames.
//!
//! ## Frame grammar
//!
//! Every frame on the stream is
//!
//! ```text
//! length   4 bytes  u32 LE, byte length of the payload that follows
//! payload  …        see below
//! ```
//!
//! and every payload is
//!
//! ```text
//! magic    4 bytes  b"DPRQ" (request) | b"DPRS" (response)
//! version  1 byte   currently 7
//! kind     1 byte   frame discriminant (see below)
//! body     …        kind-specific fields
//! checksum 8 bytes  u64 LE, XXH64 (seed 0) over every preceding payload
//!                   byte (see [`frame_digest`])
//! ```
//!
//! A corrupted payload is rejected ([`CoreError::ChecksumMismatch`],
//! or a [`CoreError::Wire`] error when the corruption hits the magic or
//! version byte, which are checked first), and a corrupted length
//! prefix is caught by the payload checks of the misframed bytes. The
//! guarantee is probabilistic: XXH64 lets a corruption through with
//! probability about 2⁻⁶⁴, where the byte-serial FNV-1a-64 trailer of
//! v6 (which the persisted `DPNS`/`DPRL`/`DPSS`/journal frames keep)
//! rejected any single corrupted byte deterministically. XXH64 reads
//! the payload a 64-bit word at a time over four independent lanes,
//! over ten times faster than FNV over a bulk part. Strings are
//! `u32 LE length + UTF-8 bytes`; lists are `u32 LE count + items`;
//! floats are `f64 LE` and must be finite. A run of floats (a tile
//! segment, a kind-3 matrix) is encoded and decoded in bulk after one
//! finiteness pass over the run; the bytes are exactly those of a
//! value-by-value loop.
//!
//! ## Conversation
//!
//! ```text
//! request            kind  body
//! ─────────────────  ────  ──────────────────────────────────────────
//! Hello                1   spec JSON (string), caps (u32 bitfield)
//! Ingest               2   one DPRL release frame (bytes)
//! Pairwise             3   party-id list (empty = all ingested rows) —
//!                          answered with one PairwiseHead, then a
//!                          stream of TileResultPart frames, closed by
//!                          one TileResultSummary
//! Knn                  4   party id (u64), k (u32)
//! TopPairs             5   t (u32)
//! Shutdown             6   —
//! PlanPairwise         7   tile side (u32)
//! (retired)            8   was the monolithic ExecuteTiles; reserved
//! ExecuteTilesStream   9   rows (u64), tile (u32), tile-id list —
//!                          answered with a *stream* of TileResultPart
//!                          frames, one per tile, closed by one
//!                          TileResultSummary
//! FetchSnapshot       10   have_rows (u64), part_len (u32, 0 = server
//!                          default) — answered with a stream of
//!                          SnapshotPart frames closed by one
//!                          SnapshotSummary
//! SnapshotPart        11   seq (u64), layer (u8), chunk (bytes) —
//!                          pushed coordinator→worker, unacknowledged
//! SnapshotSummary     12   generation (u64), rows (u64), count (u64),
//!                          total_len (u64), checksum (u64) — closes a
//!                          push; answered with one Hello (or Error)
//!
//! response           kind  body
//! ─────────────────  ────  ──────────────────────────────────────────
//! Hello                1   k (u32), rows (u64), transform tag
//!                          (string), caps (u32 bitfield)
//! Ingested             2   row index (u64), rows (u64)
//! Pairwise             3   party-id list, row-major n×n estimates
//!                          (kept in the codec; `dp-server` no longer
//!                          sends it)
//! Knn                  4   (party id, estimate) pairs, ascending
//! TopPairs             5   (a, b, estimate) triples, ascending
//! Error                6   code (u16, see `ERR_*`), message (string)
//! Bye                  7   — (acknowledges Shutdown)
//! Plan                 8   rows (u64), tile (u32), tile count (u64),
//!                          pair count (u64)
//! (retired)            9   was the monolithic TileResult; reserved
//! TileResultPart      10   rows (u64), tile (u32), ONE segment
//! TileResultSummary   11   rows (u64), tile (u32), part count (u64),
//!                          stream checksum (u64, see below)
//! SnapshotPart        12   seq (u64), layer (u8), chunk (bytes)
//! SnapshotSummary     13   generation (u64), rows (u64), count (u64),
//!                          total_len (u64), checksum (u64)
//! PairwiseHead        14   party-id list, tile (u32) — opens the
//!                          answer to a Pairwise request
//! ```
//!
//! A server answers every request with exactly one response — except
//! the streamed exchanges. `ExecuteTilesStream` is answered with zero
//! or more `TileResultPart` frames followed by exactly one
//! `TileResultSummary`; `Pairwise` with one `PairwiseHead`, then the
//! same part stream; `FetchSnapshot` with `SnapshotPart` frames closed
//! by one `SnapshotSummary`. A single `Error` frame may answer in
//! place of a stream, or end one early. `Error` never closes the
//! connection (the client may retry), `Bye` always does. The first
//! request on a fresh store SHOULD be `Hello` carrying
//! the shared [`crate::sketcher::SketcherSpec`]; a `Hello` against a
//! store that already holds a different spec is answered with
//! `Error(ERR_SPEC_MISMATCH)`, and one whose spec names a kernel this
//! build does not run with `Error(ERR_KERNEL)` — that is the whole
//! negotiation. The `caps` bitfields on both `Hello` directions
//! advertise optional protocol features ([`CAP_TILE_STREAM`],
//! [`CAP_SKETCH_F32`]); a peer must not send `ExecuteTilesStream` or
//! f32 sketch frames to a server whose `Hello` did not advertise the
//! matching capability.
//!
//! ## Sharded pairwise
//!
//! `PlanPairwise`/`ExecuteTilesStream` carry the plan → execute →
//! gather pipeline across sockets. A `TilePlan` is pure `(rows,
//! tile)` geometry, so the wire never ships tile coordinates — only the
//! two plan integers plus stable tile *ids* (row-major block order over
//! the upper triangle, see [`dp_parallel::TilePlan`]). `PlanPairwise`
//! asks a server to project the plan a given tile side induces over its
//! current store; `ExecuteTilesStream` names an explicit id set under
//! an explicit plan and comes back as one segment per tile, which a
//! coordinator gathers by id. The executing server rejects a
//! plan whose row count differs from its store
//! (`Error(ERR_PLAN)`) — the guard that catches a worker that missed an
//! ingest broadcast.
//!
//! ## Streamed tile results
//!
//! One result frame for a big shard of a millions-of-sketches matrix
//! would trip [`MAX_FRAME_LEN`], so `ExecuteTilesStream` returns one
//! `TileResultPart` frame per requested tile — each a complete,
//! checksummed payload of its own — terminated by a
//! `TileResultSummary` carrying the part **count** and a running
//! **FNV-1a-64 over the part trailers** (each part frame's 8-byte
//! XXH64 trailer, folded in transmission order — see
//! [`stream_checksum`]). The sender folds a part right after encoding
//! it, the receiver right after decoding has verified it. A trailer
//! covers its part's plan echo, tile id and every estimate, so the
//! per-frame trailers catch corruption inside a part and the summary
//! digest catches a lost, duplicated, reordered, or altered part,
//! while the stream hashes 8 bytes per part rather than its content a
//! second time. A gather fed from the stream is as trustworthy as one
//! fed from a single checksummed frame. The monolithic
//! `ExecuteTiles`/`TileResult` exchange (request kind 8, response
//! kind 9) is retired; both kinds stay reserved and decode as unknown.
//!
//! ## Streamed pairwise replies
//!
//! The pairwise estimate matrix is symmetric with an exact zero
//! diagonal, so its upper triangle says everything. A `Pairwise`
//! request (full or subset) is answered with one
//! `Response::PairwiseHead { parties, tile }` — the party ids the
//! matrix is indexed by (the request's own list for a subset) and the
//! tile side of the reply plan `TilePlan(parties.len(), tile)` — then
//! one `TileResultPart` per tile of that plan, in id order, each
//! echoing `(rows = parties.len(), tile)`, closed by the
//! `TileResultSummary` of the tile-stream grammar above. The receiver
//! scatters each part and its mirror into an `n × n` buffer whose
//! diagonal stays zero. No frame ever carries the whole matrix, so no
//! matrix size trips [`MAX_FRAME_LEN`]. Kind 3 `Response::Pairwise`
//! stays in the codec, but a server no longer sends it.
//!
//! ## Snapshot resync
//!
//! Replicated state moves as **snapshot + journal suffix** under
//! [`CAP_SNAPSHOT`], in two directions sharing one part grammar:
//!
//! * **Pull** — `FetchSnapshot { have_rows, part_len }` asks a server
//!   to bring the caller up to date from `have_rows`. The answer is a
//!   stream of `Response::SnapshotPart` frames — each a `seq` number, a
//!   `layer` byte ([`SNAPSHOT_LAYER_STORE`] for a chunk of an encoded
//!   `SketchStore` snapshot, [`SNAPSHOT_LAYER_JOURNAL`] for one raw
//!   `DPRL` release frame of the journal suffix) and an opaque chunk —
//!   closed by one `Response::SnapshotSummary` carrying the part count,
//!   the total chunk byte length, the server's engine generation and
//!   row count, and the stream digest folded from the part frames'
//!   trailers ([`stream_checksum`], the tile stream's discipline: a
//!   trailer covers its part's `seq`, `layer` and chunk). A caller
//!   already at the tip receives zero parts.
//! * **Push** — a coordinator reviving a worker whose rows predate the
//!   compacted journal sends `Request::SnapshotPart` frames
//!   (unacknowledged) closed by one `Request::SnapshotSummary`, whose
//!   digest folds the *request* parts' trailers; the worker verifies
//!   count/length/digest, installs the decoded store,
//!   and answers with exactly one `Hello` (or `Error`). The journal
//!   suffix then replays over ordinary `Ingest` frames.

use crate::error::CoreError;
use crate::wire::{fnv1a64_update, CHECKSUM_LEN};
use dp_parallel::TileSegment;
use std::io::{self, IoSlice, Read, Write};

/// Magic prefix of a protocol request payload.
pub const REQUEST_MAGIC: [u8; 4] = *b"DPRQ";

/// Magic prefix of a protocol response payload.
pub const RESPONSE_MAGIC: [u8; 4] = *b"DPRS";

/// The protocol layer's codec version. Version 4 added the `caps`
/// bitfields on both `Hello` directions and the streamed tile-result
/// frames (`ExecuteTilesStream` / `TileResultPart` /
/// `TileResultSummary`). Version 5 made the kernel id part of the
/// `Hello` spec identity (an unknown kernel → [`ERR_KERNEL`], not
/// [`ERR_SPEC_MISMATCH`]) and added the [`CAP_SKETCH_F32`] capability
/// for quantized `f32` sketch frames. Version 6 answers `Pairwise` with
/// a [`Response::PairwiseHead`] and a tile-part stream of the upper
/// triangle, so a v5 peer fails at its first frame, not mid-exchange.
/// Version 7 seals every frame with an XXH64 trailer ([`frame_digest`])
/// and folds part trailers into the stream digests
/// ([`stream_checksum`]); no body byte moved.
pub const PROTOCOL_VERSION: u8 = 7;

/// Capability bit: the peer speaks the streamed tile-result mode
/// (`ExecuteTilesStream` → `TileResultPart`* + `TileResultSummary`).
pub const CAP_TILE_STREAM: u32 = 1;

/// Capability bit: the peer accepts release frames whose embedded
/// sketch uses the quantized `f32` wire variant
/// ([`crate::wire::WIRE_VERSION_F32`]) — half the bytes per sketch. A
/// client must not ship f32 frames to a server whose `Hello` did not
/// advertise this bit.
pub const CAP_SKETCH_F32: u32 = 2;

/// Capability bit: the peer speaks the snapshot resync mode
/// (`FetchSnapshot` → `SnapshotPart`* + `SnapshotSummary`, and the
/// coordinator→worker push-install direction). A peer must not send
/// snapshot frames to a server whose `Hello` did not advertise it.
pub const CAP_SNAPSHOT: u32 = 4;

/// `SnapshotPart` layer byte: the chunk is a slice of an encoded
/// `SketchStore` snapshot (`DPSS`); chunks concatenate in `seq` order.
pub const SNAPSHOT_LAYER_STORE: u8 = 0;

/// `SnapshotPart` layer byte: the chunk is one raw `DPRL` release frame
/// of the journal suffix, to be replayed after the store layer.
pub const SNAPSHOT_LAYER_JOURNAL: u8 = 1;

/// Upper bound on a single frame payload (64 MiB): a hostile or garbled
/// length prefix must not be able to demand an unbounded allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// The request's spec was rejected or malformed.
pub const ERR_SPEC: u16 = 1;
/// A `Hello` spec differs from the spec the store already serves.
pub const ERR_SPEC_MISMATCH: u16 = 2;
/// An ingested release is incompatible with the store.
pub const ERR_INCOMPATIBLE: u16 = 3;
/// An ingested release's party id is already present.
pub const ERR_DUPLICATE_PARTY: u16 = 4;
/// A queried party id is not in the store.
pub const ERR_UNKNOWN_PARTY: u16 = 5;
/// A frame failed to decode (bad magic/version/checksum/body), or a
/// `Pairwise` subset names more parties than the store holds rows (so
/// some party repeats), refused before its matrix is allocated.
pub const ERR_MALFORMED: u16 = 6;
/// Any other server-side failure.
pub const ERR_INTERNAL: u16 = 7;
/// A tile plan does not match the executing store (wrong row count, or
/// a tile id outside the plan).
pub const ERR_PLAN: u16 = 8;
/// A coordinator's worker shard failed (dead worker, timeout, or a
/// worker answer the gather rejected).
pub const ERR_WORKER: u16 = 9;
/// The server is overloaded and refused the request: the event-loop
/// reactor's per-connection write budget could not hold the reply, or
/// the connection cap was reached at accept. The request was **not**
/// executed against the store; retrying later (or with a smaller
/// subset) is safe.
pub const ERR_BUSY: u16 = 10;
/// A spec names a distance kernel this build does not run
/// ([`crate::kernel::KernelId`] has one, `v1-scalar`; the retired
/// `v2-simd` is refused), in a `Hello` — on an empty store too, which
/// then adopts nothing — or in an installed snapshot. Split out from
/// [`ERR_SPEC_MISMATCH`] so a peer can tell "wrong store" from "state
/// minted under other bits".
pub const ERR_KERNEL: u16 = 11;

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Spec negotiation: propose the shared `SketcherSpec` (JSON form)
    /// and advertise the client's optional capabilities.
    Hello {
        /// The spec's JSON serialization
        /// ([`crate::sketcher::SketcherSpec::to_json`]).
        spec_json: String,
        /// The client's capability bitfield (`CAP_*`).
        caps: u32,
    },
    /// Ingest one release, as its self-contained `DPRL` binary frame.
    Ingest {
        /// The encoded release ([`crate::release::Release::to_bytes`]).
        release_frame: Vec<u8>,
    },
    /// All pairwise estimates among `parties` (empty = every row, in
    /// ingest order).
    Pairwise {
        /// Party ids selecting the submatrix, in the requested order.
        parties: Vec<u64>,
    },
    /// The `k` nearest neighbors of one ingested party.
    Knn {
        /// The query party id.
        party: u64,
        /// Number of neighbors requested.
        k: u32,
    },
    /// The `t` globally closest pairs.
    TopPairs {
        /// Number of pairs requested.
        t: u32,
    },
    /// Ask the server to stop accepting connections and exit cleanly.
    Shutdown,
    /// Project the [`dp_parallel::TilePlan`] a tile side induces over
    /// the server's current store (answered with [`Response::Plan`]).
    PlanPairwise {
        /// Requested tile side length (clamped ≥ 1 by the plan).
        tile: u32,
    },
    /// Execute an explicit set of plan tiles over the server's store,
    /// answered with one [`Response::TileResultPart`] frame per tile
    /// followed by a [`Response::TileResultSummary`] — no monolithic
    /// result frame ever materializes. Only valid against a server
    /// whose `Hello` advertised [`CAP_TILE_STREAM`].
    ExecuteTilesStream {
        /// The plan's matrix side — must equal the store's row count.
        rows: u64,
        /// The plan's tile side.
        tile: u32,
        /// Stable tile ids to execute, in the requested order.
        tile_ids: Vec<u64>,
    },
    /// Bring the caller up to date from `have_rows`: answered with a
    /// stream of [`Response::SnapshotPart`] frames closed by one
    /// [`Response::SnapshotSummary`] (or a single `Error`). Only valid
    /// against a server whose `Hello` advertised [`CAP_SNAPSHOT`].
    FetchSnapshot {
        /// Rows the caller already holds; the server streams only what
        /// lies beyond them (or a full store snapshot if the journal no
        /// longer reaches back that far).
        have_rows: u64,
        /// Preferred chunk size in bytes for store-layer parts; 0 asks
        /// for the server's default.
        part_len: u32,
    },
    /// One pushed chunk of a coordinator→worker snapshot install
    /// (unacknowledged; the closing [`Request::SnapshotSummary`] is
    /// what gets answered).
    SnapshotPart {
        /// Zero-based position of this part in the push stream.
        seq: u64,
        /// [`SNAPSHOT_LAYER_STORE`] or [`SNAPSHOT_LAYER_JOURNAL`].
        layer: u8,
        /// The opaque chunk bytes.
        chunk: Vec<u8>,
    },
    /// Closes a pushed snapshot install: the worker verifies the part
    /// count, total length, and folded digest, installs the decoded
    /// store plus journal suffix, and answers with exactly one
    /// [`Response::Hello`] (or `Error`).
    SnapshotSummary {
        /// The engine generation the snapshot was encoded under.
        generation: u64,
        /// Rows the installed state must end up holding.
        rows: u64,
        /// Number of `SnapshotPart` frames that preceded this one.
        count: u64,
        /// Total chunk bytes across every part.
        total_len: u64,
        /// FNV-1a-64 folded over every part frame's trailer in
        /// transmission order ([`stream_checksum`]).
        checksum: u64,
    },
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Spec accepted (or already in effect): the store's geometry and
    /// the server's optional capabilities.
    Hello {
        /// Sketch dimension every release must carry.
        k: u32,
        /// Rows currently ingested.
        rows: u64,
        /// The transform identity tag releases must carry.
        tag: String,
        /// The server's capability bitfield (`CAP_*`).
        caps: u32,
    },
    /// A release was ingested.
    Ingested {
        /// The arena row the release landed in.
        row: u64,
        /// Rows ingested after this one.
        rows: u64,
    },
    /// A pairwise submatrix, row-major over `parties`, in one frame.
    /// Kept in the codec; a server answers `Pairwise` with
    /// [`Response::PairwiseHead`] and a part stream instead.
    Pairwise {
        /// The party ids the matrix is indexed by.
        parties: Vec<u64>,
        /// Row-major `n × n` debiased squared-distance estimates.
        values: Vec<f64>,
    },
    /// Nearest neighbors, ascending by estimate.
    Knn {
        /// `(party id, estimated squared distance)` per neighbor.
        neighbors: Vec<(u64, f64)>,
    },
    /// Globally closest pairs, ascending by estimate.
    TopPairs {
        /// `(party a, party b, estimated squared distance)` per pair.
        pairs: Vec<(u64, u64, f64)>,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Acknowledges [`Request::Shutdown`]; the server closes after this.
    Bye,
    /// The plan [`Request::PlanPairwise`] projects over the store.
    Plan {
        /// The store's current row count (the plan's matrix side).
        rows: u64,
        /// The effective tile side (the request's, clamped ≥ 1).
        tile: u32,
        /// Number of tiles in the plan.
        tile_count: u64,
        /// Total `(i, j)`, `i < j` pairs the plan covers.
        pair_count: u64,
    },
    /// One tile of a streamed [`Request::ExecuteTilesStream`] answer.
    TileResultPart {
        /// Echo of the executed plan's matrix side.
        rows: u64,
        /// Echo of the executed plan's tile side.
        tile: u32,
        /// The executed tile's segment.
        segment: TileSegment,
    },
    /// Terminates a streamed tile-result answer: how many parts were
    /// sent and the running FNV-1a-64 over their frame trailers (see
    /// [`stream_checksum`]) — the guard against lost, duplicated,
    /// reordered, or altered parts.
    TileResultSummary {
        /// Echo of the executed plan's matrix side.
        rows: u64,
        /// Echo of the executed plan's tile side.
        tile: u32,
        /// Number of `TileResultPart` frames that preceded this one.
        count: u64,
        /// FNV-1a-64 folded over every part frame's trailer in
        /// transmission order.
        checksum: u64,
    },
    /// One chunk of a streamed [`Request::FetchSnapshot`] answer.
    SnapshotPart {
        /// Zero-based position of this part in the stream.
        seq: u64,
        /// [`SNAPSHOT_LAYER_STORE`] or [`SNAPSHOT_LAYER_JOURNAL`].
        layer: u8,
        /// The opaque chunk bytes.
        chunk: Vec<u8>,
    },
    /// Terminates a streamed snapshot answer: the part count, total
    /// chunk byte length, the folded stream digest
    /// ([`stream_checksum`]), and where the server's state
    /// stands (generation + rows) once every part is applied.
    SnapshotSummary {
        /// The engine generation the snapshot was encoded under.
        generation: u64,
        /// Rows the server held when it answered.
        rows: u64,
        /// Number of `SnapshotPart` frames that preceded this one.
        count: u64,
        /// Total chunk bytes across every part.
        total_len: u64,
        /// FNV-1a-64 folded over every part frame's trailer in
        /// transmission order.
        checksum: u64,
    },
    /// Opens the answer to a [`Request::Pairwise`]: the matrix is
    /// indexed by `parties`, and its upper triangle follows as one
    /// [`Response::TileResultPart`] per tile of
    /// `TilePlan(parties.len(), tile)`, in id order, closed by a
    /// [`Response::TileResultSummary`].
    PairwiseHead {
        /// The party ids the matrix is indexed by (the request's list
        /// for a subset, every ingested party in row order otherwise).
        parties: Vec<u64>,
        /// The reply plan's tile side.
        tile: u32,
    },
}

/// Fold one encoded part frame (a `TileResultPart` or `SnapshotPart`
/// payload, either direction) into the running stream digest: its
/// 8-byte trailer goes through FNV-1a-64, part by part in transmission
/// order, starting from [`FNV1A64_INIT`](crate::wire::FNV1A64_INIT).
/// The sender folds each part right after encoding it, the receiver
/// right after decoding has verified it; the summary frame carries the
/// sender's. The trailer covers every byte of its part — the tile id
/// or `seq` and `layer`, and every value — so a lost, duplicated,
/// reordered, relayered, or altered part still changes the summary,
/// while the stream hashes 8 bytes per part instead of its content.
#[must_use]
pub fn stream_checksum(h: u64, frame: &[u8]) -> u64 {
    fnv1a64_update(h, &frame[frame.len().saturating_sub(CHECKSUM_LEN)..])
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> Result<(), CoreError> {
    let len = u32::try_from(bytes.len())
        .map_err(|_| CoreError::Wire(format!("field too long ({} bytes)", bytes.len())))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(bytes);
    Ok(())
}

fn put_count(out: &mut Vec<u8>, count: usize) -> Result<(), CoreError> {
    let count = u32::try_from(count)
        .map_err(|_| CoreError::Wire(format!("list too long ({count} items)")))?;
    out.extend_from_slice(&count.to_le_bytes());
    Ok(())
}

fn non_finite(v: f64) -> CoreError {
    CoreError::Wire(format!("non-finite value on the wire ({v})"))
}

fn put_f64(out: &mut Vec<u8>, v: f64) -> Result<(), CoreError> {
    if !v.is_finite() {
        return Err(non_finite(v));
    }
    out.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

/// Append a run of floats as `f64 LE`: one finiteness pass over the
/// run, then one bulk copy — the same bytes as [`put_f64`] per value.
fn put_f64s(out: &mut Vec<u8>, values: &[f64]) -> Result<(), CoreError> {
    if let Some(&v) = values.iter().find(|v| !v.is_finite()) {
        return Err(non_finite(v));
    }
    let start = out.len();
    out.resize(start + 8 * values.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

fn put_u64s(out: &mut Vec<u8>, values: &[u64]) -> Result<(), CoreError> {
    put_count(out, values.len())?;
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

// dp-lint: freeze(protocol-frame-envelope) begin
//
// The envelope every protocol frame shares — the header bytes, the
// XXH64 trailer and the check that opens a frame — is the live wire
// contract of a fleet as much as the codec arms below. Changing it is
// a protocol version bump.

const XXH_PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

/// XXH64 with seed 0 — the protocol frame trailer, over every payload
/// byte before it. Four independent 64-bit lanes consume the input in
/// 32-byte stripes, then an 8/4/1-byte tail and a final avalanche mix
/// it in, so a bulk part is hashed a word at a time rather than a byte
/// at a time. A corruption escapes it with probability about 2⁻⁶⁴;
/// the persisted frames keep FNV-1a-64 ([`crate::wire::fnv1a64`]).
#[must_use]
pub fn frame_digest(bytes: &[u8]) -> u64 {
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(XXH_PRIME64_2))
            .rotate_left(31)
            .wrapping_mul(XXH_PRIME64_1)
    }
    fn merge(h: u64, acc: u64) -> u64 {
        (h ^ round(0, acc))
            .wrapping_mul(XXH_PRIME64_1)
            .wrapping_add(XXH_PRIME64_4)
    }
    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
    }
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v1 = XXH_PRIME64_1.wrapping_add(XXH_PRIME64_2);
        let mut v2 = XXH_PRIME64_2;
        let mut v3 = 0u64;
        let mut v4 = XXH_PRIME64_1.wrapping_neg();
        for stripe in &mut stripes {
            v1 = round(v1, word(&stripe[0..]));
            v2 = round(v2, word(&stripe[8..]));
            v3 = round(v3, word(&stripe[16..]));
            v4 = round(v4, word(&stripe[24..]));
        }
        let h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        [v1, v2, v3, v4].into_iter().fold(h, merge)
    } else {
        XXH_PRIME64_5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut tail = stripes.remainder();
    while tail.len() >= 8 {
        h = (h ^ round(0, word(tail)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME64_1)
            .wrapping_add(XXH_PRIME64_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(half).wrapping_mul(XXH_PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME64_2)
            .wrapping_add(XXH_PRIME64_3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(XXH_PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_PRIME64_3);
    h ^ (h >> 32)
}

fn header(magic: [u8; 4], kind: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&magic);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out
}

fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let checksum = frame_digest(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validate the payload envelope (magic, version, checksum) and return
/// `(kind, body reader)`.
fn open(bytes: &[u8], magic: [u8; 4]) -> Result<(u8, Reader<'_>), CoreError> {
    if bytes.len() < 4 + 1 + 1 + CHECKSUM_LEN {
        return Err(CoreError::Wire("truncated protocol frame".to_string()));
    }
    if bytes[..4] != magic {
        return Err(CoreError::Wire(
            "bad magic (not a protocol frame of the expected direction)".to_string(),
        ));
    }
    let version = bytes[4];
    if version != PROTOCOL_VERSION {
        return Err(CoreError::Wire(format!(
            "unsupported protocol version {version} (expected {PROTOCOL_VERSION})"
        )));
    }
    let covered = bytes.len() - CHECKSUM_LEN;
    let stored = u64::from_le_bytes(bytes[covered..].try_into().expect("8 bytes"));
    let computed = frame_digest(&bytes[..covered]);
    if stored != computed {
        return Err(CoreError::ChecksumMismatch { stored, computed });
    }
    Ok((
        bytes[5],
        Reader {
            bytes: &bytes[..covered],
            pos: 6,
        },
    ))
}
// dp-lint: freeze(protocol-frame-envelope) end

// dp-lint: freeze(protocol-frame-codec) begin
//
// The kind bytes and field order below are the live wire contract
// between every peer of a fleet (coordinator, workers, standby,
// clients). Journals persist `DPRL` release frames — the payload of
// `Ingest`, not encoded requests — so stored state never depends on
// this region. Changing an existing arm breaks mixed-build fleets; new
// frames append new kinds, and retired kinds (8 and 9) are never
// reused.

/// Encode a request into a protocol payload (no length prefix; see
/// [`write_frame`]).
///
/// # Errors
/// [`CoreError::Wire`] if a field exceeds the wire's `u32` bounds or a
/// float is non-finite.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, CoreError> {
    let mut out;
    match req {
        Request::Hello { spec_json, caps } => {
            out = header(REQUEST_MAGIC, 1);
            put_bytes(&mut out, spec_json.as_bytes())?;
            out.extend_from_slice(&caps.to_le_bytes());
        }
        Request::Ingest { release_frame } => {
            out = header(REQUEST_MAGIC, 2);
            put_bytes(&mut out, release_frame)?;
        }
        Request::Pairwise { parties } => {
            out = header(REQUEST_MAGIC, 3);
            put_u64s(&mut out, parties)?;
        }
        Request::Knn { party, k } => {
            out = header(REQUEST_MAGIC, 4);
            out.extend_from_slice(&party.to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
        }
        Request::TopPairs { t } => {
            out = header(REQUEST_MAGIC, 5);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Request::Shutdown => {
            out = header(REQUEST_MAGIC, 6);
        }
        Request::PlanPairwise { tile } => {
            out = header(REQUEST_MAGIC, 7);
            out.extend_from_slice(&tile.to_le_bytes());
        }
        Request::ExecuteTilesStream {
            rows,
            tile,
            tile_ids,
        } => {
            out = header(REQUEST_MAGIC, 9);
            out.extend_from_slice(&rows.to_le_bytes());
            out.extend_from_slice(&tile.to_le_bytes());
            put_u64s(&mut out, tile_ids)?;
        }
        Request::FetchSnapshot {
            have_rows,
            part_len,
        } => {
            out = header(REQUEST_MAGIC, 10);
            out.extend_from_slice(&have_rows.to_le_bytes());
            out.extend_from_slice(&part_len.to_le_bytes());
        }
        Request::SnapshotPart { seq, layer, chunk } => {
            out = header(REQUEST_MAGIC, 11);
            out.extend_from_slice(&seq.to_le_bytes());
            out.push(*layer);
            put_bytes(&mut out, chunk)?;
        }
        Request::SnapshotSummary {
            generation,
            rows,
            count,
            total_len,
            checksum,
        } => {
            out = header(REQUEST_MAGIC, 12);
            out.extend_from_slice(&generation.to_le_bytes());
            out.extend_from_slice(&rows.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&total_len.to_le_bytes());
            out.extend_from_slice(&checksum.to_le_bytes());
        }
    }
    Ok(seal(out))
}

/// Encode a response into a protocol payload (no length prefix; see
/// [`write_frame`]).
///
/// # Errors
/// [`CoreError::Wire`] if a field exceeds the wire's `u32` bounds or a
/// float is non-finite.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, CoreError> {
    let mut out;
    match resp {
        Response::Hello { k, rows, tag, caps } => {
            out = header(RESPONSE_MAGIC, 1);
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&rows.to_le_bytes());
            put_bytes(&mut out, tag.as_bytes())?;
            out.extend_from_slice(&caps.to_le_bytes());
        }
        Response::Ingested { row, rows } => {
            out = header(RESPONSE_MAGIC, 2);
            out.extend_from_slice(&row.to_le_bytes());
            out.extend_from_slice(&rows.to_le_bytes());
        }
        Response::Pairwise { parties, values } => {
            if values.len() != parties.len() * parties.len() {
                return Err(CoreError::Wire(format!(
                    "pairwise response shape mismatch ({} parties, {} values)",
                    parties.len(),
                    values.len()
                )));
            }
            out = header(RESPONSE_MAGIC, 3);
            put_u64s(&mut out, parties)?;
            put_f64s(&mut out, values)?;
        }
        Response::Knn { neighbors } => {
            out = header(RESPONSE_MAGIC, 4);
            put_count(&mut out, neighbors.len())?;
            for &(id, d) in neighbors {
                out.extend_from_slice(&id.to_le_bytes());
                put_f64(&mut out, d)?;
            }
        }
        Response::TopPairs { pairs } => {
            out = header(RESPONSE_MAGIC, 5);
            put_count(&mut out, pairs.len())?;
            for &(a, b, d) in pairs {
                out.extend_from_slice(&a.to_le_bytes());
                out.extend_from_slice(&b.to_le_bytes());
                put_f64(&mut out, d)?;
            }
        }
        Response::Error { code, message } => {
            out = header(RESPONSE_MAGIC, 6);
            out.extend_from_slice(&code.to_le_bytes());
            put_bytes(&mut out, message.as_bytes())?;
        }
        Response::Bye => {
            out = header(RESPONSE_MAGIC, 7);
        }
        Response::Plan {
            rows,
            tile,
            tile_count,
            pair_count,
        } => {
            out = header(RESPONSE_MAGIC, 8);
            out.extend_from_slice(&rows.to_le_bytes());
            out.extend_from_slice(&tile.to_le_bytes());
            out.extend_from_slice(&tile_count.to_le_bytes());
            out.extend_from_slice(&pair_count.to_le_bytes());
        }
        Response::TileResultPart {
            rows,
            tile,
            segment,
        } => {
            out = header(RESPONSE_MAGIC, 10);
            out.extend_from_slice(&rows.to_le_bytes());
            out.extend_from_slice(&tile.to_le_bytes());
            out.extend_from_slice(&segment.tile_id.to_le_bytes());
            put_count(&mut out, segment.values.len())?;
            put_f64s(&mut out, &segment.values)?;
        }
        Response::TileResultSummary {
            rows,
            tile,
            count,
            checksum,
        } => {
            out = header(RESPONSE_MAGIC, 11);
            out.extend_from_slice(&rows.to_le_bytes());
            out.extend_from_slice(&tile.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&checksum.to_le_bytes());
        }
        Response::SnapshotPart { seq, layer, chunk } => {
            out = header(RESPONSE_MAGIC, 12);
            out.extend_from_slice(&seq.to_le_bytes());
            out.push(*layer);
            put_bytes(&mut out, chunk)?;
        }
        Response::SnapshotSummary {
            generation,
            rows,
            count,
            total_len,
            checksum,
        } => {
            out = header(RESPONSE_MAGIC, 13);
            out.extend_from_slice(&generation.to_le_bytes());
            out.extend_from_slice(&rows.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&total_len.to_le_bytes());
            out.extend_from_slice(&checksum.to_le_bytes());
        }
        Response::PairwiseHead { parties, tile } => {
            out = header(RESPONSE_MAGIC, 14);
            put_u64s(&mut out, parties)?;
            out.extend_from_slice(&tile.to_le_bytes());
        }
    }
    Ok(seal(out))
}
// dp-lint: freeze(protocol-frame-codec) end

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or_else(|| CoreError::Wire("truncated protocol frame".to_string()))?;
        self.pos += n;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, CoreError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, CoreError> {
        let v = f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"));
        if !v.is_finite() {
            return Err(non_finite(v));
        }
        Ok(v)
    }

    /// A run of `n` floats: one bulk copy, then one finiteness pass —
    /// the same values and the same refusals as [`Reader::f64`] per
    /// value.
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CoreError> {
        let len = n
            .checked_mul(8)
            .ok_or_else(|| CoreError::Wire("truncated protocol frame".to_string()))?;
        let values: Vec<f64> = self
            .take(len)?
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect();
        if let Some(&v) = values.iter().find(|v| !v.is_finite()) {
            return Err(non_finite(v));
        }
        Ok(values)
    }

    /// A `u32 LE` count, then that many `u64 LE` items.
    fn u64s(&mut self) -> Result<Vec<u64>, CoreError> {
        let n = self.count(8)?;
        Ok(self
            .take(8 * n)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect())
    }

    /// A list length, bounded by the bytes actually remaining (a hostile
    /// count must not demand a huge allocation before the read fails).
    fn count(&mut self, item_len: usize) -> Result<usize, CoreError> {
        let n = self.u32()? as usize;
        if self.bytes.len().saturating_sub(self.pos) < n.saturating_mul(item_len) {
            return Err(CoreError::Wire("truncated protocol frame".to_string()));
        }
        Ok(n)
    }

    fn bytes_field(&mut self) -> Result<&'a [u8], CoreError> {
        let n = self.count(1)?;
        self.take(n)
    }

    fn string(&mut self) -> Result<String, CoreError> {
        let raw = self.bytes_field()?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|e| CoreError::Wire(format!("string not UTF-8: {e}")))
    }
}

fn finish<T>(r: Reader<'_>, value: T) -> Result<T, CoreError> {
    if r.pos != r.bytes.len() {
        return Err(CoreError::Wire(format!(
            "trailing bytes in protocol frame ({} of {})",
            r.pos,
            r.bytes.len()
        )));
    }
    Ok(value)
}

/// Decode a request payload.
///
/// # Errors
/// [`CoreError::Wire`] on malformed input,
/// [`CoreError::ChecksumMismatch`] on a corrupted frame.
pub fn decode_request(bytes: &[u8]) -> Result<Request, CoreError> {
    let (kind, mut r) = open(bytes, REQUEST_MAGIC)?;
    let req = match kind {
        1 => Request::Hello {
            spec_json: r.string()?,
            caps: r.u32()?,
        },
        2 => Request::Ingest {
            release_frame: r.bytes_field()?.to_vec(),
        },
        3 => Request::Pairwise { parties: r.u64s()? },
        4 => Request::Knn {
            party: r.u64()?,
            k: r.u32()?,
        },
        5 => Request::TopPairs { t: r.u32()? },
        6 => Request::Shutdown,
        7 => Request::PlanPairwise { tile: r.u32()? },
        9 => Request::ExecuteTilesStream {
            rows: r.u64()?,
            tile: r.u32()?,
            tile_ids: r.u64s()?,
        },
        10 => Request::FetchSnapshot {
            have_rows: r.u64()?,
            part_len: r.u32()?,
        },
        11 => {
            let seq = r.u64()?;
            let layer = snapshot_layer(&mut r)?;
            Request::SnapshotPart {
                seq,
                layer,
                chunk: r.bytes_field()?.to_vec(),
            }
        }
        12 => Request::SnapshotSummary {
            generation: r.u64()?,
            rows: r.u64()?,
            count: r.u64()?,
            total_len: r.u64()?,
            checksum: r.u64()?,
        },
        // Kind 8 (the retired monolithic `ExecuteTiles`) stays reserved.
        other => {
            return Err(CoreError::Wire(format!("unknown request kind {other}")));
        }
    };
    finish(r, req)
}

/// Read and validate a `SnapshotPart` layer byte.
fn snapshot_layer(r: &mut Reader<'_>) -> Result<u8, CoreError> {
    let layer = r.take(1)?[0];
    if layer != SNAPSHOT_LAYER_STORE && layer != SNAPSHOT_LAYER_JOURNAL {
        return Err(CoreError::Wire(format!("unknown snapshot layer {layer}")));
    }
    Ok(layer)
}

/// Decode a response payload.
///
/// # Errors
/// [`CoreError::Wire`] on malformed input,
/// [`CoreError::ChecksumMismatch`] on a corrupted frame.
pub fn decode_response(bytes: &[u8]) -> Result<Response, CoreError> {
    let (kind, mut r) = open(bytes, RESPONSE_MAGIC)?;
    let resp = match kind {
        1 => Response::Hello {
            k: r.u32()?,
            rows: r.u64()?,
            tag: r.string()?,
            caps: r.u32()?,
        },
        2 => Response::Ingested {
            row: r.u64()?,
            rows: r.u64()?,
        },
        3 => {
            let parties = r.u64s()?;
            let cells = parties
                .len()
                .checked_mul(parties.len())
                .ok_or_else(|| CoreError::Wire("pairwise response too large".to_string()))?;
            Response::Pairwise {
                parties,
                values: r.f64s(cells)?,
            }
        }
        4 => {
            let n = r.count(16)?;
            let mut neighbors = Vec::with_capacity(n);
            for _ in 0..n {
                neighbors.push((r.u64()?, r.f64()?));
            }
            Response::Knn { neighbors }
        }
        5 => {
            let n = r.count(24)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((r.u64()?, r.u64()?, r.f64()?));
            }
            Response::TopPairs { pairs }
        }
        6 => Response::Error {
            code: r.u16()?,
            message: r.string()?,
        },
        7 => Response::Bye,
        8 => Response::Plan {
            rows: r.u64()?,
            tile: r.u32()?,
            tile_count: r.u64()?,
            pair_count: r.u64()?,
        },
        10 => {
            let rows = r.u64()?;
            let tile = r.u32()?;
            let tile_id = r.u64()?;
            let count = r.count(8)?;
            Response::TileResultPart {
                rows,
                tile,
                segment: TileSegment {
                    tile_id,
                    values: r.f64s(count)?,
                },
            }
        }
        11 => Response::TileResultSummary {
            rows: r.u64()?,
            tile: r.u32()?,
            count: r.u64()?,
            checksum: r.u64()?,
        },
        12 => {
            let seq = r.u64()?;
            let layer = snapshot_layer(&mut r)?;
            Response::SnapshotPart {
                seq,
                layer,
                chunk: r.bytes_field()?.to_vec(),
            }
        }
        13 => Response::SnapshotSummary {
            generation: r.u64()?,
            rows: r.u64()?,
            count: r.u64()?,
            total_len: r.u64()?,
            checksum: r.u64()?,
        },
        14 => Response::PairwiseHead {
            parties: r.u64s()?,
            tile: r.u32()?,
        },
        // Kind 9 (the retired monolithic `TileResult`) stays reserved.
        other => {
            return Err(CoreError::Wire(format!("unknown response kind {other}")));
        }
    };
    finish(r, resp)
}

// ---------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------

/// Write one length-prefixed frame (`u32 LE length | payload`). The
/// prefix and the payload leave in one vectored write loop, without
/// copying the payload, so a frame on a `TCP_NODELAY` socket is one
/// segment train, not a 4-byte segment followed by the rest.
///
/// # Errors
/// Propagates I/O failures; `InvalidData` if the payload exceeds
/// [`MAX_FRAME_LEN`].
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
        ));
    }
    let len = (payload.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&len), IoSlice::new(payload)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match w.write_vectored(pending) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write a whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
/// Propagates I/O failures; `InvalidData` if the announced length
/// exceeds [`MAX_FRAME_LEN`]; `UnexpectedEof` on a mid-frame EOF.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF before the first length byte means "no more frames".
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("announced frame of {len} bytes exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FNV1A64_INIT;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                spec_json: "{\"construction\":\"sjlt-auto\"}".to_string(),
                caps: CAP_TILE_STREAM,
            },
            Request::Ingest {
                release_frame: vec![1, 2, 3, 4, 5],
            },
            Request::Pairwise {
                parties: vec![3, 1, 4, 1],
            },
            Request::Pairwise { parties: vec![] },
            Request::Knn { party: 9, k: 3 },
            Request::TopPairs { t: 10 },
            Request::Shutdown,
            Request::PlanPairwise { tile: 64 },
            Request::ExecuteTilesStream {
                rows: 9,
                tile: 4,
                tile_ids: vec![5, 0],
            },
            Request::FetchSnapshot {
                have_rows: 12,
                part_len: 0,
            },
            Request::FetchSnapshot {
                have_rows: 0,
                part_len: 4096,
            },
            Request::SnapshotPart {
                seq: 2,
                layer: SNAPSHOT_LAYER_STORE,
                chunk: vec![0xDE, 0xAD, 0xBE],
            },
            Request::SnapshotPart {
                seq: 0,
                layer: SNAPSHOT_LAYER_JOURNAL,
                chunk: vec![],
            },
            Request::SnapshotSummary {
                generation: 3,
                rows: 17,
                count: 4,
                total_len: 65536,
                checksum: 0x0123_4567_89ab_cdef,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Hello {
                k: 128,
                rows: 2,
                tag: "sjlt(k=128,seed=7)".to_string(),
                caps: CAP_TILE_STREAM,
            },
            Response::Ingested { row: 1, rows: 2 },
            Response::Pairwise {
                parties: vec![1, 2],
                values: vec![0.0, 1.5, 1.5, 0.0],
            },
            Response::Knn {
                neighbors: vec![(2, -0.25), (5, 4.0)],
            },
            Response::TopPairs {
                pairs: vec![(1, 2, 0.5), (0, 3, 2.0)],
            },
            Response::Error {
                code: ERR_UNKNOWN_PARTY,
                message: "party 7 not ingested".to_string(),
            },
            Response::Bye,
            Response::Plan {
                rows: 9,
                tile: 4,
                tile_count: 6,
                pair_count: 36,
            },
            Response::TileResultPart {
                rows: 9,
                tile: 4,
                segment: TileSegment {
                    tile_id: 2,
                    values: vec![0.25, -7.5],
                },
            },
            Response::TileResultSummary {
                rows: 9,
                tile: 4,
                count: 3,
                checksum: 0xdead_beef_cafe_f00d,
            },
            Response::SnapshotPart {
                seq: 1,
                layer: SNAPSHOT_LAYER_JOURNAL,
                chunk: vec![7, 7, 7, 7],
            },
            Response::SnapshotSummary {
                generation: 2,
                rows: 17,
                count: 0,
                total_len: 0,
                checksum: 0xcbf2_9ce4_8422_2325,
            },
            Response::PairwiseHead {
                parties: vec![3, 1, 4],
                tile: 64,
            },
            Response::PairwiseHead {
                parties: vec![],
                tile: 64,
            },
        ]
    }

    #[test]
    fn request_roundtrip_is_identity() {
        for req in sample_requests() {
            let bytes = encode_request(&req).unwrap();
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
            // Byte-identical re-encode.
            assert_eq!(encode_request(&req).unwrap(), bytes);
        }
    }

    #[test]
    fn response_roundtrip_is_identity() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp).unwrap();
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        for req in sample_requests() {
            let bytes = encode_request(&req).unwrap();
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x01;
                assert!(decode_request(&bad).is_err(), "{req:?} byte {i}");
            }
        }
        for resp in sample_responses() {
            let bytes = encode_response(&resp).unwrap();
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x01;
                assert!(decode_response(&bad).is_err(), "{resp:?} byte {i}");
            }
        }
    }

    #[test]
    fn direction_and_truncation_rejected() {
        let req = encode_request(&Request::Shutdown).unwrap();
        assert!(decode_response(&req).is_err(), "direction confusion");
        let resp = encode_response(&Response::Bye).unwrap();
        assert!(decode_request(&resp).is_err(), "direction confusion");
        for cut in 0..req.len() {
            assert!(decode_request(&req[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = req;
        trailing.insert(trailing.len() - CHECKSUM_LEN, 0);
        assert!(decode_request(&trailing).is_err());
    }

    #[test]
    fn non_finite_floats_rejected_on_both_sides() {
        assert!(encode_response(&Response::Knn {
            neighbors: vec![(1, f64::NAN)],
        })
        .is_err());
        // Hand-craft a frame with an infinite estimate.
        let good = encode_response(&Response::Knn {
            neighbors: vec![(1, 0.5)],
        })
        .unwrap();
        let mut bad = good[..good.len() - CHECKSUM_LEN].to_vec();
        let value_off = bad.len() - 8;
        bad[value_off..].copy_from_slice(&f64::INFINITY.to_le_bytes());
        let bad = seal(bad);
        assert!(matches!(decode_response(&bad), Err(CoreError::Wire(_))));
    }

    /// The bulk float paths refuse NaN and ±inf exactly as the
    /// per-value path does: on encode, and on decode of a hand-sealed
    /// frame, wherever in the run the bad value sits.
    #[test]
    fn bulk_float_runs_reject_non_finite_values_on_both_sides() {
        let part = |values: Vec<f64>| Response::TileResultPart {
            rows: 9,
            tile: 4,
            segment: TileSegment { tile_id: 1, values },
        };
        let matrix = |values: Vec<f64>| Response::Pairwise {
            parties: vec![1, 2],
            values,
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in 0..4 {
                let mut values = vec![0.0, 1.5, 1.5, 0.0];
                values[at] = bad;
                for resp in [part(values.clone()), matrix(values)] {
                    assert!(
                        matches!(encode_response(&resp), Err(CoreError::Wire(_))),
                        "{resp:?} encoded"
                    );
                }
                // Seal a finite frame, then overwrite one value's bytes
                // (the values are the body's last bytes) and re-seal.
                for resp in [
                    part(vec![0.0, 1.5, 1.5, 0.0]),
                    matrix(vec![0.0, 1.5, 1.5, 0.0]),
                ] {
                    let good = encode_response(&resp).unwrap();
                    let mut body = good[..good.len() - CHECKSUM_LEN].to_vec();
                    let off = body.len() - 8 * (4 - at);
                    body[off..off + 8].copy_from_slice(&bad.to_le_bytes());
                    let sealed = seal(body);
                    assert!(
                        matches!(decode_response(&sealed), Err(CoreError::Wire(_))),
                        "{resp:?} with {bad} at {at} decoded"
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_counts_rejected_without_allocation() {
        // A pairwise response declaring u32::MAX parties with no bytes
        // present must fail cleanly, not allocate gigabytes.
        let mut bytes = header(RESPONSE_MAGIC, 3);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let bytes = seal(bytes);
        assert!(matches!(decode_response(&bytes), Err(CoreError::Wire(_))));
        // An execute-tiles request declaring a huge id list, likewise.
        let mut bytes = header(REQUEST_MAGIC, 9);
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let bytes = seal(bytes);
        assert!(matches!(decode_request(&bytes), Err(CoreError::Wire(_))));
        // A pairwise head declaring a huge id list, likewise.
        let mut bytes = header(RESPONSE_MAGIC, 14);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let bytes = seal(bytes);
        assert!(matches!(decode_response(&bytes), Err(CoreError::Wire(_))));
        // A streamed part declaring a huge value list, likewise.
        let mut bytes = header(RESPONSE_MAGIC, 10);
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // tile id
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let bytes = seal(bytes);
        assert!(matches!(decode_response(&bytes), Err(CoreError::Wire(_))));
        // A snapshot part declaring a huge chunk with no bytes present,
        // in both directions.
        for (magic, kind) in [(REQUEST_MAGIC, 11u8), (RESPONSE_MAGIC, 12u8)] {
            let mut bytes = header(magic, kind);
            bytes.extend_from_slice(&0u64.to_le_bytes()); // seq
            bytes.push(SNAPSHOT_LAYER_STORE);
            bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile len
            let bytes = seal(bytes);
            let rejected = if magic == REQUEST_MAGIC {
                decode_request(&bytes).is_err()
            } else {
                decode_response(&bytes).is_err()
            };
            assert!(rejected, "kind {kind}");
        }
    }

    #[test]
    fn unknown_snapshot_layer_is_rejected() {
        let mut bytes = header(REQUEST_MAGIC, 11);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.push(2); // no such layer
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let bytes = seal(bytes);
        assert!(matches!(decode_request(&bytes), Err(CoreError::Wire(_))));
    }

    /// Published XXH64 (seed 0) vectors: the empty input, inputs that
    /// only reach the 1-byte tail, and a 39-byte input that runs one
    /// stripe and then the 4- and 1-byte tails.
    #[test]
    fn frame_digest_matches_the_published_xxh64_vectors() {
        assert_eq!(frame_digest(b""), 0xef46_db37_51d8_e999);
        assert_eq!(frame_digest(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(frame_digest(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            frame_digest(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    /// Every length from 0 to 100 bytes — below one stripe, one to
    /// three stripes, and every 8/4/1-byte tail after them — moves the
    /// digest under each single-bit flip, a dropped trailing byte, and
    /// an appended byte.
    #[test]
    fn frame_digest_moves_under_every_bit_flip_and_length_change() {
        let input: Vec<u8> = (0..=100u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
            .collect();
        for len in 0..=100 {
            let bytes = &input[..len];
            let digest = frame_digest(bytes);
            for i in 0..len {
                for bit in 0..8 {
                    let mut flipped = bytes.to_vec();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(
                        frame_digest(&flipped),
                        digest,
                        "len {len} byte {i} bit {bit}"
                    );
                }
            }
            if let Some((_, shorter)) = bytes.split_last() {
                assert_ne!(frame_digest(shorter), digest, "len {len} dropped a byte");
            }
            let mut longer = bytes.to_vec();
            longer.push(0);
            assert_ne!(frame_digest(&longer), digest, "len {len} appended a byte");
        }
    }

    /// Fold encoded part frames into a stream digest, as sender and
    /// receiver do.
    fn fold(frames: &[&Vec<u8>]) -> u64 {
        frames
            .iter()
            .fold(FNV1A64_INIT, |h, frame| stream_checksum(h, frame))
    }

    /// A snapshot stream's digest, folded from its part trailers, moves
    /// under a reorder, a dropped part, a layer flip, a changed `seq`,
    /// and a changed chunk byte.
    #[test]
    fn snapshot_stream_checksum_is_order_layer_and_content_sensitive() {
        let part = |seq: u64, layer: u8, chunk: &[u8]| {
            encode_response(&Response::SnapshotPart {
                seq,
                layer,
                chunk: chunk.to_vec(),
            })
            .unwrap()
        };
        let base = part(0, SNAPSHOT_LAYER_STORE, b"abc");
        let next = part(1, SNAPSHOT_LAYER_JOURNAL, b"def");
        let two = fold(&[&base, &next]);
        let one = fold(&[&base]);
        assert_ne!(
            two,
            fold(&[&next, &base]),
            "reordered parts must change the digest"
        );
        assert_ne!(two, one, "a dropped part must change the digest");
        let relayered = part(0, SNAPSHOT_LAYER_JOURNAL, b"abc");
        assert_ne!(
            one,
            fold(&[&relayered]),
            "a layer flip must change the digest"
        );
        let reseq = part(2, SNAPSHOT_LAYER_STORE, b"abc");
        assert_ne!(one, fold(&[&reseq]), "a seq change must change the digest");
        let mutated = part(0, SNAPSHOT_LAYER_STORE, b"abd");
        assert_ne!(
            one,
            fold(&[&mutated]),
            "a mutated chunk must change the digest"
        );
    }

    /// A tile stream's digest, folded from its part trailers, moves
    /// under a reorder, a dropped or duplicated part, and one changed
    /// estimate.
    #[test]
    fn tile_stream_checksum_is_order_and_content_sensitive() {
        let tile = |tile_id: u64, values: Vec<f64>| {
            encode_response(&Response::TileResultPart {
                rows: 9,
                tile: 4,
                segment: TileSegment { tile_id, values },
            })
            .unwrap()
        };
        let a = tile(1, vec![0.5, -2.0]);
        let b = tile(2, vec![3.25]);
        let ab = fold(&[&a, &b]);
        assert_ne!(
            ab,
            fold(&[&b, &a]),
            "reordered parts must change the digest"
        );
        assert_ne!(ab, fold(&[&a]), "a dropped part must change the digest");
        assert_ne!(
            ab,
            fold(&[&a, &a, &b]),
            "a duplicated part must change the digest"
        );
        let mutated = tile(1, vec![0.75, -2.0]);
        assert_ne!(
            ab,
            fold(&[&mutated, &b]),
            "a mutated estimate must change the digest"
        );
    }

    #[test]
    fn frame_io_roundtrips_and_guards() {
        let payload = encode_request(&Request::Knn { party: 1, k: 2 }).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
        // A hostile length prefix is refused before allocation.
        let mut hostile = io::Cursor::new((u32::MAX).to_le_bytes().to_vec());
        assert!(read_frame(&mut hostile).is_err());
        // Mid-frame EOF is an error, not a silent None.
        let mut partial = Vec::new();
        write_frame(&mut partial, &payload).unwrap();
        partial.truncate(partial.len() - 1);
        let mut cursor = io::Cursor::new(partial);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A writer that records each `write_vectored` call and accepts at
    /// most `limit` bytes per call.
    struct Recorder {
        bytes: Vec<u8>,
        calls: usize,
        limit: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.limit - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_sends_prefix_and_payload_in_one_vectored_write() {
        let payload = encode_response(&Response::TopPairs {
            pairs: vec![(1, 2, 0.5)],
        })
        .unwrap();
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&payload);
        let mut whole = Recorder {
            bytes: Vec::new(),
            calls: 0,
            limit: usize::MAX,
        };
        write_frame(&mut whole, &payload).unwrap();
        assert_eq!(whole.bytes, expected);
        assert_eq!(whole.calls, 1, "prefix and payload must share one write");
        // Short writes resume where the last one stopped, across the
        // prefix/payload boundary too.
        let mut trickle = Recorder {
            bytes: Vec::new(),
            calls: 0,
            limit: 3,
        };
        write_frame(&mut trickle, &payload).unwrap();
        assert_eq!(trickle.bytes, expected);
        assert_eq!(trickle.calls, expected.len().div_ceil(3));
    }
}
