//! # dp-server — the protocol-v7 sketch service
//!
//! A shell around [`dp_engine::QueryEngine`]: accept connections on a
//! TCP or unix socket, speak the length-prefixed request/response
//! frames of [`dp_core::protocol`], and let the engine answer. All
//! state lives in the engine; the server adds only transport, spec
//! negotiation, and error mapping — by design, so that a socket answer
//! is **bit-identical** to calling the engine in process (the
//! end-to-end tests assert exactly that).
//!
//! ## Concurrency model
//!
//! The engine sits behind a [`dp_engine::SharedEngine`]: mutations
//! (`Hello`, `Ingest`, memo fills) serialize on its engine lock and
//! publish an immutable epoch-stamped [`dp_engine::EngineSnapshot`];
//! every read-only request (`Pairwise`, `Knn`, `TopPairs`, tile
//! execution and streams) answers from a snapshot, revalidated per
//! thread by one atomic epoch load — the hot read path acquires **no
//! lock** and runs concurrently with ingest and with other reads.
//!
//! Two serve modes ([`ServeMode`]) drive one request brain, a private
//! [`dp_net::FrameService`] that decodes each frame once and answers it
//! with one `match` over every request kind. What a connection must
//! remember between frames (the staged parts of a push-install) is that
//! connection's own state, created with it and dropped with it; replies
//! leave through an emitter the serve mode supplies:
//!
//! * **Threads** — a fixed pool of blocking accept/serve loops, one
//!   connection per thread; the emitter writes each reply frame (each
//!   tile or snapshot part of a stream, each part of a `Pairwise`
//!   matrix) to the socket as soon as it is produced, so the client
//!   decodes one part while the next is encoded. Accepted sockets
//!   carry the configured read/write timeouts
//!   ([`Server::with_conn_timeout`]) so a half-open client cannot pin
//!   its worker thread forever.
//! * **EvLoop** — `dp_net`'s poll-driven nonblocking reactor: the same
//!   thread count runs event loops over a shared listener, with
//!   per-connection buffers, write backpressure, and a typed
//!   [`dp_core::protocol::ERR_BUSY`] overload answer for a reply too
//!   large for the write budget as a whole.
//!
//! ```text
//! client ──frames──▶ Server ──▶ SharedEngine ──▶ EngineSnapshot (reads)
//!        ◀─frames──         └─▶ QueryEngine    (serialized mutations)
//! ```

use dp_core::error::CoreError;
use dp_core::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, stream_checksum,
    write_frame, Request, Response, CAP_SKETCH_F32, CAP_SNAPSHOT, CAP_TILE_STREAM, ERR_BUSY,
    ERR_DUPLICATE_PARTY, ERR_INCOMPATIBLE, ERR_INTERNAL, ERR_KERNEL, ERR_MALFORMED, ERR_PLAN,
    ERR_SPEC, ERR_SPEC_MISMATCH, ERR_UNKNOWN_PARTY, ERR_WORKER, MAX_FRAME_LEN,
    SNAPSHOT_LAYER_JOURNAL, SNAPSHOT_LAYER_STORE,
};
use dp_core::release::Release;
use dp_core::sketcher::{slice_tile_segment, SketcherSpec};
use dp_core::wire::FNV1A64_INIT;
use dp_core::{PairwiseDistances, Tile, TilePlan, TileSegment};
use dp_engine::{
    EngineError, EngineSnapshot, Gather, GatherError, MemoGrowth, PairwiseMemo, QueryEngine,
    SharedEngine, SketchStore,
};
use dp_net::{serve_loop, Control, FrameService, Listener};
use dp_parallel::{par_map, scope_workers};
use std::cell::RefCell;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

mod replication;

use replication::ReplicationLog;
pub use replication::{CoordinatorConfig, RecoveryNote};

// The transport vocabulary moved to `dp-net` (the reactor needs it
// below the server); re-exported so existing `dp_server::{Endpoint,
// Conn}` users are untouched.
pub use dp_net::{connect, connect_with_timeout, Conn, Endpoint};
pub use dp_net::{NetConfig, ReactorCounters};

/// The tile side of every `Pairwise` reply stream; it lives beside the
/// memo whose panel width it is.
pub use dp_engine::PAIRWISE_REPLY_TILE;

/// Map an engine failure onto a protocol error frame.
fn error_response(e: &EngineError) -> Response {
    let (code, message) = match e {
        EngineError::Core(CoreError::Wire(_) | CoreError::ChecksumMismatch { .. }) => {
            (ERR_MALFORMED, e.to_string())
        }
        EngineError::Core(_) => (ERR_INTERNAL, e.to_string()),
        EngineError::Incompatible { .. } => (ERR_INCOMPATIBLE, e.to_string()),
        EngineError::DuplicateParty(_) => (ERR_DUPLICATE_PARTY, e.to_string()),
        EngineError::UnknownParty(_) => (ERR_UNKNOWN_PARTY, e.to_string()),
        EngineError::Empty => (ERR_INTERNAL, e.to_string()),
        EngineError::PlanMismatch { .. } | EngineError::UnknownTile { .. } => {
            (ERR_PLAN, e.to_string())
        }
        EngineError::KernelMismatch { .. } => (ERR_KERNEL, e.to_string()),
    };
    Response::Error { code, message }
}

/// Whether a client failure may have left the connection's
/// request/response framing desynchronized. A clean [`ClientError::Remote`]
/// is a completed exchange (the stream stays usable); everything else —
/// transport failure, timeout (the late response is still in the
/// socket), undecodable or wrong-kind frames — means later exchanges on
/// the same stream could pair requests with stale responses.
fn desynchronizes(e: &ClientError) -> bool {
    !matches!(e, ClientError::Remote { .. })
}

/// One worker's pool slot: the live connection (or `None` after a
/// poisoning failure) plus the identity needed to revive it.
struct WorkerState {
    slot: Mutex<Option<Client>>,
    /// Where to reconnect after a failure; `None` disables revival for
    /// this worker (the slot stays poisoned until coordinator restart).
    endpoint: Option<Endpoint>,
    /// Read timeout applied to revived connections.
    timeout: Option<Duration>,
}

/// Where a reviving replica's journal replay starts: the journal index
/// to skip to for a replica already holding `have` rows, given the
/// journal's base row and frame count.
///
/// # Errors
/// A replica below the base predates the journal suffix — [`Shards::resync`]
/// installs the log's snapshot first, so this only fails when no
/// snapshot exists; one beyond `base + frames` holds state this
/// coordinator never produced. Both are refused rather than guessed at.
fn replay_skip(base: usize, frames: usize, have: usize) -> Result<usize, String> {
    if have < base {
        return Err(format!(
            "replica holds {have} rows but the journal starts at {base} — \
             it predates this coordinator's log"
        ));
    }
    if have - base > frames {
        return Err(format!(
            "replica holds {have} rows, journal covers {base}..{} — diverged ahead",
            base + frames
        ));
    }
    Ok(have - base)
}

/// Coordinator fault-tolerance counters (see
/// [`Server::coordinator_stats`]). All values are since bind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Tiles executed remotely by the last sharded query — on an
    /// incremental (grown-store) query this is the frontier size, not
    /// the full plan.
    pub last_query_tiles: u64,
    /// Dispatch rounds the last sharded query took (1 = no failures).
    pub last_query_rounds: u64,
    /// Re-dispatch rounds across all queries (a round > 1 means a
    /// shard's missing tiles went to surviving workers).
    pub redispatches: u64,
    /// Poisoned slots successfully reconnected.
    pub revives: u64,
    /// Revivals that replayed at least one journaled ingest.
    pub resyncs: u64,
    /// Frames currently in the replication log's journal suffix (a
    /// gauge: compaction shrinks it).
    pub journal_len: u64,
    /// Generation stamped into the log's current snapshot (a gauge; 0
    /// until a snapshot exists).
    pub snapshot_generation: u64,
    /// Journal-into-snapshot compactions since bind.
    pub compactions: u64,
    /// 1 when this bind recovered replicated state from disk.
    pub recoveries: u64,
    /// Journal suffix frames replayed into replicas across all
    /// revivals — with compaction, strictly less than the total ingest
    /// history a full replay would cost.
    pub replayed_frames: u64,
    /// Revivals that installed the log's snapshot (replica predated the
    /// journal suffix) before the replay.
    pub snapshot_installs: u64,
}

#[derive(Default)]
struct StatsCells {
    last_query_tiles: AtomicU64,
    last_query_rounds: AtomicU64,
    redispatches: AtomicU64,
    revives: AtomicU64,
    resyncs: AtomicU64,
    journal_len: AtomicU64,
    snapshot_generation: AtomicU64,
    compactions: AtomicU64,
    recoveries: AtomicU64,
    replayed_frames: AtomicU64,
    snapshot_installs: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> CoordinatorStats {
        CoordinatorStats {
            last_query_tiles: self.last_query_tiles.load(Ordering::SeqCst),
            last_query_rounds: self.last_query_rounds.load(Ordering::SeqCst),
            redispatches: self.redispatches.load(Ordering::SeqCst),
            revives: self.revives.load(Ordering::SeqCst),
            resyncs: self.resyncs.load(Ordering::SeqCst),
            journal_len: self.journal_len.load(Ordering::SeqCst),
            snapshot_generation: self.snapshot_generation.load(Ordering::SeqCst),
            compactions: self.compactions.load(Ordering::SeqCst),
            recoveries: self.recoveries.load(Ordering::SeqCst),
            replayed_frames: self.replayed_frames.load(Ordering::SeqCst),
            snapshot_installs: self.snapshot_installs.load(Ordering::SeqCst),
        }
    }
}

/// One worker handed to [`Server::bind_coordinator`]: a connected
/// [`Client`], and optionally the endpoint + read timeout that let the
/// coordinator **revive** the worker after a failure (reconnect, replay
/// `Hello` + the ingest journal). Without an endpoint the slot stays
/// poisoned once it fails, exactly like the pre-resync coordinator.
pub struct WorkerEntry {
    /// The connected worker client.
    pub client: Client,
    /// Reconnect address for revival; `None` disables revival.
    pub endpoint: Option<Endpoint>,
    /// Read timeout applied to revived connections.
    pub timeout: Option<Duration>,
}

impl WorkerEntry {
    /// A worker that cannot be revived after a failure.
    #[must_use]
    pub fn new(client: Client) -> Self {
        Self {
            client,
            endpoint: None,
            timeout: None,
        }
    }

    /// Enable revival: reconnect to `endpoint` (with `timeout` on the
    /// fresh socket) after a poisoning failure.
    #[must_use]
    pub fn reconnectable(client: Client, endpoint: Endpoint, timeout: Option<Duration>) -> Self {
        Self {
            client,
            endpoint: Some(endpoint),
            timeout,
        }
    }
}

/// The coordinator role's worker pool: one connection slot per worker
/// server, the tile side sharded plans use, and the replication
/// journal. The all-pairs memo lives in the engine, not here.
///
/// A worker slot is **poisoned** (set to `None`) after any failure that
/// may have desynchronized its stream or its replica. A poisoned slot
/// with a known endpoint is lazily **revived** at the next sharded
/// query: fresh connection, `Hello` replay, journal catch-up. Sharded
/// queries survive worker failure by re-dispatching the failed shard's
/// missing tile ids to surviving workers; mutations survive it because
/// the journal lets the replica catch up later.
struct Shards {
    workers: Vec<WorkerState>,
    tile: usize,
    /// Serializes the coordinator's replicated mutations (`Hello`,
    /// `Ingest`): local append, journal append, and worker broadcast
    /// happen as one unit under this lock, **without** holding the
    /// engine lock through the broadcast. That keeps worker row order
    /// identical to the local store (the gather addresses matrix cells
    /// by local row index, so replica order is a correctness
    /// invariant), while a wedged worker stalls only other mutations —
    /// never local queries. Revival also runs under this lock, so a
    /// journal replay can never interleave with a live broadcast.
    order: Mutex<()>,
    /// The replication log revived workers catch up from: snapshot +
    /// journal suffix, optionally persisted to disk
    /// ([`CoordinatorConfig::data_dir`]).
    journal: Mutex<ReplicationLog>,
    stats: StatsCells,
}

impl Shards {
    /// Lock worker `w`'s slot, recovering from a poisoned mutex: a
    /// connection thread that panicked mid-exchange leaves the stream
    /// in an unknown state, so the slot content is discarded (the
    /// worker revives like any other failure) and the mutex healed.
    fn slot_lock(&self, w: usize) -> MutexGuard<'_, Option<Client>> {
        let mutex = &self.workers[w].slot;
        mutex.lock().unwrap_or_else(|poison| {
            mutex.clear_poison();
            let mut guard = poison.into_inner();
            *guard = None;
            guard
        })
    }

    /// Lock the mutation order token (content-free: poisoning carries
    /// no torn state, so recovery is just healing the mutex).
    fn order_lock(&self) -> MutexGuard<'_, ()> {
        self.order.lock().unwrap_or_else(|poison| {
            self.order.clear_poison();
            poison.into_inner()
        })
    }

    /// Lock the journal (appends are atomic `Vec::push`es, so a
    /// poisoned mutex still holds a consistent log).
    fn journal_lock(&self) -> MutexGuard<'_, ReplicationLog> {
        self.journal.lock().unwrap_or_else(|poison| {
            self.journal.clear_poison();
            poison.into_inner()
        })
    }

    /// Run one exchange against worker `w`, poisoning its slot on any
    /// failure that may have desynchronized the stream.
    fn with_worker<T>(
        &self,
        w: usize,
        exchange: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, String> {
        let mut slot = self.slot_lock(w);
        let worker = slot
            .as_mut()
            .ok_or_else(|| format!("worker {w} connection lost after an earlier failure"))?;
        exchange(worker).map_err(|e| {
            let message = format!("worker {w}: {e}");
            if desynchronizes(&e) {
                *slot = None;
            }
            message
        })
    }

    /// Drop worker `w` from the pool (its replica or stream is suspect;
    /// the next sharded query revives and resyncs it if an endpoint is
    /// known).
    fn poison(&self, w: usize) {
        *self.slot_lock(w) = None;
    }

    /// Forward a replicated mutation to every **live** worker. A
    /// poisoned slot is skipped — the journal holds what it missed, and
    /// revival replays it. A worker that fails the exchange, refuses,
    /// or echoes a row count `accept` rejects is poisoned; the mutation
    /// itself still succeeds for the client (the coordinator's local
    /// engine is the source of truth).
    fn broadcast_mutation(&self, request: &Request, accept: &dyn Fn(&Response) -> bool) {
        for w in 0..self.workers.len() {
            let mut slot = self.slot_lock(w);
            let Some(worker) = slot.as_mut() else {
                continue;
            };
            match worker.call(request) {
                Ok(response) => {
                    if !accept(&response) {
                        // Refused or diverged (wrong row echo): the
                        // replica no longer mirrors the local store.
                        *slot = None;
                    }
                }
                Err(_) => *slot = None,
            }
        }
    }

    /// Make worker `w` usable, reviving a poisoned slot when its
    /// endpoint is known: reconnect, replay the journaled `Hello`, and
    /// catch the replica up from the ingest journal. Runs under the
    /// order lock so the replay can never interleave with a concurrent
    /// mutation broadcast.
    fn ensure_live(&self, w: usize) -> bool {
        if self.slot_lock(w).is_some() {
            return true;
        }
        let Some(endpoint) = self.workers[w].endpoint.clone() else {
            return false;
        };
        let _order = self.order_lock();
        let mut slot = self.slot_lock(w);
        if slot.is_some() {
            return true; // another thread revived it meanwhile
        }
        match self.resync(&endpoint, self.workers[w].timeout) {
            Ok(worker) => {
                *slot = Some(worker);
                self.stats.revives.fetch_add(1, Ordering::SeqCst);
                true
            }
            Err(_) => false,
        }
    }

    /// Connect a fresh client and bring the worker's replica to the
    /// journal's state. The replica's current row count comes from the
    /// `Hello` replay (or, on the adopt-without-`Hello` path where no
    /// spec was journaled, from a `PlanPairwise` row probe — never a
    /// blind replay from frame 0, which would wrongly refuse a healthy
    /// reconnecting worker as a duplicate). A replica that predates the
    /// journal suffix (`have < base` — typically a freshly restarted
    /// worker after a compaction) first receives the log's **snapshot**
    /// as a streamed push-install; the journal suffix is then replayed
    /// with the usual row-echo discipline, so catch-up costs the suffix
    /// length, never the full ingest history. A replica ahead of the
    /// log's tip (see [`replay_skip`]) is refused.
    ///
    /// The connect itself is bounded by the worker's configured timeout
    /// (this runs under the order lock, so an unbounded TCP connect to
    /// a black-holed host would stall every mutation with it).
    fn resync(&self, endpoint: &Endpoint, timeout: Option<Duration>) -> Result<Client, String> {
        let mut client = match timeout {
            Some(t) => Client::connect_timeout(endpoint, t),
            None => Client::connect(endpoint),
        }
        .map_err(|e| format!("reconnect {endpoint}: {e}"))?;
        if let Some(t) = timeout {
            client
                .set_read_timeout(Some(t))
                .map_err(|e| format!("set timeout: {e}"))?;
        }
        let journal = self.journal_lock();
        let mut have;
        if let Some(spec_json) = journal.spec_json.clone() {
            match client.call(&Request::Hello {
                spec_json,
                caps: CLIENT_CAPS,
            }) {
                Ok(Response::Hello { rows, .. }) => {
                    have = usize::try_from(rows).unwrap_or(usize::MAX);
                }
                Ok(Response::Error { code, message }) => {
                    return Err(format!("refused the journaled spec ({code}): {message}"))
                }
                Ok(other) => return Err(format!("unexpected hello answer {other:?}")),
                Err(e) => return Err(format!("hello replay: {e}")),
            }
        } else {
            match client.call(&Request::PlanPairwise { tile: 1 }) {
                Ok(Response::Plan { rows, .. }) => {
                    have = usize::try_from(rows).unwrap_or(usize::MAX);
                }
                Ok(Response::Error { code, message }) => {
                    return Err(format!("row probe refused ({code}): {message}"))
                }
                Ok(other) => return Err(format!("unexpected row-probe answer {other:?}")),
                Err(e) => return Err(format!("row probe: {e}")),
            }
        }
        if have < journal.base {
            // The replica predates the journal suffix (compaction folded
            // the rows it is missing): push-install the snapshot, then
            // replay only the suffix. Without a snapshot — a pre-seeded
            // coordinator that never compacted — the old refusal stands.
            let Some(snapshot) = journal.snapshot.clone() else {
                return Err(format!(
                    "replica holds {have} rows but the journal starts at {} and no \
                     snapshot exists — it predates this coordinator's log",
                    journal.base
                ));
            };
            let rows = client
                .install_snapshot(
                    &snapshot,
                    journal.base as u64,
                    journal.snapshot_generation,
                    0,
                )
                .map_err(|e| format!("snapshot install: {e}"))?;
            if rows != journal.base as u64 {
                return Err(format!(
                    "snapshot install diverged: replica reports {rows} rows, snapshot \
                     covers {}",
                    journal.base
                ));
            }
            self.stats.snapshot_installs.fetch_add(1, Ordering::SeqCst);
            have = journal.base;
        }
        let skip = replay_skip(journal.base, journal.frames.len(), have)?;
        for (i, frame) in journal.frames.iter().enumerate().skip(skip) {
            let expect = (journal.base + i + 1) as u64;
            match client.call(&Request::Ingest {
                release_frame: frame.clone(),
            }) {
                Ok(Response::Ingested { rows, .. }) if rows == expect => {}
                Ok(Response::Ingested { rows, .. }) => {
                    return Err(format!(
                        "resync diverged: replica reports {rows} rows after journal frame {i} \
                         (expected {expect})"
                    ))
                }
                Ok(Response::Error { code, message }) => {
                    return Err(format!("resync refused ({code}): {message}"))
                }
                Ok(other) => return Err(format!("unexpected resync answer {other:?}")),
                Err(e) => return Err(format!("resync replay: {e}")),
            }
        }
        if journal.frames.len() > skip {
            self.stats.resyncs.fetch_add(1, Ordering::SeqCst);
            self.stats
                .replayed_frames
                .fetch_add((journal.frames.len() - skip) as u64, Ordering::SeqCst);
        }
        Ok(client)
    }

    /// Execute one chunk of tile ids on worker `w` over the streamed
    /// exchange, feeding segments into the shared gather as they
    /// arrive. Every worker speaks it: [`CAP_TILE_STREAM`] is part of
    /// every protocol-v7 server's `Hello`.
    ///
    /// **Any** failure poisons the slot: transport failures via
    /// [`Shards::with_worker`], and completed exchanges whose content
    /// is wrong — a typed refusal like `ERR_PLAN` (the replica is
    /// behind) or a segment the gather rejects (it executed a different
    /// plan) — explicitly. Without that, a diverged-but-responsive
    /// replica would be handed tiles round after round, refusing each
    /// time, and burn the re-dispatch budget instead of being resynced.
    fn run_shard(
        &self,
        w: usize,
        plan: &TilePlan,
        ids: &[u64],
        gather: &Mutex<Gather<MemoGrowth>>,
    ) -> Result<(), String> {
        let mut semantic: Option<String> = None;
        let exchanged = self.with_worker(w, |worker| {
            worker.execute_tiles_streamed(
                plan.n() as u64,
                plan.tile() as u32,
                ids,
                &mut |segment| {
                    if semantic.is_some() {
                        return;
                    }
                    if let Err(e) = gather_lock(gather).accept(&segment) {
                        semantic = Some(format!("worker {w}: bad streamed segment: {e}"));
                    }
                },
            )
        });
        let outcome = match (exchanged, semantic) {
            (Err(message), _) | (Ok(_), Some(message)) => Err(message),
            (Ok(_), None) => Ok(()),
        };
        if outcome.is_err() {
            self.poison(w);
        }
        outcome
    }

    /// The fault-tolerant sharded all-pairs pass over the first `n`
    /// rows of `shared`'s store. A failure comes back as the error
    /// frame to send.
    ///
    /// * **One memo**: the gather grows the engine's all-pairs memo,
    ///   read under a brief [`SharedEngine::mutate`], and the finished
    ///   memo goes back to the engine ([`QueryEngine::adopt_matrix`]).
    ///   The publish that follows carries it, so repeat `Pairwise([])`,
    ///   `TopPairs` and subset reads answer lock-free from the snapshot.
    /// * **Incremental**: a store grown since the last pass executes
    ///   only the tiles touching the new rows, and the grown memo
    ///   shares every complete panel of the old one ([`Gather::grow`]).
    /// * **Re-dispatch**: a failed or timed-out shard poisons its
    ///   worker; the gather's [`Gather::missing_ids`] are re-cut by
    ///   [`TilePlan::split`] across the surviving (or revived) workers,
    ///   bounded by a round budget.
    ///   The query fails with a typed `ERR_WORKER` only when *no*
    ///   worker can serve.
    /// * **Bit-identity**: every tile is still executed exactly once by
    ///   the shared kernel, so the answer is bit-identical to the local
    ///   engine no matter which worker computed what, in which round.
    ///
    /// Runs **outside** the engine lock (the caller passes the row
    /// count of a snapshot), so a slow worker never blocks other
    /// clients' local queries. A store that grows mid-flight shows up
    /// as a worker-side `ERR_PLAN` (row-count guard), never as a torn
    /// matrix.
    #[allow(clippy::result_large_err)]
    fn sharded_pairwise(
        &self,
        shared: &SharedEngine,
        n: usize,
    ) -> Result<Arc<PairwiseMemo>, Response> {
        let plan = TilePlan::new(n, self.tile);
        if !plan.is_enumerable() {
            return Err(Response::Error {
                code: ERR_PLAN,
                message: format!("a plan over {n} rows is too large to enumerate"),
            });
        }
        let memo = shared.mutate(|engine| engine.memo());
        // A memo wider than this pass (a concurrent pass over a grown
        // store adopted it first) cannot seed it.
        let seed = if memo.n() <= n { memo } else { Arc::default() };
        let gather = Gather::grow(plan, &seed);
        // Let the adoption below free the old partial panel.
        drop(seed);
        let mut pending = gather.missing_ids();
        self.stats
            .last_query_tiles
            .store(pending.len() as u64, Ordering::SeqCst);
        let gather = Mutex::new(gather);
        let mut rounds = 0u64;
        let mut last_error = String::new();
        while !pending.is_empty() {
            let live: Vec<usize> = (0..self.workers.len())
                .filter(|&w| self.ensure_live(w))
                .collect();
            if live.is_empty() {
                self.stats.last_query_rounds.store(rounds, Ordering::SeqCst);
                return Err(worker_error(format!(
                    "no live worker can serve ({} tiles undone{})",
                    pending.len(),
                    if last_error.is_empty() {
                        String::new()
                    } else {
                        format!("; last failure: {last_error}")
                    }
                )));
            }
            rounds += 1;
            if rounds > self.workers.len() as u64 + 2 {
                self.stats.last_query_rounds.store(rounds, Ordering::SeqCst);
                return Err(worker_error(format!(
                    "re-dispatch budget exhausted after {rounds} rounds \
                     ({} tiles undone; last failure: {last_error})",
                    pending.len()
                )));
            }
            if rounds > 1 {
                self.stats.redispatches.fetch_add(1, Ordering::SeqCst);
            }
            let chunks = plan.split(&pending, live.len());
            let shards: Vec<(usize, Vec<u64>)> = live.into_iter().zip(chunks).collect();
            let results: Vec<Result<(), String>> = par_map(&shards, shards.len(), |_, (w, ids)| {
                if ids.is_empty() {
                    return Ok(());
                }
                self.run_shard(*w, &plan, ids, &gather)
            });
            if let Some(Err(message)) = results.into_iter().find(Result::is_err) {
                last_error = message;
            }
            pending = gather_lock(&gather).missing_ids();
        }
        self.stats.last_query_rounds.store(rounds, Ordering::SeqCst);
        let gather = gather.into_inner().expect("gather mutex");
        let memo = Arc::new(
            gather
                .finish()
                .map_err(|e| worker_error(format!("gather failed: {e}")))?,
        );
        shared.mutate(|engine| engine.adopt_matrix(Arc::clone(&memo)));
        Ok(memo)
    }
}

/// Lock a per-query gather, recovering from a poisoned mutex.
///
/// Healing is sound here because [`Gather::accept`] marks a tile placed
/// only *after* its values are fully scattered into the memo — a
/// shard thread that panicked mid-accept leaves that tile missing, so
/// the re-dispatch loop simply re-executes it; the poison flag carries
/// no torn state worth preserving, only a permanent denial of service.
fn gather_lock(gather: &Mutex<Gather<MemoGrowth>>) -> MutexGuard<'_, Gather<MemoGrowth>> {
    gather.lock().unwrap_or_else(|poison| {
        gather.clear_poison();
        poison.into_inner()
    })
}

fn worker_error(message: String) -> Response {
    Response::Error {
        code: ERR_WORKER,
        message,
    }
}

/// How [`Server::serve_mode`] drives connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// One blocking thread per connection from a fixed accept pool —
    /// the original model, kept as a fallback and as the reference for
    /// bit-identity tests.
    #[default]
    Threads,
    /// `dp_net`'s poll-driven nonblocking reactor: the same thread
    /// count runs event loops over one shared listener; slow or wedged
    /// clients cost a buffer, never a thread.
    EvLoop,
}

impl ServeMode {
    /// Parse `threads` or `evloop` (the `--serve-mode` values).
    ///
    /// # Errors
    /// A human-readable message on anything else.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "threads" => Ok(Self::Threads),
            "evloop" => Ok(Self::EvLoop),
            other => Err(format!("serve mode '{other}' must be threads or evloop")),
        }
    }
}

/// A point-in-time view of every counter the server keeps
/// ([`Server::stats`]): the published snapshot epoch, the transport
/// counters (fed by both serve modes), and — in coordinator mode — the
/// fault-tolerance counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Epoch of the latest published [`EngineSnapshot`] (strictly
    /// increasing; bumps on every effective mutation).
    pub snapshot_epoch: u64,
    /// Transport counters: open connections, frames in/out, busy
    /// rejections.
    pub reactor: ReactorCounters,
    /// Coordinator fault-tolerance counters (`None` in the plain role).
    pub coordinator: Option<CoordinatorStats>,
}

/// The protocol-v7 sketch service.
///
/// In its plain role the server answers every request from its own
/// engine. Bound via [`Server::bind_coordinator`] it additionally
/// **fans out**: ingests are broadcast to a pool of worker servers, and
/// a full all-pairs query is answered by sharding the engine's
/// [`TilePlan`] across the pool (`ExecuteTilesStream` per worker,
/// gathered by tile id) — bit-identical to the local answer, because
/// every path runs the same per-tile kernel.
pub struct Server {
    endpoint: Endpoint,
    listener: Listener,
    /// The engine behind its snapshot-publishing front: reads run
    /// lock-free against published snapshots, mutations serialize.
    shared: SharedEngine,
    shutdown: AtomicBool,
    /// Blocking accept loops currently running — the number of wake-up
    /// connections a thread-mode shutdown must make to unblock them.
    active_workers: AtomicUsize,
    /// The coordinator role's worker pool, when in coordinator mode.
    shards: Option<Shards>,
    /// Reactor tuning (event-loop mode); the frame-length cap also
    /// bounds thread-mode replies via the shared encode path.
    net: dp_net::NetConfig,
    /// Read/write timeouts applied to thread-mode accepted sockets, so
    /// a half-open client cannot pin its serving thread forever.
    conn_timeout: Option<Duration>,
    /// Transport counters, fed by both serve modes.
    reactor_stats: dp_net::ReactorStats,
}

impl Server {
    /// Bind to an endpoint, serving the given engine. For unix
    /// endpoints a stale socket file from a previous run is removed
    /// first.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(endpoint: Endpoint, engine: QueryEngine) -> io::Result<Self> {
        let listener = Listener::bind(&endpoint)?;
        Ok(Self {
            endpoint,
            listener,
            shared: SharedEngine::new(engine),
            shutdown: AtomicBool::new(false),
            active_workers: AtomicUsize::new(0),
            shards: None,
            net: dp_net::NetConfig::default(),
            conn_timeout: None,
            reactor_stats: dp_net::ReactorStats::new(),
        })
    }

    /// Set the read/write timeouts applied to every accepted socket in
    /// **thread** mode (`None` = never time out, the pre-PR-6
    /// behavior). Event-loop mode needs no socket timeouts: a wedged
    /// client there costs a buffer, not a thread.
    #[must_use]
    pub fn with_conn_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.conn_timeout = timeout;
        self
    }

    /// Override the reactor tuning knobs (frame cap, write budget,
    /// connection cap, tick) used by event-loop mode.
    #[must_use]
    pub fn with_net_config(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Bind in **coordinator mode**: serve the same protocol, but
    /// broadcast every accepted `Hello`/`Ingest` to the given worker
    /// pool and answer full all-pairs queries by sharding the tile
    /// plan across it (tiles of side `tile`, clamped ≥ 1). A
    /// coordinator `Shutdown` also shuts the workers down.
    ///
    /// The coordinator keeps a complete local engine (the workers are
    /// replicas), so point, k-NN, subset, and top-pair queries stay
    /// local; only the quadratic all-pairs pass fans out.
    ///
    /// **Fault model.** The coordinator's local engine is the source of
    /// truth; workers are caches of it.
    ///
    /// * A mutation (`Hello`/`Ingest`) is journaled locally and
    ///   broadcast to live workers; a worker that fails, refuses, or
    ///   echoes a diverged row count is poisoned, but the mutation
    ///   still succeeds for the client.
    /// * A sharded query that loses a worker re-dispatches that shard's
    ///   missing tiles to the survivors (bounded rounds); it answers
    ///   `ERR_WORKER` only when *no* worker can serve.
    /// * A poisoned worker whose [`WorkerEntry`] carries an endpoint is
    ///   revived at the next sharded query: fresh connection, `Hello`
    ///   replay, and catch-up from the coordinator's ingest journal —
    ///   no coordinator restart.
    ///
    /// # Errors
    /// Propagates bind failures. An empty `workers` pool degenerates to
    /// the plain role.
    pub fn bind_coordinator(
        endpoint: Endpoint,
        engine: QueryEngine,
        workers: Vec<WorkerEntry>,
        tile: usize,
    ) -> io::Result<Self> {
        Self::bind_coordinator_with(
            endpoint,
            engine,
            workers,
            CoordinatorConfig {
                tile,
                ..CoordinatorConfig::default()
            },
        )
    }

    /// [`Server::bind_coordinator`] with the full durability knobs:
    /// journal compaction threshold and an on-disk data directory.
    ///
    /// With a data directory, replicated state already persisted there
    /// is **recovered first** — snapshot decoded, journal suffix
    /// replayed, corruption degraded to the valid prefix with typed
    /// [`RecoveryNote`]s on stderr — and the recovered engine replaces
    /// the caller's. That is what makes a coordinator restart after
    /// SIGKILL resume where the dead process left off. The reconciled
    /// state is rewritten to disk at bind, so every load starts clean.
    ///
    /// A non-empty engine (recovered or caller-seeded) gets an
    /// immediate snapshot covering its rows, keeping the log invariant
    /// — the snapshot always covers `[0, base)` — so a fresh worker can
    /// always be caught up by snapshot + suffix.
    ///
    /// Unlike [`Server::bind_coordinator`], an empty `workers` pool
    /// stays in coordinator mode when durability is configured (the
    /// journal must still be written); all-pairs queries then answer
    /// locally.
    ///
    /// # Errors
    /// Propagates bind failures and data-directory creation failures.
    pub fn bind_coordinator_with(
        endpoint: Endpoint,
        engine: QueryEngine,
        workers: Vec<WorkerEntry>,
        config: CoordinatorConfig,
    ) -> io::Result<Self> {
        let CoordinatorConfig {
            tile,
            compact_threshold,
            data_dir,
        } = config;
        let mut engine = engine;
        let mut notes = Vec::new();
        let mut recovered = false;
        let mut spec_json = None;
        let mut snapshot_bytes = None;
        let mut snapshot_generation = 0u64;
        let mut frames: Vec<Vec<u8>> = Vec::new();
        if let Some(dir) = &data_dir {
            std::fs::create_dir_all(dir)?;
            let state = replication::load_dir(dir);
            recovered = state.holds_state();
            notes = state.notes;
            spec_json = state.spec_json;
            if let Some((bytes, store, generation)) = state.snapshot {
                // The disk image wins over the caller's engine: the
                // caller at a restart passes a fresh empty engine, and
                // the store row order (hence every matrix) must come
                // from what the dead process had accepted.
                engine.replace_store(store, generation);
                snapshot_bytes = Some(bytes);
                snapshot_generation = generation;
            }
            for (index, frame) in state.suffix.into_iter().enumerate() {
                match engine.ingest_bytes(&frame) {
                    Ok(_) => frames.push(frame),
                    Err(_) => {
                        notes.push(RecoveryNote::FrameRefused { index });
                        break;
                    }
                }
            }
        }
        for note in &notes {
            eprintln!("dp-server: recovery: {note}");
        }
        if spec_json.is_none() {
            spec_json = engine.store().spec().map(SketcherSpec::to_json);
        }
        let base = engine.store().n() - frames.len();
        if snapshot_bytes.is_none() && base > 0 {
            // Pre-seeded engine with no disk image: encode the initial
            // snapshot now so the [0, base) rows are always servable.
            let generation = engine.generation();
            snapshot_bytes = Some(engine.store().encode_snapshot(generation));
            snapshot_generation = generation;
        }
        let journal = ReplicationLog::assemble(
            spec_json,
            base,
            snapshot_bytes,
            snapshot_generation,
            frames,
            compact_threshold,
            data_dir.clone(),
        );
        let stats = StatsCells::default();
        stats
            .recoveries
            .store(u64::from(recovered), Ordering::SeqCst);
        stats
            .journal_len
            .store(journal.frames.len() as u64, Ordering::SeqCst);
        stats
            .snapshot_generation
            .store(journal.snapshot_generation, Ordering::SeqCst);
        let mut server = Self::bind(endpoint, engine)?;
        if !workers.is_empty() || data_dir.is_some() || compact_threshold > 0 {
            server.shards = Some(Shards {
                workers: workers
                    .into_iter()
                    .map(|entry| WorkerState {
                        slot: Mutex::new(Some(entry.client)),
                        endpoint: entry.endpoint,
                        timeout: entry.timeout,
                    })
                    .collect(),
                tile: tile.max(1),
                order: Mutex::new(()),
                journal: Mutex::new(journal),
                stats,
            });
        }
        Ok(server)
    }

    /// Number of worker servers this server coordinates (0 in the plain
    /// role).
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.shards.as_ref().map_or(0, |s| s.workers.len())
    }

    /// Fault-tolerance counters of the coordinator role (`None` in the
    /// plain role): frontier sizes, re-dispatch rounds, worker revives
    /// and journal resyncs — the observability hooks the chaos tests
    /// assert against.
    #[must_use]
    pub fn coordinator_stats(&self) -> Option<CoordinatorStats> {
        self.shards.as_ref().map(|s| s.stats.snapshot())
    }

    /// The endpoint actually bound. For `tcp:HOST:0` this carries the
    /// kernel-assigned port, so callers can connect.
    #[must_use]
    pub fn local_endpoint(&self) -> Endpoint {
        self.listener.local_endpoint(&self.endpoint)
    }

    /// Every counter the server keeps: the published snapshot epoch,
    /// the transport counters (both serve modes feed the same cells),
    /// and the coordinator fault-tolerance counters when coordinating.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            snapshot_epoch: self.shared.epoch(),
            reactor: self.reactor_stats.snapshot(),
            coordinator: self.coordinator_stats(),
        }
    }

    /// Serve until a [`Request::Shutdown`] arrives, with `workers`
    /// blocking accept loops on the `dp_parallel` scoped pool
    /// (`workers` is clamped to at least 1). Equivalent to
    /// [`Server::serve_mode`] with [`ServeMode::Threads`].
    pub fn serve(&self, workers: usize) {
        self.serve_mode(ServeMode::Threads, workers);
    }

    /// Serve until a [`Request::Shutdown`] arrives, with `workers`
    /// threads (clamped to at least 1) in the given mode: blocking
    /// accept loops ([`ServeMode::Threads`]) or nonblocking reactor
    /// loops over one shared listener ([`ServeMode::EvLoop`]). Both
    /// modes run the identical request brain, so their answers are
    /// bit-identical frame for frame.
    pub fn serve_mode(&self, mode: ServeMode, workers: usize) {
        let workers = workers.max(1);
        match mode {
            ServeMode::Threads => self.serve_threads(workers),
            ServeMode::EvLoop => self.serve_evloop(workers),
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }

    fn serve_threads(&self, workers: usize) {
        self.active_workers.store(workers, Ordering::SeqCst);
        scope_workers(workers, |_| {
            while !self.shutdown.load(Ordering::SeqCst) {
                let Ok(conn) = self.listener.accept() else {
                    break;
                };
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // The wedged-client guard: without timeouts a half-open
                // peer (or one that never drains its socket) pins this
                // thread forever, and enough of them starve the accept
                // pool entirely.
                if let Some(timeout) = self.conn_timeout {
                    let _ = conn.set_read_timeout(Some(timeout));
                    let _ = conn.set_write_timeout(Some(timeout));
                }
                self.reactor_stats.conn_opened();
                self.serve_conn(conn);
                self.reactor_stats.conn_closed();
            }
        });
        self.active_workers.store(0, Ordering::SeqCst);
    }

    fn serve_evloop(&self, workers: usize) {
        let service = Service(self);
        scope_workers(workers, |_| {
            // Per-loop failures (poll itself failing) end that loop;
            // the listener teardown below unblocks nothing because
            // reactor loops never block indefinitely.
            let _ = serve_loop(
                &self.listener,
                &service,
                &self.net,
                &self.shutdown,
                &self.reactor_stats,
            );
        });
        // Leave the listener blocking again so a later thread-mode
        // serve on the same server accepts normally.
        let _ = self.listener.set_nonblocking(false);
    }

    /// Serve one connection (thread mode): hand each request frame to
    /// the [`Service`], whose emitter writes every reply frame to the
    /// socket as soon as it is produced, until the peer hangs up, times
    /// out, or asks for shutdown.
    fn serve_conn(&self, mut conn: Conn) {
        let service = Service(self);
        let mut staging = None;
        while let Ok(Some(payload)) = read_frame(&mut conn) {
            self.reactor_stats.frame_in();
            let control = service.handle_frame(&mut staging, &payload, &mut |bytes| {
                self.reactor_stats.frames_out(1);
                write_frame(&mut conn, &bytes)
            });
            match control {
                Ok(Control::Continue) => {}
                Ok(Control::Shutdown) => {
                    self.wake_sleeping_workers();
                    return;
                }
                Err(_) => return,
            }
        }
    }

    /// The snapshot the read-only request arms answer from. Per-thread
    /// cached `Arc`, revalidated by one atomic epoch load
    /// ([`SharedEngine::refresh`]) — on the hot path (epoch unchanged)
    /// no lock is touched at all. The cache is keyed by server address;
    /// serving threads are scoped inside `serve_mode`, so a cached
    /// entry can never outlive its server (no stale-address reuse).
    fn current_snapshot(&self) -> Arc<EngineSnapshot> {
        thread_local! {
            static CACHE: RefCell<Option<(usize, Arc<EngineSnapshot>)>> =
                const { RefCell::new(None) };
        }
        let key = self as *const Self as usize;
        CACHE.with(|cell| {
            let mut cell = cell.borrow_mut();
            match cell.as_mut() {
                Some((cached_key, snapshot)) if *cached_key == key => {
                    self.shared.refresh(snapshot);
                    Arc::clone(snapshot)
                }
                _ => {
                    let snapshot = self.shared.snapshot();
                    *cell = Some((key, Arc::clone(&snapshot)));
                    snapshot
                }
            }
        })
    }

    /// The matrix a `Pairwise` request is answered from, with the party
    /// ids it is indexed by — shared, never copied:
    ///
    /// * a subset: the snapshot's slice of the memo, or a recompute;
    /// * the full matrix, warm: the published snapshot's memo;
    /// * cold, coordinating: the sharded gather across the pool (2+
    ///   rows; below that the plan has no pairs), adopted as the memo;
    /// * cold, locally: the memo grown under the engine lock, which is
    ///   released before a byte of the reply is encoded.
    ///
    /// Both cold fills publish a snapshot carrying the memo, so the
    /// next full-matrix, top-pairs and subset reads are lock-free. The
    /// snapshot fixes the store geometry with no lock at all, so a slow
    /// worker never blocks other clients; the store is append-only, so
    /// a mid-flight ingest can only surface as a worker-side
    /// `ERR_PLAN`. A refusal comes back as the error frame to send.
    #[allow(clippy::result_large_err)]
    fn pairwise_matrix(&self, parties: &[u64]) -> Result<(Vec<u64>, ReplyMatrix), Response> {
        let snapshot = self.current_snapshot();
        if !parties.is_empty() {
            return match snapshot.pairwise(parties) {
                Ok(matrix) => Ok((parties.to_vec(), ReplyMatrix::Dense(matrix))),
                Err(e) => Err(error_response(&e)),
            };
        }
        let ids = || snapshot.store().party_ids().to_vec();
        let (ids, memo) = match (snapshot.full_matrix(), &self.shards) {
            (Some(memo), _) => (ids(), memo),
            (None, Some(shards)) if snapshot.n() >= 2 && !shards.workers.is_empty() => {
                (ids(), shards.sharded_pairwise(&self.shared, snapshot.n())?)
            }
            (None, _) => self
                .shared
                .mutate(|engine| (engine.store().party_ids().to_vec(), engine.pairwise_memo())),
        };
        Ok((ids, ReplyMatrix::Memo(memo)))
    }

    /// Unblock workers stuck in `accept` after shutdown was requested:
    /// a burst of no-op connections, one per running accept loop.
    fn wake_sleeping_workers(&self) {
        for _ in 0..self.active_workers.load(Ordering::SeqCst) {
            let _ = connect(&self.local_endpoint());
        }
    }

    /// Produce one `FetchSnapshot` answer as encoded frames: what a
    /// replica holding `have_rows` rows is missing, as the cheapest
    /// layered stream —
    ///
    /// * `have_rows ≥ base`: the journal **suffix** only, one
    ///   [`SNAPSHOT_LAYER_JOURNAL`] part per missing frame;
    /// * `have_rows < base`: the store snapshot in
    ///   [`SNAPSHOT_LAYER_STORE`] chunks of `part_len` bytes, then the
    ///   whole journal suffix —
    ///
    /// closed by one `SnapshotSummary` carrying the part count, total
    /// chunk bytes, the folded stream digest, and the log's tip. In the
    /// plain role (no replication log) the store itself is the
    /// "snapshot" and there is never a journal layer. In either role, a
    /// replica claiming more rows than the tip (the log's, or the
    /// store's row count) gets one typed `ERR_PLAN` refusal — it
    /// diverged, and guessing would be worse.
    ///
    /// # Errors
    /// Only what `emit` returns (transport failures in thread mode).
    fn stream_snapshot_frames(
        &self,
        have_rows: u64,
        part_len: u32,
        emit: &mut dyn FnMut(Vec<u8>) -> io::Result<()>,
    ) -> io::Result<()> {
        let part_len = if part_len == 0 {
            DEFAULT_SNAPSHOT_PART_LEN
        } else {
            part_len as usize
        };
        let snapshot = self.current_snapshot();
        let generation = snapshot.generation();
        let log = self.shards.as_ref().map(Shards::journal_lock);
        let tip = log.as_ref().map_or(snapshot.n(), |log| log.tip()) as u64;
        if have_rows > tip {
            // Emit nothing under the journal lock: a slow reader would
            // stall every coordinator ingest behind it.
            drop(log);
            let refusal = Response::Error {
                code: ERR_PLAN,
                message: format!(
                    "replica claims {have_rows} rows but the tip is {tip} — diverged ahead"
                ),
            };
            return emit(encode_bounded(&refusal));
        }
        let parts: Vec<(u8, Vec<u8>)> = match log {
            Some(log) => {
                let mut parts = Vec::new();
                if (have_rows as usize) < log.base {
                    let Some(snapshot) = &log.snapshot else {
                        drop(log);
                        let refusal = Response::Error {
                            code: ERR_INTERNAL,
                            message: "log has a non-zero base but no snapshot".to_string(),
                        };
                        return emit(encode_bounded(&refusal));
                    };
                    for chunk in snapshot.chunks(part_len) {
                        parts.push((SNAPSHOT_LAYER_STORE, chunk.to_vec()));
                    }
                    for frame in &log.frames {
                        parts.push((SNAPSHOT_LAYER_JOURNAL, frame.clone()));
                    }
                } else {
                    for frame in &log.frames[(have_rows as usize - log.base)..] {
                        parts.push((SNAPSHOT_LAYER_JOURNAL, frame.clone()));
                    }
                }
                parts
            }
            None if have_rows == tip => Vec::new(),
            None => snapshot
                .store()
                .encode_snapshot(generation)
                .chunks(part_len)
                .map(|chunk| (SNAPSHOT_LAYER_STORE, chunk.to_vec()))
                .collect(),
        };
        let mut checksum = FNV1A64_INIT;
        let mut total_len = 0u64;
        let count = parts.len() as u64;
        for (seq, (layer, chunk)) in parts.into_iter().enumerate() {
            let seq = seq as u64;
            total_len += chunk.len() as u64;
            let part = encode_bounded(&Response::SnapshotPart { seq, layer, chunk });
            checksum = stream_checksum(checksum, &part);
            emit(part)?;
        }
        let summary = Response::SnapshotSummary {
            generation,
            rows: tip,
            count,
            total_len,
            checksum,
        };
        emit(encode_bounded(&summary))
    }

    /// Close a push-install: verify the staged parts against the
    /// summary (count, byte total, folded digest, and the generation
    /// embedded in the snapshot itself), decode, and **replace** the
    /// engine with the decoded store — the coordinator is the source of
    /// truth, and every byte was checksummed twice (its part's verified
    /// frame trailer, folded into the stream digest, and the snapshot's
    /// own trailer). Answers one `Hello` (the ack the
    /// installing coordinator verifies the row count from) or a typed
    /// error; a failed install never half-applies.
    fn finish_snapshot_install(
        &self,
        staging: Option<InstallStaging>,
        generation: u64,
        rows: u64,
        count: u64,
        total_len: u64,
        checksum: u64,
    ) -> Response {
        let staged = staging.unwrap_or_default();
        if staged.next_seq != count
            || staged.bytes.len() as u64 != total_len
            || staged.digest != checksum
        {
            return Response::Error {
                code: ERR_MALFORMED,
                message: format!(
                    "snapshot install summary mismatch: staged {} part(s), {} byte(s), \
                     digest {:#018x} vs summary {count}/{total_len}/{checksum:#018x}",
                    staged.next_seq,
                    staged.bytes.len(),
                    staged.digest
                ),
            };
        }
        let (store, snapshot_generation) = match SketchStore::decode_snapshot(&staged.bytes) {
            Ok(decoded) => decoded,
            Err(e) => return error_response(&e),
        };
        if store.n() as u64 != rows || snapshot_generation != generation {
            return Response::Error {
                code: ERR_MALFORMED,
                message: format!(
                    "snapshot install diverged: snapshot holds {} row(s) at generation \
                     {snapshot_generation}, summary claims {rows} at {generation}",
                    store.n()
                ),
            };
        }
        self.shared.mutate(move |engine| {
            engine.replace_store(store, snapshot_generation);
            Response::Hello {
                k: engine.store().k().unwrap_or(0) as u32,
                rows: engine.store().n() as u64,
                tag: engine.store().tag().unwrap_or("").to_string(),
                caps: SERVER_CAPS,
            }
        })
    }
}

/// Default `FetchSnapshot` chunk size when the request leaves
/// `part_len` at 0.
const DEFAULT_SNAPSHOT_PART_LEN: usize = 256 << 10;

/// Accumulated push-install parts on one connection: contiguous
/// sequence check, folded stream digest, and the concatenated store
/// snapshot bytes.
struct InstallStaging {
    next_seq: u64,
    digest: u64,
    bytes: Vec<u8>,
}

/// Stage one push-install `Request::SnapshotPart`, decoded (and so
/// verified) from `payload`, whose trailer is folded into the staged
/// stream digest. Parts are unacknowledged, so success emits nothing;
/// a refusal clears the staging (a later summary then fails its count
/// check rather than installing a gapped image) and returns the error
/// frame to send.
#[allow(clippy::result_large_err)]
fn stage_snapshot_part(
    staging: &mut Option<InstallStaging>,
    payload: &[u8],
    seq: u64,
    layer: u8,
    chunk: &[u8],
) -> Result<(), Response> {
    if layer != SNAPSHOT_LAYER_STORE {
        *staging = None;
        return Err(Response::Error {
            code: ERR_MALFORMED,
            message: "push-install parts must carry the store layer".to_string(),
        });
    }
    let staged = staging.get_or_insert_with(InstallStaging::default);
    if seq != staged.next_seq {
        let got = staged.next_seq;
        *staging = None;
        return Err(Response::Error {
            code: ERR_MALFORMED,
            message: format!("snapshot part {seq} arrived out of order (expected {got})"),
        });
    }
    staged.digest = stream_checksum(staged.digest, payload);
    staged.bytes.extend_from_slice(chunk);
    staged.next_seq += 1;
    Ok(())
}

impl Default for InstallStaging {
    fn default() -> Self {
        Self {
            next_seq: 0,
            digest: FNV1A64_INIT,
            bytes: Vec::new(),
        }
    }
}

/// The server's one request brain, driven by both serve modes: the
/// reactor calls it from [`serve_loop`], thread mode from
/// [`Server::serve_conn`]. Each frame is decoded once and answered by
/// one `match` over every request kind, and every reply frame leaves
/// through the emitter — thread mode writes it to the socket at once,
/// the reactor collects the whole reply against its write budget. A
/// newtype over the server because its per-connection state is private.
struct Service<'a>(&'a Server);

impl FrameService for Service<'_> {
    /// A push-install in progress: `Request::SnapshotPart` frames
    /// accumulate here (unacknowledged) until the closing
    /// `Request::SnapshotSummary` verifies and installs them.
    type Conn = Option<InstallStaging>;

    /// Mutations run through [`SharedEngine::mutate`] (serialized, and
    /// publishing a fresh snapshot); every read-only arm answers from a
    /// published snapshot with no lock on the hot path. No reply byte is
    /// emitted while the order or engine lock is held.
    fn handle_frame(
        &self,
        staging: &mut Option<InstallStaging>,
        payload: &[u8],
        emit: &mut dyn FnMut(Vec<u8>) -> io::Result<()>,
    ) -> io::Result<Control> {
        let server = self.0;
        let request = match decode_request(payload) {
            Ok(request) => request,
            Err(e) => {
                let refusal = Response::Error {
                    code: ERR_MALFORMED,
                    message: e.to_string(),
                };
                emit(encode_bounded(&refusal))?;
                return Ok(Control::Continue);
            }
        };
        let response = match &request {
            Request::Hello { spec_json, .. } => {
                // Replicated mutations (coordinator Hello/Ingest)
                // serialize on the shards' order lock, acquired *before*
                // the engine lock: the local append, the journal append,
                // and the worker broadcast form one ordered unit, but the
                // engine lock is released (inside `mutate`) before the
                // broadcast, so a wedged worker stalls only other
                // mutations — local queries keep answering from
                // snapshots. The guard ends with the arm, before the
                // reply is emitted.
                let _order = server.shards.as_ref().map(Shards::order_lock);
                let response = server.shared.mutate(|engine| hello(engine, spec_json));
                // A coordinator journals the accepted spec and relays
                // it (with its own caps) so the worker replicas
                // negotiate the same store identity. A worker that
                // fails the relay or echoes a diverged row count is
                // poisoned — the journal lets it catch up later — but
                // the client's Hello still succeeds: the coordinator's
                // local engine is the source of truth.
                if let (Response::Hello { rows, .. }, Some(shards)) = (&response, &server.shards) {
                    let rows = *rows;
                    shards.journal_lock().set_spec(spec_json);
                    let relay = Request::Hello {
                        spec_json: spec_json.clone(),
                        caps: CLIENT_CAPS,
                    };
                    shards.broadcast_mutation(
                        &relay,
                        &|r| matches!(r, Response::Hello { rows: got, .. } if *got == rows),
                    );
                }
                response
            }
            Request::Ingest { release_frame } => {
                let _order = server.shards.as_ref().map(Shards::order_lock);
                let accepted = server.shared.mutate(|engine| {
                    engine
                        .ingest_bytes(release_frame)
                        .map(|row| (row as u64, engine.store().n() as u64))
                });
                match accepted {
                    Ok((row, rows)) => {
                        // Journal and broadcast only what the local
                        // engine accepted — a rejected release never
                        // reaches a worker. Live workers must echo the
                        // coordinator's row count (a different echo
                        // means the replica missed an earlier mutation
                        // → poisoned, caught up from the journal at the
                        // next revival); poisoned workers are skipped,
                        // not waited on. Either way the client's ingest
                        // succeeds.
                        if let Some(shards) = &server.shards {
                            let mut log = shards.journal_lock();
                            log.append(release_frame.clone());
                            if log.needs_compaction() {
                                // Fold the journal into a fresh snapshot.
                                // The published snapshot reflects this
                                // ingest (mutate published before we got
                                // here) and no other mutation can run —
                                // we hold the order lock — so its row
                                // count is exactly the log's tip.
                                let snap = server.shared.snapshot();
                                let bytes = snap.store().encode_snapshot(snap.generation());
                                log.install_snapshot(bytes, snap.n(), snap.generation());
                                log.compactions += 1;
                                shards.stats.compactions.fetch_add(1, Ordering::SeqCst);
                                shards
                                    .stats
                                    .snapshot_generation
                                    .store(snap.generation(), Ordering::SeqCst);
                            }
                            shards
                                .stats
                                .journal_len
                                .store(log.frames.len() as u64, Ordering::SeqCst);
                            drop(log);
                            shards.broadcast_mutation(
                                &request,
                                &|r| matches!(r, Response::Ingested { rows: got, .. } if *got == rows),
                            );
                        }
                        Response::Ingested { row, rows }
                    }
                    Err(e) => error_response(&e),
                }
            }
            Request::Pairwise { parties } => match server.pairwise_matrix(parties) {
                Ok((ids, matrix)) => {
                    stream_pairwise_frames(ids, &matrix, emit)?;
                    return Ok(Control::Continue);
                }
                Err(refusal) => refusal,
            },
            Request::PlanPairwise { tile } => {
                let plan = TilePlan::new(server.current_snapshot().n(), *tile as usize);
                Response::Plan {
                    rows: plan.n() as u64,
                    tile: plan.tile() as u32,
                    tile_count: plan.tile_count() as u64,
                    pair_count: plan.pair_count() as u64,
                }
            }
            Request::Knn { party, k } => match server.current_snapshot().knn(*party, *k as usize) {
                Ok(neighbors) => Response::Knn {
                    neighbors: neighbors
                        .into_iter()
                        .map(|n| (n.party_id, n.estimated_sq_distance))
                        .collect(),
                },
                Err(e) => error_response(&e),
            },
            Request::TopPairs { t } => {
                let pairs = match server.current_snapshot().top_pairs(*t as usize) {
                    Some(pairs) => pairs,
                    // Stale memo: fill it through the mutation path
                    // (publishing a matrix-carrying snapshot).
                    None => server.shared.mutate(|engine| engine.top_pairs(*t as usize)),
                };
                Response::TopPairs { pairs }
            }
            Request::ExecuteTilesStream {
                rows,
                tile,
                tile_ids,
            } => {
                // One immutable snapshot validates and executes every
                // tile, so the stream is consistent by construction even
                // while ingests publish newer snapshots.
                let snapshot = server.current_snapshot();
                let plan_rows = usize::try_from(*rows).unwrap_or(usize::MAX);
                match snapshot.validate_tiles(plan_rows, *tile as usize, tile_ids) {
                    Ok(plan) => {
                        let kernel = |id| {
                            let mut segments = snapshot.execute_tile(&plan, id);
                            segments.pop().expect("one id, one segment")
                        };
                        stream_tile_frames(*rows, *tile, tile_ids.iter().copied(), kernel, emit)?;
                        return Ok(Control::Continue);
                    }
                    Err(e) => error_response(&e),
                }
            }
            Request::FetchSnapshot {
                have_rows,
                part_len,
            } => {
                server.stream_snapshot_frames(*have_rows, *part_len, emit)?;
                return Ok(Control::Continue);
            }
            Request::SnapshotPart { seq, layer, chunk } => {
                match stage_snapshot_part(staging, payload, *seq, *layer, chunk) {
                    // Parts are unacknowledged.
                    Ok(()) => return Ok(Control::Continue),
                    Err(refusal) => refusal,
                }
            }
            Request::SnapshotSummary {
                generation,
                rows,
                count,
                total_len,
                checksum,
            } => server.finish_snapshot_install(
                staging.take(),
                *generation,
                *rows,
                *count,
                *total_len,
                *checksum,
            ),
            Request::Shutdown => {
                // A coordinator winds its worker pool down with it
                // (best-effort: a dead worker can't block shutdown).
                if let Some(shards) = &server.shards {
                    shards.broadcast_mutation(&request, &|r| matches!(r, Response::Bye));
                }
                server.shutdown.store(true, Ordering::SeqCst);
                emit(encode_bounded(&Response::Bye))?;
                return Ok(Control::Shutdown);
            }
        };
        emit(encode_bounded(&response))?;
        Ok(Control::Continue)
    }

    fn busy_payload(&self) -> Vec<u8> {
        encode_response(&Response::Error {
            code: ERR_BUSY,
            message: "server overloaded: reply exceeds the write budget or the \
                      connection cap is reached; retry later or query a smaller subset"
                .to_string(),
        })
        .expect("error frames encode")
    }
}

/// Encode a response, substituting a typed error when the frame would
/// exceed [`MAX_FRAME_LEN`] or fails to encode at all. Both serve modes
/// encode through here, keeping their bytes identical.
fn encode_bounded(response: &Response) -> Vec<u8> {
    encode_checked(response).unwrap_or_else(|refusal| refusal)
}

/// [`encode_bounded`] telling the two outcomes apart: the frame, or
/// the encoded `ERR_INTERNAL` refusal to send in its place.
fn encode_checked(response: &Response) -> Result<Vec<u8>, Vec<u8>> {
    let message = match encode_response(response) {
        Ok(bytes) if bytes.len() <= MAX_FRAME_LEN => return Ok(bytes),
        Ok(bytes) => format!(
            "response of {} bytes exceeds the {} byte frame limit; \
             query a smaller subset",
            bytes.len(),
            MAX_FRAME_LEN
        ),
        Err(_) => "response failed to encode".to_string(),
    };
    let refusal = Response::Error {
        code: ERR_INTERNAL,
        message,
    };
    Err(encode_response(&refusal).expect("error frames are small"))
}

/// What a `Pairwise` reply is read from: the all-pairs memo for the
/// full matrix, or a subset's dense matrix.
enum ReplyMatrix {
    Memo(Arc<PairwiseMemo>),
    Dense(PairwiseDistances),
}

impl ReplyMatrix {
    fn n(&self) -> usize {
        match self {
            Self::Memo(memo) => memo.n(),
            Self::Dense(matrix) => matrix.n(),
        }
    }

    /// One tile's row-major segment of the upper triangle.
    fn segment(&self, tile: &Tile) -> Vec<f64> {
        match self {
            Self::Memo(memo) => memo.segment(tile),
            Self::Dense(matrix) => slice_tile_segment(tile, matrix.as_flat(), matrix.n()),
        }
    }
}

/// Answer a `Pairwise` request off `matrix` (indexed by `parties`):
/// one `PairwiseHead`, then the matrix's upper triangle as the part
/// stream of `TilePlan(n, PAIRWISE_REPLY_TILE)`, each segment read
/// straight off the memo's panels (or the subset's matrix). No frame
/// holds more than one tile, so no matrix size trips the frame limit,
/// and in thread mode each part is on the wire while the next is
/// encoded.
///
/// # Errors
/// Only what `emit` returns (transport failures in thread mode).
fn stream_pairwise_frames(
    parties: Vec<u64>,
    matrix: &ReplyMatrix,
    emit: &mut dyn FnMut(Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let n = matrix.n();
    let head = Response::PairwiseHead {
        parties,
        tile: PAIRWISE_REPLY_TILE,
    };
    match encode_checked(&head) {
        Ok(bytes) => emit(bytes)?,
        Err(refusal) => return emit(refusal),
    }
    let plan = TilePlan::new(n, PAIRWISE_REPLY_TILE as usize);
    let slice = |id: u64| {
        let tile = plan.tile_at(id as usize).expect("ids come from the plan");
        TileSegment {
            tile_id: id,
            values: matrix.segment(&tile),
        }
    };
    let ids = 0..plan.tile_count() as u64;
    stream_tile_frames(n as u64, PAIRWISE_REPLY_TILE, ids, slice, emit)
}

/// The one tile-part emitter: a `TileResultPart` frame per id, each
/// segment drawn from `segment_of` (the kernel over a snapshot for an
/// `ExecuteTilesStream`, a matrix slice for a `Pairwise` reply), closed
/// by a `TileResultSummary` carrying the part count and the running
/// stream digest, folded from each part's trailer right after it is
/// encoded. Each frame goes to `emit` as soon as it is ready
/// (thread mode writes it to the socket, the event loop queues it), so
/// a whole-stream frame never materializes; both serve modes stream
/// through here, keeping their bytes identical.
///
/// # Errors
/// Only what `emit` returns (transport failures in thread mode);
/// protocol-level failures travel as `Error` frames.
fn stream_tile_frames(
    rows: u64,
    tile: u32,
    ids: impl IntoIterator<Item = u64>,
    mut segment_of: impl FnMut(u64) -> TileSegment,
    emit: &mut dyn FnMut(Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let mut checksum = FNV1A64_INIT;
    let mut count = 0u64;
    for id in ids {
        let part = Response::TileResultPart {
            rows,
            tile,
            segment: segment_of(id),
        };
        let Ok(bytes) = encode_response(&part) else {
            let oversize = Response::Error {
                code: ERR_INTERNAL,
                message: format!("tile {id} exceeds a single frame; use a smaller tile side"),
            };
            return emit(encode_bounded(&oversize));
        };
        checksum = stream_checksum(checksum, &bytes);
        count += 1;
        emit(bytes)?;
    }
    let summary = Response::TileResultSummary {
        rows,
        tile,
        count,
        checksum,
    };
    emit(encode_bounded(&summary))
}

/// The capabilities this server advertises on every `Hello` answer.
const SERVER_CAPS: u32 = CAP_TILE_STREAM | CAP_SKETCH_F32 | CAP_SNAPSHOT;

/// The capabilities [`Client`] itself speaks, offered in every
/// `Hello` it sends on behalf of the coordinator role.
const CLIENT_CAPS: u32 = CAP_TILE_STREAM | CAP_SKETCH_F32 | CAP_SNAPSHOT;

/// The `Hello` negotiation: adopt the spec on a fresh store, accept a
/// matching re-`Hello`, refuse a different spec. A spec differing
/// *only* in the kernel version gets the dedicated `ERR_KERNEL` answer
/// — the peer is on the right store but the wrong kernel build, and
/// can re-`Hello` with the served kernel instead of re-deriving
/// parameters.
fn hello(engine: &mut QueryEngine, spec_json: &str) -> Response {
    let proposed = match SketcherSpec::from_json(spec_json) {
        Ok(spec) => spec,
        Err(e) => {
            return Response::Error {
                code: ERR_SPEC,
                message: e.to_string(),
            }
        }
    };
    match engine.store().spec() {
        Some(current) if *current == proposed => {}
        Some(current) if current.differs_only_in_kernel(&proposed) => {
            return error_response(&EngineError::KernelMismatch {
                served: current.kernel().name().to_string(),
                proposed: proposed.kernel().name().to_string(),
            })
        }
        Some(_) => {
            return Response::Error {
                code: ERR_SPEC_MISMATCH,
                message: "store already serves a different spec".to_string(),
            }
        }
        None if engine.store().is_empty() => {
            // Adopt: the spec's kernel becomes the engine's executing
            // kernel (the negotiated identity wins over the local
            // environment's DP_KERNEL), and the replacement's generation
            // bump makes the mutation path publish a snapshot carrying
            // the adopted spec.
            match SketchStore::with_spec(proposed) {
                Ok(store) => engine.replace_store(store, 0),
                Err(e) => return error_response(&e),
            }
        }
        None => {
            return Response::Error {
                code: ERR_SPEC_MISMATCH,
                message: "store already holds releases without a spec".to_string(),
            }
        }
    }
    Response::Hello {
        k: engine.store().k().unwrap_or(0) as u32,
        rows: engine.store().n() as u64,
        tag: engine.store().tag().unwrap_or("").to_string(),
        caps: SERVER_CAPS,
    }
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server did not answer within the configured read timeout
    /// ([`Client::set_read_timeout`]) — a dead or wedged peer.
    Timeout,
    /// A frame failed to encode or decode locally.
    Codec(CoreError),
    /// The server answered with an error frame.
    Remote {
        /// One of the protocol `ERR_*` codes.
        code: u16,
        /// The server's message.
        message: String,
    },
    /// The server answered with a frame of the wrong kind.
    UnexpectedResponse,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Timeout => write!(f, "peer did not answer within the read timeout"),
            Self::Codec(e) => write!(f, "codec error: {e}"),
            Self::Remote { code, message } => write!(f, "server error {code}: {message}"),
            Self::UnexpectedResponse => write!(f, "unexpected response kind"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        // Socket read deadlines surface as either kind, platform
        // dependent; fold both into the typed timeout.
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            return Self::Timeout;
        }
        Self::Io(e)
    }
}

impl From<CoreError> for ClientError {
    fn from(e: CoreError) -> Self {
        Self::Codec(e)
    }
}

/// A small blocking protocol-v7 client over one connection.
pub struct Client {
    conn: Conn,
}

impl Client {
    /// Connect to a serving endpoint.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        Ok(Self {
            conn: connect(endpoint)?,
        })
    }

    /// Connect with a bound on the connect itself: against a
    /// black-holed TCP host this fails within `timeout` instead of the
    /// kernel's (possibly minutes-long) connect timeout. A coordinator
    /// reviving workers uses this so one unreachable host cannot stall
    /// its mutation pipeline.
    ///
    /// # Errors
    /// Propagates connect failures; times out as `TimedOut`.
    pub fn connect_timeout(endpoint: &Endpoint, timeout: Duration) -> io::Result<Self> {
        Ok(Self {
            conn: connect_with_timeout(endpoint, timeout)?,
        })
    }

    /// Set (or clear) the socket read timeout. With a timeout set, a
    /// call against a dead or wedged server fails with
    /// [`ClientError::Timeout`] instead of blocking forever — the knob
    /// a coordinator uses so one dead worker fails the gather with a
    /// typed error rather than hanging every query.
    ///
    /// # Errors
    /// Propagates socket option failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.conn.set_read_timeout(timeout)
    }

    /// The underlying connection, for custom frame exchanges (tests,
    /// protocol fuzzing).
    pub fn conn_mut(&mut self) -> &mut Conn {
        &mut self.conn
    }

    /// One request/response exchange.
    ///
    /// # Errors
    /// Transport and codec failures; *not* server `Error` frames, which
    /// are returned as values for the typed wrappers to interpret.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.exchange(request, |response, _| Ok(Some(response)))
    }

    /// The one reply reader: write `request`, then hand each decoded
    /// reply frame, with the raw payload its trailer was verified
    /// over, to `on_frame` until it returns `Some` — the exchange's
    /// result. The server hanging up first is a transport error.
    fn exchange<T>(
        &mut self,
        request: &Request,
        mut on_frame: impl FnMut(Response, &[u8]) -> Result<Option<T>, ClientError>,
    ) -> Result<T, ClientError> {
        write_frame(&mut self.conn, &encode_request(request)?)?;
        loop {
            let reply = read_frame(&mut self.conn)?.ok_or_else(|| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before answering",
                ))
            })?;
            if let Some(done) = on_frame(decode_response(&reply)?, &reply)? {
                return Ok(done);
            }
        }
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        pick: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, ClientError> {
        match self.call(request)? {
            error @ Response::Error { .. } => Err(refused(error)),
            other => pick(other).ok_or(ClientError::UnexpectedResponse),
        }
    }

    /// Negotiate the shared spec; returns `(k, rows, tag)`. The client
    /// advertises every capability it implements ([`CAP_TILE_STREAM`],
    /// [`CAP_SKETCH_F32`] and [`CAP_SNAPSHOT`]); use
    /// [`Client::hello_caps`] to also learn the server's.
    ///
    /// # Errors
    /// [`ClientError::Remote`] with `ERR_SPEC`/`ERR_SPEC_MISMATCH` on a
    /// refused spec; transport/codec failures.
    pub fn hello(&mut self, spec: &SketcherSpec) -> Result<(u32, u64, String), ClientError> {
        self.hello_caps(spec)
            .map(|(k, rows, tag, _)| (k, rows, tag))
    }

    /// [`Client::hello`] returning the server's capability bitfield
    /// too: `(k, rows, tag, caps)`.
    ///
    /// # Errors
    /// As [`Client::hello`].
    pub fn hello_caps(
        &mut self,
        spec: &SketcherSpec,
    ) -> Result<(u32, u64, String, u32), ClientError> {
        self.expect(
            &Request::Hello {
                spec_json: spec.to_json(),
                caps: CLIENT_CAPS,
            },
            |r| match r {
                Response::Hello { k, rows, tag, caps } => Some((k, rows, tag, caps)),
                _ => None,
            },
        )
    }

    /// Ingest one release; returns `(row, rows)`.
    ///
    /// # Errors
    /// [`ClientError::Remote`] on rejection; transport/codec failures.
    pub fn ingest(&mut self, release: &Release) -> Result<(u64, u64), ClientError> {
        let release_frame = release.to_bytes()?;
        self.expect(&Request::Ingest { release_frame }, |r| match r {
            Response::Ingested { row, rows } => Some((row, rows)),
            _ => None,
        })
    }

    /// Ingest one release with the quantized `f32` sketch framing —
    /// half the bytes per sketch on the wire. Only valid against a
    /// server whose `Hello` advertised [`CAP_SKETCH_F32`]; the caller
    /// checks the caps word from [`Client::hello_caps`].
    ///
    /// # Errors
    /// [`ClientError::Remote`] on rejection; transport/codec failures,
    /// including values that overflow `f32` quantization.
    pub fn ingest_f32(&mut self, release: &Release) -> Result<(u64, u64), ClientError> {
        let release_frame = release.to_bytes_f32()?;
        self.expect(&Request::Ingest { release_frame }, |r| match r {
            Response::Ingested { row, rows } => Some((row, rows)),
            _ => None,
        })
    }

    /// All pairwise estimates among `parties` (empty = every ingested
    /// row); returns `(ids, row-major values)`.
    ///
    /// The server answers with a `PairwiseHead` and the matrix's upper
    /// triangle as a tile-part stream; each part is scattered (with
    /// its mirror) into the `n × n` buffer as it arrives, through the
    /// same [`Gather`] a coordinator assembles shards with, and the
    /// closing summary's part count and stream digest are verified.
    ///
    /// # Errors
    /// [`ClientError::Remote`] on rejection; transport/codec failures.
    /// A malformed stream is typed too: a subset head that does not
    /// echo `parties`, or more parts than the head's plan holds, is
    /// [`ClientError::UnexpectedResponse`]; a part the plan does not
    /// fit, a head whose matrix cannot be allocated, or a stream that
    /// ends with tiles missing is [`ClientError::Codec`]; a summary
    /// count or digest mismatch is [`ClientError::Codec`] with
    /// [`CoreError::ChecksumMismatch`].
    pub fn pairwise(&mut self, parties: &[u64]) -> Result<(Vec<u64>, Vec<f64>), ClientError> {
        let request = Request::Pairwise {
            parties: parties.to_vec(),
        };
        let stream_error = |e: GatherError| ClientError::Codec(CoreError::Wire(e.to_string()));
        let mut open: Option<(Vec<u64>, Gather, PartStream)> = None;
        self.exchange(&request, |response, payload| {
            let Some((_, gather, stream)) = open.as_mut() else {
                let Response::PairwiseHead { parties: ids, tile } = response else {
                    return Err(refused(response));
                };
                if !parties.is_empty() && ids != parties {
                    return Err(ClientError::UnexpectedResponse);
                }
                let plan = TilePlan::new(ids.len(), tile as usize);
                let gather = Gather::try_new(plan).map_err(stream_error)?;
                let stream = PartStream::new(ids.len() as u64, tile, plan.tile_count() as u64);
                open = Some((ids, gather, stream));
                return Ok(None);
            };
            let closed = stream.read(response, payload, &mut |segment| {
                gather.accept(&segment).map_err(stream_error)
            })?;
            if closed.is_none() {
                return Ok(None);
            }
            let (ids, gather, _) = open.take().expect("the stream is open");
            let matrix = gather.finish().map_err(stream_error)?;
            Ok(Some((ids, matrix.into_flat())))
        })
    }

    /// The `k` nearest neighbors of `party`.
    ///
    /// # Errors
    /// [`ClientError::Remote`] on rejection; transport/codec failures.
    pub fn knn(&mut self, party: u64, k: u32) -> Result<Vec<(u64, f64)>, ClientError> {
        self.expect(&Request::Knn { party, k }, |r| match r {
            Response::Knn { neighbors } => Some(neighbors),
            _ => None,
        })
    }

    /// The `t` globally closest pairs.
    ///
    /// # Errors
    /// [`ClientError::Remote`] on rejection; transport/codec failures.
    pub fn top_pairs(&mut self, t: u32) -> Result<Vec<(u64, u64, f64)>, ClientError> {
        self.expect(&Request::TopPairs { t }, |r| match r {
            Response::TopPairs { pairs } => Some(pairs),
            _ => None,
        })
    }

    /// The plan a tile side induces over the server's current store;
    /// returns `(rows, tile, tile_count, pair_count)`.
    ///
    /// # Errors
    /// [`ClientError::Remote`] on rejection; transport/codec failures.
    pub fn plan_pairwise(&mut self, tile: u32) -> Result<(u64, u32, u64, u64), ClientError> {
        self.expect(&Request::PlanPairwise { tile }, |r| match r {
            Response::Plan {
                rows,
                tile,
                tile_count,
                pair_count,
            } => Some((rows, tile, tile_count, pair_count)),
            _ => None,
        })
    }

    /// Execute an explicit set of plan tiles on the server: it answers
    /// with one `TileResultPart` frame per tile and a closing
    /// `TileResultSummary`, so no monolithic result frame ever
    /// materializes on either side. Each segment is handed to `sink` as
    /// it arrives (a coordinator scatters it straight into its gather).
    /// Every part must echo the requested plan `(rows, tile)` — a
    /// mismatched echo is [`ClientError::UnexpectedResponse`], so a
    /// gather can never mix plans. Returns the number of parts received
    /// after verifying the summary's part count and stream digest — a
    /// lost, duplicated, or reordered part fails the exchange like a
    /// corrupted frame.
    ///
    /// Only valid against a server whose `Hello` advertised
    /// [`CAP_TILE_STREAM`].
    ///
    /// # Errors
    /// [`ClientError::Remote`] (`ERR_PLAN`) when the plan doesn't match
    /// the server's store; [`ClientError::Codec`] with
    /// [`CoreError::ChecksumMismatch`] on a summary digest mismatch;
    /// transport/codec failures; [`ClientError::Timeout`] past the read
    /// timeout.
    pub fn execute_tiles_streamed(
        &mut self,
        rows: u64,
        tile: u32,
        tile_ids: &[u64],
        sink: &mut dyn FnMut(TileSegment),
    ) -> Result<u64, ClientError> {
        let request = Request::ExecuteTilesStream {
            rows,
            tile,
            tile_ids: tile_ids.to_vec(),
        };
        let mut stream = PartStream::new(rows, tile, tile_ids.len() as u64);
        self.exchange(&request, |response, payload| {
            stream.read(response, payload, &mut |segment| {
                sink(segment);
                Ok(())
            })
        })
    }

    /// Fetch everything past `have_rows` from the server's layered
    /// replication state as a part stream: each part is handed to
    /// `sink` as `(layer, chunk)` — [`SNAPSHOT_LAYER_STORE`] chunks
    /// concatenate into one store snapshot image, each
    /// [`SNAPSHOT_LAYER_JOURNAL`] part is one journaled ingest frame.
    /// Returns the closing summary's `(generation, rows, count)` after
    /// verifying its part count, byte total, and folded stream digest.
    /// `part_len` 0 lets the server pick its default chunk size.
    ///
    /// Only valid against a server whose `Hello` advertised
    /// [`CAP_SNAPSHOT`].
    ///
    /// # Errors
    /// [`ClientError::Remote`] (`ERR_PLAN`) when `have_rows` is ahead
    /// of the server's log (the caller diverged and must refetch from
    /// 0); [`ClientError::Codec`] with [`CoreError::ChecksumMismatch`]
    /// on a summary digest mismatch; transport/codec failures;
    /// [`ClientError::Timeout`] past the read timeout.
    pub fn fetch_snapshot(
        &mut self,
        have_rows: u64,
        part_len: u32,
        sink: &mut dyn FnMut(u8, Vec<u8>),
    ) -> Result<(u64, u64, u64), ClientError> {
        let request = Request::FetchSnapshot {
            have_rows,
            part_len,
        };
        let mut digest = FNV1A64_INIT;
        let mut count = 0u64;
        let mut received = 0u64;
        self.exchange(&request, |response, payload| match response {
            Response::SnapshotPart { seq, layer, chunk } => {
                if seq != count {
                    return Err(ClientError::UnexpectedResponse);
                }
                digest = stream_checksum(digest, payload);
                count += 1;
                received += chunk.len() as u64;
                sink(layer, chunk);
                Ok(None)
            }
            Response::SnapshotSummary {
                generation,
                rows,
                count: sent,
                total_len,
                checksum,
            } => {
                if sent != count || total_len != received || checksum != digest {
                    return Err(ClientError::Codec(CoreError::ChecksumMismatch {
                        stored: checksum,
                        computed: digest,
                    }));
                }
                Ok(Some((generation, rows, count)))
            }
            other => Err(refused(other)),
        })
    }

    /// Push-install a store snapshot image onto the server, replacing
    /// its engine wholesale: the image is chunked into unacknowledged
    /// [`SNAPSHOT_LAYER_STORE`] parts, closed with a summary carrying
    /// `rows`, `generation`, and the folded stream digest, and the
    /// server answers one `Hello` whose row count this returns. A
    /// coordinator uses this to seed a replica that predates the
    /// compacted journal. `part_len` 0 uses the wire default.
    ///
    /// # Errors
    /// [`ClientError::Remote`] (`ERR_MALFORMED`) when the server's
    /// staging disagrees with the summary; transport/codec failures;
    /// [`ClientError::Timeout`] past the read timeout.
    pub fn install_snapshot(
        &mut self,
        snapshot: &[u8],
        rows: u64,
        generation: u64,
        part_len: usize,
    ) -> Result<u64, ClientError> {
        let part_len = if part_len == 0 {
            DEFAULT_SNAPSHOT_PART_LEN
        } else {
            part_len
        };
        let mut digest = FNV1A64_INIT;
        let mut count = 0u64;
        for chunk in snapshot.chunks(part_len) {
            let part = Request::SnapshotPart {
                seq: count,
                layer: SNAPSHOT_LAYER_STORE,
                chunk: chunk.to_vec(),
            };
            let payload = encode_request(&part)?;
            digest = stream_checksum(digest, &payload);
            write_frame(&mut self.conn, &payload)?;
            count += 1;
        }
        self.expect(
            &Request::SnapshotSummary {
                generation,
                rows,
                count,
                total_len: snapshot.len() as u64,
                checksum: digest,
            },
            |r| match r {
                Response::Hello { rows, .. } => Some(rows),
                _ => None,
            },
        )
    }

    /// Ask the server to exit cleanly; consumes the client.
    ///
    /// # Errors
    /// Transport/codec failures.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.expect(&Request::Shutdown, |r| {
            matches!(r, Response::Bye).then_some(())
        })
    }
}

/// The reader of one tile-part stream, shared by
/// [`Client::execute_tiles_streamed`] and [`Client::pairwise`]: every
/// part must echo the plan `(rows, tile)` and stay within the `limit`
/// the request allows, and the closing summary must carry the part
/// count and the stream digest folded here from each verified part's
/// trailer — so a lost, duplicated, reordered, altered or runaway part
/// fails the exchange like a corrupted frame.
struct PartStream {
    rows: u64,
    tile: u32,
    limit: u64,
    count: u64,
    digest: u64,
}

impl PartStream {
    fn new(rows: u64, tile: u32, limit: u64) -> Self {
        Self {
            rows,
            tile,
            limit,
            count: 0,
            digest: FNV1A64_INIT,
        }
    }

    /// Read one reply frame, decoded from `payload`: a part goes to
    /// `sink`, and the verified summary closes the stream with the part
    /// count.
    fn read(
        &mut self,
        response: Response,
        payload: &[u8],
        sink: &mut dyn FnMut(TileSegment) -> Result<(), ClientError>,
    ) -> Result<Option<u64>, ClientError> {
        match response {
            Response::TileResultPart {
                rows,
                tile,
                segment,
            } if rows == self.rows && tile == self.tile => {
                // More parts than the request allows can only be a
                // runaway or malicious stream; stop reading.
                if self.count >= self.limit {
                    return Err(ClientError::UnexpectedResponse);
                }
                self.digest = stream_checksum(self.digest, payload);
                self.count += 1;
                sink(segment)?;
                Ok(None)
            }
            Response::TileResultSummary {
                rows,
                tile,
                count,
                checksum,
            } if rows == self.rows && tile == self.tile => {
                if count != self.count || checksum != self.digest {
                    return Err(ClientError::Codec(CoreError::ChecksumMismatch {
                        stored: checksum,
                        computed: self.digest,
                    }));
                }
                Ok(Some(self.count))
            }
            other => Err(refused(other)),
        }
    }
}

/// How a reply frame outside an exchange's vocabulary ends it: the
/// server's own refusal, or a frame of the wrong kind.
fn refused(response: Response) -> ClientError {
    match response {
        Response::Error { code, message } => ClientError::Remote { code, message },
        _ => ClientError::UnexpectedResponse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::config::SketchConfig;
    use dp_core::sketcher::Construction;
    use dp_core::KernelId;
    use dp_hashing::Seed;
    use std::path::PathBuf;

    fn bare_shards() -> Shards {
        Shards {
            workers: Vec::new(),
            tile: 4,
            order: Mutex::new(()),
            journal: Mutex::new(ReplicationLog::in_memory(0)),
            stats: StatsCells::default(),
        }
    }

    #[test]
    fn poisoned_order_and_journal_locks_recover_too() {
        let shards = bare_shards();
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _o = shards.order.lock().unwrap(); // dp-lint: allow(lock-unwrap) — deliberate poisoning under test
                    let _j = shards.journal.lock().unwrap(); // dp-lint: allow(lock-unwrap) — deliberate poisoning under test
                    panic!("mutation thread dies");
                })
                .join()
        });
        assert!(shards.order.is_poisoned());
        assert!(shards.journal.is_poisoned());
        drop(shards.order_lock());
        shards.journal_lock().frames.push(vec![1, 2, 3]);
        assert!(!shards.order.is_poisoned());
        assert!(!shards.journal.is_poisoned());
        assert_eq!(shards.journal_lock().frames.len(), 1);
    }

    /// The journal only covers post-bind mutations: frame `i` is store
    /// row `base + i`. A replica must land inside that window to be
    /// caught up; outside it, revival must refuse — in particular a
    /// healthy in-sync replica of a pre-seeded coordinator (`have ==
    /// base + frames`) replays nothing, and one missing pre-journal
    /// rows (`have < base`) is NOT silently treated as empty.
    #[test]
    fn replay_skip_respects_the_journal_base() {
        // Fresh coordinator (base 0): the original arithmetic.
        assert_eq!(replay_skip(0, 5, 0), Ok(0));
        assert_eq!(replay_skip(0, 5, 3), Ok(3));
        assert_eq!(replay_skip(0, 5, 5), Ok(5));
        assert!(replay_skip(0, 5, 6).is_err(), "ahead of the journal");
        // Pre-seeded coordinator (base 10): an in-sync replica after a
        // connection drop replays only the journaled suffix…
        assert_eq!(replay_skip(10, 4, 10), Ok(0));
        assert_eq!(replay_skip(10, 4, 12), Ok(2));
        assert_eq!(replay_skip(10, 4, 14), Ok(4), "fully caught up");
        // …while a fresh-restarted replica (0 rows) cannot be rebuilt
        // from a log that starts at row 10.
        assert!(replay_skip(10, 4, 0).is_err(), "predates the journal");
        assert!(replay_skip(10, 4, 9).is_err(), "predates the journal");
        assert!(replay_skip(10, 4, 15).is_err(), "ahead of the journal");
    }

    #[test]
    fn tcp_connect_timeout_bounds_unreachable_hosts() {
        // RFC 5737 TEST-NET: never routable on the open internet.
        // Environments differ in how the connect fails (fast
        // unreachable, silent drop, or a transparent proxy accepting
        // it), so the only portable assertion is the one that matters:
        // the call returns within a small multiple of the configured
        // timeout, never the kernel's minutes-long connect timeout.
        let endpoint = Endpoint::Tcp("192.0.2.1:9".to_string());
        let started = std::time::Instant::now();
        let _ = Client::connect_timeout(&endpoint, Duration::from_millis(200));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "connect was not bounded: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn endpoint_parse_and_display() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7878").unwrap(),
            Endpoint::Tcp("127.0.0.1:7878".to_string())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/dp.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/dp.sock"))
        );
        assert!(Endpoint::parse("http://nope").is_err());
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7878").unwrap().to_string(),
            "tcp:127.0.0.1:7878"
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/dp.sock").unwrap().to_string(),
            "unix:/tmp/dp.sock"
        );
    }

    #[test]
    fn error_mapping_covers_the_engine_vocabulary() {
        let cases = [
            (EngineError::DuplicateParty(1), ERR_DUPLICATE_PARTY),
            (EngineError::UnknownParty(2), ERR_UNKNOWN_PARTY),
            (
                EngineError::Incompatible {
                    party_id: 3,
                    detail: "tag".to_string(),
                },
                ERR_INCOMPATIBLE,
            ),
            (
                EngineError::Core(CoreError::Wire("bad".to_string())),
                ERR_MALFORMED,
            ),
            (
                EngineError::Core(CoreError::MissingField("delta")),
                ERR_INTERNAL,
            ),
            (EngineError::Empty, ERR_INTERNAL),
            (
                EngineError::PlanMismatch {
                    store_rows: 4,
                    plan_rows: 5,
                },
                ERR_PLAN,
            ),
            (
                EngineError::UnknownTile {
                    id: 9,
                    tile_count: 3,
                },
                ERR_PLAN,
            ),
            (
                EngineError::KernelMismatch {
                    served: "v1-scalar".to_string(),
                    proposed: "v2-simd".to_string(),
                },
                ERR_KERNEL,
            ),
        ];
        for (e, want) in cases {
            match error_response(&e) {
                Response::Error { code, .. } => assert_eq!(code, want, "{e}"),
                other => panic!("expected an error frame, got {other:?}"),
            }
        }
    }

    /// The `Hello` negotiation distinguishes "wrong spec" from "right
    /// spec, wrong kernel build": the latter gets the dedicated
    /// `ERR_KERNEL` answer naming both kernels, so the peer can
    /// re-`Hello` with the served kernel instead of re-deriving
    /// parameters. A matching kernel still round-trips.
    #[test]
    fn hello_refuses_kernel_mismatch_with_a_typed_error() {
        let config = SketchConfig::builder()
            .input_dim(64)
            .alpha(0.3)
            .beta(0.05)
            .epsilon(1.0)
            .build()
            .expect("config");
        let served = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(7))
            .with_kernel(KernelId::V2Simd);
        let mut engine = QueryEngine::new(SketchStore::with_spec(served.clone()).expect("store"));

        // Same parameters, V1 kernel: the dedicated refusal.
        let proposed = served.clone().with_kernel(KernelId::V1Scalar);
        match hello(&mut engine, &proposed.to_json()) {
            Response::Error { code, message } => {
                assert_eq!(code, ERR_KERNEL);
                assert!(message.contains("v2-simd"), "{message}");
                assert!(message.contains("v1-scalar"), "{message}");
            }
            other => panic!("expected ERR_KERNEL, got {other:?}"),
        }
        // The served kernel is accepted, and the engine executes it.
        match hello(&mut engine, &served.to_json()) {
            Response::Hello { rows, .. } => assert_eq!(rows, 0),
            other => panic!("expected Hello, got {other:?}"),
        }
        assert_eq!(engine.parallelism().kernel(), KernelId::V2Simd);

        // An empty spec-less store adopts the proposed kernel wholesale.
        let mut fresh = QueryEngine::new(SketchStore::adopting());
        match hello(&mut fresh, &proposed.to_json()) {
            Response::Hello { .. } => {}
            other => panic!("expected Hello, got {other:?}"),
        }
        assert_eq!(fresh.parallelism().kernel(), KernelId::V1Scalar);
        assert_eq!(
            fresh.store().spec().expect("adopted").kernel(),
            KernelId::V1Scalar
        );
    }
}
